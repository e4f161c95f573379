#include "service/dataset_merge.hpp"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <string>
#include <system_error>
#include <utility>

namespace syn::service {

namespace {

[[noreturn]] void merge_fail(const std::filesystem::path& dir,
                             const std::string& what) {
  throw std::runtime_error("merge_dataset_parts(" + dir.generic_string() +
                           "): " + what);
}

/// The "file" field of one manifest record line. Generated paths never
/// contain escapes (shard_NNNN/synthetic_N.v), so a plain quote scan is
/// exact.
std::string record_file(const std::string& line) {
  const auto tag = line.find("\"file\":\"");
  if (tag == std::string::npos) return {};
  const auto start = tag + 8;
  const auto end = line.find('"', start);
  if (end == std::string::npos) return {};
  return line.substr(start, end - start);
}

std::size_t record_index(const std::string& line) {
  const auto tag = line.find("\"index\":");
  if (tag == std::string::npos) return static_cast<std::size_t>(-1);
  return static_cast<std::size_t>(
      std::strtoull(line.c_str() + tag + 8, nullptr, 10));
}

/// rename(2) with a copy+remove fallback for cross-device moves (parts
/// normally live under the final dir, but the layout is not enforced).
void move_file(const std::filesystem::path& from,
               const std::filesystem::path& to) {
  std::error_code ec;
  std::filesystem::rename(from, to, ec);
  if (!ec) return;
  std::filesystem::copy_file(
      from, to, std::filesystem::copy_options::overwrite_existing);
  std::filesystem::remove(from);
}

}  // namespace

std::size_t merge_dataset_parts(const std::filesystem::path& dir,
                                std::vector<DatasetPart> parts,
                                std::uint64_t seed, std::size_t shard_size,
                                const DatasetSummary& summary) {
  std::sort(parts.begin(), parts.end(),
            [](const DatasetPart& a, const DatasetPart& b) {
              return a.lo < b.lo;
            });
  for (std::size_t p = 0; p + 1 < parts.size(); ++p) {
    if (parts[p].hi != parts[p + 1].lo) {
      merge_fail(dir, "parts do not tile a contiguous range (" +
                          std::to_string(parts[p].hi) + " vs " +
                          std::to_string(parts[p + 1].lo) + ")");
    }
  }

  std::filesystem::create_directories(dir);
  const DirLock lock(dir);

  // Validate every part before touching the final dir: a short or
  // out-of-order part manifest aborts the merge with everything intact.
  std::string manifest;
  std::vector<std::pair<std::filesystem::path, std::string>> moves;
  std::size_t records = 0;
  for (const DatasetPart& part : parts) {
    std::ifstream in(part.dir / "manifest.jsonl");
    if (!in) {
      merge_fail(dir, "part " + part.dir.generic_string() +
                          " has no manifest.jsonl");
    }
    std::size_t expect = part.lo;
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty()) continue;
      const std::size_t index = record_index(line);
      if (index != expect) {
        merge_fail(dir, "part " + part.dir.generic_string() +
                            " record index " + std::to_string(index) +
                            " (expected " + std::to_string(expect) + ")");
      }
      const std::string file = record_file(line);
      if (file.empty()) {
        merge_fail(dir, "part " + part.dir.generic_string() +
                            " record " + std::to_string(index) +
                            " has no file field");
      }
      if (!std::filesystem::exists(part.dir / file)) {
        merge_fail(dir, "part " + part.dir.generic_string() + " is missing " +
                            file);
      }
      manifest += line + "\n";
      moves.emplace_back(part.dir, file);
      ++expect;
      ++records;
    }
    if (expect != part.hi) {
      merge_fail(dir, "part " + part.dir.generic_string() + " ends at " +
                          std::to_string(expect) + " (expected " +
                          std::to_string(part.hi) + ")");
    }
  }

  for (const auto& [part_dir, file] : moves) {
    const std::filesystem::path to = dir / file;
    std::filesystem::create_directories(to.parent_path());
    move_file(part_dir / file, to);
  }

  {
    std::ofstream out(dir / "manifest.jsonl", std::ios::trunc);
    out << manifest;
    out.flush();
    if (!out) merge_fail(dir, "failed to write manifest.jsonl");
  }
  // The checkpoint covers the full merged range, so a later resubmit (or
  // count extension) resumes from here exactly as after a single-daemon
  // run.
  write_dataset_checkpoint(dir, seed, shard_size,
                           parts.empty() ? 0 : parts.back().hi);
  write_dataset_summary(dir, summary, shard_size);

  for (const DatasetPart& part : parts) {
    std::error_code ignored;
    std::filesystem::remove_all(part.dir, ignored);
  }
  return records;
}

}  // namespace syn::service
