// Tests of the benchmark's own helpers: tail-percentile selection, metric
// naming, failure accounting, host scaling and the dataset digest.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "host_speed.hpp"
#include "report.hpp"

namespace e2e {
namespace {

namespace fs = std::filesystem;

TEST(TailPercentile, HighestWithTenSamplesBeyond) {
  EXPECT_EQ(highest_supported_quantile(0), 0.5);
  EXPECT_EQ(highest_supported_quantile(19), 0.5);
  EXPECT_EQ(highest_supported_quantile(99), 0.5);
  EXPECT_EQ(highest_supported_quantile(100), 0.9);
  EXPECT_EQ(highest_supported_quantile(999), 0.9);
  EXPECT_EQ(highest_supported_quantile(1000), 0.99);
  EXPECT_EQ(highest_supported_quantile(10000), 0.999);
}

TEST(TailPercentile, ReportsValueAndSampleCount) {
  std::vector<double> values;
  for (int i = 1; i <= 200; ++i) values.push_back(i);
  const TailPercentile tail = tail_percentile(values);
  EXPECT_EQ(tail.q, 0.9);
  EXPECT_EQ(tail.samples, 200u);
  EXPECT_DOUBLE_EQ(tail.value, quantile(values, 0.9));
  // At least ten samples lie strictly beyond the reported value.
  std::size_t beyond = 0;
  for (const double v : values) beyond += v > tail.value ? 1 : 0;
  EXPECT_GE(beyond, 10u);
}

TEST(MetricNames, MatchTheAllowedAlphabet) {
  EXPECT_TRUE(valid_metric_name("designs_per_s"));
  EXPECT_TRUE(valid_metric_name("mcts.rows_per_call"));
  EXPECT_TRUE(valid_metric_name("job-ms.p90"));
  EXPECT_TRUE(valid_metric_name("9lives"));
  EXPECT_FALSE(valid_metric_name(""));
  EXPECT_FALSE(valid_metric_name(".hidden"));
  EXPECT_FALSE(valid_metric_name("_leading"));
  EXPECT_FALSE(valid_metric_name("has space"));
  EXPECT_FALSE(valid_metric_name("slash/name"));
  EXPECT_FALSE(valid_metric_name(std::string(65, 'a')));
  EXPECT_TRUE(valid_metric_name(std::string(64, 'a')));
  EXPECT_TRUE(valid_unit("designs/s"));
  EXPECT_TRUE(valid_unit("%"));
  EXPECT_FALSE(valid_unit("ms per design"));
  EXPECT_FALSE(valid_unit(""));
}

JobOutcome good_job() {
  JobOutcome job;
  job.state = "done";
  job.expected = 16;
  job.records = 16;
  job.manifest_lines = 16;
  return job;
}

TEST(Failures, EachBadJobCountsExactlyOnce) {
  JobOutcome cancelled = good_job();
  cancelled.state = "cancelled";
  JobOutcome short_stream = good_job();
  short_stream.records = 15;
  JobOutcome mismatch = good_job();
  mismatch.digest_ok = false;
  JobOutcome everything = good_job();
  everything.state = "cancelled";
  everything.records = 3;
  everything.manifest_lines = 3;
  everything.parts_left = true;
  everything.digest_ok = false;

  for (const JobOutcome& bad :
       {cancelled, short_stream, mismatch, everything}) {
    Tally tally;
    tally.add(!job_failed(good_job()));
    tally.add(!job_failed(bad));
    tally.add(!job_failed(good_job()));
    EXPECT_EQ(tally.attempted, 3u);
    EXPECT_EQ(tally.failed, 1u);
  }
  JobOutcome parts = good_job();
  parts.parts_left = true;
  EXPECT_TRUE(job_failed(parts));
  JobOutcome short_manifest = good_job();
  short_manifest.manifest_lines = 15;
  EXPECT_TRUE(job_failed(short_manifest));
  EXPECT_FALSE(job_failed(good_job()));
}

TEST(HostScaling, DividesEachUnitByItsOwnSlowness) {
  HostScaled work;
  work.add(2.0, 1.0, 2.0);  // a unit on a core at half speed
  work.add(1.0, 0.5, 1.0);  // the same work at nominal speed
  EXPECT_DOUBLE_EQ(work.wall_s, 3.0);
  EXPECT_DOUBLE_EQ(work.cpu_s, 1.5);
  EXPECT_DOUBLE_EQ(work.scaled_wall_s, 2.0);
  EXPECT_DOUBLE_EQ(work.scaled_cpu_s, 1.0);
}

TEST(HostScaling, SlownessIsPositiveAndFinite) {
  const double slowness = host_slowness(5.0);
  EXPECT_GT(slowness, 0.0);
  EXPECT_TRUE(std::isfinite(slowness));
  SlownessTrack track;
  const double unit = track.after_unit();
  EXPECT_GT(unit, 0.0);
  EXPECT_TRUE(std::isfinite(unit));
}

class DigestTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::path(::testing::TempDir()) /
            ("e2e_digest_" + std::to_string(::getpid()));
    fs::remove_all(root_);
  }
  void TearDown() override { fs::remove_all(root_); }

  static void write(const fs::path& path, const std::string& text) {
    fs::create_directories(path.parent_path());
    std::ofstream(path) << text;
  }
  fs::path make(const std::string& name) {
    const fs::path dir = root_ / name;
    write(dir / "manifest.jsonl", "{\"index\":0}\n{\"index\":1}\n");
    write(dir / "shard_0000/synthetic_1.v", "module b; endmodule\n");
    write(dir / "shard_0000/synthetic_0.v", "module a; endmodule\n");
    return dir;
  }

  fs::path root_;
};

TEST_F(DigestTest, StableAcrossCopiesAndIgnoresBookkeeping) {
  const fs::path a = make("a");
  const fs::path b = make("b");
  const std::uint64_t digest = dataset_digest(a);
  EXPECT_EQ(digest, dataset_digest(a));
  EXPECT_EQ(digest, dataset_digest(b));
  write(b / "checkpoint.txt", "seed=1\nnext=2\n");
  write(b / "manifest.json", "{}\n");
  write(b / ".lock", "123\n");
  EXPECT_EQ(digest, dataset_digest(b));
}

TEST_F(DigestTest, ChangesWithAnyDesignOrManifestByte) {
  const fs::path a = make("a");
  const std::uint64_t digest = dataset_digest(a);
  const fs::path b = make("b");
  write(b / "shard_0000/synthetic_0.v", "module A; endmodule\n");
  EXPECT_NE(digest, dataset_digest(b));
  const fs::path c = make("c");
  write(c / "manifest.jsonl", "{\"index\":0}\n");
  EXPECT_NE(digest, dataset_digest(c));
  const fs::path d = make("d");
  fs::rename(d / "shard_0000/synthetic_1.v", d / "shard_0000/synthetic_2.v");
  EXPECT_NE(digest, dataset_digest(d));
}

}  // namespace
}  // namespace e2e
