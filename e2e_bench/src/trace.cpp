#include "trace.hpp"

#include <cstring>
#include <fstream>
#include <functional>
#include <stdexcept>
#include <thread>

#include "util/json.hpp"

namespace e2e {

std::uint64_t Trace::record(const char* name, Clock::time_point start,
                            Clock::time_point end, std::uint64_t parent,
                            std::uint64_t index, std::uint64_t id) {
  const std::uint64_t thread =
      std::hash<std::thread::id>{}(std::this_thread::get_id());
  const std::lock_guard<std::mutex> lock(mutex_);
  if (id == 0) id = ++next_id_;
  spans_.push_back({name, start, end, id, parent, index, thread});
  return id;
}

double Trace::total_ms(const char* name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  double total = 0.0;
  for (const Span& s : spans_) {
    if (std::strcmp(s.name, name) == 0) total += ms_between(s.start, s.end);
  }
  return total;
}

std::size_t Trace::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

void Trace::write_chrome_json(const std::filesystem::path& path) const {
  using syn::util::Json;
  syn::util::JsonArray events;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    events.reserve(spans_.size());
    for (const Span& s : spans_) {
      Json args;
      args.set("id", s.id);
      args.set("parent", s.parent);
      args.set("index", s.index);
      Json event;
      event.set("name", s.name);
      event.set("ph", "X");
      event.set("ts", ms_between(origin_, s.start) * 1000.0);
      event.set("dur", ms_between(s.start, s.end) * 1000.0);
      event.set("pid", 1);
      event.set("tid", s.thread % 100000);
      event.set("args", std::move(args));
      events.push_back(std::move(event));
    }
  }
  Json doc;
  doc.set("traceEvents", std::move(events));
  std::filesystem::create_directories(path.parent_path());
  std::ofstream out(path);
  out << doc.dump() << "\n";
  if (!out) throw std::runtime_error("cannot write trace " + path.string());
}

}  // namespace e2e
