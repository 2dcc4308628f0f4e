#include "decisive/obs/trace.hpp"

#include <cstdio>
#include <map>
#include <utility>

#include "decisive/base/error.hpp"
#include "decisive/base/json.hpp"
#include "decisive/base/persist.hpp"
#include "decisive/obs/shard.hpp"

namespace decisive::obs {

namespace {

/// Per-thread cache of the buffer handed out by one (collector, epoch) pair.
/// A stale epoch means enable() started a new trace since this thread last
/// recorded, so the cached pointer is invalid and the thread re-registers.
struct LocalRef {
  const TraceCollector* owner = nullptr;
  std::uint64_t epoch = 0;
  void* buffer = nullptr;
};

thread_local LocalRef t_local;

std::string escape_json(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += c; break;
    }
  }
  return out;
}

}  // namespace

TraceCollector& TraceCollector::global() {
  static TraceCollector instance;
  return instance;
}

void TraceCollector::enable() {
  const std::lock_guard<std::mutex> lock(mutex_);
  buffers_.clear();
  epoch_.fetch_add(1, std::memory_order_relaxed);
  origin_ = std::chrono::steady_clock::now();
  enabled_.store(true, std::memory_order_relaxed);
}

TraceCollector::ThreadBuffer* TraceCollector::local_buffer() {
  const std::uint64_t epoch = epoch_.load(std::memory_order_relaxed);
  if (t_local.owner != this || t_local.epoch != epoch) {
    const std::lock_guard<std::mutex> lock(mutex_);
    auto buffer = std::make_unique<ThreadBuffer>();
    buffer->tid = static_cast<int>(buffers_.size()) + 1;
    buffers_.push_back(std::move(buffer));
    t_local = LocalRef{this, epoch, buffers_.back().get()};
  }
  return static_cast<ThreadBuffer*>(t_local.buffer);
}

void TraceCollector::record(const char* name, char phase) {
  if (!enabled()) return;
  ThreadBuffer* buffer = local_buffer();
  const auto now = std::chrono::steady_clock::now();
  const std::uint64_t ts_ns =
      static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                     now - origin_)
                                     .count());
  buffer->events.push_back(Event{name, phase, ts_ns});
}

std::string TraceCollector::to_chrome_json() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  // A `--shard i/N` campaign process exports pid = i + 1, so the per-shard
  // traces occupy disjoint process lanes and `same merge-traces` can fold
  // them into one document without remapping collisions. The identity is
  // additionally stamped on the document itself (trailing "shard" object —
  // Chrome ignores unknown top-level keys).
  const ShardIdentity shard = shard_identity();
  const int pid = shard.index + 1;
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  char line[160];
  for (const auto& buffer : buffers_) {
    for (const Event& event : buffer->events) {
      std::snprintf(line, sizeof line,
                    "%s\n{\"name\":\"%s\",\"cat\":\"decisive\",\"ph\":\"%c\","
                    "\"ts\":%.3f,\"pid\":%d,\"tid\":%d}",
                    first ? "" : ",", escape_json(event.name).c_str(), event.phase,
                    static_cast<double>(event.ts_ns) / 1e3, pid, buffer->tid);
      out += line;
      first = false;
    }
  }
  std::snprintf(line, sizeof line,
                "\n],\"displayTimeUnit\":\"ms\",\"shard\":{\"index\":%d,\"count\":%d}}\n",
                shard.index, shard.count);
  out += line;
  return out;
}

void TraceCollector::write_file(const std::string& path) const {
  write_whole_file(path, to_chrome_json(), "trace output file");
}

std::size_t TraceCollector::event_count() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::size_t count = 0;
  for (const auto& buffer : buffers_) count += buffer->events.size();
  return count;
}

std::string validate_chrome_trace(std::string_view text) {
  json::Value document;
  try {
    document = json::parse(text);
  } catch (const Error& error) {
    return std::string("not valid JSON: ") + error.what();
  }
  const json::Value* events = document.find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    return "missing 'traceEvents' array";
  }

  // Per-(pid, tid) stack of open 'B' names: every 'E' must close the
  // innermost one. Keying on the pair (not the tid alone) matters for merged
  // multi-shard traces, where distinct processes legitimately reuse tids and
  // only interleave within their own lane.
  using Lane = std::pair<int, int>;
  std::map<Lane, std::vector<std::string>> open;
  std::map<Lane, double> last_ts;
  size_t index = 0;
  for (const json::Value& event : events->as_array()) {
    const std::string where = "event #" + std::to_string(index++);
    const json::Value* name = event.find("name");
    const json::Value* phase = event.find("ph");
    const json::Value* ts = event.find("ts");
    const json::Value* pid = event.find("pid");
    const json::Value* tid = event.find("tid");
    if (name == nullptr || !name->is_string()) return where + ": missing 'name'";
    if (phase == nullptr || !phase->is_string()) return where + ": missing 'ph'";
    if (ts == nullptr || !ts->is_number()) return where + ": missing 'ts'";
    if (pid == nullptr || !pid->is_number()) return where + ": missing 'pid'";
    if (tid == nullptr || !tid->is_number()) return where + ": missing 'tid'";
    if (ts->as_number() < 0.0) return where + ": negative timestamp";
    const Lane lane{static_cast<int>(pid->as_number()), static_cast<int>(tid->as_number())};
    const std::string lane_text =
        "pid " + std::to_string(lane.first) + " tid " + std::to_string(lane.second);
    if (last_ts.contains(lane) && ts->as_number() < last_ts[lane]) {
      return where + ": timestamps not monotonic within " + lane_text;
    }
    last_ts[lane] = ts->as_number();
    const std::string& ph = phase->as_string();
    if (ph == "B") {
      open[lane].push_back(name->as_string());
    } else if (ph == "E") {
      auto& stack = open[lane];
      if (stack.empty()) {
        return where + ": 'E' for '" + name->as_string() + "' with no open span on " + lane_text;
      }
      if (stack.back() != name->as_string()) {
        return where + ": 'E' for '" + name->as_string() + "' but innermost open span is '" +
               stack.back() + "' on " + lane_text;
      }
      stack.pop_back();
    } else if (ph != "M" && ph != "X" && ph != "i" && ph != "C") {
      return where + ": unsupported phase '" + ph + "'";
    }
  }
  for (const auto& [lane, stack] : open) {
    if (!stack.empty()) {
      return "unclosed span '" + stack.back() + "' on pid " + std::to_string(lane.first) +
             " tid " + std::to_string(lane.second);
    }
  }
  return "";
}

}  // namespace decisive::obs
