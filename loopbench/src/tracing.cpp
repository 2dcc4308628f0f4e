#include <algorithm>
#include <cstdio>
#include <functional>

#include "decisive/obs/registry.hpp"
#include "decisive/obs/trace.hpp"
#include "loopbench.hpp"

namespace loopbench {

namespace {
Clock::time_point g_program_trace_origin;
}  // namespace

void enable_program_trace() {
  const Clock::time_point before = Clock::now();
  decisive::obs::TraceCollector::global().enable();
  const Clock::time_point after = Clock::now();
  g_program_trace_origin = before + (after - before) / 2;
}

Clock::time_point program_trace_origin() { return g_program_trace_origin; }

void Tracer::begin_op(size_t op, Clock::time_point start) {
  op_first_ = spans_.size();
  stack_.clear();
  spans_.push_back(SpanRecord{"op", start, start, -1, op});
  stack_.push_back(static_cast<int>(op_first_));
}

void Tracer::end_op(Clock::time_point end) {
  spans_[op_first_].end = end;
  stack_.clear();
}

int Tracer::open(const char* name) {
  const int index = static_cast<int>(spans_.size());
  const auto now = Clock::now();
  spans_.push_back(SpanRecord{name, now, now, innermost(), spans_[op_first_].op});
  stack_.push_back(index);
  return index;
}

void Tracer::close(int index) {
  spans_[static_cast<size_t>(index)].end = Clock::now();
  if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
}

void Tracer::add_closed(const char* name, Clock::time_point start, Clock::time_point end,
                        int parent) {
  const SpanRecord& outer = spans_[static_cast<size_t>(parent)];
  start = std::clamp(start, outer.start, outer.end);
  end = std::clamp(end, start, outer.end);
  spans_.push_back(SpanRecord{name, start, end, parent, outer.op});
}

std::map<std::string, double> Tracer::inclusive_ms() const {
  std::map<std::string, double> out;
  for (size_t i = op_first_; i < spans_.size(); ++i) {
    out[spans_[i].name] += ms_between(spans_[i].start, spans_[i].end);
  }
  return out;
}

std::map<std::string, double> Tracer::self_ms() const {
  // A span's self time is its duration minus what its direct children
  // cover. Children of one parent never overlap (they are sequential calls
  // on one thread), so subtracting their durations is exact.
  std::map<std::string, double> out = inclusive_ms();
  for (size_t i = op_first_; i < spans_.size(); ++i) {
    if (spans_[i].parent < 0) continue;
    out[spans_[static_cast<size_t>(spans_[i].parent)].name] -=
        ms_between(spans_[i].start, spans_[i].end);
  }
  return out;
}

std::string Tracer::to_chrome_json() const {
  if (spans_.empty()) return "{\"traceEvents\":[]}\n";
  const Clock::time_point origin = spans_.front().start;
  std::vector<std::vector<size_t>> children(spans_.size());
  std::vector<size_t> roots;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent < 0) {
      roots.push_back(i);
    } else {
      children[static_cast<size_t>(spans_[i].parent)].push_back(i);
    }
  }
  for (auto& list : children) {
    std::stable_sort(list.begin(), list.end(),
                     [&](size_t a, size_t b) { return spans_[a].start < spans_[b].start; });
  }

  std::string out = "{\"traceEvents\":[";
  bool first = true;
  // Timestamps only move forward: a child starts no earlier than the event
  // before it, which absorbs clock-conversion jitter of folded-in spans.
  double last_us = 0.0;
  auto emit = [&](const SpanRecord& span, size_t id, char phase, Clock::time_point at) {
    const double us =
        std::max(last_us, std::chrono::duration<double, std::micro>(at - origin).count());
    last_us = us;
    char buffer[256];
    std::snprintf(buffer, sizeof buffer,
                  "%s{\"name\":\"%s\",\"ph\":\"%c\",\"ts\":%.3f,\"pid\":1,\"tid\":1,"
                  "\"args\":{\"op\":%zu,\"span\":%zu,\"parent\":%d}}",
                  first ? "" : ",", span.name, phase, us, span.op, id, span.parent);
    out += buffer;
    first = false;
  };
  std::function<void(size_t)> walk = [&](size_t i) {
    emit(spans_[i], i, 'B', spans_[i].start);
    for (const size_t child : children[i]) walk(child);
    emit(spans_[i], i, 'E', spans_[i].end);
  };
  for (const size_t root : roots) walk(root);
  out += "]}\n";
  return out;
}

RegistrySnapshot RegistrySnapshot::take() {
  static const char* const kCounters[] = {
      "decisive_campaign_tasks_total",        "decisive_campaign_sparse_rows_total",
      "decisive_campaign_batched_rows_total", "decisive_solver_solves_total",
      "decisive_solver_iterations_total",     "decisive_sparse_refactors_total",
      "decisive_sparse_partial_refactors_total", "decisive_fta_states_total",
      "decisive_fta_state_cache_hits_total",  "decisive_sm_search_labels_total",
      "decisive_sm_search_labels_pruned_total",
  };
  static const char* const kHistograms[] = {
      "decisive_graph_fmea_collect_seconds",
      "decisive_graph_fmea_analyze_seconds",
      "decisive_graph_fmea_emit_seconds",
      "decisive_campaign_task_seconds",
  };
  static const char* const kGauges[] = {"decisive_fta_zbdd_nodes",
                                        "decisive_sm_search_front_size"};
  auto& registry = decisive::obs::Registry::global();
  RegistrySnapshot snapshot;
  for (const char* name : kCounters) {
    snapshot.values[name] = static_cast<double>(registry.counter(name).value());
  }
  for (const char* name : kHistograms) snapshot.values[name] = registry.histogram(name).sum();
  for (const char* name : kGauges) snapshot.values[name] = registry.gauge(name).value();
  return snapshot;
}

double RegistrySnapshot::at(const std::string& name) const {
  const auto it = values.find(name);
  return it == values.end() ? 0.0 : it->second;
}

}  // namespace loopbench
