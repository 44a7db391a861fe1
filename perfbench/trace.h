// In-memory spans for the traced run. The benchmark records a span around
// each call it makes into a layer's public function (sql::ParseBatch,
// sql::BindSelect, CseQueryOptimizer::Optimize, ExecutePlan,
// cache::FingerprintBatch, Session::Execute/Append). Spans stay in memory
// and are written out once the run ends; per-layer self time is a span's
// duration minus the part of it its children cover.
#ifndef SUBSHARE_PERFBENCH_TRACE_H_
#define SUBSHARE_PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "report.h"

namespace subshare::perfbench {

struct Span {
  std::string name;
  Clock::time_point start;
  Clock::time_point end;
  int parent = -1;      // index into the same tracer's spans; -1 for roots
  int64_t batch = -1;   // request the span belongs to
  bool derived = false; // duration reported by the program, not measured
};

// One thread's spans. Not thread-safe: each thread owns its tracer.
class Tracer {
 public:
  int Begin(std::string name, int64_t batch, int parent = -1);
  void End(int id);
  // A child whose duration the program reports (e.g. PhaseTimings) but
  // whose start it does not: laid end to end after the parent's start,
  // following earlier derived children.
  void AddDerived(std::string name, int parent, double seconds);
  double DurationMs(int id) const;
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

// Span duration minus the union of its children's intervals, per span.
std::vector<double> SelfTimesMs(const std::vector<Span>& spans);

// Total self time per span name.
std::map<std::string, double> SelfTimeByName(const std::vector<Span>& spans);

// Writes one JSON object per span (thread, name, start/end in ns relative
// to `origin`, parent, batch, derived). Returns false on I/O failure.
bool WriteSpans(const std::string& path, Clock::time_point origin,
                const std::vector<std::vector<Span>>& per_thread);

}  // namespace subshare::perfbench

#endif  // SUBSHARE_PERFBENCH_TRACE_H_
