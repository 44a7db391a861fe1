// Statistics and reporting helpers of the end-to-end benchmark: medians,
// the tail-percentile rule, failure counting, open-loop timing, result
// comparison, and the metric printer whose last line is the JSON result.
#ifndef SUBSHARE_PERFBENCH_REPORT_H_
#define SUBSHARE_PERFBENCH_REPORT_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "exec/executor.h"

namespace subshare::perfbench {

using Clock = std::chrono::steady_clock;

double Millis(Clock::duration d);

// Median (mean of the middle pair for an even count); 0 for no samples.
double Median(std::vector<double> values);

// The highest percentile with at least kTailBeyond samples beyond it: the
// (n - kTailBeyond)-th smallest of n samples, i.e. percentile
// 100 * (n - kTailBeyond) / n. With n <= kTailBeyond no percentile
// qualifies; the maximum is reported with `beyond` = 0.
constexpr int64_t kTailBeyond = 10;
struct Tail {
  double value = 0;
  double percentile = 0;
  int64_t beyond = 0;   // samples above `value` in rank order
  int64_t samples = 0;
};
Tail TailPercentile(std::vector<double> values);

// Operations attempted and failed (errored or returned a wrong result).
struct Outcome {
  int64_t attempted = 0;
  int64_t failed = 0;
  void Add(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  void Merge(const Outcome& other) {
    attempted += other.attempted;
    failed += other.failed;
  }
  // failed / attempted; 1 when nothing was attempted (a run that did no
  // work is a failed run).
  double FailedFraction() const;
};

// Open-loop sender timing: event i is due at start + i * interval whether
// or not the previous event has finished. Latency counts from the due
// time, so a stall also charges the wait it imposes on later events;
// lateness is how far behind schedule the sender started the event.
class OpenLoop {
 public:
  OpenLoop(Clock::time_point start, double interval_seconds)
      : start_(start), interval_(interval_seconds) {}
  Clock::time_point Due(int64_t i) const;
  void Record(Clock::time_point due, Clock::time_point started,
              Clock::time_point finished);
  const std::vector<double>& latency_ms() const { return latency_ms_; }
  const std::vector<double>& lateness_ms() const { return lateness_ms_; }

 private:
  Clock::time_point start_;
  double interval_;
  std::vector<double> latency_ms_;
  std::vector<double> lateness_ms_;
};

// Order-insensitive comparison of per-statement result multisets; doubles
// compare with a 1e-6 relative tolerance (the naive and the CSE plans
// aggregate in different orders). On mismatch `why` says where.
bool SameResults(const std::vector<StatementResult>& a,
                 const std::vector<StatementResult>& b, std::string* why);

// Named metrics with units, printed as aligned text lines and as the final
// JSON object.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  // Informational line printed with the metrics but not in the JSON.
  void Note(const std::string& line) { notes_.push_back(line); }
  // Prints notes, every metric as "name value unit", then the JSON line.
  void Print(bool correct, const Outcome& outcome) const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> notes_;
};

}  // namespace subshare::perfbench

#endif  // SUBSHARE_PERFBENCH_REPORT_H_
