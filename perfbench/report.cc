#include "report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "util/string_util.h"

namespace subshare::perfbench {
namespace {

bool ValuesClose(const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return a.is_null() == b.is_null();
  if (a.type() == DataType::kString || b.type() == DataType::kString) {
    return a.type() == b.type() && a.AsString() == b.AsString();
  }
  double x = a.AsDouble();
  double y = b.AsDouble();
  return std::fabs(x - y) <= 1e-6 * std::max({1.0, std::fabs(x), std::fabs(y)});
}

std::vector<Row> Sorted(const std::vector<Row>& rows) {
  std::vector<Row> out = rows;
  std::sort(out.begin(), out.end(), [](const Row& x, const Row& y) {
    return std::lexicographical_compare(x.begin(), x.end(), y.begin(),
                                        y.end());
  });
  return out;
}

}  // namespace

double Millis(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

Tail TailPercentile(std::vector<double> values) {
  Tail tail;
  tail.samples = static_cast<int64_t>(values.size());
  if (values.empty()) return tail;
  std::sort(values.begin(), values.end());
  if (tail.samples <= kTailBeyond) {
    tail.value = values.back();
    tail.percentile = 100;
    return tail;
  }
  int64_t index = tail.samples - kTailBeyond - 1;
  tail.value = values[index];
  tail.beyond = kTailBeyond;
  tail.percentile = 100.0 * static_cast<double>(index + 1) /
                    static_cast<double>(tail.samples);
  return tail;
}

double Outcome::FailedFraction() const {
  if (attempted == 0) return 1;
  return static_cast<double>(failed) / static_cast<double>(attempted);
}

Clock::time_point OpenLoop::Due(int64_t i) const {
  return start_ + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(interval_ *
                                                    static_cast<double>(i)));
}

void OpenLoop::Record(Clock::time_point due, Clock::time_point started,
                      Clock::time_point finished) {
  latency_ms_.push_back(Millis(finished - due));
  lateness_ms_.push_back(Millis(started - due));
}

bool SameResults(const std::vector<StatementResult>& a,
                 const std::vector<StatementResult>& b, std::string* why) {
  if (a.size() != b.size()) {
    *why = StrFormat("%zu vs %zu statements", a.size(), b.size());
    return false;
  }
  for (size_t s = 0; s < a.size(); ++s) {
    if (a[s].rows.size() != b[s].rows.size()) {
      *why = StrFormat("statement %zu: %zu vs %zu rows", s, a[s].rows.size(),
                       b[s].rows.size());
      return false;
    }
    std::vector<Row> x = Sorted(a[s].rows);
    std::vector<Row> y = Sorted(b[s].rows);
    for (size_t r = 0; r < x.size(); ++r) {
      bool same = x[r].size() == y[r].size();
      for (size_t c = 0; same && c < x[r].size(); ++c) {
        same = ValuesClose(x[r][c], y[r][c]);
      }
      if (!same) {
        *why = StrFormat("statement %zu: row %zu differs", s, r);
        return false;
      }
    }
  }
  return true;
}

void Report::Add(const std::string& name, double value,
                 const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Report::Print(bool correct, const Outcome& outcome) const {
  for (const std::string& note : notes_) std::printf("# %s\n", note.c_str());
  for (const Metric& m : metrics_) {
    std::printf("%-34s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string json = StrFormat(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": {",
      correct ? "true" : "false", static_cast<long long>(outcome.attempted),
      static_cast<long long>(outcome.failed));
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    double v = std::isfinite(m.value) ? m.value : 0;
    json += StrFormat("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      i == 0 ? "" : ", ", m.name.c_str(), v, m.unit.c_str());
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace subshare::perfbench
