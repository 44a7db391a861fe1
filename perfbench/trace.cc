#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace subshare::perfbench {

int Tracer::Begin(std::string name, int64_t batch, int parent) {
  Span span;
  span.name = std::move(name);
  span.start = Clock::now();
  span.end = span.start;
  span.parent = parent;
  span.batch = batch;
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::End(int id) { spans_[id].end = Clock::now(); }

void Tracer::AddDerived(std::string name, int parent, double seconds) {
  Clock::time_point start = spans_[parent].start;
  for (size_t i = static_cast<size_t>(parent) + 1; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.parent == parent && s.derived) start = std::max(start, s.end);
  }
  Span span;
  span.name = std::move(name);
  span.start = start;
  span.end = start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  span.parent = parent;
  span.batch = spans_[parent].batch;
  span.derived = true;
  spans_.push_back(std::move(span));
}

double Tracer::DurationMs(int id) const {
  return Millis(spans_[id].end - spans_[id].start);
}

std::vector<double> SelfTimesMs(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<Clock::time_point, Clock::time_point>>>
      children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) children[s.parent].emplace_back(s.start, s.end);
  }
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    Clock::duration covered{0};
    Clock::time_point cursor = spans[i].start;
    for (const auto& [start, end] : kids) {
      Clock::time_point lo = std::max(start, cursor);
      Clock::time_point hi = std::min(end, spans[i].end);
      if (hi > lo) {
        covered += hi - lo;
        cursor = hi;
      }
    }
    self[i] = Millis(spans[i].end - spans[i].start - covered);
  }
  return self;
}

std::map<std::string, double> SelfTimeByName(const std::vector<Span>& spans) {
  std::map<std::string, double> out;
  std::vector<double> self = SelfTimesMs(spans);
  for (size_t i = 0; i < spans.size(); ++i) out[spans[i].name] += self[i];
  return out;
}

bool WriteSpans(const std::string& path, Clock::time_point origin,
                const std::vector<std::vector<Span>>& per_thread) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  auto ns = [origin](Clock::time_point t) {
    return static_cast<long long>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin)
            .count());
  };
  for (size_t t = 0; t < per_thread.size(); ++t) {
    for (const Span& s : per_thread[t]) {
      std::fprintf(f,
                   "{\"thread\": %zu, \"name\": \"%s\", \"start_ns\": %lld, "
                   "\"end_ns\": %lld, \"parent\": %d, \"batch\": %lld, "
                   "\"derived\": %s}\n",
                   t, s.name.c_str(), ns(s.start), ns(s.end), s.parent,
                   static_cast<long long>(s.batch),
                   s.derived ? "true" : "false");
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace subshare::perfbench
