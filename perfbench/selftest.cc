// Self-test of the benchmark's own helpers (run with --selftest): the
// tail-percentile rule, failure counting, open-loop timing from the due
// time, result comparison, span self time, and seed determinism of the
// generators. Exits nonzero on the first failed check.
#include <cstdio>
#include <string>
#include <vector>

#include "report.h"
#include "trace.h"
#include "workloads.h"

namespace subshare::perfbench {
namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++failures;
}

bool Near(double a, double b) { return a - b < 1e-9 && b - a < 1e-9; }

std::string RowsText(const std::vector<Row>& rows) {
  std::string out;
  for (const Row& row : rows) {
    for (const Value& v : row) out += v.ToString() + "|";
    out += "\n";
  }
  return out;
}

void TestTail() {
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);
  Tail t = TailPercentile(hundred);
  Expect(Near(t.value, 90) && Near(t.percentile, 90) && t.beyond == 10 &&
             t.samples == 100,
         "tail of 1..100 is p90 = 90 with 10 beyond");
  std::vector<double> eleven;
  for (int i = 1; i <= 11; ++i) eleven.push_back(i);
  t = TailPercentile(eleven);
  Expect(Near(t.value, 1) && t.beyond == 10 && t.samples == 11,
         "tail of 11 samples is the smallest, 10 beyond");
  t = TailPercentile({3, 1, 2});
  Expect(Near(t.value, 3) && t.beyond == 0 && t.samples == 3,
         "tail of <= 10 samples is the maximum, 0 beyond");
  Expect(Near(Median({4, 1, 3, 2}), 2.5) && Near(Median({5, 1, 3}), 3),
         "median of even and odd counts");
}

void TestOutcome() {
  Outcome o;
  o.Add(true);
  o.Add(false);
  o.Add(true);
  o.Add(true);
  Outcome other;
  other.Add(false);
  o.Merge(other);
  Expect(o.attempted == 5 && o.failed == 2 && Near(o.FailedFraction(), 0.4),
         "failures counted against attempts");
  Expect(Near(Outcome().FailedFraction(), 1), "nothing attempted is failure");
}

void TestOpenLoop() {
  using std::chrono::milliseconds;
  Clock::time_point t0 = Clock::now();
  OpenLoop loop(t0, 0.020);
  Expect(loop.Due(3) - t0 == milliseconds(60), "event i is due at i*interval");
  // Event 0 stalls for 70 ms; event 1 (due at 20 ms) starts at 70 ms and
  // takes 5 ms: its latency counts from its due time, not its start.
  loop.Record(loop.Due(0), t0, t0 + milliseconds(70));
  loop.Record(loop.Due(1), t0 + milliseconds(70), t0 + milliseconds(75));
  Expect(Near(loop.latency_ms()[1], 55) && Near(loop.lateness_ms()[1], 50) &&
             Near(loop.lateness_ms()[0], 0),
         "open-loop latency from due time, lateness reported");
}

void TestSameResults() {
  StatementResult a;
  a.rows = {{Value::Int64(1), Value::Double(0.5)},
            {Value::Int64(2), Value::Double(1e6)}};
  StatementResult b;
  b.rows = {{Value::Int64(2), Value::Double(1e6 * (1 + 1e-9))},
            {Value::Int64(1), Value::Double(0.5)}};
  std::string why;
  Expect(SameResults({a}, {b}, &why), "row order and 1e-9 drift ignored");
  b.rows[0][1] = Value::Double(1.001e6);
  Expect(!SameResults({a}, {b}, &why), "a changed value is a mismatch");
  b.rows.pop_back();
  Expect(!SameResults({a}, {b}, &why), "a missing row is a mismatch");
}

void TestSelfTime() {
  Tracer tracer;
  int root = tracer.Begin("root", 0);
  tracer.AddDerived("a", root, 0.002);
  tracer.AddDerived("b", root, 0.003);
  std::vector<Span> spans = tracer.spans();
  spans[root].end = spans[root].start + std::chrono::milliseconds(10);
  std::vector<double> self = SelfTimesMs(spans);
  Expect(Near(self[0], 5) && Near(self[1], 2) && Near(self[2], 3),
         "self time is duration minus children; derived children end to end");
  // Overlapping children are counted once: [0, 2] and [1, 5] cover 5 ms.
  spans[2].start = spans[1].start + std::chrono::milliseconds(1);
  Expect(Near(SelfTimesMs(spans)[0], 5), "overlapping children count once");
}

void TestDeterminism() {
  Expect(MqoBatch(7, 300) == MqoBatch(7, 300) &&
             MqoBatch(7, 300) != MqoBatch(8, 300),
         "mqo_batch SQL is a function of the seed");
  Expect(ReportBatch(7, 10) == ReportBatch(7, 10) &&
             ReportBatch(7, 10) != ReportBatch(8, 10),
         "report_exec SQL is a function of the seed");
  Expect(ServerBatch(7, 3, 1) == ServerBatch(7, 3, 1) &&
             ServerBatch(7, 3, 1) != ServerBatch(7, 3, 2),
         "server_mixed SQL is a function of seed, shape and variant");
  AppendGenerator g1(7, 100, 10, 20, 5);
  AppendGenerator g2(7, 100, 10, 20, 5);
  bool same = true;
  for (int i = 0; i < 20; ++i) {
    AppendEvent e1 = g1.Next();
    AppendEvent e2 = g2.Next();
    same = same && RowsText(e1.orders) == RowsText(e2.orders) &&
           RowsText(e1.lineitems) == RowsText(e2.lineitems);
  }
  Expect(same, "append rows are a function of the seed");
}

}  // namespace

int SelfTest() {
  TestTail();
  TestOutcome();
  TestOpenLoop();
  TestSameResults();
  TestSelfTime();
  TestDeterminism();
  std::printf("%d failure(s)\n", failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace subshare::perfbench
