// Seeded input generators for the end-to-end benchmark. Every workload
// draws its SQL text and append rows from one 64-bit seed through
// SplitMix64 and plain modulo arithmetic (no <random> distributions, whose
// output is implementation-defined), so the same seed gives byte-identical
// inputs. The program under test only ever sees the generated SQL and rows.
#ifndef SUBSHARE_PERFBENCH_WORKLOADS_H_
#define SUBSHARE_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "types/value.h"

namespace subshare::perfbench {

class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  // Uniform in [lo, hi] (inclusive).
  int64_t Uniform(int64_t lo, int64_t hi);

 private:
  uint64_t state_;
};

// Derives an independent stream seed from (seed, a, b).
uint64_t MixSeed(uint64_t seed, uint64_t a, uint64_t b = 0);

// Batches are returned as their statements; the SQL text sent is the
// statements joined with "; ".

// mqo_batch: `statements` statements cycling over the twelve shared-prefix
// join cores; the seed draws each statement's grouping column and aggregate
// (a seeded order over the nine pairs) and its predicate literal.
std::vector<std::string> MqoBatch(uint64_t seed, int statements);

// report_exec: an Example-1-family report batch (customer ⨝ orders ⨝
// lineitem, every fourth statement adding nation and every eighth region);
// the seed draws the date and nation-key literals.
std::vector<std::string> ReportBatch(uint64_t seed, int statements);

// server_mixed: kServerShapes batch shapes over the twelve cores. Shapes
// 0..11 are two statements sharing one core (CSE plans: exact plan-cache
// hits and recycled spools only); shapes 12..23 are one statement
// (rebindable plans: literal-rebind hits). `variant` picks the literals.
constexpr int kServerShapes = 24;
std::vector<std::string> ServerBatch(uint64_t seed, int shape, int variant);

// Open-loop writer rows: one new order with 1..7 line items per event,
// order keys counting up from `first_orderkey`.
struct AppendEvent {
  std::vector<Row> orders;
  std::vector<Row> lineitems;
};

class AppendGenerator {
 public:
  AppendGenerator(uint64_t seed, int64_t first_orderkey, int64_t customers,
                  int64_t parts, int64_t suppliers);
  AppendEvent Next();

 private:
  Rng rng_;
  int64_t next_orderkey_;
  int64_t customers_;
  int64_t parts_;
  int64_t suppliers_;
};

}  // namespace subshare::perfbench

#endif  // SUBSHARE_PERFBENCH_WORKLOADS_H_
