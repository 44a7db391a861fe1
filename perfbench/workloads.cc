#include "workloads.h"

#include <algorithm>
#include <utility>

#include "types/date.h"
#include "util/string_util.h"

namespace subshare::perfbench {
namespace {

// Literal domain of a core's single predicate.
enum class PredKind {
  kDateBefore,  // col < 'YYYY-MM-01', month index lo..hi since 1992-01
  kRange,       // col > a and col < b, a in [lo, lo+5], b in [hi-5, hi]
  kAbove,       // col > v, v in [lo, hi]
  kBelow,       // col < v, v in [lo, hi]
};

struct Core {
  const char* from;
  const char* join;
  const char* groups[3];
  const char* aggs[3];
  PredKind pred;
  const char* col;
  int lo, hi;
};

// The twelve join cores of the shared-prefix family, with pairwise-distinct
// table signatures. Statements on one core differ in grouping column,
// aggregate and a single-column predicate, so every core yields a covering
// CSE (merged group-by + predicate hull). Every table in a FROM list joins
// one listed before it, so the naive reference planner, which joins in FROM
// order, never builds a cross product.
const Core kCores[] = {
    {"customer, orders, lineitem",
     "c_custkey = o_custkey and o_orderkey = l_orderkey",
     {"c_nationkey", "c_mktsegment", "o_orderpriority"},
     {"sum(l_extendedprice)", "sum(l_quantity)", "count(*)"},
     PredKind::kDateBefore, "o_orderdate", 36, 66},
    {"customer, orders, lineitem, nation",
     "c_custkey = o_custkey and o_orderkey = l_orderkey and "
     "c_nationkey = n_nationkey",
     {"n_regionkey", "n_name", "c_mktsegment"},
     {"sum(l_extendedprice)", "sum(l_discount)", "count(*)"},
     PredKind::kRange, "c_nationkey", 0, 25},
    {"orders, lineitem", "o_orderkey = l_orderkey",
     {"o_orderpriority", "o_orderstatus", "o_shippriority"},
     {"sum(l_quantity)", "sum(l_extendedprice)", "count(*)"},
     PredKind::kAbove, "o_totalprice", 1000, 10000},
    {"customer, orders", "c_custkey = o_custkey",
     {"c_mktsegment", "c_nationkey", "o_orderstatus"},
     {"sum(o_totalprice)", "count(*)", "max(o_totalprice)"},
     PredKind::kAbove, "c_acctbal", -100, 500},
    {"part, lineitem", "p_partkey = l_partkey",
     {"p_brand", "p_type", "p_container"},
     {"sum(l_quantity)", "count(*)", "min(l_extendedprice)"},
     PredKind::kBelow, "p_size", 25, 40},
    {"part, lineitem, orders",
     "p_partkey = l_partkey and o_orderkey = l_orderkey",
     {"p_type", "p_brand", "o_orderpriority"},
     {"sum(l_quantity)", "sum(l_extendedprice)", "count(*)"},
     PredKind::kDateBefore, "o_orderdate", 48, 60},
    {"customer, nation", "c_nationkey = n_nationkey",
     {"n_name", "c_mktsegment", "n_regionkey"},
     {"count(*)", "sum(c_acctbal)", "max(c_acctbal)"},
     PredKind::kAbove, "c_acctbal", -200, 250},
    {"supplier, nation", "s_nationkey = n_nationkey",
     {"n_name", "n_regionkey", "s_nationkey"},
     {"count(*)", "sum(s_acctbal)", "min(s_acctbal)"},
     PredKind::kAbove, "s_acctbal", -300, 100},
    {"partsupp, part", "ps_partkey = p_partkey",
     {"p_type", "p_brand", "p_container"},
     {"sum(ps_supplycost)", "sum(ps_availqty)", "count(*)"},
     PredKind::kBelow, "p_size", 20, 45},
    {"partsupp, supplier", "ps_suppkey = s_suppkey",
     {"s_nationkey", "s_name", "s_nationkey"},
     {"sum(ps_supplycost)", "count(*)", "sum(ps_availqty)"},
     PredKind::kAbove, "ps_availqty", 100, 1000},
    {"customer, orders, lineitem, nation, region",
     "c_custkey = o_custkey and o_orderkey = l_orderkey and "
     "c_nationkey = n_nationkey and n_regionkey = r_regionkey",
     {"r_name", "n_name", "c_mktsegment"},
     {"sum(l_extendedprice)", "sum(l_quantity)", "count(*)"},
     PredKind::kDateBefore, "o_orderdate", 41, 60},
    {"lineitem, supplier", "l_suppkey = s_suppkey",
     {"s_nationkey", "l_returnflag", "l_linestatus"},
     {"sum(l_quantity)", "sum(l_extendedprice)", "count(*)"},
     PredKind::kDateBefore, "l_shipdate", 41, 54},
};
constexpr int kNumCores = static_cast<int>(sizeof(kCores) / sizeof(kCores[0]));

// 'YYYY-MM-01' for a month index counted from 1992-01.
std::string MonthLiteral(int64_t month_index) {
  return StrFormat("'%04d-%02d-01'", 1992 + static_cast<int>(month_index / 12),
                   1 + static_cast<int>(month_index % 12));
}

// A seeded permutation of 0..n-1.
std::vector<int> Shuffled(int n, Rng& rng) {
  std::vector<int> order;
  for (int i = 0; i < n; ++i) order.push_back(i);
  for (int i = n - 1; i > 0; --i) {
    std::swap(order[i], order[rng.Uniform(0, i)]);
  }
  return order;
}

// A value from the k-th of n equal strata of [lo, hi]. Drawing a batch's
// literals from a seeded permutation of strata keeps the batch's spread of
// selectivities, and so its cost, nearly the same across seeds.
int64_t Stratum(int64_t lo, int64_t hi, int k, int n, Rng& rng) {
  const int64_t width = hi - lo + 1;
  const int64_t begin = lo + width * k / n;
  const int64_t end = lo + width * (k + 1) / n;  // exclusive
  return begin + rng.Uniform(0, std::max<int64_t>(0, end - begin - 1));
}

// The core's predicate; its (first) literal comes from stratum k of n.
std::string Predicate(const Core& core, int k, int n, Rng& rng) {
  const long long v = Stratum(core.lo, core.hi, k, n, rng);
  switch (core.pred) {
    case PredKind::kDateBefore:
      return StrFormat("%s < %s", core.col, MonthLiteral(v).c_str());
    case PredKind::kRange:
      return StrFormat("%s > %lld and %s < %lld", core.col,
                       static_cast<long long>(Stratum(core.lo, core.lo + 5, k,
                                                      n, rng)),
                       core.col,
                       static_cast<long long>(rng.Uniform(core.hi - 5, core.hi)));
    case PredKind::kAbove:
      return StrFormat("%s > %lld", core.col, v);
    case PredKind::kBelow:
      return StrFormat("%s < %lld", core.col, v);
  }
  return "";
}

std::string CoreStatement(const Core& core, int group, int agg,
                          const std::string& pred) {
  return StrFormat("select %s, %s as a from %s where %s and %s group by %s",
                   core.groups[group], core.aggs[agg], core.from, core.join,
                   pred.c_str(), core.groups[group]);
}

}  // namespace

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

int64_t Rng::Uniform(int64_t lo, int64_t hi) {
  const uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  return lo + static_cast<int64_t>(Next() % span);
}

uint64_t MixSeed(uint64_t seed, uint64_t a, uint64_t b) {
  Rng rng(seed ^ (a * 0x100000001B3ull) ^ (b * 0xC2B2AE3D27D4EB4Full));
  return rng.Next();
}

std::vector<std::string> MqoBatch(uint64_t seed, int statements) {
  Rng rng(MixSeed(seed, 1));
  // Each core's statements cycle through the nine (group, aggregate) pairs
  // in a seeded order and take their literals from a seeded permutation of
  // literal strata, so the seed moves which statement gets what but not
  // the batch's sharing structure: plan cost and optimize work stay
  // comparable across seeds.
  const int per_core = (statements + kNumCores - 1) / kNumCores;
  std::vector<std::vector<int>> pairs;
  std::vector<std::vector<int>> strata;
  for (int c = 0; c < kNumCores; ++c) {
    pairs.push_back(Shuffled(9, rng));
    strata.push_back(Shuffled(per_core, rng));
  }
  std::vector<std::string> batch;
  for (int i = 0; i < statements; ++i) {
    const int c = i % kNumCores;
    const int j = i / kNumCores;
    int pair = pairs[c][j % 9];
    batch.push_back(CoreStatement(kCores[c], pair % 3, pair / 3,
                                  Predicate(kCores[c], strata[c][j], per_core,
                                            rng)));
  }
  return batch;
}

std::vector<std::string> ReportBatch(uint64_t seed, int statements) {
  static const char* const kGroupCols[] = {"c_nationkey", "c_mktsegment",
                                           "c_nationkey, c_mktsegment"};
  Rng rng(MixSeed(seed, 2));
  // Literals from seeded permutations of strata (see Stratum).
  const std::vector<int> date_strata = Shuffled(statements, rng);
  const std::vector<int> lo_strata = Shuffled(statements, rng);
  const std::vector<int> hi_strata = Shuffled(statements, rng);
  std::vector<std::string> batch;
  for (int i = 0; i < statements; ++i) {
    // 1995-07 .. 1997-07
    std::string date =
        MonthLiteral(Stratum(42, 66, date_strata[i], statements, rng));
    int64_t lo = Stratum(0, 9, lo_strata[i], statements, rng);
    int64_t hi = Stratum(20, 29, hi_strata[i], statements, rng);
    if (i % 4 == 3) {
      bool with_region = (i % 8) == 7;
      batch.push_back(StrFormat(
          "select n_regionkey, sum(l_extendedprice) as le, "
          "sum(l_quantity) as lq from customer, orders, lineitem, nation%s "
          "where c_custkey = o_custkey and o_orderkey = l_orderkey "
          "and c_nationkey = n_nationkey%s and o_orderdate < %s "
          "and c_nationkey > %lld and c_nationkey < %lld group by n_regionkey",
          with_region ? ", region" : "",
          with_region ? " and n_regionkey = r_regionkey" : "", date.c_str(),
          static_cast<long long>(lo), static_cast<long long>(hi)));
      continue;
    }
    const char* group = kGroupCols[i % 3];
    batch.push_back(StrFormat(
        "select %s, sum(l_extendedprice) as le, sum(l_quantity) as lq "
        "from customer, orders, lineitem "
        "where c_custkey = o_custkey and o_orderkey = l_orderkey "
        "and o_orderdate < %s and c_nationkey > %lld and c_nationkey < %lld "
        "group by %s",
        group, date.c_str(), static_cast<long long>(lo),
        static_cast<long long>(hi), group));
  }
  return batch;
}

std::vector<std::string> ServerBatch(uint64_t seed, int shape, int variant) {
  const Core& core = kCores[shape % kNumCores];
  Rng rng(MixSeed(seed, 3 + static_cast<uint64_t>(shape),
                  static_cast<uint64_t>(variant)));
  // The grouping column and aggregate depend on the shape only, so every
  // variant of a shape has the same fingerprint.
  int group = (shape / kNumCores + shape) % 3;
  int agg = shape % 3;
  std::vector<std::string> batch = {
      CoreStatement(core, group, agg, Predicate(core, 0, 1, rng))};
  if (shape < kNumCores) {
    batch.push_back(CoreStatement(core, (group + 1) % 3, (agg + 1) % 3,
                                  Predicate(core, 0, 1, rng)));
  }
  return batch;
}

AppendGenerator::AppendGenerator(uint64_t seed, int64_t first_orderkey,
                                 int64_t customers, int64_t parts,
                                 int64_t suppliers)
    : rng_(MixSeed(seed, 4)),
      next_orderkey_(first_orderkey),
      customers_(customers),
      parts_(parts),
      suppliers_(suppliers) {}

AppendEvent AppendGenerator::Next() {
  static const char* const kPriorities[] = {"1-URGENT", "2-HIGH", "3-MEDIUM",
                                            "4-NOT SPECIFIED", "5-LOW"};
  static const char* const kShipModes[] = {"AIR",     "FOB",  "MAIL", "RAIL",
                                           "REG AIR", "SHIP", "TRUCK"};
  static const int64_t kDateLo = CivilToDays(1992, 1, 1);
  static const int64_t kDateHi = CivilToDays(1998, 8, 2);
  static const int64_t kCutoff = CivilToDays(1995, 6, 17);

  AppendEvent event;
  const int64_t key = next_orderkey_++;
  const int64_t odate = rng_.Uniform(kDateLo, kDateHi);
  const int64_t lines = rng_.Uniform(1, 7);
  double total = 0;
  for (int64_t ln = 1; ln <= lines; ++ln) {
    int64_t partkey = rng_.Uniform(1, parts_);
    double qty = static_cast<double>(rng_.Uniform(1, 50));
    double price = qty * (900.0 + static_cast<double>(partkey % 1000));
    double discount = static_cast<double>(rng_.Uniform(0, 10)) / 100.0;
    double tax = static_cast<double>(rng_.Uniform(0, 8)) / 100.0;
    int64_t shipdate = odate + rng_.Uniform(1, 121);
    event.lineitems.push_back(
        {Value::Int64(key), Value::Int64(partkey),
         Value::Int64(rng_.Uniform(1, suppliers_)), Value::Int64(ln),
         Value::Double(qty), Value::Double(price), Value::Double(discount),
         Value::Double(tax), Value::String(shipdate < kCutoff ? "R" : "N"),
         Value::String(shipdate < kCutoff ? "F" : "O"), Value::Date(shipdate),
         Value::String(kShipModes[rng_.Uniform(0, 6)])});
    total += price * (1.0 - discount) * (1.0 + tax);
  }
  event.orders.push_back(
      {Value::Int64(key), Value::Int64(rng_.Uniform(1, customers_)),
       Value::String(odate < kCutoff ? "F" : "O"), Value::Double(total),
       Value::Date(odate), Value::String(kPriorities[rng_.Uniform(0, 4)]),
       Value::Int64(0)});
  return event;
}

}  // namespace subshare::perfbench
