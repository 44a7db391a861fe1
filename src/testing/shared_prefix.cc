#include "testing/shared_prefix.h"

#include "util/string_util.h"

namespace subshare::testing {

namespace {

struct Core {
  const char* from;
  const char* join;
  const char* groups[3];
  const char* aggs[3];
  const char* preds[3];
};

// Twelve cores with pairwise-distinct table signatures. Predicate variants
// are single-column ranges so the §4.2 hull simplification applies.
const Core kCores[] = {
    {"customer, orders, lineitem",
     "c_custkey = o_custkey and o_orderkey = l_orderkey",
     {"c_nationkey", "c_mktsegment", "o_orderpriority"},
     {"sum(l_extendedprice)", "sum(l_quantity)", "count(*)"},
     {"o_orderdate < '1996-07-01'", "o_orderdate < '1997-01-01'",
      "o_orderdate < '1995-07-01'"}},
    {"customer, orders, lineitem, nation",
     "c_custkey = o_custkey and o_orderkey = l_orderkey and "
     "c_nationkey = n_nationkey",
     {"n_regionkey", "n_name", "c_mktsegment"},
     {"sum(l_extendedprice)", "sum(l_discount)", "count(*)"},
     {"c_nationkey > 0 and c_nationkey < 20",
      "c_nationkey > 2 and c_nationkey < 24",
      "c_nationkey > 5 and c_nationkey < 25"}},
    {"orders, lineitem", "o_orderkey = l_orderkey",
     {"o_orderpriority", "o_orderstatus", "o_shippriority"},
     {"sum(l_quantity)", "sum(l_extendedprice)", "count(*)"},
     {"o_totalprice > 1000", "o_totalprice > 5000", "o_totalprice > 10000"}},
    {"customer, orders", "c_custkey = o_custkey",
     {"c_mktsegment", "c_nationkey", "o_orderstatus"},
     {"sum(o_totalprice)", "count(*)", "max(o_totalprice)"},
     {"c_acctbal > -100", "c_acctbal > 0", "c_acctbal > 500"}},
    {"part, lineitem", "p_partkey = l_partkey",
     {"p_brand", "p_type", "p_container"},
     {"sum(l_quantity)", "count(*)", "min(l_extendedprice)"},
     {"p_size < 30", "p_size < 25", "p_size < 40"}},
    {"part, orders, lineitem",
     "p_partkey = l_partkey and o_orderkey = l_orderkey",
     {"p_type", "p_brand", "o_orderpriority"},
     {"sum(l_quantity)", "sum(l_extendedprice)", "count(*)"},
     {"o_orderdate < '1996-07-01'", "o_orderdate < '1996-01-01'",
      "o_orderdate < '1997-01-01'"}},
    {"customer, nation", "c_nationkey = n_nationkey",
     {"n_name", "c_mktsegment", "n_regionkey"},
     {"count(*)", "sum(c_acctbal)", "max(c_acctbal)"},
     {"c_acctbal > -200", "c_acctbal > 0", "c_acctbal > 250"}},
    {"supplier, nation", "s_nationkey = n_nationkey",
     {"n_name", "n_regionkey", "s_nationkey"},
     {"count(*)", "sum(s_acctbal)", "min(s_acctbal)"},
     {"s_acctbal > -300", "s_acctbal > 0", "s_acctbal > 100"}},
    {"partsupp, part", "ps_partkey = p_partkey",
     {"p_type", "p_brand", "p_container"},
     {"sum(ps_supplycost)", "sum(ps_availqty)", "count(*)"},
     {"p_size < 20", "p_size < 35", "p_size < 45"}},
    {"partsupp, supplier", "ps_suppkey = s_suppkey",
     {"s_nationkey", "s_name", "s_nationkey"},
     {"sum(ps_supplycost)", "count(*)", "sum(ps_availqty)"},
     {"ps_availqty > 100", "ps_availqty > 500", "ps_availqty > 1000"}},
    {"customer, orders, lineitem, nation, region",
     "c_custkey = o_custkey and o_orderkey = l_orderkey and "
     "c_nationkey = n_nationkey and n_regionkey = r_regionkey",
     {"r_name", "n_name", "c_mktsegment"},
     {"sum(l_extendedprice)", "sum(l_quantity)", "count(*)"},
     {"o_orderdate < '1996-07-01'", "o_orderdate < '1995-06-01'",
      "o_orderdate < '1997-01-01'"}},
    {"lineitem, supplier", "l_suppkey = s_suppkey",
     {"s_nationkey", "l_returnflag", "l_linestatus"},
     {"sum(l_quantity)", "sum(l_extendedprice)", "count(*)"},
     {"l_shipdate < '1996-01-01'", "l_shipdate < '1996-07-01'",
      "l_shipdate < '1995-06-01'"}},
};
constexpr int kNumCores = static_cast<int>(sizeof(kCores) / sizeof(kCores[0]));
static_assert(kNumCores == kSharedPrefixCores);

std::string SharedPrefixQuery(int i) {
  const Core& core = kCores[i % kNumCores];
  int v = i / kNumCores;
  const char* group = core.groups[v % 3];
  const char* agg = core.aggs[(v / 3) % 3];
  const char* pred = core.preds[(v / 9) % 3];
  return StrFormat("select %s, %s as a from %s where %s and %s group by %s",
                   group, agg, core.from, core.join, pred, group);
}

}  // namespace

std::string SharedPrefixBatch(int n) {
  std::string batch;
  for (int i = 0; i < n; ++i) {
    if (i > 0) batch += "; ";
    batch += SharedPrefixQuery(i);
  }
  return batch;
}

}  // namespace subshare::testing
