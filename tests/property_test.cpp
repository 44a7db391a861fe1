// Randomized property tests for the predicate machinery the CSE
// construction rests on:
//   1. Implication soundness: if ImpliesConjunct(premise, target) then every
//      sampled value satisfying the premise satisfies the target.
//   2. Covering-hull soundness: the §4.2 range hull retains every row any
//      consumer retains.
//   3. Figure-2 signature rules on randomly generated SPJG trees.
//   4. The flat EquivalenceClasses agree with a std::map union-find on
//      random equality sets, and Intersect is commutative, associative and
//      idempotent (the incremental Algorithm-1 covering state relies on it).
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <set>

#include "core/signature.h"
#include "expr/evaluator.h"
#include "expr/implication.h"
#include "optimizer/optimizer.h"
#include "sql/binder.h"
#include "tpch/tpch.h"
#include "util/rng.h"

namespace subshare {
namespace {

ExprPtr Col(ColId c) { return Expr::Column(c, DataType::kInt64); }
ExprPtr Lit(int64_t v) { return Expr::Literal(Value::Int64(v)); }

CmpOp RandomRangeOp(Rng* rng) {
  switch (rng->Uniform(0, 4)) {
    case 0: return CmpOp::kLt;
    case 1: return CmpOp::kLe;
    case 2: return CmpOp::kGt;
    case 3: return CmpOp::kGe;
    default: return CmpOp::kEq;
  }
}

// Random conjunction of range predicates over columns 0..2, values 0..20.
std::vector<ExprPtr> RandomConjuncts(Rng* rng, int max_conjuncts) {
  std::vector<ExprPtr> out;
  int n = static_cast<int>(rng->Uniform(1, max_conjuncts));
  for (int i = 0; i < n; ++i) {
    out.push_back(Expr::Compare(RandomRangeOp(rng),
                                Col(static_cast<ColId>(rng->Uniform(0, 2))),
                                Lit(rng->Uniform(0, 20))));
  }
  return out;
}

class ImplicationPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ImplicationPropertyTest, ImpliedTargetsHoldOnAllSamples) {
  Rng rng(GetParam() * 104729 + 7);
  Layout layout({0, 1, 2});
  for (int round = 0; round < 60; ++round) {
    std::vector<ExprPtr> premise = RandomConjuncts(&rng, 4);
    ExprPtr target = Expr::Compare(
        RandomRangeOp(&rng), Col(static_cast<ColId>(rng.Uniform(0, 2))),
        Lit(rng.Uniform(0, 20)));
    if (!ImpliesConjunct(premise, target, nullptr)) continue;
    // Exhaustively sample the small domain.
    ExprPtr bound_premise = BindExpr(CombineConjuncts(premise), layout);
    ExprPtr bound_target = BindExpr(target, layout);
    for (int64_t a = -1; a <= 21; ++a) {
      for (int64_t b = -1; b <= 21; b += 5) {
        for (int64_t c = -1; c <= 21; c += 7) {
          Row row = {Value::Int64(a), Value::Int64(b), Value::Int64(c)};
          if (EvalPredicate(bound_premise, row)) {
            ASSERT_TRUE(EvalPredicate(bound_target, row))
                << ExprToString(CombineConjuncts(premise)) << "  =/=>  "
                << ExprToString(target) << " at (" << a << "," << b << ","
                << c << ")";
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ImplicationPropertyTest,
                         ::testing::Range<uint64_t>(0, 8));

class HullPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(HullPropertyTest, HullCoversEveryConsumerRange) {
  // Build k consumer ranges over one column, widen them the way the CSE
  // construction does, and verify every value admitted by any consumer is
  // admitted by the hull.
  Rng rng(GetParam() * 31337 + 3);
  for (int round = 0; round < 100; ++round) {
    int k = static_cast<int>(rng.Uniform(2, 5));
    std::vector<ValueRange> ranges;
    for (int i = 0; i < k; ++i) {
      ValueRange r;
      if (rng.Uniform(0, 3) > 0) {
        r.Apply(rng.Uniform(0, 1) ? CmpOp::kGt : CmpOp::kGe,
                Value::Int64(rng.Uniform(0, 10)));
      }
      if (rng.Uniform(0, 3) > 0) {
        r.Apply(rng.Uniform(0, 1) ? CmpOp::kLt : CmpOp::kLe,
                Value::Int64(rng.Uniform(10, 20)));
      }
      ranges.push_back(r);
    }
    // Widen exactly like candidate_gen's hull step.
    ValueRange hull = ranges[0];
    for (size_t i = 1; i < ranges.size(); ++i) {
      const ValueRange& m = ranges[i];
      if (!m.lo.has_value() || !hull.lo.has_value()) {
        hull.lo.reset();
      } else {
        int c = m.lo->Compare(*hull.lo);
        if (c < 0 || (c == 0 && m.lo_inclusive)) {
          hull.lo = m.lo;
          hull.lo_inclusive = m.lo_inclusive || hull.lo_inclusive;
        }
      }
      if (!m.hi.has_value() || !hull.hi.has_value()) {
        hull.hi.reset();
      } else {
        int c = m.hi->Compare(*hull.hi);
        if (c > 0 || (c == 0 && m.hi_inclusive)) {
          hull.hi = m.hi;
          hull.hi_inclusive = m.hi_inclusive || hull.hi_inclusive;
        }
      }
    }
    Layout layout({0});
    ExprPtr hull_pred = BindExpr(
        CombineConjuncts(RangeToConjuncts(0, DataType::kInt64, hull)),
        layout);
    for (const ValueRange& r : ranges) {
      ExprPtr member = BindExpr(
          CombineConjuncts(RangeToConjuncts(0, DataType::kInt64, r)), layout);
      for (int64_t v = -2; v <= 22; ++v) {
        Row row = {Value::Int64(v)};
        if (EvalPredicate(member, row)) {
          ASSERT_TRUE(EvalPredicate(hull_pred, row))
              << "hull dropped value " << v;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HullPropertyTest,
                         ::testing::Range<uint64_t>(0, 6));

// ---- Equivalence classes vs. a std::map union-find ----

// The reference: a plain union-find over a std::map, classes materialized
// on demand.
class MapUnionFind {
 public:
  void Add(ColId a, ColId b) {
    if (a == b) return;
    parent_.emplace(a, a);
    parent_.emplace(b, b);
    ColId ra = Find(a), rb = Find(b);
    if (ra != rb) parent_[std::max(ra, rb)] = std::min(ra, rb);
  }
  ColId Find(ColId c) const {
    auto it = parent_.find(c);
    while (it != parent_.end() && it->second != c) {
      c = it->second;
      it = parent_.find(c);
    }
    return c;
  }
  bool Equivalent(ColId a, ColId b) const {
    return a == b || (parent_.count(a) > 0 && Find(a) == Find(b));
  }
  std::vector<std::vector<ColId>> Classes() const {
    std::map<ColId, std::vector<ColId>> by_root;
    for (const auto& [c, p] : parent_) by_root[Find(c)].push_back(c);
    std::vector<std::vector<ColId>> out;
    for (auto& [root, members] : by_root) {
      if (members.size() >= 2) out.push_back(members);
    }
    std::sort(out.begin(), out.end());
    return out;
  }

 private:
  std::map<ColId, ColId> parent_;
};

constexpr ColId kMaxCol = 11;

struct RandomEqualities {
  std::vector<std::pair<ColId, ColId>> pairs;
  EquivalenceClasses flat;
  MapUnionFind ref;
};

RandomEqualities MakeEqualities(Rng* rng) {
  RandomEqualities out;
  int n = static_cast<int>(rng->Uniform(0, 9));
  for (int i = 0; i < n; ++i) {
    ColId a = static_cast<ColId>(rng->Uniform(0, kMaxCol));
    ColId b = static_cast<ColId>(rng->Uniform(0, kMaxCol));
    out.pairs.emplace_back(a, b);
    out.flat.AddEquality(a, b);
    out.ref.Add(a, b);
  }
  return out;
}

MapUnionFind RefIntersect(const MapUnionFind& a, const MapUnionFind& b) {
  MapUnionFind out;
  for (const std::vector<ColId>& ca : a.Classes()) {
    for (const std::vector<ColId>& cb : b.Classes()) {
      std::vector<ColId> common;
      std::set_intersection(ca.begin(), ca.end(), cb.begin(), cb.end(),
                            std::back_inserter(common));
      for (size_t i = 1; i < common.size(); ++i) out.Add(common[0], common[i]);
    }
  }
  return out;
}

// Nodes connected by the reference classes' equijoin graph (flood fill).
bool RefConnects(const MapUnionFind& ref, const std::vector<int>& nodes,
                 int (*node_of)(ColId)) {
  if (nodes.size() <= 1) return true;
  std::set<int> reached = {nodes[0]};
  bool grew = true;
  while (grew) {
    grew = false;
    for (const std::vector<ColId>& cls : ref.Classes()) {
      bool touches = false;
      for (ColId c : cls) touches |= reached.count(node_of(c)) > 0;
      if (!touches) continue;
      for (ColId c : cls) {
        int n = node_of(c);
        if (n >= 0 && std::count(nodes.begin(), nodes.end(), n) > 0 &&
            reached.insert(n).second) {
          grew = true;
        }
      }
    }
  }
  for (int n : nodes) {
    if (reached.count(n) == 0) return false;
  }
  return true;
}

int NodeOf(ColId c) { return c >= 10 ? -1 : c % 4; }

void ExpectMatchesReference(const EquivalenceClasses& flat,
                            const MapUnionFind& ref) {
  ASSERT_EQ(flat.Classes(), ref.Classes());
  EXPECT_EQ(flat.empty(), ref.Classes().empty());
  for (ColId a = 0; a <= kMaxCol + 1; ++a) {
    for (ColId b = 0; b <= kMaxCol + 1; ++b) {
      ASSERT_EQ(flat.AreEquivalent(a, b), ref.Equivalent(a, b))
          << a << " ~ " << b;
    }
  }
  // ToConjuncts chains each sorted class: k-1 equalities per class.
  std::vector<std::pair<ColId, ColId>> want, got;
  for (const std::vector<ColId>& cls : ref.Classes()) {
    for (size_t i = 1; i < cls.size(); ++i) want.emplace_back(cls[i - 1], cls[i]);
  }
  for (const ExprPtr& e :
       flat.ToConjuncts([](ColId) { return DataType::kInt64; })) {
    ColId a, b;
    ASSERT_TRUE(IsColumnEquality(e, &a, &b));
    got.emplace_back(a, b);
  }
  EXPECT_EQ(got, want);
}

class EquivalencePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EquivalencePropertyTest, FlatClassesMatchMapUnionFind) {
  Rng rng(GetParam() * 6151 + 5);
  for (int round = 0; round < 200; ++round) {
    RandomEqualities a = MakeEqualities(&rng);
    ExpectMatchesReference(a.flat, a.ref);

    // Canonical: any insertion order (and FromConjuncts) gives an equal
    // object.
    std::vector<std::pair<ColId, ColId>> shuffled = a.pairs;
    std::reverse(shuffled.begin(), shuffled.end());
    EquivalenceClasses reordered;
    std::vector<ExprPtr> conjuncts;
    for (const auto& [x, y] : shuffled) {
      reordered.AddEquality(y, x);
      conjuncts.push_back(Expr::Compare(CmpOp::kEq, Col(x), Col(y)));
    }
    EXPECT_TRUE(reordered == a.flat);
    EXPECT_TRUE(EquivalenceClasses::FromConjuncts(conjuncts) == a.flat);

    // Definition 4.1 connectivity over random node subsets.
    std::vector<int> nodes;
    for (int n = 0; n < 4; ++n) {
      if (rng.Uniform(0, 2) > 0) nodes.push_back(n);
    }
    EXPECT_EQ(a.flat.ConnectsNodes(nodes, NodeOf),
              RefConnects(a.ref, nodes, NodeOf));
  }
}

TEST_P(EquivalencePropertyTest, IntersectIsAMeet) {
  Rng rng(GetParam() * 7753 + 11);
  for (int round = 0; round < 200; ++round) {
    RandomEqualities a = MakeEqualities(&rng);
    RandomEqualities b = MakeEqualities(&rng);
    RandomEqualities c = MakeEqualities(&rng);
    using EC = EquivalenceClasses;
    const EC ab = EC::Intersect(a.flat, b.flat);
    ExpectMatchesReference(ab, RefIntersect(a.ref, b.ref));
    EXPECT_TRUE(ab == EC::Intersect(b.flat, a.flat));
    EXPECT_TRUE(EC::Intersect(ab, c.flat) ==
                EC::Intersect(a.flat, EC::Intersect(b.flat, c.flat)));
    EXPECT_TRUE(EC::Intersect(a.flat, a.flat) == a.flat);
    EXPECT_TRUE(EC::Intersect(a.flat, EC()).empty());
    EXPECT_EQ(a.flat.ImpliedBy(b.flat), ab == a.flat);
    EXPECT_TRUE(ab.ImpliedBy(a.flat));
    EXPECT_TRUE(ab.ImpliedBy(b.flat));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EquivalencePropertyTest,
                         ::testing::Range<uint64_t>(0, 6));

// ---- Figure 2 signature rules over randomized SPJG queries ----

class SignaturePropertyTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  static void SetUpTestSuite() {
    catalog_ = new Catalog();
    tpch::TpchOptions opts;
    opts.scale_factor = 0.002;
    ASSERT_TRUE(tpch::LoadTpch(catalog_, opts).ok());
  }
  static void TearDownTestSuite() { delete catalog_; }
  static Catalog* catalog_;
};

Catalog* SignaturePropertyTest::catalog_ = nullptr;

TEST_P(SignaturePropertyTest, SignatureMatchesFromClauseAndGrouping) {
  Rng rng(GetParam() * 7919 + 13);
  // Random join chain out of nation-customer-orders-lineitem.
  const char* chain_tables[] = {"nation", "customer", "orders", "lineitem"};
  const char* chain_joins[] = {nullptr, "c_nationkey = n_nationkey",
                               "o_custkey = c_custkey",
                               "l_orderkey = o_orderkey"};
  int start = static_cast<int>(rng.Uniform(0, 2));
  int end = static_cast<int>(rng.Uniform(start, 3));
  bool aggregated = rng.Uniform(0, 1) == 1;
  std::string sql = "select ";
  sql += aggregated ? "count(*) as c" : std::string(chain_tables[start])[0] +
                                            std::string("_comment");
  // (avoid invalid column names: always use count(*))
  sql = "select count(*) as c from ";
  for (int i = start; i <= end; ++i) {
    if (i > start) sql += ", ";
    sql += chain_tables[i];
  }
  std::vector<std::string> joins;
  for (int i = start + 1; i <= end; ++i) joins.push_back(chain_joins[i]);
  if (!joins.empty()) {
    sql += " where ";
    for (size_t i = 0; i < joins.size(); ++i) {
      if (i > 0) sql += " and ";
      sql += joins[i];
    }
  }

  QueryContext ctx(catalog_);
  auto stmts = sql::BindSql(sql, &ctx);
  ASSERT_TRUE(stmts.ok()) << stmts.status().ToString() << " " << sql;
  Optimizer opt(&ctx);
  opt.BuildAndExplore(*stmts);
  std::vector<TableSignature> sigs;
  ComputeSignatures(opt.memo(), &sigs);

  // Expected table multiset of the full SPJ block.
  std::vector<TableId> expected;
  for (int i = start; i <= end; ++i) {
    expected.push_back(catalog_->GetTable(chain_tables[i])->id());
  }
  std::sort(expected.begin(), expected.end());

  // Figure-2 invariants over the whole memo:
  bool found_full_block = false;
  for (GroupId g = 0; g < opt.memo().num_groups(); ++g) {
    const TableSignature& sig = sigs[g];
    if (!sig.valid) continue;
    const GroupExpr& e = opt.memo().group(g).exprs[0];
    // Get groups: single table, G = F.
    if (e.op.kind == LogicalOpKind::kGet) {
      EXPECT_EQ(sig.tables.size(), 1u);
      EXPECT_FALSE(sig.has_groupby);
    }
    // GroupBy groups: G = T with the child's tables.
    if (e.op.kind == LogicalOpKind::kGroupBy) {
      EXPECT_TRUE(sig.has_groupby);
      EXPECT_TRUE(sigs[e.children[0]].valid);
      EXPECT_EQ(sig.tables, sigs[e.children[0]].tables);
      EXPECT_FALSE(sigs[e.children[0]].has_groupby);
    }
    // Join/JoinSet groups: union of children tables, all G = F.
    if (e.op.kind == LogicalOpKind::kJoinSet) {
      size_t total = 0;
      for (GroupId c : e.children) {
        EXPECT_TRUE(sigs[c].valid);
        total += sigs[c].tables.size();
      }
      EXPECT_EQ(sig.tables.size(), total);
      EXPECT_FALSE(sig.has_groupby);
    }
    if (sig.tables == expected && !sig.has_groupby &&
        e.op.kind != LogicalOpKind::kGet) {
      found_full_block = true;
    }
  }
  if (expected.size() >= 2) {
    EXPECT_TRUE(found_full_block) << sql;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SignaturePropertyTest,
                         ::testing::Range<uint64_t>(0, 12));

}  // namespace
}  // namespace subshare
