// Algorithm 1 against its from-scratch reference.
//
// ReferenceGenerator below is the candidate generator as first written: a
// full §4.2 covering construction (BuildSpec) for every merge attempt of
// Algorithm 1, and again for every singleton it is compared with. The
// production generator evaluates attempts against an incremental covering
// state instead (core/candidate_gen.cc, DESIGN.md §12). Its specs, its
// Algorithm-1 trace (descriptions, Δ, accepted flags), its prunes and its
// diagnostics must be bit-identical to the reference's — doubles compared
// with ==, conjuncts with ExprEquals — on the Figure-6 batch, the regression
// corpus, the bench_mqo_scale shared-prefix family and random generator
// batches, each under {heuristics on/off} x {range hull on/off}.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/candidate_gen.h"
#include "expr/implication.h"
#include "optimizer/cost_model.h"
#include "optimizer/optimizer.h"
#include "sql/binder.h"
#include "testing/query_gen.h"
#include "testing/shared_prefix.h"
#include "tpch/tpch.h"
#include "util/string_util.h"

#ifndef SUBSHARE_CORPUS_DIR
#define SUBSHARE_CORPUS_DIR "tests/corpus"
#endif

namespace subshare {
namespace {

// ------------------------------------------------------------ reference ---

bool ContainsExpr(const std::vector<ExprPtr>& list, const ExprPtr& e) {
  for (const ExprPtr& x : list) {
    if (ExprEquals(x, e)) return true;
  }
  return false;
}

bool IsRangeConjunctOn(const ExprPtr& e, ColId col) {
  ColId c;
  CmpOp op;
  Value v;
  if (!IsColumnVsConstant(e, &c, &op, &v)) return false;
  return c == col && op != CmpOp::kNe;
}

class ReferenceGenerator {
 public:
  ReferenceGenerator(CseManager* manager, CardinalityEstimator* cards,
                     CandidateGenOptions options)
      : manager_(manager), cards_(cards), options_(options) {}

  // Merge attempts from a current candidate of >= 2 consumers whose merged
  // classes are fewer than the current ones (the production generator's
  // rebuild fallback).
  int class_shrinks = 0;

  std::vector<CseSpec> GenerateAll(GenDiagnostics* diag, OptTrace* trace) {
    std::vector<CseSpec> out;
    const ColumnRegistry& reg = manager_->ctx()->columns();
    const Catalog* catalog = manager_->ctx()->catalog();
    for (const std::vector<GroupId>& set : manager_->SharableSets()) {
      ++diag->sharable_sets;
      trace->signatures.push_back(
          {manager_->signature(set[0]).ToString(catalog),
           static_cast<int>(set.size()), false});
      if (options_.heuristics && options_.query_cost > 0) {
        double sum_lower = 0;
        for (GroupId g : set) sum_lower += ConsumerLowerBound(g);
        if (sum_lower < options_.alpha * options_.query_cost) {
          ++diag->sets_pruned_h1;
          trace->signatures.back().pruned_h1 = true;
          continue;
        }
      }
      std::vector<SpjgNormalForm> consumers;
      for (GroupId g : set) {
        std::optional<SpjgNormalForm> nf = manager_->Normalize(g);
        if (nf.has_value()) consumers.push_back(std::move(*nf));
      }
      if (consumers.size() < 2) continue;
      for (const CompatibleGroup& compatible :
           PartitionJoinCompatible(consumers, reg)) {
        if (compatible.members.size() < 2) continue;
        GenerateForCompatibleSet(consumers, compatible, &out, diag, trace);
      }
    }
    return out;
  }

  CseSpec BuildSpec(const std::vector<SpjgNormalForm>& consumers,
                    const std::vector<int>& members) {
    const ColumnRegistry& reg = manager_->ctx()->columns();
    auto type_of = [&](ColId c) { return reg.info(c).type; };

    CseSpec spec;
    spec.signature = consumers[members[0]].signature;
    for (int m : members) spec.consumers.push_back(consumers[m].group);
    spec.has_groupby = spec.signature.has_groupby;

    spec.eq = consumers[members[0]].canon_eq;
    for (size_t i = 1; i < members.size(); ++i) {
      spec.eq = EquivalenceClasses::Intersect(spec.eq,
                                              consumers[members[i]].canon_eq);
    }
    spec.conjuncts = spec.eq.ToConjuncts(type_of);

    std::vector<std::vector<ExprPtr>> residuals;
    for (int m : members) {
      std::vector<ExprPtr> residual;
      for (const ExprPtr& conj : consumers[m].canon_conjuncts) {
        ColId a, b;
        if (IsColumnEquality(conj, &a, &b) && spec.eq.AreEquivalent(a, b)) {
          continue;
        }
        residual.push_back(conj);
      }
      residuals.push_back(std::move(residual));
    }

    std::vector<ExprPtr> common;
    for (const ExprPtr& conj : residuals[0]) {
      bool everywhere = true;
      for (size_t i = 1; i < residuals.size(); ++i) {
        everywhere &= ContainsExpr(residuals[i], conj);
      }
      if (everywhere) common.push_back(conj);
    }
    for (const ExprPtr& conj : common) {
      spec.conjuncts.push_back(conj);
      for (std::vector<ExprPtr>& r : residuals) {
        r.erase(std::remove_if(
                    r.begin(), r.end(),
                    [&](const ExprPtr& x) { return ExprEquals(x, conj); }),
                r.end());
      }
    }

    std::set<ColId> covering_cols;
    for (const std::vector<ExprPtr>& r : residuals) {
      for (const ExprPtr& conj : r) CollectColumns(conj, &covering_cols);
    }

    std::set<ColId> hullable;
    if (options_.enable_range_hull) {
      for (const ExprPtr& conj : residuals[0]) {
        ColId c;
        CmpOp op;
        Value v;
        if (IsColumnVsConstant(conj, &c, &op, &v) && op != CmpOp::kNe) {
          hullable.insert(c);
        }
      }
    }
    for (ColId col : hullable) {
      bool everywhere = true;
      for (const std::vector<ExprPtr>& r : residuals) {
        bool has = false;
        for (const ExprPtr& conj : r) has |= IsRangeConjunctOn(conj, col);
        everywhere &= has;
      }
      if (!everywhere) continue;
      ValueRange hull;
      bool first = true;
      for (const std::vector<ExprPtr>& r : residuals) {
        ValueRange member_range = DeriveRange(r, col, nullptr);
        if (first) {
          hull = member_range;
          first = false;
          continue;
        }
        if (!member_range.lo.has_value() || !hull.lo.has_value()) {
          hull.lo.reset();
        } else {
          int c = member_range.lo->Compare(*hull.lo);
          if (c < 0 || (c == 0 && member_range.lo_inclusive)) {
            hull.lo = member_range.lo;
            hull.lo_inclusive = member_range.lo_inclusive || hull.lo_inclusive;
          }
        }
        if (!member_range.hi.has_value() || !hull.hi.has_value()) {
          hull.hi.reset();
        } else {
          int c = member_range.hi->Compare(*hull.hi);
          if (c > 0 || (c == 0 && member_range.hi_inclusive)) {
            hull.hi = member_range.hi;
            hull.hi_inclusive = member_range.hi_inclusive || hull.hi_inclusive;
          }
        }
      }
      for (const ExprPtr& e : RangeToConjuncts(col, type_of(col), hull)) {
        spec.conjuncts.push_back(e);
      }
      for (std::vector<ExprPtr>& r : residuals) {
        r.erase(std::remove_if(
                    r.begin(), r.end(),
                    [&](const ExprPtr& x) { return IsRangeConjunctOn(x, col); }),
                r.end());
      }
    }

    bool any_empty = false;
    for (const std::vector<ExprPtr>& r : residuals) any_empty |= r.empty();
    if (!any_empty) {
      std::vector<ExprPtr> disjuncts;
      for (const std::vector<ExprPtr>& r : residuals) {
        disjuncts.push_back(CombineConjuncts(r));
      }
      spec.conjuncts.push_back(Expr::Or(std::move(disjuncts)));
    }

    if (spec.has_groupby) {
      std::set<ColId> group_cols(covering_cols);
      for (int m : members) {
        group_cols.insert(consumers[m].canon_group_cols.begin(),
                          consumers[m].canon_group_cols.end());
      }
      spec.group_cols.assign(group_cols.begin(), group_cols.end());
      for (int m : members) {
        for (const auto& [fn, arg] : consumers[m].canon_aggs) {
          bool dup = false;
          for (const auto& [efn, earg] : spec.aggs) {
            dup |= (efn == fn && ExprEquals(earg, arg));
          }
          if (!dup) spec.aggs.emplace_back(fn, arg);
        }
      }
      spec.output_cols = spec.group_cols;
    } else {
      std::set<ColId> out(covering_cols);
      for (int m : members) {
        out.insert(consumers[m].canon_required.begin(),
                   consumers[m].canon_required.end());
      }
      spec.output_cols.assign(out.begin(), out.end());
    }

    CostSpec(&spec);

    spec.description =
        spec.signature.ToString(manager_->ctx()->catalog()) +
        StrFormat(" %d consumers", static_cast<int>(spec.consumers.size()));
    if (spec.has_groupby) {
      std::vector<std::string> g;
      for (ColId c : spec.group_cols) g.push_back(reg.info(c).name);
      spec.description += " γ{" + Join(g, ",") + "}";
    }
    return spec;
  }

 private:
  void CostSpec(CseSpec* spec) {
    const Catalog* catalog = manager_->ctx()->catalog();
    double rows = 1;
    for (TableId t : spec->signature.tables) {
      const Table* table = catalog->GetTable(t);
      rows *=
          table != nullptr ? std::max<double>(1.0, table->row_count()) : 1e3;
    }
    rows *= cards_->Selectivity(spec->conjuncts);
    rows = std::max(rows, 1.0);
    if (spec->has_groupby) {
      double groups = 1;
      for (ColId g : spec->group_cols) {
        groups *= cards_->ColumnNdv(g, std::sqrt(rows));
        if (groups > rows) break;
      }
      rows = std::clamp(groups, 1.0, rows);
    }
    spec->est_rows = rows;
    const ColumnRegistry& reg = manager_->ctx()->columns();
    double width = 0;
    for (ColId c : spec->output_cols) width += DataTypeWidth(reg.info(c).type);
    width += 8.0 * spec->aggs.size();
    spec->width_bytes = std::max(width, 8.0);
    spec->spool_write_cost =
        CostModel::SpoolWriteCost(spec->est_rows, spec->width_bytes);
    spec->spool_read_cost =
        CostModel::SpoolReadCost(spec->est_rows, spec->width_bytes);
  }

  double ConsumerLowerBound(GroupId g) const {
    double c = manager_->memo()->group(g).best_cost;
    return c >= 0 ? c : 0;
  }

  double ConsumerUpperBound(GroupId g) const {
    const Group& group = manager_->memo()->group(g);
    double c = std::max(group.upper_cost, group.best_cost);
    return c >= 0 ? c : 0;
  }

  double SharedCost(const CseSpec& spec) const {
    double ce = 0;
    for (GroupId g : spec.consumers) ce = std::max(ce, ConsumerLowerBound(g));
    return ce + spec.spool_write_cost +
           static_cast<double>(spec.consumers.size()) * spec.spool_read_cost;
  }

  void GenerateForCompatibleSet(const std::vector<SpjgNormalForm>& consumers,
                                const CompatibleGroup& set,
                                std::vector<CseSpec>* out,
                                GenDiagnostics* diag, OptTrace* trace) {
    std::vector<int> members = set.members;
    if (!options_.heuristics) {
      out->push_back(BuildSpec(consumers, members));
      return;
    }
    double sum_lower = 0;
    for (int m : members) sum_lower += ConsumerLowerBound(consumers[m].group);
    if (options_.query_cost > 0 &&
        sum_lower < options_.alpha * options_.query_cost) {
      ++diag->sets_pruned_h1;
      trace->prunes.push_back(
          {StrFormat("compatible set of %d consumer(s)",
                     static_cast<int>(members.size())),
           "H1",
           StrFormat("sum of lower bounds %.2f < alpha * query cost %.2f",
                     sum_lower, options_.alpha * options_.query_cost)});
      return;
    }
    {
      const double n = static_cast<double>(members.size());
      std::vector<int> kept;
      for (int m : members) {
        CseSpec trivial = BuildSpec(consumers, {m});
        double upper = ConsumerUpperBound(consumers[m].group);
        if (upper < trivial.spool_read_cost +
                        (upper + trivial.spool_write_cost) / n) {
          ++diag->consumers_pruned_h2;
          trace->prunes.push_back(
              {trivial.description, "H2",
               StrFormat("consumer upper bound %.2f below spool cost",
                         upper)});
          continue;
        }
        kept.push_back(m);
      }
      members = std::move(kept);
    }
    if (members.size() < 2) return;

    auto cost_of = [&](const CseSpec& spec) {
      if (spec.consumers.size() == 1) {
        return ConsumerLowerBound(spec.consumers[0]);
      }
      return SharedCost(spec);
    };
    std::vector<std::vector<int>> trivial;
    for (int m : members) trivial.push_back({m});
    std::vector<bool> consumed(trivial.size(), false);
    for (size_t seed = 0; seed < trivial.size(); ++seed) {
      if (consumed[seed]) continue;
      consumed[seed] = true;
      std::vector<int> current = trivial[seed];
      CseSpec current_spec = BuildSpec(consumers, current);
      bool is_candidate = false;
      while (true) {
        double best_delta = 0;
        int best_j = -1;
        int best_attempt = -1;
        CseSpec best_spec;
        for (size_t j = 0; j < trivial.size(); ++j) {
          if (consumed[j]) continue;
          std::vector<int> merged = current;
          merged.push_back(trivial[j][0]);
          CseSpec merged_spec = BuildSpec(consumers, merged);
          CseSpec other_spec = BuildSpec(consumers, trivial[j]);
          if (current.size() >= 2 &&
              merged_spec.eq.Classes().size() <
                  current_spec.eq.Classes().size()) {
            ++class_shrinks;
          }
          double delta = cost_of(current_spec) + cost_of(other_spec) -
                         cost_of(merged_spec);
          trace->merges.push_back({current_spec.description,
                                   other_spec.description, delta, false});
          if (delta > best_delta) {
            best_delta = delta;
            best_j = static_cast<int>(j);
            best_attempt = static_cast<int>(trace->merges.size()) - 1;
            best_spec = std::move(merged_spec);
          }
        }
        if (best_j < 0) {
          if (!is_candidate) {
            ++diag->merges_rejected_h3;
            trace->prunes.push_back({current_spec.description, "H3",
                                     "no merge with positive benefit"});
          }
          break;
        }
        trace->merges[best_attempt].accepted = true;
        consumed[best_j] = true;
        current.push_back(trivial[best_j][0]);
        current_spec = std::move(best_spec);
        is_candidate = true;
      }
      if (is_candidate) out->push_back(std::move(current_spec));
    }
  }

  CseManager* manager_;
  CardinalityEstimator* cards_;
  CandidateGenOptions options_;
};

// ----------------------------------------------------------- comparison ---

// First difference between two specs, or "" when bit-identical.
std::string SpecDifference(const CseSpec& want, const CseSpec& got) {
  if (!(want.signature == got.signature)) return "signature";
  if (want.consumers != got.consumers) return "consumers";
  if (!(want.eq == got.eq)) return "equivalence classes";
  if (want.conjuncts.size() != got.conjuncts.size()) {
    return StrFormat("conjunct count %d vs %d",
                     static_cast<int>(want.conjuncts.size()),
                     static_cast<int>(got.conjuncts.size()));
  }
  for (size_t i = 0; i < want.conjuncts.size(); ++i) {
    if (!ExprEquals(want.conjuncts[i], got.conjuncts[i])) {
      return StrFormat("conjunct %d", static_cast<int>(i));
    }
  }
  if (want.has_groupby != got.has_groupby) return "has_groupby";
  if (want.group_cols != got.group_cols) return "group_cols";
  if (want.output_cols != got.output_cols) return "output_cols";
  if (want.aggs.size() != got.aggs.size()) return "aggregate count";
  for (size_t i = 0; i < want.aggs.size(); ++i) {
    if (want.aggs[i].first != got.aggs[i].first ||
        !ExprEquals(want.aggs[i].second, got.aggs[i].second)) {
      return StrFormat("aggregate %d", static_cast<int>(i));
    }
  }
  if (want.est_rows != got.est_rows) {
    return StrFormat("est_rows %.17g vs %.17g", want.est_rows, got.est_rows);
  }
  if (want.width_bytes != got.width_bytes) return "width_bytes";
  if (want.spool_write_cost != got.spool_write_cost) return "C_W";
  if (want.spool_read_cost != got.spool_read_cost) return "C_R";
  if (want.description != got.description) {
    return "description '" + want.description + "' vs '" + got.description +
           "'";
  }
  return "";
}

struct Config {
  bool heuristics;
  bool range_hull;
};

constexpr Config kConfigs[] = {
    {true, true}, {true, false}, {false, true}, {false, false}};

struct Tally {
  int batches = 0;
  int specs = 0;
  int64_t merges = 0;
  int64_t refolds = 0;
  int64_t class_shrinks = 0;
};

class Alg1ReferenceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    catalog_ = new Catalog();
    tpch::TpchOptions opts;
    opts.scale_factor = 0.002;
    ASSERT_TRUE(tpch::LoadTpch(catalog_, opts).ok());
  }
  static void TearDownTestSuite() { delete catalog_; }

  // Runs both generators over `sql` under every configuration and expects
  // identical output.
  static void ExpectIdentical(const std::string& sql, const std::string& where,
                              Tally* tally) {
    for (const Config& config : kConfigs) {
      SCOPED_TRACE(StrFormat("%s [heuristics=%d range_hull=%d]",
                             where.c_str(), config.heuristics,
                             config.range_hull));
      QueryContext ctx(catalog_);
      auto stmts = sql::BindSql(sql, &ctx);
      ASSERT_TRUE(stmts.ok()) << stmts.status().ToString();
      Optimizer opt(&ctx);
      GroupId root = opt.BuildAndExplore(*stmts);
      PhysicalNodePtr normal = opt.BestPlan(root, Bitset64());
      ASSERT_NE(normal, nullptr);
      CseManager manager(&opt.memo(), &ctx);
      manager.CollectSignatures();
      CandidateGenOptions options;
      options.heuristics = config.heuristics;
      options.enable_range_hull = config.range_hull;
      options.query_cost = normal->est_cost;

      GenDiagnostics want_diag, got_diag;
      OptTrace want_trace, got_trace;
      ReferenceGenerator reference(&manager, &opt.cards(), options);
      std::vector<CseSpec> want =
          reference.GenerateAll(&want_diag, &want_trace);
      CandidateGenerator generator(&manager, &opt.cards(), options);
      std::vector<CseSpec> got = generator.GenerateAll(&got_diag, &got_trace);

      ASSERT_EQ(want.size(), got.size());
      for (size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(SpecDifference(want[i], got[i]), "") << "candidate " << i;
      }
      ASSERT_EQ(want_trace.merges.size(), got_trace.merges.size());
      for (size_t i = 0; i < want_trace.merges.size(); ++i) {
        const OptTrace::Merge& w = want_trace.merges[i];
        const OptTrace::Merge& g = got_trace.merges[i];
        ASSERT_EQ(w.current, g.current) << "merge " << i;
        ASSERT_EQ(w.other, g.other) << "merge " << i;
        ASSERT_EQ(w.delta, g.delta) << "merge " << i;
        ASSERT_EQ(w.accepted, g.accepted) << "merge " << i;
      }
      ASSERT_EQ(want_trace.prunes.size(), got_trace.prunes.size());
      for (size_t i = 0; i < want_trace.prunes.size(); ++i) {
        EXPECT_EQ(want_trace.prunes[i].what, got_trace.prunes[i].what);
        EXPECT_EQ(want_trace.prunes[i].rule, got_trace.prunes[i].rule);
        EXPECT_EQ(want_trace.prunes[i].detail, got_trace.prunes[i].detail);
      }
      EXPECT_EQ(want_trace.signatures.size(), got_trace.signatures.size());
      EXPECT_EQ(want_diag.sharable_sets, got_diag.sharable_sets);
      EXPECT_EQ(want_diag.sets_pruned_h1, got_diag.sets_pruned_h1);
      EXPECT_EQ(want_diag.consumers_pruned_h2, got_diag.consumers_pruned_h2);
      EXPECT_EQ(want_diag.merges_rejected_h3, got_diag.merges_rejected_h3);

      ++tally->batches;
      tally->specs += static_cast<int>(got.size());
      tally->merges += static_cast<int64_t>(got_trace.merges.size());
      tally->refolds += got_diag.covering_refolds;
      tally->class_shrinks += reference.class_shrinks;
    }
  }

  static Catalog* catalog_;
};

Catalog* Alg1ReferenceTest::catalog_ = nullptr;

// The paper's Example 1 batch, whose candidates are Figure 6's.
TEST_F(Alg1ReferenceTest, Figure6Batch) {
  const std::string batch =
      "select c_nationkey, c_mktsegment, sum(l_extendedprice) as le, "
      "sum(l_quantity) as lq from customer, orders, lineitem "
      "where c_custkey = o_custkey and o_orderkey = l_orderkey "
      "and o_orderdate < '1996-07-01' and c_nationkey > 0 "
      "and c_nationkey < 20 group by c_nationkey, c_mktsegment; "
      "select c_nationkey, sum(l_extendedprice) as le, sum(l_quantity) as lq "
      "from customer, orders, lineitem "
      "where c_custkey = o_custkey and o_orderkey = l_orderkey "
      "and o_orderdate < '1996-07-01' and c_nationkey > 5 "
      "and c_nationkey < 25 group by c_nationkey; "
      "select n_regionkey, sum(l_extendedprice) as le, sum(l_quantity) as lq "
      "from customer, orders, lineitem, nation "
      "where c_custkey = o_custkey and o_orderkey = l_orderkey "
      "and c_nationkey = n_nationkey and o_orderdate < '1996-07-01' "
      "and c_nationkey > 2 and c_nationkey < 24 group by n_regionkey";
  Tally tally;
  ExpectIdentical(batch, "figure 6", &tally);
  EXPECT_GT(tally.merges, 0);
}

TEST_F(Alg1ReferenceTest, Corpus) {
  std::vector<std::filesystem::path> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(SUBSHARE_CORPUS_DIR)) {
    if (entry.path().extension() == ".sql") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  ASSERT_FALSE(files.empty()) << "no corpus files in " << SUBSHARE_CORPUS_DIR;
  Tally tally;
  for (const auto& file : files) {
    std::ifstream in(file);
    ASSERT_TRUE(in.good()) << file;
    std::stringstream buf;
    buf << in.rdbuf();
    ExpectIdentical(buf.str(), file.filename().string(), &tally);
  }
  EXPECT_GT(tally.merges, 0);
}

// The bench_mqo_scale family: merge attempts grow quadratically with the
// consumers of each core, and most of them keep the covering frame.
TEST_F(Alg1ReferenceTest, SharedPrefixFamily) {
  Tally tally;
  for (int n : {10, 25, 50, 100, 300}) {
    ExpectIdentical(testing::SharedPrefixBatch(n),
                    StrFormat("shared prefix x%d", n), &tally);
  }
  EXPECT_GT(tally.merges, 1000);
  EXPECT_LT(tally.refolds, tally.merges / 4);
}

TEST_F(Alg1ReferenceTest, RandomBatches) {
  Tally tally;
  testing::QueryGenOptions wide;
  wide.max_statements = 8;
  wide.shared_prefix_prob = 1.0;
  for (int i = 0; i < 40; ++i) {
    const uint64_t seed = 7000 + static_cast<uint64_t>(i);
    testing::QueryGenerator small(catalog_, seed);
    ExpectIdentical(testing::ToSql(small.NextBatch()),
                    StrFormat("random seed %llu",
                              static_cast<unsigned long long>(seed)),
                    &tally);
    testing::QueryGenerator large(catalog_, seed, wide);
    ExpectIdentical(testing::ToSql(large.NextBatch()),
                    StrFormat("random wide seed %llu",
                              static_cast<unsigned long long>(seed)),
                    &tally);
  }
  EXPECT_GT(tally.merges, 0);
}

// A merge that shrinks the running classes: the first two statements also
// equate o_custkey with l_suppkey, the third does not, so once the pair has
// merged, adding the third turns that absorbed join conjunct back into
// residual predicate and the covering state is rebuilt from its members.
TEST_F(Alg1ReferenceTest, MergeShrinkingClassesRebuilds) {
  const std::string batch =
      "select o_orderpriority, sum(l_quantity) as q from orders, lineitem "
      "where o_orderkey = l_orderkey and o_custkey = l_suppkey "
      "and o_totalprice > 1000 group by o_orderpriority; "
      "select o_orderpriority, sum(l_quantity) as q from orders, lineitem "
      "where o_orderkey = l_orderkey and o_custkey = l_suppkey "
      "and o_totalprice > 2000 group by o_orderpriority; "
      "select o_orderpriority, sum(l_quantity) as q from orders, lineitem "
      "where o_orderkey = l_orderkey and o_totalprice > 1500 "
      "group by o_orderpriority";
  Tally tally;
  ExpectIdentical(batch, "shrinking classes", &tally);
  EXPECT_GT(tally.class_shrinks, 0);
  EXPECT_GT(tally.refolds, 0);
}

}  // namespace
}  // namespace subshare
