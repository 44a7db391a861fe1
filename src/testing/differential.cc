#include "testing/differential.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "core/cse_optimizer.h"
#include "exec/executor.h"
#include "exec/naive_planner.h"
#include "sql/binder.h"
#include "util/string_util.h"

namespace subshare::testing {

namespace {

std::string CanonRow(const Row& row) {
  std::string out;
  for (const Value& v : row) {
    if (!out.empty()) out += "|";
    if (v.is_null()) {
      out += "NULL";
    } else if (v.type() == DataType::kDouble) {
      out += StrFormat("%.3f", v.AsDouble());
    } else {
      out += v.ToString();
    }
  }
  return out;
}

// Lexicographic row order by Value::Compare, for the tolerant comparison.
bool RowLess(const Row& a, const Row& b) {
  for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
    int c = a[i].Compare(b[i]);
    if (c != 0) return c < 0;
  }
  return a.size() < b.size();
}

bool ValuesClose(const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return a.is_null() == b.is_null();
  if (a.type() == DataType::kDouble || b.type() == DataType::kDouble) {
    double x = a.AsDouble(), y = b.AsDouble();
    double scale = std::max({1.0, std::fabs(x), std::fabs(y)});
    return std::fabs(x - y) <= 1e-6 * scale;
  }
  return a.Compare(b) == 0;
}

// Multiset equality with an epsilon-tolerant fallback: different join orders
// accumulate floating-point aggregates in different orders, so exact string
// equality (doubles at %.3f) can flag rounding, not bugs.
bool MultisetEqual(const std::vector<Row>& a, const std::vector<Row>& b,
                   std::string* why) {
  if (a.size() != b.size()) {
    *why = StrFormat("row counts differ: %zu vs %zu", a.size(), b.size());
    return false;
  }
  std::vector<std::string> ca, cb;
  ca.reserve(a.size());
  cb.reserve(b.size());
  for (const Row& r : a) ca.push_back(CanonRow(r));
  for (const Row& r : b) cb.push_back(CanonRow(r));
  std::sort(ca.begin(), ca.end());
  std::sort(cb.begin(), cb.end());
  if (ca == cb) return true;

  std::vector<Row> sa = a, sb = b;
  std::sort(sa.begin(), sa.end(), RowLess);
  std::sort(sb.begin(), sb.end(), RowLess);
  for (size_t i = 0; i < sa.size(); ++i) {
    if (sa[i].size() != sb[i].size()) {
      *why = StrFormat("row %zu: arity %zu vs %zu", i, sa[i].size(),
                       sb[i].size());
      return false;
    }
    for (size_t c = 0; c < sa[i].size(); ++c) {
      if (!ValuesClose(sa[i][c], sb[i][c])) {
        *why = StrFormat("row %zu col %zu: '%s' vs '%s'", i, c,
                         CanonRow(sa[i]).c_str(), CanonRow(sb[i]).c_str());
        return false;
      }
    }
  }
  return true;
}

void CountSpoolScans(const PhysicalNode& node, std::map<int, int>* scans) {
  if (node.kind == PhysOpKind::kSpoolScan) (*scans)[node.cse_id] += 1;
  for (const PhysicalNodePtr& c : node.children) {
    CountSpoolScans(*c, scans);
  }
}

}  // namespace

std::vector<EnumerationStrategy> AllEnumerationStrategies() {
  return {EnumerationStrategy::kExhaustive, EnumerationStrategy::kGreedy,
          EnumerationStrategy::kApproximate};
}

std::string PlanInvariantViolation(const ExecutablePlan& plan) {
  std::set<int> known;
  for (const auto& cp : plan.cse_plans) known.insert(cp.cse_id);

  // Spool scans, across statement plans and CSE evaluation plans.
  std::map<int, int> scans;
  CountSpoolScans(*plan.root, &scans);
  std::set<int> seen_eval;  // ids materialized before the current eval plan
  for (const auto& cp : plan.cse_plans) {
    std::map<int, int> eval_scans;
    CountSpoolScans(*cp.plan, &eval_scans);
    for (const auto& [id, n] : eval_scans) {
      if (known.count(id) == 0) {
        return StrFormat("cse %d eval plan reads unmaterialized cse %d",
                         cp.cse_id, id);
      }
      if (seen_eval.count(id) == 0) {
        return StrFormat(
            "cse %d eval plan reads cse %d which is materialized later",
            cp.cse_id, id);
      }
      scans[id] += n;
    }
    seen_eval.insert(cp.cse_id);
  }
  for (const auto& [id, n] : scans) {
    if (known.count(id) == 0) {
      return StrFormat("spool scan of cse %d which has no evaluation plan",
                       id);
    }
  }
  std::map<int, bool> recycled;
  for (const auto& cp : plan.cse_plans) recycled[cp.cse_id] = cp.recycled;
  for (int id : known) {
    // Recycled candidates pay no initial cost, so a single consumer is
    // profitable; freshly evaluated spools still need >= 2 readers.
    int min_scans = recycled[id] ? 1 : 2;
    if (scans[id] < min_scans) {
      return StrFormat(
          "cse %d is materialized but read by %d consumer(s); "
          "%s plans need >= %d",
          id, scans[id], recycled[id] ? "recycled" : "single-consumer",
          min_scans);
    }
  }

  // Initial cost C_E + C_W charged exactly once: one finalization record,
  // and it must live in the statement forest (the LCA), never inside an
  // evaluation plan (which would double-charge on stacked candidates).
  std::map<int, int> finalized;
  for (int id : plan.root->cse_finalized) finalized[id] += 1;
  for (const auto& cp : plan.cse_plans) {
    for (int id : cp.plan->cse_finalized) {
      return StrFormat("cse %d finalized inside cse %d's evaluation plan",
                       id, cp.cse_id);
    }
  }
  for (int id : known) {
    if (finalized[id] != 1) {
      return StrFormat("cse %d initial cost charged %d times (must be 1)",
                       id, finalized[id]);
    }
  }
  for (const auto& [id, n] : finalized) {
    if (known.count(id) == 0) {
      return StrFormat("cse %d finalized but never materialized", id);
    }
  }
  return "";
}

std::string Divergence::ToString() const {
  std::string out = "[" + kind + "] " + detail + "\nreproducer:\n" + sql;
  if (sql != original_sql) {
    out += "\noriginal:\n" + original_sql;
  }
  if (!trace.empty()) {
    out += "\noptimizer trace:\n" + trace;
  }
  return out;
}

DifferentialTester::DifferentialTester(Catalog* catalog, DiffOptions options)
    : catalog_(catalog), options_(std::move(options)) {}

std::optional<Divergence> DifferentialTester::Check(const std::string& sql) {
  // Bind + plan once per planner (one CSE plan per enumeration strategy)
  // and execute each plan once.
  QueryContext naive_ctx(catalog_);
  auto naive_bound = sql::BindSql(sql, &naive_ctx);
  if (!naive_bound.ok()) return std::nullopt;  // front-end error: no diverge
  ExecutablePlan naive_plan = NaivePlanBatch(*naive_bound, &naive_ctx);

  std::vector<EnumerationStrategy> strategies = options_.strategies;
  if (strategies.empty()) strategies = {options_.cse.strategy};

  size_t num_stmts = naive_bound->size();
  statements_checked_ += static_cast<int64_t>(num_stmts);

  Divergence d;
  d.sql = sql;
  d.original_sql = sql;
  auto fail = [&](std::string kind, std::string detail, std::string trace) {
    d.kind = std::move(kind);
    d.detail = std::move(detail);
    d.trace = std::move(trace);
    return d;
  };

  // One CSE plan per strategy. The contexts must outlive plan execution.
  struct CseRun {
    std::string label;        // "cse[exhaustive]"
    ExecutablePlan plan;
    std::string trace;        // ExplainTrace() of this strategy's run
  };
  std::vector<std::unique_ptr<QueryContext>> cse_ctxs;
  std::vector<CseRun> cse_runs;
  for (EnumerationStrategy strategy : strategies) {
    cse_ctxs.push_back(std::make_unique<QueryContext>(catalog_));
    auto bound = sql::BindSql(sql, cse_ctxs.back().get());
    CHECK(bound.ok()) << "bind not deterministic: " << sql;
    CseOptimizerOptions cse_options = options_.cse;
    cse_options.strategy = strategy;
    CseQueryOptimizer cse_opt(cse_ctxs.back().get(), cse_options);
    CseMetrics metrics;
    CseRun run;
    run.label = StrFormat("cse[%s]", EnumerationStrategyName(strategy));
    run.plan = cse_opt.Optimize(*bound, &metrics);
    run.trace = metrics.trace.ExplainTrace();

    if (options_.check_plan_invariants) {
      std::string violation = PlanInvariantViolation(run.plan);
      if (!violation.empty()) {
        return fail("plan-invariant", run.label + ": " + violation,
                    run.trace);
      }
    }
    cse_runs.push_back(std::move(run));
  }

  struct ConfigRun {
    std::string name;
    const ExecutablePlan* plan;
    const std::string* trace;  // nullptr for the naive configuration
  };
  std::vector<ConfigRun> runs = {{"naive/batch", &naive_plan, nullptr}};
  for (const CseRun& run : cse_runs) {
    runs.push_back({run.label + "/batch", &run.plan, &run.trace});
  }

  auto trace_of = [&](const ConfigRun& run) {
    // Attach the diverging strategy's trace; a naive-only divergence still
    // reports the first strategy's decisions for context.
    if (run.trace != nullptr) return *run.trace;
    return cse_runs.empty() ? std::string() : cse_runs.front().trace;
  };
  std::vector<std::vector<StatementResult>> results;
  for (const ConfigRun& run : runs) {
    results.push_back(ExecutePlan(*run.plan, nullptr));
    if (results.back().size() != num_stmts) {
      return fail("error",
                  StrFormat("%s produced %zu statement results, expected %zu",
                            run.name.c_str(), results.back().size(),
                            num_stmts),
                  trace_of(run));
    }
  }

  // naive/batch (merge and nested-loop joins only) is the reference;
  // compare every CSE plan to it.
  for (size_t cfg = 1; cfg < results.size(); ++cfg) {
    for (size_t s = 0; s < num_stmts; ++s) {
      std::string why;
      if (!MultisetEqual(results[0][s].rows, results[cfg][s].rows, &why)) {
        return fail("result-mismatch",
                    StrFormat("statement %zu: naive/batch vs %s: %s", s,
                              runs[cfg].name.c_str(), why.c_str()),
                    trace_of(runs[cfg]));
      }
    }
  }
  return std::nullopt;
}

std::optional<Divergence> DifferentialTester::CheckBatch(
    const BatchSpec& batch) {
  ++batches_checked_;
  std::optional<Divergence> found = Check(ToSql(batch));
  if (!found.has_value()) return std::nullopt;
  const std::string original_sql = ToSql(batch);
  const std::string original_kind = found->kind;

  // Greedy shrink: take any one-step reduction that still shows the same
  // kind of divergence; repeat until no reduction reproduces it.
  BatchSpec current = batch;
  int steps = 0;
  bool progressed = true;
  while (progressed && steps < options_.max_shrink_steps) {
    progressed = false;
    for (BatchSpec& cand : ShrinkCandidates(current)) {
      std::optional<Divergence> d = Check(ToSql(cand));
      if (d.has_value() && d->kind == original_kind) {
        current = std::move(cand);
        found = std::move(d);
        progressed = true;
        ++steps;
        break;
      }
    }
  }
  found->original_sql = original_sql;
  return found;
}

}  // namespace subshare::testing
