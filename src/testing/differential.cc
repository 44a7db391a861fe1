#include "testing/differential.h"

#include <algorithm>
#include <cmath>
#include <map>
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

// "v1|v2|..." for divergence reports; rendered only on a mismatch.
std::string RenderRow(const Row& row) {
  std::string out;
  for (const Value& v : row) {
    if (!out.empty()) out += "|";
    out += v.is_null() || v.type() != DataType::kDouble
               ? v.ToString()
               : StrFormat("%.17g", v.AsDouble());
  }
  return out;
}

// The match test: doubles within relative 1e-6 (different join orders
// accumulate floating-point aggregates in different orders), strings equal
// as strings, every other value exactly equal.
bool ValuesClose(const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return a.is_null() == b.is_null();
  if (a.type() == DataType::kString || b.type() == DataType::kString) {
    return a.type() == b.type() && a.AsString() == b.AsString();
  }
  if (a.type() == DataType::kDouble || b.type() == DataType::kDouble) {
    double x = a.AsDouble(), y = b.AsDouble();
    double scale = std::max({1.0, std::fabs(x), std::fabs(y)});
    return std::fabs(x - y) <= 1e-6 * scale;
  }
  return a.Compare(b) == 0;
}

// One value of a row's sort key: numbers as doubles, doubles rounded to
// 1e-3 so that near-equal values on the two sides sort alike and pair up.
struct KeyPart {
  bool null = false;
  double num = 0;
  const std::string* str = nullptr;  // set for strings

  int Compare(const KeyPart& o) const {
    if (null || o.null) return static_cast<int>(o.null) - static_cast<int>(null);
    if (str != nullptr && o.str != nullptr) return str->compare(*o.str);
    if ((str != nullptr) != (o.str != nullptr)) return str != nullptr ? 1 : -1;
    return num < o.num ? -1 : (num > o.num ? 1 : 0);
  }
};

struct KeyedRow {
  std::vector<KeyPart> key;
  const Row* row;
};

// Sorts `rows` by their keys, each built once; rows whose keys tie are
// ordered by their exact values.
std::vector<KeyedRow> SortByKey(const std::vector<Row>& rows) {
  std::vector<KeyedRow> keyed;
  keyed.reserve(rows.size());
  for (const Row& row : rows) {
    KeyedRow k{{}, &row};
    k.key.reserve(row.size());
    for (const Value& v : row) {
      KeyPart part;
      if (v.is_null()) {
        part.null = true;
      } else if (v.type() == DataType::kString) {
        part.str = &v.AsString();
      } else if (v.type() == DataType::kDouble) {
        part.num = std::nearbyint(v.AsDouble() * 1e3);
      } else {
        part.num = static_cast<double>(v.AsInt64()) * 1e3;
      }
      k.key.push_back(part);
    }
    keyed.push_back(std::move(k));
  }
  std::sort(keyed.begin(), keyed.end(),
            [](const KeyedRow& x, const KeyedRow& y) {
              for (size_t i = 0; i < x.key.size() && i < y.key.size(); ++i) {
                int c = x.key[i].Compare(y.key[i]);
                if (c != 0) return c < 0;
              }
              if (x.key.size() != y.key.size()) {
                return x.key.size() < y.key.size();
              }
              for (size_t i = 0; i < x.row->size(); ++i) {
                int c = (*x.row)[i].Compare((*y.row)[i]);
                if (c != 0) return c < 0;
              }
              return false;
            });
  return keyed;
}

void CountSpoolScans(const PhysicalNode& node, std::map<int, int>* scans) {
  if (node.kind == PhysOpKind::kSpoolScan) (*scans)[node.cse_id] += 1;
  for (const PhysicalNodePtr& c : node.children) {
    CountSpoolScans(*c, scans);
  }
}

}  // namespace

bool SameRowMultiset(const std::vector<Row>& a, const std::vector<Row>& b,
                     std::string* why) {
  if (a.size() != b.size()) {
    *why = StrFormat("row counts differ: %zu vs %zu", a.size(), b.size());
    return false;
  }
  std::vector<KeyedRow> sa = SortByKey(a);
  std::vector<KeyedRow> sb = SortByKey(b);
  for (size_t i = 0; i < sa.size(); ++i) {
    const Row& x = *sa[i].row;
    const Row& y = *sb[i].row;
    if (x.size() != y.size()) {
      *why = StrFormat("row %zu: arity %zu vs %zu", i, x.size(), y.size());
      return false;
    }
    for (size_t c = 0; c < x.size(); ++c) {
      if (!ValuesClose(x[c], y[c])) {
        *why = StrFormat("row %zu col %zu: '%s' vs '%s'", i, c,
                         RenderRow(x).c_str(), RenderRow(y).c_str());
        return false;
      }
    }
  }
  return true;
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
  // Bind + plan once per planner and execute each plan once. Each plan gets
  // its own context; both must outlive plan execution.
  QueryContext naive_ctx(catalog_);
  auto naive_bound = sql::BindSql(sql, &naive_ctx);
  if (!naive_bound.ok()) return std::nullopt;  // front-end error: no diverge
  ExecutablePlan naive_plan = NaivePlanBatch(*naive_bound, &naive_ctx);

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

  QueryContext cse_ctx(catalog_);
  auto bound = sql::BindSql(sql, &cse_ctx);
  CHECK(bound.ok()) << "bind not deterministic: " << sql;
  CseQueryOptimizer cse_opt(&cse_ctx, options_.cse);
  CseMetrics metrics;
  ExecutablePlan cse_plan = cse_opt.Optimize(*bound, &metrics);
  std::string trace = metrics.trace.ExplainTrace();
  if (options_.check_plan_invariants) {
    std::string violation = PlanInvariantViolation(cse_plan);
    if (!violation.empty()) {
      return fail("plan-invariant", "cse: " + violation, trace);
    }
  }

  // naive/batch (merge and nested-loop joins only) is the reference. A
  // naive-only failure still reports the CSE run's decisions for context.
  const std::vector<StatementResult> naive_results =
      ExecutePlan(naive_plan, nullptr);
  const std::vector<StatementResult> cse_results =
      ExecutePlan(cse_plan, nullptr);
  for (const auto& [name, results] :
       {std::pair{"naive/batch", &naive_results},
        std::pair{"cse/batch", &cse_results}}) {
    if (results->size() != num_stmts) {
      return fail("error",
                  StrFormat("%s produced %zu statement results, expected %zu",
                            name, results->size(), num_stmts),
                  trace);
    }
  }
  for (size_t s = 0; s < num_stmts; ++s) {
    std::string why;
    if (!SameRowMultiset(naive_results[s].rows, cse_results[s].rows, &why)) {
      return fail("result-mismatch",
                  StrFormat("statement %zu: naive/batch vs cse/batch: %s", s,
                            why.c_str()),
                  trace);
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
