// Differential query checker: executes a SQL batch under two
// configurations —
//
//     the naive reference plan (sort-merge and nested-loop joins only, so it
//     shares no hash-table code with the plans it judges), and the CSE plan
//
// — and cross-checks that every statement produces the same result multiset
// (the repo's central correctness property: CSE sharing must be invisible in
// results). The CSE plan is additionally checked against the §5.2
// cost/spool invariants: every materialized candidate is read by at least
// two spool scans, its initial cost C_E + C_W is charged exactly once (one
// finalization at the LCA), and stacked CSEs appear in dependency order.
//
// When a generated batch diverges, CheckBatch() greedily shrinks the
// BatchSpec (testing/query_gen.h) to a minimal reproducer before reporting,
// and attaches the CSE optimizer's decision log (OptTrace::ExplainTrace).
#ifndef SUBSHARE_TESTING_DIFFERENTIAL_H_
#define SUBSHARE_TESTING_DIFFERENTIAL_H_

#include <optional>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "core/cse_optimizer.h"
#include "testing/query_gen.h"

namespace subshare::testing {

struct DiffOptions {
  CseOptimizerOptions cse;           // options for the CSE configuration
  bool check_plan_invariants = true;
  int max_shrink_steps = 64;         // accepted reductions before giving up
};

// Order-insensitive comparison of two result multisets (one statement's
// rows), shared by every differential checker. Both sides are sorted on a
// key built once per row — doubles rounded to 1e-3 so near-equal values
// still pair up, ties broken by the exact values — and the i-th rows must
// match value by value: doubles within relative 1e-6, every other value
// exactly. On a mismatch *why names the first differing pair.
bool SameRowMultiset(const std::vector<Row>& a, const std::vector<Row>& b,
                     std::string* why);

// A confirmed disagreement between configurations (or a violated plan
// invariant), with a minimized reproducer.
struct Divergence {
  std::string sql;           // minimized reproducer
  std::string original_sql;  // the batch that first failed
  std::string kind;          // "result-mismatch" | "plan-invariant" | "error"
  std::string detail;        // which configs and the first differing rows
  std::string trace;         // ExplainTrace() of the CSE run on `sql`

  std::string ToString() const;
};

// §5.2 cost/spool invariant check over a CSE-optimized plan; returns a
// description of the first violation, or "" when the plan is well-formed:
//   - every materialized candidate is consumed by >= 2 spool scans,
//   - the initial cost C_E + C_W is charged exactly once, at a node in the
//     statement forest (the LCA), never inside an evaluation plan,
//   - stacked CSEs read only earlier-materialized spools.
std::string PlanInvariantViolation(const ExecutablePlan& plan);

class DifferentialTester {
 public:
  explicit DifferentialTester(Catalog* catalog, DiffOptions options = {});

  // Cross-checks one SQL batch. std::nullopt means all configurations
  // agree (or the batch fails to bind — a bind error cannot diverge since
  // all configurations share the front end).
  std::optional<Divergence> Check(const std::string& sql);

  // Check() plus greedy structural shrinking of the failing BatchSpec.
  std::optional<Divergence> CheckBatch(const BatchSpec& batch);

  int64_t statements_checked() const { return statements_checked_; }
  int64_t batches_checked() const { return batches_checked_; }

 private:
  Catalog* catalog_;
  DiffOptions options_;
  int64_t statements_checked_ = 0;
  int64_t batches_checked_ = 0;
};

}  // namespace subshare::testing

#endif  // SUBSHARE_TESTING_DIFFERENTIAL_H_
