// Candidate CSE generation (paper §4.2–§4.3).
//
// For every join-compatible set of same-signature consumers this module
// constructs covering subexpressions:
//   1. common equijoins from the intersected equivalence classes,
//   2. per-consumer predicates simplified against the join predicate,
//   3. a covering predicate: conjuncts common to all consumers are factored
//      out, single-column ranges are widened to their hull (which is how
//      the paper's E5 ends up with `c_nationkey > 0 and c_nationkey < 25`),
//      anything left ORed together,
//   4. a group-by whose columns are the union of the consumers' grouping
//      columns plus every column the compensation predicates need, with the
//      union of the consumers' aggregates,
//   5. output columns covering every consumer's requirements,
//   6. (the spool is added when the candidate is registered).
//
// Candidate selection follows Algorithm 1 (greedy merge by benefit Δ) with
// Heuristics 1 (skip cheap sets), 2 (exclude huge-result consumers) and 3
// (merge only when beneficial). Heuristic 4 (containment) runs across
// candidates in core/cse_optimizer.
//
// Algorithm 1 evaluates every merge attempt `current ∪ {j}` against an
// incremental covering state of `current` (DESIGN.md §12): an attempt that
// keeps the running classes, common conjuncts and hull columns touches only
// j's conjuncts, grouping columns and aggregates; one that changes them
// re-folds the members under the new frame. Either way the costs are
// exactly the from-scratch construction's (tests/alg1_reference_test.cpp
// holds that oracle).
#ifndef SUBSHARE_CORE_CANDIDATE_GEN_H_
#define SUBSHARE_CORE_CANDIDATE_GEN_H_

#include "core/join_compat.h"
#include "core/opt_trace.h"
#include "optimizer/cardinality.h"

namespace subshare {

// A constructed covering subexpression in canonical column space.
struct CseSpec {
  TableSignature signature;
  EquivalenceClasses eq;             // intersected equivalence classes
  std::vector<ExprPtr> conjuncts;    // join + common + hull (+ one OR)
  bool has_groupby = false;
  std::vector<ColId> group_cols;                      // canonical, sorted
  std::vector<std::pair<AggFn, ExprPtr>> aggs;        // canonical args
  std::vector<ColId> output_cols;    // canonical non-agg outputs, sorted
  std::vector<GroupId> consumers;    // consumer memo groups

  double est_rows = 0;
  double width_bytes = 0;
  double spool_write_cost = 0;  // C_W
  double spool_read_cost = 0;   // C_R
  std::string description;

  double bytes() const { return est_rows * width_bytes; }
};

struct CandidateGenOptions {
  bool heuristics = true;
  double alpha = 0.10;     // Heuristic 1 threshold
  double query_cost = 0;   // C_Q: cost of the best plan found so far
  // Widen single-column ranges to their hull instead of keeping the OR'd
  // covering predicate (§4.2 simplification; off = literal OR form).
  bool enable_range_hull = true;
};

struct GenDiagnostics {
  int sharable_sets = 0;
  int sets_pruned_h1 = 0;
  int consumers_pruned_h2 = 0;
  int merges_rejected_h3 = 0;
  // Times Algorithm 1 re-folded a candidate's members under another
  // covering frame (running classes, common conjuncts, hull columns); every
  // other merge attempt touched only the added consumer.
  int covering_refolds = 0;
  std::vector<std::string> notes;
};

class CandidateGenerator {
 public:
  CandidateGenerator(CseManager* manager, CardinalityEstimator* cards,
                     CandidateGenOptions options)
      : manager_(manager), cards_(cards), options_(options) {}

  // Full Step-2 detection pipeline over the current memo contents. When
  // `trace` is given, records signature sets, Algorithm-1 merge attempts
  // and heuristic prunes into the decision log.
  std::vector<CseSpec> GenerateAll(GenDiagnostics* diag = nullptr,
                                   OptTrace* trace = nullptr);

  // Covering construction for an explicit consumer subset (§4.2); exposed
  // for tests. `members` indexes into `consumers`.
  CseSpec BuildSpec(const std::vector<SpjgNormalForm>& consumers,
                    const std::vector<int>& members);

  // §4.3.3-style net benefit estimate over the consumers' normal-phase
  // lower bounds:  Σ_i C_i^lower − (max_i C_i^lower + C_W + N·C_R).
  // Ranks candidates for the Bitset64 capacity clamp (core/cse_optimizer).
  double NetBenefit(const CseSpec& spec) const;

 private:
  // Covering state of a consumer subset (defined in candidate_gen.cc).
  class Covering;

  // Algorithm 1 over one join-compatible set.
  void GenerateForCompatibleSet(const std::vector<SpjgNormalForm>& consumers,
                                const CompatibleGroup& set,
                                std::vector<CseSpec>* out,
                                GenDiagnostics* diag, OptTrace* trace);
  double ConsumerLowerBound(GroupId g) const;
  double ConsumerUpperBound(GroupId g) const;
  // Total cost of serving all of `spec`'s consumers through the spool.
  double SharedCost(const CseSpec& spec) const;

  CseManager* manager_;
  CardinalityEstimator* cards_;
  CandidateGenOptions options_;
};

}  // namespace subshare

#endif  // SUBSHARE_CORE_CANDIDATE_GEN_H_
