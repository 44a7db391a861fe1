// End-to-end optimization with exploitation of similar subexpressions —
// the paper's Figure 1 pipeline:
//
//   Step 1  normal optimization; table signatures collected over the memo
//   Step 2  sharable-signature detection, join compatibility, candidate
//           construction (Algorithm 1 + Heuristics 1–3), containment
//           pruning (Heuristic 4)
//   Step 3  candidates materialized as views, substitutes injected,
//           stacked matches discovered (§5.5), and optimization resumed
//           once per enabled candidate set, pruned by Propositions 5.4–5.6
//           (§5.3) and searched per component of the candidate
//           interaction graph; the cheapest plan over all runs (including
//           the no-CSE plan) wins.
#ifndef SUBSHARE_CORE_CSE_OPTIMIZER_H_
#define SUBSHARE_CORE_CSE_OPTIMIZER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/candidate_gen.h"
#include "core/opt_trace.h"
#include "core/view_match.h"
#include "optimizer/optimizer.h"

namespace subshare {

namespace cache {
class ResultCache;
}  // namespace cache

// Step 3 has one search (EnumerateComponents): §5.3 subset re-optimization
// with Props 5.4–5.6 per component of the candidate interaction graph, the
// greedy loop on a component of more than 16 candidates. The enum keeps its
// one value because existing callers still assign it.
enum class EnumerationStrategy { kExhaustive };

struct CseOptimizerOptions {
  bool enable_cse = true;
  bool enable_heuristics = true;    // Heuristics 1–4
  double alpha = 0.10;              // Heuristic 1
  double beta = 0.90;               // Heuristic 4
  bool enable_stacked = true;       // §5.5
  bool enable_range_hull = true;    // §4.2 covering-predicate simplification
  // Skip the CSE phase entirely when the normal plan is cheaper than this
  // ("only if the query is expensive", §2.2). 0 = always try.
  double min_query_cost = 0;
  // Hard cap on CSE re-optimizations (enabled sets costed), one budget
  // shared by every interaction component. Candidates beyond Bitset64
  // capacity (64) are dropped lowest-net-benefit-first; there is no other
  // candidate cap.
  int max_optimizations = 512;
  // No reader: Step 3 has one search (see EnumerationStrategy).
  EnumerationStrategy strategy = EnumerationStrategy::kExhaustive;
  // Cross-batch result recycler (not owned; nullptr = disabled). When set,
  // candidates whose canonical key hits a valid cached spool are costed as
  // already-materialized: zero initial cost, C_R per read.
  cache::ResultCache* result_cache = nullptr;
  OptimizerOptions optimizer;
};

struct CseMetrics {
  int sharable_sets = 0;
  int candidates_generated = 0;       // before Heuristic 4 / capacity clamp
  int candidates_after_pruning = 0;   // reported as "# of CSEs"
  int cse_optimizations = 0;          // reported as "[CSE Opt]"
  int used_cses = 0;
  // Cross-batch recycling: candidates whose key hit the result cache at
  // registration, and how many of those made it into the chosen plan.
  int recyclable_candidates = 0;
  int results_recycled = 0;
  double normal_cost = 0;             // best plan cost without CSEs
  double final_cost = 0;
  double optimize_seconds = 0;
  // Step-2 time: signatures, sharable sets, join compatibility, Algorithm 1
  // with H1–H3, Heuristic 4 and the capacity clamp.
  double generate_seconds = 0;
  // Step-3 enabled-set search time only.
  double enumerate_seconds = 0;
  // (group, context) best-plan computations performed — the work measure
  // that the §5.4 optimization-history reuse keeps low across re-runs.
  int64_t plan_computations = 0;
  GenDiagnostics gen;
  std::vector<std::string> candidate_descriptions;
  std::vector<std::string> pruned_descriptions;  // "<desc> -- <reason>"
  // Full decision log (signature filtering, Algorithm-1 merges, heuristic
  // prunes, enumeration steps); render with trace.ExplainTrace().
  OptTrace trace;
};

// Connected components of the candidate interaction graph, as candidate-id
// masks ordered by lowest member. Candidates i and j interact when both are
// relevant at one statement root (`statement_relevant`, one mask per
// statement) or when one is relevant inside the other's evaluation tree
// (`eval_relevant[i]`: the relevant mask of candidate i's evaluation group —
// stacking, §5.5). Candidates in different components have additive
// benefits (DESIGN.md §12), so each component can be searched on its own.
std::vector<uint64_t> InteractionComponents(
    const std::vector<uint64_t>& statement_relevant,
    const std::vector<uint64_t>& eval_relevant);

class CseQueryOptimizer {
 public:
  CseQueryOptimizer(QueryContext* ctx, CseOptimizerOptions options = {});

  // Optimizes a bound batch. Never fails structurally: the normal plan is
  // always available as a fallback.
  ExecutablePlan Optimize(const std::vector<Statement>& statements,
                          CseMetrics* metrics = nullptr);

  Optimizer& optimizer() { return *optimizer_; }

 private:
  // True when LCA(a) and LCA(b) are creation-tree ancestor/descendant
  // (Definition 5.2: competing candidates).
  bool Competing(const CseCandidateInfo& a, const CseCandidateInfo& b) const;

  // Step 3: searches each interaction component on its own, then costs
  // the union of the per-component choices once; returns the best plan and
  // the enabled set that produced it.
  PhysicalNodePtr EnumerateComponents(GroupId root, int num_candidates,
                                      PhysicalNodePtr normal_plan,
                                      Bitset64* best_set, int* opts,
                                      OptTrace& trace);
  // §5.3 subset enumeration with Props 5.4–5.6 over the subsets of
  // `component` (at most 16 candidates; the rest disabled); sets *best_set
  // to the used set of the cheapest plan if it beats `normal_plan`.
  void EnumerateSubsets(GroupId root, uint64_t component,
                        const PhysicalNodePtr& normal_plan,
                        Bitset64* best_set, int* opts, OptTrace& trace);
  // Volcano-MQO greedy (Roy et al.) over the candidates of a component
  // too large for the subset search: adds the candidate with the best
  // incremental benefit one round at a time; sets *best_set like
  // EnumerateSubsets.
  void EnumerateGreedy(GroupId root, uint64_t component,
                       const PhysicalNodePtr& normal_plan, Bitset64* best_set,
                       int* opts, OptTrace& trace);
  // Candidates actually spooled by enough consumers under `enabled_mask`
  // (recycled candidates need one reader, fresh ones two — §5.2).
  uint64_t UsedMask(const PhysicalNode& plan, uint64_t enabled_mask) const;

  QueryContext* ctx_;
  CseOptimizerOptions options_;
  std::unique_ptr<Optimizer> optimizer_;
};

}  // namespace subshare

#endif  // SUBSHARE_CORE_CSE_OPTIMIZER_H_
