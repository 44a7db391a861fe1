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
#include <optional>
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

// How Step 3 searches the space of enabled candidate sets. All strategies
// produce result-identical plans (the central correctness property and the
// §5.2 spool-charge invariants hold regardless); only the chosen CSE set —
// and hence plan cost and optimization time — may differ.
enum class EnumerationStrategy {
  // §5.3 subset re-optimization with Props 5.4–5.6 (the paper; default),
  // run separately on each connected component of the candidate
  // interaction graph (see InteractionComponents): a component of at most
  // 16 candidates gets the full subset search, a larger one the greedy loop
  // below. Optimal whenever every component is small, and
  // exponential only in the size of the largest such component.
  kExhaustive,
  // Volcano-MQO-style greedy (Roy et al.): add the candidate with the best
  // incremental benefit one at a time, fully re-costing the remaining
  // candidates each round; the per-(group, enabled ∩ relevant) best-plan
  // memo means each re-cost touches only the groups the new candidate
  // affects. O(N²) optimizations.
  kGreedy,
  // Kathuria–Sudarshan-style greedy over the benefit lattice: like greedy,
  // but candidate benefits are kept as lazy upper bounds (benefits shrink
  // as the set grows), so a popped candidate whose refreshed benefit still
  // dominates the queue is accepted without re-costing anyone else, and a
  // candidate whose refreshed benefit drops to zero is pruned for good.
  // Typically O(N log N) optimizations.
  kApproximate,
};

// "exhaustive" / "greedy" / "approximate".
const char* EnumerationStrategyName(EnumerationStrategy strategy);
std::optional<EnumerationStrategy> ParseEnumerationStrategy(
    const std::string& name);
// Process-wide default: SUBSHARE_ENUM_STRATEGY when set to a valid name
// (read once), else kExhaustive. Lets CI run the whole suite under another
// strategy; tests that assert §5.3-specific behavior must pin kExhaustive.
EnumerationStrategy DefaultEnumerationStrategy();

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
  // Enabled-set search strategy (Step 3).
  EnumerationStrategy strategy = DefaultEnumerationStrategy();
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
  // with H1–H3, Heuristic 4 and the capacity clamp. Strategy-invariant.
  double generate_seconds = 0;
  // Step-3 enabled-set search time only (the part the EnumerationStrategy
  // knob changes).
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

  // Enabled-set search, dispatched on options_.strategy; returns the best
  // plan and the enabled set that produced it.
  PhysicalNodePtr Enumerate(GroupId root, int num_candidates,
                            PhysicalNodePtr normal_plan, Bitset64* best_set,
                            CseMetrics* metrics);
  // kExhaustive: searches each interaction component on its own, then
  // costs the union of the per-component choices once.
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
  // kGreedy (lazy=false) and kApproximate (lazy=true) share the incremental
  // add-one-candidate loop over the candidates in `pool`; lazy mode adds
  // the stale-bound pruning.
  PhysicalNodePtr EnumerateGreedy(GroupId root, uint64_t pool,
                                  PhysicalNodePtr normal_plan,
                                  Bitset64* best_set, int* opts,
                                  OptTrace& trace, bool lazy);
  // Candidates actually spooled by enough consumers under `enabled_mask`
  // (recycled candidates need one reader, fresh ones two — §5.2).
  uint64_t UsedMask(const PhysicalNode& plan, uint64_t enabled_mask) const;

  QueryContext* ctx_;
  CseOptimizerOptions options_;
  std::unique_ptr<Optimizer> optimizer_;
};

}  // namespace subshare

#endif  // SUBSHARE_CORE_CSE_OPTIMIZER_H_
