#include "core/cse_optimizer.h"

#include <algorithm>
#include <optional>

#include "cache/result_cache.h"
#include "core/cse_key.h"
#include "optimizer/cost_model.h"
#include "util/bitset64.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace subshare {

namespace {

// True if `maybe_desc`'s creation chain passes through `ancestor`.
bool IsCreationDescendant(const Memo& memo, GroupId maybe_desc,
                          GroupId ancestor) {
  for (GroupId g : memo.AncestorChain(maybe_desc)) {
    if (g == ancestor) return true;
  }
  return false;
}

// True if every table of `c` is a table of `p` (sorted, distinct).
bool TablesIncluded(const std::vector<TableId>& c,
                    const std::vector<TableId>& p) {
  return std::includes(p.begin(), p.end(), c.begin(), c.end());
}

std::vector<TableId> SortedTables(const CseSpec& spec) {
  std::set<TableId> tables(spec.signature.tables.begin(),
                           spec.signature.tables.end());
  return std::vector<TableId>(tables.begin(), tables.end());
}

// Step 3 costs every subset of a component of at most this many candidates
// (pruned by Props 5.4–5.6); a larger component gets the greedy loop.
constexpr int kFullSubsetBits = 16;

}  // namespace

std::vector<uint64_t> InteractionComponents(
    const std::vector<uint64_t>& statement_relevant,
    const std::vector<uint64_t>& eval_relevant) {
  const int n = static_cast<int>(eval_relevant.size());
  std::vector<int> parent(n);
  for (int i = 0; i < n; ++i) parent[i] = i;
  auto find = [&](int i) {
    while (parent[i] != i) i = parent[i] = parent[parent[i]];
    return i;
  };
  // Every candidate in `mask` joins the component of `anchor`.
  auto link = [&](int anchor, uint64_t mask) {
    for (; mask != 0; mask &= mask - 1) {
      int a = find(anchor);
      int b = find(__builtin_ctzll(mask));
      if (a != b) parent[std::max(a, b)] = std::min(a, b);
    }
  };
  for (uint64_t mask : statement_relevant) {
    if (mask != 0) link(__builtin_ctzll(mask), mask);
  }
  for (int i = 0; i < n; ++i) link(i, eval_relevant[i]);
  std::vector<uint64_t> by_root(n, 0);
  for (int i = 0; i < n; ++i) by_root[find(i)] |= 1ULL << i;
  std::vector<uint64_t> components;
  for (uint64_t mask : by_root) {
    if (mask != 0) components.push_back(mask);
  }
  return components;
}

CseQueryOptimizer::CseQueryOptimizer(QueryContext* ctx,
                                     CseOptimizerOptions options)
    : ctx_(ctx),
      options_(options),
      optimizer_(std::make_unique<Optimizer>(ctx, options.optimizer)) {}

bool CseQueryOptimizer::Competing(const CseCandidateInfo& a,
                                  const CseCandidateInfo& b) const {
  const Memo& memo = optimizer_->memo();
  return a.lca_group == b.lca_group ||
         IsCreationDescendant(memo, a.lca_group, b.lca_group) ||
         IsCreationDescendant(memo, b.lca_group, a.lca_group);
}

uint64_t CseQueryOptimizer::UsedMask(const PhysicalNode& plan,
                                     uint64_t enabled_mask) const {
  uint64_t used = 0;
  for (const auto& [id, count] : plan.cse_uses) {
    // Recycled candidates pay no initial cost, so even a single reader
    // keeps them in the used set (§5.2 discard does not apply).
    int min_uses = optimizer_->candidates()[id].recycled ? 1 : 2;
    if (count >= min_uses && (enabled_mask >> id & 1)) used |= (1ULL << id);
  }
  return used;
}

// Components are searched in order of their worst-case number of costed
// sets (2^n - 1 subsets, or n(n+1)/2 greedy trials), so when the shared
// max_optimizations budget runs out it truncates only the most expensive
// search. Each component starts from the normal plan with every other
// candidate disabled; benefits of different components add (DESIGN.md
// §12), so the union of the per-component choices is the best set the
// per-component searches can name, and it is costed once.
PhysicalNodePtr CseQueryOptimizer::EnumerateComponents(
    GroupId root, int n, PhysicalNodePtr normal_plan, Bitset64* best_set,
    int* opts, OptTrace& trace) {
  const Memo& memo = optimizer_->memo();
  std::vector<uint64_t> statement_relevant;
  for (GroupId s : optimizer_->statement_roots()) {
    statement_relevant.push_back(memo.group(s).relevant_cses.Raw());
  }
  std::vector<uint64_t> eval_relevant;
  for (int i = 0; i < n; ++i) {
    eval_relevant.push_back(
        memo.group(optimizer_->candidate(i).eval_group).relevant_cses.Raw());
  }
  std::vector<uint64_t> components =
      InteractionComponents(statement_relevant, eval_relevant);
  auto worst_case_sets = [](uint64_t component) {
    const int k = __builtin_popcountll(component);
    return k <= kFullSubsetBits ? (1 << k) - 1 : k * (k + 1) / 2;
  };
  std::stable_sort(components.begin(), components.end(),
                   [&](uint64_t a, uint64_t b) {
                     return worst_case_sets(a) < worst_case_sets(b);
                   });

  uint64_t chosen = 0;
  for (uint64_t component : components) {
    const bool subsets = __builtin_popcountll(component) <= kFullSubsetBits;
    const int before = *opts;
    Bitset64 component_best;
    if (subsets) {
      EnumerateSubsets(root, component, normal_plan, &component_best, opts,
                       trace);
    } else {
      EnumerateGreedy(root, component, normal_plan, &component_best, opts,
                      trace);
    }
    trace.components.push_back({component, subsets ? "exhaustive" : "greedy",
                                *opts - before, component_best.Raw()});
    chosen |= component_best.Raw();
  }

  *best_set = Bitset64();
  if (chosen == 0) return normal_plan;
  PhysicalNodePtr combined = optimizer_->BestPlan(root, Bitset64(chosen));
  if (combined == nullptr || combined->est_cost >= normal_plan->est_cost) {
    return normal_plan;
  }
  *best_set = Bitset64(chosen);
  return combined;
}

// Greedy grows the enabled set one candidate per round, always keeping the
// cheapest plan seen: every round re-costs all remaining candidates and
// admits the one with the largest positive incremental benefit. Cost is
// monotone non-increasing in the enabled set (enabling a candidate only adds
// plan alternatives), so the final cost never exceeds the normal
// (no-sharing) cost.
void CseQueryOptimizer::EnumerateGreedy(GroupId root, uint64_t component,
                                        const PhysicalNodePtr& normal_plan,
                                        Bitset64* best_set, int* opts,
                                        OptTrace& trace) {
  PhysicalNodePtr best = normal_plan;
  uint64_t current = 0;
  uint64_t current_used = 0;
  std::vector<int> remaining;
  for (uint64_t rest = component; rest != 0; rest &= rest - 1) {
    remaining.push_back(__builtin_ctzll(rest));
  }
  bool capped = false;
  for (int round = 1; !remaining.empty() && !capped; ++round) {
    double best_delta = 0;
    int pick = -1;
    size_t pick_pos = 0;
    size_t pick_step = 0;
    PhysicalNodePtr pick_plan;
    uint64_t pick_used = 0;
    for (size_t pos = 0; pos < remaining.size(); ++pos) {
      if (*opts >= options_.max_optimizations) {
        trace.enumeration_capped = true;
        capped = true;
        break;
      }
      ++*opts;
      const int c = remaining[pos];
      const uint64_t s = current | (1ULL << c);
      PhysicalNodePtr plan = optimizer_->BestPlan(root, Bitset64(s));
      std::string note = StrFormat("greedy round %d: +#%d", round, c);
      if (plan == nullptr) {
        trace.enumeration.push_back({s, -1, 0, false, std::move(note)});
        continue;
      }
      const uint64_t used = UsedMask(*plan, s);
      const double delta = best->est_cost - plan->est_cost;
      trace.enumeration.push_back(
          {s, plan->est_cost, used, false,
           note + StrFormat(" (benefit %.2f)", delta)});
      if (delta > best_delta) {
        best_delta = delta;
        pick = c;
        pick_pos = pos;
        pick_step = trace.enumeration.size() - 1;
        pick_plan = std::move(plan);
        pick_used = used;
      }
    }
    if (pick < 0) break;
    current |= 1ULL << pick;
    best = std::move(pick_plan);
    current_used = pick_used;
    OptTrace::EnumStep& step = trace.enumeration[pick_step];
    step.improved = true;
    step.note += "  [accepted]";
    remaining.erase(remaining.begin() + pick_pos);
  }
  *best_set = Bitset64(current_used != 0 ? current_used : current);
}

void CseQueryOptimizer::EnumerateSubsets(GroupId root, uint64_t component,
                                         const PhysicalNodePtr& normal_plan,
                                         Bitset64* best_set, int* opts,
                                         OptTrace& trace) {
  double best_cost = normal_plan->est_cost;
  *best_set = Bitset64();

  // Competing members per member (Definition 5.2); T(S) below is the part
  // of S independent of every other member of S.
  std::vector<uint64_t> competing(Bitset64::kMaxBits, 0);
  for (uint64_t a = component; a != 0; a &= a - 1) {
    const int i = __builtin_ctzll(a);
    for (uint64_t b = a & (a - 1); b != 0; b &= b - 1) {
      const int j = __builtin_ctzll(b);
      if (Competing(optimizer_->candidate(i), optimizer_->candidate(j))) {
        competing[i] |= 1ULL << j;
        competing[j] |= 1ULL << i;
      }
    }
  }
  auto fully_independent_part = [&](uint64_t s) {
    uint64_t t = 0;
    for (uint64_t rest = s; rest != 0; rest &= rest - 1) {
      const int i = __builtin_ctzll(rest);
      if ((competing[i] & s) == 0) t |= 1ULL << i;
    }
    return t;
  };

  // All non-empty subsets of the component in descending size order
  // (§5.3), except that singletons are promoted to run right after the full
  // set: when the optimization cap truncates the enumeration, the cheap
  // single-candidate plans (the common winners) are still examined.
  std::vector<uint64_t> subsets;
  for (uint64_t s = component; s != 0; s = (s - 1) & component) {
    subsets.push_back(s);
  }
  std::reverse(subsets.begin(), subsets.end());
  std::stable_sort(subsets.begin(), subsets.end(),
                   [component](uint64_t a, uint64_t b) {
                     auto rank = [component](uint64_t s) {
                       if (s == component) return 1 << 20;
                       int pop = __builtin_popcountll(s);
                       if (pop == 1) return 1 << 19;  // promoted singletons
                       return pop;
                     };
                     return rank(a) > rank(b);
                   });

  std::set<uint64_t> processed;
  auto apply_props = [&](uint64_t s, uint64_t used) {
    // Prop 5.6: the plan returned under S is also optimal under `used`.
    if (processed.insert(used).second && used != s) ++trace.skipped_prop56;
    // Props 5.4/5.5 for both S and used: any proper subset made only of
    // the fully independent part can be skipped.
    for (uint64_t base : {s, used}) {
      uint64_t t = fully_independent_part(base);
      if (t == 0) continue;
      if (t == base) {
        // Prop 5.4: all members independent -> every subset is redundant.
        for (uint64_t sub = (base - 1) & base; sub != 0;
             sub = (sub - 1) & base) {
          if (processed.insert(sub).second) ++trace.skipped_prop54;
        }
      } else {
        // Prop 5.5: proper subsets of the independent part T.
        for (uint64_t sub = (t - 1) & t; sub != 0; sub = (sub - 1) & t) {
          if (processed.insert(sub).second) ++trace.skipped_prop55;
        }
      }
    }
  };

  for (uint64_t s : subsets) {
    if (processed.count(s) > 0) continue;
    if (*opts >= options_.max_optimizations) {
      trace.enumeration_capped = true;
      break;
    }
    ++*opts;
    processed.insert(s);
    PhysicalNodePtr plan = optimizer_->BestPlan(root, Bitset64(s));
    if (plan == nullptr) {
      trace.enumeration.push_back({s, -1, 0, false, ""});
      continue;
    }
    uint64_t used = UsedMask(*plan, s);
    apply_props(s, used);
    bool improved = plan->est_cost < best_cost;
    trace.enumeration.push_back({s, plan->est_cost, used, improved, ""});
    if (improved) {
      best_cost = plan->est_cost;
      *best_set = Bitset64(used != 0 ? used : s);
    }
  }
}

ExecutablePlan CseQueryOptimizer::Optimize(
    const std::vector<Statement>& statements, CseMetrics* metrics) {
  WallTimer timer;
  CseMetrics local;
  CseMetrics* m = metrics != nullptr ? metrics : &local;

  // --- Step 1: normal optimization (signatures are derivable from the
  // memo at any time; the CSE manager computes them in Step 2). ---
  GroupId root = optimizer_->BuildAndExplore(statements);
  PhysicalNodePtr normal_plan = optimizer_->BestPlan(root, Bitset64());
  CHECK(normal_plan != nullptr) << "no feasible plan";
  m->normal_cost = normal_plan->est_cost;
  m->trace.normal_cost = m->normal_cost;

  auto finish = [&](PhysicalNodePtr plan, Bitset64 enabled) {
    ExecutablePlan exec = optimizer_->Assemble(std::move(plan), enabled);
    m->final_cost = exec.est_cost;
    m->used_cses = static_cast<int>(exec.cse_plans.size());
    for (const auto& cp : exec.cse_plans) {
      if (cp.recycled) ++m->results_recycled;
    }
    m->optimize_seconds = timer.ElapsedSeconds();
    m->plan_computations = optimizer_->plan_computations();
    m->trace.chosen_set = enabled.Raw();
    m->trace.final_cost = exec.est_cost;
    return exec;
  };

  if (!options_.enable_cse || m->normal_cost < options_.min_query_cost) {
    return finish(normal_plan, Bitset64());
  }

  // --- Step 2: detection + candidate generation. ---
  WallTimer generate_timer;
  CseManager manager(&optimizer_->memo(), ctx_);
  manager.CollectSignatures();
  CandidateGenOptions gen_options;
  gen_options.heuristics = options_.enable_heuristics;
  gen_options.alpha = options_.alpha;
  gen_options.query_cost = m->normal_cost;
  gen_options.enable_range_hull = options_.enable_range_hull;
  CandidateGenerator generator(&manager, &optimizer_->cards(), gen_options);
  std::vector<CseSpec> specs = generator.GenerateAll(&m->gen, &m->trace);
  m->sharable_sets = m->gen.sharable_sets;
  m->candidates_generated = static_cast<int>(specs.size());
  if (specs.empty()) {
    m->generate_seconds = generate_timer.ElapsedSeconds();
    return finish(normal_plan, Bitset64());
  }

  // Heuristic 4 (Definition 4.2): drop a candidate c contained in another
  // candidate p — tables(c) ⊆ tables(p) and every consumer of c descends
  // from a consumer of p — whose result is (nearly) no smaller. Each p's
  // consumer descendants are collected once, on first use.
  if (options_.enable_heuristics) {
    std::vector<std::vector<TableId>> tables;
    for (const CseSpec& spec : specs) tables.push_back(SortedTables(spec));
    std::vector<std::vector<bool>> below(specs.size());
    auto contained = [&](size_t c, size_t p) {
      if (!TablesIncluded(tables[c], tables[p])) return false;
      if (below[p].empty()) {
        below[p] = DescendantGroups(optimizer_->memo(), specs[p].consumers);
      }
      for (GroupId gc : specs[c].consumers) {
        if (!below[p][gc]) return false;
      }
      return true;
    };
    std::vector<bool> dead(specs.size(), false);
    for (size_t c = 0; c < specs.size(); ++c) {
      for (size_t p = 0; p < specs.size(); ++p) {
        if (c == p || dead[p]) continue;
        if (contained(c, p) &&
            specs[c].bytes() > options_.beta * specs[p].bytes()) {
          dead[c] = true;
          m->pruned_descriptions.push_back(
              specs[c].description + " -- pruned by Heuristic 4 (contained)");
          m->trace.prunes.push_back(
              {specs[c].description, "H4",
               "contained in " + specs[p].description});
          break;
        }
      }
    }
    std::vector<CseSpec> kept;
    for (size_t i = 0; i < specs.size(); ++i) {
      if (!dead[i]) kept.push_back(std::move(specs[i]));
    }
    specs = std::move(kept);
  }

  // Capacity clamp: candidate ids become bit positions in the enabled-set
  // masks, so at most Bitset64::kMaxBits candidates survive (id >= 64 would
  // shift out of the mask). Past that, the lowest §4.3.3-style net benefit
  // estimates
  //   Σ_i C_i^lower  -  (max_i C_i^lower + C_W + N * C_R)
  // are dropped and counted in candidates_dropped, so an oversized batch is
  // visible in the trace instead of silently truncated.
  if (static_cast<int>(specs.size()) > Bitset64::kMaxBits) {
    std::stable_sort(specs.begin(), specs.end(),
                     [&](const CseSpec& a, const CseSpec& b) {
                       return generator.NetBenefit(a) >
                              generator.NetBenefit(b);
                     });
    m->trace.candidates_dropped +=
        static_cast<int64_t>(specs.size()) - Bitset64::kMaxBits;
    for (size_t i = Bitset64::kMaxBits; i < specs.size(); ++i) {
      m->pruned_descriptions.push_back(
          specs[i].description + " -- dropped beyond Bitset64 capacity");
      m->trace.prunes.push_back({specs[i].description, "capacity",
                                 "beyond Bitset64 capacity (64 candidates)"});
    }
    specs.resize(Bitset64::kMaxBits);
  }
  m->candidates_after_pruning = static_cast<int>(specs.size());
  m->generate_seconds = generate_timer.ElapsedSeconds();
  if (specs.empty()) return finish(normal_plan, Bitset64());

  // --- Step 3: materialize candidates, match consumers, inject, optimize.
  CseMaterializer materializer(&optimizer_->memo(), ctx_);
  std::vector<CseArtifacts> artifacts;
  std::vector<GroupId> eval_roots;
  for (size_t i = 0; i < specs.size(); ++i) {
    artifacts.push_back(materializer.Materialize(specs[i],
                                                 static_cast<int>(i)));
    eval_roots.push_back(artifacts.back().eval_root);
    m->candidate_descriptions.push_back(specs[i].description);
    m->trace.candidates.push_back({static_cast<int>(i), specs[i].description,
                                   static_cast<int>(specs[i].consumers.size())});
  }
  // Explore the evaluation expressions (this also creates the partial
  // aggregates / sub-joins inside them that stacked matching inspects).
  optimizer_->ReexploreWithRoots(eval_roots);

  // Stacked CSEs (§5.5): groups inside a wider candidate's evaluation tree
  // may consume a strictly narrower candidate.
  manager.CollectSignatures();
  if (options_.enable_stacked) {
    std::vector<std::vector<TableId>> tables;
    for (const CseSpec& spec : specs) tables.push_back(SortedTables(spec));
    for (size_t j = 0; j < specs.size(); ++j) {
      std::vector<GroupId> same_signature;
      for (GroupId g = 0; g < optimizer_->memo().num_groups(); ++g) {
        if (manager.signature(g) == specs[j].signature) {
          same_signature.push_back(g);
        }
      }
      for (size_t i = 0; i < specs.size(); ++i) {
        if (i == j || tables[j].size() >= tables[i].size() ||
            !TablesIncluded(tables[j], tables[i])) {
          continue;
        }
        // Groups created under candidate i's evaluation tree.
        for (GroupId g : same_signature) {
          if (!IsCreationDescendant(optimizer_->memo(), g,
                                    artifacts[i].eval_root)) {
            continue;
          }
          if (std::find(specs[j].consumers.begin(), specs[j].consumers.end(),
                        g) != specs[j].consumers.end()) {
            continue;
          }
          std::optional<SpjgNormalForm> nf = manager.Normalize(g);
          if (!nf.has_value()) continue;
          if (materializer.MatchConsumer(specs[j], artifacts[j], *nf)
                  .has_value()) {
            specs[j].consumers.push_back(g);
          }
        }
      }
    }
  }

  // Inject substitutes for every consumer of every candidate.
  for (size_t i = 0; i < specs.size(); ++i) {
    std::vector<GroupId> matched;
    for (GroupId g : specs[i].consumers) {
      std::optional<SpjgNormalForm> nf = manager.Normalize(g);
      if (!nf.has_value()) continue;
      std::optional<SubstituteSpec> sub =
          materializer.MatchConsumer(specs[i], artifacts[i], *nf);
      if (!sub.has_value()) continue;
      materializer.Inject(*sub, artifacts[i], g);
      matched.push_back(g);
    }
    specs[i].consumers = std::move(matched);
  }

  // Required columns changed (substitute payloads); recompute, then masks.
  optimizer_->ReexploreWithRoots(eval_roots);

  // Register candidates with the costing engine.
  for (size_t i = 0; i < specs.size(); ++i) {
    CseCandidateInfo info;
    info.eval_group = artifacts[i].eval_root;
    info.spool_group = artifacts[i].cseref_group;
    info.consumer_groups = specs[i].consumers;
    info.lca_group = optimizer_->memo().LowestCommonAncestor(
        specs[i].consumers, root);
    double rows =
        optimizer_->cards().GroupCardinality(artifacts[i].eval_root);
    info.est_rows = rows;
    double width = artifacts[i].spool_schema.RowWidthBytes();
    info.spool_write_cost = CostModel::SpoolWriteCost(rows, width);
    info.spool_read_cost = CostModel::SpoolReadCost(rows, width);
    info.spool_schema = artifacts[i].spool_schema;
    info.output_cols = artifacts[i].spool_cols;

    // Cross-batch recycling: probe the result cache with the candidate's
    // canonical key. A valid hit makes the candidate free to "materialize"
    // (the executor will load the cached spool), so costing charges C_R
    // only. The key is attached regardless so the executor can admit a
    // freshly evaluated spool after execution.
    std::optional<CseCacheKey> key =
        BuildCseCacheKey(specs[i], artifacts[i], *ctx_);
    if (key.has_value()) {
      info.cache_key = key->key;
      info.dep_tables = key->dep_tables;
      if (options_.result_cache != nullptr) {
        bool hit = options_.result_cache->Lookup(info.cache_key,
                                                 /*count_stats=*/false) !=
                   nullptr;
        if (hit) {
          info.recycled = true;
          ++m->recyclable_candidates;
        }
        m->trace.cache_events.push_back(
            StrFormat("cse %d: recycler %s  %s", static_cast<int>(i),
                      hit ? "hit" : "miss", info.cache_key.c_str()));
      }
    }
    optimizer_->memo().group(artifacts[i].cseref_group).cardinality = rows;
    int id = optimizer_->RegisterCandidate(std::move(info));
    CHECK(id == static_cast<int>(i));
  }
  optimizer_->ComputeRelevantMasks();

  // Re-derive the normal plan under the rebuilt cache (same cost) and run
  // the enabled-set enumeration.
  normal_plan = optimizer_->BestPlan(root, Bitset64());
  CHECK(normal_plan != nullptr);
  Bitset64 best_set;
  WallTimer enum_timer;
  int opts = 0;
  PhysicalNodePtr best =
      EnumerateComponents(root, static_cast<int>(specs.size()), normal_plan,
                          &best_set, &opts, m->trace);
  m->cse_optimizations = opts;
  m->enumerate_seconds = enum_timer.ElapsedSeconds();
  return finish(best, best_set);
}

}  // namespace subshare
