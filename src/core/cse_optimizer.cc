#include "core/cse_optimizer.h"

#include <algorithm>
#include <queue>

#include "cache/result_cache.h"
#include "core/cse_key.h"
#include "optimizer/cost_model.h"
#include "util/bitset64.h"
#include "util/env_config.h"
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

// Heuristic 4 containment (Definition 4.2): tables(c) ⊆ tables(p) and each
// consumer of c descends from a consumer of p.
bool Contained(const Memo& memo, const CseSpec& c, const CseSpec& p) {
  std::set<TableId> tc(c.signature.tables.begin(), c.signature.tables.end());
  std::set<TableId> tp(p.signature.tables.begin(), p.signature.tables.end());
  if (!std::includes(tp.begin(), tp.end(), tc.begin(), tc.end())) {
    return false;
  }
  for (GroupId gc : c.consumers) {
    bool covered = false;
    for (GroupId gp : p.consumers) {
      if (IsDescendantGroup(memo, gc, gp)) {
        covered = true;
        break;
      }
    }
    if (!covered) return false;
  }
  return true;
}

}  // namespace

const char* EnumerationStrategyName(EnumerationStrategy strategy) {
  switch (strategy) {
    case EnumerationStrategy::kExhaustive:
      return "exhaustive";
    case EnumerationStrategy::kGreedy:
      return "greedy";
    case EnumerationStrategy::kApproximate:
      return "approximate";
  }
  return "exhaustive";
}

std::optional<EnumerationStrategy> ParseEnumerationStrategy(
    const std::string& name) {
  if (name == "exhaustive") return EnumerationStrategy::kExhaustive;
  if (name == "greedy") return EnumerationStrategy::kGreedy;
  if (name == "approximate") return EnumerationStrategy::kApproximate;
  return std::nullopt;
}

EnumerationStrategy DefaultEnumerationStrategy() {
  // Snapshotted once per process (util/env_config) — safe under concurrent
  // sessions. Per-session overrides go through
  // CseOptimizerOptions::strategy, not the environment.
  if (auto parsed = ParseEnumerationStrategy(ProcessEnv().enum_strategy);
      parsed.has_value()) {
    return *parsed;
  }
  return EnumerationStrategy::kExhaustive;
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

PhysicalNodePtr CseQueryOptimizer::Enumerate(GroupId root, int n,
                                             PhysicalNodePtr normal_plan,
                                             Bitset64* best_set,
                                             CseMetrics* metrics) {
  switch (options_.strategy) {
    case EnumerationStrategy::kExhaustive:
      return EnumerateExhaustive(root, n, std::move(normal_plan), best_set,
                                 metrics);
    case EnumerationStrategy::kGreedy:
      return EnumerateGreedy(root, n, std::move(normal_plan), best_set,
                             metrics, /*lazy=*/false);
    case EnumerationStrategy::kApproximate:
      return EnumerateGreedy(root, n, std::move(normal_plan), best_set,
                             metrics, /*lazy=*/true);
  }
  return normal_plan;
}

// The greedy strategies grow the enabled set one candidate per round,
// always keeping the cheapest plan seen. Cost is monotone non-increasing
// in the enabled set (enabling a candidate only adds plan alternatives),
// so the final cost never exceeds the normal (no-sharing) cost. In lazy
// mode each candidate carries an upper bound on its incremental benefit —
// the benefit measured the last time it was costed, which only shrinks as
// the set grows — and the queue's max is re-costed and accepted outright
// when its fresh benefit still dominates every other bound.
PhysicalNodePtr CseQueryOptimizer::EnumerateGreedy(GroupId root, int n,
                                                   PhysicalNodePtr normal_plan,
                                                   Bitset64* best_set,
                                                   CseMetrics* metrics,
                                                   bool lazy) {
  PhysicalNodePtr best = normal_plan;
  *best_set = Bitset64();
  OptTrace* trace = metrics != nullptr ? &metrics->trace : nullptr;
  uint64_t current = 0;
  uint64_t current_used = 0;
  int opts = 0;
  int round = 0;

  auto try_candidate = [&](int c, double* delta_out,
                           PhysicalNodePtr* plan_out,
                           uint64_t* used_out) -> bool {
    // Costs current ∪ {c}; false when the cap is hit (not when infeasible).
    if (opts >= options_.max_optimizations) {
      if (trace != nullptr) trace->enumeration_capped = true;
      return false;
    }
    ++opts;
    uint64_t s = current | (1ULL << c);
    PhysicalNodePtr plan = optimizer_->BestPlan(root, Bitset64(s));
    std::string note = StrFormat("%s round %d: +#%d",
                                 lazy ? "approximate" : "greedy", round, c);
    if (plan == nullptr) {
      if (trace != nullptr) {
        trace->enumeration.push_back({s, -1, 0, false, std::move(note)});
      }
      *delta_out = -1;
      *plan_out = nullptr;
      return true;
    }
    *used_out = UsedMask(*plan, s);
    *delta_out = best->est_cost - plan->est_cost;
    if (trace != nullptr) {
      trace->enumeration.push_back(
          {s, plan->est_cost, *used_out, false,
           note + StrFormat(" (benefit %.2f)", *delta_out)});
    }
    *plan_out = std::move(plan);
    return true;
  };
  auto accept = [&](int c, PhysicalNodePtr plan, uint64_t used,
                    size_t step_index) {
    current |= (1ULL << c);
    best = std::move(plan);
    current_used = used;
    if (trace != nullptr && step_index < trace->enumeration.size()) {
      OptTrace::EnumStep& step = trace->enumeration[step_index];
      step.improved = true;
      step.note += "  [accepted]";
    }
  };

  if (!lazy) {
    // Volcano-MQO greedy: every round re-costs all remaining candidates
    // and admits the one with the largest positive incremental benefit.
    std::vector<int> remaining(n);
    for (int i = 0; i < n; ++i) remaining[i] = i;
    bool capped = false;
    while (!remaining.empty() && !capped) {
      ++round;
      double best_delta = 0;
      int pick = -1;
      size_t pick_pos = 0;
      size_t pick_step = 0;
      PhysicalNodePtr pick_plan;
      uint64_t pick_used = 0;
      for (size_t pos = 0; pos < remaining.size(); ++pos) {
        double delta = 0;
        PhysicalNodePtr plan;
        uint64_t used = 0;
        if (!try_candidate(remaining[pos], &delta, &plan, &used)) {
          capped = true;
          break;
        }
        if (plan != nullptr && delta > best_delta) {
          best_delta = delta;
          pick = remaining[pos];
          pick_pos = pos;
          pick_step = trace != nullptr ? trace->enumeration.size() - 1 : 0;
          pick_plan = std::move(plan);
          pick_used = used;
        }
      }
      if (pick < 0) break;
      accept(pick, std::move(pick_plan), pick_used, pick_step);
      remaining.erase(remaining.begin() + pick_pos);
    }
  } else {
    // Kathuria–Sudarshan-style lazy greedy over the benefit lattice.
    // Seed every candidate's bound with its singleton benefit; candidates
    // whose refreshed benefit is non-positive are pruned permanently
    // (benefits only shrink as the set grows).
    using Entry = std::pair<double, int>;  // (stale benefit bound, id)
    std::priority_queue<Entry> queue;
    bool capped = false;
    for (int c = 0; c < n && !capped; ++c) {
      ++round;
      double delta = 0;
      PhysicalNodePtr plan;
      uint64_t used = 0;
      if (!try_candidate(c, &delta, &plan, &used)) {
        capped = true;
        break;
      }
      if (plan == nullptr || delta <= 0) {
        if (trace != nullptr) {
          trace->prunes.push_back(
              {StrFormat("candidate #%d", c), "KS",
               "non-positive singleton benefit; pruned from the lattice"});
        }
        continue;
      }
      queue.push({delta, c});
    }
    while (!queue.empty() && !capped) {
      ++round;
      auto [bound, c] = queue.top();
      queue.pop();
      double delta = 0;
      PhysicalNodePtr plan;
      uint64_t used = 0;
      if (!try_candidate(c, &delta, &plan, &used)) {
        capped = true;
        break;
      }
      if (plan == nullptr || delta <= 0) {
        if (trace != nullptr) {
          trace->prunes.push_back(
              {StrFormat("candidate #%d", c), "KS",
               "refreshed benefit non-positive; pruned from the lattice"});
        }
        continue;
      }
      if (queue.empty() || delta >= queue.top().first) {
        // Fresh benefit dominates every stale bound: accept without
        // re-costing the rest of the queue.
        if (trace != nullptr) {
          trace->skipped_stale_bound +=
              static_cast<int64_t>(queue.size());
        }
        accept(c, std::move(plan), used,
               trace != nullptr ? trace->enumeration.size() - 1 : 0);
      } else {
        // Bound was stale; requeue with the (strictly smaller) fresh value.
        queue.push({delta, c});
      }
    }
  }

  *best_set = Bitset64(current_used != 0 ? current_used : current);
  if (metrics != nullptr) metrics->cse_optimizations = opts;
  return best;
}

PhysicalNodePtr CseQueryOptimizer::EnumerateExhaustive(
    GroupId root, int n, PhysicalNodePtr normal_plan, Bitset64* best_set,
    CseMetrics* metrics) {
  PhysicalNodePtr best = normal_plan;
  *best_set = Bitset64();
  OptTrace* trace = metrics != nullptr ? &metrics->trace : nullptr;

  // Independence matrix (Definition 5.2).
  std::vector<std::vector<bool>> independent(n, std::vector<bool>(n, true));
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      bool ind = !Competing(optimizer_->candidate(i),
                            optimizer_->candidate(j));
      independent[i][j] = independent[j][i] = ind;
    }
  }
  auto fully_independent_part = [&](uint64_t s) {
    // T(S): members independent of every other member of S.
    uint64_t t = 0;
    for (int i = 0; i < n; ++i) {
      if (!(s >> i & 1)) continue;
      bool ok = true;
      for (int j = 0; j < n; ++j) {
        if (j != i && (s >> j & 1) && !independent[i][j]) ok = false;
      }
      if (ok) t |= (1ULL << i);
    }
    return t;
  };

  // All non-empty subsets in descending size order (§5.3), except that
  // singletons are promoted to run right after the full set: when the
  // optimization cap truncates the enumeration for large N, the cheap
  // single-candidate plans (the common winners) are still examined.
  //
  // Materializing all 2^n subsets is only feasible for small n; the
  // candidate cap admits up to Bitset64::kMaxBits (64) of them. Past
  // kFullSubsetBits the enumeration degrades gracefully to the prefix the
  // optimization cap would reach anyway: the full set, every singleton,
  // then every pair (still dominated by max_optimizations).
  constexpr int kFullSubsetBits = 16;
  std::vector<uint64_t> subsets;
  uint64_t full = (n >= 64) ? ~0ULL : ((1ULL << n) - 1);
  if (n <= kFullSubsetBits) {
    for (uint64_t s = 1; s <= full; ++s) subsets.push_back(s);
    std::stable_sort(subsets.begin(), subsets.end(),
                     [full](uint64_t a, uint64_t b) {
                       auto rank = [full](uint64_t s) {
                         if (s == full) return 1 << 20;
                         int pop = __builtin_popcountll(s);
                         if (pop == 1) return 1 << 19;  // promoted singletons
                         return pop;
                       };
                       return rank(a) > rank(b);
                     });
  } else {
    subsets.push_back(full);
    for (int i = 0; i < n; ++i) subsets.push_back(1ULL << i);
    for (int i = 0; i < n; ++i) {
      for (int j = i + 1; j < n; ++j) {
        subsets.push_back((1ULL << i) | (1ULL << j));
      }
    }
    if (trace != nullptr) trace->enumeration_capped = true;
  }

  std::set<uint64_t> processed;
  auto apply_props = [&](uint64_t s, uint64_t used) {
    // Prop 5.6: the plan returned under S is also optimal under `used`.
    if (processed.insert(used).second && trace != nullptr && used != s) {
      ++trace->skipped_prop56;
    }
    // Props 5.4/5.5 for both S and used: any proper subset made only of
    // the fully independent part can be skipped. Walking a base's subset
    // chain is 2^popcount work — pointless (and ruinous) past the
    // materialization bound above, where those subsets are never enumerated
    // anyway.
    for (uint64_t base : {s, used}) {
      if (__builtin_popcountll(base) > kFullSubsetBits) continue;
      uint64_t t = fully_independent_part(base);
      if (t == 0) continue;
      if (t == base) {
        // Prop 5.4: all members independent -> every subset is redundant.
        for (uint64_t sub = (base - 1) & base; sub != 0;
             sub = (sub - 1) & base) {
          if (processed.insert(sub).second && trace != nullptr) {
            ++trace->skipped_prop54;
          }
        }
      } else {
        // Prop 5.5: proper subsets of the independent part T.
        for (uint64_t sub = (t - 1) & t; sub != 0; sub = (sub - 1) & t) {
          if (processed.insert(sub).second && trace != nullptr) {
            ++trace->skipped_prop55;
          }
        }
      }
    }
  };

  int opts = 0;
  for (uint64_t s : subsets) {
    if (processed.count(s) > 0) continue;
    if (opts >= options_.max_optimizations) {
      if (trace != nullptr) trace->enumeration_capped = true;
      break;
    }
    ++opts;
    processed.insert(s);
    PhysicalNodePtr plan = optimizer_->BestPlan(root, Bitset64(s));
    if (plan == nullptr) {
      if (trace != nullptr) trace->enumeration.push_back({s, -1, 0, false, ""});
      continue;
    }
    uint64_t used = UsedMask(*plan, s);
    apply_props(s, used);
    bool improved = plan->est_cost < best->est_cost;
    if (trace != nullptr) {
      trace->enumeration.push_back({s, plan->est_cost, used, improved, ""});
    }
    if (improved) {
      best = plan;
      *best_set = Bitset64(used != 0 ? used : s);
    }
  }
  if (metrics != nullptr) metrics->cse_optimizations = opts;
  return best;
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
  m->trace.strategy = EnumerationStrategyName(options_.strategy);

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

  // Heuristic 4: drop candidates contained in another candidate with a
  // (nearly) smaller or equal result.
  if (options_.enable_heuristics) {
    std::vector<bool> dead(specs.size(), false);
    for (size_t c = 0; c < specs.size(); ++c) {
      for (size_t p = 0; p < specs.size(); ++p) {
        if (c == p || dead[p]) continue;
        if (Contained(optimizer_->memo(), specs[c], specs[p]) &&
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

  // Enumeration cap: keep the most promising candidates, ranked by the
  // §4.3.3-style net benefit estimate
  //   Σ_i C_i^lower  -  (max_i C_i^lower + C_W + N * C_R).
  // The cap is hard-clamped to Bitset64::kMaxBits: candidate ids become
  // bit positions in the enabled-set masks, so id >= 64 would shift out of
  // the mask (UB). Overflow past the clamp is recorded as
  // candidates_dropped so a large merged batch (Volcano-MQO-sized) is
  // visible in the trace instead of silently truncated.
  const int cap = std::min(options_.max_candidates, Bitset64::kMaxBits);
  if (static_cast<int>(specs.size()) > cap) {
    std::stable_sort(specs.begin(), specs.end(),
                     [&](const CseSpec& a, const CseSpec& b) {
                       return generator.NetBenefit(a) >
                              generator.NetBenefit(b);
                     });
    m->trace.candidates_dropped += static_cast<int64_t>(specs.size()) - cap;
    for (size_t i = static_cast<size_t>(cap); i < specs.size(); ++i) {
      const bool over_capacity = static_cast<int>(i) < options_.max_candidates;
      m->pruned_descriptions.push_back(specs[i].description +
                                       " -- dropped by enumeration cap");
      m->trace.prunes.push_back(
          {specs[i].description, "cap",
           over_capacity ? "beyond Bitset64 capacity (64 candidates)"
                         : "lowest net benefit beyond max_candidates"});
    }
    specs.resize(static_cast<size_t>(cap));
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
    for (size_t j = 0; j < specs.size(); ++j) {
      for (size_t i = 0; i < specs.size(); ++i) {
        if (i == j) continue;
        std::set<TableId> tj(specs[j].signature.tables.begin(),
                             specs[j].signature.tables.end());
        std::set<TableId> ti(specs[i].signature.tables.begin(),
                             specs[i].signature.tables.end());
        if (tj.size() >= ti.size() ||
            !std::includes(ti.begin(), ti.end(), tj.begin(), tj.end())) {
          continue;
        }
        // Scan groups created under candidate i's evaluation tree.
        for (GroupId g = 0; g < optimizer_->memo().num_groups(); ++g) {
          if (!(manager.signature(g) == specs[j].signature)) continue;
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
  PhysicalNodePtr best = Enumerate(root, static_cast<int>(specs.size()),
                                   normal_plan, &best_set, m);
  m->enumerate_seconds = enum_timer.ElapsedSeconds();
  return finish(best, best_set);
}

}  // namespace subshare
