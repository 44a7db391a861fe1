#include "optimizer/optimizer.h"

#include <algorithm>

#include "expr/implication.h"
#include "optimizer/cost_model.h"

namespace subshare {

namespace {

// Merges child use counts into `into`.
void MergeUses(std::map<int, int>* into, const std::map<int, int>& from) {
  for (const auto& [id, n] : from) (*into)[id] += n;
}

bool IsFinalized(const PhysicalNode& plan, int id) {
  return std::find(plan.cse_finalized.begin(), plan.cse_finalized.end(),
                   id) != plan.cse_finalized.end();
}

}  // namespace

Optimizer::Optimizer(QueryContext* ctx, OptimizerOptions options)
    : ctx_(ctx), options_(options), memo_(ctx), cards_(&memo_) {}

GroupId Optimizer::BuildAndExplore(const std::vector<Statement>& statements) {
  std::vector<GroupId> roots;
  for (const Statement& s : statements) {
    GroupId r = memo_.InsertTree(*s.root);
    roots.push_back(r);
    // Statement results must come back in SELECT-list order, not in the
    // canonical sorted-column order interior plans use.
    const LogicalTree* node = s.root.get();
    if (node->op.kind == LogicalOpKind::kSort) node = node->children[0].get();
    CHECK(node->op.kind == LogicalOpKind::kProject);
    std::vector<ColId> order;
    for (const ProjectItem& item : node->op.projections) {
      order.push_back(item.output);
    }
    memo_.group(r).fixed_output_order = std::move(order);
  }
  statement_roots_ = roots;
  GroupId root = memo_.InsertExpr(LogicalOp::Batch(), roots);
  memo_.set_root(root);
  for (GroupId r : roots) {
    if (memo_.group(r).creation_parent == kInvalidGroup && r != root) {
      memo_.group(r).creation_parent = root;
    }
  }
  RuleEngine rules(&memo_, options_.explore);
  rules.ExploreAll();
  ComputeRequiredColumns(&memo_, statement_roots_);
  plan_cache_.resize(memo_.num_groups());
  return root;
}

void Optimizer::ReexploreWithRoots(const std::vector<GroupId>& extra_roots) {
  RuleEngine rules(&memo_, options_.explore);
  rules.ExploreAll();
  std::vector<GroupId> roots = statement_roots_;
  roots.insert(roots.end(), extra_roots.begin(), extra_roots.end());
  ComputeRequiredColumns(&memo_, roots);
  plan_cache_.resize(memo_.num_groups());
}

int Optimizer::RegisterCandidate(CseCandidateInfo info) {
  info.id = static_cast<int>(candidates_.size());
  candidates_.push_back(std::move(info));
  return candidates_.back().id;
}

void Optimizer::ComputeRelevantMasks() {
  // Keep the normal-phase plan cache: its entries are keyed by
  // enabled ∩ relevant = ∅, under which the newly injected CseRef
  // substitutes are infeasible anyway, so those plans stay valid. This is
  // part of the §5.4 history reuse.
  plan_cache_.resize(memo_.num_groups());
  for (GroupId g = 0; g < memo_.num_groups(); ++g) {
    memo_.group(g).relevant_cses = Bitset64();
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (GroupId g = 0; g < memo_.num_groups(); ++g) {
      Bitset64 mask = memo_.group(g).relevant_cses;
      for (const GroupExpr& expr : memo_.group(g).exprs) {
        if (expr.op.kind == LogicalOpKind::kCseRef) {
          mask.Set(expr.op.cse_id);
        }
        for (GroupId c : expr.children) {
          mask = mask.Union(memo_.group(c).relevant_cses);
        }
      }
      if (mask != memo_.group(g).relevant_cses) {
        memo_.group(g).relevant_cses = mask;
        changed = true;
      }
    }
    // The initial cost added at a candidate's LCA depends on its evaluation
    // plan, so the eval tree's relevant bits are relevant at the LCA too.
    for (const CseCandidateInfo& c : candidates_) {
      Group& lca = memo_.group(c.lca_group);
      Bitset64 extra = memo_.group(c.eval_group)
                           .relevant_cses.Union(Bitset64::Single(c.id));
      Bitset64 merged = lca.relevant_cses.Union(extra);
      if (merged != lca.relevant_cses) {
        lca.relevant_cses = merged;
        changed = true;
      }
    }
  }
}

Layout Optimizer::RequiredLayout(const Group& g) const {
  if (!g.fixed_output_order.empty()) return Layout(g.fixed_output_order);
  std::vector<ColId> cols(g.required.begin(), g.required.end());
  return Layout(std::move(cols));
}

bool Optimizer::FinalizeCseAt(GroupId g, PhysicalNode* plan,
                              Bitset64 enabled) {
  const bool at_root = (g == memo_.root());
  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (const CseCandidateInfo& cand : candidates_) {
      if (!enabled.Test(cand.id)) continue;
      bool here = (cand.lca_group == g) || at_root;
      if (!here) continue;
      auto it = plan->cse_uses.find(cand.id);
      if (it == plan->cse_uses.end() || IsFinalized(*plan, cand.id)) continue;
      if (cand.recycled) {
        // The spool already exists in the cross-batch cache: no initial
        // cost to charge and no single-consumer discard (even one reader
        // profits). Finalize to mark the charge (of zero) as applied.
        plan->cse_finalized.push_back(cand.id);
        progressed = true;
        continue;
      }
      if (it->second <= 1) return false;  // paper: discard single-consumer
      PhysicalNodePtr eval =
          BestPlan(cand.eval_group, enabled.Minus(Bitset64::Single(cand.id)));
      if (eval == nullptr) return false;
      plan->est_cost += eval->est_cost + cand.spool_write_cost;
      plan->cse_finalized.push_back(cand.id);
      // Stacked CSEs: uses inside the evaluation plan surface here.
      MergeUses(&plan->cse_uses, eval->cse_uses);
      progressed = true;
    }
  }
  return true;
}

PhysicalNodePtr Optimizer::BestPlan(GroupId g, Bitset64 enabled) {
  Group& group = memo_.group(g);
  Bitset64 mask = enabled.Intersect(group.relevant_cses);
  auto& cache = plan_cache_[g];
  if (auto it = cache.find(mask.Raw()); it != cache.end()) return it->second;
  auto key = std::make_pair(g, mask.Raw());
  if (in_progress_.count(key) > 0) return nullptr;  // cyclic stacking guard
  in_progress_.insert(key);
  ++plan_computations_;

  PhysicalNodePtr best;
  double upper = -1;
  for (const GroupExpr& expr : group.exprs) {
    ImplementResult result = ImplementExpr(g, expr, enabled);
    for (PhysicalNodePtr& plan : result.plans) {
      if (plan == nullptr) continue;
      if (!FinalizeCseAt(g, plan.get(), enabled)) continue;
      upper = std::max(upper, plan->est_cost);
      if (best == nullptr || plan->est_cost < best->est_cost) {
        best = std::move(plan);
      }
    }
  }
  in_progress_.erase(key);
  cache[mask.Raw()] = best;
  if (mask.Empty()) {
    group.best_cost = best != nullptr ? best->est_cost : -1;
    group.upper_cost = upper;
  }
  return best;
}

Optimizer::ImplementResult Optimizer::ImplementExpr(GroupId g,
                                                    const GroupExpr& expr,
                                                    Bitset64 enabled) {
  ImplementResult result;
  Group& group = memo_.group(g);
  const Layout out_layout = RequiredLayout(group);
  const double card = cards_.GroupCardinality(g);

  // Children first.
  std::vector<PhysicalNodePtr> children;
  for (GroupId c : expr.children) {
    PhysicalNodePtr child = BestPlan(c, enabled);
    if (child == nullptr) return result;  // infeasible under this set
    children.push_back(std::move(child));
  }
  double children_cost = 0;
  std::map<int, int> child_uses;
  std::vector<int> child_finalized;
  for (const PhysicalNodePtr& c : children) {
    children_cost += c->est_cost;
    MergeUses(&child_uses, c->cse_uses);
    for (int id : c->cse_finalized) child_finalized.push_back(id);
  }

  auto new_node = [&](PhysOpKind kind) {
    PhysicalNodePtr node = MakePhysical(kind);
    node->output = out_layout;
    node->est_rows = card;
    node->children = children;
    node->cse_uses = child_uses;
    node->cse_finalized = child_finalized;
    return node;
  };

  switch (expr.op.kind) {
    case LogicalOpKind::kGet: {
      const Table* table = ctx_->catalog()->GetTable(expr.op.table_id);
      CHECK(table != nullptr);
      const double table_rows = static_cast<double>(table->row_count());
      const double width = table->schema().RowWidthBytes();
      // Full scan.
      {
        PhysicalNodePtr scan = new_node(PhysOpKind::kTableScan);
        scan->table = table;
        scan->rel_id = expr.op.rel_id;
        scan->input_cols = ctx_->columns().RelationColumns(expr.op.rel_id);
        scan->filter = CombineConjuncts(expr.op.conjuncts);
        scan->est_cost = CostModel::TableScan(table_rows, width);
        result.plans.push_back(std::move(scan));
      }
      // Index range scans.
      if (options_.enable_index_scans) {
        std::set<int> tried;
        for (const ExprPtr& conj : expr.op.conjuncts) {
          ColId col;
          CmpOp op;
          Value constant;
          if (!IsColumnVsConstant(conj, &col, &op, &constant)) continue;
          int col_idx = ctx_->columns().info(col).column_idx;
          if (col_idx < 0 || table->GetIndex(col_idx) == nullptr) continue;
          if (!tried.insert(col_idx).second) continue;
          // Range from every range-ish conjunct on this column; the rest
          // stay as a residual filter.
          ValueRange range;
          std::vector<ExprPtr> residual;
          for (const ExprPtr& c2 : expr.op.conjuncts) {
            ColId c2col;
            CmpOp c2op;
            Value c2const;
            if (IsColumnVsConstant(c2, &c2col, &c2op, &c2const) &&
                c2col == col && c2op != CmpOp::kNe) {
              // Track the winning literal's plan-cache slot so cached
              // plans can rebind the absorbed bound (canonical form puts
              // the literal in children[1]).
              int slot = c2->children.size() == 2 &&
                                 c2->children[1]->kind == ExprKind::kLiteral
                             ? c2->children[1]->param_slot
                             : -1;
              range.Apply(c2op, c2const, slot);
            } else {
              residual.push_back(c2);
            }
          }
          double range_sel = cards_.Selectivity(RangeToConjuncts(
              col, ctx_->columns().info(col).type, range));
          double matched = std::max(1.0, table_rows * range_sel);
          PhysicalNodePtr scan = new_node(PhysOpKind::kIndexScan);
          scan->table = table;
          scan->rel_id = expr.op.rel_id;
          scan->input_cols = ctx_->columns().RelationColumns(expr.op.rel_id);
          scan->index_range.column_idx = col_idx;
          if (range.lo) {
            scan->index_range.lo = *range.lo;
            scan->index_range.lo_inclusive = range.lo_inclusive;
            scan->index_range.lo_slot = range.lo_slot;
          }
          if (range.hi) {
            scan->index_range.hi = *range.hi;
            scan->index_range.hi_inclusive = range.hi_inclusive;
            scan->index_range.hi_slot = range.hi_slot;
          }
          scan->filter = CombineConjuncts(residual);
          scan->est_cost = CostModel::IndexScan(matched, width);
          result.plans.push_back(std::move(scan));
        }
      }
      return result;
    }

    case LogicalOpKind::kJoinSet:
      // Logical only; its binary expansions implement it.
      return result;

    case LogicalOpKind::kJoin: {
      const Group& lg = memo_.group(expr.children[0]);
      const Group& rg = memo_.group(expr.children[1]);
      double lcard = cards_.GroupCardinality(lg.id);
      double rcard = cards_.GroupCardinality(rg.id);
      // Build side = smaller input = children[1] for the executor.
      bool swap = lcard < rcard;
      const Group& probe_g = swap ? rg : lg;
      const Group& build_g = swap ? lg : rg;
      PhysicalNodePtr probe = swap ? children[1] : children[0];
      PhysicalNodePtr build = swap ? children[0] : children[1];
      double probe_card = swap ? rcard : lcard;
      double build_card = swap ? lcard : rcard;

      std::vector<std::pair<ColId, ColId>> keys;
      std::vector<ExprPtr> residual;
      for (const ExprPtr& c : expr.op.conjuncts) {
        ColId a, b;
        if (IsColumnEquality(c, &a, &b)) {
          if (probe_g.HasOutput(a) && build_g.HasOutput(b)) {
            keys.emplace_back(a, b);
            continue;
          }
          if (probe_g.HasOutput(b) && build_g.HasOutput(a)) {
            keys.emplace_back(b, a);
            continue;
          }
        }
        residual.push_back(c);
      }
      if (!keys.empty()) {
        // Hash join (build = smaller input). No sort-merge alternative: no
        // operator delivers sorted input, so a merge join always sorts both
        // sides and runs slower than the hash join it would replace.
        PhysicalNodePtr hash = new_node(PhysOpKind::kHashJoin);
        hash->join_keys = std::move(keys);
        hash->join_residual = CombineConjuncts(residual);
        double build_width = 8.0 * build_g.required.size();
        hash->est_cost =
            children_cost + CostModel::HashJoin(build_card, build_width,
                                                probe_card, card);
        hash->children = {probe, build};
        result.plans.push_back(std::move(hash));
      } else {
        PhysicalNodePtr join = new_node(PhysOpKind::kNlJoin);
        join->nl_pred = CombineConjuncts(residual);
        join->est_cost =
            children_cost + CostModel::NlJoin(probe_card, build_card, card);
        join->children = {probe, build};
        result.plans.push_back(std::move(join));
      }

      // Index nested-loop variants: either side that is a bare Get over an
      // indexed join-key column can serve as the probed inner relation —
      // this is what makes the paper's "cheap index alternative" plans
      // (Example 7) real.
      if (options_.enable_index_scans) {
        for (int inner_idx = 0; inner_idx < 2; ++inner_idx) {
          const GroupExpr& inner_first =
              memo_.group(expr.children[inner_idx]).exprs[0];
          if (inner_first.op.kind != LogicalOpKind::kGet) continue;
          const Table* inner_table =
              ctx_->catalog()->GetTable(inner_first.op.table_id);
          const Group& outer_g = memo_.group(expr.children[1 - inner_idx]);
          const Group& inner_g = memo_.group(expr.children[inner_idx]);
          // Pick the first indexed equi-key; everything else is residual.
          std::pair<ColId, ColId> probe_key = {kInvalidColId, kInvalidColId};
          int probe_col_idx = -1;
          std::vector<ExprPtr> inlj_residual;
          for (const ExprPtr& c : expr.op.conjuncts) {
            ColId a, b;
            if (probe_col_idx < 0 && IsColumnEquality(c, &a, &b)) {
              ColId outer_col = kInvalidColId, inner_col = kInvalidColId;
              if (outer_g.HasOutput(a) && inner_g.HasOutput(b)) {
                outer_col = a;
                inner_col = b;
              } else if (outer_g.HasOutput(b) && inner_g.HasOutput(a)) {
                outer_col = b;
                inner_col = a;
              }
              if (inner_col != kInvalidColId) {
                int col_idx = ctx_->columns().info(inner_col).column_idx;
                if (col_idx >= 0 &&
                    inner_table->GetIndex(col_idx) != nullptr) {
                  probe_key = {outer_col, inner_col};
                  probe_col_idx = col_idx;
                  continue;
                }
              }
            }
            inlj_residual.push_back(c);
          }
          if (probe_col_idx < 0) continue;
          PhysicalNodePtr outer_plan = children[1 - inner_idx];
          double outer_card = cards_.GroupCardinality(outer_g.id);
          double inner_rows =
              static_cast<double>(inner_table->row_count());
          PhysicalNodePtr inlj = MakePhysical(PhysOpKind::kIndexNlJoin);
          inlj->output = out_layout;
          inlj->est_rows = card;
          inlj->children = {outer_plan};
          inlj->cse_uses = outer_plan->cse_uses;
          inlj->cse_finalized = outer_plan->cse_finalized;
          inlj->table = inner_table;
          inlj->rel_id = inner_first.op.rel_id;
          inlj->input_cols =
              ctx_->columns().RelationColumns(inner_first.op.rel_id);
          inlj->index_range.column_idx = probe_col_idx;
          inlj->join_keys = {probe_key};
          inlj->join_residual = CombineConjuncts(inlj_residual);
          inlj->filter = CombineConjuncts(inner_first.op.conjuncts);
          inlj->est_cost =
              outer_plan->est_cost +
              CostModel::IndexNlJoin(
                  outer_card, inner_rows, card,
                  inner_table->schema().RowWidthBytes());
          result.plans.push_back(std::move(inlj));
        }
      }
      return result;
    }

    case LogicalOpKind::kGroupBy: {
      PhysicalNodePtr agg = new_node(PhysOpKind::kHashAgg);
      agg->group_cols = expr.op.group_cols;
      agg->aggs = expr.op.aggs;
      double child_card = cards_.GroupCardinality(expr.children[0]);
      agg->est_cost = children_cost + CostModel::HashAgg(child_card, card);
      result.plans.push_back(std::move(agg));
      return result;
    }

    case LogicalOpKind::kFilter: {
      double child_card = cards_.GroupCardinality(expr.children[0]);
      const double cost = children_cost + CostModel::Filter(child_card);
      // A CSE consumer's compensation filter folds into its spool scan, so
      // the scan's parent (typically the re-aggregation) can consume the
      // work table in place. Same estimates as the Filter node it replaces:
      // plan choice does not see the fold.
      const PhysicalNode& child = *children[0];
      if (child.kind == PhysOpKind::kSpoolScan && child.filter == nullptr) {
        auto scan = std::make_shared<PhysicalNode>(child);
        scan->output = out_layout;
        scan->filter = CombineConjuncts(expr.op.conjuncts);
        scan->est_rows = card;
        scan->est_cost = cost;
        result.plans.push_back(std::move(scan));
        return result;
      }
      PhysicalNodePtr filter = new_node(PhysOpKind::kFilter);
      filter->filter = CombineConjuncts(expr.op.conjuncts);
      filter->est_cost = cost;
      result.plans.push_back(std::move(filter));
      return result;
    }

    case LogicalOpKind::kProject: {
      PhysicalNodePtr proj = new_node(PhysOpKind::kProject);
      proj->projections = expr.op.projections;
      double child_card = cards_.GroupCardinality(expr.children[0]);
      proj->est_cost = children_cost + CostModel::Project(child_card);
      result.plans.push_back(std::move(proj));
      return result;
    }

    case LogicalOpKind::kSort: {
      PhysicalNodePtr sort = new_node(PhysOpKind::kSort);
      sort->sort_keys = expr.op.sort_keys;
      sort->limit = expr.op.limit;
      double child_card = cards_.GroupCardinality(expr.children[0]);
      sort->est_cost = children_cost + CostModel::Sort(child_card);
      result.plans.push_back(std::move(sort));
      return result;
    }

    case LogicalOpKind::kBatch: {
      PhysicalNodePtr batch = new_node(PhysOpKind::kBatch);
      batch->est_cost = children_cost;
      result.plans.push_back(std::move(batch));
      return result;
    }

    case LogicalOpKind::kCseRef: {
      if (expr.op.cse_id < 0 ||
          expr.op.cse_id >= static_cast<int>(candidates_.size()) ||
          !enabled.Test(expr.op.cse_id)) {
        return result;  // candidate not enabled in this pass
      }
      const CseCandidateInfo& cand = candidates_[expr.op.cse_id];
      PhysicalNodePtr scan = new_node(PhysOpKind::kSpoolScan);
      scan->cse_id = cand.id;
      scan->input_cols = cand.output_cols;
      scan->est_rows = cand.est_rows;
      scan->est_cost = cand.spool_read_cost;  // usage cost only (§5.2)
      scan->cse_uses[cand.id] += 1;
      result.plans.push_back(std::move(scan));
      return result;
    }
  }
  return result;
}

void Optimizer::CollectUsedCandidates(const PhysicalNode& plan,
                                      Bitset64 enabled,
                                      std::vector<int>* order,
                                      std::set<int>* visited) {
  // Recurse into the plan tree; for every spool scan, ensure its evaluation
  // plan (and that plan's dependencies) come first.
  for (const PhysicalNodePtr& c : plan.children) {
    CollectUsedCandidates(*c, enabled, order, visited);
  }
  if (plan.kind == PhysOpKind::kSpoolScan) {
    int id = plan.cse_id;
    if (visited->insert(id).second) {
      if (candidates_[id].recycled) {
        // Recycled spools load from the cross-batch cache; the fallback
        // evaluation plan is built under the empty enabled set (see
        // Assemble) and reads no other spools, so no dependencies.
        order->push_back(id);
      } else {
        PhysicalNodePtr eval =
            BestPlan(candidates_[id].eval_group,
                     enabled.Minus(Bitset64::Single(id)));
        CHECK(eval != nullptr);
        CollectUsedCandidates(*eval, enabled.Minus(Bitset64::Single(id)),
                              order, visited);
        order->push_back(id);
      }
    }
  }
}

ExecutablePlan Optimizer::Assemble(PhysicalNodePtr root_plan,
                                   Bitset64 enabled) {
  ExecutablePlan plan;
  plan.root = std::move(root_plan);
  plan.est_cost = plan.root->est_cost;
  std::vector<int> order;
  std::set<int> visited;
  CollectUsedCandidates(*plan.root, enabled, &order, &visited);
  for (int id : order) {
    const CseCandidateInfo& cand = candidates_[id];
    ExecutablePlan::CsePlan cse;
    cse.cse_id = id;
    // A recycled candidate's plan is a self-contained fallback (empty
    // enabled set): it only runs if the cache entry was evicted between
    // optimization and execution.
    cse.plan = BestPlan(cand.eval_group,
                        cand.recycled ? Bitset64()
                                      : enabled.Minus(Bitset64::Single(id)));
    CHECK(cse.plan != nullptr);
    cse.spool_schema = cand.spool_schema;
    cse.output = cand.output_cols;
    cse.cache_key = cand.cache_key;
    cse.dep_tables = cand.dep_tables;
    cse.recycled = cand.recycled;
    cse.initial_cost = cse.plan->est_cost + cand.spool_write_cost;
    plan.cse_plans.push_back(std::move(cse));
  }
  return plan;
}

}  // namespace subshare
