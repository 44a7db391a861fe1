#include "exec/naive_planner.h"

#include <algorithm>

#include "util/check.h"

namespace subshare {

namespace {

// Extracts from `conjuncts` the equi-join keys and residual predicates that
// become evaluable when joining `left` and `right`; removes them from
// `conjuncts`.
void SplitJoinPredicates(std::vector<ExprPtr>* conjuncts, const Layout& left,
                         const Layout& right,
                         std::vector<std::pair<ColId, ColId>>* keys,
                         std::vector<ExprPtr>* residual) {
  std::vector<ExprPtr> remaining;
  for (const ExprPtr& c : *conjuncts) {
    std::set<ColId> cols;
    CollectColumns(c, &cols);
    bool left_ok = true, right_ok = true, combined_ok = true;
    for (ColId col : cols) {
      bool in_left = left.IndexOf(col) >= 0;
      bool in_right = right.IndexOf(col) >= 0;
      left_ok &= in_left;
      right_ok &= in_right;
      combined_ok &= (in_left || in_right);
    }
    if (!combined_ok || left_ok || right_ok) {
      // Not yet evaluable here, or single-sided (stays put: single-sided
      // conjuncts were already pushed to scans by the binder).
      remaining.push_back(c);
      continue;
    }
    ColId a, b;
    if (IsColumnEquality(c, &a, &b)) {
      if (left.IndexOf(a) >= 0 && right.IndexOf(b) >= 0) {
        keys->emplace_back(a, b);
        continue;
      }
      if (left.IndexOf(b) >= 0 && right.IndexOf(a) >= 0) {
        keys->emplace_back(b, a);
        continue;
      }
    }
    residual->push_back(c);
  }
  *conjuncts = std::move(remaining);
}

// Joins `left` and `right` on the conjuncts of `conjuncts` that become
// evaluable there (removed from it): a sort-merge join on the equi-join
// keys, else a nested-loop join. The reference plans use no hash join, so
// they share no hash-table code with the plans they are compared against.
PhysicalNodePtr MakeJoin(std::vector<ExprPtr>* conjuncts,
                         PhysicalNodePtr left, PhysicalNodePtr right) {
  std::vector<std::pair<ColId, ColId>> keys;
  std::vector<ExprPtr> residual;
  SplitJoinPredicates(conjuncts, left->output, right->output, &keys,
                      &residual);
  std::vector<ColId> concat = left->output.cols();
  concat.insert(concat.end(), right->output.cols().begin(),
                right->output.cols().end());
  PhysicalNodePtr join;
  if (!keys.empty()) {
    join = MakePhysical(PhysOpKind::kMergeJoin);
    join->join_keys = std::move(keys);
    join->join_residual = CombineConjuncts(residual);
  } else {
    join = MakePhysical(PhysOpKind::kNlJoin);
    join->nl_pred = CombineConjuncts(residual);
  }
  join->output = Layout(std::move(concat));
  join->children = {std::move(left), std::move(right)};
  return join;
}

PhysicalNodePtr Plan(const LogicalTree& tree, QueryContext* ctx);

// True if some conjunct reads both `joined` and `next` and nothing else:
// joining `next` then applies a predicate instead of a cross product.
bool Connects(const std::vector<ExprPtr>& conjuncts, const Layout& joined,
              const Layout& next) {
  for (const ExprPtr& c : conjuncts) {
    std::set<ColId> cols;
    CollectColumns(c, &cols);
    bool in_joined = false, in_next = false, covered = true;
    for (ColId col : cols) {
      const bool j = joined.IndexOf(col) >= 0;
      const bool n = next.IndexOf(col) >= 0;
      in_joined |= j;
      in_next |= n;
      covered &= j || n;
    }
    if (covered && in_joined && in_next) return true;
  }
  return false;
}

// Left-deep join of the FROM relations. The next relation joined is the
// first (in FROM order) that a conjunct connects to those already joined;
// FROM order decides when none does. Result order is not observable: every
// bound statement has a Project root.
PhysicalNodePtr PlanJoinSet(const LogicalTree& tree, QueryContext* ctx) {
  CHECK(!tree.children.empty());
  std::vector<ExprPtr> conjuncts = tree.op.conjuncts;
  std::vector<PhysicalNodePtr> pending;
  for (const auto& child : tree.children) {
    pending.push_back(Plan(*child, ctx));
  }
  PhysicalNodePtr current = std::move(pending.front());
  pending.erase(pending.begin());
  while (!pending.empty()) {
    size_t next = 0;
    for (size_t i = 0; i < pending.size(); ++i) {
      if (Connects(conjuncts, current->output, pending[i]->output)) {
        next = i;
        break;
      }
    }
    PhysicalNodePtr right = std::move(pending[next]);
    pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(next));
    current = MakeJoin(&conjuncts, std::move(current), std::move(right));
  }
  if (!conjuncts.empty()) {
    // Conjuncts that needed all relations (e.g. referencing three tables).
    auto filter = MakePhysical(PhysOpKind::kFilter);
    filter->filter = CombineConjuncts(conjuncts);
    filter->output = current->output;
    filter->children = {std::move(current)};
    current = std::move(filter);
  }
  return current;
}

PhysicalNodePtr Plan(const LogicalTree& tree, QueryContext* ctx) {
  switch (tree.op.kind) {
    case LogicalOpKind::kGet: {
      auto scan = MakePhysical(PhysOpKind::kTableScan);
      scan->table = ctx->catalog()->GetTable(tree.op.table_id);
      CHECK(scan->table != nullptr);
      scan->rel_id = tree.op.rel_id;
      scan->input_cols = ctx->columns().RelationColumns(tree.op.rel_id);
      scan->output = Layout(scan->input_cols);
      scan->filter = CombineConjuncts(tree.op.conjuncts);
      return scan;
    }
    case LogicalOpKind::kJoinSet:
      return PlanJoinSet(tree, ctx);
    case LogicalOpKind::kJoin: {
      std::vector<ExprPtr> conjuncts = tree.op.conjuncts;
      PhysicalNodePtr join = MakeJoin(&conjuncts, Plan(*tree.children[0], ctx),
                                      Plan(*tree.children[1], ctx));
      CHECK(conjuncts.empty()) << "join conjunct not evaluable";
      return join;
    }
    case LogicalOpKind::kGroupBy: {
      // Hash-free: a stable sort on the group columns keeps each group's
      // rows in arrival order (so double sums add up in the same order),
      // then a streaming group-by.
      PhysicalNodePtr child = Plan(*tree.children[0], ctx);
      if (!tree.op.group_cols.empty()) {
        auto sort = MakePhysical(PhysOpKind::kSort);
        for (ColId c : tree.op.group_cols) sort->sort_keys.push_back({c, false});
        sort->output = child->output;
        sort->children = {std::move(child)};
        child = std::move(sort);
      }
      auto agg = MakePhysical(PhysOpKind::kStreamAgg);
      agg->group_cols = tree.op.group_cols;
      agg->aggs = tree.op.aggs;
      std::vector<ColId> out = tree.op.group_cols;
      for (const AggregateItem& a : tree.op.aggs) out.push_back(a.output);
      agg->output = Layout(std::move(out));
      agg->children = {std::move(child)};
      return agg;
    }
    case LogicalOpKind::kFilter: {
      PhysicalNodePtr child = Plan(*tree.children[0], ctx);
      auto filter = MakePhysical(PhysOpKind::kFilter);
      filter->filter = CombineConjuncts(tree.op.conjuncts);
      filter->output = child->output;
      filter->children = {std::move(child)};
      return filter;
    }
    case LogicalOpKind::kProject: {
      PhysicalNodePtr child = Plan(*tree.children[0], ctx);
      auto proj = MakePhysical(PhysOpKind::kProject);
      proj->projections = tree.op.projections;
      std::vector<ColId> out;
      for (const ProjectItem& p : tree.op.projections) out.push_back(p.output);
      proj->output = Layout(std::move(out));
      proj->children = {std::move(child)};
      return proj;
    }
    case LogicalOpKind::kSort: {
      PhysicalNodePtr child = Plan(*tree.children[0], ctx);
      auto sort = MakePhysical(PhysOpKind::kSort);
      sort->sort_keys = tree.op.sort_keys;
      sort->limit = tree.op.limit;
      sort->output = child->output;
      sort->children = {std::move(child)};
      return sort;
    }
    case LogicalOpKind::kBatch:
    case LogicalOpKind::kCseRef:
      CHECK(false) << "unexpected " << LogicalOpKindName(tree.op.kind)
                   << " in NaivePlanStatement";
  }
  return nullptr;
}

}  // namespace

PhysicalNodePtr NaivePlanStatement(const LogicalTree& tree,
                                   QueryContext* ctx) {
  return Plan(tree, ctx);
}

ExecutablePlan NaivePlanBatch(const std::vector<Statement>& statements,
                              QueryContext* ctx) {
  ExecutablePlan plan;
  plan.root = MakePhysical(PhysOpKind::kBatch);
  for (const Statement& s : statements) {
    plan.root->children.push_back(NaivePlanStatement(*s.root, ctx));
  }
  return plan;
}

}  // namespace subshare
