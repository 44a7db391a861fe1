#include "optimizer/memo.h"

#include <algorithm>

#include "util/hash.h"
#include "util/string_util.h"

namespace subshare {

size_t GroupExpr::Hash() const {
  size_t seed = op.PayloadHash();
  HashRange(&seed, children);
  return seed;
}

bool GroupExpr::Equals(const GroupExpr& other) const {
  return children == other.children && op.PayloadEquals(other.op);
}

std::vector<ColId> Memo::ComputeOutput(
    const LogicalOp& op, const std::vector<GroupId>& children) const {
  std::set<ColId> out;
  switch (op.kind) {
    case LogicalOpKind::kGet: {
      const std::vector<ColId>& cols =
          ctx_->columns().RelationColumns(op.rel_id);
      out.insert(cols.begin(), cols.end());
      break;
    }
    case LogicalOpKind::kJoinSet:
    case LogicalOpKind::kJoin:
      for (GroupId c : children) {
        out.insert(groups_[c].output.begin(), groups_[c].output.end());
      }
      break;
    case LogicalOpKind::kGroupBy:
      out.insert(op.group_cols.begin(), op.group_cols.end());
      for (const AggregateItem& a : op.aggs) out.insert(a.output);
      break;
    case LogicalOpKind::kFilter:
    case LogicalOpKind::kSort:
      out.insert(groups_[children[0]].output.begin(),
                 groups_[children[0]].output.end());
      break;
    case LogicalOpKind::kProject:
      for (const ProjectItem& p : op.projections) out.insert(p.output);
      break;
    case LogicalOpKind::kBatch:
      break;
    case LogicalOpKind::kCseRef:
      out.insert(op.cse_output.begin(), op.cse_output.end());
      break;
  }
  return std::vector<ColId>(out.begin(), out.end());
}

GroupId Memo::InsertExpr(LogicalOp op, std::vector<GroupId> children,
                         GroupId target_group, GroupId creation_parent,
                         bool* inserted) {
  // JoinSet members are order-insensitive: canonicalize.
  if (op.kind == LogicalOpKind::kJoinSet) {
    std::sort(children.begin(), children.end());
  }
  GroupExpr expr{std::move(op), std::move(children), false};
  size_t hash = expr.Hash();
  auto it = index_.find(hash);
  if (it != index_.end()) {
    for (const auto& [g, idx] : it->second) {
      if (groups_[g].exprs[idx].Equals(expr)) {
        if (inserted != nullptr) *inserted = false;
        // If the caller targeted a specific group, equal expressions must
        // already live there (logical equivalence is per-group).
        DCHECK(target_group == kInvalidGroup || target_group == g);
        return g;
      }
    }
  }
  GroupId g = target_group;
  if (g == kInvalidGroup) {
    g = static_cast<GroupId>(groups_.size());
    Group group;
    group.id = g;
    group.output = ComputeOutput(expr.op, expr.children);
    group.creation_parent = creation_parent;
    groups_.push_back(std::move(group));
  }
  index_[hash].emplace_back(g, static_cast<int>(groups_[g].exprs.size()));
  groups_[g].exprs.push_back(std::move(expr));
  if (inserted != nullptr) *inserted = true;
  return g;
}

GroupId Memo::InsertTree(const LogicalTree& tree, GroupId creation_parent) {
  // Two-pass: create the group for this node first so children can record
  // it as their creation parent. To do that we need children group ids for
  // the expression — so instead insert children with a provisional parent
  // and fix up afterwards.
  std::vector<GroupId> children;
  children.reserve(tree.children.size());
  for (const auto& child : tree.children) {
    children.push_back(InsertTree(*child, kInvalidGroup));
  }
  GroupId g = InsertExpr(tree.op, children, kInvalidGroup, creation_parent);
  for (GroupId c : children) {
    if (groups_[c].creation_parent == kInvalidGroup && c != g) {
      groups_[c].creation_parent = g;
    }
  }
  if (groups_[g].creation_parent == kInvalidGroup && creation_parent >= 0) {
    groups_[g].creation_parent = creation_parent;
  }
  return g;
}

std::vector<GroupId> Memo::AncestorChain(GroupId g) const {
  std::vector<GroupId> chain;
  GroupId cur = g;
  while (cur != kInvalidGroup) {
    chain.push_back(cur);
    cur = groups_[cur].creation_parent;
    if (chain.size() > groups_.size()) break;  // cycle guard
  }
  return chain;
}

GroupId Memo::LowestCommonAncestor(const std::vector<GroupId>& groups,
                                   GroupId fallback) const {
  if (groups.empty()) return fallback;
  std::vector<GroupId> common = AncestorChain(groups[0]);
  // common is ordered leaf..root; intersect with every other chain while
  // preserving that order.
  for (size_t i = 1; i < groups.size(); ++i) {
    std::set<GroupId> chain_set;
    for (GroupId a : AncestorChain(groups[i])) chain_set.insert(a);
    std::vector<GroupId> next;
    for (GroupId a : common) {
      if (chain_set.count(a) > 0) next.push_back(a);
    }
    common = std::move(next);
    if (common.empty()) return fallback;
  }
  return common.empty() ? fallback : common.front();
}

std::string Memo::ToString() const {
  std::string out;
  for (const Group& g : groups_) {
    out += StrFormat("G%d (card=%.0f):\n", g.id, g.cardinality);
    for (const GroupExpr& e : g.exprs) {
      std::string kids;
      for (GroupId c : e.children) kids += StrFormat(" G%d", c);
      out += "  " + e.op.ToString(ctx_->Namer()) + " [" + kids + " ]\n";
    }
  }
  return out;
}

namespace {

// Columns referenced by an operator's payload (conjuncts, agg args, ...).
std::set<ColId> PayloadColumns(const LogicalOp& op) {
  std::set<ColId> cols;
  for (const ExprPtr& c : op.conjuncts) CollectColumns(c, &cols);
  cols.insert(op.group_cols.begin(), op.group_cols.end());
  for (const AggregateItem& a : op.aggs) CollectColumns(a.arg, &cols);
  for (const ProjectItem& p : op.projections) CollectColumns(p.expr, &cols);
  for (const SortKey& k : op.sort_keys) cols.insert(k.col);
  return cols;
}

}  // namespace

std::vector<bool> DescendantGroups(const Memo& memo,
                                   const std::vector<GroupId>& from) {
  std::vector<bool> reached(memo.num_groups(), false);
  std::vector<GroupId> stack;
  for (GroupId g : from) {
    if (!reached[g]) {
      reached[g] = true;
      stack.push_back(g);
    }
  }
  while (!stack.empty()) {
    GroupId g = stack.back();
    stack.pop_back();
    for (const GroupExpr& expr : memo.group(g).exprs) {
      for (GroupId c : expr.children) {
        if (!reached[c]) {
          reached[c] = true;
          stack.push_back(c);
        }
      }
    }
  }
  return reached;
}

bool IsDescendantGroup(const Memo& memo, GroupId desc, GroupId anc) {
  return DescendantGroups(memo, {anc})[desc];
}

void ComputeRequiredColumns(Memo* memo, const std::vector<GroupId>& roots) {
  // Seed roots with their full output (statement Projects produce all their
  // projections; CSE evaluation roots produce the whole spool).
  for (GroupId r : roots) {
    Group& g = memo->group(r);
    g.required.insert(g.output.begin(), g.output.end());
  }
  const int n = memo->num_groups();
  std::vector<GroupId> worklist;
  std::vector<bool> queued(n, false);
  auto add = [&](Group* child, ColId c) {
    if (child->HasOutput(c) && child->required.insert(c).second &&
        !queued[child->id]) {
      queued[child->id] = true;
      worklist.push_back(child->id);
    }
  };
  // One pass over every group pushes payload references and the current
  // requirements down; payloads never change, so afterwards only a grown
  // required set has anything new to push.
  for (GroupId gid = 0; gid < n; ++gid) {
    Group& parent = memo->group(gid);
    for (const GroupExpr& expr : parent.exprs) {
      if (expr.children.empty()) continue;
      const std::set<ColId> payload = PayloadColumns(expr.op);
      for (GroupId cid : expr.children) {
        Group& child = memo->group(cid);
        for (ColId c : payload) add(&child, c);
        for (ColId c : parent.required) add(&child, c);
      }
    }
  }
  while (!worklist.empty()) {
    GroupId gid = worklist.back();
    worklist.pop_back();
    queued[gid] = false;
    Group& parent = memo->group(gid);
    for (const GroupExpr& expr : parent.exprs) {
      for (GroupId cid : expr.children) {
        Group& child = memo->group(cid);
        for (ColId c : parent.required) add(&child, c);
      }
    }
  }
}

}  // namespace subshare
