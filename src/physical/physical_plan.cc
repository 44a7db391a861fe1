#include "physical/physical_plan.h"

#include "util/string_util.h"

namespace subshare {

const char* PhysOpKindName(PhysOpKind kind) {
  switch (kind) {
    case PhysOpKind::kTableScan: return "TableScan";
    case PhysOpKind::kIndexScan: return "IndexScan";
    case PhysOpKind::kFilter: return "Filter";
    case PhysOpKind::kHashJoin: return "HashJoin";
    case PhysOpKind::kMergeJoin: return "MergeJoin";
    case PhysOpKind::kIndexNlJoin: return "IndexNLJoin";
    case PhysOpKind::kNlJoin: return "NLJoin";
    case PhysOpKind::kHashAgg: return "HashAgg";
    case PhysOpKind::kStreamAgg: return "StreamAgg";
    case PhysOpKind::kProject: return "Project";
    case PhysOpKind::kSort: return "Sort";
    case PhysOpKind::kSpoolScan: return "SpoolScan";
    case PhysOpKind::kBatch: return "Batch";
  }
  return "?";
}

PhysicalNodePtr MakePhysical(PhysOpKind kind) {
  auto node = std::make_shared<PhysicalNode>();
  node->kind = kind;
  return node;
}

std::string PhysicalNode::ToString(
    const std::function<std::string(ColId)>& name, int indent) const {
  auto col_name = [&](ColId c) {
    return name ? name(c) : "c" + std::to_string(c);
  };
  std::string out(indent * 2, ' ');
  out += PhysOpKindName(kind);
  switch (kind) {
    case PhysOpKind::kTableScan:
      out += "(" + table->name() + ")";
      break;
    case PhysOpKind::kIndexScan: {
      out += "(" + table->name() + " on " +
             table->schema().column(index_range.column_idx).name;
      if (index_range.lo) {
        out += StrFormat(" %s %s", index_range.lo_inclusive ? ">=" : ">",
                         index_range.lo->ToString().c_str());
      }
      if (index_range.hi) {
        out += StrFormat(" %s %s", index_range.hi_inclusive ? "<=" : "<",
                         index_range.hi->ToString().c_str());
      }
      out += ")";
      break;
    }
    case PhysOpKind::kIndexNlJoin:
      out += "(probe " + table->name() + ")";
      [[fallthrough]];
    case PhysOpKind::kHashJoin:
    case PhysOpKind::kMergeJoin: {
      std::vector<std::string> keys;
      for (const auto& [l, r] : join_keys) {
        keys.push_back(col_name(l) + "=" + col_name(r));
      }
      out += "[" + Join(keys, ", ") + "]";
      break;
    }
    case PhysOpKind::kHashAgg:
    case PhysOpKind::kStreamAgg: {
      std::vector<std::string> g;
      for (ColId c : group_cols) g.push_back(col_name(c));
      std::vector<std::string> a;
      for (const AggregateItem& item : aggs) {
        a.push_back(AggFnName(item.fn) + "(" +
                    (item.arg ? ExprToString(item.arg, name) : "*") + ")");
      }
      out += "[" + Join(g, ",") + "; " + Join(a, ",") + "]";
      break;
    }
    case PhysOpKind::kSpoolScan:
      out += StrFormat("(cse=%d)", cse_id);
      break;
    default:
      break;
  }
  if (filter != nullptr) out += " filter: " + ExprToString(filter, name);
  if (join_residual != nullptr) {
    out += " residual: " + ExprToString(join_residual, name);
  }
  if (nl_pred != nullptr) out += " pred: " + ExprToString(nl_pred, name);
  out += StrFormat("  (rows=%.0f cost=%.1f)", est_rows, est_cost);
  out += "\n";
  for (const PhysicalNodePtr& c : children) {
    out += c->ToString(name, indent + 1);
  }
  return out;
}

std::string ExecutablePlan::ToString(
    const std::function<std::string(ColId)>& name) const {
  std::string out;
  for (const CsePlan& cse : cse_plans) {
    out += StrFormat("=== CSE %d (spool) ===\n", cse.cse_id);
    out += cse.plan->ToString(name);
  }
  out += "=== Query plan ===\n";
  out += root->ToString(name);
  out += StrFormat("total estimated cost: %.1f\n", est_cost);
  return out;
}

}  // namespace subshare
