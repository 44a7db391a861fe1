#include "expr/evaluator.h"

#include "util/check.h"

namespace subshare {

int Layout::IndexOf(ColId col) const {
  for (size_t i = 0; i < cols_.size(); ++i) {
    if (cols_[i] == col) return static_cast<int>(i);
  }
  return -1;
}

bool Layout::ContainsAll(const std::set<ColId>& cols) const {
  for (ColId c : cols) {
    if (IndexOf(c) < 0) return false;
  }
  return true;
}

ExprPtr BindExpr(const ExprPtr& e, const Layout& layout) {
  if (e == nullptr) return nullptr;
  if (e->kind == ExprKind::kColumn) {
    int idx = layout.IndexOf(e->column);
    CHECK(idx >= 0) << "column c" << e->column << " missing from layout";
    return Expr::Bound(idx, e->type);
  }
  if (e->children.empty()) return e;
  std::vector<ExprPtr> children;
  children.reserve(e->children.size());
  for (const ExprPtr& c : e->children) children.push_back(BindExpr(c, layout));
  auto copy = std::make_shared<Expr>(*e);
  copy->children = std::move(children);
  return copy;
}

}  // namespace subshare
