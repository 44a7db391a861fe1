#include "expr/equivalence.h"

#include <iterator>
#include <tuple>

namespace subshare {

namespace {

bool ByFirstMember(const std::vector<ColId>& a, const std::vector<ColId>& b) {
  return a.front() < b.front();
}

}  // namespace

ColId EquivalenceClasses::Root(ColId c) const {
  auto it = std::lower_bound(
      root_.begin(), root_.end(), c,
      [](const std::pair<ColId, ColId>& e, ColId col) { return e.first < col; });
  return it != root_.end() && it->first == c ? it->second : c;
}

EquivalenceClasses EquivalenceClasses::FromClasses(
    std::vector<std::vector<ColId>> classes) {
  EquivalenceClasses out;
  std::sort(classes.begin(), classes.end(), ByFirstMember);
  for (const std::vector<ColId>& cls : classes) {
    for (ColId c : cls) out.root_.emplace_back(c, cls.front());
  }
  std::sort(out.root_.begin(), out.root_.end());
  out.classes_ = std::move(classes);
  return out;
}

void EquivalenceClasses::AddEquality(ColId a, ColId b) {
  const ColId ra = Root(a), rb = Root(b);
  if (ra == rb) return;
  // Pull both classes out (a column in no class is its own singleton).
  auto take = [this](ColId root, ColId col) {
    std::vector<ColId> cls = {col};
    auto it = std::lower_bound(
        classes_.begin(), classes_.end(), std::vector<ColId>{root},
        ByFirstMember);
    if (it != classes_.end() && it->front() == root) {
      cls = std::move(*it);
      classes_.erase(it);
    }
    return cls;
  };
  std::vector<ColId> ca = take(ra, a), cb = take(rb, b);
  std::vector<ColId> merged;
  merged.reserve(ca.size() + cb.size());
  std::merge(ca.begin(), ca.end(), cb.begin(), cb.end(),
             std::back_inserter(merged));
  for (ColId c : merged) {
    auto it = std::lower_bound(
        root_.begin(), root_.end(), c,
        [](const std::pair<ColId, ColId>& e, ColId col) {
          return e.first < col;
        });
    if (it != root_.end() && it->first == c) {
      it->second = merged.front();
    } else {
      root_.insert(it, {c, merged.front()});
    }
  }
  classes_.insert(std::lower_bound(classes_.begin(), classes_.end(), merged,
                                   ByFirstMember),
                  std::move(merged));
}

EquivalenceClasses EquivalenceClasses::FromConjuncts(
    const std::vector<ExprPtr>& conjuncts) {
  EquivalenceClasses ec;
  for (const ExprPtr& c : conjuncts) {
    ColId a, b;
    if (IsColumnEquality(c, &a, &b)) ec.AddEquality(a, b);
  }
  return ec;
}

EquivalenceClasses EquivalenceClasses::Intersect(const EquivalenceClasses& a,
                                                 const EquivalenceClasses& b) {
  // Columns present on both sides keyed by (root in a, root in b); each run
  // of equal keys is one class of the intersection, already sorted.
  std::vector<std::tuple<ColId, ColId, ColId>> keyed;
  auto ia = a.root_.begin(), ib = b.root_.begin();
  while (ia != a.root_.end() && ib != b.root_.end()) {
    if (ia->first < ib->first) {
      ++ia;
    } else if (ib->first < ia->first) {
      ++ib;
    } else {
      keyed.emplace_back(ia->second, ib->second, ia->first);
      ++ia;
      ++ib;
    }
  }
  std::sort(keyed.begin(), keyed.end());
  std::vector<std::vector<ColId>> classes;
  for (size_t i = 0; i < keyed.size();) {
    size_t end = i + 1;
    while (end < keyed.size() &&
           std::get<0>(keyed[end]) == std::get<0>(keyed[i]) &&
           std::get<1>(keyed[end]) == std::get<1>(keyed[i])) {
      ++end;
    }
    if (end - i >= 2) {
      std::vector<ColId> cls;
      for (size_t k = i; k < end; ++k) cls.push_back(std::get<2>(keyed[k]));
      classes.push_back(std::move(cls));
    }
    i = end;
  }
  return FromClasses(std::move(classes));
}

bool EquivalenceClasses::ImpliedBy(const EquivalenceClasses& other) const {
  for (const std::vector<ColId>& cls : classes_) {
    const ColId root = other.Root(cls.front());
    for (size_t i = 1; i < cls.size(); ++i) {
      if (other.Root(cls[i]) != root) return false;
    }
  }
  return true;
}

std::vector<ExprPtr> EquivalenceClasses::ToConjuncts(
    const std::function<DataType(ColId)>& type_of) const {
  std::vector<ExprPtr> out;
  for (const std::vector<ColId>& cls : classes_) {
    for (size_t i = 1; i < cls.size(); ++i) {
      out.push_back(Expr::Compare(
          CmpOp::kEq, Expr::Column(cls[i - 1], type_of(cls[i - 1])),
          Expr::Column(cls[i], type_of(cls[i]))));
    }
  }
  return out;
}

}  // namespace subshare
