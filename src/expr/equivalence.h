// Column equivalence classes (paper §4.1).
//
// The equijoins of a normalized SPJ expression are summarized by equivalence
// classes of columns known to be equal in its result. Join compatibility of
// two expressions (Def. 4.1) is decided by intersecting their classes and
// checking that the induced equijoin graph over the source tables is
// connected.
//
// The representation is flat and canonical: every column of a class with at
// least two members maps to its class minimum, and the classes are kept
// sorted. Two objects holding the same partition are therefore equal member
// for member, Classes() is a view rather than a rebuild, and Intersect is a
// sort-merge on (root in a, root in b) pairs — commutative and associative,
// which the incremental covering construction in core/candidate_gen relies
// on.
#ifndef SUBSHARE_EXPR_EQUIVALENCE_H_
#define SUBSHARE_EXPR_EQUIVALENCE_H_

#include <algorithm>
#include <functional>
#include <utility>
#include <vector>

#include "expr/expr.h"

namespace subshare {

class EquivalenceClasses {
 public:
  EquivalenceClasses() = default;

  // Records a = b (a self-equality a = a records nothing).
  void AddEquality(ColId a, ColId b);

  // Builds classes from the column-equality conjuncts in `conjuncts`
  // (other conjuncts are ignored).
  static EquivalenceClasses FromConjuncts(const std::vector<ExprPtr>& conjuncts);

  // True iff a and b are in one class.
  bool AreEquivalent(ColId a, ColId b) const { return Root(a) == Root(b); }

  // All classes with at least two members, each sorted, classes sorted by
  // first member (deterministic output).
  const std::vector<std::vector<ColId>>& Classes() const { return classes_; }

  // Natural intersection (paper §4.1): for every pair of classes, one from
  // each side, output their intersection (keeping results of size >= 2).
  static EquivalenceClasses Intersect(const EquivalenceClasses& a,
                                      const EquivalenceClasses& b);

  // True iff every equality recorded here also holds in `other`, i.e.
  // Intersect(*this, other) == *this.
  bool ImpliedBy(const EquivalenceClasses& other) const;

  // True iff the equijoin graph induced by these classes connects all nodes
  // in `nodes`, where `node_of(ColId) -> int` maps a column to its table node
  // (or -1 to ignore the column). Definition 4.1's connectivity test.
  template <typename NodeOf>
  bool ConnectsNodes(std::vector<int> nodes, const NodeOf& node_of) const;

  // Minimal equality conjuncts implied by the classes (k-1 per class of
  // size k, chaining sorted members). `type_of` supplies column types.
  std::vector<ExprPtr> ToConjuncts(
      const std::function<DataType(ColId)>& type_of) const;

  bool empty() const { return classes_.empty(); }

  bool operator==(const EquivalenceClasses& other) const {
    return classes_ == other.classes_;
  }

 private:
  // Builds the canonical form from disjoint sorted classes of size >= 2.
  static EquivalenceClasses FromClasses(
      std::vector<std::vector<ColId>> classes);

  // Class minimum of `c`, or `c` itself when it is in no class.
  ColId Root(ColId c) const;

  // (column, class minimum), sorted by column.
  std::vector<std::pair<ColId, ColId>> root_;
  std::vector<std::vector<ColId>> classes_;
};

template <typename NodeOf>
bool EquivalenceClasses::ConnectsNodes(std::vector<int> nodes,
                                       const NodeOf& node_of) const {
  std::sort(nodes.begin(), nodes.end());
  nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
  if (nodes.size() <= 1) return true;
  // Union-find over positions in `nodes`, driven by the classes.
  std::vector<int> parent(nodes.size());
  for (size_t i = 0; i < parent.size(); ++i) parent[i] = static_cast<int>(i);
  auto find = [&parent](int i) {
    while (parent[i] != i) {
      parent[i] = parent[parent[i]];
      i = parent[i];
    }
    return i;
  };
  for (const std::vector<ColId>& cls : classes_) {
    int first = -1;
    for (ColId c : cls) {
      const int n = node_of(c);
      auto it = std::lower_bound(nodes.begin(), nodes.end(), n);
      if (n < 0 || it == nodes.end() || *it != n) continue;
      int i = static_cast<int>(it - nodes.begin());
      if (first < 0) {
        first = i;
      } else {
        parent[find(i)] = find(first);
      }
    }
  }
  int root = find(0);
  for (size_t i = 1; i < nodes.size(); ++i) {
    if (find(static_cast<int>(i)) != root) return false;
  }
  return true;
}

}  // namespace subshare

#endif  // SUBSHARE_EXPR_EQUIVALENCE_H_
