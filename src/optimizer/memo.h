// The memo: a compact DAG of groups of logically equivalent expressions
// (Graefe's Cascades structure, paper §2.1).
//
// Groups hold group expressions (LogicalOp payload + child group ids).
// Expression fingerprints deduplicate insertions. Each group records:
//   - its output columns (the canonical column set every plan must be able
//     to produce; plans actually produce the `required` subset),
//   - a creation parent (the original operator-tree edge), used for the
//     least-common-ancestor computation of paper §5.2,
//   - cost bounds filled during costing (used by the §4.3 heuristics).
#ifndef SUBSHARE_OPTIMIZER_MEMO_H_
#define SUBSHARE_OPTIMIZER_MEMO_H_

#include <set>
#include <unordered_map>
#include <vector>

#include "logical/query.h"
#include "util/bitset64.h"

namespace subshare {

using GroupId = int;
constexpr GroupId kInvalidGroup = -1;

struct GroupExpr {
  LogicalOp op;
  std::vector<GroupId> children;
  bool explored = false;  // transformation rules already applied

  size_t Hash() const;
  bool Equals(const GroupExpr& other) const;
};

struct Group {
  GroupId id = kInvalidGroup;
  std::vector<GroupExpr> exprs;
  std::vector<ColId> output;       // sorted canonical output column set
  GroupId creation_parent = kInvalidGroup;

  // Filled by the optimizer.
  std::set<ColId> required;        // columns any plan must produce
  double cardinality = -1;         // estimated output rows (memoized)
  double best_cost = -1;           // best plan cost from the normal phase
  double upper_cost = -1;          // max cost among complete alternatives
  Bitset64 relevant_cses;          // candidates reachable below this group

  // True if this group was created by the eager group-by rule (used to
  // bound recursive application).
  bool is_partial_aggregate = false;

  // When non-empty, plans for this group must produce exactly these columns
  // in this order (statement roots: the SELECT-list order).
  std::vector<ColId> fixed_output_order;

  bool HasOutput(ColId c) const {
    return std::binary_search(output.begin(), output.end(), c);
  }
};

class Memo {
 public:
  explicit Memo(QueryContext* ctx) : ctx_(ctx) {}
  Memo(const Memo&) = delete;
  Memo& operator=(const Memo&) = delete;

  QueryContext* ctx() { return ctx_; }

  int num_groups() const { return static_cast<int>(groups_.size()); }
  Group& group(GroupId g) { return groups_[g]; }
  const Group& group(GroupId g) const { return groups_[g]; }

  // Inserts an expression. If an equal expression exists anywhere, returns
  // its group (and does not duplicate). `target_group` forces membership
  // (rule outputs); kInvalidGroup creates a new group on miss.
  // `creation_parent` seeds the LCA tree for newly created groups.
  GroupId InsertExpr(LogicalOp op, std::vector<GroupId> children,
                     GroupId target_group = kInvalidGroup,
                     GroupId creation_parent = kInvalidGroup,
                     bool* inserted = nullptr);

  // Recursively inserts a bound operator tree; returns its root group.
  GroupId InsertTree(const LogicalTree& tree,
                     GroupId creation_parent = kInvalidGroup);

  // Batch root group (set by the optimizer once built).
  GroupId root() const { return root_; }
  void set_root(GroupId g) { root_ = g; }

  // The columns an expression naturally produces, given children groups.
  std::vector<ColId> ComputeOutput(const LogicalOp& op,
                                   const std::vector<GroupId>& children) const;

  // Walks creation parents to the root of the creation tree.
  std::vector<GroupId> AncestorChain(GroupId g) const;

  // Lowest common ancestor in the creation tree; returns `fallback` when
  // the groups live in different creation trees (e.g. inside different CSE
  // evaluation expressions).
  GroupId LowestCommonAncestor(const std::vector<GroupId>& groups,
                               GroupId fallback) const;

  std::string ToString() const;

 private:
  QueryContext* ctx_;
  std::vector<Group> groups_;
  std::unordered_map<size_t, std::vector<std::pair<GroupId, int>>> index_;
  GroupId root_ = kInvalidGroup;
};

// True iff `desc` is reachable from `anc` through group-expression child
// edges (Definition 4.2's "descendant group in the memo structure").
bool IsDescendantGroup(const Memo& memo, GroupId desc, GroupId anc);

// Membership bitmap (indexed by GroupId) of every group reachable from any
// of `from` through child edges, `from` included: IsDescendantGroup for all
// (desc, anc ∈ from) pairs in one traversal.
std::vector<bool> DescendantGroups(const Memo& memo,
                                   const std::vector<GroupId>& from);

// Computes Group::required by propagating parent requirements and operator
// payload references downward to the least fixpoint above the current
// sets; `roots` are seeded with their full output. A worklist revisits only
// groups whose required set grew.
void ComputeRequiredColumns(Memo* memo, const std::vector<GroupId>& roots);

}  // namespace subshare

#endif  // SUBSHARE_OPTIMIZER_MEMO_H_
