// Cardinality estimation over memo groups.
//
// Uses per-column statistics (row counts, min/max, NDV) with textbook
// assumptions: uniformity, independence between predicates, and containment
// for equijoins (selectivity 1/max(ndv)). Estimates are memoized per group
// so all logically equivalent expressions agree — a property the CSE cost
// heuristics (§4.3) rely on.
#ifndef SUBSHARE_OPTIMIZER_CARDINALITY_H_
#define SUBSHARE_OPTIMIZER_CARDINALITY_H_

#include "optimizer/memo.h"

namespace subshare {

class CardinalityEstimator {
 public:
  explicit CardinalityEstimator(Memo* memo) : memo_(memo) {}

  // Estimated output rows of a group (memoized in Group::cardinality).
  double GroupCardinality(GroupId g);

  // Combined selectivity of `conjuncts` against source rows described by
  // `input_rows` (used for scans, filters, and join predicates).
  double Selectivity(const std::vector<ExprPtr>& conjuncts);

  // Selectivity of one conjunct; Selectivity() is the product of these in
  // order (clamped), so callers may cache per-conjunct factors.
  double ConjunctSelectivity(const ExprPtr& conjunct);

  // Estimated distinct values of a column (base-table NDV where known,
  // otherwise `fallback`).
  double ColumnNdv(ColId col, double fallback);

 private:
  double EstimateExpr(const GroupExpr& expr);

  Memo* memo_;
};

}  // namespace subshare

#endif  // SUBSHARE_OPTIMIZER_CARDINALITY_H_
