// Operator cost model.
//
// Costs are abstract units roughly proportional to bytes touched. The model
// distinguishes the three CSE cost components of paper §4.3.2 / §5.2:
//   C_E — evaluating the covering expression once (ordinary operator costs),
//   C_W — the spool writing its result to a work table (SpoolWriteCost),
//   C_R — a consumer reading the work table (SpoolReadCost).
#ifndef SUBSHARE_OPTIMIZER_COST_MODEL_H_
#define SUBSHARE_OPTIMIZER_COST_MODEL_H_

#include <cmath>

#include "types/schema.h"

namespace subshare {

struct CostModel {
  // Per-row base CPU cost plus a per-byte component.
  static double RowCost(double width_bytes) {
    return 0.2 + 0.01 * width_bytes;
  }

  static double TableScan(double table_rows, double row_width) {
    return table_rows * RowCost(row_width);
  }
  // A sorted-index range scan touching `matched_rows`.
  static double IndexScan(double matched_rows, double row_width) {
    return 25.0 + matched_rows * RowCost(row_width) * 1.2;
  }
  static double Filter(double input_rows) { return input_rows * 0.1; }
  static double HashJoin(double build_rows, double build_width,
                         double probe_rows, double output_rows) {
    return build_rows * (1.0 + 0.005 * build_width) + probe_rows * 0.7 +
           output_rows * 0.3;
  }
  // Index nested loops: per-outer-row index probe + matched-row fetch.
  static double IndexNlJoin(double outer_rows, double inner_rows,
                            double output_rows, double inner_width) {
    double log_n = inner_rows > 1 ? std::log2(inner_rows) : 1.0;
    return outer_rows * (1.5 + 0.25 * log_n) +
           output_rows * RowCost(inner_width) * 1.5;
  }
  static double NlJoin(double left_rows, double right_rows,
                       double output_rows) {
    return left_rows + right_rows + left_rows * right_rows * 0.2 +
           output_rows * 0.3;
  }
  static double HashAgg(double input_rows, double output_rows) {
    return input_rows * 1.2 + output_rows * 0.5;
  }
  static double Project(double input_rows) { return input_rows * 0.05; }
  static double Sort(double input_rows);

  // C_W: materializing `rows` of `width` bytes into a work table.
  static double SpoolWriteCost(double rows, double width_bytes) {
    return rows * RowCost(width_bytes) * 2.0;
  }
  // C_R: one consumer reading the work table sequentially.
  static double SpoolReadCost(double rows, double width_bytes) {
    return rows * RowCost(width_bytes);
  }
};

}  // namespace subshare

#endif  // SUBSHARE_OPTIMIZER_COST_MODEL_H_
