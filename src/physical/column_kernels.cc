#include "physical/column_kernels.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace subshare {

namespace {

bool IsIntFamily(DataType t) {
  return t == DataType::kInt64 || t == DataType::kDate ||
         t == DataType::kBool;
}

// Compacts sel[0..count) to the rows where `pass` holds; returns new count.
// The store-then-advance pattern keeps the loop branch-light so the
// compiler can vectorize it.
template <typename Pred>
inline int Select(int32_t* sel, int count, Pred pass) {
  int out = 0;
  for (int i = 0; i < count; ++i) {
    int32_t r = sel[i];
    sel[out] = r;
    out += pass(r) ? 1 : 0;
  }
  return out;
}

// Comparison dispatch: one tight loop per operator over the operand
// readers a(r) / b(r) (a column cell, a literal, a widened int).
template <typename A, typename B>
inline int CmpSelect(CmpOp op, A a, B b, int32_t* sel, int count) {
  switch (op) {
    case CmpOp::kEq:
      return Select(sel, count, [=](int32_t r) { return a(r) == b(r); });
    case CmpOp::kNe:
      return Select(sel, count, [=](int32_t r) { return a(r) != b(r); });
    case CmpOp::kLt:
      return Select(sel, count, [=](int32_t r) { return a(r) < b(r); });
    case CmpOp::kLe:
      return Select(sel, count, [=](int32_t r) { return a(r) <= b(r); });
    case CmpOp::kGt:
      return Select(sel, count, [=](int32_t r) { return a(r) > b(r); });
    case CmpOp::kGe:
      return Select(sel, count, [=](int32_t r) { return a(r) >= b(r); });
  }
  return count;
}

// Operand readers: cell r of a span, cell r widened to double, a constant.
template <typename T>
auto Cells(const T* v) {
  return [v](int32_t r) { return v[r]; };
}
inline auto AsDouble(const int64_t* v) {
  return [v](int32_t r) { return static_cast<double>(v[r]); };
}
template <typename T>
auto Const(T lit) {
  return [lit](int32_t) { return lit; };
}

}  // namespace

bool CompiledPredicate::CompileComparison(
    const Expr& e, const std::vector<ColumnVector>& cols) {
  const Expr& lhs = *e.children[0];
  const Expr& rhs = *e.children[1];

  // column vs column
  if (lhs.kind == ExprKind::kBoundColumn &&
      rhs.kind == ExprKind::kBoundColumn) {
    const ColumnVector& a = cols[lhs.bound_index];
    const ColumnVector& b = cols[rhs.bound_index];
    if (a.type == DataType::kString || b.type == DataType::kString) {
      return false;  // string-vs-string col compares stay in the residual
    }
    Step s;
    s.col = lhs.bound_index;
    s.col2 = rhs.bound_index;
    s.op = e.cmp;
    // Value::Compare compares exactly iff neither side is a double.
    s.kind = IsIntFamily(a.type) && IsIntFamily(b.type)
                 ? Step::kColColInt
                 : Step::kColColDouble;
    steps_.push_back(std::move(s));
    return true;
  }

  if (lhs.kind != ExprKind::kBoundColumn || rhs.kind != ExprKind::kLiteral) {
    return false;
  }
  const Value& lit = rhs.literal;
  if (lit.is_null()) {  // comparison with NULL is always false
    always_false_ = true;
    return true;
  }
  const ColumnVector& col = cols[lhs.bound_index];
  Step s;
  s.col = lhs.bound_index;
  s.op = e.cmp;

  if (col.type == DataType::kString) {
    if (lit.type() != DataType::kString) return false;
    const StringDictionary& dict = *col.dict;
    const std::string& target = lit.AsString();
    switch (e.cmp) {
      case CmpOp::kEq: {
        int32_t code = dict.Find(target);
        if (code < 0) {
          always_false_ = true;
          return true;
        }
        s.kind = Step::kStrEq;
        s.code = code;
        break;
      }
      case CmpOp::kNe:
        // A -1 code (absent value) never equals a stored code, so every
        // non-null row passes — the loop shape stays uniform.
        s.kind = Step::kStrNe;
        s.code = dict.Find(target);
        break;
      case CmpOp::kLt:
        s.kind = Step::kStrRange;
        s.rank_thr = dict.LowerBoundRank(target);
        s.pass_if_less = true;
        break;
      case CmpOp::kLe:
        s.kind = Step::kStrRange;
        s.rank_thr = dict.UpperBoundRank(target);
        s.pass_if_less = true;
        break;
      case CmpOp::kGt:
        s.kind = Step::kStrRange;
        s.rank_thr = dict.UpperBoundRank(target);
        s.pass_if_less = false;
        break;
      case CmpOp::kGe:
        s.kind = Step::kStrRange;
        s.rank_thr = dict.LowerBoundRank(target);
        s.pass_if_less = false;
        break;
    }
    if (s.kind == Step::kStrRange) s.ranks = dict.EnsureRanks();
    steps_.push_back(std::move(s));
    return true;
  }

  // Numeric column. Mirror Value::Compare: exact int64 iff neither side is
  // a double; otherwise compare as doubles.
  if (lit.type() == DataType::kString) return false;  // type-mismatched
  if (col.type == DataType::kDouble) {
    s.kind = Step::kDoubleCmp;
    s.dval = lit.AsDouble();
  } else if (lit.type() == DataType::kDouble) {
    s.kind = Step::kIntCmpDouble;
    s.dval = lit.AsDouble();
  } else {
    s.kind = Step::kIntCmp;
    s.ival = lit.AsInt64();
  }
  steps_.push_back(std::move(s));
  return true;
}

bool CompiledPredicate::CompileInList(const Expr& or_expr,
                                      const std::vector<ColumnVector>& cols) {
  // OR of equalities on one column (how IN desugars). Anything else is not
  // lowered here.
  int col = -1;
  std::vector<const Value*> lits;
  for (const ExprPtr& child : or_expr.children) {
    if (child->kind != ExprKind::kComparison || child->cmp != CmpOp::kEq) {
      return false;
    }
    const Expr& l = *child->children[0];
    const Expr& r = *child->children[1];
    if (l.kind != ExprKind::kBoundColumn || r.kind != ExprKind::kLiteral) {
      return false;
    }
    if (col < 0) col = l.bound_index;
    if (l.bound_index != col) return false;
    lits.push_back(&r.literal);
  }
  if (col < 0) return false;

  const ColumnVector& column = cols[col];
  Step s;
  s.col = col;
  if (column.type == DataType::kString) {
    s.kind = Step::kStrIn;
    for (const Value* lit : lits) {
      if (lit->is_null()) continue;  // = NULL disjunct is always false
      if (lit->type() != DataType::kString) return false;
      int32_t code = column.dict->Find(lit->AsString());
      if (code >= 0) s.code_set.push_back(code);
    }
    if (s.code_set.empty()) {
      always_false_ = true;
      return true;
    }
    std::sort(s.code_set.begin(), s.code_set.end());
  } else {
    s.kind = Step::kIntIn;
    for (const Value* lit : lits) {
      if (lit->is_null()) continue;
      if (lit->type() == DataType::kString) return false;
      if (lit->type() == DataType::kDouble) {
        // An integral double equals the matching int64; a fractional one
        // matches nothing (int-family columns hold integers).
        double d = lit->AsDouble();
        if (column.type == DataType::kDouble) return false;  // unreachable
        if (d != std::floor(d) || std::abs(d) >= 9.0e18) continue;
        s.int_set.push_back(static_cast<int64_t>(d));
      } else {
        s.int_set.push_back(lit->AsInt64());
      }
    }
    if (column.type == DataType::kDouble) {
      // Double-typed columns keep exact double IN semantics in the
      // residual; lowering would need a double set — rare, not worth it.
      return false;
    }
    if (s.int_set.empty()) {
      always_false_ = true;
      return true;
    }
    std::sort(s.int_set.begin(), s.int_set.end());
    s.int_set.erase(std::unique(s.int_set.begin(), s.int_set.end()),
                    s.int_set.end());
  }
  steps_.push_back(std::move(s));
  return true;
}

bool CompiledPredicate::CompileConjunct(
    const ExprPtr& conjunct, const std::vector<ColumnVector>& cols) {
  if (conjunct->kind == ExprKind::kComparison) {
    return CompileComparison(*conjunct, cols);
  }
  if (conjunct->kind == ExprKind::kOr) {
    return CompileInList(*conjunct, cols);
  }
  return false;
}

CompiledPredicate CompiledPredicate::Compile(
    const ExprPtr& bound, const std::vector<ColumnVector>& cols) {
  CompiledPredicate p;
  if (bound == nullptr) return p;
  std::vector<ExprPtr> residual;
  for (const ExprPtr& conjunct : SplitConjuncts(bound)) {
    if (!p.CompileConjunct(conjunct, cols)) residual.push_back(conjunct);
    if (p.always_false_) {
      p.steps_.clear();
      p.residual_ = nullptr;
      return p;
    }
  }
  if (!residual.empty()) {
    p.residual_ = std::make_shared<ExprProgram>(CombineConjuncts(residual));
  }
  return p;
}

int CompiledPredicate::RunSteps(const std::vector<ColumnVector>& cols,
                                int32_t* sel, int count) const {
  for (const Step& s : steps_) {
    if (count == 0) break;
    const ColumnVector& col = cols[s.col];
    // Null cells fail every comparison; compact them away first so the
    // typed loops can trust the placeholder-free data.
    if (col.nulls != nullptr) {
      count = Select(sel, count, [&](int32_t r) { return !col.IsNull(r); });
    }
    if (s.col2 >= 0 && cols[s.col2].nulls != nullptr) {
      const ColumnVector& col2 = cols[s.col2];
      count = Select(sel, count, [&](int32_t r) { return !col2.IsNull(r); });
    }
    switch (s.kind) {
      case Step::kFalse:
        return 0;
      case Step::kIntCmp:
        count = CmpSelect(s.op, Cells(col.ints), Const(s.ival), sel, count);
        break;
      case Step::kIntCmpDouble:
        count = CmpSelect(s.op, AsDouble(col.ints), Const(s.dval), sel, count);
        break;
      case Step::kDoubleCmp:
        count = CmpSelect(s.op, Cells(col.doubles), Const(s.dval), sel, count);
        break;
      case Step::kIntIn: {
        const int64_t* v = col.ints;
        if (s.int_set.size() <= 4) {
          // Small sets (the common IN shape): unrolled membership test.
          int64_t k0 = s.int_set[0];
          int64_t k1 = s.int_set.size() > 1 ? s.int_set[1] : k0;
          int64_t k2 = s.int_set.size() > 2 ? s.int_set[2] : k0;
          int64_t k3 = s.int_set.size() > 3 ? s.int_set[3] : k0;
          count = Select(sel, count, [=](int32_t r) {
            int64_t x = v[r];
            return x == k0 || x == k1 || x == k2 || x == k3;
          });
        } else {
          const std::vector<int64_t>& set = s.int_set;
          count = Select(sel, count, [&](int32_t r) {
            return std::binary_search(set.begin(), set.end(), v[r]);
          });
        }
        break;
      }
      case Step::kStrEq: {
        const int32_t* codes = col.codes;
        const int32_t target = s.code;
        count =
            Select(sel, count, [=](int32_t r) { return codes[r] == target; });
        break;
      }
      case Step::kStrNe: {
        const int32_t* codes = col.codes;
        const int32_t target = s.code;
        count =
            Select(sel, count, [=](int32_t r) { return codes[r] != target; });
        break;
      }
      case Step::kStrRange: {
        const int32_t* codes = col.codes;
        const int32_t* ranks = s.ranks;
        const int32_t thr = s.rank_thr;
        const bool pass_if_less = s.pass_if_less;
        if (ranks == nullptr) {  // sorted dictionary: codes ARE ranks
          count = Select(sel, count, [=](int32_t r) {
            return (codes[r] < thr) == pass_if_less;
          });
        } else {
          count = Select(sel, count, [=](int32_t r) {
            return (ranks[codes[r]] < thr) == pass_if_less;
          });
        }
        break;
      }
      case Step::kStrIn: {
        const int32_t* codes = col.codes;
        if (s.code_set.size() <= 4) {
          int32_t k0 = s.code_set[0];
          int32_t k1 = s.code_set.size() > 1 ? s.code_set[1] : k0;
          int32_t k2 = s.code_set.size() > 2 ? s.code_set[2] : k0;
          int32_t k3 = s.code_set.size() > 3 ? s.code_set[3] : k0;
          count = Select(sel, count, [=](int32_t r) {
            int32_t x = codes[r];
            return x == k0 || x == k1 || x == k2 || x == k3;
          });
        } else {
          const std::vector<int32_t>& set = s.code_set;
          count = Select(sel, count, [&](int32_t r) {
            return std::binary_search(set.begin(), set.end(), codes[r]);
          });
        }
        break;
      }
      case Step::kColColInt:
        count = CmpSelect(s.op, Cells(col.ints), Cells(cols[s.col2].ints), sel,
                          count);
        break;
      case Step::kColColDouble: {
        // At least one side is a double column; both read as doubles,
        // matching Value::Compare's AsDouble path.
        const ColumnVector& rhs = cols[s.col2];
        if (col.type != DataType::kDouble) {
          count = CmpSelect(s.op, AsDouble(col.ints), Cells(rhs.doubles), sel,
                            count);
        } else if (rhs.type != DataType::kDouble) {
          count = CmpSelect(s.op, Cells(col.doubles), AsDouble(rhs.ints), sel,
                            count);
        } else {
          count = CmpSelect(s.op, Cells(col.doubles), Cells(rhs.doubles), sel,
                            count);
        }
        break;
      }
    }
  }
  return count;
}

int CompiledPredicate::Filter(const std::vector<ColumnVector>& cols,
                              int32_t* sel, int count) {
  if (always_false_) return 0;
  count = RunSteps(cols, sel, count);
  if (residual_ == nullptr || count == 0) return count;
  const ColumnBuffer& keep = residual_->Eval(cols, sel, count);
  const ColumnVector v = keep.view();
  int out = 0;
  for (int i = 0; i < count; ++i) {
    sel[out] = sel[i];
    out += !v.IsNull(i) && v.ints[i] != 0 ? 1 : 0;
  }
  return out;
}

int CompiledPredicate::FilterDense(const std::vector<ColumnVector>& cols,
                                   int64_t start, int n, int32_t* sel) {
  if (always_false_) return 0;
  for (int i = 0; i < n; ++i) sel[i] = static_cast<int32_t>(start + i);
  return Filter(cols, sel, n);
}

int CompiledPredicate::FilterPositions(const std::vector<ColumnVector>& cols,
                                       const int64_t* pos, int n,
                                       int32_t* sel) {
  if (always_false_) return 0;
  for (int i = 0; i < n; ++i) sel[i] = static_cast<int32_t>(pos[i]);
  return Filter(cols, sel, n);
}

// ------------------------------------------------------------ ExprProgram ---

namespace {

// Two's-complement arithmetic: integer overflow wraps instead of being
// undefined.
int64_t WrapOp(ArithOp op, int64_t a, int64_t b) {
  const uint64_t ua = static_cast<uint64_t>(a);
  const uint64_t ub = static_cast<uint64_t>(b);
  switch (op) {
    case ArithOp::kAdd: return static_cast<int64_t>(ua + ub);
    case ArithOp::kSub: return static_cast<int64_t>(ua - ub);
    case ArithOp::kMul: return static_cast<int64_t>(ua * ub);
    case ArithOp::kDiv:
      return b == -1 ? static_cast<int64_t>(0 - ua) : a / b;  // b != 0
  }
  return 0;
}

double DoubleOp(ArithOp op, double a, double b) {
  switch (op) {
    case ArithOp::kAdd: return a + b;
    case ArithOp::kSub: return a - b;
    case ArithOp::kMul: return a * b;
    case ArithOp::kDiv: return a / b;  // b != 0
  }
  return 0;
}

inline bool CmpHolds(CmpOp op, int c) {
  switch (op) {
    case CmpOp::kEq: return c == 0;
    case CmpOp::kNe: return c != 0;
    case CmpOp::kLt: return c < 0;
    case CmpOp::kLe: return c <= 0;
    case CmpOp::kGt: return c > 0;
    case CmpOp::kGe: return c >= 0;
  }
  return false;
}

template <typename T>
inline int Cmp3(T a, T b) {
  return a < b ? -1 : (a > b ? 1 : 0);
}

// Cell i of a dense buffer read as a double (int-family cells convert).
inline const double* AsDoubles(const ColumnVector& v, int n,
                               std::vector<double>* scratch) {
  if (v.type == DataType::kDouble) return v.doubles;
  scratch->resize(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) (*scratch)[i] = static_cast<double>(v.ints[i]);
  return scratch->data();
}

inline bool Truthy(const ColumnVector& v, int i) {
  return !v.IsNull(i) && v.ints[i] != 0;
}

}  // namespace

ExprProgram::ExprProgram(const ExprPtr& bound) : bound_(bound) {
  if (bound_ != nullptr) Build(*bound_, &root_);
}

void ExprProgram::Build(const Expr& e, Node* node) {
  node->expr = &e;
  node->children.resize(e.children.size());
  for (size_t i = 0; i < e.children.size(); ++i) {
    Build(*e.children[i], &node->children[i]);
  }
}

const ColumnBuffer& ExprProgram::Eval(const std::vector<ColumnVector>& cols,
                                      const int32_t* rows, int n) {
  DCHECK(bound_ != nullptr);
  EvalNode(&root_, cols, rows, n);
  return root_.out;
}

void ExprProgram::EvalNode(Node* node, const std::vector<ColumnVector>& cols,
                           const int32_t* rows, int n) {
  const Expr& e = *node->expr;
  ColumnBuffer& out = node->out;
  switch (e.kind) {
    case ExprKind::kBoundColumn:
      out.clear();
      out.Gather(cols[e.bound_index], rows, n);
      return;
    case ExprKind::kColumn:
      CHECK(false) << "unbound column in ExprProgram";
      return;
    case ExprKind::kLiteral: {
      const Value& v = e.literal;
      if (v.type() == DataType::kDouble) {
        std::fill_n(out.MutableDoubles(n), n, v.is_null() ? 0 : v.AsDouble());
      } else if (v.type() == DataType::kString) {
        if (node->literal.empty() && !v.is_null()) node->literal.Intern(v.AsString());
        out.SetDict(node->literal);
        std::fill_n(out.MutableCodes(n), n, v.is_null() ? -1 : 0);
      } else {
        std::fill_n(out.MutableInts(v.type(), n), n, v.is_null() ? 0 : v.AsInt64());
      }
      if (v.is_null()) {
        for (int i = 0; i < n; ++i) out.SetNull(i);
      }
      return;
    }
    default:
      break;
  }
  for (Node& c : node->children) EvalNode(&c, cols, rows, n);
  switch (e.kind) {
    case ExprKind::kArith: {
      const ColumnVector l = node->children[0].out.view();
      const ColumnVector r = node->children[1].out.view();
      if (e.type == DataType::kInt64) {
        int64_t* v = out.MutableInts(DataType::kInt64, n);
        for (int i = 0; i < n; ++i) {
          if (l.IsNull(i) || r.IsNull(i) ||
              (e.arith == ArithOp::kDiv && r.ints[i] == 0)) {
            v[i] = 0;
            out.SetNull(i);
          } else {
            v[i] = WrapOp(e.arith, l.ints[i], r.ints[i]);
          }
        }
        return;
      }
      const double* a = AsDoubles(l, n, &node->lhs);
      const double* b = AsDoubles(r, n, &node->rhs);
      double* v = out.MutableDoubles(n);
      for (int i = 0; i < n; ++i) {
        if (l.IsNull(i) || r.IsNull(i) ||
            (e.arith == ArithOp::kDiv && b[i] == 0)) {
          v[i] = 0;
          out.SetNull(i);
        } else {
          v[i] = DoubleOp(e.arith, a[i], b[i]);
        }
      }
      return;
    }
    case ExprKind::kComparison: {
      const ColumnVector l = node->children[0].out.view();
      const ColumnVector r = node->children[1].out.view();
      int64_t* v = out.MutableInts(DataType::kBool, n);
      const CmpOp op = e.cmp;
      if (l.type == DataType::kString || r.type == DataType::kString) {
        DCHECK(l.type == DataType::kString && r.type == DataType::kString);
        const bool same_dict = l.dict == r.dict;
        for (int i = 0; i < n; ++i) {
          if (l.IsNull(i) || r.IsNull(i)) {
            v[i] = 0;
            continue;
          }
          const int32_t a = l.codes[i], b = r.codes[i];
          const int c = same_dict && a == b
                            ? 0
                            : l.dict->value(a).compare(r.dict->value(b));
          v[i] = CmpHolds(op, c);
        }
        return;
      }
      if (l.type != DataType::kDouble && r.type != DataType::kDouble) {
        for (int i = 0; i < n; ++i) {
          v[i] = !l.IsNull(i) && !r.IsNull(i) &&
                 CmpHolds(op, Cmp3(l.ints[i], r.ints[i]));
        }
        return;
      }
      const double* a = AsDoubles(l, n, &node->lhs);
      const double* b = AsDoubles(r, n, &node->rhs);
      for (int i = 0; i < n; ++i) {
        v[i] = !l.IsNull(i) && !r.IsNull(i) && CmpHolds(op, Cmp3(a[i], b[i]));
      }
      return;
    }
    case ExprKind::kAnd:
    case ExprKind::kOr: {
      const bool is_and = e.kind == ExprKind::kAnd;
      int64_t* v = out.MutableInts(DataType::kBool, n);
      for (int i = 0; i < n; ++i) v[i] = is_and ? 1 : 0;
      for (Node& c : node->children) {
        const ColumnVector cv = c.out.view();
        for (int i = 0; i < n; ++i) {
          if (is_and) {
            v[i] &= Truthy(cv, i) ? 1 : 0;
          } else {
            v[i] |= Truthy(cv, i) ? 1 : 0;
          }
        }
      }
      return;
    }
    case ExprKind::kNot: {
      const ColumnVector cv = node->children[0].out.view();
      int64_t* v = out.MutableInts(DataType::kBool, n);
      for (int i = 0; i < n; ++i) v[i] = Truthy(cv, i) ? 0 : 1;
      return;
    }
    default:
      CHECK(false) << "unexpected expression kind in ExprProgram";
  }
}

}  // namespace subshare
