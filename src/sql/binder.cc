#include "sql/binder.h"

#include <map>

#include "sql/parser.h"
#include "types/date.h"
#include "util/string_util.h"

namespace subshare::sql {

namespace {

CmpOp LowerCmp(AstCmp op) {
  switch (op) {
    case AstCmp::kEq: return CmpOp::kEq;
    case AstCmp::kNe: return CmpOp::kNe;
    case AstCmp::kLt: return CmpOp::kLt;
    case AstCmp::kLe: return CmpOp::kLe;
    case AstCmp::kGt: return CmpOp::kGt;
    case AstCmp::kGe: return CmpOp::kGe;
  }
  return CmpOp::kEq;
}

ArithOp LowerArith(AstArith op) {
  switch (op) {
    case AstArith::kAdd: return ArithOp::kAdd;
    case AstArith::kSub: return ArithOp::kSub;
    case AstArith::kMul: return ArithOp::kMul;
    case AstArith::kDiv: return ArithOp::kDiv;
  }
  return ArithOp::kAdd;
}

bool IsNumeric(DataType t) {
  return t == DataType::kInt64 || t == DataType::kDouble ||
         t == DataType::kDate;
}

// The evaluator reads arithmetic operands as numbers, so a string operand
// is a bind error, like a string-vs-number comparison. Unary minus on a
// non-literal parses as 0 - x and lands here too.
StatusOr<ExprPtr> BindArith(AstArith op, ExprPtr lhs, ExprPtr rhs) {
  if (lhs->type == DataType::kString || rhs->type == DataType::kString) {
    return Status::InvalidArgument("type mismatch in arithmetic: " +
                                   DataTypeName(lhs->type) + " vs " +
                                   DataTypeName(rhs->type));
  }
  return Expr::Arith(LowerArith(op), std::move(lhs), std::move(rhs));
}

// One FROM entry in scope: a base table or a derived table (subquery).
struct ScopeEntry {
  std::string alias;
  int rel_id = -1;                    // base tables only
  const Table* table = nullptr;      // null for derived tables
  std::vector<std::pair<std::string, ColId>> derived_columns;
  LogicalTreePtr derived_tree;       // bound subquery (derived tables)
};

class Binder {
 public:
  explicit Binder(QueryContext* ctx) : ctx_(ctx) {}

  StatusOr<Statement> Bind(const AstSelect& ast, const std::string& text);

 private:
  // --- scope / name resolution ---
  Status BuildScope(const AstSelect& ast);
  StatusOr<ColId> ResolveColumn(const std::string& qualifier,
                                const std::string& name) const;

  // --- expression binding ---
  // Binds a scalar expression with no aggregates allowed. Subqueries are
  // lowered via BindSubquery when `allow_subquery`.
  StatusOr<ExprPtr> BindScalar(const AstExpr& ast, bool allow_subquery);
  // Binds an expression above the GroupBy: aggregates become references to
  // aggregate output columns; plain columns must be grouping columns.
  StatusOr<ExprPtr> BindAboveAgg(const AstExpr& ast, bool allow_subquery);

  StatusOr<ExprPtr> BindComparison(const AstExpr& ast, bool above_agg,
                                   bool allow_subquery);
  StatusOr<ExprPtr> BindSubquery(const AstSelect& sub);

  // Registers (or reuses) an aggregate item; returns its output column.
  StatusOr<ColId> AddAggregate(AggFn fn, ExprPtr arg);

  bool ContainsAggregate(const AstExpr& ast) const;

  std::string DefaultName(const AstExpr& ast) const;

  QueryContext* ctx_;
  std::vector<ScopeEntry> scope_;
  bool has_group_by_ = false;
  std::vector<ColId> group_cols_;
  std::vector<AggregateItem> aggs_;
  // Subquery blocks to cross-join below the GroupBy (WHERE) and above it
  // (HAVING), in the order encountered.
  std::vector<LogicalTreePtr> where_subqueries_;
  std::vector<LogicalTreePtr> having_subqueries_;
  std::vector<LogicalTreePtr>* subquery_sink_ = nullptr;
};

Status Binder::BuildScope(const AstSelect& ast) {
  for (const AstTableRef& ref : ast.from) {
    for (const ScopeEntry& e : scope_) {
      if (e.alias == ref.alias) {
        return Status::InvalidArgument("duplicate table alias '" +
                                       ref.alias + "'");
      }
    }
    if (ref.derived != nullptr) {
      // Derived table: bind the subquery in its own scope; its projection
      // outputs become this entry's columns.
      Binder sub_binder(ctx_);
      ASSIGN_OR_RETURN(Statement stmt, sub_binder.Bind(*ref.derived, ""));
      const LogicalTree* node = stmt.root.get();
      if (node->op.kind == LogicalOpKind::kSort) {
        node = node->children[0].get();
      }
      if (node->op.kind != LogicalOpKind::kProject) {
        return Status::Internal("derived table did not bind to a projection");
      }
      ScopeEntry entry;
      entry.alias = ref.alias;
      for (size_t i = 0; i < node->op.projections.size(); ++i) {
        entry.derived_columns.emplace_back(stmt.output_names[i],
                                           node->op.projections[i].output);
      }
      entry.derived_tree = std::move(stmt.root);
      scope_.push_back(std::move(entry));
      continue;
    }
    const Table* table = ctx_->catalog()->GetTable(ref.table);
    if (table == nullptr) {
      return Status::NotFound("unknown table '" + ref.table + "'");
    }
    ScopeEntry entry;
    entry.alias = ref.alias;
    entry.rel_id = ctx_->AddRelation(*table, ref.alias);
    entry.table = table;
    scope_.push_back(std::move(entry));
  }
  return Status::Ok();
}

StatusOr<ColId> Binder::ResolveColumn(const std::string& qualifier,
                                      const std::string& name) const {
  ColId found = kInvalidColId;
  for (const ScopeEntry& e : scope_) {
    if (!qualifier.empty() && e.alias != qualifier) continue;
    ColId candidate = kInvalidColId;
    if (e.table != nullptr) {
      int idx = e.table->schema().FindColumn(name);
      if (idx >= 0) candidate = ctx_->columns().RelationColumn(e.rel_id, idx);
    } else {
      for (const auto& [col_name, col] : e.derived_columns) {
        if (col_name == name) {
          candidate = col;
          break;
        }
      }
    }
    if (candidate == kInvalidColId) continue;
    if (found != kInvalidColId) {
      return Status::InvalidArgument("ambiguous column '" + name + "'");
    }
    found = candidate;
  }
  if (found == kInvalidColId) {
    return Status::NotFound("unknown column '" +
                            (qualifier.empty() ? name
                                               : qualifier + "." + name) +
                            "'");
  }
  return found;
}

bool Binder::ContainsAggregate(const AstExpr& ast) const {
  if (ast.kind == AstExprKind::kAggregate) return true;
  for (const auto& c : ast.children) {
    if (ContainsAggregate(*c)) return true;
  }
  return false;
}

StatusOr<ExprPtr> Binder::BindSubquery(const AstSelect& sub) {
  Binder sub_binder(ctx_);
  ASSIGN_OR_RETURN(Statement stmt, sub_binder.Bind(sub, ""));
  const LogicalOp& proj = stmt.root->op;
  if (proj.kind != LogicalOpKind::kProject || proj.projections.size() != 1) {
    return Status::InvalidArgument(
        "scalar subquery must produce exactly one column");
  }
  ColId out = proj.projections[0].output;
  DataType type = ctx_->ColType(out);
  CHECK(subquery_sink_ != nullptr);
  subquery_sink_->push_back(std::move(stmt.root));
  return Expr::Column(out, type);
}

StatusOr<ExprPtr> Binder::BindComparison(const AstExpr& ast, bool above_agg,
                                         bool allow_subquery) {
  auto bind_side = [&](const AstExpr& side) -> StatusOr<ExprPtr> {
    return above_agg ? BindAboveAgg(side, allow_subquery)
                     : BindScalar(side, allow_subquery);
  };
  ASSIGN_OR_RETURN(ExprPtr lhs, bind_side(*ast.children[0]));
  ASSIGN_OR_RETURN(ExprPtr rhs, bind_side(*ast.children[1]));
  // DATE coercion: 'YYYY-MM-DD' string literal against a DATE expression.
  auto coerce = [](const ExprPtr& date_side,
                   ExprPtr* str_side) -> Status {
    if (date_side->type == DataType::kDate &&
        (*str_side)->kind == ExprKind::kLiteral &&
        (*str_side)->type == DataType::kString) {
      ASSIGN_OR_RETURN(int64_t days,
                       ParseIsoDate((*str_side)->literal.AsString()));
      *str_side = Expr::Literal(Value::Date(days), (*str_side)->param_slot);
    }
    return Status::Ok();
  };
  RETURN_IF_ERROR(coerce(lhs, &rhs));
  RETURN_IF_ERROR(coerce(rhs, &lhs));
  bool lhs_num = IsNumeric(lhs->type), rhs_num = IsNumeric(rhs->type);
  if (lhs_num != rhs_num) {
    return Status::InvalidArgument(
        "type mismatch in comparison: " + DataTypeName(lhs->type) + " vs " +
        DataTypeName(rhs->type));
  }
  return Expr::Compare(LowerCmp(ast.cmp), std::move(lhs), std::move(rhs));
}

StatusOr<ExprPtr> Binder::BindScalar(const AstExpr& ast, bool allow_subquery) {
  switch (ast.kind) {
    case AstExprKind::kColumnRef: {
      ASSIGN_OR_RETURN(ColId col, ResolveColumn(ast.qualifier, ast.name));
      return Expr::Column(col, ctx_->ColType(col));
    }
    case AstExprKind::kIntLiteral:
      return Expr::Literal(Value::Int64(ast.int_value), ast.param_slot);
    case AstExprKind::kDoubleLiteral:
      return Expr::Literal(Value::Double(ast.double_value), ast.param_slot);
    case AstExprKind::kStringLiteral:
      return Expr::Literal(Value::String(ast.string_value), ast.param_slot);
    case AstExprKind::kComparison:
      return BindComparison(ast, /*above_agg=*/false, allow_subquery);
    case AstExprKind::kAnd: {
      ASSIGN_OR_RETURN(ExprPtr l, BindScalar(*ast.children[0], allow_subquery));
      ASSIGN_OR_RETURN(ExprPtr r, BindScalar(*ast.children[1], allow_subquery));
      return Expr::And({l, r});
    }
    case AstExprKind::kOr: {
      ASSIGN_OR_RETURN(ExprPtr l, BindScalar(*ast.children[0], allow_subquery));
      ASSIGN_OR_RETURN(ExprPtr r, BindScalar(*ast.children[1], allow_subquery));
      return Expr::Or({l, r});
    }
    case AstExprKind::kNot: {
      ASSIGN_OR_RETURN(ExprPtr c, BindScalar(*ast.children[0], allow_subquery));
      return Expr::Not(c);
    }
    case AstExprKind::kArith: {
      ASSIGN_OR_RETURN(ExprPtr l, BindScalar(*ast.children[0], allow_subquery));
      ASSIGN_OR_RETURN(ExprPtr r, BindScalar(*ast.children[1], allow_subquery));
      return BindArith(ast.arith, std::move(l), std::move(r));
    }
    case AstExprKind::kAggregate:
      return Status::InvalidArgument(
          "aggregate not allowed in this context (WHERE / aggregate "
          "argument)");
    case AstExprKind::kSubquery:
      if (!allow_subquery) {
        return Status::InvalidArgument("subquery not allowed here");
      }
      return BindSubquery(*ast.subquery);
  }
  return Status::Internal("unhandled AST node");
}

StatusOr<ColId> Binder::AddAggregate(AggFn fn, ExprPtr arg) {
  for (const AggregateItem& a : aggs_) {
    if (a.fn == fn && ExprEquals(a.arg, arg)) return a.output;
  }
  DataType result =
      AggResultType(fn, arg != nullptr ? arg->type : DataType::kInt64);
  std::string name =
      AggFnName(fn) + "(" +
      (arg != nullptr ? ExprToString(arg, ctx_->Namer()) : "*") + ")";
  ColId out = ctx_->columns().AddSynthetic(std::move(name), result);
  aggs_.push_back({fn, std::move(arg), out});
  return out;
}

StatusOr<ExprPtr> Binder::BindAboveAgg(const AstExpr& ast,
                                       bool allow_subquery) {
  switch (ast.kind) {
    case AstExprKind::kAggregate: {
      ExprPtr arg;
      if (!ast.count_star) {
        ASSIGN_OR_RETURN(arg,
                         BindScalar(*ast.children[0], /*allow_subquery=*/false));
        // SUM and AVG accumulate numbers; MIN, MAX and COUNT take any type.
        if ((ast.name == "sum" || ast.name == "avg") &&
            arg->type == DataType::kString) {
          return Status::InvalidArgument("type mismatch: " + ast.name +
                                         " over " + DataTypeName(arg->type));
        }
      }
      if (ast.name == "avg") {
        // AVG(x) -> SUM(x) / COUNT(x); the 1.0 factor forces double
        // division regardless of the argument type.
        ASSIGN_OR_RETURN(ColId sum_col, AddAggregate(AggFn::kSum, arg));
        ASSIGN_OR_RETURN(ColId cnt_col, AddAggregate(AggFn::kCount, arg));
        return Expr::Arith(
            ArithOp::kDiv,
            Expr::Arith(ArithOp::kMul,
                        Expr::Column(sum_col, ctx_->ColType(sum_col)),
                        Expr::Literal(Value::Double(1.0))),
            Expr::Column(cnt_col, ctx_->ColType(cnt_col)));
      }
      AggFn fn;
      if (ast.name == "sum") {
        fn = AggFn::kSum;
      } else if (ast.name == "count") {
        fn = AggFn::kCount;
      } else if (ast.name == "min") {
        fn = AggFn::kMin;
      } else if (ast.name == "max") {
        fn = AggFn::kMax;
      } else {
        return Status::InvalidArgument("unknown aggregate '" + ast.name + "'");
      }
      ASSIGN_OR_RETURN(ColId out, AddAggregate(fn, std::move(arg)));
      return Expr::Column(out, ctx_->ColType(out));
    }
    case AstExprKind::kColumnRef: {
      ASSIGN_OR_RETURN(ColId col, ResolveColumn(ast.qualifier, ast.name));
      // BindAboveAgg is only used for aggregated blocks: plain columns must
      // be grouping columns.
      bool grouped = false;
      for (ColId g : group_cols_) grouped |= (g == col);
      if (!grouped) {
        return Status::InvalidArgument(
            "column '" + ctx_->columns().ColumnName(col) +
            "' must appear in GROUP BY");
      }
      return Expr::Column(col, ctx_->ColType(col));
    }
    case AstExprKind::kComparison:
      return BindComparison(ast, /*above_agg=*/true, allow_subquery);
    case AstExprKind::kAnd: {
      ASSIGN_OR_RETURN(ExprPtr l, BindAboveAgg(*ast.children[0], allow_subquery));
      ASSIGN_OR_RETURN(ExprPtr r, BindAboveAgg(*ast.children[1], allow_subquery));
      return Expr::And({l, r});
    }
    case AstExprKind::kOr: {
      ASSIGN_OR_RETURN(ExprPtr l, BindAboveAgg(*ast.children[0], allow_subquery));
      ASSIGN_OR_RETURN(ExprPtr r, BindAboveAgg(*ast.children[1], allow_subquery));
      return Expr::Or({l, r});
    }
    case AstExprKind::kNot: {
      ASSIGN_OR_RETURN(ExprPtr c, BindAboveAgg(*ast.children[0], allow_subquery));
      return Expr::Not(c);
    }
    case AstExprKind::kArith: {
      ASSIGN_OR_RETURN(ExprPtr l, BindAboveAgg(*ast.children[0], allow_subquery));
      ASSIGN_OR_RETURN(ExprPtr r, BindAboveAgg(*ast.children[1], allow_subquery));
      return BindArith(ast.arith, std::move(l), std::move(r));
    }
    case AstExprKind::kSubquery:
      if (!allow_subquery) {
        return Status::InvalidArgument("subquery not allowed here");
      }
      return BindSubquery(*ast.subquery);
    default:
      return BindScalar(ast, allow_subquery);
  }
}

std::string Binder::DefaultName(const AstExpr& ast) const {
  if (ast.kind == AstExprKind::kColumnRef) return ast.name;
  if (ast.kind == AstExprKind::kAggregate) {
    return ast.name;  // "sum", "count", ...
  }
  return "expr";
}

StatusOr<Statement> Binder::Bind(const AstSelect& ast,
                                 const std::string& text) {
  RETURN_IF_ERROR(BuildScope(ast));

  // --- WHERE ---
  subquery_sink_ = &where_subqueries_;
  std::vector<ExprPtr> where_conjuncts;
  if (ast.where != nullptr) {
    if (ContainsAggregate(*ast.where)) {
      return Status::InvalidArgument("aggregates are not allowed in WHERE");
    }
    ASSIGN_OR_RETURN(ExprPtr where,
                     BindScalar(*ast.where, /*allow_subquery=*/true));
    where_conjuncts = SplitConjuncts(where);
  }

  // --- GROUP BY ---
  has_group_by_ = !ast.group_by.empty();
  for (const AstExprPtr& g : ast.group_by) {
    if (g->kind != AstExprKind::kColumnRef) {
      return Status::InvalidArgument("GROUP BY supports plain columns only");
    }
    ASSIGN_OR_RETURN(ColId col, ResolveColumn(g->qualifier, g->name));
    group_cols_.push_back(col);
  }

  // --- SELECT list & HAVING & ORDER BY (collect aggregates) ---
  subquery_sink_ = &having_subqueries_;
  struct BoundItem {
    ExprPtr expr;
    std::string name;
  };
  std::vector<BoundItem> items;
  bool any_aggregate = false;
  for (const AstSelectItem& item : ast.items) {
    any_aggregate |= (item.expr != nullptr && ContainsAggregate(*item.expr));
  }
  if (ast.having != nullptr) any_aggregate |= ContainsAggregate(*ast.having);
  const bool aggregated = has_group_by_ || any_aggregate;

  for (const AstSelectItem& item : ast.items) {
    if (item.star) {
      if (aggregated) {
        return Status::InvalidArgument("SELECT * with GROUP BY");
      }
      for (const ScopeEntry& e : scope_) {
        if (e.table == nullptr) {
          // Derived table: expand its projected columns.
          for (const auto& [col_name, col] : e.derived_columns) {
            items.push_back({Expr::Column(col, ctx_->ColType(col)), col_name});
          }
          continue;
        }
        for (int i = 0; i < e.table->schema().num_columns(); ++i) {
          ColId col = ctx_->columns().RelationColumn(e.rel_id, i);
          items.push_back({Expr::Column(col, ctx_->ColType(col)),
                           e.table->schema().column(i).name});
        }
      }
      continue;
    }
    ExprPtr bound;
    if (aggregated) {
      ASSIGN_OR_RETURN(bound, BindAboveAgg(*item.expr, /*allow_subquery=*/false));
    } else {
      ASSIGN_OR_RETURN(bound, BindScalar(*item.expr, /*allow_subquery=*/false));
    }
    items.push_back(
        {bound, !item.alias.empty() ? item.alias : DefaultName(*item.expr)});
  }

  std::vector<ExprPtr> having_conjuncts;
  if (ast.having != nullptr) {
    if (!aggregated) {
      return Status::InvalidArgument("HAVING without aggregation");
    }
    ASSIGN_OR_RETURN(ExprPtr having,
                     BindAboveAgg(*ast.having, /*allow_subquery=*/true));
    having_conjuncts = SplitConjuncts(having);
  }

  // --- Distribute WHERE conjuncts ---
  // Single-relation conjuncts go to the Get; multi-relation conjuncts to
  // the JoinSet; conjuncts referencing subquery outputs become a Filter
  // below the GroupBy.
  // Map every in-scope column to its FROM entry (base-relation columns or
  // derived-table outputs).
  std::map<ColId, int> col_entry;
  for (size_t i = 0; i < scope_.size(); ++i) {
    if (scope_[i].table != nullptr) {
      for (ColId c : ctx_->columns().RelationColumns(scope_[i].rel_id)) {
        col_entry[c] = static_cast<int>(i);
      }
    } else {
      for (const auto& [_, c] : scope_[i].derived_columns) {
        col_entry[c] = static_cast<int>(i);
      }
    }
  }

  std::map<int, std::vector<ExprPtr>> local;  // entry index -> conjuncts
  std::vector<ExprPtr> join_conjuncts;
  std::vector<ExprPtr> pre_agg_filter;
  for (const ExprPtr& conj : where_conjuncts) {
    std::set<ColId> cols;
    CollectColumns(conj, &cols);
    std::set<int> entries;
    bool external = false;  // references a scalar-subquery output
    for (ColId c : cols) {
      auto it = col_entry.find(c);
      if (it == col_entry.end()) {
        external = true;
      } else {
        entries.insert(it->second);
      }
    }
    if (external) {
      pre_agg_filter.push_back(conj);
    } else if (entries.size() <= 1) {
      int entry = entries.empty() ? 0 : *entries.begin();
      local[entry].push_back(conj);
    } else {
      join_conjuncts.push_back(conj);
    }
  }

  // --- Assemble the tree ---
  // A FROM entry becomes a Get (base table, local conjuncts pushed down) or
  // its bound derived tree (wrapped in a Filter for entry-local conjuncts —
  // JoinSet conjuncts must span at least two members).
  auto member_tree = [&](size_t i) -> LogicalTreePtr {
    ScopeEntry& e = scope_[i];
    if (e.table != nullptr) {
      return MakeTree(LogicalOp::Get(e.rel_id, e.table->id(),
                                     local[static_cast<int>(i)]));
    }
    LogicalTreePtr tree = std::move(e.derived_tree);
    auto& conjuncts = local[static_cast<int>(i)];
    if (!conjuncts.empty()) {
      auto filter = MakeTree(LogicalOp::Filter(std::move(conjuncts)));
      filter->AddChild(std::move(tree));
      tree = std::move(filter);
    }
    return tree;
  };
  LogicalTreePtr block;
  if (scope_.size() == 1 && join_conjuncts.empty()) {
    block = member_tree(0);
  } else {
    block = MakeTree(LogicalOp::JoinSet(std::move(join_conjuncts)));
    for (size_t i = 0; i < scope_.size(); ++i) {
      block->AddChild(member_tree(i));
    }
  }

  // WHERE subqueries: cross join + filter below aggregation.
  for (LogicalTreePtr& sub : where_subqueries_) {
    auto cross = MakeTree(LogicalOp::Join({}));
    cross->AddChild(std::move(block));
    cross->AddChild(std::move(sub));
    block = std::move(cross);
  }
  if (!pre_agg_filter.empty()) {
    auto filter = MakeTree(LogicalOp::Filter(std::move(pre_agg_filter)));
    filter->AddChild(std::move(block));
    block = std::move(filter);
  }

  if (aggregated) {
    auto gb = MakeTree(LogicalOp::GroupBy(group_cols_, aggs_));
    gb->AddChild(std::move(block));
    block = std::move(gb);
  }

  // HAVING subqueries: cross join above aggregation.
  for (LogicalTreePtr& sub : having_subqueries_) {
    auto cross = MakeTree(LogicalOp::Join({}));
    cross->AddChild(std::move(block));
    cross->AddChild(std::move(sub));
    block = std::move(cross);
  }
  if (!having_conjuncts.empty()) {
    auto filter = MakeTree(LogicalOp::Filter(std::move(having_conjuncts)));
    filter->AddChild(std::move(block));
    block = std::move(filter);
  }

  // --- Project ---
  Statement stmt;
  std::vector<ProjectItem> projections;
  for (BoundItem& item : items) {
    ColId out;
    if (item.expr->kind == ExprKind::kColumn) {
      out = item.expr->column;  // pass-through keeps column identity
    } else {
      out = ctx_->columns().AddSynthetic(item.name, item.expr->type);
    }
    projections.push_back({item.expr, out});
    stmt.output_names.push_back(item.name);
  }
  if (ast.distinct && !aggregated) {
    // SELECT DISTINCT c1, c2 ...: a GroupBy over the projected columns.
    // (With aggregation, grouped output is already duplicate-free.)
    std::vector<ColId> distinct_cols;
    for (const ProjectItem& item : projections) {
      if (item.expr->kind != ExprKind::kColumn) {
        return Status::InvalidArgument(
            "SELECT DISTINCT supports plain column lists only");
      }
      distinct_cols.push_back(item.expr->column);
    }
    auto dedup = MakeTree(LogicalOp::GroupBy(std::move(distinct_cols), {}));
    dedup->AddChild(std::move(block));
    block = std::move(dedup);
  }

  auto project = MakeTree(LogicalOp::Project(projections));
  project->AddChild(std::move(block));
  LogicalTreePtr root = std::move(project);

  // --- ORDER BY ---
  if (!ast.order_by.empty()) {
    std::vector<SortKey> keys;
    for (const AstOrderItem& item : ast.order_by) {
      ColId key = kInvalidColId;
      // 1. positional
      if (item.expr->kind == AstExprKind::kIntLiteral) {
        int64_t idx = item.expr->int_value;
        if (idx < 1 || idx > static_cast<int64_t>(projections.size())) {
          return Status::InvalidArgument("ORDER BY position out of range");
        }
        key = projections[idx - 1].output;
      } else if (item.expr->kind == AstExprKind::kColumnRef &&
                 item.expr->qualifier.empty()) {
        // 2. output alias
        for (size_t i = 0; i < stmt.output_names.size(); ++i) {
          if (stmt.output_names[i] == item.expr->name) {
            key = projections[i].output;
            break;
          }
        }
      }
      if (key == kInvalidColId) {
        // 3. expression matching a projection
        ExprPtr bound;
        if (aggregated) {
          ASSIGN_OR_RETURN(bound,
                           BindAboveAgg(*item.expr, /*allow_subquery=*/false));
        } else {
          ASSIGN_OR_RETURN(bound,
                           BindScalar(*item.expr, /*allow_subquery=*/false));
        }
        for (const ProjectItem& p : projections) {
          if (ExprEquals(p.expr, bound)) {
            key = p.output;
            break;
          }
        }
        if (key == kInvalidColId) {
          return Status::InvalidArgument(
              "ORDER BY expression must appear in the select list");
        }
      }
      keys.push_back({key, item.descending});
    }
    auto sort = MakeTree(LogicalOp::Sort(std::move(keys), ast.limit));
    sort->AddChild(std::move(root));
    root = std::move(sort);
  } else if (ast.limit >= 0) {
    auto limit_node = MakeTree(LogicalOp::Sort({}, ast.limit));
    limit_node->AddChild(std::move(root));
    root = std::move(limit_node);
  }

  stmt.root = std::move(root);
  stmt.text = text;
  stmt.explain = ast.explain;
  return stmt;
}

}  // namespace

StatusOr<Statement> BindSelect(const AstSelect& ast, QueryContext* ctx,
                               const std::string& text) {
  Binder binder(ctx);
  return binder.Bind(ast, text);
}

StatusOr<std::vector<Statement>> BindSql(const std::string& sql,
                                         QueryContext* ctx) {
  ASSIGN_OR_RETURN(std::vector<AstSelectPtr> asts, ParseBatch(sql));
  std::vector<Statement> out;
  for (const AstSelectPtr& ast : asts) {
    Binder binder(ctx);
    ASSIGN_OR_RETURN(Statement stmt, binder.Bind(*ast, sql));
    out.push_back(std::move(stmt));
  }
  return out;
}

}  // namespace subshare::sql
