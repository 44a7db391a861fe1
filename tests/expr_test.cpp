#include <gtest/gtest.h>

#include "row_eval.h"
#include "agg_reference.h"
#include "expr/aggregate.h"
#include "expr/column.h"
#include "expr/equivalence.h"
#include "expr/evaluator.h"
#include "expr/expr.h"
#include "expr/implication.h"

namespace subshare {
namespace {

ExprPtr Col(ColId id, DataType t = DataType::kInt64) {
  return Expr::Column(id, t);
}
ExprPtr Lit(int64_t v) { return Expr::Literal(Value::Int64(v)); }

TEST(ExprTest, CompareCanonicalizesLiteralSide) {
  // 5 < c0  ==>  c0 > 5
  ExprPtr e = Expr::Compare(CmpOp::kLt, Lit(5), Col(0));
  ASSERT_EQ(e->kind, ExprKind::kComparison);
  EXPECT_EQ(e->cmp, CmpOp::kGt);
  EXPECT_EQ(e->children[0]->kind, ExprKind::kColumn);
  EXPECT_EQ(e->children[1]->kind, ExprKind::kLiteral);
}

TEST(ExprTest, EqualityCanonicalizesColumnOrder) {
  ExprPtr e1 = Expr::Compare(CmpOp::kEq, Col(7), Col(3));
  ExprPtr e2 = Expr::Compare(CmpOp::kEq, Col(3), Col(7));
  EXPECT_TRUE(ExprEquals(e1, e2));
  EXPECT_EQ(ExprHash(e1), ExprHash(e2));
}

TEST(ExprTest, AndFlattens) {
  ExprPtr a = Expr::Compare(CmpOp::kGt, Col(0), Lit(1));
  ExprPtr b = Expr::Compare(CmpOp::kLt, Col(0), Lit(9));
  ExprPtr c = Expr::Compare(CmpOp::kEq, Col(1), Lit(4));
  ExprPtr nested = Expr::And({Expr::And({a, b}), c});
  EXPECT_EQ(nested->children.size(), 3u);
  EXPECT_EQ(SplitConjuncts(nested).size(), 3u);
  EXPECT_EQ(SplitConjuncts(nullptr).size(), 0u);
  EXPECT_EQ(CombineConjuncts({}), nullptr);
  EXPECT_EQ(CombineConjuncts({a}), a);
}

TEST(ExprTest, CollectAndRemapColumns) {
  ExprPtr e = Expr::And({Expr::Compare(CmpOp::kEq, Col(2), Col(5)),
                         Expr::Compare(CmpOp::kGt, Col(9), Lit(0))});
  std::set<ColId> cols;
  CollectColumns(e, &cols);
  EXPECT_EQ(cols, (std::set<ColId>{2, 5, 9}));

  ExprPtr mapped = RemapColumns(e, [](ColId c) { return c + 100; });
  std::set<ColId> cols2;
  CollectColumns(mapped, &cols2);
  EXPECT_EQ(cols2, (std::set<ColId>{102, 105, 109}));
  // Original untouched.
  std::set<ColId> cols3;
  CollectColumns(e, &cols3);
  EXPECT_EQ(cols3, (std::set<ColId>{2, 5, 9}));
}

TEST(ExprTest, PatternHelpers) {
  ColId a, b;
  EXPECT_TRUE(IsColumnEquality(Expr::Compare(CmpOp::kEq, Col(1), Col(2)), &a,
                               &b));
  EXPECT_EQ(a, 1);
  EXPECT_EQ(b, 2);
  EXPECT_FALSE(IsColumnEquality(Expr::Compare(CmpOp::kLt, Col(1), Col(2)), &a,
                                &b));
  ColId col;
  CmpOp op;
  Value v;
  EXPECT_TRUE(IsColumnVsConstant(Expr::Compare(CmpOp::kLe, Col(4), Lit(10)),
                                 &col, &op, &v));
  EXPECT_EQ(col, 4);
  EXPECT_EQ(op, CmpOp::kLe);
  EXPECT_EQ(v.AsInt64(), 10);
}

// Regression: info() must return a copy, not a reference. The backing
// vector reallocates when new columns are registered, so a returned
// reference would dangle across AddSynthetic/AddRelation/InternCanonical
// (this bit once under ASan: the caller held info() across registrations).
TEST(ExprTest, ColumnInfoSurvivesRegistryGrowth) {
  ColumnRegistry reg;
  ColId first = reg.AddSynthetic("first", DataType::kString);
  ColumnInfo held = reg.info(first);
  // Force repeated reallocations of the backing vector.
  for (int i = 0; i < 1000; ++i) {
    reg.AddSynthetic("filler" + std::to_string(i), DataType::kInt64);
  }
  reg.InternCanonical(/*table_id=*/0, /*column_idx=*/0, "canon",
                      DataType::kDate);
  EXPECT_EQ(held.name, "first");
  EXPECT_EQ(held.type, DataType::kString);
  EXPECT_EQ(held.rel_id, -1);
  EXPECT_FALSE(held.is_canonical);
  // And a copy taken now still matches the original registration.
  ColumnInfo again = reg.info(first);
  EXPECT_EQ(again.name, "first");
  EXPECT_EQ(again.type, DataType::kString);
}

TEST(EvaluatorTest, BindAndEval) {
  Layout layout({10, 20, 30});
  EXPECT_EQ(layout.IndexOf(20), 1);
  EXPECT_EQ(layout.IndexOf(99), -1);
  EXPECT_TRUE(layout.ContainsAll({10, 30}));
  EXPECT_FALSE(layout.ContainsAll({10, 99}));

  // (c10 + c20) * 2 > 10 AND c30 = 'x'
  ExprPtr pred = Expr::And(
      {Expr::Compare(
           CmpOp::kGt,
           Expr::Arith(ArithOp::kMul,
                       Expr::Arith(ArithOp::kAdd, Col(10), Col(20)), Lit(2)),
           Lit(10)),
       Expr::Compare(CmpOp::kEq, Col(30, DataType::kString),
                     Expr::Literal(Value::String("x")))});
  ExprPtr bound = BindExpr(pred, layout);
  Row yes = {Value::Int64(4), Value::Int64(3), Value::String("x")};
  Row no1 = {Value::Int64(1), Value::Int64(2), Value::String("x")};
  Row no2 = {Value::Int64(4), Value::Int64(3), Value::String("y")};
  EXPECT_TRUE(EvalPredicate(bound, yes));
  EXPECT_FALSE(EvalPredicate(bound, no1));
  EXPECT_FALSE(EvalPredicate(bound, no2));
}

TEST(EvaluatorTest, NullComparisonsAreFalse) {
  Layout layout({1});
  ExprPtr pred = BindExpr(Expr::Compare(CmpOp::kEq, Col(1), Lit(0)), layout);
  EXPECT_FALSE(EvalPredicate(pred, {Value::Null(DataType::kInt64)}));
  ExprPtr ne = BindExpr(Expr::Compare(CmpOp::kNe, Col(1), Lit(0)), layout);
  EXPECT_FALSE(EvalPredicate(ne, {Value::Null(DataType::kInt64)}));
}

TEST(EvaluatorTest, ArithTypesAndDivByZero) {
  Layout layout({1});
  ExprPtr int_div = BindExpr(Expr::Arith(ArithOp::kDiv, Col(1), Lit(2)),
                             layout);
  EXPECT_EQ(EvalExpr(int_div, {Value::Int64(7)}).AsInt64(), 3);
  ExprPtr dbl = BindExpr(
      Expr::Arith(ArithOp::kDiv, Col(1, DataType::kDouble), Lit(2)), layout);
  EXPECT_DOUBLE_EQ(EvalExpr(dbl, {Value::Double(7)}).AsDouble(), 3.5);
  ExprPtr zero = BindExpr(Expr::Arith(ArithOp::kDiv, Col(1), Lit(0)), layout);
  EXPECT_TRUE(EvalExpr(zero, {Value::Int64(7)}).is_null());
}

TEST(AggregateTest, Accumulators) {
  AggAccumulator sum(AggFn::kSum);
  sum.Update(Value::Int64(3));
  sum.Update(Value::Int64(4));
  sum.Update(Value::Null(DataType::kInt64));
  EXPECT_EQ(sum.Final(DataType::kInt64).AsInt64(), 7);

  AggAccumulator cnt(AggFn::kCount);
  cnt.Update(Value::Int64(1));
  cnt.Update(Value::Int64(1));
  EXPECT_EQ(cnt.Final(DataType::kInt64).AsInt64(), 2);
  AggAccumulator cnt0(AggFn::kCount);
  EXPECT_EQ(cnt0.Final(DataType::kInt64).AsInt64(), 0);

  AggAccumulator mn(AggFn::kMin);
  mn.Update(Value::Double(2.5));
  mn.Update(Value::Double(1.5));
  EXPECT_DOUBLE_EQ(mn.Final(DataType::kDouble).AsDouble(), 1.5);

  AggAccumulator mx(AggFn::kMax);
  EXPECT_TRUE(mx.Final(DataType::kDouble).is_null());

  EXPECT_EQ(ReaggregateFn(AggFn::kCount), AggFn::kSum);
  EXPECT_EQ(ReaggregateFn(AggFn::kSum), AggFn::kSum);
  EXPECT_EQ(ReaggregateFn(AggFn::kMin), AggFn::kMin);
  EXPECT_EQ(AggResultType(AggFn::kCount, DataType::kString), DataType::kInt64);
  EXPECT_EQ(AggResultType(AggFn::kSum, DataType::kDouble), DataType::kDouble);
}

// --- Equivalence classes (paper Example 2) ---

TEST(EquivalenceTest, BasicMergeAndQuery) {
  EquivalenceClasses ec;
  ec.AddEquality(1, 2);
  ec.AddEquality(2, 3);
  ec.AddEquality(10, 11);
  EXPECT_TRUE(ec.AreEquivalent(1, 3));
  EXPECT_TRUE(ec.AreEquivalent(10, 11));
  EXPECT_FALSE(ec.AreEquivalent(1, 10));
  EXPECT_FALSE(ec.AreEquivalent(1, 99));
  auto classes = ec.Classes();
  ASSERT_EQ(classes.size(), 2u);
  EXPECT_EQ(classes[0], (std::vector<ColId>{1, 2, 3}));
  EXPECT_EQ(classes[1], (std::vector<ColId>{10, 11}));
}

TEST(EquivalenceTest, IntersectExample2) {
  // R.a=1 S.d=2 R.b=3 S.e=4 R.c=5 S.f=6
  // E1: {R.a,S.d}, {R.b,S.e};  E2: {R.a,S.d}, {R.c,S.f}
  EquivalenceClasses e1, e2;
  e1.AddEquality(1, 2);
  e1.AddEquality(3, 4);
  e2.AddEquality(1, 2);
  e2.AddEquality(5, 6);
  auto inter = EquivalenceClasses::Intersect(e1, e2);
  EXPECT_TRUE(inter.AreEquivalent(1, 2));
  EXPECT_FALSE(inter.AreEquivalent(3, 4));
  EXPECT_FALSE(inter.AreEquivalent(5, 6));
  ASSERT_EQ(inter.Classes().size(), 1u);

  // E3: R.b=S.e only -> intersection with E2 empty.
  EquivalenceClasses e3;
  e3.AddEquality(3, 4);
  EXPECT_TRUE(EquivalenceClasses::Intersect(e3, e2).Classes().empty());
}

TEST(EquivalenceTest, ConnectivityExample2) {
  // Columns 1..2 belong to table 0 (R) and table 1 (S) respectively.
  auto node_of = [](ColId c) { return c <= 3 && c % 2 == 1 ? 0 : 1; };
  // {R.a(1), S.d(2)} connects {R, S}.
  EquivalenceClasses connected;
  connected.AddEquality(1, 2);
  EXPECT_TRUE(connected.ConnectsNodes({0, 1}, node_of));
  // Empty classes do not connect two nodes.
  EquivalenceClasses empty;
  EXPECT_FALSE(empty.ConnectsNodes({0, 1}, node_of));
  EXPECT_TRUE(empty.ConnectsNodes({0}, node_of));
}

TEST(EquivalenceTest, TransitiveConnectivityExample3) {
  // Tables R(0), S(1), T(2); R.x=1, S.y=2, S.z=3, T.w=4.
  EquivalenceClasses ec;
  ec.AddEquality(1, 2);  // R-S
  ec.AddEquality(3, 4);  // S-T
  auto node_of = [](ColId c) {
    switch (c) {
      case 1: return 0;
      case 2: case 3: return 1;
      default: return 2;
    }
  };
  EXPECT_TRUE(ec.ConnectsNodes({0, 1, 2}, node_of));
  // Remove the S-T edge: no longer connected.
  EquivalenceClasses ec2;
  ec2.AddEquality(1, 2);
  EXPECT_FALSE(ec2.ConnectsNodes({0, 1, 2}, node_of));
}

TEST(EquivalenceTest, ToConjunctsEmitsChain) {
  EquivalenceClasses ec;
  ec.AddEquality(1, 2);
  ec.AddEquality(2, 3);
  auto conj = ec.ToConjuncts([](ColId) { return DataType::kInt64; });
  ASSERT_EQ(conj.size(), 2u);
  ColId a, b;
  EXPECT_TRUE(IsColumnEquality(conj[0], &a, &b));
  EXPECT_TRUE(IsColumnEquality(conj[1], &a, &b));
}

TEST(EquivalenceTest, FromConjunctsIgnoresNonEqualities) {
  std::vector<ExprPtr> conj = {Expr::Compare(CmpOp::kEq, Col(1), Col(2)),
                               Expr::Compare(CmpOp::kLt, Col(3), Lit(5)),
                               Expr::Compare(CmpOp::kEq, Col(3), Lit(5))};
  auto ec = EquivalenceClasses::FromConjuncts(conj);
  EXPECT_TRUE(ec.AreEquivalent(1, 2));
  EXPECT_EQ(ec.Classes().size(), 1u);
}

// --- Implication ---

TEST(ImplicationTest, StructuralAndRange) {
  std::vector<ExprPtr> premise = {
      Expr::Compare(CmpOp::kGt, Col(1), Lit(5)),
      Expr::Compare(CmpOp::kLt, Col(1), Lit(20)),
      Expr::Compare(CmpOp::kEq, Col(2), Lit(7))};
  // Exact conjunct.
  EXPECT_TRUE(ImpliesConjunct(premise,
                              Expr::Compare(CmpOp::kGt, Col(1), Lit(5)),
                              nullptr));
  // Wider range.
  EXPECT_TRUE(ImpliesConjunct(premise,
                              Expr::Compare(CmpOp::kGt, Col(1), Lit(0)),
                              nullptr));
  EXPECT_TRUE(ImpliesConjunct(premise,
                              Expr::Compare(CmpOp::kLe, Col(1), Lit(20)),
                              nullptr));
  EXPECT_TRUE(ImpliesConjunct(premise,
                              Expr::Compare(CmpOp::kGe, Col(1), Lit(5)),
                              nullptr));
  // Narrower range is NOT implied.
  EXPECT_FALSE(ImpliesConjunct(premise,
                               Expr::Compare(CmpOp::kGt, Col(1), Lit(10)),
                               nullptr));
  // Equality premise implies ranges around it.
  EXPECT_TRUE(ImpliesConjunct(premise,
                              Expr::Compare(CmpOp::kLe, Col(2), Lit(7)),
                              nullptr));
  EXPECT_TRUE(ImpliesConjunct(premise,
                              Expr::Compare(CmpOp::kEq, Col(2), Lit(7)),
                              nullptr));
  EXPECT_TRUE(ImpliesConjunct(premise,
                              Expr::Compare(CmpOp::kNe, Col(2), Lit(9)),
                              nullptr));
  EXPECT_FALSE(ImpliesConjunct(premise,
                               Expr::Compare(CmpOp::kNe, Col(2), Lit(7)),
                               nullptr));
}

TEST(ImplicationTest, EquivalenceAwareRange) {
  EquivalenceClasses eq;
  eq.AddEquality(1, 2);
  std::vector<ExprPtr> premise = {Expr::Compare(CmpOp::kGt, Col(1), Lit(5))};
  // c2 > 3 follows because c1 = c2 and c1 > 5.
  EXPECT_TRUE(ImpliesConjunct(premise, Expr::Compare(CmpOp::kGt, Col(2),
                                                     Lit(3)), &eq));
  EXPECT_FALSE(ImpliesConjunct(premise, Expr::Compare(CmpOp::kGt, Col(2),
                                                      Lit(3)), nullptr));
  // Column equality target via classes.
  EXPECT_TRUE(ImpliesConjunct({}, Expr::Compare(CmpOp::kEq, Col(1), Col(2)),
                              &eq));
  EXPECT_FALSE(ImpliesConjunct({}, Expr::Compare(CmpOp::kEq, Col(1), Col(3)),
                               &eq));
}

TEST(ImplicationTest, DisjunctiveTarget) {
  // Premise: 0 < c1 < 20. Target (covering predicate style):
  //   (c1 > 0 AND c1 < 20) OR (c1 > 100)
  std::vector<ExprPtr> premise = {Expr::Compare(CmpOp::kGt, Col(1), Lit(0)),
                                  Expr::Compare(CmpOp::kLt, Col(1), Lit(20))};
  ExprPtr target = Expr::Or(
      {Expr::And({Expr::Compare(CmpOp::kGt, Col(1), Lit(0)),
                  Expr::Compare(CmpOp::kLt, Col(1), Lit(20))}),
       Expr::Compare(CmpOp::kGt, Col(1), Lit(100))});
  EXPECT_TRUE(ImpliesConjunct(premise, target, nullptr));
  // A premise that satisfies neither disjunct.
  std::vector<ExprPtr> weak = {Expr::Compare(CmpOp::kGt, Col(1), Lit(0))};
  EXPECT_FALSE(ImpliesConjunct(weak, target, nullptr));
}

TEST(ImplicationTest, ContradictoryPremiseImpliesAnything) {
  std::vector<ExprPtr> premise = {Expr::Compare(CmpOp::kGt, Col(1), Lit(10)),
                                  Expr::Compare(CmpOp::kLt, Col(1), Lit(5))};
  EXPECT_TRUE(ImpliesConjunct(premise,
                              Expr::Compare(CmpOp::kEq, Col(1), Lit(42)),
                              nullptr));
}

TEST(ImplicationTest, DateRanges) {
  Value d1995 = Value::Date(9131);   // ~1995
  Value d1996 = Value::Date(9679);   // ~1996-07
  std::vector<ExprPtr> premise = {Expr::Compare(
      CmpOp::kLt, Col(1, DataType::kDate), Expr::Literal(d1995))};
  EXPECT_TRUE(ImpliesConjunct(
      premise,
      Expr::Compare(CmpOp::kLt, Col(1, DataType::kDate),
                    Expr::Literal(d1996)),
      nullptr));
}

TEST(ColumnRegistryTest, RelationsAndCanonical) {
  Schema s;
  s.AddColumn("k", DataType::kInt64);
  s.AddColumn("v", DataType::kString);
  Table t(3, "tbl", s);
  ColumnRegistry reg;
  int r1 = reg.AddRelation(t, "tbl");
  int r2 = reg.AddRelation(t, "tbl2");
  EXPECT_NE(reg.RelationColumn(r1, 0), reg.RelationColumn(r2, 0));
  EXPECT_EQ(reg.info(reg.RelationColumn(r1, 1)).name, "v");
  EXPECT_EQ(reg.ColumnName(reg.RelationColumn(r2, 1)), "tbl2.v");

  // Canonicalization maps both instances to one canonical column.
  ColId c1 = reg.CanonicalOf(reg.RelationColumn(r1, 0));
  ColId c2 = reg.CanonicalOf(reg.RelationColumn(r2, 0));
  EXPECT_EQ(c1, c2);
  EXPECT_TRUE(reg.info(c1).is_canonical);
  // Synthetic columns have no canonical form.
  ColId syn = reg.AddSynthetic("sum_x", DataType::kDouble);
  EXPECT_EQ(reg.CanonicalOf(syn), kInvalidColId);
}

}  // namespace
}  // namespace subshare
