#include "expr/expr.h"

#include "expr/expr_builder.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace gmdj {
namespace {

using testutil::MakeTable;

class ExprTest : public ::testing::Test {
 protected:
  ExprTest()
      : table_(MakeTable({"F.a", "F.b:d", "F.s:s", "F.n"},
                         {{4, 2.5, "xy", Value::Null()}})) {}

  // Binds against the single-frame schema and evaluates on row 0.
  Value Eval(const Expr& expr) {
    ExprPtr clone = expr.Clone();
    const Status s = clone->Bind({&table_.schema()});
    EXPECT_TRUE(s.ok()) << s.ToString();
    EvalContext ctx;
    ctx.PushFrame(&table_);
    return clone->Eval(ctx);
  }

  TriBool EvalP(const Expr& expr) {
    ExprPtr clone = expr.Clone();
    const Status s = clone->Bind({&table_.schema()});
    EXPECT_TRUE(s.ok()) << s.ToString();
    EvalContext ctx;
    ctx.PushFrame(&table_);
    return clone->EvalPred(ctx);
  }

  Table table_;
};

TEST_F(ExprTest, ColumnRefAndLiteral) {
  EXPECT_EQ(Eval(*Col("F.a")).int64(), 4);
  EXPECT_EQ(Eval(*Col("a")).int64(), 4);  // Bare name resolves too.
  EXPECT_EQ(Eval(*Col("s")).str(), "xy");
  EXPECT_TRUE(Eval(*Col("n")).is_null());
  EXPECT_EQ(Eval(*Lit(9)).int64(), 9);
}

TEST_F(ExprTest, UnresolvedRefFails) {
  ExprPtr c = Col("F.zzz");
  EXPECT_EQ(c->Bind({&table_.schema()}).code(), StatusCode::kNotFound);
}

TEST_F(ExprTest, ResultTypesInferred) {
  ExprPtr e = Add(Col("a"), Lit(1));
  ASSERT_TRUE(e->Bind({&table_.schema()}).ok());
  EXPECT_EQ(e->result_type(), ValueType::kInt64);
  e = Add(Col("a"), Col("b"));
  ASSERT_TRUE(e->Bind({&table_.schema()}).ok());
  EXPECT_EQ(e->result_type(), ValueType::kDouble);
  e = Div(Col("a"), Lit(2));
  ASSERT_TRUE(e->Bind({&table_.schema()}).ok());
  EXPECT_EQ(e->result_type(), ValueType::kDouble);  // Division is real.
  e = Eq(Col("a"), Lit(1));
  ASSERT_TRUE(e->Bind({&table_.schema()}).ok());
  EXPECT_EQ(e->result_type(), ValueType::kInt64);
}

TEST_F(ExprTest, Arithmetic) {
  EXPECT_EQ(Eval(*Add(Col("a"), Lit(3))).int64(), 7);
  EXPECT_EQ(Eval(*Sub(Col("a"), Lit(6))).int64(), -2);
  EXPECT_EQ(Eval(*Mul(Col("a"), Lit(3))).int64(), 12);
  EXPECT_DOUBLE_EQ(Eval(*Div(Col("a"), Lit(8))).dbl(), 0.5);
  EXPECT_DOUBLE_EQ(Eval(*Add(Col("a"), Col("b"))).dbl(), 6.5);
}

TEST_F(ExprTest, ArithmeticNullPropagation) {
  EXPECT_TRUE(Eval(*Add(Col("n"), Lit(1))).is_null());
  EXPECT_TRUE(Eval(*Mul(Lit(0), Col("n"))).is_null());
  // Division by zero yields NULL, not an error.
  EXPECT_TRUE(Eval(*Div(Col("a"), Lit(0))).is_null());
  EXPECT_TRUE(Eval(*Div(Col("a"), Lit(0.0))).is_null());
}

TEST_F(ExprTest, ComparisonsWith3VL) {
  EXPECT_EQ(EvalP(*Gt(Col("a"), Lit(3))), TriBool::kTrue);
  EXPECT_EQ(EvalP(*Lt(Col("a"), Lit(3))), TriBool::kFalse);
  EXPECT_EQ(EvalP(*Eq(Col("n"), Lit(3))), TriBool::kUnknown);
  EXPECT_EQ(EvalP(*Eq(Col("s"), Lit("xy"))), TriBool::kTrue);
}

TEST_F(ExprTest, LogicalOperators) {
  ExprPtr t = Gt(Col("a"), Lit(0));
  ExprPtr f = Lt(Col("a"), Lit(0));
  ExprPtr u = Eq(Col("n"), Lit(0));
  EXPECT_EQ(EvalP(*And(t->Clone(), u->Clone())), TriBool::kUnknown);
  EXPECT_EQ(EvalP(*And(f->Clone(), u->Clone())), TriBool::kFalse);
  EXPECT_EQ(EvalP(*Or(t->Clone(), u->Clone())), TriBool::kTrue);
  EXPECT_EQ(EvalP(*Or(f->Clone(), u->Clone())), TriBool::kUnknown);
  EXPECT_EQ(EvalP(*Not(u->Clone())), TriBool::kUnknown);
  EXPECT_EQ(EvalP(*Not(f->Clone())), TriBool::kTrue);
}

TEST_F(ExprTest, IsNullIsTwoValued) {
  EXPECT_EQ(EvalP(*IsNull(Col("n"))), TriBool::kTrue);
  EXPECT_EQ(EvalP(*IsNull(Col("a"))), TriBool::kFalse);
  EXPECT_EQ(EvalP(*IsNotNull(Col("n"))), TriBool::kFalse);
  EXPECT_EQ(EvalP(*IsNotNull(Col("a"))), TriBool::kTrue);
}

TEST_F(ExprTest, IsNotTrueMapsUnknownToTrue) {
  EXPECT_EQ(EvalP(*IsNotTrue(Eq(Col("n"), Lit(1)))), TriBool::kTrue);
  EXPECT_EQ(EvalP(*IsNotTrue(Gt(Col("a"), Lit(0)))), TriBool::kFalse);
  EXPECT_EQ(EvalP(*IsNotTrue(Lt(Col("a"), Lit(0)))), TriBool::kTrue);
}

TEST_F(ExprTest, Coalesce) {
  auto coalesce = [](ExprPtr a, ExprPtr b) {
    return std::make_unique<CoalesceExpr>(std::move(a), std::move(b));
  };
  EXPECT_EQ(Eval(*coalesce(Col("n"), Lit(7))).int64(), 7);
  EXPECT_EQ(Eval(*coalesce(Col("a"), Lit(7))).int64(), 4);
}

TEST_F(ExprTest, LikePatterns) {
  auto like = [](ExprPtr in, const char* pattern, bool negated = false) {
    return std::make_unique<LikeExpr>(std::move(in), pattern, negated);
  };
  // s = "xy".
  EXPECT_EQ(EvalP(*like(Col("s"), "xy")), TriBool::kTrue);
  EXPECT_EQ(EvalP(*like(Col("s"), "x%")), TriBool::kTrue);
  EXPECT_EQ(EvalP(*like(Col("s"), "%y")), TriBool::kTrue);
  EXPECT_EQ(EvalP(*like(Col("s"), "_y")), TriBool::kTrue);
  EXPECT_EQ(EvalP(*like(Col("s"), "__")), TriBool::kTrue);
  EXPECT_EQ(EvalP(*like(Col("s"), "%")), TriBool::kTrue);
  EXPECT_EQ(EvalP(*like(Col("s"), "y%")), TriBool::kFalse);
  EXPECT_EQ(EvalP(*like(Col("s"), "___")), TriBool::kFalse);
  EXPECT_EQ(EvalP(*like(Col("s"), "")), TriBool::kFalse);
  EXPECT_EQ(EvalP(*like(Col("s"), "xy", true)), TriBool::kFalse);
  EXPECT_EQ(EvalP(*like(Col("s"), "zz", true)), TriBool::kTrue);
  // NULL input is UNKNOWN either way.
  EXPECT_EQ(EvalP(*like(Col("n"), "%")), TriBool::kUnknown);
  EXPECT_EQ(EvalP(*like(Col("n"), "%", true)), TriBool::kUnknown);
  // Backtracking case: multiple % runs.
  EXPECT_EQ(EvalP(*like(Lit("abcabc"), "%b%bc")), TriBool::kTrue);
  EXPECT_EQ(EvalP(*like(Lit("abcabc"), "%b%bd")), TriBool::kFalse);
}

TEST_F(ExprTest, CaseWhen) {
  auto kase = [](ExprPtr c, ExprPtr t, ExprPtr e) {
    return std::make_unique<CaseExpr>(std::move(c), std::move(t),
                                      std::move(e));
  };
  EXPECT_EQ(Eval(*kase(Gt(Col("a"), Lit(0)), Lit(10), Lit(20))).int64(), 10);
  EXPECT_EQ(Eval(*kase(Lt(Col("a"), Lit(0)), Lit(10), Lit(20))).int64(), 20);
  // UNKNOWN condition takes the ELSE branch (SQL CASE semantics).
  EXPECT_EQ(Eval(*kase(Eq(Col("n"), Lit(0)), Lit(10), Lit(20))).int64(), 20);
  // NULL ELSE branch: the conditional-aggregation idiom.
  EXPECT_TRUE(
      Eval(*kase(Lt(Col("a"), Lit(0)), Col("a"), Lit(Value::Null())))
          .is_null());
  EXPECT_EQ(kase(Gt(Col("a"), Lit(0)), Lit(1), Lit(0))->ToString(),
            "CASE WHEN (a > 0) THEN 1 ELSE 0 END");
}

TEST_F(ExprTest, PredicateScalarBridge) {
  // A comparison used as a scalar yields 0/1/NULL.
  EXPECT_EQ(Eval(*Gt(Col("a"), Lit(0))).int64(), 1);
  EXPECT_EQ(Eval(*Lt(Col("a"), Lit(0))).int64(), 0);
  EXPECT_TRUE(Eval(*Eq(Col("n"), Lit(0))).is_null());
  // A scalar used as a predicate: nonzero=true, 0=false, NULL=unknown.
  EXPECT_EQ(EvalP(*Col("a")), TriBool::kTrue);
  EXPECT_EQ(EvalP(*Lit(0)), TriBool::kFalse);
  EXPECT_EQ(EvalP(*Col("n")), TriBool::kUnknown);
}

TEST_F(ExprTest, CorrelationAcrossFrames) {
  const Table outer = MakeTable({"U.ip:s", "U.k"}, {{"a", 10}});
  ExprPtr e = Gt(Add(Col("F.a"), Col("U.k")), Lit(13));
  ASSERT_TRUE(e->Bind({&outer.schema(), &table_.schema()}).ok());
  EvalContext ctx;
  ctx.PushFrame(&outer);
  ctx.PushFrame(&table_);
  EXPECT_EQ(e->EvalPred(ctx), TriBool::kTrue);  // 4 + 10 > 13.
}

TEST_F(ExprTest, InnermostFrameShadowsOuter) {
  // Both frames declare "a"; the unqualified ref must pick the inner one.
  const Table outer = MakeTable({"G.a"}, {{100}});
  ExprPtr e = Col("a");
  ASSERT_TRUE(e->Bind({&outer.schema(), &table_.schema()}).ok());
  EvalContext ctx;
  ctx.PushFrame(&outer);
  ctx.PushFrame(&table_);
  EXPECT_EQ(e->Eval(ctx).int64(), 4);
}

TEST_F(ExprTest, PinnedFrameForcesResolution) {
  const Table outer = MakeTable({"G.a"}, {{100}});
  auto pinned = std::make_unique<ColumnRefExpr>("a", 0);
  ASSERT_TRUE(pinned->Bind({&outer.schema(), &table_.schema()}).ok());
  EvalContext ctx;
  ctx.PushFrame(&outer);
  ctx.PushFrame(&table_);
  EXPECT_EQ(pinned->Eval(ctx).int64(), 100);

  auto bad = std::make_unique<ColumnRefExpr>("a", 5);
  EXPECT_FALSE(bad->Bind({&outer.schema()}).ok());
}

TEST_F(ExprTest, CloneIsDeepAndPreservesBinding) {
  ExprPtr e = And(Gt(Col("a"), Lit(1)), Eq(Col("s"), Lit("xy")));
  ASSERT_TRUE(e->Bind({&table_.schema()}).ok());
  ExprPtr clone = e->Clone();
  // The clone evaluates without re-binding.
  EvalContext ctx;
  ctx.PushFrame(&table_);
  EXPECT_EQ(clone->EvalPred(ctx), TriBool::kTrue);
}

TEST_F(ExprTest, ToStringRoundTripsStructure) {
  const ExprPtr e =
      And(Ge(Col("F.a"), Lit(1)), Not(Eq(Col("F.s"), Lit("x"))));
  EXPECT_EQ(e->ToString(),
            "((F.a >= 1) AND (NOT (F.s = \"x\")))");
}

}  // namespace
}  // namespace gmdj
