#include "expr/aggregate.h"

#include "expr/expr_builder.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace gmdj {
namespace {

using testutil::MakeTable;

Value RunAgg(AggKind kind, const std::vector<Value>& inputs,
             ValueType arg_type = ValueType::kInt64) {
  AggState state;
  for (const Value& v : inputs) state.Update(kind, v);
  return state.Finalize(kind, arg_type);
}

TEST(AggStateTest, CountStarCountsEverythingIncludingNulls) {
  EXPECT_EQ(RunAgg(AggKind::kCountStar, {Value(), Value(1), Value()}).int64(),
            3);
  EXPECT_EQ(RunAgg(AggKind::kCountStar, {}).int64(), 0);
}

TEST(AggStateTest, CountSkipsNulls) {
  EXPECT_EQ(RunAgg(AggKind::kCount, {Value(), Value(1), Value(2)}).int64(), 2);
  EXPECT_EQ(RunAgg(AggKind::kCount, {Value(), Value()}).int64(), 0);
}

TEST(AggStateTest, SumSemantics) {
  EXPECT_EQ(RunAgg(AggKind::kSum, {Value(1), Value(2), Value(3)}).int64(), 6);
  // SUM of the empty (or all-NULL) multiset is NULL — the exact behaviour
  // the paper's footnote 2 relies on for ALL-vs-MAX.
  EXPECT_TRUE(RunAgg(AggKind::kSum, {}).is_null());
  EXPECT_TRUE(RunAgg(AggKind::kSum, {Value(), Value()}).is_null());
  EXPECT_EQ(RunAgg(AggKind::kSum, {Value(), Value(5)}).int64(), 5);
}

TEST(AggStateTest, SumMigratesToDoubleOnMixedInput) {
  const Value v = RunAgg(AggKind::kSum, {Value(1), Value(2.5)},
                         ValueType::kDouble);
  EXPECT_EQ(v.type(), ValueType::kDouble);
  EXPECT_DOUBLE_EQ(v.dbl(), 3.5);
  // Integer argument type keeps the integer representation.
  EXPECT_EQ(RunAgg(AggKind::kSum, {Value(1), Value(2)}).type(),
            ValueType::kInt64);
}

TEST(AggStateTest, MinMax) {
  EXPECT_EQ(RunAgg(AggKind::kMin, {Value(3), Value(1), Value(2)}).int64(), 1);
  EXPECT_EQ(RunAgg(AggKind::kMax, {Value(3), Value(1), Value(2)}).int64(), 3);
  EXPECT_TRUE(RunAgg(AggKind::kMin, {}).is_null());
  EXPECT_TRUE(RunAgg(AggKind::kMax, {Value()}).is_null());
  EXPECT_EQ(RunAgg(AggKind::kMin, {Value(), Value(9)}).int64(), 9);
  EXPECT_EQ(
      RunAgg(AggKind::kMax, {Value("a"), Value("c"), Value("b")}).str(), "c");
}

TEST(AggStateTest, Avg) {
  const Value v = RunAgg(AggKind::kAvg, {Value(1), Value(2), Value(6)});
  EXPECT_DOUBLE_EQ(v.dbl(), 3.0);
  EXPECT_TRUE(RunAgg(AggKind::kAvg, {}).is_null());
  EXPECT_DOUBLE_EQ(
      RunAgg(AggKind::kAvg, {Value(), Value(4)}).dbl(), 4.0);
}

TEST(AggSpecTest, BindInfersOutputTypes) {
  const Table t = MakeTable({"x", "d:d"}, {});
  const std::vector<const Schema*> frames = {&t.schema()};

  AggSpec count = CountStar("c");
  ASSERT_TRUE(count.Bind(frames).ok());
  EXPECT_EQ(count.output_type(), ValueType::kInt64);

  AggSpec sum_int = SumOf(Col("x"), "s");
  ASSERT_TRUE(sum_int.Bind(frames).ok());
  EXPECT_EQ(sum_int.output_type(), ValueType::kInt64);

  AggSpec sum_dbl = SumOf(Col("d"), "s");
  ASSERT_TRUE(sum_dbl.Bind(frames).ok());
  EXPECT_EQ(sum_dbl.output_type(), ValueType::kDouble);

  AggSpec avg = AvgOf(Col("x"), "a");
  ASSERT_TRUE(avg.Bind(frames).ok());
  EXPECT_EQ(avg.output_type(), ValueType::kDouble);
}

TEST(AggSpecTest, BindRejectsMalformedSpecs) {
  const Table t = MakeTable({"x"}, {});
  AggSpec star_with_arg(AggKind::kCountStar, Col("x"), "c");
  EXPECT_FALSE(star_with_arg.Bind({&t.schema()}).ok());
  AggSpec sum_without_arg(AggKind::kSum, nullptr, "s");
  EXPECT_FALSE(sum_without_arg.Bind({&t.schema()}).ok());
}

TEST(AggSpecTest, BindRejectsSumAndAvgOverAString) {
  const Table t = MakeTable({"i:i", "s:s"}, {});
  const std::vector<const Schema*> frames = {&t.schema()};
  for (const AggKind kind : {AggKind::kSum, AggKind::kAvg}) {
    AggSpec spec(kind, Col("s"), "x");
    const Status status = spec.Bind(frames);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.message().find(AggKindToString(spec.kind)),
              std::string::npos)
        << status.ToString();
    EXPECT_NE(status.message().find("STRING"), std::string::npos)
        << status.ToString();
  }
  // COUNT, MIN and MAX take a string.
  for (const AggKind kind : {AggKind::kCount, AggKind::kMin, AggKind::kMax}) {
    AggSpec spec(kind, Col("s"), "x");
    EXPECT_TRUE(spec.Bind(frames).ok()) << spec.ToString();
  }
  // A CASE or COALESCE that mixes an INT64 and a STRING branch fails to
  // bind at all.
  const auto int_or_string = [] {
    return std::make_unique<CaseExpr>(Gt(Col("i"), Lit(int64_t{1})),
                                      Lit(int64_t{1}), Col("s"));
  };
  for (const AggKind kind : {AggKind::kSum, AggKind::kAvg}) {
    AggSpec in_case(kind, int_or_string(), "x");
    EXPECT_EQ(in_case.Bind(frames).code(), StatusCode::kInvalidArgument)
        << in_case.ToString();
    AggSpec nested(kind,
                   std::make_unique<CoalesceExpr>(Col("i"), int_or_string()),
                   "x");
    EXPECT_EQ(nested.Bind(frames).code(), StatusCode::kInvalidArgument)
        << nested.ToString();
    // A string in the condition only is fine.
    AggSpec in_condition(
        kind,
        std::make_unique<CaseExpr>(Eq(Col("s"), Lit("a")), Lit(int64_t{1}),
                                   Col("i")),
        "x");
    EXPECT_TRUE(in_condition.Bind(frames).ok()) << in_condition.ToString();
  }
}

TEST(AggSpecTest, CloneIsIndependent) {
  AggSpec spec = SumOf(Col("x"), "s");
  const AggSpec clone = spec.Clone();
  EXPECT_EQ(clone.output_name, "s");
  EXPECT_NE(clone.arg.get(), spec.arg.get());
}

TEST(AggSpecTest, ToStringMatchesPaperNotation) {
  EXPECT_EQ(SumOf(Col("F.NumBytes"), "sum1").ToString(),
            "sum(F.NumBytes) -> sum1");
  EXPECT_EQ(CountStar("cnt").ToString(), "count(*) -> cnt");
}

}  // namespace
}  // namespace gmdj
