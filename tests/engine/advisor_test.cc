#include <cmath>

#include "engine/olap_engine.h"

#include "expr/expr_builder.h"
#include "gtest/gtest.h"
#include "nested/nested_builder.h"
#include "test_util.h"

namespace gmdj {
namespace {

using testutil::MakeTable;
using testutil::StatFreeEstimates;

class AdvisorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Table big = MakeTable({"R.k", "R.y"}, {});
    for (int i = 0; i < 5000; ++i) big.AppendRow({i % 50, i});
    engine_.catalog()->PutTable("R", big);
    Table base = MakeTable({"B.k", "B.x"}, {});
    for (int i = 0; i < 200; ++i) base.AppendRow({i % 50, i});
    engine_.catalog()->PutTable("B", base);
    engine_.catalog()->PutTable("S", MakeTable({"S.k"}, {{1}, {2}}));
  }

  double CostOf(const std::vector<StrategyCostEstimate>& estimates,
                Strategy strategy) {
    for (const auto& e : estimates) {
      if (e.strategy == strategy) return e.cost;
    }
    ADD_FAILURE() << "strategy missing from estimates";
    return 0;
  }

  OlapEngine engine_;
};

TEST_F(AdvisorTest, EstimatesCoverEveryStrategy) {
  NestedSelect q;
  q.source = From("B", "B");
  q.where = Exists(Sub(From("R", "R"),
                       WherePred(Eq(Col("R.k"), Col("B.k")))));
  const auto estimates = StatFreeEstimates(*engine_.catalog(), q);
  ASSERT_TRUE(estimates.ok());
  EXPECT_EQ(estimates->size(), AllStrategies().size());
  // Sorted ascending.
  for (size_t i = 1; i < estimates->size(); ++i) {
    EXPECT_LE((*estimates)[i - 1].cost, (*estimates)[i].cost);
  }
}

TEST_F(AdvisorTest, NaiveNeverBeatsIndexedOnEqualityCorrelation) {
  NestedSelect q;
  q.source = From("B", "B");
  q.where = Exists(Sub(From("R", "R"),
                       WherePred(Eq(Col("R.k"), Col("B.k")))));
  const auto estimates = StatFreeEstimates(*engine_.catalog(), q);
  ASSERT_TRUE(estimates.ok());
  EXPECT_LT(CostOf(*estimates, Strategy::kNativeIndexed),
            CostOf(*estimates, Strategy::kNativeNaive));
  EXPECT_LT(CostOf(*estimates, Strategy::kGmdj),
            CostOf(*estimates, Strategy::kNativeNaive));
}

TEST_F(AdvisorTest, RecommendationActuallyRuns) {
  NestedSelect q;
  q.source = From("B", "B");
  q.where = Exists(Sub(From("R", "R"),
                       WherePred(Eq(Col("R.k"), Col("B.k")))));
  const auto estimates = StatFreeEstimates(*engine_.catalog(), q);
  ASSERT_TRUE(estimates.ok());
  const auto result = engine_.Execute(q, estimates->front().strategy);
  ASSERT_TRUE(result.ok());
  const auto reference = engine_.Execute(q, Strategy::kNativeNaive);
  ASSERT_TRUE(reference.ok());
  EXPECT_TRUE(result->SameRowsAs(*reference));
}

TEST_F(AdvisorTest, DisjunctiveSubqueryDisqualifiesUnnesting) {
  NestedSelect q;
  q.source = From("B", "B");
  q.where = OrP(Exists(Sub(From("R", "R"),
                           WherePred(Eq(Col("R.k"), Col("B.k"))))),
                WherePred(Gt(Col("B.x"), Lit(100))));
  const auto estimates = StatFreeEstimates(*engine_.catalog(), q);
  ASSERT_TRUE(estimates.ok());
  EXPECT_TRUE(std::isinf(CostOf(*estimates, Strategy::kUnnest)));
  EXPECT_TRUE(std::isinf(CostOf(*estimates, Strategy::kUnnestNoIndex)));
  EXPECT_FALSE(std::isinf(CostOf(*estimates, Strategy::kGmdj)));
}

TEST_F(AdvisorTest, NonNeighboringDisqualifiesUnnesting) {
  NestedSelect q;
  q.source = From("B", "B");
  q.where = NotExists(Sub(
      From("R", "R"),
      AndP(WherePred(Eq(Col("R.k"), Col("B.k"))),
           NotExists(Sub(From("S", "S"),
                         WherePred(Eq(Col("S.k"), Col("B.x"))))))));
  const auto estimates = StatFreeEstimates(*engine_.catalog(), q);
  ASSERT_TRUE(estimates.ok());
  EXPECT_TRUE(std::isinf(CostOf(*estimates, Strategy::kUnnest)));
  // The GMDJ pays for a join but stays finite.
  EXPECT_FALSE(std::isinf(CostOf(*estimates, Strategy::kGmdj)));
}

TEST_F(AdvisorTest, NonEquiCorrelationFavorsCompletion) {
  // B.x <> ALL (...) with no equality correlation: everything is
  // quadratic, but completion's discount should rank gmdj-optimized ahead
  // of basic gmdj.
  NestedSelect q;
  q.source = From("B", "B");
  q.where = AllSub(Col("B.x"), CompareOp::kNe,
                   SubSelect(From("R", "R"), Col("R.y"), nullptr));
  const auto estimates = StatFreeEstimates(*engine_.catalog(), q);
  ASSERT_TRUE(estimates.ok());
  EXPECT_LT(CostOf(*estimates, Strategy::kGmdjOptimized),
            CostOf(*estimates, Strategy::kGmdj));
}

TEST_F(AdvisorTest, CoalescingDiscountForSameTableSubqueries) {
  auto make = [](const char* table2) {
    NestedSelect q;
    q.source = From("B", "B");
    q.where =
        AndP(Exists(Sub(From("R", "R1"),
                        WherePred(Eq(Col("R1.k"), Col("B.k"))))),
             Exists(Sub(From(table2, "R2"),
                        WherePred(Eq(Col("R2.k"), Col("B.k"))))));
    return q;
  };
  const auto same = StatFreeEstimates(*engine_.catalog(), make("R"));
  const auto diff = StatFreeEstimates(*engine_.catalog(), make("S"));
  ASSERT_TRUE(same.ok() && diff.ok());
  // Same-table subqueries coalesce: one scan of R instead of two.
  const double same_opt = CostOf(*same, Strategy::kGmdjOptimized);
  const double same_basic = CostOf(*same, Strategy::kGmdj);
  EXPECT_LT(same_opt, same_basic);
}

TEST_F(AdvisorTest, UnknownTableFailsBinding) {
  NestedSelect q;
  q.source = From("Nope", "N");
  EXPECT_FALSE(StatFreeEstimates(*engine_.catalog(), q).ok());
}

TEST_F(AdvisorTest, RationaleIsHumanReadable) {
  NestedSelect q;
  q.source = From("B", "B");
  q.where = Exists(Sub(From("R", "R"),
                       WherePred(Eq(Col("R.k"), Col("B.k")))));
  const auto estimates = StatFreeEstimates(*engine_.catalog(), q);
  ASSERT_TRUE(estimates.ok());
  for (const auto& e : *estimates) {
    EXPECT_FALSE(e.rationale.empty()) << StrategyToString(e.strategy);
  }
}

}  // namespace
}  // namespace gmdj
