// Hard limits and contract violations of the GMDJ operator: these are
// engine invariants (GMDJ_CHECK), so violating them aborts — death tests
// pin the behaviour so it cannot silently regress into corruption.

#include "common/str_util.h"
#include "core/gmdj_node.h"

#include "exec/nodes.h"
#include "expr/expr_builder.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace gmdj {
namespace {

using testutil::MakeTable;
using testutil::RunPlan;

std::vector<GmdjCondition> CountConditions(int n) {
  std::vector<GmdjCondition> conds;
  for (int i = 0; i < n; ++i) {
    GmdjCondition c;
    c.theta = Eq(Col("B.k"), Col("R.k"));
    c.aggs.push_back(CountStar(StrCat({"c", std::to_string(i)})));
    conds.push_back(std::move(c));
  }
  return conds;
}

PlanPtr Scan(const char* name) {
  return std::make_unique<TableScanNode>(name);
}

TEST(GmdjLimitsTest, SixtyFourConditionsSupported) {
  Catalog catalog;
  catalog.PutTable("B", MakeTable({"B.k"}, {{1}, {2}}));
  catalog.PutTable("R", MakeTable({"R.k"}, {{1}, {1}, {3}}));
  GmdjNode node(Scan("B"), Scan("R"), CountConditions(64));
  const Table out = RunPlan(&node, catalog);
  ASSERT_EQ(out.num_columns(), 65u);
  EXPECT_EQ(out.row(0)[1].int64(), 2);   // k=1 matches twice.
  EXPECT_EQ(out.row(0)[64].int64(), 2);  // Every condition agrees.
  EXPECT_EQ(out.row(1)[1].int64(), 0);
}

TEST(GmdjLimitsDeathTest, MoreThanSixtyFourConditionsAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      GmdjNode(Scan("B"), Scan("R"), CountConditions(65)),
      "GMDJ_CHECK");
}

TEST(GmdjLimitsDeathTest, EmptyConditionListAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(GmdjNode(Scan("B"), Scan("R"), {}), "GMDJ_CHECK");
}

TEST(GmdjLimitsDeathTest, CompletionActionsArityChecked) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        GmdjNode node(Scan("B"), Scan("R"), CountConditions(2));
        CompletionSpec spec;
        spec.actions = {CompletionAction::kDiscardOnMatch};  // Wrong size.
        node.SetCompletion(std::move(spec));
      },
      "GMDJ_CHECK");
}

TEST(GmdjLimitsTest, BindFailuresSurfaceAsStatus) {
  // User errors (unresolvable theta) are Status, never aborts.
  Catalog catalog;
  catalog.PutTable("B", MakeTable({"B.k"}, {{1}}));
  catalog.PutTable("R", MakeTable({"R.k"}, {{1}}));
  std::vector<GmdjCondition> conds;
  GmdjCondition c;
  c.theta = Eq(Col("B.k"), Col("R.nope"));
  c.aggs.push_back(CountStar("c"));
  conds.push_back(std::move(c));
  GmdjNode node(Scan("B"), Scan("R"), std::move(conds));
  EXPECT_EQ(node.Prepare(catalog).code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace gmdj
