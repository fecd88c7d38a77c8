// Plan-choice regressions: the paper's Figure 2-5 queries, planned under
// seed statistics, must land on sensible strategies — and the chosen plan
// must always produce the reference answer. These pin the cost model's
// ranking so a future tweak that flips a paper query to a pathological
// strategy fails loudly.

#include <cmath>

#include "engine/olap_engine.h"
#include "gtest/gtest.h"
#include "planner/planner.h"
#include "test_util.h"
#include "workload/paper_queries.h"
#include "workload/tpch_gen.h"

namespace gmdj {
namespace {

using testutil::SameRows;

class PlanChoiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Planner on regardless of the GMDJ_PLANNER ablation environment.
    engine_.set_planner_config(planner::PlannerConfig{});
    TpchConfig config;
    config.seed = 7;
    config.num_customers = 120;
    config.num_orders = 700;
    config.num_lineitems = 1;
    engine_.catalog()->PutTable("customer", GenCustomerTable(config));
    engine_.catalog()->PutTable("orders", GenOrdersTable(config));
  }

  planner::PlanDecision DecideOrDie(const NestedSelect& query) {
    auto decision = engine_.Decide(query);
    EXPECT_TRUE(decision.ok()) << decision.status().ToString();
    return decision.ok() ? *decision : planner::PlanDecision{};
  }

  void ExpectAutoMatchesReference(const NestedSelect& query,
                                  const char* context) {
    const auto reference = engine_.Execute(query, Strategy::kNativeNaive);
    ASSERT_TRUE(reference.ok()) << context;
    const auto result = engine_.Execute(query, Strategy::kAuto);
    ASSERT_TRUE(result.ok()) << context << ": "
                             << result.status().ToString();
    EXPECT_TRUE(SameRows(*result, *reference)) << context;
  }

  OlapEngine engine_;
};

TEST_F(PlanChoiceTest, DecisionIsAlwaysCheapestFiniteEstimate) {
  for (const NestedSelect& q :
       {Fig2ExistsQuery(), Fig3AggCompareQuery(), Fig4AllQuery(),
        Fig5TreeExistsQuery()}) {
    const planner::PlanDecision d = DecideOrDie(q);
    ASSERT_FALSE(d.estimates.empty());
    EXPECT_EQ(d.strategy, d.estimates.front().strategy);
    EXPECT_FALSE(std::isinf(d.est_cost));
    EXPECT_FALSE(d.rationale.empty());
    EXPECT_EQ(d.est_base_rows, 120.0);
  }
}

TEST_F(PlanChoiceTest, Fig2CorrelatedExistsAvoidsQuadraticStrategies) {
  // One eq-correlated EXISTS: anything that exploits the correlation
  // index (native-indexed/memo or a GMDJ hash binding) beats tuple
  // iteration. Pin: the naive interpreters must not win.
  const planner::PlanDecision d = DecideOrDie(Fig2ExistsQuery());
  EXPECT_NE(d.strategy, Strategy::kNativeNaive);
  EXPECT_NE(d.strategy, Strategy::kNativeSmart);
  EXPECT_NE(d.strategy, Strategy::kGmdjNaive);
  ExpectAutoMatchesReference(Fig2ExistsQuery(), "fig2");
}

TEST_F(PlanChoiceTest, Fig3AggregateComparePlansFinite) {
  const planner::PlanDecision d = DecideOrDie(Fig3AggCompareQuery());
  EXPECT_NE(d.strategy, Strategy::kNativeNaive);
  ExpectAutoMatchesReference(Fig3AggCompareQuery(), "fig3");
}

TEST_F(PlanChoiceTest, Fig4AllQuantifierPlansFinite) {
  const planner::PlanDecision d = DecideOrDie(Fig4AllQuery());
  EXPECT_NE(d.strategy, Strategy::kNativeNaive);
  ExpectAutoMatchesReference(Fig4AllQuery(), "fig4");
}

TEST_F(PlanChoiceTest, Fig5TwoExistsCoalesceIntoGmdj) {
  // Two EXISTS over the same detail table: the coalescing discount —
  // one scan of orders instead of two — is exactly what the GMDJ family
  // models, so the planner must choose a GMDJ strategy here.
  const planner::PlanDecision d = DecideOrDie(Fig5TreeExistsQuery());
  EXPECT_TRUE(d.strategy == Strategy::kGmdj ||
              d.strategy == Strategy::kGmdjOptimized)
      << StrategyToString(d.strategy);
  ExpectAutoMatchesReference(Fig5TreeExistsQuery(), "fig5");
}

TEST_F(PlanChoiceTest, UncorrelatedAllNePicksAntiProbeGmdj) {
  // `c_custkey <> ALL (SELECT o_custkey FROM orders)` is linear under
  // completion (one hash probe per order), while every tuple-iteration
  // plan pays |customer| x |orders|.
  const planner::PlanDecision d = DecideOrDie(Fig4AllQuery());
  EXPECT_EQ(d.strategy, Strategy::kGmdjOptimized)
      << StrategyToString(d.strategy);
  EXPECT_TRUE(d.use_completion);
  const Result<std::string> plan =
      engine_.Explain(Fig4AllQuery(), Strategy::kAuto);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_NE(plan->find("{anti-probe}"), std::string::npos) << *plan;
  ExpectAutoMatchesReference(Fig4AllQuery(), "fig4");
}

TEST_F(PlanChoiceTest, AntiProbeKeepsCompletionOn) {
  // A cutoff of 0 turns completion off wherever it is optional; the
  // anti-probe needs it, so the `<> ALL` plan keeps it.
  planner::PlannerConfig config;
  config.completion_selectivity_cutoff = 0.0;
  engine_.set_planner_config(config);
  const planner::PlanDecision all = DecideOrDie(Fig4AllQuery());
  EXPECT_EQ(all.strategy, Strategy::kGmdjOptimized);
  EXPECT_TRUE(all.use_completion);
  const planner::PlanDecision exists = DecideOrDie(Fig2ExistsQuery());
  ASSERT_EQ(exists.strategy, Strategy::kGmdjOptimized);
  EXPECT_FALSE(exists.use_completion);
  ExpectAutoMatchesReference(Fig4AllQuery(), "fig4 cutoff 0");
}

TEST_F(PlanChoiceTest, Fig2Fig3Fig5ChoicesUnchangedByAntiProbeCosting) {
  // The anti-probe term applies only to `<> ALL` blocks: the other paper
  // queries keep the plans they had before it existed.
  for (const NestedSelect& q :
       {Fig2ExistsQuery(), Fig3AggCompareQuery(), Fig5TreeExistsQuery()}) {
    const planner::PlanDecision d = DecideOrDie(q);
    EXPECT_EQ(d.strategy, Strategy::kGmdjOptimized) << q.ToString();
    EXPECT_TRUE(d.use_completion) << q.ToString();
    EXPECT_EQ(d.num_threads, 1) << q.ToString();
    EXPECT_FALSE(d.force_scan_bindings) << q.ToString();
  }
}

TEST_F(PlanChoiceTest, ChoicesAreDeterministic) {
  for (int round = 0; round < 3; ++round) {
    EXPECT_EQ(DecideOrDie(Fig2ExistsQuery()).strategy,
              DecideOrDie(Fig2ExistsQuery()).strategy);
    EXPECT_EQ(DecideOrDie(Fig5TreeExistsQuery()).strategy,
              DecideOrDie(Fig5TreeExistsQuery()).strategy);
  }
}

}  // namespace
}  // namespace gmdj
