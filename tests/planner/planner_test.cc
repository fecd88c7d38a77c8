// The cost-based planner end to end: decisions and hints, the
// GMDJ_PLANNER=off ablation, statistics freshness across every mutation
// path, and the adaptive replan loop triggered by a >10x estimate miss.

#include "planner/planner.h"

#include <string>

#include "engine/olap_engine.h"
#include "expr/expr_builder.h"
#include "gtest/gtest.h"
#include "nested/nested_builder.h"
#include "test_util.h"

namespace gmdj {
namespace {

using testutil::MakeTable;
using testutil::SameRows;

// SELECT * FROM B WHERE EXISTS (SELECT * FROM D WHERE D.k = B.k).
NestedSelect EqExistsQuery(const char* base, const char* detail) {
  NestedSelect q;
  q.source = From(base, base);
  q.where = Exists(Sub(From(detail, detail),
                       WherePred(Eq(Col(std::string(detail) + ".k"),
                                    Col(std::string(base) + ".k")))));
  return q;
}

std::string PlanText(const Table& table) {
  std::string text;
  for (size_t r = 0; r < table.num_rows(); ++r) {
    text += table.row(r)[0].ToString();
    text += "\n";
  }
  return text;
}

class PlannerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Force the planner on regardless of GMDJ_PLANNER in the
    // environment: the CI ablation job runs the whole suite with the
    // planner off, and these tests exercise planner-on behavior.
    engine_.set_planner_config(planner::PlannerConfig{});
    Table base = MakeTable({"B.k", "B.x"}, {});
    for (int i = 0; i < 200; ++i) base.AppendRow({i % 50, i});
    engine_.catalog()->PutTable("B", base);
    Table detail = MakeTable({"D.k", "D.y"}, {});
    for (int i = 0; i < 5000; ++i) detail.AppendRow({i % 50, i});
    engine_.catalog()->PutTable("D", detail);
  }
  OlapEngine engine_;
};

TEST_F(PlannerTest, DecideProducesConsistentDecision) {
  const auto decision = engine_.Decide(EqExistsQuery("B", "D"));
  ASSERT_TRUE(decision.ok());
  EXPECT_FALSE(decision->rationale.empty());
  EXPECT_FALSE(decision->signature.empty());
  EXPECT_FALSE(decision->replanned);
  EXPECT_EQ(decision->est_base_rows, 200.0);
  EXPECT_GT(decision->est_result_rows, 0.0);
  ASSERT_FALSE(decision->estimates.empty());
  EXPECT_EQ(decision->estimates.size(), AllStrategies().size());
  // The chosen strategy is the cheapest estimate.
  EXPECT_EQ(decision->strategy, decision->estimates.front().strategy);
  EXPECT_EQ(decision->est_cost, decision->estimates.front().cost);
  // Summary carries the strategy and rationale for EXPLAIN / the shell.
  const std::string summary = decision->Summary();
  EXPECT_NE(summary.find("planner: strategy="), std::string::npos);
  EXPECT_NE(summary.find("est_rows="), std::string::npos);
}

TEST_F(PlannerTest, DisabledPlannerFallsBackStatically) {
  planner::PlannerConfig config;
  config.enabled = false;
  engine_.set_planner_config(config);
  const auto decision = engine_.Decide(EqExistsQuery("B", "D"));
  ASSERT_TRUE(decision.ok());
  EXPECT_EQ(decision->strategy, Strategy::kGmdjOptimized);
  EXPECT_TRUE(decision->signature.empty());
  EXPECT_TRUE(decision->estimates.empty());
  EXPECT_NE(decision->rationale.find("disabled"), std::string::npos);
  // kAuto still executes (resolved to the fallback), and no statistics
  // are collected — the full ablation.
  const auto result = engine_.Execute(EqExistsQuery("B", "D"),
                                      Strategy::kAuto);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(engine_.table_stats()->TableNames().size(), 0u);
}

TEST_F(PlannerTest, AutoAgreesWithNativeReference) {
  const NestedSelect q = EqExistsQuery("B", "D");
  const auto reference = engine_.Execute(q, Strategy::kNativeNaive);
  ASSERT_TRUE(reference.ok());
  const auto result = engine_.Execute(q, Strategy::kAuto);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(SameRows(*result, *reference));
}

TEST_F(PlannerTest, SmallInputRunsSequential) {
  // 200 + 5000 rows < sequential_threshold: one thread, no pool.
  const auto decision = engine_.Decide(EqExistsQuery("B", "D"));
  ASSERT_TRUE(decision.ok());
  EXPECT_EQ(decision->num_threads, 1);
  EXPECT_NE(decision->rationale.find("sequential"), std::string::npos);
}

TEST_F(PlannerTest, LargeInputInheritsThreadConfig) {
  Table big = MakeTable({"Big.k", "Big.y"}, {});
  for (int i = 0; i < 10000; ++i) big.AppendRow({i % 50, i});
  engine_.catalog()->PutTable("Big", big);
  const auto decision = engine_.Decide(EqExistsQuery("B", "Big"));
  ASSERT_TRUE(decision.ok());
  EXPECT_EQ(decision->num_threads, 0);  // 0 = engine/config default.
}

TEST_F(PlannerTest, TinyBaseForcesScanBindings) {
  Table tiny = MakeTable({"T.k", "T.x"}, {});
  for (int i = 0; i < 8; ++i) tiny.AppendRow({i, i});
  engine_.catalog()->PutTable("T", tiny);
  const auto decision = engine_.Decide(EqExistsQuery("T", "D"));
  ASSERT_TRUE(decision.ok());
  if (decision->strategy == Strategy::kGmdj ||
      decision->strategy == Strategy::kGmdjOptimized ||
      decision->strategy == Strategy::kGmdjNaive) {
    EXPECT_TRUE(decision->force_scan_bindings);
    EXPECT_NE(decision->rationale.find("scan bindings"), std::string::npos);
  }
  // The hint must not change the answer.
  const NestedSelect q = EqExistsQuery("T", "D");
  const auto reference = engine_.Execute(q, Strategy::kNativeNaive);
  const auto result = engine_.Execute(q, Strategy::kAuto);
  ASSERT_TRUE(reference.ok() && result.ok());
  EXPECT_TRUE(SameRows(*result, *reference));
  // A normal-sized base keeps index bindings.
  const auto normal = engine_.Decide(EqExistsQuery("B", "D"));
  ASSERT_TRUE(normal.ok());
  EXPECT_FALSE(normal->force_scan_bindings);
}

// Satellite 2: INSERT INTO ... VALUES must invalidate cached statistics —
// the next planning pass re-reads fresh row counts.
TEST_F(PlannerTest, InsertRefreshesRowCountEstimates) {
  const NestedSelect q = EqExistsQuery("B", "D");
  const auto before = engine_.Decide(q);
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before->est_base_rows, 200.0);

  std::string insert = "INSERT INTO B VALUES (1, 999)";
  for (int i = 1; i < 100; ++i) insert += ", (1, 999)";
  const auto inserted = engine_.ExecuteSql(insert, Strategy::kGmdjOptimized);
  ASSERT_TRUE(inserted.ok()) << inserted.status().ToString();
  const auto after = engine_.Decide(q);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->est_base_rows, 300.0);
}

TEST_F(PlannerTest, RestoreSnapshotRefreshesEstimates) {
  const std::string dir =
      ::testing::TempDir() + "/gmdj_planner_snapshot_test";
  ASSERT_TRUE(engine_.SaveSnapshot(dir).ok());
  // Warm the statistics at 200 rows, mutate to 250, then restore back.
  ASSERT_TRUE(engine_.Decide(EqExistsQuery("B", "D")).ok());
  std::vector<Row> rows;
  for (int i = 0; i < 50; ++i) rows.push_back({1, 777});
  ASSERT_TRUE(engine_.AppendRows("B", std::move(rows)).ok());
  const auto grown = engine_.Decide(EqExistsQuery("B", "D"));
  ASSERT_TRUE(grown.ok());
  EXPECT_EQ(grown->est_base_rows, 250.0);

  ASSERT_TRUE(engine_.RestoreSnapshot(dir).ok());
  const auto restored = engine_.Decide(EqExistsQuery("B", "D"));
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->est_base_rows, 200.0);
}

TEST_F(PlannerTest, AnalyzeStatementCollectsStats) {
  const auto all = engine_.ExecuteSql("ANALYZE", Strategy::kAuto);
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  const std::string text = PlanText(*all);
  EXPECT_NE(text.find("B: 200 rows"), std::string::npos);
  EXPECT_NE(text.find("D: 5000 rows"), std::string::npos);
  EXPECT_EQ(engine_.table_stats()->TableNames().size(), 2u);

  const auto one = engine_.ExecuteSql("ANALYZE B", Strategy::kAuto);
  ASSERT_TRUE(one.ok());
  EXPECT_NE(PlanText(*one).find("B: 200 rows"), std::string::npos);

  const auto unknown = engine_.ExecuteSql("ANALYZE nope", Strategy::kAuto);
  EXPECT_FALSE(unknown.ok());
  EXPECT_NE(unknown.status().message().find("unknown table"),
            std::string::npos);
}

TEST_F(PlannerTest, ExplainCarriesPlannerSummary) {
  const auto out = engine_.ExecuteSql(
      "EXPLAIN SELECT * FROM B WHERE EXISTS "
      "(SELECT * FROM D WHERE D.k = B.k)",
      Strategy::kAuto);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  const std::string text = PlanText(*out);
  EXPECT_EQ(text.rfind("planner: strategy=", 0), 0u) << text;
  EXPECT_NE(text.find("est_rows="), std::string::npos);
}

TEST_F(PlannerTest, ExplainAnalyzeShowsEstimateVsActual) {
  const auto out = engine_.ExecuteSql(
      "EXPLAIN ANALYZE SELECT * FROM B WHERE EXISTS "
      "(SELECT * FROM D WHERE D.k = B.k)",
      Strategy::kAuto);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  const std::string text = PlanText(*out);
  EXPECT_EQ(text.rfind("planner: strategy=", 0), 0u) << text;
  EXPECT_NE(text.find("estimated_rows="), std::string::npos) << text;
  EXPECT_NE(text.find("actual_rows="), std::string::npos) << text;
  EXPECT_NE(text.find("error="), std::string::npos) << text;
}

// The adaptive loop: a skewed table whose NDV-ratio estimate misses the
// actual cardinality by ~40x. The first execution records the actual
// under the plan signature; the next Decide re-optimizes from it.
class ReplanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    engine_.set_planner_config(planner::PlannerConfig{});
    // Base: 960 rows with k=1 plus one row each for k=2..41 (NDV 41).
    Table base = MakeTable({"B.k", "B.x"}, {});
    for (int i = 0; i < 960; ++i) base.AppendRow({1, i});
    for (int k = 2; k <= 41; ++k) base.AppendRow({k, k});
    engine_.catalog()->PutTable("B", base);
    // Detail: only k=1. The NDV-ratio selectivity (1/41) predicts ~24
    // result rows; the skew makes the true answer 960.
    Table detail = MakeTable({"D.k", "D.y"}, {});
    for (int i = 0; i < 2000; ++i) detail.AppendRow({1, i});
    engine_.catalog()->PutTable("D", detail);
  }
  OlapEngine engine_;
};

TEST_F(ReplanTest, TenfoldMissTriggersReoptimization) {
  const NestedSelect q = EqExistsQuery("B", "D");

  const auto first = engine_.Decide(q);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->replanned);
  EXPECT_LT(first->est_result_rows, 100.0);  // NDV ratio: ~24 of 1000.

  const auto result = engine_.Execute(q, Strategy::kAuto);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->num_rows(), 960u);

  // >10x miss recorded: the same query now plans with the actual.
  const auto second = engine_.Decide(q);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->replanned);
  EXPECT_EQ(second->est_result_rows, 960.0);
  EXPECT_NE(second->Summary().find("replanned=yes"), std::string::npos);

  const auto snapshot = engine_.SnapshotMetrics();
  EXPECT_GE(snapshot.counters.at("planner.replans"), 1u);
  EXPECT_GE(snapshot.counters.at("planner.feedback_hits"), 1u);
  EXPECT_GE(snapshot.counters.at("planner.decisions"), 2u);
}

TEST_F(ReplanTest, AccurateEstimateDoesNotReplan) {
  // Self-join over the single-key detail: NDV 1 on both sides gives
  // selectivity 1 — the estimate (2000) matches the actual exactly.
  NestedSelect q;
  q.source = From("D", "O");
  q.where = Exists(Sub(From("D", "I"),
                       WherePred(Eq(Col("I.k"), Col("O.k")))));
  ASSERT_TRUE(engine_.Execute(q, Strategy::kAuto).ok());
  const auto decision = engine_.Decide(q);
  ASSERT_TRUE(decision.ok());
  // Estimate: NDV(D.k)=1 on both sides -> selectivity 1 -> 2000 rows;
  // actual 2000. No miss, no replan.
  EXPECT_FALSE(decision->replanned);
  EXPECT_EQ(engine_.SnapshotMetrics().counters.at("planner.replans"), 0u);
}

TEST_F(ReplanTest, FeedbackStoreStaysWithinItsCap) {
  planner::Planner* planner = engine_.planner();
  ASSERT_NE(planner, nullptr);
  // Distinct-constant statements that each miss their estimate record
  // one signature apiece: the store never holds more than its cap.
  constexpr size_t kCap = planner::Planner::kFeedbackCapacity;
  for (size_t i = 0; i < 3 * kCap + 7; ++i) {
    planner::PlanDecision miss;
    miss.signature = "SELECT * FROM B WHERE B.x > " + std::to_string(i);
    miss.est_result_rows = 1.0;
    planner->RecordActuals(miss, 1000.0);
    ASSERT_LE(planner->feedback_size(), kCap) << "after " << i + 1;
  }
  EXPECT_GE(planner->feedback_size(), 1u);

  // A statement that keeps missing still gets its feedback hit.
  const NestedSelect q = EqExistsQuery("B", "D");
  const auto first = engine_.Decide(q);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->replanned);
  planner->RecordActuals(*first, 960.0);
  const auto second = engine_.Decide(q);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->replanned);
  EXPECT_EQ(second->est_result_rows, 960.0);
  EXPECT_LE(planner->feedback_size(), kCap);
}

}  // namespace
}  // namespace gmdj
