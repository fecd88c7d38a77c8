#include "engine/olap_engine.h"

#include "expr/expr_builder.h"
#include "gtest/gtest.h"
#include "nested/nested_builder.h"
#include "test_util.h"

namespace gmdj {
namespace {

using testutil::MakeTable;
using testutil::SameRows;

class EngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    engine_.catalog()->PutTable("B", MakeTable({"B.k"}, {{1}, {2}, {3}}));
    engine_.catalog()->PutTable("R",
                                MakeTable({"R.k"}, {{1}, {1}, {3}, {9}}));
  }

  NestedSelect ExistsQuery() {
    NestedSelect q;
    q.source = From("B", "B");
    q.where = Exists(Sub(From("R", "R"),
                         WherePred(Eq(Col("R.k"), Col("B.k")))));
    return q;
  }

  OlapEngine engine_;
};

TEST_F(EngineTest, AllStrategiesEnumerated) {
  EXPECT_EQ(AllStrategies().size(), 9u);
  for (const Strategy s : AllStrategies()) {
    EXPECT_STRNE(StrategyToString(s), "?");
  }
}

TEST_F(EngineTest, ExecuteEveryStrategy) {
  const NestedSelect q = ExistsQuery();
  const Table expected = MakeTable({"k"}, {{1}, {3}});
  for (const Strategy s : AllStrategies()) {
    const Result<Table> out = engine_.Execute(q, s);
    ASSERT_TRUE(out.ok()) << StrategyToString(s);
    EXPECT_TRUE(SameRows(*out, expected)) << StrategyToString(s);
  }
}

TEST_F(EngineTest, ExecuteDoesNotConsumeTheQuery) {
  const NestedSelect q = ExistsQuery();
  ASSERT_TRUE(engine_.Execute(q, Strategy::kGmdj).ok());
  // Same object can run again (Execute clones internally).
  ASSERT_TRUE(engine_.Execute(q, Strategy::kUnnest).ok());
}

TEST_F(EngineTest, StatsAndTimingPopulated) {
  const NestedSelect q = ExistsQuery();
  ASSERT_TRUE(engine_.Execute(q, Strategy::kGmdj).ok());
  EXPECT_EQ(engine_.last_stats().gmdj_ops, 1u);
  EXPECT_GE(engine_.last_elapsed_ms(), 0.0);
  ASSERT_TRUE(engine_.Execute(q, Strategy::kNativeIndexed).ok());
  EXPECT_EQ(engine_.last_stats().gmdj_ops, 0u);
  EXPECT_GT(engine_.last_stats().hash_probes, 0u);
}

// A statement with select-list subqueries runs in two halves: the base
// query, then one coalesced GMDJ over its rows. QueryRun must report the
// work of both — exactly what the engine registry recorded.
TEST_F(EngineTest, QueryRunCountsSelectListBackHalf) {
  const char* counters[] = {"exec.rows_scanned", "exec.predicate_evals",
                            "exec.hash_probes", "exec.gmdj_ops",
                            "exec.morsels"};
  auto totals = [&] {
    std::vector<uint64_t> out;
    for (const char* name : counters) {
      out.push_back(engine_.metrics()->GetCounter(name)->Total());
    }
    return out;
  };
  const std::vector<uint64_t> before = totals();
  QueryRun run;
  const Result<Table> result = engine_.ExecuteSql(
      "SELECT b.k, (SELECT COUNT(*) FROM R r1 WHERE r1.k = b.k) AS n, "
      "(SELECT SUM(r2.k) FROM R r2 WHERE r2.k = b.k AND r2.k > 1) AS s "
      "FROM B b",
      Strategy::kGmdjOptimized, SessionLimits(), &run);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->num_rows(), 3u);
  const std::vector<uint64_t> after = totals();
  const uint64_t reported[] = {run.stats.rows_scanned,
                               run.stats.predicate_evals,
                               run.stats.hash_probes, run.stats.gmdj_ops,
                               run.stats.morsels};
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(reported[i], after[i] - before[i]) << counters[i];
  }
  // The back half scanned R (4 rows) and probed it once per non-NULL key.
  EXPECT_GE(run.stats.rows_scanned, 3u + 4u);
  EXPECT_EQ(run.stats.hash_probes, 4u);
  EXPECT_EQ(run.stats.gmdj_ops, 1u);
}

TEST_F(EngineTest, PlanOnlyForPlanBasedStrategies) {
  const NestedSelect q = ExistsQuery();
  EXPECT_TRUE(engine_.Plan(q, Strategy::kGmdj).ok());
  EXPECT_TRUE(engine_.Plan(q, Strategy::kUnnest).ok());
  EXPECT_FALSE(engine_.Plan(q, Strategy::kNativeSmart).ok());
}

TEST_F(EngineTest, ExplainRendersPlans) {
  const NestedSelect q = ExistsQuery();
  const Result<std::string> gmdj = engine_.Explain(q, Strategy::kGmdj);
  ASSERT_TRUE(gmdj.ok());
  EXPECT_NE(gmdj->find("GMDJ"), std::string::npos);
  const Result<std::string> unnest = engine_.Explain(q, Strategy::kUnnest);
  ASSERT_TRUE(unnest.ok());
  EXPECT_NE(unnest->find("HashJoin(Semi)"), std::string::npos);
  const Result<std::string> native =
      engine_.Explain(q, Strategy::kNativeSmart);
  ASSERT_TRUE(native.ok());
  EXPECT_NE(native->find("tuple iteration"), std::string::npos);
}

TEST_F(EngineTest, ProjectHelper) {
  const Table in = MakeTable({"a", "b"}, {{6, 2}, {10, 5}});
  std::vector<ProjItem> items;
  items.emplace_back(Div(Col("a"), Col("b")), "ratio");
  const Result<Table> out = engine_.Project(in, std::move(items));
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(SameRows(*out, MakeTable({"ratio:d"}, {{3.0}, {2.0}})));
}

TEST_F(EngineTest, ErrorsPropagate) {
  NestedSelect q;
  q.source = From("Missing", "M");
  for (const Strategy s : AllStrategies()) {
    EXPECT_FALSE(engine_.Execute(q, s).ok()) << StrategyToString(s);
  }
}

TEST_F(EngineTest, EmptyBaseTable) {
  engine_.catalog()->PutTable("B", MakeTable({"B.k"}, {}));
  const NestedSelect q = ExistsQuery();
  for (const Strategy s : AllStrategies()) {
    const Result<Table> out = engine_.Execute(q, s);
    ASSERT_TRUE(out.ok()) << StrategyToString(s);
    EXPECT_EQ(out->num_rows(), 0u) << StrategyToString(s);
  }
}

}  // namespace
}  // namespace gmdj
