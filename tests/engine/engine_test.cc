#include "engine/olap_engine.h"

#include <string>
#include <vector>

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

TEST_F(EngineTest, SumAndAvgOverAStringAreRejectedByEveryStrategy) {
  engine_.catalog()->PutTable(
      "S", MakeTable({"S.k", "S.name:s"}, {{1, "x"}, {3, "y"}}));
  const std::vector<std::string> queries = {
      "SELECT * FROM B B WHERE B.k > (SELECT SUM(S.name) FROM S S "
      "WHERE S.k = B.k)",
      "SELECT B.k, (SELECT AVG(S.name) FROM S S WHERE S.k = B.k) FROM B B",
      // A CASE or COALESCE whose branches are STRING (or NULL).
      "SELECT * FROM B B WHERE B.k > (SELECT SUM(CASE WHEN S.k > 1 THEN "
      "NULL ELSE S.name END) FROM S S WHERE S.k = B.k)",
      "SELECT B.k, (SELECT AVG(COALESCE(S.name, 'z')) FROM S S "
      "WHERE S.k = B.k) FROM B B"};
  std::vector<Strategy> strategies = AllStrategies();
  strategies.push_back(Strategy::kAuto);
  for (const std::string& sql : queries) {
    for (const Strategy s : strategies) {
      const Result<Table> out = engine_.ExecuteSql(sql, s);
      ASSERT_FALSE(out.ok()) << StrategyToString(s) << ": " << sql;
      EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument)
          << StrategyToString(s) << ": " << out.status().ToString();
      EXPECT_NE(out.status().message().find("not STRING"), std::string::npos)
          << StrategyToString(s) << ": " << out.status().ToString();
    }
  }
  // A string argument still reaches COUNT, MIN and MAX.
  for (const Strategy s : strategies) {
    const Result<Table> out = engine_.ExecuteSql(
        "SELECT B.k, (SELECT MAX(S.name) FROM S S WHERE S.k = B.k) FROM B B",
        s);
    ASSERT_TRUE(out.ok()) << StrategyToString(s) << ": "
                          << out.status().ToString();
    EXPECT_EQ(out->num_rows(), 3u) << StrategyToString(s);
  }
}

TEST_F(EngineTest, ArithmeticOverAStringIsRejectedByEveryStrategy) {
  // `string + 1` used to reach Value::AsDouble and abort the process; it
  // is an InvalidArgument at bind, in a WHERE clause and in the select
  // list, whatever the strategy.
  engine_.catalog()->PutTable(
      "S", MakeTable({"S.k", "S.name:s"}, {{1, "x"}, {3, "y"}}));
  const std::vector<std::string> queries = {
      "SELECT * FROM S S WHERE S.name + 1 > 0",
      "SELECT * FROM B B WHERE EXISTS (SELECT * FROM S S WHERE S.k = B.k "
      "AND S.name * 2 > 0)",
      "SELECT B.k, (SELECT MAX(S.name * 2) FROM S S WHERE S.k = B.k) "
      "FROM B B",
      // The CASE binds STRING.
      "SELECT B.k, (SELECT MIN(1 - CASE WHEN S.k > 1 THEN NULL ELSE S.name "
      "END) FROM S S WHERE S.k = B.k) FROM B B"};
  std::vector<Strategy> strategies = AllStrategies();
  strategies.push_back(Strategy::kAuto);
  for (const std::string& sql : queries) {
    for (const Strategy s : strategies) {
      const Result<Table> out = engine_.ExecuteSql(sql, s);
      ASSERT_FALSE(out.ok()) << StrategyToString(s) << ": " << sql;
      EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument)
          << StrategyToString(s) << ": " << out.status().ToString();
      EXPECT_NE(out.status().message().find("not STRING"), std::string::npos)
          << StrategyToString(s) << ": " << out.status().ToString();
    }
  }
}

TEST_F(EngineTest, ConstantFoldedCaseExtremesMatchEveryStrategy) {
  // A constant CASE binds as its branches unify and folds to the branch it
  // takes. CASE WHEN 1 = 1 THEN 1 ELSE 2.5 END binds DOUBLE and yields an
  // int64, which every strategy returns as 1.0.
  std::vector<Strategy> strategies = AllStrategies();
  strategies.push_back(Strategy::kAuto);
  for (const char* agg : {"MAX", "MIN"}) {
    const std::string sql =
        std::string("SELECT B.k, (SELECT ") + agg +
        "(CASE WHEN 1 = 1 THEN 1 ELSE 2.5 END) FROM R R WHERE R.k = B.k) "
        "FROM B B";
    for (const Strategy s : strategies) {
      const Result<Table> out = engine_.ExecuteSql(sql, s);
      ASSERT_TRUE(out.ok()) << StrategyToString(s) << ": "
                            << out.status().ToString();
      EXPECT_TRUE(SameRows(*out, MakeTable({"k", "m:d"}, {{1, 1.0},
                                                         {2, Value::Null()},
                                                         {3, 1.0}})))
          << agg << " " << StrategyToString(s);
    }
  }
  // CASE WHEN 1 = 0 THEN 1 ELSE 'x' END mixes an INT64 and a STRING
  // branch, which have no common type: every strategy refuses it at bind,
  // constant or not, and so do arithmetic and SUM over such a CASE or
  // COALESCE.
  std::vector<std::string> mixed;
  for (const char* agg : {"MAX", "MIN"}) {
    mixed.push_back(std::string("SELECT * FROM B B WHERE 'a' < (SELECT ") +
                    agg +
                    "(CASE WHEN 1 = 0 THEN 1 ELSE 'x' END) FROM R R WHERE "
                    "R.k = B.k)");
  }
  engine_.catalog()->PutTable(
      "S", MakeTable({"S.k", "S.name:s"}, {{1, "x"}, {3, "y"}}));
  mixed.push_back(
      "SELECT * FROM B B WHERE B.k > (SELECT SUM(CASE WHEN S.k > 1 THEN 1 "
      "ELSE S.name END) FROM S S WHERE S.k = B.k)");
  mixed.push_back(
      "SELECT B.k, (SELECT AVG(COALESCE(S.k + NULL, S.name)) FROM S S "
      "WHERE S.k = B.k) FROM B B");
  mixed.push_back(
      "SELECT B.k, (SELECT MIN(1 - CASE WHEN S.k > 1 THEN 1 ELSE S.name "
      "END) FROM S S WHERE S.k = B.k) FROM B B");
  for (const std::string& sql : mixed) {
    for (const Strategy s : strategies) {
      const Result<Table> out = engine_.ExecuteSql(sql, s);
      ASSERT_FALSE(out.ok()) << StrategyToString(s) << ": " << sql;
      EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument)
          << StrategyToString(s) << ": " << out.status().ToString();
      EXPECT_NE(
          out.status().message().find("mixes STRING and numeric branches"),
          std::string::npos)
          << StrategyToString(s) << ": " << out.status().ToString();
    }
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
