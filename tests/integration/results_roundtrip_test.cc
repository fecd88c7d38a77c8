// End-to-end surface integration: query results exported to CSV and read
// back byte-faithfully; the optimizer pass is idempotent; the cost model,
// translator, and renderer compose on the same query object.

#include <cstdio>

#include "core/optimizer.h"
#include "core/to_sql.h"
#include "core/translate.h"
#include "engine/olap_engine.h"
#include "gtest/gtest.h"
#include "sql/parser.h"
#include "storage/csv.h"
#include "test_util.h"
#include "workload/paper_queries.h"
#include "workload/tpch_gen.h"

namespace gmdj {
namespace {

using testutil::SameRows;

class ResultsRoundtripTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TpchConfig config;
    config.num_customers = 80;
    config.num_orders = 500;
    config.num_lineitems = 1;
    engine_.catalog()->PutTable("customer", GenCustomerTable(config));
    engine_.catalog()->PutTable("orders", GenOrdersTable(config));
  }
  OlapEngine engine_;
};

TEST_F(ResultsRoundtripTest, QueryResultSurvivesCsvRoundTrip) {
  const Result<Table> result =
      engine_.Execute(Fig3AggCompareQuery(), Strategy::kGmdjOptimized);
  ASSERT_TRUE(result.ok());
  ASSERT_GT(result->num_rows(), 0u);
  const std::string path = ::testing::TempDir() + "/gmdj_result.csv";
  ASSERT_TRUE(WriteCsvFile(*result, path).ok());
  const Result<Table> back = ReadCsvFile(path, result->schema());
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(SameRows(*back, *result));
  std::remove(path.c_str());
}

TEST_F(ResultsRoundtripTest, OptimizerPassIsIdempotent) {
  for (const NestedSelect& q :
       {Fig2ExistsQuery(), Fig4AllQuery(), Fig5TreeExistsQuery()}) {
    Result<PlanPtr> plan = SubqueryToGmdj(q.Clone(), *engine_.catalog(),
                                          TranslateOptions::Basic());
    ASSERT_TRUE(plan.ok());
    PlanPtr once = OptimizeGmdjPlan(std::move(*plan));
    ASSERT_TRUE(once->Prepare(*engine_.catalog()).ok());
    const std::string shape_once = once->ToString();

    PlanPtr twice = OptimizeGmdjPlan(std::move(once));
    ASSERT_TRUE(twice->Prepare(*engine_.catalog()).ok());
    EXPECT_EQ(twice->ToString(), shape_once);

    ExecContext ctx(engine_.catalog());
    const Result<Table> optimized = twice->Execute(&ctx);
    ASSERT_TRUE(optimized.ok());
    const Result<Table> reference =
        engine_.Execute(q, Strategy::kNativeNaive);
    ASSERT_TRUE(reference.ok());
    EXPECT_TRUE(SameRows(*optimized, *reference));
  }
}

TEST_F(ResultsRoundtripTest, FullSurfaceComposition) {
  // SQL text -> parse -> advise -> execute -> SQL reduction, all on the
  // same statement.
  const char* sql =
      "SELECT * FROM customer C WHERE EXISTS (SELECT * FROM orders O "
      "WHERE O.o_custkey = C.c_custkey AND O.o_orderpriority LIKE '1%')";
  auto parsed = ParseQuery(sql);
  ASSERT_TRUE(parsed.ok());

  const auto estimates =
      testutil::StatFreeEstimates(*engine_.catalog(), **parsed);
  ASSERT_TRUE(estimates.ok());

  const Result<Table> recommended =
      engine_.Execute(**parsed, estimates->front().strategy);
  ASSERT_TRUE(recommended.ok());
  const Result<Table> reference =
      engine_.Execute(**parsed, Strategy::kNativeNaive);
  ASSERT_TRUE(reference.ok());
  EXPECT_TRUE(SameRows(*recommended, *reference));

  const Result<std::string> reduced =
      NestedQueryToSql(**parsed, *engine_.catalog());
  ASSERT_TRUE(reduced.ok());
  EXPECT_NE(reduced->find("LIKE '1%'"), std::string::npos);
  EXPECT_NE(reduced->find("LEFT OUTER JOIN"), std::string::npos);
}

}  // namespace
}  // namespace gmdj
