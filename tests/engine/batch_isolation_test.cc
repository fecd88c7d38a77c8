// Pool rejection on the cached query path: governed `gmdj` runs against
// an engine pool too small for any of them must each fail with
// ResourceExhausted, publish nothing into the aggregate cache, and leave
// no byte reserved.

#include <cstdint>
#include <string>
#include <vector>

#include "engine/olap_engine.h"
#include "gtest/gtest.h"
#include "test_util.h"
#include "workload/paper_queries.h"
#include "workload/tpch_gen.h"

namespace gmdj {
namespace {

void ExpectExactRows(const Table& actual, const Table& expected,
                     const std::string& context) {
  ASSERT_EQ(actual.num_rows(), expected.num_rows()) << context;
  for (size_t r = 0; r < expected.num_rows(); ++r) {
    const Row& got = actual.row(r);
    const Row& want = expected.row(r);
    ASSERT_EQ(got.size(), want.size()) << context << " row " << r;
    for (size_t c = 0; c < want.size(); ++c) {
      ASSERT_EQ(got[c], want[c]) << context << " row " << r << " col " << c;
    }
  }
}

class BatchIsolationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TpchConfig config;
    config.num_customers = 60;
    config.num_orders = 900;
    config.num_lineitems = 1;
    engine_.catalog()->PutTable("customer", GenCustomerTable(config));
    engine_.catalog()->PutTable("orders", GenOrdersTable(config));
    ExecConfig exec;
    exec.num_threads = 1;
    engine_.set_exec_config(exec);
  }

  Table Reference(const NestedSelect& query) {
    Result<Table> result = engine_.Execute(query, Strategy::kGmdjOptimized);
    EXPECT_TRUE(result.ok()) << result.status().message();
    return std::move(*result);
  }

  OlapEngine engine_;
};

TEST_F(BatchIsolationTest, TinyEnginePoolRejectsEverySlotAndReleasesAll) {
  const NestedSelect fig2 = Fig2ExistsQuery();
  const NestedSelect fig3 = Fig3AggCompareQuery();
  const std::vector<const NestedSelect*> mix = {&fig2, &fig3};
  const Table ref2 = Reference(fig2);

  engine_.EnableAggCache();
  engine_.set_memory_capacity(64);
  const uint64_t rejections_before = engine_.governance_stats().mem_rejections;
  const std::vector<Result<Table>> rejected =
      testutil::RunThroughCache(&engine_, mix);
  ASSERT_EQ(rejected.size(), 2u);
  for (size_t q = 0; q < 2; ++q) {
    EXPECT_EQ(rejected[q].status().code(), StatusCode::kResourceExhausted)
        << "query " << q;
  }
  EXPECT_EQ(engine_.governance_stats().mem_rejections - rejections_before, 2u);
  EXPECT_EQ(engine_.memory_pool()->reserved(), 0u);
  EXPECT_EQ(engine_.agg_cache()->stats().entries, 0u);

  // The rejected runs published nothing: with the pool uncapped the
  // queries recompute and return the reference rows.
  engine_.set_memory_capacity(SIZE_MAX);
  const std::vector<Result<Table>> again =
      testutil::RunThroughCache(&engine_, mix);
  ASSERT_TRUE(again[0].ok()) << again[0].status().message();
  ASSERT_TRUE(again[1].ok()) << again[1].status().message();
  ExpectExactRows(*again[0], ref2, "fig2 after a pool rejection");
}

}  // namespace
}  // namespace gmdj
