// Per-query isolation in ExecuteBatch: one failing query — bad
// translation, injected runtime fault or pool rejection — must yield an
// error Result in ITS slot only, while every other query in the batch
// returns its correct rows, and no failed query keeps a reservation.

#include <cstdint>
#include <string>
#include <vector>

#include "common/fault_injection.h"
#include "engine/batch_planner.h"
#include "engine/olap_engine.h"
#include "gtest/gtest.h"
#include "nested/nested_builder.h"
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
    FaultInjector::Global()->Reset();
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
  void TearDown() override { FaultInjector::Global()->Reset(); }

  Table Reference(const NestedSelect& query) {
    Result<Table> result = engine_.Execute(query, Strategy::kGmdjOptimized);
    EXPECT_TRUE(result.ok()) << result.status().message();
    return std::move(*result);
  }

  OlapEngine engine_;
};

TEST_F(BatchIsolationTest, MissingTableFailsOnlyItsOwnSlot) {
  const NestedSelect fig2 = Fig2ExistsQuery();
  const NestedSelect fig3 = Fig3AggCompareQuery();
  NestedSelect bad;
  bad.source = From("no_such_table", "X");
  const std::vector<const NestedSelect*> mix = {&fig2, &bad, &fig3};

  const Table ref2 = Reference(fig2);
  const Table ref3 = Reference(fig3);

  engine_.EnableAggCache();
  BatchResult batch = engine_.ExecuteBatch(mix);
  ASSERT_EQ(batch.results.size(), 3u);
  ASSERT_TRUE(batch.results[0].ok());
  EXPECT_EQ(batch.results[1].status().code(), StatusCode::kNotFound);
  ASSERT_TRUE(batch.results[2].ok());
  ExpectExactRows(*batch.results[0], ref2, "fig2 beside a bad query");
  ExpectExactRows(*batch.results[2], ref3, "fig3 beside a bad query");
}

TEST_F(BatchIsolationTest, InjectedRuntimeFaultFailsOnlyTheFirstQuery) {
  const NestedSelect fig2 = Fig2ExistsQuery();
  const NestedSelect fig3 = Fig3AggCompareQuery();
  const std::vector<const NestedSelect*> mix = {&fig2, &fig3};

  const Table ref3 = Reference(fig3);

  // Fires exactly once: the first query's execution gate, nothing after.
  FaultSpec spec;
  spec.kind = FaultKind::kError;
  spec.code = StatusCode::kRuntimeError;
  spec.message = "injected batch fault";
  spec.max_fires = 1;
  FaultInjector::Global()->Arm("batch/query", spec);

  // No cache, so no prewarm: the fault's first target is query 0.
  BatchResult batch = engine_.ExecuteBatch(mix);
  ASSERT_EQ(batch.results.size(), 2u);
  ASSERT_FALSE(batch.results[0].ok());
  EXPECT_NE(batch.results[0].status().message().find("injected batch fault"),
            std::string::npos);
  ASSERT_TRUE(batch.results[1].ok());
  ExpectExactRows(*batch.results[1], ref3, "fig3 beside a faulted query");

  // The engine is unharmed: the same batch now fully succeeds.
  FaultInjector::Global()->Reset();
  BatchResult again = engine_.ExecuteBatch(mix);
  ASSERT_TRUE(again.results[0].ok());
  ASSERT_TRUE(again.results[1].ok());
}

TEST_F(BatchIsolationTest, PrewarmFaultDegradesToUnsharedExecution) {
  const NestedSelect fig2 = Fig2ExistsQuery();
  const NestedSelect fig2_b = Fig2ExistsQuery();
  const std::vector<const NestedSelect*> mix = {&fig2, &fig2_b};
  const Table ref = Reference(fig2);

  engine_.EnableAggCache();
  FaultSpec spec;
  spec.kind = FaultKind::kError;
  FaultInjector::Global()->Arm("batch/prewarm", spec);
  BatchResult batch = engine_.ExecuteBatch(mix);
  EXPECT_EQ(batch.shared_groups, 0u);  // Sharing was skipped, not broken.
  ASSERT_EQ(batch.results.size(), 2u);
  for (size_t q = 0; q < 2; ++q) {
    ASSERT_TRUE(batch.results[q].ok()) << "query " << q;
    ExpectExactRows(*batch.results[q], ref,
                    "degraded query " + std::to_string(q));
  }
}

TEST_F(BatchIsolationTest, AllQueriesFailingStillReturnsPerSlotErrors) {
  NestedSelect bad_a;
  bad_a.source = From("missing_a", "A");
  NestedSelect bad_b;
  bad_b.source = From("missing_b", "B");
  const std::vector<const NestedSelect*> mix = {&bad_a, &bad_b};
  BatchResult batch = engine_.ExecuteBatch(mix);
  ASSERT_EQ(batch.results.size(), 2u);
  EXPECT_EQ(batch.results[0].status().code(), StatusCode::kNotFound);
  EXPECT_EQ(batch.results[1].status().code(), StatusCode::kNotFound);
}

TEST_F(BatchIsolationTest, TinyEnginePoolRejectsEverySlotAndReleasesAll) {
  const NestedSelect fig2 = Fig2ExistsQuery();
  const NestedSelect fig3 = Fig3AggCompareQuery();
  const std::vector<const NestedSelect*> mix = {&fig2, &fig3};
  const Table ref2 = Reference(fig2);

  engine_.EnableAggCache();
  engine_.set_memory_capacity(64);
  BatchResult batch = engine_.ExecuteBatch(mix);
  ASSERT_EQ(batch.results.size(), 2u);
  for (size_t q = 0; q < 2; ++q) {
    EXPECT_EQ(batch.results[q].status().code(),
              StatusCode::kResourceExhausted)
        << "query " << q;
  }
  EXPECT_EQ(batch.governance.mem_rejections, 2u);
  EXPECT_EQ(engine_.memory_pool()->reserved(), 0u);

  // The rejected prewarm published nothing: with the pool uncapped the
  // batch recomputes and returns the reference rows.
  engine_.set_memory_capacity(SIZE_MAX);
  BatchResult again = engine_.ExecuteBatch(mix);
  ASSERT_TRUE(again.results[0].ok()) << again.results[0].status().message();
  ASSERT_TRUE(again.results[1].ok()) << again.results[1].status().message();
  ExpectExactRows(*again.results[0], ref2, "fig2 after a pool rejection");
}

}  // namespace
}  // namespace gmdj
