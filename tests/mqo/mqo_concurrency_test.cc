// Threads racing governed Execute calls under `gmdj` on one engine that
// shares one aggregate cache. The governed overload never writes engine
// members and the cache is internally synchronized, so every racing
// query must succeed and agree with the sequential no-cache reference.
// This test is the TSan gate for the MQO subsystem (see
// .github/workflows/ci.yml).

#include <thread>
#include <vector>

#include "engine/olap_engine.h"
#include "gtest/gtest.h"
#include "test_util.h"
#include "workload/paper_queries.h"
#include "workload/tpch_gen.h"

namespace gmdj {
namespace {

TEST(MqoConcurrencyTest, ConcurrentBatchesAgreeWithSequential) {
  OlapEngine engine;
  TpchConfig config;
  config.num_customers = 40;
  config.num_orders = 600;
  config.num_lineitems = 1;
  engine.catalog()->PutTable("customer", GenCustomerTable(config));
  engine.catalog()->PutTable("orders", GenOrdersTable(config));
  ExecConfig exec;
  exec.num_threads = 1;  // Per-query; the concurrency under test is queries.
  engine.set_exec_config(exec);

  const NestedSelect fig2 = Fig2ExistsQuery();
  const NestedSelect fig3 = Fig3AggCompareQuery();
  const std::vector<const NestedSelect*> mix = {&fig2, &fig3};

  // Sequential no-cache reference.
  std::vector<Table> reference;
  for (const NestedSelect* query : mix) {
    Result<Table> result = engine.Execute(*query, Strategy::kGmdjOptimized);
    ASSERT_TRUE(result.ok()) << result.status().message();
    reference.push_back(std::move(*result));
  }

  engine.EnableAggCache();

  constexpr int kThreads = 6;
  constexpr int kRoundsPerThread = 4;
  std::vector<std::vector<Result<Table>>> last(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&engine, &mix, &last, t] {
      for (int round = 0; round < kRoundsPerThread; ++round) {
        last[t] = testutil::RunThroughCache(&engine, mix);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  for (int t = 0; t < kThreads; ++t) {
    ASSERT_EQ(last[t].size(), mix.size());
    for (size_t q = 0; q < mix.size(); ++q) {
      ASSERT_TRUE(last[t][q].ok()) << "thread " << t << " query " << q << ": "
                                   << last[t][q].status().message();
      const Table& got = *last[t][q];
      ASSERT_EQ(got.num_rows(), reference[q].num_rows())
          << "thread " << t << " query " << q;
      for (size_t r = 0; r < got.num_rows(); ++r) {
        const Row& a = got.row(r);
        const Row& b = reference[q].row(r);
        ASSERT_EQ(a.size(), b.size());
        for (size_t c = 0; c < a.size(); ++c) {
          EXPECT_EQ(a[c], b[c]) << "thread " << t << " query " << q
                                << " row " << r << " col " << c;
        }
      }
    }
  }

  // The shared cache saw traffic from every thread; its counters must be
  // consistent (no lost updates) — every query either hit or missed.
  const GmdjAggCache::Stats stats = engine.agg_cache()->stats();
  EXPECT_GT(stats.hits + stats.misses, 0u);
  EXPECT_GT(stats.stores, 0u);
}

TEST(MqoConcurrencyTest, ConcurrentBatchesUnderTinyBudgetStayCorrect) {
  // A one-byte budget forces every store to evict immediately, maximizing
  // cache churn (store/evict/probe races) while results must stay exact.
  OlapEngine engine;
  TpchConfig config;
  config.num_customers = 20;
  config.num_orders = 200;
  config.num_lineitems = 1;
  engine.catalog()->PutTable("customer", GenCustomerTable(config));
  engine.catalog()->PutTable("orders", GenOrdersTable(config));
  ExecConfig exec;
  exec.num_threads = 1;
  engine.set_exec_config(exec);

  const NestedSelect fig2 = Fig2ExistsQuery();
  const std::vector<const NestedSelect*> mix = {&fig2};

  Result<Table> reference = engine.Execute(fig2, Strategy::kGmdjOptimized);
  ASSERT_TRUE(reference.ok());

  GmdjAggCacheConfig cache_config;
  cache_config.byte_budget = 1;
  engine.EnableAggCache(cache_config);

  constexpr int kThreads = 4;
  std::vector<std::vector<Result<Table>>> last(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&engine, &mix, &last, t] {
      for (int round = 0; round < 3; ++round) {
        last[t] = testutil::RunThroughCache(&engine, mix);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  for (int t = 0; t < kThreads; ++t) {
    ASSERT_TRUE(last[t][0].ok());
    EXPECT_TRUE(testutil::SameRows(*last[t][0], *reference));
  }
}

}  // namespace
}  // namespace gmdj
