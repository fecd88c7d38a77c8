// Memory-pressure behavior of the GMDJ aggregate cache: the byte budget
// holds as an invariant under concurrent stores, ShedBytes frees what it
// promises (and releases the pool charge), and concurrent probe / store /
// shed traffic stays consistent. The CI TSan job runs this test to pin
// the synchronization, not just the arithmetic.

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/str_util.h"
#include "governance/query_context.h"
#include "gtest/gtest.h"
#include "mqo/agg_cache.h"

namespace gmdj {
namespace {

GmdjCacheKey KeyFor(const std::string& share_key, uint64_t rows) {
  return GmdjCacheKey{.share_key = share_key,
                      .base_table = "b",
                      .detail_table = "d",
                      .base_version = {},
                      .detail_version = {},
                      .num_base_rows = rows};
}

CachedAggColumn ColumnOf(uint64_t rows, int64_t seed) {
  auto column = std::make_shared<std::vector<Value>>();
  column->reserve(rows);
  for (uint64_t r = 0; r < rows; ++r) {
    column->emplace_back(static_cast<int64_t>(r) + seed);
  }
  return column;
}

TEST(CachePressureTest, ByteBudgetHoldsAfterEveryStore) {
  GmdjAggCacheConfig config;
  config.byte_budget = 4096;
  GmdjAggCache cache(config);
  constexpr uint64_t kRows = 16;
  for (int i = 0; i < 64; ++i) {
    cache.Store(KeyFor(StrCat({"key", std::to_string(i)}), kRows), {"count(*)"},
                {ColumnOf(kRows, i)});
    EXPECT_LE(cache.stats().bytes, config.byte_budget) << "store " << i;
  }
  EXPECT_GT(cache.stats().evictions, 0u);
  EXPECT_GT(cache.stats().entries, 0u);
}

TEST(CachePressureTest, ShedBytesFreesAtLeastTheRequest) {
  GmdjAggCache cache;
  constexpr uint64_t kRows = 32;
  for (int i = 0; i < 8; ++i) {
    cache.Store(KeyFor(StrCat({"key", std::to_string(i)}), kRows), {"count(*)"},
                {ColumnOf(kRows, i)});
  }
  const uint64_t before = cache.stats().bytes;
  ASSERT_GT(before, 0u);

  const size_t freed = cache.ShedBytes(before / 2);
  EXPECT_GE(freed, before / 2);
  EXPECT_EQ(cache.stats().bytes, before - freed);
  EXPECT_GE(cache.stats().pressure_sheds, 1u);

  // Asking for more than resident empties the cache and reports what was
  // actually there.
  const size_t rest = cache.ShedBytes(SIZE_MAX);
  EXPECT_EQ(rest, before - freed);
  EXPECT_EQ(cache.stats().bytes, 0u);
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.ShedBytes(1), 0u);  // Empty cache: nothing to free.
}

TEST(CachePressureTest, ShedEvictsLeastRecentlyUsedFirst) {
  GmdjAggCache cache;
  constexpr uint64_t kRows = 8;
  cache.Store(KeyFor("old", kRows), {"count(*)"}, {ColumnOf(kRows, 1)});
  cache.Store(KeyFor("hot", kRows), {"count(*)"}, {ColumnOf(kRows, 2)});
  // Touch "old" so "hot" becomes the LRU tail.
  std::vector<CachedAggColumn> columns;
  ASSERT_TRUE(cache.Probe(KeyFor("old", kRows), {"count(*)"}, &columns));

  ASSERT_GT(cache.ShedBytes(1), 0u);  // Evicts exactly one entry: the tail.
  EXPECT_TRUE(cache.Probe(KeyFor("old", kRows), {"count(*)"}, &columns));
  EXPECT_FALSE(cache.Probe(KeyFor("hot", kRows), {"count(*)"}, &columns));
}

TEST(CachePressureTest, PoolChargeMirrorsResidentBytes) {
  MemoryPool pool;
  GmdjAggCache cache;
  cache.set_memory_pool(&pool);
  constexpr uint64_t kRows = 16;
  for (int i = 0; i < 6; ++i) {
    cache.Store(KeyFor(StrCat({"key", std::to_string(i)}), kRows), {"count(*)"},
                {ColumnOf(kRows, i)});
    EXPECT_EQ(pool.reserved(), cache.stats().bytes);
  }
  cache.ShedBytes(cache.stats().bytes / 2);
  EXPECT_EQ(pool.reserved(), cache.stats().bytes);
  cache.Clear();
  EXPECT_EQ(pool.reserved(), 0u);
}

TEST(CachePressureTest, DestructionReleasesThePoolCharge) {
  MemoryPool pool;
  {
    GmdjAggCache cache;
    cache.set_memory_pool(&pool);
    cache.Store(KeyFor("key", 16), {"count(*)"}, {ColumnOf(16, 1)});
    ASSERT_GT(pool.reserved(), 0u);
  }
  EXPECT_EQ(pool.reserved(), 0u);
}

TEST(CachePressureTest, ConcurrentStoreProbeShedKeepsInvariants) {
  GmdjAggCacheConfig config;
  config.byte_budget = 16 * 1024;
  GmdjAggCache cache(config);
  MemoryPool pool;
  cache.set_memory_pool(&pool);
  constexpr uint64_t kRows = 16;
  constexpr int kKeys = 32;
  std::atomic<bool> stop{false};

  std::vector<std::thread> threads;
  // Writers keep the cache at its budget; readers touch the LRU order;
  // one shedder models pool pressure arriving mid-traffic.
  for (int w = 0; w < 3; ++w) {
    threads.emplace_back([&cache, w] {
      for (int i = 0; i < 400; ++i) {
        const int k = (i * 7 + w * 13) % kKeys;
        cache.Store(KeyFor(StrCat({"key", std::to_string(k)}), kRows),
                    {"count(*)"},
                    {ColumnOf(kRows, k)});
      }
    });
  }
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&cache, &stop] {
      std::vector<CachedAggColumn> columns;
      int k = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        cache.Probe(KeyFor(StrCat({"key", std::to_string(k % kKeys)}), kRows),
                    {"count(*)"}, &columns);
        ++k;
      }
    });
  }
  threads.emplace_back([&cache, &stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      cache.ShedBytes(512);
      std::this_thread::yield();
    }
  });

  for (int w = 0; w < 3; ++w) threads[w].join();
  stop.store(true, std::memory_order_relaxed);
  for (size_t t = 3; t < threads.size(); ++t) threads[t].join();

  const GmdjAggCache::Stats stats = cache.stats();
  EXPECT_LE(stats.bytes, config.byte_budget);
  EXPECT_EQ(pool.reserved(), stats.bytes);

  // Whatever survived must still probe coherently: a hit returns exactly
  // the column that was stored under that key.
  for (int k = 0; k < kKeys; ++k) {
    std::vector<CachedAggColumn> columns;
    if (cache.Probe(KeyFor("key" + std::to_string(k), kRows), {"count(*)"},
                    &columns)) {
      ASSERT_EQ(columns.size(), 1u);
      ASSERT_EQ((*columns[0]).size(), kRows);
      EXPECT_EQ((*columns[0])[0], Value(static_cast<int64_t>(k)));
    }
  }
}

}  // namespace
}  // namespace gmdj
