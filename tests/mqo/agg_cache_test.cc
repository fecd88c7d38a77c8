#include "mqo/agg_cache.h"

#include <memory>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "storage/catalog.h"
#include "storage/table.h"
#include "test_util.h"

namespace gmdj {
namespace {

using testutil::MakeTable;

CachedAggColumn MakeColumn(std::vector<Value> values) {
  return std::make_shared<const std::vector<Value>>(std::move(values));
}

GmdjCacheKey MakeKey(const std::string& share_key, uint64_t base_mut,
                     uint64_t detail_mut, uint64_t rows) {
  GmdjCacheKey key;
  key.share_key = share_key;
  key.base_table = "B";
  key.detail_table = "D";
  key.base_version = TableVersion{1, base_mut};
  key.detail_version = TableVersion{2, detail_mut};
  key.num_base_rows = rows;
  return key;
}

TEST(AggCacheTest, MissThenStoreThenHit) {
  GmdjAggCache cache;
  const GmdjCacheKey key = MakeKey("k", 0, 0, 2);
  std::vector<CachedAggColumn> out;
  EXPECT_FALSE(cache.Probe(key, {"count(*)"}, &out));
  EXPECT_EQ(cache.stats().misses, 1u);

  cache.Store(key, {"count(*)"}, {MakeColumn({Value(3), Value(0)})});
  EXPECT_EQ(cache.stats().stores, 1u);
  EXPECT_EQ(cache.stats().entries, 1u);

  ASSERT_TRUE(cache.Probe(key, {"count(*)"}, &out));
  EXPECT_EQ(cache.stats().hits, 1u);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ((*out[0])[0], Value(3));
  EXPECT_EQ((*out[0])[1], Value(0));
}

TEST(AggCacheTest, SubsumptionSupersetServesSubset) {
  GmdjAggCache cache;
  const GmdjCacheKey key = MakeKey("k", 0, 0, 1);
  cache.Store(key, {"count(*)", "sum($1.1)"},
              {MakeColumn({Value(2)}), MakeColumn({Value(7.5)})});

  // Subset probe hits; request order is respected.
  std::vector<CachedAggColumn> out;
  ASSERT_TRUE(cache.Probe(key, {"sum($1.1)"}, &out));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ((*out[0])[0], Value(7.5));

  // A probe mentioning any uncached aggregate misses entirely.
  EXPECT_FALSE(cache.Probe(key, {"count(*)", "min($1.1)"}, &out));
}

TEST(AggCacheTest, LaterStoreMergesIntoEntry) {
  GmdjAggCache cache;
  const GmdjCacheKey key = MakeKey("k", 0, 0, 1);
  cache.Store(key, {"count(*)"}, {MakeColumn({Value(1)})});
  cache.Store(key, {"sum($1.1)"}, {MakeColumn({Value(4.0)})});
  EXPECT_EQ(cache.stats().entries, 1u);

  std::vector<CachedAggColumn> out;
  ASSERT_TRUE(cache.Probe(key, {"count(*)", "sum($1.1)"}, &out));
  ASSERT_EQ(out.size(), 2u);
}

TEST(AggCacheTest, VersionMismatchInvalidates) {
  GmdjAggCache cache;
  cache.Store(MakeKey("k", 0, 0, 1), {"count(*)"}, {MakeColumn({Value(1)})});

  // Detail table mutated since the entry was computed.
  std::vector<CachedAggColumn> out;
  EXPECT_FALSE(cache.Probe(MakeKey("k", 0, 1, 1), {"count(*)"}, &out));
  EXPECT_EQ(cache.stats().invalidations, 1u);
  EXPECT_EQ(cache.stats().entries, 0u);

  // The stale entry is gone even for the original versions.
  EXPECT_FALSE(cache.Probe(MakeKey("k", 0, 0, 1), {"count(*)"}, &out));
}

TEST(AggCacheTest, RegistrationEpochMismatchInvalidates) {
  GmdjAggCache cache;
  GmdjCacheKey key = MakeKey("k", 0, 0, 1);
  cache.Store(key, {"count(*)"}, {MakeColumn({Value(1)})});

  // Same mutation counts, but the table was re-registered (PutTable):
  // a fresh epoch must not validate the old entry.
  key.base_version.registration = 9;
  std::vector<CachedAggColumn> out;
  EXPECT_FALSE(cache.Probe(key, {"count(*)"}, &out));
  EXPECT_EQ(cache.stats().invalidations, 1u);
}

TEST(AggCacheTest, RowCountMismatchInvalidates) {
  GmdjAggCache cache;
  cache.Store(MakeKey("k", 0, 0, 2),
              {"count(*)"}, {MakeColumn({Value(1), Value(2)})});
  std::vector<CachedAggColumn> out;
  EXPECT_FALSE(cache.Probe(MakeKey("k", 0, 0, 3), {"count(*)"}, &out));
  EXPECT_EQ(cache.stats().invalidations, 1u);
}

TEST(AggCacheTest, StaleStoreReplacesEntry) {
  GmdjAggCache cache;
  cache.Store(MakeKey("k", 0, 0, 1), {"count(*)"}, {MakeColumn({Value(1)})});
  // A store computed against newer versions replaces the stale entry
  // instead of merging columns across versions.
  cache.Store(MakeKey("k", 0, 5, 1), {"sum($1.1)"},
              {MakeColumn({Value(2.0)})});
  std::vector<CachedAggColumn> out;
  EXPECT_FALSE(cache.Probe(MakeKey("k", 0, 5, 1), {"count(*)"}, &out));
  ASSERT_TRUE(cache.Probe(MakeKey("k", 0, 5, 1), {"sum($1.1)"}, &out));
}

TEST(AggCacheTest, LruEvictionUnderByteBudget) {
  GmdjAggCacheConfig config;
  config.byte_budget = 4096;
  GmdjAggCache cache(config);

  // Each column: 32 values -> comfortably over 1KiB per entry.
  auto column = [] {
    return MakeColumn(std::vector<Value>(32, Value(int64_t{7})));
  };
  cache.Store(MakeKey("a", 0, 0, 32), {"count(*)"}, {column()});
  cache.Store(MakeKey("b", 0, 0, 32), {"count(*)"}, {column()});
  cache.Store(MakeKey("c", 0, 0, 32), {"count(*)"}, {column()});

  // Touch "a" so "b" becomes least recently used, then push over budget.
  std::vector<CachedAggColumn> out;
  ASSERT_TRUE(cache.Probe(MakeKey("a", 0, 0, 32), {"count(*)"}, &out));
  cache.Store(MakeKey("d", 0, 0, 32), {"count(*)"}, {column()});

  EXPECT_GT(cache.stats().evictions, 0u);
  EXPECT_LE(cache.stats().bytes, config.byte_budget);
  EXPECT_TRUE(cache.Probe(MakeKey("a", 0, 0, 32), {"count(*)"}, &out));
  EXPECT_FALSE(cache.Probe(MakeKey("b", 0, 0, 32), {"count(*)"}, &out));
}

TEST(AggCacheTest, ClearDropsEntriesAndGauges) {
  GmdjAggCache cache;
  cache.Store(MakeKey("k", 0, 0, 1), {"count(*)"}, {MakeColumn({Value(1)})});
  EXPECT_GT(cache.stats().bytes, 0u);
  cache.Clear();
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().bytes, 0u);
  std::vector<CachedAggColumn> out;
  EXPECT_FALSE(cache.Probe(MakeKey("k", 0, 0, 1), {"count(*)"}, &out));
}

// ---- Version plumbing: every Table mutation path must invalidate. ----

class MutationInvalidationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    catalog_.PutTable("B", MakeTable({"x"}, {{1}}));
    catalog_.PutTable("D", MakeTable({"y"}, {{2}}));
    StoreCurrent();
  }

  /// Stores an entry under the catalog's *current* versions.
  void StoreCurrent() {
    GmdjCacheKey key;
    key.share_key = "k";
    key.base_table = "B";
    key.detail_table = "D";
    key.base_version = catalog_.GetTableVersion("B");
    key.detail_version = catalog_.GetTableVersion("D");
    key.num_base_rows = 1;
    cache_.Store(key, {"count(*)"}, {MakeColumn({Value(1)})});
  }

  /// True if a probe under the current catalog versions hits.
  bool ProbeCurrent() {
    GmdjCacheKey key;
    key.share_key = "k";
    key.base_table = "B";
    key.detail_table = "D";
    key.base_version = catalog_.GetTableVersion("B");
    key.detail_version = catalog_.GetTableVersion("D");
    key.num_base_rows = 1;
    std::vector<CachedAggColumn> out;
    return cache_.Probe(key, {"count(*)"}, &out);
  }

  Catalog catalog_;
  GmdjAggCache cache_;
};

TEST_F(MutationInvalidationTest, BaselineHits) { EXPECT_TRUE(ProbeCurrent()); }

TEST_F(MutationInvalidationTest, AppendRowInvalidates) {
  (*catalog_.GetMutableTable("D"))->AppendRow({Value(3)});
  EXPECT_FALSE(ProbeCurrent());
}

TEST_F(MutationInvalidationTest, BulkLoadInvalidates) {
  (*catalog_.GetMutableTable("D"))->AppendRows({{Value(3)}, {Value(4)}});
  EXPECT_FALSE(ProbeCurrent());
}

TEST_F(MutationInvalidationTest, InPlaceRowEditInvalidates) {
  ASSERT_TRUE((*catalog_.GetMutableTable("D"))->SetCell(0, 0, Value(9)).ok());
  EXPECT_FALSE(ProbeCurrent());
}

TEST_F(MutationInvalidationTest, SchemaEditInvalidates) {
  Table* b = *catalog_.GetMutableTable("B");
  b->SetSchema(b->schema());
  EXPECT_FALSE(ProbeCurrent());
}

TEST_F(MutationInvalidationTest, SortRowsInvalidates) {
  (*catalog_.GetMutableTable("D"))->SortRows();
  EXPECT_FALSE(ProbeCurrent());
}

TEST_F(MutationInvalidationTest, BaseTableMutationInvalidates) {
  (*catalog_.GetMutableTable("B"))->AppendRow({Value(5)});
  EXPECT_FALSE(ProbeCurrent());
}

TEST_F(MutationInvalidationTest, PutTableReplacementInvalidates) {
  // Replacement installs a fresh table whose mutation counter restarts at
  // zero; the registration epoch is what keeps the entry from validating.
  catalog_.PutTable("D", MakeTable({"y"}, {{2}}));
  EXPECT_FALSE(ProbeCurrent());
}

TEST_F(MutationInvalidationTest, DropTableNeverValidates) {
  ASSERT_TRUE(catalog_.DropTable("D").ok());
  EXPECT_FALSE(ProbeCurrent());
  // Missing tables report the reserved {0, 0} version, which no stored
  // entry can carry (epochs start at 1).
  EXPECT_EQ(catalog_.GetTableVersion("D"), TableVersion{});
}

TEST_F(MutationInvalidationTest, MutationThenRestoreStillMisses) {
  // Even if the row content is restored, the version has moved on:
  // conservative (spurious recompute), never a stale hit.
  Table* d = *catalog_.GetMutableTable("D");
  ASSERT_TRUE(d->SetCell(0, 0, Value(3)).ok());
  ASSERT_TRUE(d->SetCell(0, 0, Value(2)).ok());
  EXPECT_FALSE(ProbeCurrent());
}

}  // namespace
}  // namespace gmdj
