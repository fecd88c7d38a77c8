#include "storage/hash_index.h"

#include <algorithm>

#include "gtest/gtest.h"
#include "test_util.h"

namespace gmdj {
namespace {

using testutil::MakeTable;

TEST(HashIndexTest, SingleColumnProbe) {
  const Table t = MakeTable({"k", "v"}, {{1, 10}, {2, 20}, {1, 30}});
  HashIndex index(t, {0});
  EXPECT_EQ(index.num_keys(), 2u);
  std::vector<uint32_t> hits = index.Probe({Value(1)});
  std::sort(hits.begin(), hits.end());
  EXPECT_EQ(hits, (std::vector<uint32_t>{0, 2}));
  EXPECT_TRUE(index.Probe({Value(99)}).empty());
}

TEST(HashIndexTest, CompositeKey) {
  const Table t = MakeTable({"a", "b:s", "v"},
                            {{1, "x", 0}, {1, "y", 1}, {2, "x", 2}});
  HashIndex index(t, {0, 1});
  EXPECT_EQ(index.num_keys(), 3u);
  EXPECT_EQ(index.Probe({Value(1), Value("y")}),
            (std::vector<uint32_t>{1}));
  EXPECT_TRUE(index.Probe({Value(2), Value("y")}).empty());
}

TEST(HashIndexTest, NullKeysNeverIndexedOrMatched) {
  const Table t =
      MakeTable({"k"}, {{1}, {Value::Null()}, {2}, {Value::Null()}});
  HashIndex index(t, {0});
  EXPECT_EQ(index.num_keys(), 2u);
  // Probing with NULL matches nothing: SQL equality is never TRUE on NULL.
  EXPECT_TRUE(index.Probe({Value::Null()}).empty());
}

TEST(HashIndexTest, MixedNumericKeysUnify) {
  // 3 (int) and 3.0 (double) compare equal internally and must collide.
  const Table t = MakeTable({"k:d"}, {{3.0}});
  HashIndex index(t, {0});
  EXPECT_EQ(index.Probe({Value(3)}).size(), 1u);
}

TEST(HashIndexTest, ExtractKey) {
  const Table t = MakeTable({"a", "b", "c"}, {{1, 2, 3}});
  HashIndex index(t, {2, 0});
  const Row key = index.ExtractKey(t.row(0));
  ASSERT_EQ(key.size(), 2u);
  EXPECT_EQ(key[0].int64(), 3);
  EXPECT_EQ(key[1].int64(), 1);
}

TEST(Int64HashIndexTest, ProbeMatchesGenericIndex) {
  Table t = MakeTable({"k", "v"}, {});
  for (int i = 0; i < 200; ++i) t.AppendRow({i % 17, i});
  t.AppendRow({Value::Null(), Value(999)});  // NULL keys are not indexed.
  const auto typed = Int64HashIndex::Build(t, 0);
  ASSERT_NE(typed, nullptr);
  const HashIndex generic(t, {0});
  EXPECT_EQ(typed->num_keys(), generic.num_keys());
  for (int k = -1; k < 18; ++k) {
    // Identical hit lists in identical (ascending row) order, so the two
    // probes are interchangeable in the GMDJ candidate loop.
    EXPECT_EQ(typed->Probe(k), generic.Probe({Value(k)})) << "k=" << k;
  }
}

TEST(Int64HashIndexTest, RefusesDriftedColumn) {
  // The generic index equates int64 and double keys of equal value; the
  // unboxed index cannot. A drifted int64 column can no longer be built:
  // the table refuses the double at append, so the column the index is
  // built over holds int64-or-NULL only.
  Table t = MakeTable({"k", "v"}, {{1, 10}});
  EXPECT_EQ(t.AppendRow({Value(2.0), Value(20)}).code(),
            StatusCode::kInvalidArgument);
  const auto typed = Int64HashIndex::Build(t, 0);
  ASSERT_NE(typed, nullptr);
  EXPECT_EQ(typed->num_keys(), 1u);
  EXPECT_TRUE(typed->Probe(2).empty());
}

TEST(Int64HashIndexTest, RefusesStringColumn) {
  const Table t = MakeTable({"k:s", "v"}, {{"a", 1}});
  EXPECT_EQ(Int64HashIndex::Build(t, 0), nullptr);
}

TEST(HashIndexTest, LargeTableAllRowsFindable) {
  Table t = MakeTable({"k", "v"}, {});
  for (int i = 0; i < 5000; ++i) t.AppendRow({i % 100, i});
  HashIndex index(t, {0});
  EXPECT_EQ(index.num_keys(), 100u);
  size_t total = 0;
  for (int k = 0; k < 100; ++k) {
    const auto& hits = index.Probe({Value(k)});
    EXPECT_EQ(hits.size(), 50u);
    total += hits.size();
    for (const uint32_t r : hits) {
      EXPECT_EQ(t.row(r)[0].int64(), k);
    }
  }
  EXPECT_EQ(total, 5000u);
}

}  // namespace
}  // namespace gmdj
