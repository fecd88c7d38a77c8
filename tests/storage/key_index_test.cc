#include "storage/key_index.h"

#include <cstdint>
#include <limits>
#include <map>
#include <vector>

#include "common/str_util.h"
#include "gtest/gtest.h"
#include "test_util.h"

// HashIndexTest and Int64HashIndexTest keep the names of the cases that
// covered the two indexes KeyIndex replaced; KeyIndexTest adds the rest.

namespace gmdj {
namespace {

using testutil::MakeTable;

std::vector<uint32_t> Hits(KeyIndex::Rows rows) {
  return std::vector<uint32_t>(rows.begin(), rows.end());
}

/// Probes with `key`, one single-cell column per component, as the
/// native evaluator probes with its evaluated outer key.
std::vector<uint32_t> ProbeValues(const KeyIndex& index, const Row& key) {
  std::vector<Column> cells;
  for (const Value& v : key) {
    cells.emplace_back(v.type());
    cells.back().Append(v);
  }
  std::vector<const Column*> cols;
  for (const Column& cell : cells) cols.push_back(&cell);
  return Hits(index.Probe(cols, 0));
}

/// Probes `index` with int64 `key` as an int64 cell, by value when the
/// index is direct-mapped, and (when exact) as a double cell, and expects
/// the same rows from each.
std::vector<uint32_t> ProbeAllWays(const KeyIndex& index, int64_t key) {
  const std::vector<uint32_t> typed = ProbeValues(index, {Value(key)});
  if (index.direct()) {
    EXPECT_EQ(Hits(index.ProbeDirect(key)), typed) << "key " << key;
  }
  const auto d = static_cast<double>(key);
  if (d > -0x1p53 && d < 0x1p53) {
    EXPECT_EQ(ProbeValues(index, {Value(d)}), typed) << "key " << key;
  }
  return typed;
}

TEST(HashIndexTest, SingleColumnProbe) {
  const Table t = MakeTable({"k", "v"}, {{1, 10}, {2, 20}, {1, 30}});
  const KeyIndex index(t, {0});
  EXPECT_EQ(index.num_keys(), 2u);
  EXPECT_FALSE(index.unique());
  EXPECT_EQ(ProbeAllWays(index, 1), (std::vector<uint32_t>{0, 2}));
  EXPECT_TRUE(ProbeAllWays(index, 99).empty());
}

TEST(HashIndexTest, CompositeKey) {
  const Table t = MakeTable({"a", "b:s", "v"},
                            {{1, "x", 0}, {1, "y", 1}, {2, "x", 2}});
  const KeyIndex index(t, {0, 1});
  EXPECT_EQ(index.num_keys(), 3u);
  EXPECT_TRUE(index.unique());
  EXPECT_EQ(ProbeValues(index, {Value(1), Value("y")}),
            (std::vector<uint32_t>{1}));
  EXPECT_TRUE(ProbeValues(index, {Value(2), Value("y")}).empty());
  // The same probe from a detail table's typed cells.
  const Table probe = MakeTable({"b:s", "a"}, {{"y", 1}, {"y", 2}});
  const Column* cols[] = {&probe.column(1), &probe.column(0)};
  EXPECT_EQ(Hits(index.Probe(cols, 0)), (std::vector<uint32_t>{1}));
  EXPECT_TRUE(index.Probe(cols, 1).empty());
}

TEST(HashIndexTest, NullKeysNeverIndexedOrMatched) {
  const Table t =
      MakeTable({"k"}, {{1}, {Value::Null()}, {2}, {Value::Null()}});
  const KeyIndex index(t, {0});
  EXPECT_EQ(index.num_keys(), 2u);
  EXPECT_TRUE(index.unique());  // NULL rows are not keys.
  // No probe reaches a row with a NULL key.
  EXPECT_EQ(ProbeAllWays(index, 1), (std::vector<uint32_t>{0}));
  EXPECT_EQ(ProbeAllWays(index, 2), (std::vector<uint32_t>{2}));
  const Table composite = MakeTable({"a", "b"}, {{1, Value::Null()}, {1, 2}});
  const KeyIndex pair(composite, {0, 1});
  EXPECT_EQ(pair.num_keys(), 1u);
  EXPECT_EQ(ProbeValues(pair, {Value(1), Value(2)}), (std::vector<uint32_t>{1}));
}

TEST(HashIndexTest, MixedNumericKeysUnify) {
  // 3 (int) and 3.0 (double) are one key, whichever side is the double.
  const Table dbl = MakeTable({"k:d"}, {{3.0}, {2.5}});
  const KeyIndex over_double(dbl, {0});
  EXPECT_EQ(ProbeAllWays(over_double, 3), (std::vector<uint32_t>{0}));
  EXPECT_EQ(ProbeValues(over_double, {Value(2.5)}),
            (std::vector<uint32_t>{1}));

  const Table ints = MakeTable({"k"}, {{3}, {4}});
  const KeyIndex over_int(ints, {0});
  ASSERT_TRUE(over_int.direct());
  EXPECT_EQ(ProbeValues(over_int, {Value(3.0)}), (std::vector<uint32_t>{0}));
  EXPECT_TRUE(ProbeValues(over_int, {Value(3.5)}).empty());
  const Table probe = MakeTable({"x:d"}, {{4.0}, {4.25}});
  const Column* cols[] = {&probe.column(0)};
  EXPECT_EQ(Hits(over_int.Probe(cols, 0)), (std::vector<uint32_t>{1}));
  EXPECT_TRUE(over_int.Probe(cols, 1).empty());
}

TEST(HashIndexTest, ExtractKey) {
  // The probe key is read in index column order, not table order.
  const Table t = MakeTable({"a", "b", "c"}, {{1, 2, 3}, {3, 2, 1}});
  const KeyIndex index(t, {2, 0});
  EXPECT_EQ(ProbeValues(index, {Value(3), Value(1)}),
            (std::vector<uint32_t>{0}));
  EXPECT_EQ(ProbeValues(index, {Value(1), Value(3)}),
            (std::vector<uint32_t>{1}));
}

TEST(Int64HashIndexTest, ProbeMatchesGenericIndex) {
  // The same keys, dense (direct-mapped) and spread out (hashed): the same
  // rows in the same ascending order, so the GMDJ candidate loop folds
  // identically over either layout.
  Table dense = MakeTable({"k", "v"}, {});
  Table sparse = MakeTable({"k", "v"}, {});
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(dense.AppendRow({i % 17, i}).ok());
    ASSERT_TRUE(sparse.AppendRow({(i % 17) * 1'000'003, i}).ok());
  }
  ASSERT_TRUE(dense.AppendRow({Value::Null(), Value(999)}).ok());
  const KeyIndex direct(dense, {0});
  const KeyIndex hashed(sparse, {0});
  ASSERT_TRUE(direct.direct());
  ASSERT_FALSE(hashed.direct());
  EXPECT_EQ(direct.num_keys(), 17u);
  EXPECT_EQ(hashed.num_keys(), 17u);
  for (int k = -1; k < 18; ++k) {
    EXPECT_EQ(ProbeAllWays(direct, k), ProbeAllWays(hashed, k * 1'000'003))
        << "k=" << k;
  }
}

TEST(Int64HashIndexTest, RefusesDriftedColumn) {
  // An int64 key column never drifts: the table refuses a double at
  // append, so a direct-mapped index never meets a non-int64 cell.
  Table t = MakeTable({"k", "v"}, {{1, 10}});
  EXPECT_EQ(t.AppendRow({Value(2.0), Value(20)}).code(),
            StatusCode::kInvalidArgument);
  const KeyIndex index(t, {0});
  EXPECT_EQ(index.num_keys(), 1u);
  EXPECT_TRUE(ProbeAllWays(index, 2).empty());
}

TEST(Int64HashIndexTest, RefusesStringColumn) {
  const Table t = MakeTable({"k:s", "v"}, {{"a", 1}, {"1", 2}, {"a", 3}});
  // A string column is never direct-mapped, and a number never matches a
  // string key.
  const KeyIndex index(t, {0});
  EXPECT_FALSE(index.direct());
  EXPECT_EQ(index.num_keys(), 2u);
  EXPECT_TRUE(ProbeAllWays(index, 1).empty());
  EXPECT_EQ(ProbeValues(index, {Value("a")}),
            (std::vector<uint32_t>{0, 2}));
  EXPECT_EQ(ProbeValues(index, {Value("1")}), (std::vector<uint32_t>{1}));
  EXPECT_TRUE(ProbeValues(index, {Value("b")}).empty());
}

TEST(HashIndexTest, LargeTableAllRowsFindable) {
  Table t = MakeTable({"k", "v"}, {});
  for (int i = 0; i < 5000; ++i) ASSERT_TRUE(t.AppendRow({i % 100, i}).ok());
  const KeyIndex index(t, {0});
  EXPECT_EQ(index.num_keys(), 100u);
  size_t total = 0;
  for (int k = 0; k < 100; ++k) {
    const std::vector<uint32_t> hits = ProbeAllWays(index, k);
    EXPECT_EQ(hits.size(), 50u);
    total += hits.size();
    for (const uint32_t r : hits) EXPECT_EQ(t.row(r)[0].int64(), k);
  }
  EXPECT_EQ(total, 5000u);
}

TEST(KeyIndexTest, Int64ExtremesFallBackFromTheDirectTable) {
  // max - min overflows int64; the range test must not.
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  const Table t = MakeTable({"k"}, {{Value(kMin)}, {Value(kMax)}, {0}});
  const KeyIndex index(t, {0});
  EXPECT_FALSE(index.direct());
  EXPECT_TRUE(index.unique());
  EXPECT_EQ(ProbeAllWays(index, kMin), (std::vector<uint32_t>{0}));
  EXPECT_EQ(ProbeAllWays(index, kMax), (std::vector<uint32_t>{1}));
  EXPECT_EQ(ProbeAllWays(index, 0), (std::vector<uint32_t>{2}));
  EXPECT_TRUE(ProbeAllWays(index, kMin + 1).empty());
  EXPECT_TRUE(ProbeAllWays(index, -1).empty());
  // A dense range at the bottom of int64 is direct-mapped, and probes
  // outside it (near either end) miss.
  const Table low = MakeTable({"k"}, {{Value(kMin)}, {Value(kMin + 1)}});
  const KeyIndex low_index(low, {0});
  EXPECT_TRUE(low_index.direct());
  EXPECT_EQ(ProbeAllWays(low_index, kMin + 1), (std::vector<uint32_t>{1}));
  EXPECT_TRUE(ProbeAllWays(low_index, kMax).empty());
  EXPECT_TRUE(ProbeAllWays(low_index, kMin + 2).empty());
}

TEST(KeyIndexTest, NegativeAndSparseKeys) {
  Table dense = MakeTable({"k"}, {});
  for (int64_t k = -50; k < 50; ++k) ASSERT_TRUE(dense.AppendRow({k}).ok());
  const KeyIndex dense_index(dense, {0});
  EXPECT_TRUE(dense_index.direct());
  EXPECT_TRUE(dense_index.unique());
  for (int64_t k = -52; k < 52; ++k) {
    const std::vector<uint32_t> hits = ProbeAllWays(dense_index, k);
    if (k < -50 || k >= 50) {
      EXPECT_TRUE(hits.empty()) << k;
    } else {
      EXPECT_EQ(hits, (std::vector<uint32_t>{static_cast<uint32_t>(k + 50)}));
    }
  }
  // Spread keys (range far above 2 slots per row) hash instead.
  const Table sparse =
      MakeTable({"k"}, {{-1'000'000'000}, {7}, {1'000'000'000'000}});
  const KeyIndex sparse_index(sparse, {0});
  EXPECT_FALSE(sparse_index.direct());
  EXPECT_TRUE(sparse_index.unique());
  EXPECT_EQ(ProbeAllWays(sparse_index, -1'000'000'000),
            (std::vector<uint32_t>{0}));
  EXPECT_EQ(ProbeAllWays(sparse_index, 1'000'000'000'000),
            (std::vector<uint32_t>{2}));
  EXPECT_TRUE(ProbeAllWays(sparse_index, 8).empty());
}

TEST(KeyIndexTest, DuplicateKeysGiveAscendingSpans) {
  // Interleaved duplicates, over a direct-mapped and a hashed layout.
  for (const int64_t stride : {int64_t{1}, int64_t{1'000'003}}) {
    Table t = MakeTable({"k"}, {});
    std::map<int64_t, std::vector<uint32_t>> expected;
    for (uint32_t r = 0; r < 300; ++r) {
      const int64_t k = static_cast<int64_t>((r * 7) % 11) * stride;
      ASSERT_TRUE(t.AppendRow({k}).ok());
      expected[k].push_back(r);
    }
    const KeyIndex index(t, {0});
    EXPECT_EQ(index.direct(), stride == 1);
    EXPECT_FALSE(index.unique());
    EXPECT_EQ(index.num_keys(), expected.size());
    for (const auto& [k, rows] : expected) {
      EXPECT_EQ(ProbeAllWays(index, k), rows) << "stride " << stride;
    }
  }
  // One duplicate among otherwise unique keys is enough.
  const Table almost = MakeTable({"k"}, {{1}, {2}, {3}, {2}});
  EXPECT_FALSE(KeyIndex(almost, {0}).unique());
}

TEST(KeyIndexTest, AllNullAndEmptyBases) {
  const Table empty = MakeTable({"k", "s:s"}, {});
  for (const std::vector<size_t>& cols :
       {std::vector<size_t>{0}, std::vector<size_t>{1},
        std::vector<size_t>{0, 1}}) {
    const KeyIndex index(empty, cols);
    EXPECT_EQ(index.num_keys(), 0u);
    EXPECT_TRUE(index.unique());
  }
  EXPECT_TRUE(ProbeAllWays(KeyIndex(empty, {0}), 0).empty());
  const Table nulls = MakeTable(
      {"k", "s:s"},
      {{Value::Null(), Value::Null()}, {Value::Null(), Value::Null()}});
  const KeyIndex index(nulls, {0});
  EXPECT_EQ(index.num_keys(), 0u);
  EXPECT_TRUE(index.unique());
  EXPECT_TRUE(ProbeAllWays(index, 0).empty());
  EXPECT_TRUE(ProbeValues(KeyIndex(nulls, {1}), {Value("")}).empty());
}

TEST(KeyIndexTest, StringKeys) {
  Table t = MakeTable({"name:s", "n"}, {});
  for (int i = 0; i < 400; ++i) {
    ASSERT_TRUE(
        t.AppendRow({Value("key-" + std::to_string(i % 40)), Value(i)}).ok());
  }
  const KeyIndex index(t, {0});
  EXPECT_EQ(index.num_keys(), 40u);
  EXPECT_FALSE(index.unique());
  for (int k = 0; k < 40; ++k) {
    std::vector<uint32_t> expected;
    for (uint32_t r = static_cast<uint32_t>(k); r < 400; r += 40) {
      expected.push_back(r);
    }
    EXPECT_EQ(ProbeValues(index, {Value("key-" + std::to_string(k))}),
              expected);
  }
  EXPECT_TRUE(ProbeValues(index, {Value("key-40")}).empty());
  EXPECT_TRUE(ProbeValues(index, {Value("")}).empty());
}

TEST(KeyIndexTest, HeldBytesStayWithinTheBuildBound) {
  Table strings = MakeTable({"name:s"}, {});
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(
        strings.AppendRow({Value(StrCat({"k", std::to_string(i % 7)}))}).ok());
  }
  std::vector<Row> dense, sparse, pairs;
  for (int64_t i = 0; i < 500; ++i) {
    dense.push_back({Value(i / 2)});
    sparse.push_back({Value(i * 1000003)});
    pairs.push_back({Value(i % 9), Value(i % 4)});
  }
  const Table empty = MakeTable({"k"}, {});
  const Table nulls = MakeTable({"k"}, {{Value::Null()}, {Value::Null()}});
  const Table single = MakeTable({"k"}, {{7}});
  const Table dense_t = MakeTable({"k"}, dense);
  const Table sparse_t = MakeTable({"k"}, sparse);
  const Table pairs_t = MakeTable({"a", "b"}, pairs);
  const std::vector<std::pair<const Table*, std::vector<size_t>>> cases = {
      {&empty, {0}},   {&nulls, {0}},    {&single, {0}},     {&strings, {0}},
      {&dense_t, {0}}, {&sparse_t, {0}}, {&pairs_t, {0, 1}}};
  for (const auto& [table, cols] : cases) {
    const KeyIndex index(*table, cols);
    EXPECT_GT(index.bytes(), 0u);
    EXPECT_LE(index.bytes(), KeyIndex::BuildBytesBound(table->num_rows()))
        << table->num_rows() << " rows, direct=" << index.direct();
  }
}

}  // namespace
}  // namespace gmdj
