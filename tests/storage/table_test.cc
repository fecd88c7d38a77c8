#include "storage/table.h"

#include "gtest/gtest.h"
#include "test_util.h"

namespace gmdj {
namespace {

using testutil::MakeTable;

TEST(TableTest, AppendAndAccess) {
  Table t = MakeTable({"a", "b:s"}, {});
  t.AppendRow({1, "x"});
  t.AppendRow({2, "y"});
  EXPECT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.num_columns(), 2u);
  EXPECT_EQ(t.row(1)[1].str(), "y");
  EXPECT_TRUE(t.Validate().ok());
}

TEST(TableTest, ValidateCatchesTypeMismatch) {
  // A mismatched value can no longer reach a column: the append refuses
  // it with a typed error and the table stays valid and unchanged.
  Table t = MakeTable({"a"}, {});
  const Status refused = t.AppendRow({Value("oops")});
  EXPECT_EQ(refused.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(refused.message().find("STRING"), std::string::npos);
  EXPECT_NE(refused.message().find("INT64"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 0u);
  EXPECT_TRUE(t.Validate().ok());
}

TEST(TableTest, NullsAlwaysValid) {
  Table t = MakeTable({"a", "b:s"}, {{Value::Null(), Value::Null()}});
  EXPECT_TRUE(t.Validate().ok());
}

TEST(TableTest, CopyIsSharedUntilMutation) {
  Table a = MakeTable({"x"}, {{1}, {2}});
  Table b = a;  // O(1) shared copy.
  EXPECT_EQ(&a.column(0), &b.column(0));
  ASSERT_TRUE(b.AppendRow({3}).ok());  // Detaches.
  EXPECT_NE(&a.column(0), &b.column(0));
  EXPECT_EQ(a.num_rows(), 2u);
  EXPECT_EQ(b.num_rows(), 3u);
}

TEST(TableTest, WithQualifierSharesRows) {
  Table a = MakeTable({"x"}, {{1}});
  const Table b = a.WithQualifier("Q");
  EXPECT_EQ(&a.column(0), &b.column(0));
  EXPECT_EQ(b.schema().field(0).QualifiedName(), "Q.x");
  EXPECT_EQ(a.schema().field(0).QualifiedName(), "x");
}

TEST(TableTest, SameRowsAsIgnoresOrderAndNames) {
  const Table a = MakeTable({"x", "y"}, {{1, 2}, {3, 4}});
  const Table b = MakeTable({"p", "q"}, {{3, 4}, {1, 2}});
  EXPECT_TRUE(a.SameRowsAs(b));
}

TEST(TableTest, SameRowsAsRespectsMultiplicity) {
  const Table a = MakeTable({"x"}, {{1}, {1}, {2}});
  const Table b = MakeTable({"x"}, {{1}, {2}, {2}});
  EXPECT_FALSE(a.SameRowsAs(b));
  const Table c = MakeTable({"x"}, {{1}, {2}});
  EXPECT_FALSE(a.SameRowsAs(c));
}

TEST(TableTest, SameRowsAsHandlesNulls) {
  const Table a = MakeTable({"x"}, {{Value::Null()}, {1}});
  const Table b = MakeTable({"x"}, {{1}, {Value::Null()}});
  EXPECT_TRUE(a.SameRowsAs(b));
}

TEST(TableTest, SortRows) {
  Table t = MakeTable({"x"}, {{3}, {1}, {Value::Null()}, {2}});
  t.SortRows();
  EXPECT_TRUE(t.row(0)[0].is_null());  // NULLs first in internal order.
  EXPECT_EQ(t.row(1)[0].int64(), 1);
  EXPECT_EQ(t.row(3)[0].int64(), 3);
}

TEST(TableTest, ToStringTruncates) {
  Table t = MakeTable({"x"}, {});
  for (int i = 0; i < 100; ++i) t.AppendRow({i});
  const std::string s = t.ToString(5);
  EXPECT_NE(s.find("95 more rows"), std::string::npos);
  EXPECT_NE(s.find("| x"), std::string::npos);
}

TEST(TableTest, TypedAppendStoresPayloadsInPlace) {
  Table t = MakeTable({"i", "d:d", "s:s"}, {});
  ASSERT_TRUE(t.AppendRow({7, 2.5, "x"}).ok());
  ASSERT_TRUE(t.AppendRows({{8, 3.5, "y"}, {9, 4.5, "z"}}).ok());
  ASSERT_EQ(t.num_rows(), 3u);
  EXPECT_EQ(t.column(0).type(), ValueType::kInt64);
  EXPECT_EQ(t.column(0).i64(2), 9);
  EXPECT_EQ(t.column(1).dbl(1), 3.5);
  EXPECT_EQ(t.column(2).str(0), "x");
  EXPECT_EQ(t.column(0).i64_data()[1], 8);
  EXPECT_EQ(t.cell(2, 2), Value("z"));
}

TEST(TableTest, NullValidityIsPerCell) {
  Table t = MakeTable({"i", "s:s"}, {{1, Value::Null()}, {Value::Null(), "a"}});
  EXPECT_FALSE(t.column(0).is_null(0));
  EXPECT_TRUE(t.column(0).is_null(1));
  EXPECT_TRUE(t.column(1).is_null(0));
  EXPECT_FALSE(t.column(1).is_null(1));
  EXPECT_TRUE(t.cell(1, 0).is_null());
  // A NULL cell keeps a zero payload, so typed loops may read every lane.
  EXPECT_EQ(t.column(0).i64(1), 0);
}

TEST(TableTest, Int64WidensIntoDoubleColumn) {
  Table t = MakeTable({"d:d"}, {});
  ASSERT_TRUE(t.AppendRow({Value(int64_t{3})}).ok());
  ASSERT_TRUE(t.SetCell(0, 0, Value(int64_t{4})).ok());
  EXPECT_EQ(t.cell(0, 0).type(), ValueType::kDouble);
  EXPECT_EQ(t.column(0).dbl(0), 4.0);
}

TEST(TableTest, RefusesValuesOfAnotherType) {
  Table t = MakeTable({"i", "s:s"}, {{1, "a"}});
  const uint64_t version = t.version();
  EXPECT_EQ(t.AppendRow({Value(2.5), Value("b")}).code(),
            StatusCode::kInvalidArgument);  // Double into int64.
  EXPECT_EQ(t.AppendRow({Value(2), Value(3)}).code(),
            StatusCode::kInvalidArgument);  // Int64 into string.
  EXPECT_FALSE(t.AppendRow({Value(2)}).ok());  // Wrong width.
  // A bulk load with one bad row appends none of its rows.
  EXPECT_FALSE(t.AppendRows({{2, "b"}, {Value("c"), "c"}}).ok());
  EXPECT_FALSE(t.SetCell(0, 1, Value(5)).ok());
  EXPECT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.version(), version);
  EXPECT_EQ(t.row(0), (Row{Value(1), Value("a")}));
}

TEST(TableTest, CopyOnWriteSharesUntouchedColumns) {
  const Table a = MakeTable({"x", "y"}, {{1, 2}, {3, 4}});
  Table b = a;
  ASSERT_TRUE(b.SetCell(0, 1, Value(9)).ok());
  EXPECT_EQ(&a.column(0), &b.column(0));  // Untouched: still shared.
  EXPECT_NE(&a.column(1), &b.column(1));  // Edited: detached.
  EXPECT_EQ(a.cell(0, 1), Value(2));
  EXPECT_EQ(b.cell(0, 1), Value(9));
  // A derived table may share a column outright.
  Table c = MakeTable({"z"}, {{5}, {6}});
  c.AddColumn(Field{"x", ValueType::kInt64, ""}, a.shared_column(0));
  EXPECT_EQ(&c.column(1), &a.column(0));
  EXPECT_EQ(c.row(1), (Row{Value(6), Value(3)}));
}

TEST(TableTest, EveryMutationBumpsTheVersion) {
  Table t = MakeTable({"x"}, {{1}});
  uint64_t last = t.version();
  auto bumped = [&] {
    const bool moved = t.version() > last;
    last = t.version();
    return moved;
  };
  ASSERT_TRUE(t.AppendRow({2}).ok());
  EXPECT_TRUE(bumped());
  ASSERT_TRUE(t.AppendRows({{3}}).ok());
  EXPECT_TRUE(bumped());
  ASSERT_TRUE(t.SetCell(0, 0, Value(7)).ok());
  EXPECT_TRUE(bumped());
  t.SetSchema(t.schema().WithQualifier("Q"));
  EXPECT_TRUE(bumped());
  t.SortRows();
  EXPECT_TRUE(bumped());
  t.Reserve(100);
  EXPECT_TRUE(bumped());
  const Table copy = t;
  EXPECT_EQ(copy.version(), t.version());
}

TEST(TableTest, GrowsGeometrically) {
  Table t = MakeTable({"x", "s:s"}, {});
  size_t reallocations = 0;
  size_t capacity = t.capacity();
  for (int i = 0; i < 5000; ++i) {
    ASSERT_TRUE(t.AppendRows({{i, "v"}}).ok());
    if (t.capacity() != capacity) {
      ++reallocations;
      capacity = t.capacity();
    }
  }
  EXPECT_GE(capacity, 5000u);
  EXPECT_LE(reallocations, 16u);  // log2(5000) ~ 12.3 doublings.
}

TEST(TableTest, RowAccessorsReturnExactlyTheRowsAppended) {
  const std::vector<Row> rows = {{1, 1.5, "a"},
                                 {Value::Null(), Value::Null(), "b"},
                                 {3, Value::Null(), Value::Null()}};
  Table t = MakeTable({"i", "d:d", "s:s"}, {});
  ASSERT_TRUE(t.AppendRows(rows).ok());
  ASSERT_EQ(t.num_rows(), rows.size());
  for (size_t r = 0; r < rows.size(); ++r) EXPECT_EQ(t.row(r), rows[r]);
  const std::vector<Row> all = t.rows();
  EXPECT_EQ(all, rows);
  size_t i = 0;
  for (const Row& row : t.rows()) EXPECT_EQ(row, rows[i++]);
  EXPECT_EQ(i, rows.size());
}

}  // namespace
}  // namespace gmdj
