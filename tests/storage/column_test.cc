// Column (storage/column.h): the typed payloads, and above all the string
// layout, one byte arena plus size() + 1 offsets. Appends, gathers,
// in-place Set, NULL versus '', long strings and embedded NULs must read
// back exactly, and the cell comparisons and hash must agree with Value's.

#include "storage/column.h"

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "gtest/gtest.h"
#include "storage/table.h"
#include "test_util.h"
#include "types/value.h"

namespace gmdj {
namespace {

/// Edge strings: empty, one byte, 15 and 16 bytes (either side of the
/// usual small-string buffer), a long one, and embedded NULs.
std::vector<Value> EdgeStrings() {
  return {Value(""),
          Value("a"),
          Value(std::string(15, 'x')),
          Value(std::string(16, 'x')),
          Value("a string well past any small-string buffer"),
          Value(std::string("\0", 1)),
          Value(std::string("a\0b", 3)),
          Value(std::string("a\0c", 3)),
          Value(std::string("ab\0", 3))};
}

/// Expects `col` to hold exactly `want` (NULL-aware, bytes compared).
void ExpectCells(const Column& col, const std::vector<Value>& want) {
  ASSERT_EQ(col.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(col.is_null(i), want[i].is_null()) << "row " << i;
    if (want[i].is_null()) {
      EXPECT_TRUE(col.str(i).empty()) << "row " << i;  // Empty NULL slot.
      continue;
    }
    EXPECT_EQ(col.str(i), want[i].str()) << "row " << i;
    EXPECT_EQ(col.Get(i).str(), want[i].str()) << "row " << i;
  }
  // The offsets tile the arena: size() + 1 non-decreasing ends from 0.
  EXPECT_EQ(col.str_offsets()[0], 0u);
  for (size_t i = 0; i < col.size(); ++i) {
    EXPECT_LE(col.str_offsets()[i], col.str_offsets()[i + 1]);
  }
}

TEST(ColumnTest, AppendsReadBackWithNullDistinctFromEmpty) {
  Column col(ValueType::kString);
  std::vector<Value> want;
  for (const Value& v : EdgeStrings()) {
    col.Append(v);
    want.push_back(v);
    col.AppendNull();
    want.push_back(Value::Null());
  }
  const std::string tail("view\0tail", 9);
  col.AppendString(tail);
  want.emplace_back(tail);
  ExpectCells(col, want);
  // NULL and '' differ only in the validity byte: both are empty slots.
  EXPECT_FALSE(col.is_null(0));
  EXPECT_TRUE(col.is_null(1));
  EXPECT_EQ(col.str(0).size(), 0u);
  EXPECT_EQ(col.str(1).size(), 0u);
  EXPECT_TRUE(col.Get(1).is_null());
  EXPECT_FALSE(col.Get(0).is_null());
}

TEST(ColumnTest, ReserveGrowsGeometricallyAndKeepsCells) {
  Column col(ValueType::kString);
  std::vector<Value> want;
  size_t reallocations = 0;
  size_t capacity = col.capacity();
  for (int i = 0; i < 1000; ++i) {
    col.Reserve(col.size() + 1);
    if (col.capacity() != capacity) {
      ++reallocations;
      capacity = col.capacity();
    }
    const Value v = i % 7 == 0 ? Value::Null()
                               : Value(std::string(i % 23, 'a' + i % 26));
    col.Append(v);
    want.push_back(v);
  }
  EXPECT_LE(reallocations, 12u);  // Doubling: ~log2(1000) + 1.
  EXPECT_GE(col.capacity(), 1000u);
  ExpectCells(col, want);
}

TEST(ColumnTest, AppendFromAppendRowsAndAppendColumnCopyBytes) {
  Column src(ValueType::kString);
  std::vector<Value> cells = EdgeStrings();
  cells.insert(cells.begin() + 2, Value::Null());
  for (const Value& v : cells) src.Append(v);

  Column from(ValueType::kString);
  for (size_t i = cells.size(); i-- > 0;) from.AppendFrom(src, i);
  ExpectCells(from, std::vector<Value>(cells.rbegin(), cells.rend()));

  Column gathered(ValueType::kString);
  gathered.Append(Value("first"));
  const std::vector<uint32_t> rows = {4, Column::kNullRow, 2, 0, 4, 6};
  gathered.AppendRows(src, rows);
  ExpectCells(gathered, {Value("first"), cells[4], Value::Null(), cells[2],
                         cells[0], cells[4], cells[6]});

  Column joined(ValueType::kString);
  joined.Append(Value("head"));
  joined.AppendNull();
  joined.AppendColumn(src);
  joined.AppendColumn(Column(ValueType::kString));  // Empty: no-op.
  std::vector<Value> want = {Value("head"), Value::Null()};
  want.insert(want.end(), cells.begin(), cells.end());
  ExpectCells(joined, want);
  // The source is untouched.
  ExpectCells(src, cells);
}

TEST(ColumnTest, NumericAppendRowsAndAppendColumn) {
  Column ints(ValueType::kInt64);
  ints.Append(Value(int64_t{7}));
  ints.AppendNull();
  ints.Append(Value(int64_t{-3}));
  Column out(ValueType::kInt64);
  const std::vector<uint32_t> rows = {2, Column::kNullRow, 0, 1};
  out.AppendRows(ints, rows);
  out.AppendColumn(ints);
  ASSERT_EQ(out.size(), 7u);
  EXPECT_EQ(out.i64(0), -3);
  EXPECT_TRUE(out.is_null(1));
  EXPECT_EQ(out.i64(2), 7);
  EXPECT_TRUE(out.is_null(3));
  EXPECT_EQ(out.i64(4), 7);
  EXPECT_TRUE(out.is_null(5));
  EXPECT_EQ(out.i64(6), -3);

  Column dbl(ValueType::kDouble);
  dbl.Append(Value(int64_t{2}));  // Widened.
  dbl.Append(Value(0.5));
  EXPECT_EQ(dbl.dbl(0), 2.0);
  EXPECT_EQ(dbl.dbl(1), 0.5);
}

TEST(ColumnTest, SetRewritesLastAndMiddleRows) {
  const std::vector<Value> edges = EdgeStrings();
  Column col(ValueType::kString);
  std::vector<Value> want;
  for (int i = 0; i < 5; ++i) {
    want.push_back(Value("cell-" + std::to_string(i)));
    col.Append(want.back());
  }
  // The last row: the one-row probe cell shape, rewritten in place.
  for (const Value& v : edges) {
    col.Set(4, v);
    want[4] = v;
    ExpectCells(col, want);
  }
  col.Set(4, Value::Null());
  want[4] = Value::Null();
  ExpectCells(col, want);
  // Middle rows: longer, shorter, equal length, NULL and back.
  const std::vector<std::pair<size_t, Value>> sets = {
      {2, Value(std::string(40, 'L'))},
      {1, Value("")},
      {2, Value("s")},
      {0, Value(std::string("a\0b", 3))},
      {3, Value::Null()},
      {3, Value("x")},
      {1, Value(std::string(16, 'y'))},
      {2, Value("t")}};
  for (const auto& [row, v] : sets) {
    col.Set(row, v);
    want[row] = v;
    ExpectCells(col, want);
  }
}

TEST(ColumnTest, CellHashAndComparisonsAgreeWithValue) {
  Rng rng(20261022);
  std::vector<Value> cells = EdgeStrings();
  for (int i = 0; i < 120; ++i) {
    if (rng.Chance(0.1)) {
      cells.push_back(Value::Null());
    } else if (rng.Chance(0.2)) {
      // Short strings over a small alphabet with NULs: many ties and
      // shared prefixes.
      std::string s;
      const int64_t len = rng.Uniform(0, 4);
      for (int64_t k = 0; k < len; ++k) {
        s.push_back("a\0b"[rng.Uniform(0, 2)]);
      }
      cells.push_back(Value(s));
    } else {
      cells.push_back(Value(rng.NextString(0, 24)));
    }
  }
  Column col(ValueType::kString);
  for (const Value& v : cells) col.Append(v);

  const CompareOp ops[] = {CompareOp::kEq, CompareOp::kNe, CompareOp::kLt,
                           CompareOp::kLe, CompareOp::kGt, CompareOp::kGe};
  for (size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(CellHash(col, i), cells[i].Hash()) << "row " << i;
    for (size_t j = 0; j < cells.size(); ++j) {
      const int want = cells[i].Compare(cells[j]);
      const int got = CompareCells(col, i, col, j);
      EXPECT_EQ((got > 0) - (got < 0), (want > 0) - (want < 0))
          << i << " vs " << j;
      for (const CompareOp op : ops) {
        EXPECT_EQ(SqlCompareCellValue(col, i, op, cells[j]),
                  SqlCompare(cells[i], op, cells[j]))
            << i << " " << CompareOpToString(op) << " " << j;
        EXPECT_EQ(SqlCompareCells(col, i, op, col, j),
                  SqlCompare(cells[i], op, cells[j]))
            << i << " " << CompareOpToString(op) << " " << j;
      }
    }
  }
  // A string cell against a number is incomparable, in either order.
  Column ints(ValueType::kInt64);
  ints.Append(Value(int64_t{1}));
  EXPECT_EQ(SqlCompareCells(col, 1, CompareOp::kEq, ints, 0),
            TriBool::kUnknown);
  EXPECT_EQ(SqlCompareCellValue(col, 1, CompareOp::kEq, Value(int64_t{1})),
            TriBool::kUnknown);
  EXPECT_GT(CompareCells(col, 1, ints, 0), 0);  // Numbers sort first.
}

TEST(ColumnTest, SharedColumnIsCopiedBeforeAnAppend) {
  Table a = testutil::MakeTable({"t.s:s"}, {{Value("kept")}, {Value::Null()}});
  const Column* shared = &a.column(0);
  const std::string_view view = a.column(0).str(0);
  Table b = a;  // Shares the column.
  EXPECT_EQ(&b.column(0), shared);
  ASSERT_TRUE(b.AppendRow({Value(std::string(100, 'z'))}).ok());
  ASSERT_TRUE(b.SetCell(0, 0, Value("changed")).ok());
  // b detached before writing: a's column, and views into it, stand.
  EXPECT_NE(&b.column(0), shared);
  EXPECT_EQ(&a.column(0), shared);
  EXPECT_EQ(a.num_rows(), 2u);
  EXPECT_EQ(view, "kept");
  EXPECT_EQ(a.column(0).str(0), "kept");
  EXPECT_TRUE(a.column(0).is_null(1));
  ASSERT_EQ(b.num_rows(), 3u);
  EXPECT_EQ(b.column(0).str(0), "changed");
  EXPECT_TRUE(b.column(0).is_null(1));
  EXPECT_EQ(b.column(0).str(2), std::string(100, 'z'));
}

}  // namespace
}  // namespace gmdj
