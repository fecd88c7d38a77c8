#ifndef GMDJ_STORAGE_COLUMN_H_
#define GMDJ_STORAGE_COLUMN_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "types/value.h"

namespace gmdj {

/// One typed column of a Table: the payload of its declared type plus a
/// validity byte per row (1 = NULL).
///
/// Only the payload matching `type()` is populated. Numeric payloads are
/// one vector slot per row; a NULL cell still occupies one (0 or 0.0), so
/// typed loops may read every lane and discard NULL lanes by the validity
/// byte. A string column keeps every cell's bytes back to back in one
/// byte arena plus `size() + 1` offsets: cell i is bytes
/// [offsets[i], offsets[i + 1]), and a NULL cell is an empty slot under
/// its validity byte. A kNull column (the type of a bare NULL literal)
/// holds validity bytes only.
///
/// A `str(i)` view, like the typed arrays, stays valid while the column is
/// alive and unmodified: a Table's columns are shared copy-on-write, so
/// holding the column's shared_ptr keeps its bytes, and only an append or
/// Set on that very column moves them.
///
/// Typing rule (`Accepts`): a cell is NULL, a value of the column's type,
/// or an int64 stored into a double column (widened). Anything else is
/// refused, so a column can never hold a value of another runtime type.
class Column {
 public:
  /// `AppendRows` row id that appends a NULL cell.
  static constexpr uint32_t kNullRow = UINT32_MAX;

  explicit Column(ValueType type = ValueType::kInt64) : type_(type) {
    if (type_ == ValueType::kString) offsets_.push_back(0);
  }

  ValueType type() const { return type_; }
  size_t size() const { return null_.size(); }
  size_t capacity() const { return null_.capacity(); }

  bool is_null(size_t i) const { return null_[i] != 0; }
  int64_t i64(size_t i) const { return i64_[i]; }
  double dbl(size_t i) const { return dbl_[i]; }
  std::string_view str(size_t i) const {
    return {bytes_.data() + offsets_[i], offsets_[i + 1] - offsets_[i]};
  }

  /// Typed arrays for column kernels (only the one of `type()` is set; a
  /// string column sets the offsets, `size() + 1` of them, and the bytes).
  const uint8_t* nulls() const { return null_.data(); }
  const int64_t* i64_data() const { return i64_.data(); }
  const double* dbl_data() const { return dbl_.data(); }
  const uint64_t* str_offsets() const { return offsets_.data(); }
  const char* str_bytes() const { return bytes_.data(); }

  /// Cell `i` as a Value (copies a string payload).
  Value Get(size_t i) const;

  /// Whether `v` may be stored in this column (see the typing rule).
  bool Accepts(const Value& v) const {
    return v.is_null() || v.type() == type_ ||
           (type_ == ValueType::kDouble && v.type() == ValueType::kInt64);
  }

  /// Appends `v`, which must be Accepts(v) (checked in debug builds).
  void Append(const Value& v);
  void AppendNull();
  /// Appends the bytes of `s` to a string column.
  void AppendString(std::string_view s);

  /// Appends cell `i` of `src`, a column of the same type other than this.
  void AppendFrom(const Column& src, size_t i);
  /// Appends cell `rows[k]` of `src` for every k (kNullRow: a NULL), `src`
  /// being a column of the same type other than this. Reserves exactly.
  void AppendRows(const Column& src, std::span<const uint32_t> rows);
  /// Appends every cell of `src`, a column of the same type.
  void AppendColumn(const Column& src);

  /// Overwrites cell `i` with `v`, which must be Accepts(v). A string cell
  /// is rewritten in place, moving the bytes after it when its length
  /// changes (none for the last row).
  void Set(size_t i, const Value& v);

  /// Ensures room for `n` cells, growing geometrically: an exact reserve
  /// before every small append would reallocate each time.
  void Reserve(size_t n);

 private:
  ValueType type_;
  std::vector<uint8_t> null_;
  std::vector<int64_t> i64_;
  std::vector<double> dbl_;
  std::vector<uint64_t> offsets_;  // String columns: size() + 1 ends.
  std::vector<char> bytes_;        // String columns: every cell's bytes.
};

/// Internal total order of two cells, identical to Value::Compare on the
/// cells' values (NULL first, numerics by value, then strings).
int CompareCells(const Column& a, size_t i, const Column& b, size_t j);

/// Hash of a cell, equal to Value::Hash of its value.
size_t CellHash(const Column& col, size_t i);

/// `c op 0` for an ordering result `c` (<0, 0, >0).
inline bool OrderSatisfies(int c, CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return c == 0;
    case CompareOp::kNe:
      return c != 0;
    case CompareOp::kLt:
      return c < 0;
    case CompareOp::kLe:
      return c <= 0;
    case CompareOp::kGt:
      return c > 0;
    case CompareOp::kGe:
      return c >= 0;
  }
  return false;
}

/// SqlCompareCells past its inline NULL and int64 cases.
TriBool SqlCompareCellsSlow(const Column& a, size_t i, CompareOp op,
                            const Column& b, size_t j);

/// SQL 3VL comparison of two cells, identical to SqlCompare on their
/// values. Inline for two int64 cells, the hottest comparison shape (join
/// and correlation keys).
inline TriBool SqlCompareCells(const Column& a, size_t i, CompareOp op,
                               const Column& b, size_t j) {
  if (a.is_null(i) || b.is_null(j)) return TriBool::kUnknown;
  if (a.type() == ValueType::kInt64 && b.type() == ValueType::kInt64) {
    const int64_t x = a.i64(i), y = b.i64(j);
    return MakeTriBool(OrderSatisfies((x > y) - (x < y), op));
  }
  return SqlCompareCellsSlow(a, i, op, b, j);
}

/// SQL 3VL comparison of a cell with a value, identical to SqlCompare on
/// the cell's value; reads the cell in place.
TriBool SqlCompareCellValue(const Column& a, size_t i, CompareOp op,
                            const Value& v);

/// The typed error an append of `v` into a column of `type` fails with.
Status RefusedCell(const std::string& column, ValueType type, const Value& v);

/// Appends `v` to `col`, or fails with RefusedCell naming `column`.
Status AppendCell(const std::string& column, Value v, Column* col);

}  // namespace gmdj

#endif  // GMDJ_STORAGE_COLUMN_H_
