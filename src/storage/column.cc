#include "storage/column.h"

#include <algorithm>

#include "common/check.h"

namespace gmdj {

Value Column::Get(size_t i) const {
  if (null_[i]) return Value::Null();
  switch (type_) {
    case ValueType::kInt64:
      return Value(i64_[i]);
    case ValueType::kDouble:
      return Value(dbl_[i]);
    case ValueType::kString:
      return Value(std::string(str(i)));
    case ValueType::kNull:
      break;
  }
  return Value::Null();
}

void Column::AppendNull() {
  null_.push_back(1);
  switch (type_) {
    case ValueType::kInt64:
      i64_.push_back(0);
      break;
    case ValueType::kDouble:
      dbl_.push_back(0.0);
      break;
    case ValueType::kString:
      offsets_.push_back(bytes_.size());
      break;
    case ValueType::kNull:
      break;
  }
}

void Column::AppendString(std::string_view s) {
  GMDJ_DCHECK(type_ == ValueType::kString);
  null_.push_back(0);
  bytes_.insert(bytes_.end(), s.begin(), s.end());
  offsets_.push_back(bytes_.size());
}

void Column::Append(const Value& v) {
  GMDJ_DCHECK(Accepts(v));
  if (v.is_null()) {
    AppendNull();
    return;
  }
  if (type_ == ValueType::kString) {
    AppendString(v.str());
    return;
  }
  null_.push_back(0);
  if (type_ == ValueType::kInt64) {
    i64_.push_back(v.int64());
  } else if (type_ == ValueType::kDouble) {
    dbl_.push_back(v.AsDouble());
  }
}

void Column::AppendFrom(const Column& src, size_t i) {
  GMDJ_DCHECK(src.type_ == type_ && &src != this);
  if (type_ == ValueType::kString) {
    AppendString(src.str(i));  // A NULL cell's slot is empty.
    null_.back() = src.null_[i];
    return;
  }
  null_.push_back(src.null_[i]);
  if (type_ == ValueType::kInt64) {
    i64_.push_back(src.i64_[i]);
  } else if (type_ == ValueType::kDouble) {
    dbl_.push_back(src.dbl_[i]);
  }
}

void Column::AppendRows(const Column& src, std::span<const uint32_t> rows) {
  GMDJ_DCHECK(src.type_ == type_ && &src != this);
  Reserve(size() + rows.size());
  if (type_ == ValueType::kString) {
    uint64_t bytes = 0;
    for (const uint32_t i : rows) {
      if (i != kNullRow) bytes += src.offsets_[i + 1] - src.offsets_[i];
    }
    bytes_.reserve(bytes_.size() + bytes);
  }
  for (const uint32_t i : rows) {
    if (i == kNullRow) {
      AppendNull();
    } else {
      AppendFrom(src, i);
    }
  }
}

void Column::AppendColumn(const Column& src) {
  GMDJ_DCHECK(src.type_ == type_ && &src != this);
  Reserve(size() + src.size());
  null_.insert(null_.end(), src.null_.begin(), src.null_.end());
  i64_.insert(i64_.end(), src.i64_.begin(), src.i64_.end());
  dbl_.insert(dbl_.end(), src.dbl_.begin(), src.dbl_.end());
  if (type_ != ValueType::kString) return;
  const uint64_t base = bytes_.size();
  for (size_t i = 1; i < src.offsets_.size(); ++i) {
    offsets_.push_back(base + src.offsets_[i]);
  }
  bytes_.insert(bytes_.end(), src.bytes_.begin(), src.bytes_.end());
}

void Column::Set(size_t i, const Value& v) {
  GMDJ_DCHECK(Accepts(v));
  null_[i] = v.is_null() ? 1 : 0;
  switch (type_) {
    case ValueType::kInt64:
      i64_[i] = v.is_null() ? 0 : v.int64();
      break;
    case ValueType::kDouble:
      dbl_[i] = v.is_null() ? 0.0 : v.AsDouble();
      break;
    case ValueType::kString: {
      const std::string_view s =
          v.is_null() ? std::string_view() : std::string_view(v.str());
      const uint64_t begin = offsets_[i], old_end = offsets_[i + 1];
      const uint64_t new_end = begin + s.size();
      if (new_end > old_end) {
        bytes_.insert(bytes_.begin() + old_end, new_end - old_end, '\0');
      } else {
        bytes_.erase(bytes_.begin() + new_end, bytes_.begin() + old_end);
      }
      std::copy(s.begin(), s.end(), bytes_.begin() + begin);
      // Unsigned wrap-around adds the (possibly negative) length change.
      for (size_t j = i + 1; j < offsets_.size(); ++j) {
        offsets_[j] += new_end - old_end;
      }
      break;
    }
    case ValueType::kNull:
      break;
  }
}

void Column::Reserve(size_t n) {
  if (n <= null_.capacity()) return;
  const size_t grown = std::max(n, 2 * null_.capacity());
  null_.reserve(grown);
  switch (type_) {
    case ValueType::kInt64:
      i64_.reserve(grown);
      break;
    case ValueType::kDouble:
      dbl_.reserve(grown);
      break;
    case ValueType::kString:
      offsets_.reserve(grown + 1);
      break;
    case ValueType::kNull:
      break;
  }
}

namespace {

bool IsNumeric(ValueType t) {
  return t == ValueType::kInt64 || t == ValueType::kDouble;
}

/// Numeric comparison of two non-NULL numeric cells, as Value::Compare
/// does it: exact for two int64s, through double otherwise.
int CompareNumericCells(const Column& a, size_t i, const Column& b,
                        size_t j) {
  if (a.type() == ValueType::kInt64 && b.type() == ValueType::kInt64) {
    const int64_t x = a.i64(i), y = b.i64(j);
    return (x > y) - (x < y);
  }
  const double x = a.type() == ValueType::kInt64
                       ? static_cast<double>(a.i64(i))
                       : a.dbl(i);
  const double y = b.type() == ValueType::kInt64
                       ? static_cast<double>(b.i64(j))
                       : b.dbl(j);
  return (x > y) - (x < y);
}

int Sign(int c) { return c < 0 ? -1 : (c > 0 ? 1 : 0); }

}  // namespace

int CompareCells(const Column& a, size_t i, const Column& b, size_t j) {
  const bool an = a.is_null(i), bn = b.is_null(j);
  if (an || bn) return an == bn ? 0 : (an ? -1 : 1);
  const bool a_num = IsNumeric(a.type()), b_num = IsNumeric(b.type());
  if (a_num != b_num) return a_num ? -1 : 1;  // Numbers before strings.
  if (a_num) return CompareNumericCells(a, i, b, j);
  return Sign(a.str(i).compare(b.str(j)));
}

size_t CellHash(const Column& col, size_t i) {
  if (col.is_null(i)) return Value::Null().Hash();
  switch (col.type()) {
    case ValueType::kInt64:
      return Value(col.i64(i)).Hash();
    case ValueType::kDouble:
      return Value(col.dbl(i)).Hash();
    case ValueType::kString:
      // std::hash<string_view> equals std::hash<string> on the same bytes,
      // so this stays equal to Value::Hash.
      return std::hash<std::string_view>()(col.str(i));
    case ValueType::kNull:
      break;
  }
  return Value::Null().Hash();
}

TriBool SqlCompareCellsSlow(const Column& a, size_t i, CompareOp op,
                            const Column& b, size_t j) {
  if (a.is_null(i) || b.is_null(j)) return TriBool::kUnknown;
  const bool a_num = IsNumeric(a.type()), b_num = IsNumeric(b.type());
  if (a_num != b_num) return TriBool::kUnknown;  // Incomparable types.
  const int c = a_num ? CompareNumericCells(a, i, b, j)
                      : a.str(i).compare(b.str(j));
  return MakeTriBool(OrderSatisfies(c, op));
}

TriBool SqlCompareCellValue(const Column& a, size_t i, CompareOp op,
                            const Value& v) {
  if (a.is_null(i) || v.is_null()) return TriBool::kUnknown;
  if (a.type() == ValueType::kString) {
    if (v.type() != ValueType::kString) return TriBool::kUnknown;
    return MakeTriBool(OrderSatisfies(a.str(i).compare(v.str()), op));
  }
  if (v.type() == ValueType::kString) return TriBool::kUnknown;
  int c;
  if (a.type() == ValueType::kInt64 && v.type() == ValueType::kInt64) {
    const int64_t x = a.i64(i), y = v.int64();
    c = (x > y) - (x < y);
  } else {
    const double x = a.type() == ValueType::kInt64
                         ? static_cast<double>(a.i64(i))
                         : a.dbl(i);
    const double y = v.AsDouble();
    c = (x > y) - (x < y);
  }
  return MakeTriBool(OrderSatisfies(c, op));
}

Status RefusedCell(const std::string& column, ValueType type,
                   const Value& v) {
  return Status::InvalidArgument(
      "value " + v.ToString() + " of type " + ValueTypeToString(v.type()) +
      " refused by column '" + column + "' of type " +
      ValueTypeToString(type));
}

Status AppendCell(const std::string& column, Value v, Column* col) {
  if (!col->Accepts(v)) return RefusedCell(column, col->type(), v);
  col->Append(std::move(v));
  return Status::OK();
}

}  // namespace gmdj
