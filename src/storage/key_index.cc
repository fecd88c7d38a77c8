#include "storage/key_index.h"

#include <algorithm>

#include "common/check.h"

namespace gmdj {
namespace {

constexpr uint64_t kDirectSlotsPerRow = 2;

/// Hash of non-NULL cells `row` of `cols`, combined column by column.
template <typename Cols>
uint64_t HashCells(const Cols& cols, size_t row) {
  uint64_t h = CellHash(*cols[0], row);
  for (size_t j = 1; j < cols.size(); ++j) {
    h ^= CellHash(*cols[j], row) + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  }
  return h;
}

template <typename A, typename B>
bool CellsEqual(const A& a, size_t i, const B& b, size_t j) {
  for (size_t k = 0; k < a.size(); ++k) {
    if (CompareCells(*a[k], i, *b[k], j) != 0) return false;
  }
  return true;
}

}  // namespace

size_t KeyIndex::BuildBytesBound(size_t rows) {
  // An int64 key id per row, and uint32s: max(16, 4n) slots, at most
  // 2n+2 offsets, n first rows and n row ids.
  return 8 * rows + (std::max<size_t>(16, 4 * rows) + 4 * rows + 2) * 4;
}

KeyIndex::KeyIndex(const Table& table, const std::vector<size_t>& key_columns) {
  GMDJ_CHECK(!key_columns.empty());
  for (const size_t c : key_columns) cols_.push_back(table.shared_column(c));
  const size_t n = table.num_rows();
  const Column& first = *cols_[0];
  const bool int_key = cols_.size() == 1 && first.type() == ValueType::kInt64;
  std::vector<int64_t> key_of(n, -1);  // Key offset or id; -1 = NULL key.
  size_t keyed = 0;
  for (size_t r = 0; r < n; ++r) {
    if (std::any_of(cols_.begin(), cols_.end(),
                    [r](const auto& col) { return col->is_null(r); })) {
      continue;
    }
    key_of[r] = 0;
    if (int_key) {
      min_ = keyed == 0 ? first.i64(r) : std::min(min_, first.i64(r));
      max_ = keyed == 0 ? first.i64(r) : std::max(max_, first.i64(r));
    }
    ++keyed;
  }
  // In uint64 the distance never overflows, even from INT64_MIN to MAX.
  const uint64_t span =
      static_cast<uint64_t>(max_) - static_cast<uint64_t>(min_);
  direct_ = int_key && keyed > 0 && span <= kDirectSlotsPerRow * keyed;
  size_t capacity = 16;
  while (!direct_ && capacity < 2 * keyed) capacity *= 2;
  if (!direct_) slots_.assign(capacity, 0);
  slot_mask_ = capacity - 1;
  starts_.reserve(direct_ ? span + 2 : keyed + 1);  // No regrowth.
  starts_.assign(direct_ ? span + 2 : 1, 0);  // Then counts per key.
  std::vector<uint32_t> first_row;             // Hashed: per key id.
  first_row.reserve(direct_ ? 0 : keyed);
  for (size_t r = 0; r < n; ++r) {
    if (key_of[r] < 0) continue;
    if (direct_) {
      key_of[r] = static_cast<int64_t>(static_cast<uint64_t>(first.i64(r)) -
                                       static_cast<uint64_t>(min_));
    } else {
      uint64_t p = HashCells(cols_, r) & slot_mask_;
      while (slots_[p] != 0 &&
             !CellsEqual(cols_, r, cols_, first_row[slots_[p] - 1])) {
        p = (p + 1) & slot_mask_;
      }
      if (slots_[p] == 0) {
        first_row.push_back(static_cast<uint32_t>(r));
        starts_.push_back(0);
        slots_[p] = static_cast<uint32_t>(first_row.size());
      }
      key_of[r] = slots_[p] - 1;
    }
    ++starts_[key_of[r] + 1];
  }

  // CSR: prefix sums over the counts, then place rows in ascending order
  // with starts_[k] as key k's cursor, left at key k+1's begin: shift back.
  for (size_t k = 1; k < starts_.size(); ++k) {
    num_keys_ += starts_[k] > 0;
    unique_ &= starts_[k] <= 1;
    starts_[k] += starts_[k - 1];
  }
  rows_.resize(keyed);
  for (size_t r = 0; r < n; ++r) {
    if (key_of[r] >= 0) rows_[starts_[key_of[r]]++] = r;
  }
  for (size_t k = starts_.size() - 1; k > 0; --k) starts_[k] = starts_[k - 1];
  starts_[0] = 0;
}

KeyIndex::Rows KeyIndex::Probe(std::span<const Column* const> cols,
                               size_t row) const {
  if (direct_) {
    // Only an int64 or an integral double can equal an int64 key.
    const Column& key = *cols[0];
    if (key.type() == ValueType::kInt64) return ProbeDirect(key.i64(row));
    if (key.type() != ValueType::kDouble) return {};
    const double d = key.dbl(row);
    const bool integral = d >= -0x1p63 && d < 0x1p63 &&
                          static_cast<double>(static_cast<int64_t>(d)) == d;
    return integral ? ProbeDirect(static_cast<int64_t>(d)) : Rows();
  }
  for (uint64_t p = HashCells(cols, row) & slot_mask_;;
       p = (p + 1) & slot_mask_) {
    const uint32_t id = slots_[p];
    if (id == 0) return {};
    if (CellsEqual(cols, row, cols_, rows_[starts_[id - 1]])) {
      return RowsOf(id - 1);
    }
  }
}

}  // namespace gmdj
