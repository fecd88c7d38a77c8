#ifndef GMDJ_STORAGE_KEY_INDEX_H_
#define GMDJ_STORAGE_KEY_INDEX_H_

#include <cstdint>
#include <span>
#include <vector>

#include "storage/table.h"

namespace gmdj {

/// Equality index over one or more columns of a table: each distinct key
/// maps to `[begin, end)` of one contiguous array of row ids (CSR), in
/// ascending row order. Keys are hashed cell by cell from the typed
/// columns (CellHash) and compared as CompareCells does, so an int64 and
/// a double of equal value are one key. Rows with a NULL key component
/// are not indexed: equality is never TRUE on NULL. A single int64 key
/// column whose range is small (max - min <= 2·rows) is direct-mapped,
/// so a probe is two array loads. The index keeps its key columns alive.
class KeyIndex {
 public:
  using Rows = std::span<const uint32_t>;

  KeyIndex(const Table& table, const std::vector<size_t>& key_columns);

  /// Rows whose key equals `key`; direct-mapped indexes only.
  Rows ProbeDirect(int64_t key) const {
    if (key < min_ || key > max_) return {};
    return RowsOf(static_cast<uint64_t>(key) - static_cast<uint64_t>(min_));
  }
  /// Rows whose key equals cell `row` of `cols`, one column per key
  /// column. No cell may be NULL (the caller skips such rows).
  Rows Probe(std::span<const Column* const> cols, size_t row) const;

  /// Every key has exactly one row (exact, computed at build).
  bool unique() const { return unique_; }
  bool direct() const { return direct_; }
  size_t num_keys() const { return num_keys_; }
  /// Heap bytes held: the offset and slot tables and the row ids.
  size_t bytes() const {
    return (starts_.capacity() + slots_.capacity() + rows_.capacity()) *
           sizeof(uint32_t);
  }
  /// Most heap bytes a build over `rows` rows holds at once: a budgeted
  /// caller reserves it first and releases all but bytes() after.
  static size_t BuildBytesBound(size_t rows);

 private:
  Rows RowsOf(size_t k) const {
    return Rows(rows_.data() + starts_[k], starts_[k + 1] - starts_[k]);
  }

  std::vector<Table::ColumnHandle> cols_;
  bool direct_ = false;
  bool unique_ = true;
  size_t num_keys_ = 0;
  int64_t min_ = 0;  // Direct: the key at offset 0.
  int64_t max_ = 0;
  /// Rows of key offset (direct) or key id (hashed) k are
  /// rows_[starts_[k], starts_[k + 1]).
  std::vector<uint32_t> starts_;
  std::vector<uint32_t> slots_;  // Hashed: key id + 1 per slot, 0 = empty.
  uint64_t slot_mask_ = 0;
  std::vector<uint32_t> rows_;
};

}  // namespace gmdj

#endif  // GMDJ_STORAGE_KEY_INDEX_H_
