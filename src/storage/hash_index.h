#ifndef GMDJ_STORAGE_HASH_INDEX_H_
#define GMDJ_STORAGE_HASH_INDEX_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "storage/table.h"
#include "types/row.h"

namespace gmdj {

/// Equality hash index over one or more columns of a table.
///
/// Maps a composite key (the values of `key_columns`) to the list of row
/// indices holding that key. Rows where any key component is NULL are not
/// indexed: under SQL semantics an equality predicate can never evaluate to
/// TRUE against a NULL key, so such rows can never match an equality probe.
///
/// Used by (a) the GMDJ evaluator to locate base tuples from equality
/// bindings, (b) the "native with indexes" baseline to probe inner tables,
/// and (c) the hash join operators.
class HashIndex {
 public:
  /// Builds the index over `table` on `key_columns` (column indices).
  /// With `build_threads > 1` and a large table, contiguous row
  /// partitions are hashed in parallel on the shared thread pool and
  /// merged in partition order, which preserves the sequential build's
  /// ascending row order inside every Probe list.
  HashIndex(const Table& table, std::vector<size_t> key_columns,
            size_t build_threads = 1);

  /// Row count below which a parallel build falls back to sequential
  /// (partition maps + merge would cost more than they save).
  static constexpr size_t kParallelBuildMinRows = 64 * 1024;

  /// Row indices whose key equals `key` (same width as key_columns).
  /// Returns an empty list when the key is absent or contains NULL.
  const std::vector<uint32_t>& Probe(const Row& key) const;

  size_t num_keys() const { return map_.size(); }
  const std::vector<size_t>& key_columns() const { return key_columns_; }

  /// Extracts the probe key from a full row of the indexed table's layout.
  Row ExtractKey(const Row& row) const;

 private:
  std::vector<size_t> key_columns_;
  std::unordered_map<Row, std::vector<uint32_t>, RowHash, RowEq> map_;
  std::vector<uint32_t> empty_;
};

/// Single-column int64 equality index: the unboxed probe the compiled GMDJ
/// evaluation mode uses when a condition's one equality binding joins two
/// int64 columns. Probing costs one integer hash instead of a Row key
/// build + per-Value hashing/comparison.
///
/// Only built over an int64 column, whose cells are int64-or-NULL by the
/// table's append typing (the generic HashIndex equates int64 and double
/// keys of equal numeric value, which this index could not). Probe lists
/// hold row
/// indices in ascending order, exactly like HashIndex, so candidate
/// iteration (and thus double-sum rounding) is identical on either index.
class Int64HashIndex {
 public:
  /// Builds over `table[key_column]`; nullptr unless the column is int64.
  /// NULL keys are not indexed (can never equality-match).
  static std::unique_ptr<Int64HashIndex> Build(const Table& table,
                                               size_t key_column);

  /// Row indices whose key equals `key`; empty when absent.
  const std::vector<uint32_t>& Probe(int64_t key) const {
    const auto it = map_.find(key);
    return it == map_.end() ? empty_ : it->second;
  }

  size_t num_keys() const { return map_.size(); }

 private:
  std::unordered_map<int64_t, std::vector<uint32_t>> map_;
  std::vector<uint32_t> empty_;
};

}  // namespace gmdj

#endif  // GMDJ_STORAGE_HASH_INDEX_H_
