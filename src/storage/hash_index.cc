#include "storage/hash_index.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "parallel/thread_pool.h"

namespace gmdj {

namespace {

using KeyMap = std::unordered_map<Row, std::vector<uint32_t>, RowHash, RowEq>;

/// Indexes rows [begin, end) of `table` into `map` (sequential kernel,
/// shared by the single-threaded build and each parallel partition).
void BuildRange(const Table& table, const std::vector<size_t>& key_columns,
                size_t begin, size_t end, KeyMap* map) {
  for (size_t r = begin; r < end; ++r) {
    bool has_null = false;
    Row key;
    key.reserve(key_columns.size());
    for (const size_t c : key_columns) {
      const Column& col = table.column(c);
      if (col.is_null(r)) {
        has_null = true;
        break;
      }
      key.push_back(col.Get(r));
    }
    if (has_null) continue;
    (*map)[std::move(key)].push_back(static_cast<uint32_t>(r));
  }
}

}  // namespace

HashIndex::HashIndex(const Table& table, std::vector<size_t> key_columns,
                     size_t build_threads)
    : key_columns_(std::move(key_columns)) {
  GMDJ_CHECK(!key_columns_.empty());
  for (const size_t c : key_columns_) {
    GMDJ_CHECK(c < table.num_columns());
  }
  const size_t num_rows = table.num_rows();
  if (build_threads <= 1 || num_rows < kParallelBuildMinRows) {
    map_.reserve(num_rows);
    BuildRange(table, key_columns_, 0, num_rows, &map_);
    return;
  }

  // Parallel build: hash contiguous partitions independently, then merge
  // in partition order so each key's row list stays ascending — the same
  // list the sequential build produces.
  const size_t partitions =
      std::min(build_threads, num_rows / (kParallelBuildMinRows / 8));
  const size_t chunk = (num_rows + partitions - 1) / partitions;
  std::vector<KeyMap> parts(partitions);
  // The configured thread count may exceed the machine's cores.
  ThreadPool::Shared()->EnsureWorkers(partitions - 1);
  ThreadPool::Shared()->ParallelFor(
      partitions, partitions, [&](size_t p, size_t /*slot*/) {
        const size_t begin = p * chunk;
        const size_t end = std::min(begin + chunk, num_rows);
        parts[p].reserve(end - begin);
        BuildRange(table, key_columns_, begin, end, &parts[p]);
      });
  map_.reserve(num_rows);
  for (KeyMap& part : parts) {
    for (auto& entry : part) {
      std::vector<uint32_t>& dst = map_[entry.first];
      if (dst.empty()) {
        dst = std::move(entry.second);
      } else {
        dst.insert(dst.end(), entry.second.begin(), entry.second.end());
      }
    }
  }
}

const std::vector<uint32_t>& HashIndex::Probe(const Row& key) const {
  for (const Value& v : key) {
    if (v.is_null()) return empty_;
  }
  const auto it = map_.find(key);
  return it == map_.end() ? empty_ : it->second;
}

Row HashIndex::ExtractKey(const Row& row) const {
  Row key;
  key.reserve(key_columns_.size());
  for (const size_t c : key_columns_) key.push_back(row[c]);
  return key;
}

std::unique_ptr<Int64HashIndex> Int64HashIndex::Build(const Table& table,
                                                      size_t key_column) {
  GMDJ_CHECK(key_column < table.num_columns());
  const Column& col = table.column(key_column);
  if (col.type() != ValueType::kInt64) return nullptr;
  auto index = std::make_unique<Int64HashIndex>();
  const size_t num_rows = table.num_rows();
  index->map_.reserve(num_rows);
  for (size_t r = 0; r < num_rows; ++r) {
    if (col.is_null(r)) continue;
    index->map_[col.i64(r)].push_back(static_cast<uint32_t>(r));
  }
  return index;
}

}  // namespace gmdj
