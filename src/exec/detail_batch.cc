#include "exec/detail_batch.h"

#include <algorithm>

namespace gmdj {

void DetailBatch::Configure(const Schema& schema,
                            const std::vector<uint32_t>& columns) {
  // Dedup + drop out-of-range ids; staging an id twice would just waste
  // decode work.
  std::vector<uint32_t> ids(columns);
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  while (!ids.empty() && ids.back() >= schema.num_fields()) ids.pop_back();

  col_ids_ = std::move(ids);
  cols_.assign(col_ids_.size(), ColumnVector{});
  for (size_t i = 0; i < col_ids_.size(); ++i) {
    cols_[i].type = schema.field(col_ids_[i]).type;
  }
  ptrs_.assign(schema.num_fields(), nullptr);
  num_rows_ = 0;
}

void DetailBatch::Stage(const Table& table, size_t begin, size_t count) {
  num_rows_ = count;
  for (ColumnVector& cv : cols_) {
    cv.clean = true;
    cv.null.resize(count);
    switch (cv.type) {
      case ValueType::kInt64:
        cv.i64.resize(count);
        break;
      case ValueType::kDouble:
        cv.dbl.resize(count);
        break;
      default:
        cv.str.resize(count);
        break;
    }
  }
  // Row-major: each detail row (a separate allocation) is visited once
  // for all staged columns, and the cells a few rows ahead are prefetched:
  // the loop is bound by the latency of those scattered loads.
  constexpr size_t kPrefetchRows = 8;
  const Row* rows = table.rows().data() + begin;
  for (size_t r = 0; r < count; ++r) {
    if (r + kPrefetchRows < count) {
      const Value* ahead = rows[r + kPrefetchRows].data();
      for (const uint32_t c : col_ids_) __builtin_prefetch(ahead + c);
    }
    const Value* row = rows[r].data();
    for (size_t i = 0; i < cols_.size(); ++i) {
      ColumnVector& cv = cols_[i];
      if (!cv.clean) continue;
      const Value& v = row[col_ids_[i]];
      if (v.is_null()) {
        cv.null[r] = 1;
        continue;
      }
      cv.null[r] = 0;
      if (v.type() != cv.type) {
        // Runtime type drift: this column cannot be trusted with typed
        // loads. Unpublish it; consumers use the row-wise path instead.
        cv.clean = false;
        continue;
      }
      switch (cv.type) {
        case ValueType::kInt64:
          cv.i64[r] = v.int64();
          break;
        case ValueType::kDouble:
          cv.dbl[r] = v.dbl();
          break;
        default:
          cv.str[r] = &v.str();
          break;
      }
    }
  }
  for (size_t i = 0; i < cols_.size(); ++i) {
    ptrs_[col_ids_[i]] = cols_[i].clean ? &cols_[i] : nullptr;
  }
}

}  // namespace gmdj
