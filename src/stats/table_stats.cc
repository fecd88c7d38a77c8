#include "stats/table_stats.h"

#include <algorithm>
#include <sstream>

namespace gmdj {
namespace stats {
namespace {

/// Folds cells [first_row, end) of `cells` into `col`, in place.
void FoldColumn(const Column& cells, size_t first_row, ColumnStats* col) {
  const bool numeric = cells.type() == ValueType::kInt64 ||
                       cells.type() == ValueType::kDouble;
  for (size_t r = first_row; r < cells.size(); ++r) {
    ++col->num_values;
    if (cells.is_null(r)) {
      ++col->num_nulls;
      continue;
    }
    col->ndv_sketch.AddValueHash(CellHash(cells, r));
    if (!numeric) continue;
    const double v = cells.type() == ValueType::kInt64
                         ? static_cast<double>(cells.i64(r))
                         : cells.dbl(r);
    if (!col->has_minmax) {
      col->has_minmax = true;
      col->min_value = col->max_value = v;
    } else {
      col->min_value = std::min(col->min_value, v);
      col->max_value = std::max(col->max_value, v);
    }
  }
}

}  // namespace

double ColumnStats::Ndv() const {
  if (num_values == num_nulls) return num_values == 0 ? 0.0 : 1.0;
  const double estimate = ndv_sketch.Estimate();
  const double non_null = static_cast<double>(num_values - num_nulls);
  // The sketch can only over- or under-shoot within its error bound; clamp
  // to [1, non-null count] so selectivity formulas stay sane.
  return std::max(1.0, std::min(estimate, non_null));
}

TableStats CollectTableStats(const std::string& name, const Table& table,
                             const TableVersion& version) {
  TableStats tstats;
  tstats.table_name = name;
  tstats.columns.resize(table.num_columns());
  UpdateTableStats(table, 0, version, &tstats);
  return tstats;
}

void UpdateTableStats(const Table& table, size_t first_row,
                      const TableVersion& version, TableStats* tstats) {
  tstats->columns.resize(table.num_columns());
  for (size_t c = 0; c < table.num_columns(); ++c) {
    FoldColumn(table.column(c), first_row, &tstats->columns[c]);
  }
  tstats->row_count = table.num_rows();
  tstats->version = version;
}

std::string TableStats::ToString() const {
  std::ostringstream out;
  out << table_name << ": " << row_count << " rows";
  for (size_t c = 0; c < columns.size(); ++c) {
    const ColumnStats& col = columns[c];
    out << "\n  col[" << c << "] ndv=" << static_cast<uint64_t>(col.Ndv())
        << " nulls=" << col.num_nulls;
    if (col.has_minmax) {
      out << " min=" << col.min_value << " max=" << col.max_value;
    }
  }
  return out.str();
}

}  // namespace stats
}  // namespace gmdj
