#include "storage/table.h"

#include <algorithm>

#include "common/check.h"
#include "common/str_util.h"

namespace gmdj {

void Table::AppendRow(Row row) {
  GMDJ_DCHECK(row.size() == schema_.num_fields());
  mutable_rows()->push_back(std::move(row));
}

void Table::AppendRow(std::initializer_list<Value> values) {
  AppendRow(Row(values));
}

void Table::AppendRows(std::vector<Row> rows) {
  auto* dst = mutable_rows();
  // Grow geometrically: reserving the exact size would reallocate (and
  // move every row) on each small append.
  const size_t needed = dst->size() + rows.size();
  if (needed > dst->capacity()) {
    dst->reserve(std::max(needed, 2 * dst->capacity()));
  }
  for (Row& row : rows) {
    GMDJ_DCHECK(row.size() == schema_.num_fields());
    dst->push_back(std::move(row));
  }
}

Status Table::Validate() const {
  for (size_t r = 0; r < num_rows(); ++r) {
    const Row& rw = row(r);
    if (rw.size() != schema_.num_fields()) {
      return Status::Internal("row " + std::to_string(r) +
                              " has wrong arity");
    }
    for (size_t c = 0; c < rw.size(); ++c) {
      if (rw[c].is_null()) continue;
      if (rw[c].type() != schema_.field(c).type) {
        return Status::Internal(
            "row " + std::to_string(r) + " column " +
            schema_.field(c).QualifiedName() + ": expected " +
            ValueTypeToString(schema_.field(c).type) + " got " +
            ValueTypeToString(rw[c].type()));
      }
    }
  }
  return Status::OK();
}

void Table::SortRows() {
  auto* rows = mutable_rows();
  std::sort(rows->begin(), rows->end(), RowLess());
}

bool Table::SameRowsAs(const Table& other) const {
  if (num_rows() != other.num_rows()) return false;
  if (num_columns() != other.num_columns()) return false;
  std::vector<Row> a = rows();
  std::vector<Row> b = other.rows();
  std::sort(a.begin(), a.end(), RowLess());
  std::sort(b.begin(), b.end(), RowLess());
  RowEq eq;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!eq(a[i], b[i])) return false;
  }
  return true;
}

std::string Table::ToString(size_t max_rows) const {
  const size_t shown = std::min(max_rows, num_rows());
  std::vector<size_t> widths(schema_.num_fields());
  std::vector<std::string> header(schema_.num_fields());
  for (size_t c = 0; c < schema_.num_fields(); ++c) {
    header[c] = schema_.field(c).QualifiedName();
    widths[c] = header[c].size();
  }
  std::vector<std::vector<std::string>> cells(shown);
  for (size_t r = 0; r < shown; ++r) {
    cells[r].resize(schema_.num_fields());
    for (size_t c = 0; c < schema_.num_fields(); ++c) {
      cells[r][c] = row(r)[c].ToString();
      widths[c] = std::max(widths[c], cells[r][c].size());
    }
  }
  std::string out;
  for (size_t c = 0; c < header.size(); ++c) {
    out += (c ? " | " : "| ") + PadRight(header[c], widths[c]);
  }
  out += " |\n";
  for (size_t c = 0; c < header.size(); ++c) {
    out += (c ? "-+-" : "+-") + std::string(widths[c], '-');
  }
  out += "-+\n";
  for (size_t r = 0; r < shown; ++r) {
    for (size_t c = 0; c < header.size(); ++c) {
      out += (c ? " | " : "| ") + PadRight(cells[r][c], widths[c]);
    }
    out += " |\n";
  }
  if (shown < num_rows()) {
    out += "... (" + std::to_string(num_rows() - shown) + " more rows)\n";
  }
  return out;
}

}  // namespace gmdj
