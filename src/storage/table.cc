#include "storage/table.h"

#include <algorithm>
#include <numeric>

#include "common/check.h"
#include "common/str_util.h"

namespace gmdj {

Table::Table(Schema schema) : schema_(std::move(schema)) {
  cols_.reserve(schema_.num_fields());
  for (const Field& field : schema_.fields()) {
    cols_.push_back(std::make_shared<Column>(field.type));
  }
}

Result<Table> Table::FromColumns(Schema schema, std::vector<Column> columns) {
  if (columns.size() != schema.num_fields()) {
    return Status::InvalidArgument("table has " +
                                   std::to_string(schema.num_fields()) +
                                   " fields but " +
                                   std::to_string(columns.size()) + " columns");
  }
  Table out;
  out.schema_ = std::move(schema);
  out.num_rows_ = columns.empty() ? 0 : columns[0].size();
  for (size_t c = 0; c < columns.size(); ++c) {
    const Field& field = out.schema_.field(c);
    if (columns[c].type() != field.type ||
        columns[c].size() != out.num_rows_) {
      return Status::InvalidArgument("column " + field.QualifiedName() +
                                     " does not match its field");
    }
    out.cols_.push_back(std::make_shared<Column>(std::move(columns[c])));
  }
  return out;
}

void Table::SetSchema(Schema schema) {
  GMDJ_CHECK(schema.num_fields() == schema_.num_fields());
  for (size_t c = 0; c < schema.num_fields(); ++c) {
    GMDJ_CHECK(schema.field(c).type == schema_.field(c).type);
  }
  ++version_;
  schema_ = std::move(schema);
}

Column* Table::MutableColumn(size_t c) {
  if (cols_[c].use_count() != 1) {
    cols_[c] = std::make_shared<Column>(*cols_[c]);
  }
  // Every column is created mutable; sharing is what makes it read-only.
  return const_cast<Column*>(cols_[c].get());
}

Row Table::row(size_t i) const {
  Row out;
  out.reserve(cols_.size());
  for (const auto& col : cols_) out.push_back(col->Get(i));
  return out;
}

Status Table::CheckRow(const Row& row) const {
  if (row.size() != schema_.num_fields()) {
    return Status::InvalidArgument(
        "row has " + std::to_string(row.size()) + " values, table has " +
        std::to_string(schema_.num_fields()) + " columns");
  }
  for (size_t c = 0; c < row.size(); ++c) {
    if (!cols_[c]->Accepts(row[c])) {
      return RefusedCell(schema_.field(c).QualifiedName(), cols_[c]->type(),
                         row[c]);
    }
  }
  return Status::OK();
}

Status Table::AppendRow(Row row) {
  GMDJ_RETURN_IF_ERROR(CheckRow(row));
  ++version_;
  for (size_t c = 0; c < row.size(); ++c) {
    Column* col = MutableColumn(c);
    col->Reserve(num_rows_ + 1);
    col->Append(std::move(row[c]));
  }
  ++num_rows_;
  return Status::OK();
}

Status Table::AppendRow(std::initializer_list<Value> values) {
  if (values.size() != schema_.num_fields()) {
    return CheckRow(Row(values));
  }
  size_t c = 0;
  for (const Value& v : values) {
    if (!cols_[c]->Accepts(v)) {
      return RefusedCell(schema_.field(c).QualifiedName(), cols_[c]->type(),
                         v);
    }
    ++c;
  }
  ++version_;
  c = 0;
  for (const Value& v : values) {
    Column* col = MutableColumn(c++);
    col->Reserve(num_rows_ + 1);
    col->Append(v);
  }
  ++num_rows_;
  return Status::OK();
}

Status Table::AppendRows(std::vector<Row> rows) {
  for (const Row& row : rows) GMDJ_RETURN_IF_ERROR(CheckRow(row));
  Reserve(num_rows_ + rows.size());
  for (size_t c = 0; c < schema_.num_fields(); ++c) {
    Column* col = MutableColumn(c);
    for (Row& row : rows) col->Append(std::move(row[c]));
  }
  num_rows_ += rows.size();
  return Status::OK();
}

Status Table::AppendColumns(std::vector<Column> block) {
  if (block.size() != cols_.size()) {
    return Status::InvalidArgument("column block has the wrong width");
  }
  const size_t n = block.empty() ? 0 : block[0].size();
  for (size_t c = 0; c < block.size(); ++c) {
    if (block[c].type() != cols_[c]->type() || block[c].size() != n) {
      return Status::InvalidArgument("column block does not match column " +
                                     schema_.field(c).QualifiedName());
    }
  }
  ++version_;
  for (size_t c = 0; c < block.size(); ++c) {
    MutableColumn(c)->AppendColumn(std::move(block[c]));
  }
  num_rows_ += n;
  return Status::OK();
}

Status Table::SetCell(size_t row, size_t c, const Value& value) {
  GMDJ_CHECK(row < num_rows_ && c < cols_.size());
  if (!cols_[c]->Accepts(value)) {
    return RefusedCell(schema_.field(c).QualifiedName(), cols_[c]->type(),
                       value);
  }
  ++version_;
  MutableColumn(c)->Set(row, value);
  return Status::OK();
}

void Table::AddColumn(Field field, std::shared_ptr<const Column> column) {
  GMDJ_CHECK(column->type() == field.type);
  GMDJ_CHECK(column->size() == num_rows_ || cols_.empty());
  if (cols_.empty()) num_rows_ = column->size();
  ++version_;
  schema_.AddField(std::move(field));
  cols_.push_back(std::move(column));
}

Table Table::Gather(std::span<const uint32_t> indices) const {
  Table out(schema_);
  for (size_t c = 0; c < cols_.size(); ++c) {
    const_cast<Column*>(out.cols_[c].get())->AppendRows(*cols_[c], indices);
  }
  out.num_rows_ = indices.size();
  return out;
}

Table Table::Slice(size_t begin, size_t end) const {
  GMDJ_CHECK(begin <= end && end <= num_rows_);
  if (begin == 0 && end == num_rows_) return *this;
  std::vector<uint32_t> indices(end - begin);
  std::iota(indices.begin(), indices.end(), static_cast<uint32_t>(begin));
  return Gather(indices);
}

void Table::Reserve(size_t n) {
  ++version_;
  for (size_t c = 0; c < cols_.size(); ++c) MutableColumn(c)->Reserve(n);
}

size_t Table::capacity() const {
  size_t cap = cols_.empty() ? num_rows_ : cols_[0]->capacity();
  for (const auto& col : cols_) cap = std::min(cap, col->capacity());
  return cap;
}

Status Table::Validate() const {
  if (cols_.size() != schema_.num_fields()) {
    return Status::Internal("table has " + std::to_string(cols_.size()) +
                            " columns for " +
                            std::to_string(schema_.num_fields()) + " fields");
  }
  for (size_t c = 0; c < cols_.size(); ++c) {
    if (cols_[c]->type() != schema_.field(c).type) {
      return Status::Internal(
          "column " + schema_.field(c).QualifiedName() + ": expected " +
          ValueTypeToString(schema_.field(c).type) + " got " +
          ValueTypeToString(cols_[c]->type()));
    }
    if (cols_[c]->size() != num_rows_) {
      return Status::Internal("column " + schema_.field(c).QualifiedName() +
                              " has wrong length");
    }
  }
  return Status::OK();
}

void Table::SortRows() {
  std::vector<uint32_t> order(num_rows_);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [this](uint32_t a, uint32_t b) {
    for (const auto& col : cols_) {
      const int c = CompareCells(*col, a, *col, b);
      if (c != 0) return c < 0;
    }
    return false;
  });
  const uint64_t version = version_;
  *this = Gather(order);
  version_ = version + 1;
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
      cells[r][c] = cell(r, c).ToString();
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
