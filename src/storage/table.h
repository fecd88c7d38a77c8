#ifndef GMDJ_STORAGE_TABLE_H_
#define GMDJ_STORAGE_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "storage/column.h"
#include "types/row.h"
#include "types/schema.h"

namespace gmdj {

class Table;

/// Read-only range over a table's rows that materializes one Row per
/// dereference. For tests and tools: operators read cells in place.
class RowRange {
 public:
  class Iterator {
   public:
    using iterator_category = std::input_iterator_tag;
    using value_type = Row;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = Row;

    Iterator(const Table* table, size_t i) : table_(table), i_(i) {}
    Row operator*() const;
    Iterator& operator++() {
      ++i_;
      return *this;
    }
    Iterator operator++(int) {
      Iterator old = *this;
      ++i_;
      return old;
    }
    bool operator==(const Iterator& other) const { return i_ == other.i_; }
    bool operator!=(const Iterator& other) const { return i_ != other.i_; }

   private:
    const Table* table_;
    size_t i_;
  };

  explicit RowRange(const Table* table) : table_(table) {}
  size_t size() const;
  Iterator begin() const { return Iterator(table_, 0); }
  Iterator end() const { return Iterator(table_, size()); }
  operator std::vector<Row>() const {  // NOLINT(runtime/explicit)
    return std::vector<Row>(begin(), end());
  }

 private:
  const Table* table_;
};

/// An in-memory, column-oriented relation: a schema plus one typed Column
/// per field.
///
/// Tables are the unit of exchange between operators; the executor fully
/// materializes intermediate results (OLAP batch style), which keeps the
/// three competing engines in this repository directly comparable and makes
/// the GMDJ's single-scan property easy to observe via ExecStats.
///
/// Columns are shared copy-on-write, each on its own: copying a Table
/// (a scan returning a catalog table, `WithQualifier` renaming) copies
/// column handles only, an operator may reuse its input's columns in its
/// output (the GMDJ appends its aggregate columns to the base columns),
/// and any mutating accessor detaches private copies first.
///
/// Appends are typed (Column::Accepts): NULL, the column's type, or an
/// int64 widened into a double column. Any other value is refused with a
/// typed error and the table is left unchanged, so a column never holds a
/// value of another runtime type and kernels read its payload directly.
///
/// Every mutation path (appends, cell edits, schema renames, sorts) bumps a
/// monotone `version` counter. The MQO aggregate cache (src/mqo/) keys
/// cached GMDJ results on the version of the catalog table they were
/// computed from, so any mutation invalidates dependent entries. The
/// counter is deliberately conservative: `Reserve` and `SortRows` also bump
/// it, which can only cause a spurious recomputation, never a stale hit.
class Table {
 public:
  Table() = default;
  explicit Table(Schema schema);

  /// Assembles a table from finished columns, one per field of `schema`,
  /// of equal length and each of its field's type.
  static Result<Table> FromColumns(Schema schema, std::vector<Column> columns);

  const Schema& schema() const { return schema_; }

  /// Replaces the schema by one of the same width and field types (a
  /// rename: new names or qualifiers).
  void SetSchema(Schema schema);

  /// In-place mutation counter: bumped by every mutating accessor. Copies
  /// inherit the current count and then diverge independently; catalog-
  /// level identity additionally tracks re-registration (Catalog).
  uint64_t version() const { return version_; }

  size_t num_rows() const { return num_rows_; }
  size_t num_columns() const { return schema_.num_fields(); }
  bool empty() const { return num_rows_ == 0; }

  /// Column `c`, read in place.
  const Column& column(size_t c) const { return *cols_[c]; }
  /// Every column's handle, in schema order (stable until AddColumn).
  using ColumnHandle = std::shared_ptr<const Column>;
  const ColumnHandle* columns() const { return cols_.data(); }
  /// Cell (`row`, `c`) as a Value.
  Value cell(size_t row, size_t c) const { return cols_[c]->Get(row); }

  /// Row accessors for tests and tools: each materializes Values.
  Row row(size_t i) const;
  RowRange rows() const { return RowRange(this); }

  /// Whether `row` may be appended: schema width, and every cell accepted
  /// by its column. The error names the column and both types.
  Status CheckRow(const Row& row) const;

  /// Appends a row after CheckRow; a refused row leaves the table as it
  /// was.
  Status AppendRow(Row row);
  Status AppendRow(std::initializer_list<Value> values);

  /// Bulk load: checks every row first, then appends all of them in one
  /// detach/version bump; a refused row appends none.
  Status AppendRows(std::vector<Row> rows);

  /// Appends a block of columns, one per field, each of its field's type
  /// and all of one length.
  Status AppendColumns(std::vector<Column> block);

  /// Overwrites one cell; `value` must be accepted by the column.
  Status SetCell(size_t row, size_t c, const Value& value);

  /// Appends a field whose cells are `column` (of the field's type, with
  /// num_rows() cells), sharing it without a copy.
  void AddColumn(Field field, std::shared_ptr<const Column> column);

  /// Handle to column `c`, for sharing it into another table.
  std::shared_ptr<const Column> shared_column(size_t c) const {
    return cols_[c];
  }

  /// The rows at `indices`, in that order, under the same schema.
  Table Gather(std::span<const uint32_t> indices) const;
  /// Rows [begin, end), under the same schema.
  Table Slice(size_t begin, size_t end) const;

  /// Room for `n` rows without reallocation (geometric growth).
  void Reserve(size_t n);
  /// Rows the columns hold without reallocating (the smallest column's).
  size_t capacity() const;

  /// Copy with every field's qualifier replaced (columns shared).
  /// Mirrors `Flow -> F` renaming in the paper's algebra.
  Table WithQualifier(std::string_view qualifier) const {
    Table out = *this;
    out.schema_ = schema_.WithQualifier(qualifier);
    return out;
  }

  /// Checks the storage invariants: one column per field, each of its
  /// field's type and num_rows() long.
  Status Validate() const;

  /// Sorts rows into the internal total order (canonical form for
  /// order-insensitive result comparison in tests).
  void SortRows();

  /// True if both tables hold the same multiset of rows (column names are
  /// ignored; width must match).
  bool SameRowsAs(const Table& other) const;

  /// ASCII rendering with a header line; `max_rows` truncates output.
  std::string ToString(size_t max_rows = 50) const;

 private:
  /// Private, unshared column `c` (copied first when shared).
  Column* MutableColumn(size_t c);

  Schema schema_;
  std::vector<ColumnHandle> cols_;
  size_t num_rows_ = 0;
  uint64_t version_ = 0;
};

inline Row RowRange::Iterator::operator*() const { return table_->row(i_); }
inline size_t RowRange::size() const { return table_->num_rows(); }

}  // namespace gmdj

#endif  // GMDJ_STORAGE_TABLE_H_
