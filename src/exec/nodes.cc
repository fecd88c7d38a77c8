#include "exec/nodes.h"

#include <algorithm>
#include <unordered_set>

#include "common/check.h"

namespace gmdj {

// ---------------------------------------------------------------- TableScan

TableScanNode::TableScanNode(std::string table_name, std::string alias)
    : table_name_(std::move(table_name)), alias_(std::move(alias)) {}

Status TableScanNode::Prepare(const Catalog& catalog) {
  GMDJ_ASSIGN_OR_RETURN(table_, catalog.GetTable(table_name_));
  output_schema_ =
      alias_.empty() ? table_->schema() : table_->schema().WithQualifier(alias_);
  return Status::OK();
}

Result<Table> TableScanNode::Execute(ExecContext* ctx) const {
  OpScope scope(ctx, this, label());
  GMDJ_CHECK(table_ != nullptr);
  Table out = *table_;  // Scan is O(1); consumers account for the pass.
  out.SetSchema(output_schema_);
  scope.AddRowsOut(out.num_rows());
  scope.AddBatches(1);
  return out;
}

std::string TableScanNode::label() const {
  std::string out = "TableScan(" + table_name_;
  if (!alias_.empty()) out += " -> " + alias_;
  out += ")";
  return out;
}

// ------------------------------------------------------------------- Values

ValuesNode::ValuesNode(Table table) : table_(std::move(table)) {}

Status ValuesNode::Prepare(const Catalog& catalog) {
  (void)catalog;
  output_schema_ = table_.schema();
  return Status::OK();
}

Result<Table> ValuesNode::Execute(ExecContext* ctx) const {
  OpScope scope(ctx, this, label());
  scope.AddRowsOut(table_.num_rows());
  scope.AddBatches(1);
  return table_;
}

std::string ValuesNode::label() const {
  return "Values(" + std::to_string(table_.num_rows()) + " rows)";
}

// ------------------------------------------------------------------- Filter

FilterNode::FilterNode(PlanPtr input, ExprPtr predicate)
    : input_(std::move(input)), predicate_(std::move(predicate)) {}

Status FilterNode::Prepare(const Catalog& catalog) {
  GMDJ_RETURN_IF_ERROR(input_->Prepare(catalog));
  output_schema_ = input_->output_schema();
  return predicate_->Bind({&output_schema_});
}

Result<Table> FilterNode::Execute(ExecContext* ctx) const {
  OpScope scope(ctx, this, label());
  GMDJ_ASSIGN_OR_RETURN(Table in, input_->Execute(ctx));
  scope.AddRowsIn(in.num_rows());
  scope.AddBatches(1);
  EvalContext ectx;
  ectx.PushFrame(&in);
  ctx->stats().table_scans += 1;
  ctx->stats().rows_scanned += in.num_rows();
  std::vector<uint32_t> keep;
  for (size_t r = 0; r < in.num_rows(); ++r) {
    ectx.SetTopRow(r);
    ctx->stats().predicate_evals += 1;
    if (IsTrue(predicate_->EvalPred(ectx))) {
      keep.push_back(static_cast<uint32_t>(r));
    }
  }
  Table out = keep.size() == in.num_rows() ? in : in.Gather(keep);
  out.SetSchema(output_schema_);
  ctx->stats().rows_output += out.num_rows();
  scope.AddRowsOut(out.num_rows());
  return out;
}

std::string FilterNode::label() const {
  return "Filter[" + predicate_->ToString() + "]";
}

// ------------------------------------------------------------------ Project

ProjectNode::ProjectNode(PlanPtr input, std::vector<ProjItem> items)
    : input_(std::move(input)), items_(std::move(items)) {}

Status ProjectNode::Prepare(const Catalog& catalog) {
  GMDJ_RETURN_IF_ERROR(input_->Prepare(catalog));
  const Schema& in = input_->output_schema();
  if (items_.empty()) {
    return Status::InvalidArgument("projection has no items");
  }
  output_schema_ = Schema();
  for (ProjItem& item : items_) {
    GMDJ_RETURN_IF_ERROR(item.expr->Bind({&in}));
    output_schema_.AddField(
        Field{item.name, item.expr->result_type(), item.qualifier});
  }
  return Status::OK();
}

Result<Table> ProjectNode::Execute(ExecContext* ctx) const {
  OpScope scope(ctx, this, label());
  GMDJ_ASSIGN_OR_RETURN(Table in, input_->Execute(ctx));
  scope.AddRowsIn(in.num_rows());
  scope.AddBatches(1);
  // A bare column reference shares the input column; any other item is
  // evaluated into a new column of its static type.
  Table out;
  EvalContext ectx;
  ectx.PushFrame(&in);
  ctx->stats().table_scans += 1;
  ctx->stats().rows_scanned += in.num_rows();
  for (size_t i = 0; i < items_.size(); ++i) {
    const Expr& expr = *items_[i].expr;
    const Field& field = output_schema_.field(i);
    if (expr.kind() == ExprKind::kColumnRef) {
      const auto& ref = static_cast<const ColumnRefExpr&>(expr);
      out.AddColumn(field, in.shared_column(ref.bound_column()));
      continue;
    }
    auto col = std::make_shared<Column>(field.type);
    col->Reserve(in.num_rows());
    for (size_t r = 0; r < in.num_rows(); ++r) {
      ectx.SetTopRow(r);
      GMDJ_RETURN_IF_ERROR(
          AppendCell(field.QualifiedName(), expr.Eval(ectx), col.get()));
    }
    out.AddColumn(field, std::move(col));
  }
  ctx->stats().rows_output += out.num_rows();
  scope.AddRowsOut(out.num_rows());
  return out;
}

std::string ProjectNode::label() const {
  std::string out = "Project[";
  for (size_t i = 0; i < items_.size(); ++i) {
    if (i > 0) out += ", ";
    out += items_[i].expr->ToString() + " -> " + items_[i].name;
  }
  out += "]";
  return out;
}

// ----------------------------------------------------------------- Distinct

DistinctNode::DistinctNode(PlanPtr input) : input_(std::move(input)) {}

Status DistinctNode::Prepare(const Catalog& catalog) {
  GMDJ_RETURN_IF_ERROR(input_->Prepare(catalog));
  output_schema_ = input_->output_schema();
  return Status::OK();
}

Result<Table> DistinctNode::Execute(ExecContext* ctx) const {
  OpScope scope(ctx, this, label());
  GMDJ_ASSIGN_OR_RETURN(Table in, input_->Execute(ctx));
  scope.AddRowsIn(in.num_rows());
  scope.AddBatches(1);
  std::unordered_set<Row, RowHash, RowEq> seen;
  seen.reserve(in.num_rows());
  ctx->stats().table_scans += 1;
  ctx->stats().rows_scanned += in.num_rows();
  std::vector<uint32_t> keep;
  for (size_t r = 0; r < in.num_rows(); ++r) {
    if (seen.insert(in.row(r)).second) keep.push_back(static_cast<uint32_t>(r));
  }
  Table out = in.Gather(keep);
  out.SetSchema(output_schema_);
  ctx->stats().rows_output += out.num_rows();
  scope.AddRowsOut(out.num_rows());
  return out;
}

std::string DistinctNode::label() const { return "Distinct"; }

// ----------------------------------------------------------------- UnionAll

UnionAllNode::UnionAllNode(PlanPtr left, PlanPtr right)
    : left_(std::move(left)), right_(std::move(right)) {}

Status UnionAllNode::Prepare(const Catalog& catalog) {
  GMDJ_RETURN_IF_ERROR(left_->Prepare(catalog));
  GMDJ_RETURN_IF_ERROR(right_->Prepare(catalog));
  const Schema& ls = left_->output_schema();
  const Schema& rs = right_->output_schema();
  if (ls.num_fields() != rs.num_fields()) {
    return Status::InvalidArgument("UNION ALL inputs have different widths");
  }
  // Each output column takes the type both inputs fit: a NULL-typed side
  // takes the other's, and int64 widens to double.
  output_schema_ = Schema();
  for (size_t c = 0; c < ls.num_fields(); ++c) {
    Field field = ls.field(c);
    const ValueType r = rs.field(c).type;
    if (field.type == ValueType::kNull ||
        (field.type == ValueType::kInt64 && r == ValueType::kDouble)) {
      field.type = r;
    }
    output_schema_.AddField(std::move(field));
  }
  return Status::OK();
}

Result<Table> UnionAllNode::Execute(ExecContext* ctx) const {
  OpScope scope(ctx, this, label());
  GMDJ_ASSIGN_OR_RETURN(Table l, left_->Execute(ctx));
  GMDJ_ASSIGN_OR_RETURN(Table r, right_->Execute(ctx));
  scope.AddRowsIn(l.num_rows() + r.num_rows());
  scope.AddBatches(2);
  Table out(output_schema_);
  out.Reserve(l.num_rows() + r.num_rows());
  for (const Table* in : {&l, &r}) {
    for (size_t i = 0; i < in->num_rows(); ++i) {
      GMDJ_RETURN_IF_ERROR(out.AppendRow(in->row(i)));
    }
  }
  ctx->stats().rows_output += out.num_rows();
  scope.AddRowsOut(out.num_rows());
  return out;
}

std::string UnionAllNode::label() const { return "UnionAll"; }

// ------------------------------------------------------------------- Except

ExceptNode::ExceptNode(PlanPtr left, PlanPtr right)
    : left_(std::move(left)), right_(std::move(right)) {}

Status ExceptNode::Prepare(const Catalog& catalog) {
  GMDJ_RETURN_IF_ERROR(left_->Prepare(catalog));
  GMDJ_RETURN_IF_ERROR(right_->Prepare(catalog));
  if (left_->output_schema().num_fields() !=
      right_->output_schema().num_fields()) {
    return Status::InvalidArgument("EXCEPT inputs have different widths");
  }
  output_schema_ = left_->output_schema();
  return Status::OK();
}

Result<Table> ExceptNode::Execute(ExecContext* ctx) const {
  OpScope scope(ctx, this, label());
  GMDJ_ASSIGN_OR_RETURN(Table l, left_->Execute(ctx));
  GMDJ_ASSIGN_OR_RETURN(Table r, right_->Execute(ctx));
  scope.AddRowsIn(l.num_rows() + r.num_rows());
  scope.AddBatches(2);
  const RowRange right_rows = r.rows();
  std::unordered_set<Row, RowHash, RowEq> removed(right_rows.begin(),
                                                  right_rows.end());
  std::unordered_set<Row, RowHash, RowEq> emitted;
  ctx->stats().table_scans += 2;
  ctx->stats().rows_scanned += l.num_rows() + r.num_rows();
  std::vector<uint32_t> keep;
  for (size_t i = 0; i < l.num_rows(); ++i) {
    Row row = l.row(i);
    if (removed.count(row) > 0) continue;
    if (emitted.insert(std::move(row)).second) {
      keep.push_back(static_cast<uint32_t>(i));
    }
  }
  Table out = l.Gather(keep);
  out.SetSchema(output_schema_);
  ctx->stats().rows_output += out.num_rows();
  scope.AddRowsOut(out.num_rows());
  return out;
}

std::string ExceptNode::label() const { return "Except"; }

// ------------------------------------------------------------------- Assert

AssertNode::AssertNode(PlanPtr input, ExprPtr predicate, std::string message)
    : input_(std::move(input)),
      predicate_(std::move(predicate)),
      message_(std::move(message)) {}

Status AssertNode::Prepare(const Catalog& catalog) {
  GMDJ_RETURN_IF_ERROR(input_->Prepare(catalog));
  output_schema_ = input_->output_schema();
  return predicate_->Bind({&output_schema_});
}

Result<Table> AssertNode::Execute(ExecContext* ctx) const {
  OpScope scope(ctx, this, label());
  GMDJ_ASSIGN_OR_RETURN(Table in, input_->Execute(ctx));
  scope.AddRowsIn(in.num_rows());
  scope.AddRowsOut(in.num_rows());
  scope.AddBatches(1);
  EvalContext ectx;
  ectx.PushFrame(&in);
  for (size_t r = 0; r < in.num_rows(); ++r) {
    ectx.SetTopRow(r);
    if (!IsTrue(predicate_->EvalPred(ectx))) {
      return Status::RuntimeError(message_);
    }
  }
  return in;
}

std::string AssertNode::label() const {
  return "Assert[" + predicate_->ToString() + "]";
}

// -------------------------------------------------------------- AttachRowId

AttachRowIdNode::AttachRowIdNode(PlanPtr input, std::string col_name)
    : input_(std::move(input)), col_name_(std::move(col_name)) {}

Status AttachRowIdNode::Prepare(const Catalog& catalog) {
  GMDJ_RETURN_IF_ERROR(input_->Prepare(catalog));
  output_schema_ = input_->output_schema();
  output_schema_.AddField(Field{col_name_, ValueType::kInt64, ""});
  return Status::OK();
}

Result<Table> AttachRowIdNode::Execute(ExecContext* ctx) const {
  OpScope scope(ctx, this, label());
  GMDJ_ASSIGN_OR_RETURN(Table in, input_->Execute(ctx));
  scope.AddRowsIn(in.num_rows());
  scope.AddBatches(1);
  auto ids = std::make_shared<Column>(ValueType::kInt64);
  ids->Reserve(in.num_rows());
  for (size_t i = 0; i < in.num_rows(); ++i) {
    ids->Append(Value(static_cast<int64_t>(i)));
  }
  Table out = in;
  out.SetSchema(input_->output_schema());
  out.AddColumn(output_schema_.fields().back(), std::move(ids));
  ctx->stats().rows_output += out.num_rows();
  scope.AddRowsOut(out.num_rows());
  return out;
}

std::string AttachRowIdNode::label() const {
  return "AttachRowId(" + col_name_ + ")";
}

// --------------------------------------------------------------------- Sort

SortNode::SortNode(PlanPtr input, std::vector<std::string> sort_cols)
    : input_(std::move(input)), sort_cols_(std::move(sort_cols)) {}

Status SortNode::Prepare(const Catalog& catalog) {
  GMDJ_RETURN_IF_ERROR(input_->Prepare(catalog));
  output_schema_ = input_->output_schema();
  sort_indices_.clear();
  for (const std::string& col : sort_cols_) {
    GMDJ_ASSIGN_OR_RETURN(const size_t idx, output_schema_.Resolve(col));
    sort_indices_.push_back(idx);
  }
  return Status::OK();
}

Result<Table> SortNode::Execute(ExecContext* ctx) const {
  OpScope scope(ctx, this, label());
  GMDJ_ASSIGN_OR_RETURN(Table in, input_->Execute(ctx));
  scope.AddRowsIn(in.num_rows());
  scope.AddRowsOut(in.num_rows());
  scope.AddBatches(1);
  std::vector<uint32_t> order(in.num_rows());
  for (uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    for (const size_t idx : sort_indices_) {
      const Column& col = in.column(idx);
      const int c = CompareCells(col, a, col, b);
      if (c != 0) return c < 0;
    }
    return false;
  });
  ctx->stats().rows_output += in.num_rows();
  return in.Gather(order);
}

std::string SortNode::label() const {
  std::string out = "Sort[";
  for (size_t i = 0; i < sort_cols_.size(); ++i) {
    if (i > 0) out += ", ";
    out += sort_cols_[i];
  }
  out += "]";
  return out;
}

}  // namespace gmdj
