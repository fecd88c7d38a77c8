#include "exec/group_aggregate.h"

#include <unordered_map>

#include "common/fault_injection.h"

namespace gmdj {

GroupAggregateNode::GroupAggregateNode(PlanPtr input,
                                       std::vector<GroupItem> group_by,
                                       std::vector<AggSpec> aggs)
    : input_(std::move(input)),
      group_by_(std::move(group_by)),
      aggs_(std::move(aggs)) {}

Status GroupAggregateNode::Prepare(const Catalog& catalog) {
  GMDJ_RETURN_IF_ERROR(input_->Prepare(catalog));
  const Schema& in = input_->output_schema();
  output_schema_ = Schema();
  for (GroupItem& item : group_by_) {
    GMDJ_RETURN_IF_ERROR(item.expr->Bind({&in}));
    output_schema_.AddField(Field{item.name, item.expr->result_type(), ""});
  }
  agg_arg_types_.clear();
  for (AggSpec& agg : aggs_) {
    GMDJ_RETURN_IF_ERROR(agg.Bind({&in}));
    agg_arg_types_.push_back(agg.arg != nullptr ? agg.arg->result_type()
                                                : ValueType::kInt64);
    output_schema_.AddField(Field{agg.output_name, agg.output_type(), ""});
  }
  return Status::OK();
}

Result<Table> GroupAggregateNode::Execute(ExecContext* ctx) const {
  OpScope scope(ctx, this, label());
  GMDJ_ASSIGN_OR_RETURN(Table in, input_->Execute(ctx));
  scope.AddRowsIn(in.num_rows());
  scope.AddBatches(1);
  ctx->stats().table_scans += 1;
  ctx->stats().rows_scanned += in.num_rows();

  EvalContext ectx;
  ectx.PushFrame(&in);

  // Group key -> aggregate states, in first-seen order for determinism.
  std::unordered_map<Row, size_t, RowHash, RowEq> group_of;
  std::vector<Row> group_keys;
  std::vector<std::vector<AggState>> states;

  if (group_by_.empty()) {
    // Scalar aggregation: exactly one group, present even for empty input.
    group_keys.emplace_back();
    states.emplace_back(aggs_.size());
  }

  GMDJ_RETURN_IF_ERROR(GMDJ_FAULT_POINT("groupagg/scan"));
  for (size_t r = 0; r < in.num_rows(); ++r) {
    if ((r & 4095u) == 0) GMDJ_RETURN_IF_ERROR(ctx->PollQuery());
    ectx.SetTopRow(r);
    size_t group;
    if (group_by_.empty()) {
      group = 0;
    } else {
      Row key;
      key.reserve(group_by_.size());
      for (const GroupItem& item : group_by_) {
        key.push_back(item.expr->Eval(ectx));
      }
      ctx->stats().hash_probes += 1;
      const auto [it, inserted] = group_of.try_emplace(key, group_keys.size());
      if (inserted) {
        group_keys.push_back(std::move(key));
        states.emplace_back(aggs_.size());
      }
      group = it->second;
    }
    std::vector<AggState>& group_states = states[group];
    for (size_t a = 0; a < aggs_.size(); ++a) {
      const AggSpec& agg = aggs_[a];
      if (agg.kind == AggKind::kCountStar) {
        group_states[a].Update(agg.kind, Value());
      } else {
        group_states[a].Update(agg.kind, agg.arg->Eval(ectx));
      }
    }
  }

  Table out(output_schema_);
  out.Reserve(group_keys.size());
  for (size_t g = 0; g < group_keys.size(); ++g) {
    Row row = group_keys[g];
    row.reserve(row.size() + aggs_.size());
    for (size_t a = 0; a < aggs_.size(); ++a) {
      row.push_back(states[g][a].Finalize(aggs_[a].kind, agg_arg_types_[a]));
    }
    GMDJ_RETURN_IF_ERROR(out.AppendRow(std::move(row)));
  }
  ctx->stats().rows_output += out.num_rows();
  scope.AddRowsOut(out.num_rows());
  return out;
}

std::string GroupAggregateNode::label() const {
  std::string out = "GroupAggregate[by: ";
  for (size_t i = 0; i < group_by_.size(); ++i) {
    if (i > 0) out += ", ";
    out += group_by_[i].expr->ToString();
  }
  out += "; aggs: ";
  for (size_t i = 0; i < aggs_.size(); ++i) {
    if (i > 0) out += ", ";
    out += aggs_[i].ToString();
  }
  out += "]";
  return out;
}

}  // namespace gmdj
