#include "exec/join.h"

#include <algorithm>
#include <unordered_map>

#include "common/check.h"
#include "common/fault_injection.h"
#include "exec/range_spill.h"

namespace gmdj {

const char* JoinKindToString(JoinKind kind) {
  switch (kind) {
    case JoinKind::kInner:
      return "Inner";
    case JoinKind::kLeftOuter:
      return "LeftOuter";
    case JoinKind::kSemi:
      return "Semi";
    case JoinKind::kAnti:
      return "Anti";
  }
  return "?";
}

Table JoinedRows(const Schema& schema, const Table& left,
                 std::span<const uint32_t> li, const Table& right,
                 std::span<const uint32_t> ri) {
  GMDJ_CHECK(li.size() == ri.size());
  std::vector<Column> cols;
  cols.reserve(schema.num_fields());
  static_assert(kNoMatch == Column::kNullRow);
  for (size_t c = 0; c < left.num_columns(); ++c) {
    const Column& src = left.column(c);
    cols.emplace_back(src.type()).AppendRows(src, li);
  }
  for (size_t c = 0; c < right.num_columns(); ++c) {
    const Column& src = right.column(c);
    cols.emplace_back(src.type()).AppendRows(src, ri);  // kNoMatch: NULL.
  }
  Result<Table> out = Table::FromColumns(schema, std::move(cols));
  GMDJ_CHECK(out.ok());
  return std::move(out).ValueOrDie();
}

namespace {

/// The output of a join given its matches: inner and left-outer joins
/// concatenate the pairs (`ri` = kNoMatch pads with NULLs), semi- and
/// anti-joins keep the left rows `li`.
Table JoinOutput(JoinKind kind, const Schema& schema, const Table& l,
                 const std::vector<uint32_t>& li, const Table& r,
                 const std::vector<uint32_t>& ri) {
  if (kind == JoinKind::kInner || kind == JoinKind::kLeftOuter) {
    return JoinedRows(schema, l, li, r, ri);
  }
  Table out = l.Gather(li);
  out.SetSchema(schema);
  return out;
}

}  // namespace

// ----------------------------------------------------------------- HashJoin

HashJoinNode::HashJoinNode(PlanPtr left, PlanPtr right, JoinKind kind,
                           std::vector<JoinKey> keys, ExprPtr residual)
    : left_(std::move(left)),
      right_(std::move(right)),
      kind_(kind),
      keys_(std::move(keys)),
      residual_(std::move(residual)) {
  GMDJ_CHECK(!keys_.empty());
}

Status HashJoinNode::Prepare(const Catalog& catalog) {
  GMDJ_RETURN_IF_ERROR(left_->Prepare(catalog));
  GMDJ_RETURN_IF_ERROR(right_->Prepare(catalog));
  const Schema& ls = left_->output_schema();
  const Schema& rs = right_->output_schema();
  for (JoinKey& key : keys_) {
    GMDJ_RETURN_IF_ERROR(key.left->Bind({&ls}));
    GMDJ_RETURN_IF_ERROR(key.right->Bind({&rs}));
  }
  if (residual_ != nullptr) {
    GMDJ_RETURN_IF_ERROR(residual_->Bind({&ls, &rs}));
  }
  switch (kind_) {
    case JoinKind::kInner:
    case JoinKind::kLeftOuter:
      output_schema_ = ls.Concat(rs);
      break;
    case JoinKind::kSemi:
    case JoinKind::kAnti:
      output_schema_ = ls;
      break;
  }
  return Status::OK();
}

Result<Table> HashJoinNode::Execute(ExecContext* ctx) const {
  OpScope scope(ctx, this, label());
  GMDJ_ASSIGN_OR_RETURN(Table l, left_->Execute(ctx));
  GMDJ_ASSIGN_OR_RETURN(Table r, right_->Execute(ctx));
  scope.AddRowsIn(l.num_rows() + r.num_rows());
  scope.AddBatches(2);
  ctx->stats().joins += 1;
  ctx->stats().table_scans += 2;
  ctx->stats().rows_scanned += l.num_rows() + r.num_rows();

  // Build side: the right input, one hash table per build range
  // (exec/range_spill.h). Every range probes the whole left input, so per
  // probe row the matches come out in build-row order across ranges.
  GMDJ_RETURN_IF_ERROR(GMDJ_FAULT_POINT("join/build"));
  const size_t nl = l.num_rows();
  // Matches per probe row, across ranges: all semi/anti need, and what
  // places each probe row's pairs (and left-outer NULL padding) in order.
  std::vector<uint32_t> matches(nl, 0);
  RangeSpill ranges(ctx, &scope, "join", "build", r.num_rows(), nl);
  GMDJ_ASSIGN_OR_RETURN(
      std::optional<JoinPairs> resident,
      ranges.Run<JoinPairs>(
          [&](size_t lo, size_t hi) {
            return BuildAndProbe(ctx, l, r, lo, hi, &matches);
          },
          [&](const JoinPairs& pairs) {
            return EmitsPairs() ? ranges.Write(pairs.ToTable()) : Status::OK();
          }));

  std::vector<uint32_t> out_l, out_r;  // Output pairs (or kept left rows).
  if (!EmitsPairs()) {
    for (size_t i = 0; i < nl; ++i) {
      if ((matches[i] > 0) == (kind_ == JoinKind::kSemi)) {
        out_l.push_back(static_cast<uint32_t>(i));
      }
    }
  } else {
    // Each probe row's slots: its matches, or one NULL-padded slot for an
    // unmatched left-outer row. Pairs land in their row's slots in the
    // order they were staged, which is build-row order.
    std::vector<size_t> next(nl + 1, 0);
    for (size_t i = 0; i < nl; ++i) {
      const size_t width = matches[i] > 0 ? matches[i]
                           : kind_ == JoinKind::kLeftOuter ? 1
                                                            : 0;
      next[i + 1] = next[i] + width;
    }
    out_l.resize(next[nl]);
    out_r.assign(next[nl], kNoMatch);
    for (size_t i = 0; i < nl; ++i) {
      std::fill(out_l.begin() + next[i], out_l.begin() + next[i + 1],
                static_cast<uint32_t>(i));
    }
    const auto place = [&](const auto* probe, const auto* build, size_t n) {
      for (size_t k = 0; k < n; ++k) {
        out_r[next[probe[k]]++] = static_cast<uint32_t>(build[k]);
      }
    };
    if (resident.has_value()) {
      place(resident->probe.data(), resident->build.data(),
            resident->probe.size());
    } else {
      GMDJ_RETURN_IF_ERROR(ranges.ReadBack(
          JoinPairs::SpillSchema(), [&](std::vector<Column> block) {
            place(block[0].i64_data(), block[1].i64_data(), block[0].size());
            return ctx->PollQuery();
          }));
    }
  }
  Table out = JoinOutput(kind_, output_schema_, l, out_l, r, out_r);
  ctx->stats().rows_output += out.num_rows();
  scope.AddRowsOut(out.num_rows());
  return out;
}

Result<HashJoinNode::JoinPairs> HashJoinNode::BuildAndProbe(
    ExecContext* ctx, const Table& l, const Table& r, size_t lo, size_t hi,
    std::vector<uint32_t>* matches) const {
  GMDJ_RETURN_IF_ERROR(
      ctx->ReserveMemory((hi - lo) * (sizeof(Row) + sizeof(uint32_t))));
  std::unordered_map<Row, std::vector<uint32_t>, RowHash, RowEq> build;
  build.reserve(hi - lo);
  // Row `i` of `ectx`'s table keyed by the `side` key expressions into
  // `key`; false when a key is NULL (NULL keys never match).
  const auto key_of = [this](EvalContext* ectx, size_t i,
                             ExprPtr JoinKey::*side, Row* key) {
    ectx->SetTopRow(i);
    key->clear();
    for (const JoinKey& k : keys_) {
      Value v = (k.*side)->Eval(*ectx);
      if (v.is_null()) return false;
      key->push_back(std::move(v));
    }
    return true;
  };
  Row key;
  key.reserve(keys_.size());
  {
    EvalContext rctx;
    rctx.PushFrame(&r);
    for (size_t i = lo; i < hi; ++i) {
      if ((i & 4095u) == 0) GMDJ_RETURN_IF_ERROR(ctx->PollQuery());
      if (!key_of(&rctx, i, &JoinKey::right, &key)) continue;
      build[key].push_back(static_cast<uint32_t>(i));
    }
  }

  JoinPairs pairs;
  EvalContext lctx;
  lctx.PushFrame(&l);
  EvalContext pctx;  // Pair context for the residual.
  pctx.PushFrame(&l);
  pctx.PushFrame(&r);
  for (size_t i = 0; i < l.num_rows(); ++i) {
    if ((i & 4095u) == 0) GMDJ_RETURN_IF_ERROR(ctx->PollQuery());
    uint32_t& matched = (*matches)[i];
    if (!EmitsPairs() && matched > 0) continue;  // Existence decided.
    if (!key_of(&lctx, i, &JoinKey::left, &key)) continue;
    ctx->stats().hash_probes += 1;
    const auto it = build.find(key);
    if (it == build.end()) continue;
    pctx.SetRow(0, i);
    for (const uint32_t ri : it->second) {
      if (residual_ != nullptr) {
        pctx.SetRow(1, ri);
        ctx->stats().predicate_evals += 1;
        if (!IsTrue(residual_->EvalPred(pctx))) continue;
      }
      ++matched;
      if (!EmitsPairs()) break;  // Semi/anti only need existence.
      pairs.probe.push_back(static_cast<uint32_t>(i));
      pairs.build.push_back(ri);
    }
  }
  return pairs;
}

Schema HashJoinNode::JoinPairs::SpillSchema() {
  Schema schema;
  schema.AddField(Field{"probe", ValueType::kInt64, ""});
  schema.AddField(Field{"build", ValueType::kInt64, ""});
  return schema;
}

Table HashJoinNode::JoinPairs::ToTable() const {
  std::vector<Column> cols;
  for (const std::vector<uint32_t>* rows : {&probe, &build}) {
    Column& col = cols.emplace_back(ValueType::kInt64);
    col.Reserve(rows->size());
    for (const uint32_t row : *rows) col.Append(Value(int64_t{row}));
  }
  Result<Table> table = Table::FromColumns(SpillSchema(), std::move(cols));
  GMDJ_CHECK(table.ok());
  return std::move(table).ValueOrDie();
}

std::string HashJoinNode::label() const {
  std::string out = "HashJoin(";
  out += JoinKindToString(kind_);
  out += ")[";
  for (size_t i = 0; i < keys_.size(); ++i) {
    if (i > 0) out += " AND ";
    out += keys_[i].left->ToString() + " = " + keys_[i].right->ToString();
  }
  if (residual_ != nullptr) out += " AND " + residual_->ToString();
  out += "]";
  return out;
}

// ------------------------------------------------------------------- NLJoin

NLJoinNode::NLJoinNode(PlanPtr left, PlanPtr right, JoinKind kind,
                       ExprPtr predicate)
    : left_(std::move(left)),
      right_(std::move(right)),
      kind_(kind),
      predicate_(std::move(predicate)) {}

Status NLJoinNode::Prepare(const Catalog& catalog) {
  GMDJ_RETURN_IF_ERROR(left_->Prepare(catalog));
  GMDJ_RETURN_IF_ERROR(right_->Prepare(catalog));
  const Schema& ls = left_->output_schema();
  const Schema& rs = right_->output_schema();
  if (predicate_ != nullptr) {
    GMDJ_RETURN_IF_ERROR(predicate_->Bind({&ls, &rs}));
  }
  switch (kind_) {
    case JoinKind::kInner:
    case JoinKind::kLeftOuter:
      output_schema_ = ls.Concat(rs);
      break;
    case JoinKind::kSemi:
    case JoinKind::kAnti:
      output_schema_ = ls;
      break;
  }
  return Status::OK();
}

Result<Table> NLJoinNode::Execute(ExecContext* ctx) const {
  OpScope scope(ctx, this, label());
  GMDJ_ASSIGN_OR_RETURN(Table l, left_->Execute(ctx));
  GMDJ_ASSIGN_OR_RETURN(Table r, right_->Execute(ctx));
  scope.AddRowsIn(l.num_rows() + r.num_rows());
  scope.AddBatches(2);
  ctx->stats().joins += 1;
  ctx->stats().table_scans += 1;
  ctx->stats().rows_scanned += l.num_rows();

  EvalContext pctx;
  pctx.PushFrame(&l);
  pctx.PushFrame(&r);
  std::vector<uint32_t> out_l, out_r;  // Output pairs (or kept left rows).

  for (size_t i = 0; i < l.num_rows(); ++i) {
    GMDJ_RETURN_IF_ERROR(ctx->PollQuery());
    const uint32_t li = static_cast<uint32_t>(i);
    pctx.SetRow(0, i);
    // Each probe re-scans the inner input: that is the cost profile the
    // stats are meant to expose for tuple-iteration-style plans.
    ctx->stats().table_scans += 1;
    bool any = false;
    for (size_t j = 0; j < r.num_rows(); ++j) {
      pctx.SetRow(1, j);
      ctx->stats().rows_scanned += 1;
      if (predicate_ != nullptr) {
        ctx->stats().predicate_evals += 1;
        if (!IsTrue(predicate_->EvalPred(pctx))) continue;
      }
      any = true;
      if (kind_ == JoinKind::kInner || kind_ == JoinKind::kLeftOuter) {
        out_l.push_back(li);
        out_r.push_back(static_cast<uint32_t>(j));
      } else {
        break;  // Existence decided.
      }
    }
    if (kind_ == JoinKind::kLeftOuter && !any) {
      out_l.push_back(li);
      out_r.push_back(kNoMatch);
    }
    if ((kind_ == JoinKind::kSemi && any) ||
        (kind_ == JoinKind::kAnti && !any)) {
      out_l.push_back(li);
    }
  }
  Table out = JoinOutput(kind_, output_schema_, l, out_l, r, out_r);
  ctx->stats().rows_output += out.num_rows();
  scope.AddRowsOut(out.num_rows());
  return out;
}

std::string NLJoinNode::label() const {
  std::string out = "NLJoin(";
  out += JoinKindToString(kind_);
  out += ")[";
  out += predicate_ == nullptr ? "true" : predicate_->ToString();
  out += "]";
  return out;
}

}  // namespace gmdj
