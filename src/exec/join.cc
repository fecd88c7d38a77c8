#include "exec/join.h"

#include <algorithm>
#include <unordered_map>

#include "common/check.h"
#include "common/fault_injection.h"
#include "spill/spill_manager.h"

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
  for (size_t c = 0; c < left.num_columns(); ++c) {
    const Column& src = left.column(c);
    Column& col = cols.emplace_back(src.type());
    col.Reserve(li.size());
    for (const uint32_t i : li) col.AppendFrom(src, i);
  }
  for (size_t c = 0; c < right.num_columns(); ++c) {
    const Column& src = right.column(c);
    Column& col = cols.emplace_back(src.type());
    col.Reserve(ri.size());
    for (const uint32_t i : ri) {
      if (i == kNoMatch) {
        col.AppendNull();
      } else {
        col.AppendFrom(src, i);
      }
    }
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

Row NullPadded(const Row& a, size_t right_width) {
  Row out;
  out.reserve(a.size() + right_width);
  out.insert(out.end(), a.begin(), a.end());
  out.resize(a.size() + right_width);
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

  // Build side: the right input.
  GMDJ_RETURN_IF_ERROR(GMDJ_FAULT_POINT("join/build"));
  spill::SpillScope* sp = ctx->spill();
  if (sp != nullptr && sp->config().min_spill_partitions > 1 &&
      r.num_rows() > 1) {
    return ExecuteSpilled(
        ctx, &scope, l, r,
        std::min(sp->config().min_spill_partitions, r.num_rows()));
  }
  {
    Status reserve =
        ctx->ReserveMemory(r.num_rows() * (sizeof(Row) + sizeof(uint32_t)));
    if (!reserve.ok()) {
      if (sp == nullptr ||
          reserve.code() != StatusCode::kResourceExhausted ||
          r.num_rows() <= 1) {
        return reserve;
      }
      GMDJ_RETURN_IF_ERROR(ctx->PollQuery());
      return ExecuteSpilled(ctx, &scope, l, r, 2);
    }
  }
  std::unordered_map<Row, std::vector<uint32_t>, RowHash, RowEq> build;
  build.reserve(r.num_rows());
  {
    EvalContext rctx;
    rctx.PushFrame(&r);
    for (size_t i = 0; i < r.num_rows(); ++i) {
      if ((i & 4095u) == 0) GMDJ_RETURN_IF_ERROR(ctx->PollQuery());
      rctx.SetTopRow(i);
      Row key;
      key.reserve(keys_.size());
      bool null_key = false;
      for (const JoinKey& k : keys_) {
        Value v = k.right->Eval(rctx);
        if (v.is_null()) {
          null_key = true;
          break;
        }
        key.push_back(std::move(v));
      }
      if (null_key) continue;  // NULL keys can never match.
      build[std::move(key)].push_back(static_cast<uint32_t>(i));
    }
  }

  EvalContext lctx;
  lctx.PushFrame(&l);
  EvalContext pctx;  // Pair context for the residual.
  pctx.PushFrame(&l);
  pctx.PushFrame(&r);
  std::vector<uint32_t> out_l, out_r;  // Output pairs (or kept left rows).

  const std::vector<uint32_t> no_matches;
  for (size_t i = 0; i < l.num_rows(); ++i) {
    if ((i & 4095u) == 0) GMDJ_RETURN_IF_ERROR(ctx->PollQuery());
    const uint32_t li = static_cast<uint32_t>(i);
    lctx.SetTopRow(i);
    Row key;
    key.reserve(keys_.size());
    bool null_key = false;
    for (const JoinKey& k : keys_) {
      Value v = k.left->Eval(lctx);
      if (v.is_null()) {
        null_key = true;
        break;
      }
      key.push_back(std::move(v));
    }
    const std::vector<uint32_t>* matches = &no_matches;
    if (!null_key) {
      ctx->stats().hash_probes += 1;
      const auto it = build.find(key);
      if (it != build.end()) matches = &it->second;
    }

    pctx.SetRow(0, i);
    bool any = false;
    for (const uint32_t ri : *matches) {
      if (residual_ != nullptr) {
        pctx.SetRow(1, ri);
        ctx->stats().predicate_evals += 1;
        if (!IsTrue(residual_->EvalPred(pctx))) continue;
      }
      any = true;
      if (kind_ == JoinKind::kInner || kind_ == JoinKind::kLeftOuter) {
        out_l.push_back(li);
        out_r.push_back(ri);
      } else {
        break;  // Semi/anti only need existence.
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

Result<Table> HashJoinNode::ExecuteSpilled(ExecContext* ctx, OpScope* scope,
                                           const Table& l, const Table& r,
                                           size_t initial_partitions) const {
  spill::SpillScope* sp = ctx->spill();
  GMDJ_CHECK(sp != nullptr);
  const Schema& rs = right_->output_schema();
  const size_t nl = l.num_rows();
  const size_t nr = r.num_rows();
  const bool emit_pairs =
      kind_ == JoinKind::kInner || kind_ == JoinKind::kLeftOuter;

  // One probe-side match flag survives across passes; it is all semi/anti
  // need, and it decides left-outer NULL padding after the last pass.
  std::vector<bool> matched(nl, false);
  std::vector<std::string> pass_files;  // Ascending build-range order.
  uint64_t passes = 0;
  uint64_t bytes_written = 0;

  // Builds the hash table over build rows [lo, hi), probes every left row,
  // and (inner/left-outer) stages match rows tagged with their probe index.
  auto run_pass = [&](size_t lo, size_t hi) -> Status {
    std::unordered_map<Row, std::vector<uint32_t>, RowHash, RowEq> build;
    build.reserve(hi - lo);
    {
      EvalContext rctx;
      rctx.PushFrame(&r);
      for (size_t i = lo; i < hi; ++i) {
        if ((i & 4095u) == 0) GMDJ_RETURN_IF_ERROR(ctx->PollQuery());
        rctx.SetTopRow(i);
        Row key;
        key.reserve(keys_.size());
        bool null_key = false;
        for (const JoinKey& k : keys_) {
          Value v = k.right->Eval(rctx);
          if (v.is_null()) {
            null_key = true;
            break;
          }
          key.push_back(std::move(v));
        }
        if (null_key) continue;
        build[std::move(key)].push_back(static_cast<uint32_t>(i));
      }
    }

    std::unique_ptr<spill::SpillWriter> writer;
    if (emit_pairs) {
      GMDJ_ASSIGN_OR_RETURN(writer, sp->NewWriter("join"));
    }
    EvalContext lctx;
    lctx.PushFrame(&l);
    EvalContext pctx;
    pctx.PushFrame(&l);
    pctx.PushFrame(&r);
    for (size_t i = 0; i < nl; ++i) {
      if ((i & 4095u) == 0) GMDJ_RETURN_IF_ERROR(ctx->PollQuery());
      if (!emit_pairs && matched[i]) continue;  // Existence already decided.
      lctx.SetTopRow(i);
      Row key;
      key.reserve(keys_.size());
      bool null_key = false;
      for (const JoinKey& k : keys_) {
        Value v = k.left->Eval(lctx);
        if (v.is_null()) {
          null_key = true;
          break;
        }
        key.push_back(std::move(v));
      }
      if (null_key) continue;
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
        matched[i] = true;
        if (!emit_pairs) break;
        const Row lrow = l.row(i);
        const Row rrow = r.row(ri);
        Row staged;
        staged.reserve(1 + lrow.size() + rrow.size());
        staged.push_back(Value(static_cast<int64_t>(i)));
        staged.insert(staged.end(), lrow.begin(), lrow.end());
        staged.insert(staged.end(), rrow.begin(), rrow.end());
        GMDJ_RETURN_IF_ERROR(writer->Append(std::move(staged)));
      }
    }
    if (writer != nullptr) {
      GMDJ_RETURN_IF_ERROR(writer->Finish());
      bytes_written += writer->bytes_written();
      pass_files.push_back(writer->path());
    }
    return Status::OK();
  };

  // Split-on-ResourceExhausted recursion over contiguous build ranges; the
  // reservation failing (not a write error) is the only split trigger, so
  // a full spill disk stays fatal instead of recursing forever.
  auto run_range = [&](auto&& self, size_t lo, size_t hi) -> Status {
    const size_t before = ctx->reserved_memory();
    Status reserve =
        ctx->ReserveMemory((hi - lo) * (sizeof(Row) + sizeof(uint32_t)));
    if (!reserve.ok()) {
      if (reserve.code() != StatusCode::kResourceExhausted) return reserve;
      GMDJ_RETURN_IF_ERROR(ctx->PollQuery());
      if (hi - lo <= 1) {
        return Status::ResourceExhausted(
            "hash join spill: a single build row exceeds the memory "
            "budget: " + reserve.message());
      }
      const size_t mid = lo + (hi - lo) / 2;
      GMDJ_RETURN_IF_ERROR(self(self, lo, mid));
      return self(self, mid, hi);
    }
    Status st = run_pass(lo, hi);
    const size_t after = ctx->reserved_memory();
    if (after > before) ctx->ReleaseMemory(after - before);
    GMDJ_RETURN_IF_ERROR(st);
    ++passes;
    if (passes > 1) {
      // Every pass after the first re-probes the whole left input.
      ctx->stats().table_scans += 1;
      ctx->stats().rows_scanned += nl;
    }
    return Status::OK();
  };

  const size_t partitions = std::max<size_t>(1, initial_partitions);
  for (size_t p = 0; p < partitions; ++p) {
    const size_t lo = nr * p / partitions;
    const size_t hi = nr * (p + 1) / partitions;
    if (lo == hi) continue;
    GMDJ_RETURN_IF_ERROR(run_range(run_range, lo, hi));
  }

  Table out(output_schema_);
  uint64_t bytes_read = 0;
  if (emit_pairs) {
    // Merge the per-pass files back into exact single-pass order: pass
    // files ascend in build-index ranges and each is in probe order, so
    // for every left row its matches come from the files in pass order.
    struct PassCursor {
      std::unique_ptr<spill::SpillReader> reader;
      std::vector<Row> rows;
      size_t pos = 0;
      bool eof = false;
    };
    std::vector<PassCursor> cursors;
    cursors.reserve(pass_files.size());
    for (const std::string& path : pass_files) {
      PassCursor cursor;
      GMDJ_ASSIGN_OR_RETURN(cursor.reader, sp->OpenReader(path));
      cursors.push_back(std::move(cursor));
    }
    auto peek = [](PassCursor& c) -> Result<const Row*> {
      while (c.pos >= c.rows.size() && !c.eof) {
        c.rows.clear();
        c.pos = 0;
        GMDJ_RETURN_IF_ERROR(c.reader->ReadBlock(&c.rows, &c.eof));
      }
      return c.pos < c.rows.size() ? &c.rows[c.pos] : nullptr;
    };
    for (size_t i = 0; i < nl; ++i) {
      if ((i & 4095u) == 0) GMDJ_RETURN_IF_ERROR(ctx->PollQuery());
      for (PassCursor& cursor : cursors) {
        while (true) {
          GMDJ_ASSIGN_OR_RETURN(const Row* staged, peek(cursor));
          if (staged == nullptr ||
              (*staged)[0].int64() != static_cast<int64_t>(i)) {
            break;
          }
          GMDJ_RETURN_IF_ERROR(
              out.AppendRow(Row(staged->begin() + 1, staged->end())));
          ++cursor.pos;
        }
      }
      if (kind_ == JoinKind::kLeftOuter && !matched[i]) {
        GMDJ_RETURN_IF_ERROR(
            out.AppendRow(NullPadded(l.row(i), rs.num_fields())));
      }
    }
    for (PassCursor& cursor : cursors) bytes_read += cursor.reader->bytes_read();
  } else {
    std::vector<uint32_t> keep;
    for (size_t i = 0; i < nl; ++i) {
      if (matched[i] == (kind_ == JoinKind::kSemi)) {
        keep.push_back(static_cast<uint32_t>(i));
      }
    }
    out = JoinOutput(kind_, output_schema_, l, keep, r, {});
  }
  ctx->stats().rows_output += out.num_rows();
  scope->AddRowsOut(out.num_rows());

  ctx->stats().spill_partitions += passes;
  ctx->stats().spill_passes += passes;
  ctx->stats().spill_bytes_written += bytes_written;
  ctx->stats().spill_bytes_read += bytes_read;
  if (scope->stats() != nullptr) {
    obs::OperatorStats* os = scope->stats();
    os->spill_partitions += passes;
    os->spill_passes += passes;
    os->spill_bytes_written += bytes_written;
    os->spill_bytes_read += bytes_read;
  }
  sp->NoteSpill(passes, passes);
  if (ctx->tracer() != nullptr) {
    ctx->tracer()->Event(
        "spill",
        "join passes=" + std::to_string(passes) +
            " bytes=" + std::to_string(bytes_written),
        ctx->current_span());
  }
  return out;
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
