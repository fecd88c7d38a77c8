#include "exec/range_spill.h"

#include <algorithm>

#include "spill/spill_manager.h"

namespace gmdj {

RangeSpill::RangeSpill(ExecContext* ctx, OpScope* scope, std::string op,
                       std::string unit, size_t n, size_t rescan_rows)
    : ctx_(ctx),
      scope_(scope),
      op_(std::move(op)),
      unit_(std::move(unit)),
      n_(n),
      rescan_rows_(rescan_rows) {
  const spill::SpillScope* sp = ctx->spill();
  if (sp != nullptr && sp->config().min_spill_partitions > 1 && n > 1) {
    initial_ranges_ = std::min(sp->config().min_spill_partitions, n);
  }
}

void RangeSpill::Release(size_t before) {
  const size_t after = ctx_->reserved_memory();
  if (after > before) ctx_->ReleaseMemory(after - before);
}

void RangeSpill::NotePass() {
  if (++passes_ > 1) {
    ctx_->stats().table_scans += 1;
    ctx_->stats().rows_scanned += rescan_rows_;
  }
}

Status RangeSpill::SplitOrFail(const Status& failure, size_t lo, size_t hi,
                               bool whole) const {
  if (failure.code() != StatusCode::kResourceExhausted ||
      ctx_->spill() == nullptr) {
    return failure;
  }
  if (hi - lo <= 1) {
    if (whole) return failure;
    // Even one row's state exceeds the budget: spilling cannot help, so
    // fail the query with the real reason.
    return Status::ResourceExhausted(op_ + " spill: a single " + unit_ +
                                     " row exceeds the memory budget: " +
                                     failure.message());
  }
  return ctx_->PollQuery();
}

Status RangeSpill::Write(const Table& part) {
  if (writer_ == nullptr) {
    GMDJ_ASSIGN_OR_RETURN(writer_, ctx_->spill()->NewWriter(op_));
  }
  return writer_->AppendTable(part);
}

Status RangeSpill::FinishPasses() {
  uint64_t written = 0;
  if (writer_ != nullptr) {
    GMDJ_RETURN_IF_ERROR(writer_->Finish());
    written = writer_->bytes_written();
  }
  ExecStats& stats = ctx_->stats();
  stats.spill_partitions += passes_;
  stats.spill_passes += passes_;
  stats.spill_bytes_written += written;
  if (obs::OperatorStats* os = scope_->stats(); os != nullptr) {
    os->spill_partitions += passes_;
    os->spill_passes += passes_;
    os->spill_bytes_written += written;
  }
  ctx_->spill()->NoteSpill(passes_, passes_);
  if (ctx_->tracer() != nullptr) {
    ctx_->tracer()->Event("spill",
                          op_ + " passes=" + std::to_string(passes_) +
                              " bytes=" + std::to_string(written),
                          ctx_->current_span());
  }
  return Status::OK();
}

Status RangeSpill::ReadBack(
    const Schema& schema,
    const std::function<Status(std::vector<Column>)>& block) {
  GMDJ_ASSIGN_OR_RETURN(std::unique_ptr<spill::SpillReader> reader,
                        ctx_->spill()->OpenReader(writer_->path()));
  std::vector<Column> columns;
  while (true) {
    bool eof = false;
    GMDJ_RETURN_IF_ERROR(reader->ReadBlock(schema, &columns, &eof));
    if (eof) break;
    GMDJ_RETURN_IF_ERROR(block(std::move(columns)));
  }
  ctx_->stats().spill_bytes_read += reader->bytes_read();
  if (obs::OperatorStats* os = scope_->stats(); os != nullptr) {
    os->spill_bytes_read += reader->bytes_read();
  }
  return Status::OK();
}

}  // namespace gmdj
