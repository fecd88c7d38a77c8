#ifndef GMDJ_EXEC_RANGE_SPILL_H_
#define GMDJ_EXEC_RANGE_SPILL_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "exec/plan.h"
#include "spill/spill_file.h"
#include "storage/table.h"

namespace gmdj {

/// The one evaluation loop of an operator whose resident state is bounded
/// by one of its inputs: the GMDJ's base (state per base row, Definition
/// 2.1) and the hash join's build side.
///
/// The input's rows [0, n) are evaluated as contiguous ranges, in order.
/// The first range is the whole input, unless the spill scope's
/// `min_spill_partitions` forces more. A range whose evaluation fails with
/// ResourceExhausted gives back what it reserved and splits in half, but
/// only with a spill scope attached; without one the failure stands. A
/// single row that still does not fit is the hard ResourceExhausted.
///
/// A whole-input range that fits is the resident run: it keeps its
/// reservations, and no spill file, spill counter or `spill` tracer event
/// exists. Every other range is a spilled pass. Its output is appended to
/// one spill file in range order, its reservations are released, and each
/// pass after the first counts one re-scan of the operator's other input.
class RangeSpill {
 public:
  /// `op` names the operator in spill files, errors and the tracer
  /// ("gmdj", "join"); `unit` names a row of the partitioned input
  /// ("base", "build"); `rescan_rows` is the other input's row count.
  RangeSpill(ExecContext* ctx, OpScope* scope, std::string op,
             std::string unit, size_t n, size_t rescan_rows);

  /// Runs `eval(lo, hi)` (a Result<T>) over the ranges. Returns the whole
  /// input's result when it was resident. Otherwise every range's result
  /// went to `spill(T)` (a Status, typically Write), the spill counters,
  /// the spill scope note and the `spill` tracer event are recorded, and
  /// the return is nullopt. Only `eval`'s ResourceExhausted splits a
  /// range: a failed spill write stays fatal.
  template <typename T, typename Eval, typename Spill>
  Result<std::optional<T>> Run(const Eval& eval, const Spill& spill) {
    std::optional<T> resident;
    for (size_t p = 0; p < initial_ranges_; ++p) {
      GMDJ_RETURN_IF_ERROR(RunRange<T>(n_ * p / initial_ranges_,
                                       n_ * (p + 1) / initial_ranges_, eval,
                                       spill, &resident));
    }
    if (!resident.has_value()) GMDJ_RETURN_IF_ERROR(FinishPasses());
    return resident;
  }

  /// Appends one spilled pass's output to the spill file.
  Status Write(const Table& part);

  /// After a spilled Run that wrote: reads the spill file back one block
  /// at a time, as typed columns of `schema`, into `block`.
  Status ReadBack(const Schema& schema,
                  const std::function<Status(std::vector<Column>)>& block);

  /// Spilled passes run so far.
  uint64_t passes() const { return passes_; }

 private:
  template <typename T, typename Eval, typename Spill>
  Status RunRange(size_t lo, size_t hi, const Eval& eval, const Spill& spill,
                  std::optional<T>* resident) {
    const bool whole = lo == 0 && hi == n_ && initial_ranges_ == 1;
    const size_t before = ctx_->reserved_memory();
    Result<T> part = eval(lo, hi);
    if (part.ok() && whole) {
      resident->emplace(std::move(part).ValueOrDie());
      return Status::OK();
    }
    if (!whole) Release(before);
    if (part.ok()) {
      NotePass();
      return spill(std::move(part).ValueOrDie());
    }
    GMDJ_RETURN_IF_ERROR(SplitOrFail(part.status(), lo, hi, whole));
    if (whole) Release(before);
    const size_t mid = lo + (hi - lo) / 2;
    GMDJ_RETURN_IF_ERROR(RunRange<T>(lo, mid, eval, spill, resident));
    return RunRange<T>(mid, hi, eval, spill, resident);
  }

  /// Gives back the reservations made since `before`.
  void Release(size_t before);
  /// Counts one spilled pass, and the re-scan of every pass after the
  /// first.
  void NotePass();
  /// Finishes the spill file, if any, and records the spilled run.
  Status FinishPasses();
  /// OK when the failed range [lo, hi) may split; else the error to
  /// return.
  Status SplitOrFail(const Status& failure, size_t lo, size_t hi,
                     bool whole) const;

  ExecContext* ctx_;
  OpScope* scope_;
  std::string op_;
  std::string unit_;
  size_t n_;
  size_t rescan_rows_;
  size_t initial_ranges_ = 1;
  uint64_t passes_ = 0;
  std::unique_ptr<spill::SpillWriter> writer_;
};

}  // namespace gmdj

#endif  // GMDJ_EXEC_RANGE_SPILL_H_
