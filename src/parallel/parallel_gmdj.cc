#include "parallel/parallel_gmdj.h"

#include <algorithm>
#include <atomic>
#include <numeric>

#include "common/check.h"
#include "common/fault_injection.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "exec/detail_batch.h"
#include "expr/expr.h"
#include "expr/program.h"
#include "obs/metrics.h"
#include "parallel/thread_pool.h"
#include "types/tribool.h"

namespace gmdj {

void GmdjScan::Init(const GmdjEvalInput& in) {
  in_ = &in;
  compiled_ = in.compiled;
  runtimes_ = in.runtimes->data();
  base_rows_ = in.base->rows().data();
  detail_rows_ = in.detail->rows().data();
  ectx_.PushFrame(in.base_schema, nullptr);
  ectx_.PushFrame(in.detail_schema, nullptr);
  if (in.compiled) {
    batch_.Configure(*in.detail_schema, in.batch_columns);
    scratch_.batch_frame = 1;
    pass_.resize(in.runtimes->size());
    masks_.assign(in.runtimes->size(), nullptr);
  }
  size_t num_groups = 0;
  for (const GmdjCondRuntime& rt : *in.runtimes) {
    num_groups = std::max(num_groups, static_cast<size_t>(rt.group + 1));
  }
  memo_row_.assign(num_groups, nullptr);
  memo_.assign(num_groups, nullptr);
  stabs_.resize(num_groups);
}

void GmdjScan::BeginChunk(size_t begin, size_t rows) {
  chunk_begin_ = begin;
  if (!compiled_) return;
  // Decode the chunk once into typed columns, then run each condition's
  // detail-only conjuncts as per-column loops. Conjunct j only visits rows
  // that passed conjuncts < j, so predicate_evals matches the
  // interpreter's short-circuit count exactly.
  const Table& detail = *in_->detail;
  batch_.Stage(detail, begin, rows);
  scratch_.batch_cols = batch_.column_ptrs();
  scratch_.batch_num_cols = batch_.num_columns();
  for (size_t ci = 0; ci < in_->runtimes->size(); ++ci) {
    const GmdjCondRuntime& rt = (*in_->runtimes)[ci];
    if (rt.skip || rt.progs->detail_only.empty()) continue;
    std::vector<uint8_t>& mask = pass_[ci];
    mask.assign(rows, 1);
    masks_[ci] = mask.data();
    for (const ExprProgram& prog : rt.progs->detail_only) {
      // Short-circuit bookkeeping first: the interpreter evaluates
      // conjunct j only on survivors of conjuncts < j, so that's what
      // predicate_evals must count — even though the batch kernels
      // evaluate every lane (dead-lane results are discarded by the mask
      // AND, and ops are total, so this is invisible).
      size_t survivors = 0;
      for (size_t i = 0; i < rows; ++i) survivors += mask[i];
      if (survivors == 0) break;
      if (prog.EvalPredMask(ectx_, scratch_, &vec_scratch_, rows,
                            mask.data())) {
        predicate_evals += survivors;
        continue;
      }
      for (size_t i = 0; i < rows; ++i) {
        if (!mask[i]) continue;
        scratch_.batch_row = i;
        ectx_.SetRow(1, &detail.row(begin + i));
        predicate_evals += 1;
        if (!IsTrue(prog.EvalPred(ectx_, &scratch_))) mask[i] = 0;
      }
    }
  }
}

const std::vector<uint32_t>* GmdjScan::Stab(const GmdjCondRuntime& rt,
                                            std::vector<uint32_t>* out) {
  const uint32_t col =
      static_cast<uint32_t>(rt.analysis->interval->detail_col);
  const ColumnVector* cv = compiled_ ? batch_.column(col) : nullptr;
  double key;
  if (cv != nullptr && cv->type != ValueType::kString) {
    const size_t i = scratch_.batch_row;
    if (cv->null[i]) return nullptr;
    key = cv->type == ValueType::kInt64 ? static_cast<double>(cv->i64[i])
                                        : cv->dbl[i];
  } else {
    const Value& v = (*detail_row_)[col];
    if (v.is_null()) return nullptr;
    key = v.AsDouble();
  }
  out->clear();
  rt.interval->Stab(key, out);
  return out;
}

const std::vector<uint32_t>* GmdjScan::ProbeBoxed(
    std::span<const EqBinding> keys, const HashIndex& hash) {
  // Key extraction reads the staged typed columns when available.
  const size_t i = scratch_.batch_row;
  probe_key_.clear();
  for (const EqBinding& eq : keys) {
    const ColumnVector* cv =
        compiled_ ? batch_.column(static_cast<uint32_t>(eq.detail_col))
                      : nullptr;
    if (cv == nullptr) {
      const Value& v = (*detail_row_)[eq.detail_col];
      if (v.is_null()) return nullptr;
      probe_key_.push_back(v);
      continue;
    }
    if (cv->null[i]) return nullptr;
    switch (cv->type) {
      case ValueType::kInt64:
        probe_key_.push_back(Value(cv->i64[i]));
        break;
      case ValueType::kDouble:
        probe_key_.push_back(Value(cv->dbl[i]));
        break;
      default:
        probe_key_.push_back(Value(*cv->str[i]));
        break;
    }
  }
  hash_probes += 1;
  return &hash.Probe(probe_key_);
}

bool GmdjScan::PairMatches(const GmdjCondRuntime& rt) {
  predicate_evals += 1;
  const GmdjCondPrograms* p = progs(rt);
  return IsTrue(p != nullptr && p->pair_cmp != nullptr
                    ? p->pair_cmp->EvalPred(ectx_, &scratch_)
                    : rt.pair_cmp->EvalPred(ectx_));
}

bool ParallelGmdjSupported(const std::vector<GmdjCondRuntime>& runtimes) {
  for (const GmdjCondRuntime& rt : runtimes) {
    if (rt.skip) continue;
    if (rt.anti_key.has_value()) return false;
    if (rt.freeze_bit != 0) {
      // Satisfy-on-match emits the aggregates of the first match in scan
      // order; only count(*) makes that order-independent (always 1).
      for (const AggSpec& agg : rt.cond->aggs) {
        if (agg.kind != AggKind::kCountStar) return false;
      }
      if (rt.pair_cmp != nullptr) return false;
    }
    if (rt.pair_cmp != nullptr && rt.action != CompletionAction::kNone) {
      return false;  // Pair check against a scan-order-dependent match.
    }
  }
  return true;
}

namespace {

/// Thread-local evaluation state of one ParallelFor slot. A slot is
/// pinned to one thread for the whole loop, so nothing here needs locks.
struct SlotState {
  std::vector<AggState> states;  // |B| x total_aggs partial aggregates.
  std::vector<uint32_t> active;  // Non-discarded bases for kScan dispatch.
  size_t active_rebuild_mark = 0;  // num_discarded at last rebuild.
  GmdjScan scan;  // Staging, probe memo, and morsel-local work counters.
  std::vector<uint32_t> rng;  // |B| x |runtimes| when in.rng_counts set.
  std::vector<MorselTiming> timings;
};

/// Shared, atomically updated completion state. Decision flags use
/// relaxed ordering: correctness needs only the atomicity of the RMW
/// (exactly-once discard/freeze); a slot observing a flag late merely
/// does wasted work on a base tuple whose output is already decided or
/// whose extra updates land in partials that are never read.
struct SharedState {
  explicit SharedState(size_t n) : discarded(n), frozen(n) {}
  std::vector<std::atomic<uint8_t>> discarded;
  std::vector<std::atomic<uint64_t>> frozen;
  std::atomic<size_t> num_discarded{0};

  // First-error-wins abort channel. A worker that fails (cancellation,
  // deadline, injected fault) records its Status here exactly once; every
  // later morsel observes `failed` at its boundary and returns without
  // running, so the ParallelFor drains and completes — no hung workers, no
  // leaked pool slots, just wasted (already queued) no-op tasks.
  std::atomic<bool> failed{false};
  std::mutex error_mu;
  Status first_error;

  void RecordError(Status status) {
    std::lock_guard<std::mutex> lock(error_mu);
    if (first_error.ok()) first_error = std::move(status);
    failed.store(true, std::memory_order_release);
  }
};

void InitSlot(SlotState* slot, const GmdjEvalInput& in) {
  const size_t n = in.base->num_rows();
  slot->states.resize(n * in.total_aggs);
  slot->active.resize(n);
  std::iota(slot->active.begin(), slot->active.end(), 0);
  slot->scan.Init(in);
  if (in.rng_counts != nullptr) {
    slot->rng.assign(n * in.runtimes->size(), 0);
  }
}

void Discard(size_t b, SharedState* shared) {
  if (shared->discarded[b].exchange(1, std::memory_order_relaxed) == 0) {
    shared->num_discarded.fetch_add(1, std::memory_order_relaxed);
  }
}

/// Processes detail rows [begin, end) — the same candidate loop as the
/// sequential evaluator, with completion decisions routed through the
/// shared atomic flags and aggregates into the slot-local table. Non-OK
/// only on governance abort (cancellation/deadline) or an injected fault;
/// partial slot-local updates are then simply never merged.
Status ProcessMorsel(const GmdjEvalInput& in, size_t begin, size_t end,
                     SlotState* slot, SharedState* shared) {
  GMDJ_RETURN_IF_ERROR(GMDJ_FAULT_POINT("parallel/morsel"));
  if (in.query != nullptr) GMDJ_RETURN_IF_ERROR(in.query->CheckAlive());
  const size_t n = in.base->num_rows();
  const std::vector<GmdjCondRuntime>& runtimes = *in.runtimes;
  GmdjScan& scan = slot->scan;

  // Rebuild the slot's active list when completion has retired a large
  // fraction of base tuples since the last rebuild (kScan dispatch cost
  // is proportional to the list length).
  const size_t retired =
      shared->num_discarded.load(std::memory_order_relaxed);
  if (retired > slot->active_rebuild_mark &&
      (retired - slot->active_rebuild_mark) * 2 > slot->active.size()) {
    std::vector<uint32_t> next;
    next.reserve(slot->active.size());
    for (const uint32_t b : slot->active) {
      if (shared->discarded[b].load(std::memory_order_relaxed) == 0) {
        next.push_back(b);
      }
    }
    slot->active = std::move(next);
    slot->active_rebuild_mark = retired;
  }

  // The morsel is consumed in staging chunks; the chunk size doubles as
  // the mid-morsel liveness stride (~1k rows, as before the columnar path
  // existed): a sibling's failure or this query's cancellation stops the
  // scan within a chunk, not a whole morsel.
  constexpr size_t kChunkRows = 1024;
  for (size_t chunk = begin; chunk < end; chunk += kChunkRows) {
    if (shared->num_discarded.load(std::memory_order_relaxed) == n) {
      return Status::OK();  // Every base tuple is decided.
    }
    if (chunk != begin) {
      if (shared->failed.load(std::memory_order_acquire)) {
        return Status::OK();  // The recorded first error wins.
      }
      if (in.query != nullptr) GMDJ_RETURN_IF_ERROR(in.query->CheckAlive());
    }
    const size_t chunk_rows = std::min(kChunkRows, end - chunk);
    scan.BeginChunk(chunk, chunk_rows);

    for (size_t i = 0; i < chunk_rows; ++i) {
      if (shared->num_discarded.load(std::memory_order_relaxed) == n) {
        return Status::OK();
      }
      scan.SetRow(i);
      for (uint32_t ci = 0; ci < runtimes.size(); ++ci) {
        const GmdjCondRuntime& rt = runtimes[ci];
        // Per-detail filters first (e.g. F.Protocol = "HTTP").
        if (rt.skip || !scan.PassesDetailOnly(ci)) continue;
        const std::vector<uint32_t>* candidates =
            scan.Candidates(rt, slot->active);
        if (candidates == nullptr) continue;
        const GmdjCondPrograms* progs = scan.progs(rt);
        for (const uint32_t b : *candidates) {
          if (shared->discarded[b].load(std::memory_order_relaxed)) continue;
          if (rt.freeze_bit != 0 &&
              (shared->frozen[b].load(std::memory_order_relaxed) &
               rt.freeze_bit)) {
            continue;
          }
          if (!scan.ResidualMatches(rt, progs, b)) continue;
          const size_t rng_slot = b * runtimes.size() + ci;
          AggState* states = &slot->states[b * in.total_aggs];

          if (rt.action == CompletionAction::kDiscardOnMatch) {
            if (!slot->rng.empty()) ++slot->rng[rng_slot];
            Discard(b, shared);
            continue;
          }
          if (rt.freeze_bit != 0) {
            // Satisfy-on-match: the slot that wins the fetch_or races is
            // the one (and only one) that counts the match, so the merged
            // count is exactly 1 — the sequential frozen value.
            const uint64_t prev = shared->frozen[b].fetch_or(
                rt.freeze_bit, std::memory_order_relaxed);
            if ((prev & rt.freeze_bit) == 0) {
              if (!slot->rng.empty()) ++slot->rng[rng_slot];
              scan.UpdateAggs(*rt.cond, progs, states + rt.agg_offset);
            }
            continue;
          }
          if (!slot->rng.empty()) ++slot->rng[rng_slot];
          scan.UpdateAggs(*rt.cond, progs, states + rt.agg_offset);
          if (rt.pair_cmp != nullptr) {
            if (scan.PairMatches(rt)) {
              scan.UpdateAggs(*rt.pair_cond, scan.pair_progs(rt),
                              states + rt.pair_agg_offset);
            } else {
              // The ALL quantifier is violated; counts diverge forever.
              Discard(b, shared);
            }
          }
        }
      }
    }
  }
  return Status::OK();
}

}  // namespace

Status ExecuteGmdjMorselParallel(const GmdjEvalInput& in,
                                 const ExecConfig& config, ExecStats* stats,
                                 GmdjEvalResult* out) {
  GMDJ_CHECK(ParallelGmdjSupported(*in.runtimes));
  GMDJ_CHECK(in.agg_kinds.size() == in.total_aggs);
  const size_t n = in.base->num_rows();
  const size_t num_detail = in.detail->num_rows();
  const size_t morsel_rows = std::max<size_t>(1, config.morsel_rows);
  const size_t num_morsels = (num_detail + morsel_rows - 1) / morsel_rows;
  const size_t parallelism =
      std::max<size_t>(1, std::min(config.ResolvedThreads(), num_morsels));

  // Dispatch order of morsels. Work stealing already makes the execution
  // order nondeterministic; the explicit shuffle knob lets tests pin an
  // adversarial order deterministically.
  std::vector<size_t> order(num_morsels);
  std::iota(order.begin(), order.end(), 0);
  if (config.morsel_shuffle_seed != 0) {
    Rng rng(config.morsel_shuffle_seed);
    for (size_t i = num_morsels; i > 1; --i) {
      std::swap(order[i - 1],
                order[static_cast<size_t>(
                    rng.Uniform(0, static_cast<int64_t>(i) - 1))]);
    }
  }

  // The dominant allocation: one |B| x total_aggs partial-aggregate table
  // per slot, plus the shared completion flags. Charged against the query
  // budget before any worker touches data, so an over-budget query aborts
  // here with ResourceExhausted instead of thrashing the machine.
  if (in.query != nullptr) {
    const size_t partials_bytes =
        parallelism * n * in.total_aggs * sizeof(AggState);
    const size_t flags_bytes = n * (sizeof(std::atomic<uint8_t>) +
                                    sizeof(std::atomic<uint64_t>));
    Status reserve = GMDJ_FAULT_POINT("parallel/alloc");
    if (reserve.ok()) {
      reserve = in.query->ReserveMemory(partials_bytes + flags_bytes);
    }
    GMDJ_RETURN_IF_ERROR(reserve);
  }

  SharedState shared(n);
  std::vector<SlotState> slots(parallelism);

  // Worker counters route through sharded obs counters instead of an
  // ad-hoc per-slot merge: each morsel's slot-local tallies flush with one
  // relaxed fetch_add per counter (thread-private cache line), including
  // for morsels that completed before an abort, and the totals fold into
  // ExecStats exactly once below. Sequential and parallel runs of the
  // same completion-free plan therefore report identical totals.
  obs::ShardedCounter predicate_evals_counter;
  obs::ShardedCounter hash_probes_counter;

  ThreadPool::Shared()->ParallelFor(
      num_morsels, parallelism, [&](size_t task, size_t slot_idx) {
        if (shared.failed.load(std::memory_order_acquire)) {
          return;  // First error won; drain the remaining morsels.
        }
        SlotState& slot = slots[slot_idx];
        if (!slot.scan.initialized()) InitSlot(&slot, in);
        const size_t morsel = order[task];
        const size_t begin = morsel * morsel_rows;
        const size_t end = std::min(begin + morsel_rows, num_detail);
        Stopwatch watch;
        const Status morsel_status =
            ProcessMorsel(in, begin, end, &slot, &shared);
        if (!morsel_status.ok()) shared.RecordError(morsel_status);
        predicate_evals_counter.Add(slot.scan.predicate_evals);
        hash_probes_counter.Add(slot.scan.hash_probes);
        slot.scan.predicate_evals = 0;
        slot.scan.hash_probes = 0;
        slot.timings.push_back(MorselTiming{
            static_cast<uint32_t>(slot_idx), static_cast<uint64_t>(begin),
            static_cast<uint64_t>(end - begin), watch.ElapsedMillis()});
      });

  if (shared.failed.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lock(shared.error_mu);
    return shared.first_error;
  }
  GMDJ_RETURN_IF_ERROR(GMDJ_FAULT_POINT("parallel/merge"));

  // ---- Merge thread-local partials (commutative, so slot order only
  // affects double-sum rounding, exactly as morsel order does). ----
  out->states.assign(n * in.total_aggs, AggState{});
  for (const SlotState& slot : slots) {
    if (!slot.scan.initialized()) continue;
    for (size_t b = 0; b < n; ++b) {
      if (shared.discarded[b].load(std::memory_order_relaxed)) continue;
      AggState* dst = &out->states[b * in.total_aggs];
      const AggState* src = &slot.states[b * in.total_aggs];
      for (size_t a = 0; a < in.total_aggs; ++a) {
        dst[a].Merge(in.agg_kinds[a], src[a]);
      }
    }
    if (in.rng_counts != nullptr && !slot.rng.empty()) {
      for (size_t i = 0; i < slot.rng.size(); ++i) {
        (*in.rng_counts)[i] += slot.rng[i];
      }
    }
  }
  stats->predicate_evals += predicate_evals_counter.Total();
  stats->hash_probes += hash_probes_counter.Total();
  out->discarded.resize(n);
  size_t num_freezes = 0;
  for (size_t b = 0; b < n; ++b) {
    out->discarded[b] =
        shared.discarded[b].load(std::memory_order_relaxed);
    num_freezes += static_cast<size_t>(__builtin_popcountll(
        shared.frozen[b].load(std::memory_order_relaxed)));
  }
  out->num_discarded = shared.num_discarded.load(std::memory_order_relaxed);
  out->num_freezes = num_freezes;
  out->batches = num_morsels;

  stats->morsels += num_morsels;
  if (config.morsel_trace != nullptr) {
    for (const SlotState& slot : slots) {
      config.morsel_trace->insert(config.morsel_trace->end(),
                                  slot.timings.begin(), slot.timings.end());
    }
    std::sort(config.morsel_trace->begin(), config.morsel_trace->end(),
              [](const MorselTiming& a, const MorselTiming& b) {
                return a.first_row < b.first_row;
              });
  }
  return Status::OK();
}

}  // namespace gmdj
