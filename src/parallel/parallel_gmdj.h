#ifndef GMDJ_PARALLEL_PARALLEL_GMDJ_H_
#define GMDJ_PARALLEL_PARALLEL_GMDJ_H_

#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/gmdj_node.h"
#include "exec/detail_batch.h"
#include "exec/plan.h"
#include "expr/aggregate.h"
#include "expr/program.h"
#include "parallel/exec_config.h"
#include "storage/hash_index.h"
#include "storage/interval_index.h"
#include "storage/table.h"
#include "types/tribool.h"

namespace gmdj {

/// Compiled expression programs of one GMDJ condition (expr/program.h).
/// Built by GmdjNode::CompileRuntimes unless the evaluation mode or the
/// "gmdj/expr-compile" fault point forces the tree interpreter. Programs
/// borrow the condition's bound expression trees, which outlive execution.
struct GmdjCondPrograms {
  std::vector<ExprProgram> detail_only;  // Aligned with analysis->detail_only.
  std::vector<ExprProgram> residual;     // Aligned with analysis->residual.
  std::unique_ptr<ExprProgram> pair_cmp; // ψ of a fused ALL pair, if any.
  /// Aligned with cond->aggs; null for count(*) (no argument to evaluate).
  std::vector<std::unique_ptr<ExprProgram>> agg_args;
  /// Every program above lowered without a kInterpret fallback op.
  bool fully_compiled = false;
};

/// Compiled runtime form of one GMDJ condition: dispatch strategy plus
/// completion wiring. Built once per Execute by GmdjNode and shared
/// read-only by the sequential and morsel-parallel evaluators.
///
/// Candidate base tuples are located per *binding*, not per condition:
/// every hash- or interval-dispatched condition belongs to a binding
/// group, and conditions with identical bindings (same base index, same
/// detail key columns) share one probe and one candidate list per detail
/// tuple.
struct GmdjCondRuntime {
  const GmdjCondition* cond = nullptr;
  const ConditionAnalysis* analysis = nullptr;
  size_t agg_offset = 0;
  CompletionAction action = CompletionAction::kNone;
  // Fused ALL pair (set on the *unfiltered* condition when completion is
  // enabled): after a θ match, `pair_cmp` decides whether the filtered
  // condition also matches; a non-TRUE outcome discards the base tuple.
  const Expr* pair_cmp = nullptr;
  size_t pair_agg_offset = 0;
  const GmdjCondition* pair_cond = nullptr;
  bool skip = false;  // Filtered half of a fused pair.
  std::shared_ptr<HashIndex> hash;
  /// Unboxed probe fast path, built only in compiled mode for conditions
  /// with exactly one int64 = int64 equality binding (and only when the
  /// base column is drift-free). Null = probe through `hash`. The probe
  /// site additionally requires the staged detail column to be clean
  /// int64 for the chunk, falling back to `hash` row-wise otherwise.
  std::shared_ptr<Int64HashIndex> typed_hash;
  std::shared_ptr<IntervalIndex> interval;
  /// Binding group of a kHash/kInterval condition; -1 for scan dispatch
  /// and anti-probes.
  int group = -1;
  /// Anti-probe (set on the unfiltered half of a fused `<> ALL` pair
  /// whose θ never reads the base, ψ = `base.k <> detail.k`): a θ-passing
  /// detail tuple violates ψ exactly for the base tuples with
  /// `base.k = detail.k` — one probe of `hash`/`typed_hash` on this key —
  /// or for every base tuple when its key is NULL. Sequential only.
  std::optional<EqBinding> anti_key;
  /// Anti-probe: base tuples with a NULL key, which no ψ accepts.
  std::vector<uint32_t> anti_null_bases;
  uint64_t freeze_bit = 0;  // Nonzero for kSatisfyOnMatch conditions.
  /// Compiled programs for this condition (null = tree interpreter).
  /// `pair_progs` holds the fused pair's *filtered* condition programs,
  /// whose agg_args run after a TRUE pair comparison.
  const GmdjCondPrograms* progs = nullptr;
  const GmdjCondPrograms* pair_progs = nullptr;
};

/// Read-only inputs of one GMDJ evaluation pass over the detail relation.
struct GmdjEvalInput {
  const Table* base = nullptr;
  const Table* detail = nullptr;
  const Schema* base_schema = nullptr;
  const Schema* detail_schema = nullptr;
  const std::vector<GmdjCondRuntime>* runtimes = nullptr;
  size_t total_aggs = 0;
  /// Aggregate kind per flat slot (condition-major order); used to merge
  /// thread-local partial states.
  std::vector<AggKind> agg_kinds;
  /// Lifecycle governance of the enclosing query; null = ungoverned.
  /// Workers poll it at every morsel boundary.
  QueryContext* query = nullptr;
  /// True when the runtimes carry compiled programs; evaluators then stage
  /// detail chunks into a DetailBatch over `batch_columns` and run the
  /// typed register programs instead of the tree interpreter.
  bool compiled = false;
  /// Detail-schema columns the compiled programs and probe/stab key
  /// extraction read (union across conditions); empty in interpret mode.
  std::vector<uint32_t> batch_columns;
  /// Optional |B| x |runtimes| match counters (base-major, then condition)
  /// — the observed RNG(b, R, θ) range sizes EXPLAIN ANALYZE reports as a
  /// histogram. Null (the default) skips collection entirely. Sized and
  /// zeroed by the caller. Counts are "observed" sizes: completion may
  /// retire a base tuple before all its matches are seen.
  std::vector<uint32_t>* rng_counts = nullptr;
};

/// Per-base-tuple outcome of the detail pass, identical in layout between
/// the sequential and parallel evaluators so GmdjNode emits output rows
/// from either with the same code.
struct GmdjEvalResult {
  std::vector<AggState> states;    // |B| x total_aggs, condition-major.
  std::vector<uint8_t> discarded;  // |B|; 1 = excluded from the output.
  size_t num_discarded = 0;
  size_t num_freezes = 0;   // Satisfy-on-match freeze bits set.
  uint64_t batches = 0;     // Staging chunks (sequential) / morsels run.
};

/// Working state of one pass over detail rows — the sequential pass, or
/// one morsel slot — and the per-row steps both evaluators share: chunk
/// staging with detail-only masks, candidate lookup through binding
/// groups, residual checks, and aggregate updates. The evaluators differ
/// only in how their candidate loops record completion decisions (plain
/// flags vs. shared atomics).
class GmdjScan {
 public:
  /// Sizes the state for `in`, which must outlive the scan.
  void Init(const GmdjEvalInput& in);
  bool initialized() const { return in_ != nullptr; }

  /// Starts staging chunk [begin, begin+rows) of the detail relation. In
  /// compiled mode this stages the typed columns and runs every
  /// condition's detail-only conjuncts as batch masks.
  void BeginChunk(size_t begin, size_t rows);
  /// Makes detail row `begin + i` of the current chunk the current row.
  void SetRow(size_t i) {
    detail_row_ = &detail_rows_[chunk_begin_ + i];
    ectx_.SetRow(1, detail_row_);
    scratch_.batch_row = i;
  }

  /// Whether the current detail row passes runtime `ci`'s detail-only
  /// conjuncts.
  bool PassesDetailOnly(size_t ci) {
    if (compiled_) {
      const uint8_t* mask = masks_[ci];
      return mask == nullptr || mask[scratch_.batch_row];
    }
    for (const Expr* e : runtimes_[ci].analysis->detail_only) {
      predicate_evals += 1;
      if (!IsTrue(e->EvalPred(ectx_))) return false;
    }
    return true;
  }

  /// Candidate base tuples of `rt`'s binding for the current detail row:
  /// its hash probe or interval stab — run once per row and binding
  /// group, then shared by the group's other members — or `active` for
  /// scan dispatch. Null when the key is NULL (no match).
  const std::vector<uint32_t>* Candidates(
      const GmdjCondRuntime& rt, const std::vector<uint32_t>& active) {
    if (rt.group < 0) return &active;
    const size_t g = static_cast<size_t>(rt.group);
    if (memo_row_[g] != detail_row_) {
      memo_row_[g] = detail_row_;
      memo_[g] = rt.analysis->strategy == CondStrategy::kHash
                     ? ProbeHash(rt.analysis->eq_bindings, rt)
                     : Stab(rt, &stabs_[g]);
    }
    return memo_[g];
  }

  /// Anti-probe of `rt`: the base tuples whose key equals the current
  /// detail row's; null when that key is NULL.
  const std::vector<uint32_t>* AntiViolators(const GmdjCondRuntime& rt) {
    return ProbeHash(std::span<const EqBinding>(&*rt.anti_key, 1), rt);
  }

  /// Makes base row `b` current and checks `rt`'s residual conjuncts
  /// (`progs` = progs(rt)).
  bool ResidualMatches(const GmdjCondRuntime& rt, const GmdjCondPrograms* progs,
                       uint32_t b) {
    ectx_.SetRow(0, &base_rows_[b]);
    if (progs != nullptr) {
      for (const ExprProgram& prog : progs->residual) {
        predicate_evals += 1;
        if (!IsTrue(prog.EvalPred(ectx_, &scratch_))) return false;
      }
      return true;
    }
    for (const Expr* e : rt.analysis->residual) {
      predicate_evals += 1;
      if (!IsTrue(e->EvalPred(ectx_))) return false;
    }
    return true;
  }

  /// Evaluates a fused ALL pair's comparison ψ on the current pair.
  bool PairMatches(const GmdjCondRuntime& rt);

  /// Folds the current pair into `cond`'s aggregate states `states`
  /// (`progs` null = tree interpreter).
  void UpdateAggs(const GmdjCondition& cond, const GmdjCondPrograms* progs,
                  AggState* states) {
    for (size_t a = 0; a < cond.aggs.size(); ++a) {
      const AggSpec& agg = cond.aggs[a];
      if (agg.kind == AggKind::kCountStar) {
        ++states[a].count;  // Avoids a Value temporary per pair.
      } else if (progs != nullptr && progs->agg_args[a] != nullptr) {
        states[a].Update(agg.kind,
                         progs->agg_args[a]->Eval(ectx_, &scratch_));
      } else {
        states[a].Update(agg.kind, agg.arg->Eval(ectx_));
      }
    }
  }

  /// Programs of `rt` (or its fused pair) in compiled mode, else null.
  const GmdjCondPrograms* progs(const GmdjCondRuntime& rt) const {
    return compiled_ ? rt.progs : nullptr;
  }
  const GmdjCondPrograms* pair_progs(const GmdjCondRuntime& rt) const {
    return compiled_ ? rt.pair_progs : nullptr;
  }

  /// Work counters since the last flush; the owner folds and zeroes them.
  uint64_t predicate_evals = 0;
  uint64_t hash_probes = 0;

 private:
  /// Probes `rt`'s index with the current row's values of `keys`.
  const std::vector<uint32_t>* ProbeHash(std::span<const EqBinding> keys,
                                         const GmdjCondRuntime& rt) {
    // Unboxed int64 probe when the single key column was staged clean for
    // this chunk (CompileRuntimes only built `typed_hash` for drift-free
    // int64 = int64 bindings).
    if (rt.typed_hash != nullptr) {
      const ColumnVector* cv =
          batch_.column(static_cast<uint32_t>(keys[0].detail_col));
      if (cv != nullptr && cv->type == ValueType::kInt64) {
        const size_t i = scratch_.batch_row;
        if (cv->null[i]) return nullptr;  // NULL key: no equality match.
        hash_probes += 1;
        return &rt.typed_hash->Probe(cv->i64[i]);
      }
    }
    return ProbeBoxed(keys, *rt.hash);
  }
  const std::vector<uint32_t>* ProbeBoxed(std::span<const EqBinding> keys,
                                          const HashIndex& hash);
  /// Stabs `rt`'s interval index with the current row's key into `out`.
  const std::vector<uint32_t>* Stab(const GmdjCondRuntime& rt,
                                    std::vector<uint32_t>* out);

  const GmdjEvalInput* in_ = nullptr;
  // Hot-path copies of `in_` fields (one load each per row or pair).
  bool compiled_ = false;
  const GmdjCondRuntime* runtimes_ = nullptr;
  const Row* base_rows_ = nullptr;
  const Row* detail_rows_ = nullptr;
  EvalContext ectx_;
  DetailBatch batch_;
  ExprScratch scratch_;
  ExprVecScratch vec_scratch_;
  // Compiled mode, per runtime: the chunk's detail-only pass mask, and a
  // pointer to it (null when the runtime has no detail-only conjunct).
  std::vector<std::vector<uint8_t>> pass_;
  std::vector<const uint8_t*> masks_;
  size_t chunk_begin_ = 0;
  const Row* detail_row_ = nullptr;  // The current detail row.
  Row probe_key_;
  // Per binding group: the detail row whose candidates `memo_` holds
  // (null = NULL key), and the stab output they may point into.
  std::vector<const Row*> memo_row_;
  std::vector<const std::vector<uint32_t>*> memo_;
  std::vector<std::vector<uint32_t>> stabs_;
};

/// Whether the morsel-parallel evaluator reproduces the sequential
/// output exactly for these conditions. False in two (rare) cases that
/// require the sequential scan order:
///  - a kSatisfyOnMatch condition carrying aggregates other than
///    count(*): its output is the *first* matching row's aggregate, which
///    depends on scan order (the optimizer only derives the action for
///    sole-count(*) conditions, where any first match yields count = 1);
///  - a fused ALL pair whose unfiltered condition also has a completion
///    action: freeze-after-first-match would pick a scan-order-dependent
///    match to test the pair comparison against.
/// It also declines anti-probe pairs: their work is linear, so they have
/// one (sequential) implementation rather than two.
bool ParallelGmdjSupported(const std::vector<GmdjCondRuntime>& runtimes);

/// Morsel-driven parallel GMDJ evaluation (the tentpole of the parallel
/// subsystem). Splits the detail relation into ExecConfig::morsel_rows
/// chunks dispatched over a work-stealing loop; each slot accumulates
/// into a thread-local |B| x total_aggs aggregate table, while base-tuple
/// completion decisions (discard / satisfy-freeze) go through shared
/// per-base atomic flags so they fire exactly once across threads.
/// Thread-local partials are merged with the commutative AggState::Merge.
///
/// Precondition: ParallelGmdjSupported(runtimes). Produces the same
/// GmdjEvalResult as the sequential pass for any thread count and any
/// morsel dispatch order (aggregate inputs permitting: integer arithmetic
/// is exact; double sums reassociate, as in any parallel database).
/// Worker counters (predicate evals, hash probes) accumulate slot-locally
/// within a morsel, flush into sharded obs counters at every morsel
/// boundary (so even aborted runs account their completed morsels), and
/// fold into `stats` once after the loop.
///
/// Error unwinding: workers poll `in.query` (cancellation/deadline) and
/// the "parallel/morsel" fault point at every morsel boundary. The first
/// non-OK Status wins; every later morsel is skipped (drained, not run),
/// so ParallelFor always completes, no pool slot leaks, and the loop
/// returns that first error with `out` left empty. Other queries sharing
/// the pool are unaffected.
Status ExecuteGmdjMorselParallel(const GmdjEvalInput& in,
                                 const ExecConfig& config, ExecStats* stats,
                                 GmdjEvalResult* out);

}  // namespace gmdj

#endif  // GMDJ_PARALLEL_PARALLEL_GMDJ_H_
