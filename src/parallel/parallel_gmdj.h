#ifndef GMDJ_PARALLEL_PARALLEL_GMDJ_H_
#define GMDJ_PARALLEL_PARALLEL_GMDJ_H_

#include <memory>
#include <optional>
#include <vector>

#include "core/gmdj_node.h"
#include "exec/plan.h"
#include "expr/aggregate.h"
#include "expr/program.h"
#include "parallel/exec_config.h"
#include "storage/interval_index.h"
#include "storage/key_index.h"
#include "storage/table.h"

namespace gmdj {

/// How the chunk kernel folds one aggregate.
enum class AggFold : unsigned char {
  kCountStar,  // Increments the count; no argument.
  kColumn,     // Reads the int64/double argument column in place.
  kBatch,      // Detail-only argument, evaluated once per chunk (EvalBatch).
  kValue,      // Per-pair Expr::Eval through TypedAggColumn::Add(Value):
               // strings, base-reading arguments, no program.
};

/// Batch programs of one GMDJ condition (expr/program.h), built by
/// GmdjNode::PrepareRuntimes for its detail-only conjuncts and aggregate
/// arguments. An empty program — a tree Compile declines, or every tree
/// when the evaluation mode or the "gmdj/expr-compile" fault point asks
/// for the tree interpreter — leaves its tree to Expr::EvalPred / Eval
/// per row, as are the residual conjuncts and the pair comparison ψ,
/// which read both frames.
struct GmdjCondPrograms {
  /// Aligned with analysis->detail_only.
  std::vector<std::optional<ExprProgram>> detail_only;
  /// Aligned with cond->aggs; empty for count(*) (no argument).
  std::vector<std::optional<ExprProgram>> agg_args;
  /// Aligned with cond->aggs: the fold each aggregate takes.
  std::vector<AggFold> agg_folds;
  /// Compiled mode, and every detail-only conjunct and aggregate argument
  /// has a program.
  bool lowered = false;
};

/// Runtime form of one GMDJ condition: dispatch strategy plus completion
/// wiring, with indexes over one base range. Built by GmdjNode and shared
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
  /// Base index on the equality bindings' (or the anti-probe key's) base
  /// columns, shared by every condition with the same key columns.
  std::shared_ptr<KeyIndex> index;
  std::shared_ptr<IntervalIndex> interval;
  /// Binding group of a kHash/kInterval condition; -1 for scan dispatch
  /// and anti-probes.
  int group = -1;
  /// Anti-probe (set on the unfiltered half of a fused `<> ALL` pair
  /// whose θ never reads the base, ψ = `base.k <> detail.k`): a θ-passing
  /// detail tuple violates ψ exactly for the base tuples with
  /// `base.k = detail.k` — one probe of `index` on this key —
  /// or for every base tuple when its key is NULL. Sequential only.
  std::optional<EqBinding> anti_key;
  /// Anti-probe: base tuples with a NULL key, which no ψ accepts.
  std::vector<uint32_t> anti_null_bases;
  uint64_t freeze_bit = 0;  // Nonzero for kSatisfyOnMatch conditions.
  /// Programs for this condition. `pair_progs` holds the fused pair's
  /// *filtered* condition programs, whose agg_args run after a TRUE pair
  /// comparison.
  const GmdjCondPrograms* progs = nullptr;
  const GmdjCondPrograms* pair_progs = nullptr;
};

/// Whether runtime `rt` folds over its binding group's slot vector: the
/// group's index is unique, so each detail row has at most one candidate
/// base tuple, and `rt` has no residual or pair comparison to check per
/// candidate. An unfiltered condition then folds by scatter, in its
/// binding group's one pass over the slot vector per chunk; a discard- or
/// satisfy-on-match one (count(*) only) runs its completion per row.
/// Every other condition walks candidate spans.
bool UsesSlotPath(const GmdjCondRuntime& rt);

/// Where the base-results table keeps each condition's match count and
/// each flat aggregate's running state: count(*) reads a match count, and
/// every other aggregate has a TypedAggColumn. Built from the runtimes of
/// one node execution (BuildResultLayout).
///
/// A match count is one uint32 per base tuple: the observed RNG(b, R, θ)
/// size EXPLAIN ANALYZE reports, and the value of every count(*) of the
/// condition. The unfiltered members of a binding group without a
/// detail-only mask of their own match the same rows, so they share one
/// count; every other condition has its own. (Counts are "observed":
/// completion may retire a base tuple before all its matches are seen.)
struct GmdjResultLayout {
  enum class Store : unsigned char { kMatchCount, kTyped };
  struct Home {
    Store store = Store::kMatchCount;
    uint32_t index = 0;  // Match count or typed column.
  };

  /// Per runtime: its match count, and whether it bumps it (false when
  /// an earlier member of its binding group shares it).
  std::vector<uint32_t> count_of;
  std::vector<uint8_t> counts_owner;
  /// Per runtime carrying a fused pair: the filtered condition's count.
  std::vector<uint32_t> pair_count_of;
  size_t num_counts = 0;
  /// Per flat aggregate (condition-major order).
  std::vector<Home> homes;
  /// Per typed column: the arguments of its TypedAggColumn.
  struct TypedSpec {
    AggKind kind;
    ValueType arg_type;  // The bound type; kNull for a per-pair MIN/MAX.
  };
  std::vector<TypedSpec> typed;

  /// Bytes of the base-results table per base tuple.
  size_t BytesPerBase() const;
};

/// `arg_types` holds each flat aggregate's bound argument type (kInt64 for
/// count(*)).
GmdjResultLayout BuildResultLayout(
    const std::vector<GmdjCondRuntime>& runtimes,
    const std::vector<ValueType>& arg_types);

/// The |B| x m base-results table of one pass (or one morsel slot's
/// partial of it): match counts, and one TypedAggColumn per aggregate
/// other than count(*).
class GmdjResults {
 public:
  void Init(const GmdjResultLayout& layout, size_t n);

  uint32_t* counts(size_t k) { return counts_.data() + k * n_; }
  const uint32_t* counts(size_t k) const { return counts_.data() + k * n_; }
  TypedAggColumn& typed(size_t t) { return typed_[t]; }

  /// Adds `other`'s match counts for every base tuple and merges its
  /// aggregates for the base tuples `keep(b)` accepts.
  template <typename Keep>
  void Merge(const GmdjResults& other, const Keep& keep);

  /// Flat aggregate `flat` of base tuple `b`: its final SQL value.
  Value Finalize(size_t b, size_t flat) const;

 private:
  const GmdjResultLayout* layout_ = nullptr;
  size_t n_ = 0;
  std::vector<uint32_t> counts_;  // num_counts x |B|.
  std::vector<TypedAggColumn> typed_;
};

/// Read-only inputs of one GMDJ evaluation pass over the detail relation.
struct GmdjEvalInput {
  const Table* base = nullptr;
  const Table* detail = nullptr;
  const std::vector<GmdjCondRuntime>* runtimes = nullptr;
  const GmdjResultLayout* layout = nullptr;
  /// Lifecycle governance of the enclosing query; null = ungoverned.
  /// Workers poll it at every morsel boundary.
  QueryContext* query = nullptr;
};

/// Per-base-tuple outcome of the detail pass, identical in layout between
/// the sequential and parallel evaluators so GmdjNode emits output rows
/// from either with the same code.
struct GmdjEvalResult {
  GmdjResults table;
  std::vector<uint8_t> discarded;  // |B|; 1 = excluded from the output.
  size_t num_discarded = 0;
  size_t num_freezes = 0;   // Satisfy-on-match freeze bits set.
  uint64_t batches = 0;     // Chunks (sequential) / morsels run.
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

/// The paper's sequential single-scan evaluation, and the reference the
/// morsel-parallel evaluator must reproduce. Runs the chunk kernel over
/// the whole detail relation with plain completion flags, polling `ctx`
/// and folding the work counters into its stats at every chunk. Non-OK
/// only on governance abort or an injected fault; `out` is then
/// incomplete and must be discarded.
Status ExecuteGmdjSequential(ExecContext* ctx, const GmdjEvalInput& in,
                             GmdjEvalResult* out);

/// Morsel-driven parallel GMDJ evaluation (the tentpole of the parallel
/// subsystem). Splits the detail relation into ExecConfig::morsel_rows
/// chunks dispatched over a work-stealing loop; each slot accumulates
/// into a thread-local base-results table, while base-tuple completion
/// decisions (discard / satisfy-freeze) go through shared per-base atomic
/// flags so they fire exactly once across threads. Thread-local partials
/// are merged with the commutative GmdjResults::Merge.
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
