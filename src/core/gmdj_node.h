#ifndef GMDJ_CORE_GMDJ_NODE_H_
#define GMDJ_CORE_GMDJ_NODE_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/condition_analysis.h"
#include "exec/gmdj_cache.h"
#include "exec/plan.h"
#include "expr/aggregate.h"
#include "expr/expr.h"
#include "mqo/signature.h"
#include "storage/interval_index.h"

namespace gmdj {

// Shared runtime structures of the GMDJ evaluators; defined in
// parallel/parallel_gmdj.h (which includes this header).
struct GmdjCondRuntime;
struct GmdjCondPrograms;
struct GmdjEvalInput;
struct GmdjEvalResult;

/// One (θ_i, l_i) pair of a GMDJ: a condition over [base, detail] and the
/// aggregate functions computed over RNG(b, R, θ_i).
struct GmdjCondition {
  ExprPtr theta;             // Null means TRUE (all detail rows).
  std::vector<AggSpec> aggs;

  GmdjCondition() = default;
  GmdjCondition(ExprPtr t, std::vector<AggSpec> a)
      : theta(std::move(t)), aggs(std::move(a)) {}
};

/// Per-condition base-tuple completion action (Theorems 4.1 / 4.2).
enum class CompletionAction : unsigned char {
  kNone = 0,
  /// Selection above demands `cnt_i = 0`: the first θ_i match decides the
  /// base tuple negatively — discard it from all further processing.
  kDiscardOnMatch,
  /// Selection demands `cnt_i > 0` and nothing else reads this condition's
  /// aggregates: the first match decides positively — freeze the condition.
  kSatisfyOnMatch,
};

/// An ALL-quantifier condition pair: conditions `filtered` (θ ∧ ψ) and
/// `unfiltered` (θ) with selection `cnt_filtered = cnt_unfiltered`.
/// When completion is enabled the evaluator fuses the pair into one probe
/// pass: a θ match whose comparison ψ is not TRUE decides the base tuple
/// negatively (the counts can never re-converge — they are monotone).
/// This is the GMDJ generalization of the "smart nested loop" the paper's
/// target DBMS used for ALL subqueries.
struct AllPairRule {
  size_t filtered;
  size_t unfiltered;
  ExprPtr cmp;  // ψ, bound over [base, detail].
};

/// Completion specification attached by the optimizer/translator.
struct CompletionSpec {
  std::vector<CompletionAction> actions;  // One per condition (or empty).
  std::vector<AllPairRule> all_pairs;

  bool enabled() const {
    if (!all_pairs.empty()) return true;
    for (const CompletionAction a : actions) {
      if (a != CompletionAction::kNone) return true;
    }
    return false;
  }
};

/// How the GMDJ evaluates its conditions.
enum class GmdjStrategy : unsigned char {
  /// Per-condition dispatch: hash index on equality bindings, interval
  /// tree on range bindings, active-scan otherwise; detail consumed in a
  /// single pass. This is the paper's evaluation algorithm.
  kAuto,
  /// Reference nested-loop evaluation (|B|·|R| per condition); used to
  /// validate kAuto in tests and as an ablation baseline.
  kNaive,
};

/// The Generalized Multi-Dimensional Join operator,
/// MD(B, R, (l_1..l_m), (θ_1..θ_m)) — Definition 2.1 of the paper.
///
/// Output: every base tuple extended with the aggregates of each condition
/// (schema = base schema ++ agg columns in condition order). The detail
/// relation is consumed in a single scan; intermediate state is bounded by
/// |B| (the base-values relation), the property the paper's efficiency
/// argument rests on.
///
/// θ conditions and aggregate arguments bind over two frames:
/// [0] = base schema, [1] = detail schema. Unqualified ambiguous names
/// resolve to the detail frame (innermost-first, the subquery-local scope).
class GmdjNode final : public PlanNode {
 public:
  GmdjNode(PlanPtr base, PlanPtr detail, std::vector<GmdjCondition> conditions,
           GmdjStrategy strategy = GmdjStrategy::kAuto);

  /// Attaches a completion spec (must have one action per condition when
  /// non-empty). Typically called by the translator under
  /// TranslateOptions::completion.
  void SetCompletion(CompletionSpec spec);

  Status Prepare(const Catalog& catalog) override;
  Result<Table> Execute(ExecContext* ctx) const override;
  std::string label() const override;
  std::vector<const PlanNode*> children() const override {
    return {base_.get(), detail_.get()};
  }

  size_t num_conditions() const { return conditions_.size(); }
  const GmdjCondition& condition(size_t i) const { return conditions_[i]; }
  const CompletionSpec& completion() const { return completion_; }

  /// In-place completion editing for the plan optimizer; the caller must
  /// keep `actions` empty or sized to num_conditions().
  CompletionSpec* mutable_completion() { return &completion_; }

  /// Post-Prepare: the dispatch strategy chosen for condition `i`.
  CondStrategy condition_strategy(size_t i) const {
    return analyses_[i].strategy;
  }

  /// Pre-Prepare planner hint: with `allow = false`, condition analysis
  /// extracts no eq/interval bindings — every condition dispatches as a
  /// scan over active base tuples. Used on tiny base relations where an
  /// index build cannot amortize. Result-identical.
  void SetAllowIndexBindings(bool allow) { allow_index_bindings_ = allow; }
  bool allow_index_bindings() const { return allow_index_bindings_; }

  /// Post-Prepare planner hint: the order conditions are probed per
  /// detail tuple (a permutation of [0, num_conditions)); empty restores
  /// declaration order. Output columns stay in declaration order and
  /// per-condition aggregate state is order-independent, so this is
  /// result-identical — it only front-loads cheap dispatches so
  /// completion discards/freezes fire before expensive scans.
  void SetEvalOrder(std::vector<size_t> order);
  const std::vector<size_t>& eval_order() const { return eval_order_; }

  /// Decomposed node contents, for plan rewriting (core/optimizer.cc).
  struct Parts {
    PlanPtr base;
    PlanPtr detail;
    std::vector<GmdjCondition> conditions;
    CompletionSpec completion;
    GmdjStrategy strategy = GmdjStrategy::kAuto;
  };

  /// Moves the node's contents out; the node must be discarded afterwards.
  Parts TakeParts() {
    Parts parts;
    parts.base = std::move(base_);
    parts.detail = std::move(detail_);
    parts.conditions = std::move(conditions_);
    parts.completion = std::move(completion_);
    parts.strategy = strategy_;
    return parts;
  }

  const PlanNode& base() const { return *base_; }
  const PlanNode& detail() const { return *detail_; }
  GmdjStrategy strategy() const { return strategy_; }

  /// Canonical MQO signature; set by Prepare when both inputs are bare
  /// catalog-table scans (the cacheable/shareable shape), else nullopt.
  const std::optional<GmdjSignature>& signature() const { return signature_; }

 private:
  Result<Table> ExecuteNaive(ExecContext* ctx, const Table& base,
                             const Table& detail) const;

  /// The paper's evaluation: one loop over contiguous base ranges
  /// (exec/range_spill.h), each evaluated by the chunk kernel against the
  /// whole detail relation. Base tuples are independent (state is per
  /// base row), so concatenating the ranges in order is exactly the
  /// single-pass output. The whole base is one range unless it does not
  /// fit the budget or the spill scope forces partitions; ranges then
  /// stream their output through a spill file, each re-scanning the
  /// detail.
  Result<Table> ExecuteAuto(ExecContext* ctx, OpScope* scope,
                            const Table& base, const Table& detail) const;

  /// One base range against the whole detail: reserves the range's
  /// aggregate state, builds its indexes, runs the chunk kernel, and
  /// emits the range's output rows. Sets `slot_path[c]` for each runtime
  /// c that ran the slot path (UsesSlotPath) over this range.
  Result<Table> EvalRange(ExecContext* ctx,
                          std::vector<GmdjCondRuntime> runtimes,
                          const Table& base, const Table& detail,
                          std::vector<uint8_t>* slot_path) const;

  /// How the kernel locates one condition's candidate base tuples.
  struct CondRoute {
    int group = -1;         // Binding group (hash/interval dispatch).
    size_t group_size = 0;  // Conditions sharing the group's probe.
    bool fused = false;     // Filtered half of a fused ALL pair.
    std::optional<EqBinding> anti_key;  // Anti-probe (unfiltered half).
  };

  /// Routes the (prepared) conditions by binding: conditions whose
  /// bindings are identical — same base index, same detail key columns —
  /// share a group and so one probe per detail tuple; fused `<> ALL`
  /// pairs whose θ never reads the base and whose ψ is `base.k <>
  /// detail.k` become anti-probes. Anti-probes need completion, so they
  /// only exist on a completing kAuto node.
  std::vector<CondRoute> RouteConditions() const;
  /// EXPLAIN name of condition `c`'s dispatch: hash, interval, scan,
  /// anti-probe, or "<kind>, shared probe ×k".
  std::string RouteLabel(size_t c, const std::vector<CondRoute>& routes) const;

  /// Wires the conditions into dispatch runtimes, once per execution:
  /// routes, completion, and `programs` — detail-only θ conjuncts and
  /// aggregate arguments lowered into batch programs (expr/program.h).
  /// In interpreted mode (GMDJ_EXPR_EVAL=interpret, or an armed
  /// "gmdj/expr-compile" fault, which never fails the query) no tree gets
  /// a program. Per-condition compiled/fallback outcomes are counted into
  /// ctx->stats() and the node's profile.
  std::vector<GmdjCondRuntime> PrepareRuntimes(
      ExecContext* ctx, std::vector<GmdjCondPrograms>* programs) const;

  /// Builds `runtimes`' indexes over `base` (one base range): one
  /// KeyIndex per distinct set of equality key columns, one interval
  /// index per interval binding group, each charged to the query budget
  /// before it is built (a KeyIndex at its build's peak, then its real
  /// size). Non-OK on governance abort (index memory over budget) or an
  /// injected "gmdj/index-build" fault.
  Status BuildIndexes(ExecContext* ctx, const Table& base,
                      std::vector<GmdjCondRuntime>* runtimes) const;

  /// Aggregate kinds in flat (condition-major) order.
  std::vector<AggKind> FlatAggKinds() const;

  /// Assembles the output table from the base rows and per-condition
  /// cached aggregate columns (cache-hit fast path: no detail scan).
  Result<Table> BuildCachedOutput(
      ExecContext* ctx, const Table& base,
      const std::vector<std::vector<CachedAggColumn>>& columns) const;

  /// Slices the computed output's aggregate columns into the cache, one
  /// Store per condition under its share key.
  void StoreInCache(GmdjCacheHook* cache,
                    const std::vector<GmdjCacheKey>& keys,
                    const Table& out) const;

  PlanPtr base_;
  PlanPtr detail_;
  std::vector<GmdjCondition> conditions_;
  GmdjStrategy strategy_;
  CompletionSpec completion_;
  bool allow_index_bindings_ = true;
  std::vector<size_t> eval_order_;

  // Populated by Prepare.
  std::optional<GmdjSignature> signature_;
  std::vector<ConditionAnalysis> analyses_;
  std::vector<size_t> agg_offsets_;  // Start of each condition's aggs.
  size_t total_aggs_ = 0;
  std::vector<ValueType> agg_arg_types_;
};

}  // namespace gmdj

#endif  // GMDJ_CORE_GMDJ_NODE_H_
