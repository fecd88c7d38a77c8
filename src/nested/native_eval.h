#ifndef GMDJ_NESTED_NATIVE_EVAL_H_
#define GMDJ_NESTED_NATIVE_EVAL_H_

#include <map>
#include <memory>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "exec/plan.h"
#include "nested/nested_ast.h"
#include "storage/key_index.h"

namespace gmdj {

/// Configuration of the tuple-iteration ("native") engine — the behaviors
/// the paper attributes to its commercial target DBMS in Section 5.
struct NativeOptions {
  /// Early termination: stop scanning a subquery block as soon as its
  /// outcome is decided (EXISTS on first hit, SOME on first true, ALL on
  /// first false). This is the "smart nested loop" the paper observed for
  /// ALL subqueries.
  bool smart_termination = true;

  /// Probe equality-correlated subqueries through a hash index on the
  /// inner table instead of scanning it per outer tuple. Models "all
  /// important attributes were indexed".
  bool use_indexes = true;

  /// Memoize subquery outcomes per distinct correlation-parameter tuple —
  /// the invariant-reuse technique of Rao & Ross (SIGMOD'98) that the
  /// paper cites as one of the optimization schemes the GMDJ generalizes.
  /// Pays off whenever outer tuples repeat correlation values (skewed
  /// foreign keys); costs one hash probe per outer tuple otherwise.
  bool memoize_invariants = false;
};

/// Direct interpreter for nested query expressions with tuple-iteration
/// semantics: for every outer tuple, correlated subqueries are re-evaluated
/// against the (materialized) inner tables.
///
/// Each subquery's *source* is materialized exactly once per Run (it is
/// uncorrelated by construction — correlation lives in the predicates), so
/// the per-tuple cost is iteration/probing, not re-execution; this matches
/// a DBMS holding the inner relation in its buffer pool.
class NativeEvaluator {
 public:
  NativeEvaluator(const Catalog* catalog, NativeOptions options);

  /// Binds and evaluates σ[where](source); returns the qualifying base
  /// rows with the source's schema.
  Result<Table> Run(NestedSelect* query);

  const ExecStats& stats() const { return ctx_.stats(); }

 private:
  struct SubState {
    Table table;  // Materialized subquery source.
    std::unique_ptr<KeyIndex> index;         // Over local equality columns.
    std::vector<const Expr*> probe_exprs;    // Outer-side key expressions.
    // One cell per key expression: the probe key of the current tuple.
    // Mutable: Candidates overwrites the cells for each probe.
    mutable std::vector<Column> probe_cells;
    mutable std::vector<const Column*> probe_cols;
    size_t frame = 0;                        // The block's frame index.
  };

  /// Memoization state for one subquery predicate: the outer-frame slots
  /// its outcome depends on, and the cache keyed by their values.
  struct MemoState {
    std::vector<std::pair<size_t, size_t>> param_slots;  // (frame, column).
    std::unordered_map<Row, TriBool, RowHash, RowEq> cache;
    // Comparison subqueries cache the subquery's *value* instead, keyed by
    // the block's own parameters only — outer tuples with different lhs
    // but the same correlation still share one evaluation.
    std::unordered_map<Row, Value, RowHash, RowEq> value_cache;
  };

  /// Returns the memo entry for `pred` (building the parameter-slot list
  /// on first use from the bound refs below `sub_frame`), or null when
  /// memoization is off. `key` receives the current parameter values.
  /// With `block_params_only`, the slots cover only the subquery block
  /// (not the predicate's lhs) — the value-cache keying.
  MemoState* MemoFor(const Pred& pred, size_t sub_frame,
                     const EvalContext& ctx, Row* key,
                     bool block_params_only = false);

  /// Materializes subquery sources and builds probe indexes; `depth` is
  /// the frame index of the enclosing block.
  Status PrepareSubqueries(Pred* pred, size_t depth);
  Status PrepareBlock(NestedSelect* sub, size_t depth);

  Result<TriBool> EvalPred(const Pred& pred, EvalContext* ctx);
  Result<TriBool> EvalExists(const ExistsPred& pred, EvalContext* ctx);
  Result<TriBool> EvalCompareSub(const CompareSubPred& pred,
                                 EvalContext* ctx);
  Result<TriBool> EvalQuantSub(const QuantSubPred& pred, EvalContext* ctx);

  /// Row indices of `state.table` to visit for the current outer tuples
  /// (all rows, or an index probe when available).
  std::span<const uint32_t> Candidates(const SubState& state,
                                       EvalContext* ctx,
                                       std::vector<uint32_t>* scratch);

  const Catalog* catalog_;
  NativeOptions options_;
  ExecContext ctx_;
  std::map<const NestedSelect*, SubState> substates_;
  std::map<const Pred*, MemoState> memos_;
};

}  // namespace gmdj

#endif  // GMDJ_NESTED_NATIVE_EVAL_H_
