#ifndef GMDJ_CORE_CONDITION_ANALYSIS_H_
#define GMDJ_CORE_CONDITION_ANALYSIS_H_

#include <optional>
#include <string>
#include <vector>

#include "expr/expr.h"

namespace gmdj {

/// Equality binding `base.col = detail.col` extracted from a θ condition.
struct EqBinding {
  size_t base_col;
  size_t detail_col;
};

/// Interval binding `detail.col ∈ [base.lo, base.hi]` with per-side
/// strictness, extracted from a pair of range conjuncts (the Hours-table
/// pattern: F.StartTime >= H.StartInterval AND F.StartTime < H.EndInterval).
struct IntervalBinding {
  size_t detail_col;
  size_t base_lo_col;
  bool lo_strict;  // base.lo <  detail.col (vs <=).
  size_t base_hi_col;
  bool hi_strict;  // detail.col <  base.hi (vs <=).
};

/// Evaluation strategy the GMDJ evaluator picks for one condition.
enum class CondStrategy : unsigned char {
  kHash,      // Probe a hash index on the base equality columns.
  kInterval,  // Stab an interval tree built from base range columns.
  kScan,      // Evaluate against every active base tuple.
};

const char* CondStrategyToString(CondStrategy s);

/// Decomposition of a θ condition (bound over frames [0]=base,
/// [1]=detail) into index-able bindings and residual work:
///
///   θ  ≡  eq_bindings ∧ interval ∧ detail_only ∧ residual
///
/// `detail_only` conjuncts reference only the detail frame (or constants)
/// and are evaluated once per detail tuple before any probing;
/// `residual` conjuncts are evaluated per (base, detail) candidate pair.
/// Pointers alias nodes inside the analyzed expression.
struct ConditionAnalysis {
  std::vector<EqBinding> eq_bindings;
  std::optional<IntervalBinding> interval;
  std::vector<const Expr*> detail_only;
  std::vector<const Expr*> residual;
  CondStrategy strategy = CondStrategy::kScan;

  std::string ToString() const;
};

/// Analysis knobs (planner hints — never semantic).
struct ConditionAnalysisOptions {
  /// When false, no eq/interval bindings are extracted: every conjunct
  /// that touches the base frame lands in `residual` with strategy kScan
  /// (detail-only filters still split out). The planner uses this on tiny
  /// base tables where an index build cannot amortize.
  bool allow_index = true;
};

/// Analyzes a bound θ condition. Equality bindings win over interval
/// bindings (a hash probe is strictly narrower here); interval bindings
/// require numeric columns. Disjunctive or exotic conditions safely land
/// in `residual` with strategy kScan — analysis never changes semantics,
/// only the dispatch strategy.
ConditionAnalysis AnalyzeCondition(const Expr& theta, const Schema& base,
                                   const Schema& detail,
                                   const ConditionAnalysisOptions& options = {});

/// Anti-probe key of a fused `<> ALL` pair comparison ψ (bound like θ):
/// for ψ = `base.col <> detail.col`, in either orientation, the binding
/// its negation `base.col = detail.col` gets from AnalyzeCondition. The
/// base tuples ψ rejects for a detail tuple are then exactly one hash
/// probe of its key. Nullopt for any other ψ, and with
/// `options.allow_index` false.
std::optional<EqBinding> AnalyzeAntiBinding(
    const Expr& psi, const ConditionAnalysisOptions& options = {});

}  // namespace gmdj

#endif  // GMDJ_CORE_CONDITION_ANALYSIS_H_
