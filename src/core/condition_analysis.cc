#include "core/condition_analysis.h"

#include "expr/expr_analysis.h"

namespace gmdj {
namespace {

bool IsNumericType(ValueType t) {
  return t == ValueType::kInt64 || t == ValueType::kDouble;
}

// A range conjunct `detail.col (op) base.col` in canonical orientation.
struct RangeConjunct {
  size_t detail_col;
  size_t base_col;
  bool is_lower;  // base.col is a lower bound of detail.col.
  bool strict;
  const Expr* node;
};

// Returns the column index when `e` is a bare column ref bound to `frame`.
std::optional<size_t> AsFrameColumn(const Expr& e, size_t frame) {
  if (e.kind() != ExprKind::kColumnRef) return std::nullopt;
  const auto& ref = static_cast<const ColumnRefExpr&>(e);
  if (ref.bound_frame() != frame) return std::nullopt;
  return ref.bound_column();
}

// The binding of `base.col (op) detail.col` in either orientation, when
// both sides are bare columns of the two frames.
std::optional<EqBinding> ColumnPair(const CompareExpr& cmp) {
  const auto bl = AsFrameColumn(cmp.lhs(), 0);
  const auto dr = AsFrameColumn(cmp.rhs(), 1);
  if (bl.has_value() && dr.has_value()) return EqBinding{*bl, *dr};
  const auto dl = AsFrameColumn(cmp.lhs(), 1);
  const auto br = AsFrameColumn(cmp.rhs(), 0);
  if (dl.has_value() && br.has_value()) return EqBinding{*br, *dl};
  return std::nullopt;
}

}  // namespace

const char* CondStrategyToString(CondStrategy s) {
  switch (s) {
    case CondStrategy::kHash:
      return "hash";
    case CondStrategy::kInterval:
      return "interval";
    case CondStrategy::kScan:
      return "scan";
  }
  return "?";
}

std::string ConditionAnalysis::ToString() const {
  std::string out = CondStrategyToString(strategy);
  out += " eq=" + std::to_string(eq_bindings.size());
  out += interval.has_value() ? " interval=yes" : " interval=no";
  out += " detail_only=" + std::to_string(detail_only.size());
  out += " residual=" + std::to_string(residual.size());
  return out;
}

ConditionAnalysis AnalyzeCondition(const Expr& theta, const Schema& base,
                                   const Schema& detail,
                                   const ConditionAnalysisOptions& options) {
  ConditionAnalysis out;
  std::vector<RangeConjunct> ranges;

  for (const Expr* conj : SplitConjuncts(theta)) {
    // Conjuncts that never look at the base frame are per-detail filters.
    const std::set<size_t> frames = FramesUsed(*conj);
    if (!frames.count(0)) {
      out.detail_only.push_back(conj);
      continue;
    }
    if (!options.allow_index) {
      // Forced scan dispatch: keep the per-detail split above, but treat
      // every base-touching conjunct as per-pair residual work.
      out.residual.push_back(conj);
      continue;
    }
    if (conj->kind() == ExprKind::kCompare) {
      const auto& cmp = static_cast<const CompareExpr&>(*conj);
      const auto bl = AsFrameColumn(cmp.lhs(), 0);
      const auto br = AsFrameColumn(cmp.rhs(), 0);
      const auto dl = AsFrameColumn(cmp.lhs(), 1);
      const auto dr = AsFrameColumn(cmp.rhs(), 1);
      if (cmp.op() == CompareOp::kEq) {
        if (const auto eq = ColumnPair(cmp); eq.has_value()) {
          out.eq_bindings.push_back(*eq);
          continue;
        }
      } else if (cmp.op() != CompareOp::kNe) {
        // Orient to `detail.col (op) base.col`.
        std::optional<RangeConjunct> rc;
        if (dl.has_value() && br.has_value()) {
          // detail OP base.
          const bool lower = cmp.op() == CompareOp::kGt ||
                             cmp.op() == CompareOp::kGe;  // detail > base.
          rc = RangeConjunct{*dl, *br, lower,
                             cmp.op() == CompareOp::kGt ||
                                 cmp.op() == CompareOp::kLt,
                             conj};
        } else if (bl.has_value() && dr.has_value()) {
          // base OP detail  ==  detail (mirror OP) base.
          const bool lower = cmp.op() == CompareOp::kLt ||
                             cmp.op() == CompareOp::kLe;  // base < detail.
          rc = RangeConjunct{*dr, *bl, lower,
                             cmp.op() == CompareOp::kGt ||
                                 cmp.op() == CompareOp::kLt,
                             conj};
        }
        if (rc.has_value() &&
            IsNumericType(detail.field(rc->detail_col).type) &&
            IsNumericType(base.field(rc->base_col).type)) {
          ranges.push_back(*rc);
          continue;
        }
      }
    }
    out.residual.push_back(conj);
  }

  if (!out.eq_bindings.empty()) {
    // Hash dispatch; leftover range conjuncts become residual work.
    out.strategy = CondStrategy::kHash;
    for (const RangeConjunct& rc : ranges) out.residual.push_back(rc.node);
    return out;
  }

  // Pair up a lower and an upper bound on the same detail column.
  for (size_t lo = 0; lo < ranges.size() && !out.interval.has_value(); ++lo) {
    if (!ranges[lo].is_lower) continue;
    for (size_t hi = 0; hi < ranges.size(); ++hi) {
      if (ranges[hi].is_lower) continue;
      if (ranges[hi].detail_col != ranges[lo].detail_col) continue;
      out.interval = IntervalBinding{ranges[lo].detail_col,
                                     ranges[lo].base_col, ranges[lo].strict,
                                     ranges[hi].base_col, ranges[hi].strict};
      // Every other range conjunct is residual.
      for (size_t k = 0; k < ranges.size(); ++k) {
        if (k != lo && k != hi) out.residual.push_back(ranges[k].node);
      }
      break;
    }
  }
  if (out.interval.has_value()) {
    out.strategy = CondStrategy::kInterval;
    return out;
  }
  for (const RangeConjunct& rc : ranges) out.residual.push_back(rc.node);
  out.strategy = CondStrategy::kScan;
  return out;
}

std::optional<EqBinding> AnalyzeAntiBinding(
    const Expr& psi, const ConditionAnalysisOptions& options) {
  if (!options.allow_index || psi.kind() != ExprKind::kCompare) {
    return std::nullopt;
  }
  const auto& cmp = static_cast<const CompareExpr&>(psi);
  if (cmp.op() != CompareOp::kNe) return std::nullopt;
  return ColumnPair(cmp);
}

}  // namespace gmdj
