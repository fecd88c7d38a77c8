#ifndef GMDJ_EXPR_AGGREGATE_H_
#define GMDJ_EXPR_AGGREGATE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "expr/expr.h"
#include "types/value.h"

namespace gmdj {

/// SQL aggregate functions supported by the engine.
enum class AggKind : unsigned char {
  kCountStar,  // count(*): counts tuples, never NULL-sensitive.
  kCount,      // count(x): counts non-NULL x.
  kSum,
  kMin,
  kMax,
  kAvg,
};

const char* AggKindToString(AggKind kind);

/// One aggregate column specification: `f(arg) -> output_name` in the
/// paper's `l_i` lists. `arg` is null for count(*).
struct AggSpec {
  AggKind kind = AggKind::kCountStar;
  ExprPtr arg;  // Null for kCountStar.
  std::string output_name;

  AggSpec() = default;
  AggSpec(AggKind k, ExprPtr a, std::string name)
      : kind(k), arg(std::move(a)), output_name(std::move(name)) {}

  AggSpec Clone() const {
    return AggSpec(kind, arg ? arg->Clone() : nullptr, output_name);
  }

  /// Binds the argument expression; computes the output type.
  Status Bind(const std::vector<const Schema*>& frames);

  /// Output column type (valid after Bind): count/count(*) are INT64,
  /// avg is DOUBLE, sum/min/max follow the argument type.
  ValueType output_type() const { return output_type_; }

  /// "sum(F.NumBytes) -> sum1".
  std::string ToString() const;

 private:
  ValueType output_type_ = ValueType::kInt64;
};

/// Shorthand constructors mirroring the paper's notation.
AggSpec CountStar(std::string name);
AggSpec CountOf(ExprPtr arg, std::string name);
AggSpec SumOf(ExprPtr arg, std::string name);
AggSpec MinOf(ExprPtr arg, std::string name);
AggSpec MaxOf(ExprPtr arg, std::string name);
AggSpec AvgOf(ExprPtr arg, std::string name);

/// Running state for one aggregate over one group, with SQL NULL
/// semantics: NULL inputs are skipped; sum/min/max/avg of an empty (or
/// all-NULL) multiset is NULL; counts of it are 0.
///
/// The struct is intentionally small and trivially copyable: the GMDJ
/// evaluator keeps |B| x m of these inline in its base-result structure.
struct AggState {
  int64_t count = 0;       // Non-null inputs seen (or tuples for count(*)).
  double sum_d = 0.0;      // Running sum (double accumulation).
  int64_t sum_i = 0;       // Running sum when all inputs are INT64.
  bool sum_is_int = true;
  Value extreme;           // Current min/max (NULL until first input).

  /// Folds `v` into the state for aggregate kind `kind`.
  void Update(AggKind kind, const Value& v);

  /// Typed forms of Update for a non-NULL int64 / double input (callers
  /// skip NULLs, as Update does): the resulting state is bit-identical to
  /// Update(kind, Value(v)), including the int-to-double sum migration
  /// and MIN/MAX against an extreme of another type. Not for kCountStar.
  void UpdateInt64(AggKind kind, int64_t v) {
    switch (kind) {
      case AggKind::kSum:
      case AggKind::kAvg:
        ++count;
        if (sum_is_int) {
          sum_i += v;
        } else {
          sum_d += static_cast<double>(v);
        }
        return;
      case AggKind::kMin:
      case AggKind::kMax:
        ++count;
        if (extreme.type() == ValueType::kInt64) {
          if (kind == AggKind::kMin ? v < extreme.int64()
                                    : v > extreme.int64()) {
            extreme = Value(v);
          }
          return;
        }
        UpdateExtreme(kind, Value(v));
        return;
      default:
        ++count;
        return;
    }
  }
  void UpdateDouble(AggKind kind, double v) {
    switch (kind) {
      case AggKind::kSum:
      case AggKind::kAvg:
        ++count;
        if (sum_is_int) {
          sum_d = static_cast<double>(sum_i);
          sum_is_int = false;
        }
        sum_d += v;
        return;
      case AggKind::kMin:
      case AggKind::kMax:
        ++count;
        if (extreme.type() == ValueType::kDouble) {
          if (kind == AggKind::kMin ? v < extreme.dbl() : v > extreme.dbl()) {
            extreme = Value(v);
          }
          return;
        }
        UpdateExtreme(kind, Value(v));
        return;
      default:
        ++count;
        return;
    }
  }

  /// Folds another partial state into this one. All supported aggregates
  /// are commutative and associative over partials (counts and integer
  /// sums exactly; double sums up to reassociation rounding), which is
  /// what lets the parallel GMDJ evaluator accumulate into thread-local
  /// tables and merge afterwards.
  void Merge(AggKind kind, const AggState& other);

  /// Final value. `arg_type` disambiguates the SUM output type.
  Value Finalize(AggKind kind, ValueType arg_type) const;

 private:
  /// MIN/MAX step for a non-NULL `v` (count already taken).
  void UpdateExtreme(AggKind kind, const Value& v) {
    if (extreme.is_null() ||
        (kind == AggKind::kMin ? v.Compare(extreme) < 0
                               : v.Compare(extreme) > 0)) {
      extreme = v;
    }
  }
};

}  // namespace gmdj

#endif  // GMDJ_EXPR_AGGREGATE_H_
