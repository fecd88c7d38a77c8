#ifndef GMDJ_EXPR_AGGREGATE_H_
#define GMDJ_EXPR_AGGREGATE_H_

#include <memory>
#include <string>
#include <type_traits>
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
/// The boxed form: its MIN/MAX extreme is a Value, so it folds strings and
/// mixed-type inputs (72 bytes, with a heap string when the extreme is
/// one). It serves where there is no GMDJ kernel or where it is the
/// reference: the gmdj-naive evaluation (GmdjNode::ExecuteNaive),
/// GroupAggregateNode and NativeEvaluator. The kernel folds into
/// TypedAggColumn, which TypedFoldTest checks against this.
struct AggState {
  int64_t count = 0;       // Non-null inputs seen (or tuples for count(*)).
  double sum_d = 0.0;      // Running sum (double accumulation).
  int64_t sum_i = 0;       // Running sum when all inputs are INT64.
  bool sum_is_int = true;
  Value extreme;           // Current min/max (NULL until first input).

  /// Folds `v` into the state for aggregate kind `kind`.
  void Update(AggKind kind, const Value& v);

  /// Folds another partial state into this one. All supported aggregates
  /// are commutative and associative over partials (counts and integer
  /// sums exactly; double sums up to reassociation rounding): the
  /// reference for TypedAggColumn::Merge.
  void Merge(AggKind kind, const AggState& other);

  /// Final value. `arg_type` disambiguates the SUM output type.
  Value Finalize(AggKind kind, ValueType arg_type) const;
};

/// Calls `fn` with the kind constant TypedAggColumn's typed Add folds
/// `kind` by (AVG folds as SUM; count(*) folds nothing).
template <typename Fn>
void WithFoldKind(AggKind kind, const Fn& fn) {
  switch (kind) {
    case AggKind::kCount:
      return fn(std::integral_constant<AggKind, AggKind::kCount>());
    case AggKind::kSum:
    case AggKind::kAvg:
      return fn(std::integral_constant<AggKind, AggKind::kSum>());
    case AggKind::kMin:
      return fn(std::integral_constant<AggKind, AggKind::kMin>());
    case AggKind::kMax:
      return fn(std::integral_constant<AggKind, AggKind::kMax>());
    case AggKind::kCountStar:
      return;
  }
}

/// Running states of one count/sum/avg/min/max aggregate over `n` groups,
/// as struct-of-arrays: the GMDJ kernel's one accumulator store. Its lane
/// is picked once from the argument's bound type: a count (count, sum,
/// avg), an int64 or double sum or extreme, and a has-value byte (min,
/// max), 8 to 16 bytes per group. MIN/MAX over any other `arg_type`
/// (STRING, or kNull: a NULL argument, or one whose values' type is not
/// known) keep a Value extreme ordered as AggState orders it: 40 bytes,
/// against AggState's 72. COUNT takes any argument type.
///
/// Folding a group's inputs in one order gives the same Finalize as
/// AggState::Update over the same inputs, bit for bit: an int64 argument
/// sums exactly, a double one from 0.0 in fold order.
class TypedAggColumn {
 public:
  TypedAggColumn(AggKind kind, ValueType arg_type, size_t n);

  AggKind kind() const { return kind_; }
  bool is_double() const { return is_double_; }

  /// Folds a non-NULL input into group `g`; `K` is kind(), and the lane is
  /// the input's type.
  template <AggKind K>
  void Add(size_t g, int64_t v) {
    Fold<K>(g, v, values_i_.data());
  }
  template <AggKind K>
  void Add(size_t g, double v) {
    Fold<K>(g, v, values_d_.data());
  }
  /// Folds `v` into group `g`, skipping NULL: the per-row path for inputs
  /// that arrive boxed.
  void Add(size_t g, const Value& v);

  /// Folds group `other_g` of `other` (same kind and lane) into group `g`.
  void Merge(size_t g, const TypedAggColumn& other, size_t other_g);

  /// Group `g`'s final value, as AggState::Finalize(kind(), arg_type) for
  /// the column's `arg_type`.
  Value Finalize(size_t g) const;

  /// Bytes per group of a column built with these arguments.
  static size_t BytesPerGroup(AggKind kind, ValueType arg_type);

 private:
  /// Whether MIN/MAX over such an argument keeps a Value extreme.
  static bool UsesValueLane(AggKind kind, ValueType arg_type);

  template <AggKind K, typename T>
  void Fold(size_t g, T v, T* values) {
    if constexpr (K == AggKind::kCount) {
      ++counts_[g];
    } else if constexpr (K == AggKind::kSum || K == AggKind::kAvg) {
      ++counts_[g];
      values[g] += v;
    } else {
      static_assert(K == AggKind::kMin || K == AggKind::kMax);
      if (!has_[g] || (K == AggKind::kMin ? v < values[g] : v > values[g])) {
        values[g] = v;
        has_[g] = 1;
      }
    }
  }

  AggKind kind_;
  bool is_double_;
  bool value_lane_;
  std::vector<int64_t> counts_;   // count, sum, avg.
  std::vector<int64_t> values_i_;  // Sum or extreme, int64 argument.
  std::vector<double> values_d_;   // Sum or extreme, double argument.
  std::vector<uint8_t> has_;       // min, max: the group saw an input.
  std::vector<Value> values_v_;    // min, max: the Value lane's extreme.
};

}  // namespace gmdj

#endif  // GMDJ_EXPR_AGGREGATE_H_
