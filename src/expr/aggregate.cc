#include "expr/aggregate.h"

#include "common/check.h"
#include "common/str_util.h"

namespace gmdj {
namespace {

/// MIN/MAX step: folds `v` into `extreme` (NULL until the first input),
/// skipping NULL.
void FoldExtreme(AggKind kind, const Value& v, Value* extreme) {
  if (!v.is_null() &&
      (extreme->is_null() || (kind == AggKind::kMin
                                  ? v.Compare(*extreme) < 0
                                  : v.Compare(*extreme) > 0))) {
    *extreme = v;
  }
}

}  // namespace

const char* AggKindToString(AggKind kind) {
  switch (kind) {
    case AggKind::kCountStar:
      return "count(*)";
    case AggKind::kCount:
      return "count";
    case AggKind::kSum:
      return "sum";
    case AggKind::kMin:
      return "min";
    case AggKind::kMax:
      return "max";
    case AggKind::kAvg:
      return "avg";
  }
  return "?";
}

Status AggSpec::Bind(const std::vector<const Schema*>& frames) {
  if (kind == AggKind::kCountStar) {
    if (arg != nullptr) {
      return Status::InvalidArgument("count(*) takes no argument");
    }
    output_type_ = ValueType::kInt64;
    return Status::OK();
  }
  if (arg == nullptr) {
    return Status::InvalidArgument(std::string(AggKindToString(kind)) +
                                   " requires an argument");
  }
  GMDJ_RETURN_IF_ERROR(arg->Bind(frames));
  switch (kind) {
    case AggKind::kCount:
      output_type_ = ValueType::kInt64;
      break;
    case AggKind::kAvg:
      output_type_ = ValueType::kDouble;
      break;
    case AggKind::kSum:
    case AggKind::kMin:
    case AggKind::kMax:
      output_type_ = arg->result_type();
      break;
    case AggKind::kCountStar:
      break;  // Unreachable.
  }
  if ((kind == AggKind::kSum || kind == AggKind::kAvg) &&
      arg->result_type() == ValueType::kString) {
    return Status::InvalidArgument(
        StrCat({AggKindToString(kind), "(", arg->ToString(),
                ") takes a numeric argument, not STRING"}));
  }
  return Status::OK();
}

std::string AggSpec::ToString() const {
  std::string out = AggKindToString(kind);
  if (kind != AggKind::kCountStar) {
    out.append("(").append(arg->ToString()).append(")");
  }
  out.append(" -> ").append(output_name);
  return out;
}

AggSpec CountStar(std::string name) {
  return AggSpec(AggKind::kCountStar, nullptr, std::move(name));
}
AggSpec CountOf(ExprPtr arg, std::string name) {
  return AggSpec(AggKind::kCount, std::move(arg), std::move(name));
}
AggSpec SumOf(ExprPtr arg, std::string name) {
  return AggSpec(AggKind::kSum, std::move(arg), std::move(name));
}
AggSpec MinOf(ExprPtr arg, std::string name) {
  return AggSpec(AggKind::kMin, std::move(arg), std::move(name));
}
AggSpec MaxOf(ExprPtr arg, std::string name) {
  return AggSpec(AggKind::kMax, std::move(arg), std::move(name));
}
AggSpec AvgOf(ExprPtr arg, std::string name) {
  return AggSpec(AggKind::kAvg, std::move(arg), std::move(name));
}

void AggState::Update(AggKind kind, const Value& v) {
  if (kind == AggKind::kCountStar) {
    ++count;
    return;
  }
  if (v.is_null()) return;  // SQL aggregates skip NULLs.
  switch (kind) {
    case AggKind::kCount:
      ++count;
      break;
    case AggKind::kSum:
    case AggKind::kAvg:
      ++count;
      if (v.type() == ValueType::kInt64 && sum_is_int) {
        sum_i += v.int64();
      } else {
        if (sum_is_int) {
          // First double input: migrate the integer accumulator.
          sum_d = static_cast<double>(sum_i);
          sum_is_int = false;
        }
        sum_d += v.AsDouble();
      }
      break;
    case AggKind::kMin:
    case AggKind::kMax:
      ++count;
      FoldExtreme(kind, v, &extreme);
      break;
    case AggKind::kCountStar:
      break;  // Unreachable.
  }
}

void AggState::Merge(AggKind kind, const AggState& other) {
  switch (kind) {
    case AggKind::kCountStar:
    case AggKind::kCount:
      count += other.count;
      break;
    case AggKind::kSum:
    case AggKind::kAvg:
      count += other.count;
      if (sum_is_int && other.sum_is_int) {
        sum_i += other.sum_i;
      } else {
        const double mine = sum_is_int ? static_cast<double>(sum_i) : sum_d;
        const double theirs =
            other.sum_is_int ? static_cast<double>(other.sum_i) : other.sum_d;
        sum_d = mine + theirs;
        sum_is_int = false;
      }
      break;
    case AggKind::kMin:
    case AggKind::kMax:
      count += other.count;
      FoldExtreme(kind, other.extreme, &extreme);
      break;
  }
}

Value AggState::Finalize(AggKind kind, ValueType arg_type) const {
  switch (kind) {
    case AggKind::kCountStar:
    case AggKind::kCount:
      return Value(count);
    case AggKind::kSum:
      if (count == 0) return Value::Null();  // SUM of nothing is NULL.
      if (sum_is_int && arg_type == ValueType::kInt64) return Value(sum_i);
      return Value(sum_is_int ? static_cast<double>(sum_i) : sum_d);
    case AggKind::kAvg: {
      if (count == 0) return Value::Null();
      const double total = sum_is_int ? static_cast<double>(sum_i) : sum_d;
      return Value(total / static_cast<double>(count));
    }
    case AggKind::kMin:
    case AggKind::kMax:
      return extreme;  // NULL when no inputs: MIN/MAX of nothing is NULL.
  }
  return Value::Null();
}

bool TypedAggColumn::UsesValueLane(AggKind kind, ValueType arg_type) {
  return (kind == AggKind::kMin || kind == AggKind::kMax) &&
         arg_type != ValueType::kInt64 && arg_type != ValueType::kDouble;
}

TypedAggColumn::TypedAggColumn(AggKind kind, ValueType arg_type, size_t n)
    : kind_(kind),
      is_double_(arg_type == ValueType::kDouble),
      value_lane_(UsesValueLane(kind, arg_type)) {
  GMDJ_CHECK(kind != AggKind::kCountStar);
  if (kind == AggKind::kMin || kind == AggKind::kMax) {
    if (value_lane_) {
      values_v_.assign(n, Value::Null());
      return;
    }
    has_.assign(n, 0);
  } else {
    counts_.assign(n, 0);
    if (kind == AggKind::kCount) return;
    GMDJ_CHECK(arg_type != ValueType::kString);  // Rejected by Bind.
  }
  if (is_double_) {
    values_d_.assign(n, 0.0);
  } else {
    values_i_.assign(n, 0);
  }
}

void TypedAggColumn::Add(size_t g, const Value& v) {
  if (v.is_null()) return;
  if (kind_ == AggKind::kCount) {
    ++counts_[g];
    return;
  }
  if (value_lane_) {
    FoldExtreme(kind_, v, &values_v_[g]);
    return;
  }
  // Bind keeps strings from SUM/AVG, and a MIN/MAX folded per pair (whose
  // values may stray from the bound type) has a Value lane. So an int64
  // lane sees int64 values; a double one may see an int64 (a CASE branch),
  // which folds as its double.
  GMDJ_CHECK(v.type() == ValueType::kInt64 ||
             (is_double_ && v.type() == ValueType::kDouble));
  WithFoldKind(kind_, [&](auto k) {
    constexpr AggKind K = decltype(k)::value;
    if (is_double_) {
      Add<K>(g, v.AsDouble());
    } else {
      Add<K>(g, v.int64());
    }
  });
}

void TypedAggColumn::Merge(size_t g, const TypedAggColumn& other,
                           size_t other_g) {
  switch (kind_) {
    case AggKind::kCount:
      counts_[g] += other.counts_[other_g];
      return;
    case AggKind::kSum:
    case AggKind::kAvg:
      counts_[g] += other.counts_[other_g];
      if (is_double_) {
        values_d_[g] += other.values_d_[other_g];
      } else {
        values_i_[g] += other.values_i_[other_g];
      }
      return;
    case AggKind::kMin:
    case AggKind::kMax:
      if (value_lane_) {
        FoldExtreme(kind_, other.values_v_[other_g], &values_v_[g]);
        return;
      }
      if (!other.has_[other_g]) return;
      if (is_double_) {
        const double v = other.values_d_[other_g];
        kind_ == AggKind::kMin ? Add<AggKind::kMin>(g, v)
                               : Add<AggKind::kMax>(g, v);
      } else {
        const int64_t v = other.values_i_[other_g];
        kind_ == AggKind::kMin ? Add<AggKind::kMin>(g, v)
                               : Add<AggKind::kMax>(g, v);
      }
      return;
    case AggKind::kCountStar:
      return;
  }
}

Value TypedAggColumn::Finalize(size_t g) const {
  switch (kind_) {
    case AggKind::kCount:
      return Value(counts_[g]);
    case AggKind::kSum:
      if (counts_[g] == 0) return Value::Null();  // SUM of nothing is NULL.
      return is_double_ ? Value(values_d_[g]) : Value(values_i_[g]);
    case AggKind::kAvg: {
      if (counts_[g] == 0) return Value::Null();
      const double total = is_double_ ? values_d_[g]
                                      : static_cast<double>(values_i_[g]);
      return Value(total / static_cast<double>(counts_[g]));
    }
    case AggKind::kMin:
    case AggKind::kMax:
      if (value_lane_) return values_v_[g];  // NULL when it saw nothing.
      if (!has_[g]) return Value::Null();  // MIN/MAX of nothing is NULL.
      return is_double_ ? Value(values_d_[g]) : Value(values_i_[g]);
    case AggKind::kCountStar:
      break;
  }
  return Value::Null();
}

size_t TypedAggColumn::BytesPerGroup(AggKind kind, ValueType arg_type) {
  switch (kind) {
    case AggKind::kCount:
      return sizeof(int64_t);
    case AggKind::kMin:
    case AggKind::kMax:
      return UsesValueLane(kind, arg_type)
                 ? sizeof(Value)
                 : sizeof(int64_t) + sizeof(uint8_t);
    default:
      return 2 * sizeof(int64_t);
  }
}

}  // namespace gmdj
