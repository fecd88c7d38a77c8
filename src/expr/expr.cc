#include "expr/expr.h"

#include "common/check.h"
#include "common/str_util.h"

namespace gmdj {
namespace {

TriBool ValueToTri(const Value& v) {
  if (v.is_null()) return TriBool::kUnknown;
  switch (v.type()) {
    case ValueType::kInt64:
      return MakeTriBool(v.int64() != 0);
    case ValueType::kDouble:
      return MakeTriBool(v.dbl() != 0.0);
    default:
      return TriBool::kUnknown;
  }
}

/// The static type of `e`, which yields either of two branches typed `a`
/// and `b`: a NULL-typed branch takes the other's type, and mixed
/// numerics widen to double (the type a column holding both accepts). A
/// STRING branch beside a numeric one has no common type.
Status UnifyBranchTypes(const Expr& e, ValueType a, ValueType b,
                        ValueType* out) {
  if (a == ValueType::kNull || b == ValueType::kNull || a == b) {
    *out = a == ValueType::kNull ? b : a;
    return Status::OK();
  }
  if (a == ValueType::kString || b == ValueType::kString) {
    return Status::InvalidArgument(
        StrCat({e.ToString(), " mixes STRING and numeric branches"}));
  }
  *out = ValueType::kDouble;  // INT64 and DOUBLE.
  return Status::OK();
}

Value TriToValue(TriBool t) {
  switch (t) {
    case TriBool::kFalse:
      return Value(int64_t{0});
    case TriBool::kTrue:
      return Value(int64_t{1});
    case TriBool::kUnknown:
      return Value::Null();
  }
  return Value::Null();
}

}  // namespace

Value Expr::Eval(const EvalContext& ctx) const {
  return TriToValue(EvalPred(ctx));
}

TriBool Expr::EvalPred(const EvalContext& ctx) const {
  return ValueToTri(Eval(ctx));
}

// ---------------------------------------------------------------- ColumnRef

Status ColumnRefExpr::Bind(const std::vector<const Schema*>& frames) {
  if (pinned_frame_ >= 0) {
    const size_t f = static_cast<size_t>(pinned_frame_);
    if (f >= frames.size()) {
      return Status::NotFound("pinned frame out of range for: " + ref_);
    }
    const size_t col = frames[f]->TryResolve(ref_);
    if (col == Schema::kNotFound) {
      return Status::NotFound("unresolved pinned column reference: " + ref_);
    }
    bound_frame_ = f;
    bound_column_ = col;
    result_type_ = frames[f]->field(col).type;
    return Status::OK();
  }
  // Innermost frame wins: a name bound in the local scope shadows outer
  // scopes; unresolved names escalate outward (free references).
  for (size_t i = frames.size(); i-- > 0;) {
    const size_t col = frames[i]->TryResolve(ref_);
    if (col != Schema::kNotFound) {
      bound_frame_ = i;
      bound_column_ = col;
      result_type_ = frames[i]->field(col).type;
      return Status::OK();
    }
  }
  return Status::NotFound("unresolved column reference: " + ref_);
}

Value ColumnRefExpr::Eval(const EvalContext& ctx) const {
  GMDJ_DCHECK(bound_frame_ < ctx.num_frames());
  return ctx.ValueAt(bound_frame_, bound_column_);
}

ExprPtr ColumnRefExpr::Clone() const {
  auto out = std::make_unique<ColumnRefExpr>(ref_, pinned_frame_);
  out->bound_frame_ = bound_frame_;
  out->bound_column_ = bound_column_;
  out->result_type_ = result_type_;
  return out;
}

// ------------------------------------------------------------------ Literal

Status LiteralExpr::Bind(const std::vector<const Schema*>& frames) {
  (void)frames;
  return Status::OK();
}

ExprPtr LiteralExpr::Clone() const {
  return std::make_unique<LiteralExpr>(value_);
}

std::string LiteralExpr::ToString() const {
  if (value_.type() == ValueType::kString) return "\"" + value_.str() + "\"";
  return value_.ToString();
}

// ------------------------------------------------------------------ Compare

Status CompareExpr::Bind(const std::vector<const Schema*>& frames) {
  GMDJ_RETURN_IF_ERROR(lhs_->Bind(frames));
  GMDJ_RETURN_IF_ERROR(rhs_->Bind(frames));
  result_type_ = ValueType::kInt64;
  col_col_ = lhs_->kind() == ExprKind::kColumnRef &&
             rhs_->kind() == ExprKind::kColumnRef;
  BindColumnLiteral();
  if (col_col_) {
    const auto& l = static_cast<const ColumnRefExpr&>(*lhs_);
    const auto& r = static_cast<const ColumnRefExpr&>(*rhs_);
    lhs_frame_ = l.bound_frame();
    lhs_col_ = l.bound_column();
    rhs_frame_ = r.bound_frame();
    rhs_col_ = r.bound_column();
  }
  return Status::OK();
}

void CompareExpr::BindColumnLiteral() {
  const bool lit_right = lhs_->kind() == ExprKind::kColumnRef &&
                         rhs_->kind() == ExprKind::kLiteral;
  const bool lit_left = lhs_->kind() == ExprKind::kLiteral &&
                        rhs_->kind() == ExprKind::kColumnRef;
  col_lit_ = lit_right || lit_left;
  if (!col_lit_) return;
  const auto& col = static_cast<const ColumnRefExpr&>(lit_right ? *lhs_
                                                                : *rhs_);
  lhs_frame_ = col.bound_frame();
  lhs_col_ = col.bound_column();
  lit_ = &static_cast<const LiteralExpr&>(lit_right ? *rhs_ : *lhs_).value();
  col_lit_op_ = lit_right ? op_ : MirrorCompareOp(op_);
}

TriBool CompareExpr::EvalPred(const EvalContext& ctx) const {
  if (col_lit_) {
    return SqlCompareCellValue(ctx.ColumnAt(lhs_frame_, lhs_col_),
                               ctx.RowAt(lhs_frame_), col_lit_op_, *lit_);
  }
  if (col_col_) {
    return SqlCompareCells(ctx.ColumnAt(lhs_frame_, lhs_col_),
                           ctx.RowAt(lhs_frame_), op_,
                           ctx.ColumnAt(rhs_frame_, rhs_col_),
                           ctx.RowAt(rhs_frame_));
  }
  return SqlCompare(lhs_->Eval(ctx), op_, rhs_->Eval(ctx));
}

ExprPtr CompareExpr::Clone() const {
  auto out = std::make_unique<CompareExpr>(op_, lhs_->Clone(), rhs_->Clone());
  out->col_col_ = col_col_;
  if (col_lit_) out->BindColumnLiteral();
  out->lhs_frame_ = lhs_frame_;
  out->lhs_col_ = lhs_col_;
  out->rhs_frame_ = rhs_frame_;
  out->rhs_col_ = rhs_col_;
  return out;
}

std::string CompareExpr::ToString() const {
  return StrCat({"(", lhs_->ToString(), " ", CompareOpToString(op_), " ",
                 rhs_->ToString(), ")"});
}

// -------------------------------------------------------------------- Arith

Status ArithExpr::Bind(const std::vector<const Schema*>& frames) {
  GMDJ_RETURN_IF_ERROR(lhs_->Bind(frames));
  GMDJ_RETURN_IF_ERROR(rhs_->Bind(frames));
  if (lhs_->result_type() == ValueType::kString ||
      rhs_->result_type() == ValueType::kString) {
    return Status::InvalidArgument(StrCat(
        {"arithmetic ", ToString(), " takes numeric operands, not STRING"}));
  }
  if (op_ == ArithOp::kDiv || lhs_->result_type() == ValueType::kDouble ||
      rhs_->result_type() == ValueType::kDouble) {
    result_type_ = ValueType::kDouble;
  } else {
    result_type_ = ValueType::kInt64;
  }
  return Status::OK();
}

Value ArithExpr::Eval(const EvalContext& ctx) const {
  const Value a = lhs_->Eval(ctx);
  const Value b = rhs_->Eval(ctx);
  if (a.is_null() || b.is_null()) return Value::Null();
  if (op_ == ArithOp::kDiv) {
    const double denom = b.AsDouble();
    if (denom == 0.0) return Value::Null();
    return Value(a.AsDouble() / denom);
  }
  if (a.type() == ValueType::kInt64 && b.type() == ValueType::kInt64) {
    const int64_t x = a.int64(), y = b.int64();
    switch (op_) {
      case ArithOp::kAdd:
        return Value(x + y);
      case ArithOp::kSub:
        return Value(x - y);
      case ArithOp::kMul:
        return Value(x * y);
      case ArithOp::kDiv:
        break;  // Handled above.
    }
  }
  const double x = a.AsDouble(), y = b.AsDouble();
  switch (op_) {
    case ArithOp::kAdd:
      return Value(x + y);
    case ArithOp::kSub:
      return Value(x - y);
    case ArithOp::kMul:
      return Value(x * y);
    case ArithOp::kDiv:
      break;
  }
  return Value::Null();
}

ExprPtr ArithExpr::Clone() const {
  return std::make_unique<ArithExpr>(op_, lhs_->Clone(), rhs_->Clone());
}

std::string ArithExpr::ToString() const {
  const char* op = "?";
  switch (op_) {
    case ArithOp::kAdd:
      op = "+";
      break;
    case ArithOp::kSub:
      op = "-";
      break;
    case ArithOp::kMul:
      op = "*";
      break;
    case ArithOp::kDiv:
      op = "/";
      break;
  }
  return StrCat({"(", lhs_->ToString(), " ", op, " ", rhs_->ToString(), ")"});
}

// ---------------------------------------------------------------- And / Or

Status AndExpr::Bind(const std::vector<const Schema*>& frames) {
  GMDJ_RETURN_IF_ERROR(lhs_->Bind(frames));
  GMDJ_RETURN_IF_ERROR(rhs_->Bind(frames));
  result_type_ = ValueType::kInt64;
  return Status::OK();
}

TriBool AndExpr::EvalPred(const EvalContext& ctx) const {
  const TriBool a = lhs_->EvalPred(ctx);
  if (IsFalse(a)) return TriBool::kFalse;  // Short circuit.
  return And(a, rhs_->EvalPred(ctx));
}

ExprPtr AndExpr::Clone() const {
  return std::make_unique<AndExpr>(lhs_->Clone(), rhs_->Clone());
}

std::string AndExpr::ToString() const {
  return StrCat({"(", lhs_->ToString(), " AND ", rhs_->ToString(), ")"});
}

Status OrExpr::Bind(const std::vector<const Schema*>& frames) {
  GMDJ_RETURN_IF_ERROR(lhs_->Bind(frames));
  GMDJ_RETURN_IF_ERROR(rhs_->Bind(frames));
  result_type_ = ValueType::kInt64;
  return Status::OK();
}

TriBool OrExpr::EvalPred(const EvalContext& ctx) const {
  const TriBool a = lhs_->EvalPred(ctx);
  if (IsTrue(a)) return TriBool::kTrue;  // Short circuit.
  return Or(a, rhs_->EvalPred(ctx));
}

ExprPtr OrExpr::Clone() const {
  return std::make_unique<OrExpr>(lhs_->Clone(), rhs_->Clone());
}

std::string OrExpr::ToString() const {
  return StrCat({"(", lhs_->ToString(), " OR ", rhs_->ToString(), ")"});
}

// ---------------------------------------------------------------------- Not

Status NotExpr::Bind(const std::vector<const Schema*>& frames) {
  GMDJ_RETURN_IF_ERROR(input_->Bind(frames));
  result_type_ = ValueType::kInt64;
  return Status::OK();
}

TriBool NotExpr::EvalPred(const EvalContext& ctx) const {
  return Not(input_->EvalPred(ctx));
}

ExprPtr NotExpr::Clone() const {
  return std::make_unique<NotExpr>(input_->Clone());
}

std::string NotExpr::ToString() const {
  return "(NOT " + input_->ToString() + ")";
}

// ------------------------------------------------------------------- IsNull

Status IsNullExpr::Bind(const std::vector<const Schema*>& frames) {
  GMDJ_RETURN_IF_ERROR(input_->Bind(frames));
  result_type_ = ValueType::kInt64;
  return Status::OK();
}

TriBool IsNullExpr::EvalPred(const EvalContext& ctx) const {
  bool is_null;
  if (input_->kind() == ExprKind::kColumnRef) {
    const auto& col = static_cast<const ColumnRefExpr&>(*input_);
    is_null = ctx.ColumnAt(col.bound_frame(), col.bound_column())
                  .is_null(ctx.RowAt(col.bound_frame()));
  } else {
    is_null = input_->Eval(ctx).is_null();
  }
  return MakeTriBool(negated_ ? !is_null : is_null);
}

ExprPtr IsNullExpr::Clone() const {
  return std::make_unique<IsNullExpr>(input_->Clone(), negated_);
}

std::string IsNullExpr::ToString() const {
  return StrCat({"(", input_->ToString(),
                 negated_ ? " IS NOT NULL)" : " IS NULL)"});
}

// ---------------------------------------------------------------- IsNotTrue

Status IsNotTrueExpr::Bind(const std::vector<const Schema*>& frames) {
  GMDJ_RETURN_IF_ERROR(input_->Bind(frames));
  result_type_ = ValueType::kInt64;
  return Status::OK();
}

TriBool IsNotTrueExpr::EvalPred(const EvalContext& ctx) const {
  return MakeTriBool(!IsTrue(input_->EvalPred(ctx)));
}

ExprPtr IsNotTrueExpr::Clone() const {
  return std::make_unique<IsNotTrueExpr>(input_->Clone());
}

std::string IsNotTrueExpr::ToString() const {
  return StrCat({"(", input_->ToString(), " IS NOT TRUE)"});
}

// --------------------------------------------------------------------- Like

namespace {

// Iterative glob match with %-backtracking (classic two-pointer LIKE).
bool LikeMatch(const std::string& text, const std::string& pattern) {
  size_t t = 0, p = 0;
  size_t star_p = std::string::npos, star_t = 0;
  while (t < text.size()) {
    if (p < pattern.size() &&
        (pattern[p] == '_' || pattern[p] == text[t])) {
      ++t;
      ++p;
    } else if (p < pattern.size() && pattern[p] == '%') {
      star_p = p++;
      star_t = t;
    } else if (star_p != std::string::npos) {
      p = star_p + 1;
      t = ++star_t;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '%') ++p;
  return p == pattern.size();
}

}  // namespace

Status LikeExpr::Bind(const std::vector<const Schema*>& frames) {
  GMDJ_RETURN_IF_ERROR(input_->Bind(frames));
  result_type_ = ValueType::kInt64;
  return Status::OK();
}

TriBool LikeExpr::EvalPred(const EvalContext& ctx) const {
  const Value v = input_->Eval(ctx);
  if (v.is_null()) return TriBool::kUnknown;
  if (v.type() != ValueType::kString) return TriBool::kUnknown;
  const bool matched = LikeMatch(v.str(), pattern_);
  return MakeTriBool(negated_ ? !matched : matched);
}

ExprPtr LikeExpr::Clone() const {
  return std::make_unique<LikeExpr>(input_->Clone(), pattern_, negated_);
}

std::string LikeExpr::ToString() const {
  return StrCat({"(", input_->ToString(), negated_ ? " NOT LIKE \"" : " LIKE \"",
                 pattern_, "\")"});
}

// --------------------------------------------------------------------- Case

Status CaseExpr::Bind(const std::vector<const Schema*>& frames) {
  GMDJ_RETURN_IF_ERROR(condition_->Bind(frames));
  GMDJ_RETURN_IF_ERROR(then_->Bind(frames));
  GMDJ_RETURN_IF_ERROR(otherwise_->Bind(frames));
  return UnifyBranchTypes(*this, then_->result_type(),
                          otherwise_->result_type(), &result_type_);
}

Value CaseExpr::Eval(const EvalContext& ctx) const {
  if (IsTrue(condition_->EvalPred(ctx))) return then_->Eval(ctx);
  return otherwise_->Eval(ctx);
}

ExprPtr CaseExpr::Clone() const {
  return std::make_unique<CaseExpr>(condition_->Clone(), then_->Clone(),
                                    otherwise_->Clone());
}

std::string CaseExpr::ToString() const {
  return "CASE WHEN " + condition_->ToString() + " THEN " +
         then_->ToString() + " ELSE " + otherwise_->ToString() + " END";
}

// ----------------------------------------------------------------- Coalesce

Status CoalesceExpr::Bind(const std::vector<const Schema*>& frames) {
  GMDJ_RETURN_IF_ERROR(first_->Bind(frames));
  GMDJ_RETURN_IF_ERROR(second_->Bind(frames));
  return UnifyBranchTypes(*this, first_->result_type(),
                          second_->result_type(), &result_type_);
}

Value CoalesceExpr::Eval(const EvalContext& ctx) const {
  Value v = first_->Eval(ctx);
  if (!v.is_null()) return v;
  return second_->Eval(ctx);
}

ExprPtr CoalesceExpr::Clone() const {
  return std::make_unique<CoalesceExpr>(first_->Clone(), second_->Clone());
}

std::string CoalesceExpr::ToString() const {
  return "COALESCE(" + first_->ToString() + ", " + second_->ToString() + ")";
}

}  // namespace gmdj
