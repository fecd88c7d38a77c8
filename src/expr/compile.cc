#include <string>
#include <vector>

#include "expr/expr.h"
#include "expr/program.h"

namespace gmdj {
namespace {

/// Nodes whose native evaluation entry point is EvalPred (they override it
/// and derive Eval via TriToValue). Everything else is scalar-natured.
bool IsPredNatured(ExprKind kind) {
  switch (kind) {
    case ExprKind::kCompare:
    case ExprKind::kAnd:
    case ExprKind::kOr:
    case ExprKind::kNot:
    case ExprKind::kIsNull:
    case ExprKind::kIsNotTrue:
    case ExprKind::kLike:
      return true;
    default:
      return false;
  }
}

/// True when the subtree references no columns, i.e. it evaluates to the
/// same value on every row and can be folded at compile time. Unknown
/// future node kinds conservatively report non-constant.
bool IsConstant(const Expr& e) {
  switch (e.kind()) {
    case ExprKind::kLiteral:
      return true;
    case ExprKind::kColumnRef:
      return false;
    case ExprKind::kCompare: {
      const auto& c = static_cast<const CompareExpr&>(e);
      return IsConstant(c.lhs()) && IsConstant(c.rhs());
    }
    case ExprKind::kArith: {
      const auto& a = static_cast<const ArithExpr&>(e);
      return IsConstant(a.lhs()) && IsConstant(a.rhs());
    }
    case ExprKind::kAnd: {
      const auto& a = static_cast<const AndExpr&>(e);
      return IsConstant(a.lhs()) && IsConstant(a.rhs());
    }
    case ExprKind::kOr: {
      const auto& o = static_cast<const OrExpr&>(e);
      return IsConstant(o.lhs()) && IsConstant(o.rhs());
    }
    case ExprKind::kNot:
      return IsConstant(static_cast<const NotExpr&>(e).input());
    case ExprKind::kIsNull:
      return IsConstant(static_cast<const IsNullExpr&>(e).input());
    case ExprKind::kIsNotTrue:
      return IsConstant(static_cast<const IsNotTrueExpr&>(e).input());
    case ExprKind::kLike:
      return IsConstant(static_cast<const LikeExpr&>(e).input());
    case ExprKind::kCase: {
      const auto& c = static_cast<const CaseExpr&>(e);
      return IsConstant(c.condition()) && IsConstant(c.then_branch()) &&
             IsConstant(c.else_branch());
    }
    case ExprKind::kCoalesce: {
      const auto& c = static_cast<const CoalesceExpr&>(e);
      return IsConstant(c.first()) && IsConstant(c.second());
    }
  }
  return false;
}

}  // namespace

/// Lowers one bound tree into the befriended ExprProgram. Typed kernels
/// are chosen from static types, which columns enforce at append; a node
/// outside the typed core declines the whole tree, so a program exists
/// only where it computes exactly what the interpreter does.
class ExprCompiler {
 public:
  ExprCompiler(const std::vector<const Schema*>& frames, ExprProgram* prog)
      : frames_(frames), prog_(prog) {}

  /// False when some node declined: the program is then unusable.
  bool Run(const Expr& root) {
    if (IsPredNatured(root.kind())) {
      prog_->root_ = CompilePred(root);
      prog_->root_is_pred_ = true;
    } else {
      const ScalarReg r = CompileScalar(root);
      prog_->root_ = r.reg;
      prog_->root_is_pred_ = false;
      prog_->root_type_ = r.type;
    }
    prog_->num_regs_ = next_reg_;
    return lowered_;
  }

 private:
  struct ScalarReg {
    uint16_t reg;
    ValueType type;
  };

  uint16_t AllocReg() { return next_reg_++; }

  ExprOp& Emit(OpCode code, uint16_t dst) {
    ExprOp op;
    op.code = code;
    op.dst = dst;
    prog_->ops_.push_back(op);
    return prog_->ops_.back();
  }

  /// Stores `v` in a fresh register as a compile-time constant. String
  /// payloads are copied into the program's pool so the register's borrowed
  /// pointer stays valid for the program's lifetime.
  ScalarReg EmitConstScalar(const Value& v) {
    const uint16_t dst = AllocReg();
    ExprOp& op = Emit(OpCode::kConst, dst);
    op.const_reg.null = v.is_null();
    switch (v.type()) {
      case ValueType::kInt64:
        op.const_reg.i = v.int64();
        break;
      case ValueType::kDouble:
        op.const_reg.d = v.dbl();
        break;
      case ValueType::kString:
        prog_->str_pool_.push_back(v.str());
        op.const_reg.s = &prog_->str_pool_.back();
        break;
      case ValueType::kNull:
        break;
    }
    // Scalar consts may feed kTestScalar via a pred context; precompute the
    // tribool view so no separate conversion op is needed.
    op.const_reg.t = v.is_null() ? TriBool::kUnknown
                     : v.type() == ValueType::kInt64
                         ? MakeTriBool(v.int64() != 0)
                     : v.type() == ValueType::kDouble
                         ? MakeTriBool(v.dbl() != 0.0)
                         : TriBool::kUnknown;
    return {dst, v.type()};
  }

  uint16_t EmitConstPred(TriBool t) {
    const uint16_t dst = AllocReg();
    ExprOp& op = Emit(OpCode::kConst, dst);
    op.const_reg.t = t;
    // Scalar mirror (TriToValue) in case a scalar context consumes it.
    op.const_reg.null = IsUnknown(t);
    op.const_reg.i = IsTrue(t) ? 1 : 0;
    return dst;
  }

  /// Marks the tree as not lowerable; the register is a placeholder.
  uint16_t Decline() {
    lowered_ = false;
    return 0;
  }
  ScalarReg DeclineScalar(const Expr& e) {
    return {Decline(), e.result_type()};
  }

  /// True when the reference's recorded binding is consistent with the
  /// frames this compilation targets; stale or foreign bindings leave the
  /// tree to the interpreter (which surfaces the misbinding, not hides it).
  bool ValidBinding(const ColumnRefExpr& c) const {
    if (c.bound_frame() >= frames_.size()) return false;
    const Schema* schema = frames_[c.bound_frame()];
    if (schema == nullptr || c.bound_column() >= schema->num_fields()) {
      return false;
    }
    return schema->field(c.bound_column()).type == c.result_type();
  }

  ScalarReg CompileScalar(const Expr& e) {
    if (IsConstant(e)) {
      return EmitConstScalar(e.Eval(EvalContext()));
    }
    switch (e.kind()) {
      case ExprKind::kLiteral:
        return EmitConstScalar(static_cast<const LiteralExpr&>(e).value());
      case ExprKind::kColumnRef: {
        const auto& c = static_cast<const ColumnRefExpr&>(e);
        if (!ValidBinding(c)) return DeclineScalar(e);
        const uint16_t dst = AllocReg();
        ExprOp& op = Emit(OpCode::kLoadCol, dst);
        op.frame = static_cast<uint16_t>(c.bound_frame());
        op.col = static_cast<uint32_t>(c.bound_column());
        op.expect = c.result_type();
        return {dst, c.result_type()};
      }
      case ExprKind::kArith:
        return CompileArith(static_cast<const ArithExpr&>(e));
      case ExprKind::kCase:
      case ExprKind::kCoalesce:
        return DeclineScalar(e);
      default:
        break;
    }
    // Predicate node in a scalar position: Expr::Eval == TriToValue(pred).
    const uint16_t pred = CompilePred(e);
    const uint16_t dst = AllocReg();
    ExprOp& op = Emit(OpCode::kBoolToScalar, dst);
    op.a = pred;
    return {dst, ValueType::kInt64};
  }

  /// Inserts an int64 -> double cast when the operand is integer-typed, so
  /// mixed numeric kernels run entirely on doubles (the interpreter's
  /// AsDouble path).
  uint16_t AsDouble(const ScalarReg& r) {
    if (r.type == ValueType::kDouble) return r.reg;
    const uint16_t dst = AllocReg();
    ExprOp& op = Emit(OpCode::kCastDbl, dst);
    op.a = r.reg;
    return dst;
  }

  ScalarReg CompileArith(const ArithExpr& e) {
    // Kernel dispatch keys off the *compiled* operand types, not the
    // Bind-time result types: constant folding can legally change a
    // subtree's type (e.g. a CASE whose statically-UNKNOWN condition folds
    // it to the ELSE branch), and the ScalarReg type is what the register
    // actually holds. Ops emitted for a routed-away operand are dead but
    // harmless — expressions are pure.
    const ScalarReg a = CompileScalar(e.lhs());
    const ScalarReg b = CompileScalar(e.rhs());
    const ValueType lt = a.type;
    const ValueType rt = b.type;
    // A statically-NULL operand (NULL literal or a subtree that always
    // evaluates to NULL) nullifies the whole node.
    if (lt == ValueType::kNull || rt == ValueType::kNull) {
      return EmitConstScalar(Value::Null());
    }
    // Arithmetic over strings is a binder error; never guess at it.
    if (lt == ValueType::kString || rt == ValueType::kString) {
      return DeclineScalar(e);
    }
    const uint16_t dst = AllocReg();
    if (e.op() == ArithOp::kDiv) {
      const uint16_t ad = AsDouble(a);
      const uint16_t bd = AsDouble(b);
      ExprOp& op = Emit(OpCode::kDivDbl, dst);
      op.a = ad;
      op.b = bd;
      return {dst, ValueType::kDouble};
    }
    if (lt == ValueType::kInt64 && rt == ValueType::kInt64) {
      ExprOp& op = Emit(OpCode::kArithI64, dst);
      op.arith = e.op();
      op.a = a.reg;
      op.b = b.reg;
      return {dst, ValueType::kInt64};
    }
    const uint16_t ad = AsDouble(a);
    const uint16_t bd = AsDouble(b);
    ExprOp& op = Emit(OpCode::kArithDbl, dst);
    op.arith = e.op();
    op.a = ad;
    op.b = bd;
    return {dst, ValueType::kDouble};
  }

  /// `column op constant`, the constant on either side, as one
  /// kCmpColLit; false when `e` is not of that shape, its column is
  /// NULL-typed, or it compares a string with a number.
  bool CompileColumnLiteral(const CompareExpr& e, uint16_t* dst) {
    const bool lit_right =
        e.lhs().kind() == ExprKind::kColumnRef && IsConstant(e.rhs());
    const bool lit_left = !lit_right && IsConstant(e.lhs()) &&
                          e.rhs().kind() == ExprKind::kColumnRef;
    if (!lit_right && !lit_left) return false;
    const auto& c =
        static_cast<const ColumnRefExpr&>(lit_right ? e.lhs() : e.rhs());
    if (!ValidBinding(c)) return false;
    const Value v = (lit_right ? e.rhs() : e.lhs()).Eval(EvalContext());
    if (v.is_null()) {
      *dst = EmitConstPred(TriBool::kUnknown);
      return true;
    }
    const ValueType type = c.result_type();
    if (type == ValueType::kNull ||
        (type == ValueType::kString) != (v.type() == ValueType::kString)) {
      return false;
    }
    *dst = AllocReg();
    ExprOp& op = Emit(OpCode::kCmpColLit, *dst);
    op.cmp = lit_right ? e.op() : MirrorCompareOp(e.op());
    op.frame = static_cast<uint16_t>(c.bound_frame());
    op.col = static_cast<uint32_t>(c.bound_column());
    op.expect = type;
    if (type == ValueType::kString) {
      prog_->str_pool_.push_back(v.str());
      op.const_reg.s = &prog_->str_pool_.back();
    } else if (type == ValueType::kInt64 && v.type() == ValueType::kInt64) {
      op.const_reg.i = v.int64();
    } else {
      op.const_reg.d = v.AsDouble();  // kCastDbl's cast of an int64 side.
      op.flag = type == ValueType::kInt64;
    }
    return true;
  }

  uint16_t CompileCompare(const CompareExpr& e) {
    if (uint16_t dst; CompileColumnLiteral(e, &dst)) return dst;
    // As in CompileArith, dispatch on the compiled operand types — the
    // authoritative view after constant folding.
    const ScalarReg a = CompileScalar(e.lhs());
    const ScalarReg b = CompileScalar(e.rhs());
    const ValueType lt = a.type;
    const ValueType rt = b.type;
    // A statically-NULL side makes SqlCompare UNKNOWN on every row, no
    // matter what the other side holds.
    if (lt == ValueType::kNull || rt == ValueType::kNull) {
      return EmitConstPred(TriBool::kUnknown);
    }
    // String against numeric has no typed kernel.
    const bool ls = lt == ValueType::kString;
    const bool rs = rt == ValueType::kString;
    if (ls != rs) return Decline();
    const uint16_t dst = AllocReg();
    if (ls) {  // Both strings.
      ExprOp& op = Emit(OpCode::kCmpStr, dst);
      op.cmp = e.op();
      op.a = a.reg;
      op.b = b.reg;
      return dst;
    }
    if (lt == ValueType::kInt64 && rt == ValueType::kInt64) {
      ExprOp& op = Emit(OpCode::kCmpI64, dst);
      op.cmp = e.op();
      op.a = a.reg;
      op.b = b.reg;
      return dst;
    }
    // Mixed numerics compare as doubles (CompareNumeric's AsDouble path).
    const uint16_t ad = AsDouble(a);
    const uint16_t bd = AsDouble(b);
    ExprOp& op = Emit(OpCode::kCmpDbl, dst);
    op.cmp = e.op();
    op.a = ad;
    op.b = bd;
    return dst;
  }

  uint16_t CompilePred(const Expr& e) {
    if (IsConstant(e)) {
      return EmitConstPred(e.EvalPred(EvalContext()));
    }
    switch (e.kind()) {
      case ExprKind::kCompare:
        return CompileCompare(static_cast<const CompareExpr&>(e));
      case ExprKind::kAnd: {
        const auto& n = static_cast<const AndExpr&>(e);
        const uint16_t a = CompilePred(n.lhs());
        const uint16_t b = CompilePred(n.rhs());
        const uint16_t dst = AllocReg();
        ExprOp& op = Emit(OpCode::kAnd, dst);
        op.a = a;
        op.b = b;
        return dst;
      }
      case ExprKind::kOr: {
        const auto& n = static_cast<const OrExpr&>(e);
        const uint16_t a = CompilePred(n.lhs());
        const uint16_t b = CompilePred(n.rhs());
        const uint16_t dst = AllocReg();
        ExprOp& op = Emit(OpCode::kOr, dst);
        op.a = a;
        op.b = b;
        return dst;
      }
      case ExprKind::kNot: {
        const auto& n = static_cast<const NotExpr&>(e);
        const uint16_t a = CompilePred(n.input());
        const uint16_t dst = AllocReg();
        ExprOp& op = Emit(OpCode::kNot, dst);
        op.a = a;
        return dst;
      }
      case ExprKind::kIsNull: {
        const auto& n = static_cast<const IsNullExpr&>(e);
        const ScalarReg a = CompileScalar(n.input());
        const uint16_t dst = AllocReg();
        ExprOp& op = Emit(OpCode::kIsNull, dst);
        op.a = a.reg;
        op.flag = n.negated();
        return dst;
      }
      case ExprKind::kIsNotTrue: {
        const auto& n = static_cast<const IsNotTrueExpr&>(e);
        const uint16_t a = CompilePred(n.input());
        const uint16_t dst = AllocReg();
        ExprOp& op = Emit(OpCode::kIsNotTrue, dst);
        op.a = a;
        return dst;
      }
      case ExprKind::kLike:
        return Decline();
      default:
        break;
    }
    // Scalar node in a predicate position: Expr::EvalPred == ValueToTri.
    const ScalarReg a = CompileScalar(e);
    const uint16_t dst = AllocReg();
    ExprOp& op = Emit(OpCode::kTestScalar, dst);
    op.a = a.reg;
    op.expect = a.type;
    return dst;
  }

  const std::vector<const Schema*>& frames_;
  ExprProgram* prog_;
  uint16_t next_reg_ = 0;
  bool lowered_ = true;
};

std::optional<ExprProgram> Compile(const Expr& expr,
                                   const std::vector<const Schema*>& frames) {
  ExprProgram prog;
  if (!ExprCompiler(frames, &prog).Run(expr)) return std::nullopt;
  return prog;
}

}  // namespace gmdj
