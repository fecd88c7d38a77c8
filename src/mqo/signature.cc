#include "mqo/signature.h"

#include <algorithm>
#include <string_view>

#include "common/str_util.h"
#include "exec/nodes.h"

namespace gmdj {
namespace {

// Length-prefixed string payloads keep the encoding injective: a literal
// or LIKE pattern containing delimiter characters cannot splice itself
// into the surrounding structure.
std::string Quoted(std::string_view s) {
  std::string out = std::to_string(s.size());
  out += ':';
  out += s;
  return out;
}

std::string LiteralKey(const Value& v) {
  switch (v.type()) {
    case ValueType::kNull:
      return "null";
    case ValueType::kInt64:
      return "i" + std::to_string(v.int64());
    case ValueType::kDouble:
      return "d" + std::to_string(v.dbl());
    case ValueType::kString:
      return "s" + Quoted(v.str());
  }
  return "?";
}

const char* ArithOpTag(ArithOp op) {
  switch (op) {
    case ArithOp::kAdd:
      return "+";
    case ArithOp::kSub:
      return "-";
    case ArithOp::kMul:
      return "*";
    case ArithOp::kDiv:
      return "/";
  }
  return "?";
}

// Flattens a left/right connective chain of `kind` into its leaves.
void FlattenConnective(const Expr& expr, ExprKind kind,
                       std::vector<const Expr*>* out) {
  if (expr.kind() != kind) {
    out->push_back(&expr);
    return;
  }
  if (kind == ExprKind::kAnd) {
    const auto& node = static_cast<const AndExpr&>(expr);
    FlattenConnective(node.lhs(), kind, out);
    FlattenConnective(node.rhs(), kind, out);
  } else {
    const auto& node = static_cast<const OrExpr&>(expr);
    FlattenConnective(node.lhs(), kind, out);
    FlattenConnective(node.rhs(), kind, out);
  }
}

// Kleene AND/OR and IEEE +/* are commutative, so sorting the operand keys
// canonicalizes commuted spellings without changing semantics.
std::string ConnectiveKey(const Expr& expr, ExprKind kind, const char* tag) {
  std::vector<const Expr*> leaves;
  FlattenConnective(expr, kind, &leaves);
  std::vector<std::string> keys;
  keys.reserve(leaves.size());
  for (const Expr* leaf : leaves) keys.push_back(CanonicalExprKey(*leaf));
  std::sort(keys.begin(), keys.end());
  std::string out = tag;
  out += '(';
  for (size_t i = 0; i < keys.size(); ++i) {
    if (i > 0) out += ',';
    out += keys[i];
  }
  out += ')';
  return out;
}

}  // namespace

std::string CanonicalExprKey(const Expr& expr) {
  switch (expr.kind()) {
    case ExprKind::kColumnRef: {
      const auto& ref = static_cast<const ColumnRefExpr&>(expr);
      return StrCat({"$", std::to_string(ref.bound_frame()), ".",
                     std::to_string(ref.bound_column())});
    }
    case ExprKind::kLiteral:
      return "lit:" +
             LiteralKey(static_cast<const LiteralExpr&>(expr).value());
    case ExprKind::kCompare: {
      const auto& cmp = static_cast<const CompareExpr&>(expr);
      std::string lhs = CanonicalExprKey(cmp.lhs());
      std::string rhs = CanonicalExprKey(cmp.rhs());
      CompareOp op = cmp.op();
      // Orient the smaller operand key first, mirroring the operator:
      // `B.a = D.b` and `D.b = A.a` (any spelling) render identically.
      if (rhs < lhs) {
        std::swap(lhs, rhs);
        op = MirrorCompareOp(op);
      }
      return std::string("cmp:") + CompareOpToString(op) + "(" + lhs + "," +
             rhs + ")";
    }
    case ExprKind::kArith: {
      const auto& arith = static_cast<const ArithExpr&>(expr);
      std::string lhs = CanonicalExprKey(arith.lhs());
      std::string rhs = CanonicalExprKey(arith.rhs());
      const bool commutative =
          arith.op() == ArithOp::kAdd || arith.op() == ArithOp::kMul;
      if (commutative && rhs < lhs) std::swap(lhs, rhs);
      return std::string("arith:") + ArithOpTag(arith.op()) + "(" + lhs +
             "," + rhs + ")";
    }
    case ExprKind::kAnd:
      return ConnectiveKey(expr, ExprKind::kAnd, "and");
    case ExprKind::kOr:
      return ConnectiveKey(expr, ExprKind::kOr, "or");
    case ExprKind::kNot:
      return "not(" +
             CanonicalExprKey(static_cast<const NotExpr&>(expr).input()) +
             ")";
    case ExprKind::kIsNull: {
      const auto& isnull = static_cast<const IsNullExpr&>(expr);
      return std::string(isnull.negated() ? "isnotnull(" : "isnull(") +
             CanonicalExprKey(isnull.input()) + ")";
    }
    case ExprKind::kIsNotTrue:
      return "isnottrue(" +
             CanonicalExprKey(
                 static_cast<const IsNotTrueExpr&>(expr).input()) +
             ")";
    case ExprKind::kLike: {
      const auto& like = static_cast<const LikeExpr&>(expr);
      return std::string(like.negated() ? "notlike(" : "like(") +
             CanonicalExprKey(like.input()) + "," + Quoted(like.pattern()) +
             ")";
    }
    case ExprKind::kCase: {
      const auto& c = static_cast<const CaseExpr&>(expr);
      return "case(" + CanonicalExprKey(c.condition()) + "," +
             CanonicalExprKey(c.then_branch()) + "," +
             CanonicalExprKey(c.else_branch()) + ")";
    }
    case ExprKind::kCoalesce: {
      const auto& c = static_cast<const CoalesceExpr&>(expr);
      return "coalesce(" + CanonicalExprKey(c.first()) + "," +
             CanonicalExprKey(c.second()) + ")";
    }
  }
  return "?";
}

std::string CanonicalThetaKey(const Expr* theta) {
  if (theta == nullptr) return "true";
  return CanonicalExprKey(*theta);
}

std::string CanonicalAggKey(const AggSpec& agg) {
  std::string out = AggKindToString(agg.kind);
  out += '(';
  out += agg.arg != nullptr ? CanonicalExprKey(*agg.arg) : "*";
  out += ')';
  return out;
}

std::optional<std::string> ScanFingerprint(const PlanNode& node) {
  const auto* scan = dynamic_cast<const TableScanNode*>(&node);
  if (scan == nullptr) return std::nullopt;
  // The alias is dropped on purpose: references canonicalize by bound
  // index, so `Flow -> F` and `Flow -> G` are the same scan.
  return "scan:" + Quoted(scan->table_name());
}

std::optional<GmdjSignature> BuildGmdjSignature(
    const PlanNode& base, const PlanNode& detail,
    const std::vector<GmdjConditionView>& conditions) {
  std::optional<std::string> base_fp = ScanFingerprint(base);
  std::optional<std::string> detail_fp = ScanFingerprint(detail);
  if (!base_fp.has_value() || !detail_fp.has_value()) return std::nullopt;

  GmdjSignature sig;
  sig.base_table = static_cast<const TableScanNode&>(base).table_name();
  sig.detail_table = static_cast<const TableScanNode&>(detail).table_name();

  for (const GmdjConditionView& cond : conditions) {
    GmdjCondSignature cs;
    cs.theta_key = CanonicalThetaKey(cond.theta);
    cs.share_key = *base_fp + "|" + *detail_fp + "|" + cs.theta_key;
    for (const AggSpec* agg : cond.aggs) {
      cs.agg_keys.push_back(CanonicalAggKey(*agg));
    }
    sig.conditions.push_back(std::move(cs));
  }
  return sig;
}

}  // namespace gmdj
