#include "expr/program.h"

#include <algorithm>
#include <cstring>

#include "common/check.h"

namespace gmdj {
namespace {

TriBool CompareOrdered(int c, CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return MakeTriBool(c == 0);
    case CompareOp::kNe:
      return MakeTriBool(c != 0);
    case CompareOp::kLt:
      return MakeTriBool(c < 0);
    case CompareOp::kLe:
      return MakeTriBool(c <= 0);
    case CompareOp::kGt:
      return MakeTriBool(c > 0);
    case CompareOp::kGe:
      return MakeTriBool(c >= 0);
  }
  return TriBool::kUnknown;
}

/// Calls `fn(pred)` with the comparison `op` of two values spelled
/// through `<` and `>` only, exactly as CompareOrdered sees the pair, so
/// NaN operands compare the same way.
template <typename T, typename Fn>
void WithOrderPred(CompareOp op, const Fn& fn) {
  switch (op) {
    case CompareOp::kEq:
      return fn([](T a, T b) { return !(a < b) && !(a > b); });
    case CompareOp::kNe:
      return fn([](T a, T b) { return a < b || a > b; });
    case CompareOp::kLt:
      return fn([](T a, T b) { return a < b; });
    case CompareOp::kLe:
      return fn([](T a, T b) { return !(a > b); });
    case CompareOp::kGt:
      return fn([](T a, T b) { return a > b; });
    case CompareOp::kGe:
      return fn([](T a, T b) { return !(a < b); });
  }
}

/// Runs kCmpColLit `op` over rows [0, n) of `cv`: `out(k, null, truth)`,
/// where `truth` is the comparison of cell k with the literal (meaningless
/// when the cell is NULL). An int64 column against a double literal casts
/// each cell, as kCastDbl does; string `=`/`<>` compare lengths first.
template <typename Out>
void CompareToLiteral(const ExprOp& op, const ColumnVector& cv, size_t n,
                      const Out& out) {
  const ExprReg& lit = op.const_reg;
  const auto numeric = [&](const auto* x, auto y) {
    using T = decltype(y);
    WithOrderPred<T>(op.cmp, [&](const auto pred) {
      for (size_t k = 0; k < n; ++k) {
        out(k, cv.null[k], pred(static_cast<T>(x[k]), y));
      }
    });
  };
  switch (op.expect) {
    case ValueType::kInt64:
      if (op.flag) return numeric(cv.i64, lit.d);
      return numeric(cv.i64, lit.i);
    case ValueType::kDouble:
      return numeric(cv.dbl, lit.d);
    default:
      break;
  }
  const std::string& y = *lit.s;
  if (op.cmp == CompareOp::kEq || op.cmp == CompareOp::kNe) {
    const bool eq = op.cmp == CompareOp::kEq;
    for (size_t k = 0; k < n; ++k) {
      const std::string& x = cv.str[k];
      out(k, cv.null[k],
          (x.size() == y.size() &&
           std::memcmp(x.data(), y.data(), y.size()) == 0) == eq);
    }
    return;
  }
  for (size_t k = 0; k < n; ++k) {
    out(k, cv.null[k],
        IsTrue(CompareOrdered(cv.str[k].compare(y), op.cmp)));
  }
}

template <typename T>
void Fit(std::vector<T>* v, size_t n) {
  if (v->size() < n) v->resize(n);
}

/// out[k] = x[k] op y[k] (UNKNOWN where either is NULL), with one loop per
/// operator.
template <typename T>
void CompareColumns(CompareOp op, const T* x, const T* y, const uint8_t* xn,
                    const uint8_t* yn, TriBool* out, size_t n) {
  WithOrderPred<T>(op, [&](const auto pred) {
    for (size_t k = 0; k < n; ++k) {
      out[k] = (xn[k] | yn[k]) ? TriBool::kUnknown
                               : MakeTriBool(pred(x[k], y[k]));
    }
  });
}

}  // namespace

const ExprVecReg& ExprProgram::EvalBatch(const EvalContext& ctx,
                                         const ExprScratch& scratch,
                                         ExprVecScratch* vec,
                                         size_t num_rows) const {
  if (vec->regs.size() < num_regs_) vec->regs.resize(num_regs_);
  ExprVecReg* regs = vec->regs.data();
  const size_t n = num_rows;

  for (const ExprOp& op : ops_) {
    switch (op.code) {
      case OpCode::kConst: {
        ExprVecReg& r = regs[op.dst];
        const ExprReg& c = op.const_reg;
        r.i.assign(n, c.i);
        r.d.assign(n, c.d);
        r.s.assign(n, c.s);
        r.t.assign(n, c.t);
        r.null.assign(n, c.null ? 1 : 0);
        break;
      }
      case OpCode::kLoadCol: {
        ExprVecReg& r = regs[op.dst];
        const Column& col = ctx.ColumnAt(op.frame, op.col);
        GMDJ_DCHECK(col.type() == op.expect);
        if (op.frame == scratch.batch_frame) {
          // The whole point of the batch VM: the chunk's slice of the
          // table column *is* the register.
          const ColumnVector cv = ColumnVector::Of(col, scratch.batch_begin);
          r.null.assign(cv.null, cv.null + n);
          switch (op.expect) {
            case ValueType::kInt64:
              r.i.assign(cv.i64, cv.i64 + n);
              break;
            case ValueType::kDouble:
              r.d.assign(cv.dbl, cv.dbl + n);
              break;
            default:
              r.s.resize(n);
              for (size_t k = 0; k < n; ++k) r.s[k] = cv.str + k;
              break;
          }
          break;
        }
        // Non-batch frame: the row is fixed for the chunk, so the load is
        // a broadcast of one scalar.
        const size_t row = ctx.RowAt(op.frame);
        if (col.is_null(row)) {
          r.null.assign(n, 1);
          // Pad the payloads: ops like kCastDbl copy payloads without
          // consulting null flags, and registers must never be shorter
          // than the chunk.
          r.i.assign(n, 0);
          r.d.assign(n, 0.0);
          r.s.assign(n, nullptr);
          break;
        }
        r.null.assign(n, 0);
        switch (op.expect) {
          case ValueType::kInt64:
            r.i.assign(n, col.i64(row));
            break;
          case ValueType::kDouble:
            r.d.assign(n, col.dbl(row));
            break;
          default:
            r.s.assign(n, &col.str(row));
            break;
        }
        break;
      }
      case OpCode::kCmpI64: {
        const ExprVecReg& a = regs[op.a];
        const ExprVecReg& b = regs[op.b];
        ExprVecReg& r = regs[op.dst];
        Fit(&r.t, n);
        CompareColumns(op.cmp, a.i.data(), b.i.data(), a.null.data(),
                       b.null.data(), r.t.data(), n);
        break;
      }
      case OpCode::kCmpDbl: {
        const ExprVecReg& a = regs[op.a];
        const ExprVecReg& b = regs[op.b];
        ExprVecReg& r = regs[op.dst];
        Fit(&r.t, n);
        CompareColumns(op.cmp, a.d.data(), b.d.data(), a.null.data(),
                       b.null.data(), r.t.data(), n);
        break;
      }
      case OpCode::kCmpStr: {
        const ExprVecReg& a = regs[op.a];
        const ExprVecReg& b = regs[op.b];
        ExprVecReg& r = regs[op.dst];
        Fit(&r.t, n);
        for (size_t k = 0; k < n; ++k) {
          if (a.null[k] | b.null[k]) {
            r.t[k] = TriBool::kUnknown;
            continue;
          }
          r.t[k] = CompareOrdered(a.s[k]->compare(*b.s[k]), op.cmp);
        }
        break;
      }
      case OpCode::kCmpColLit: {
        ExprVecReg& r = regs[op.dst];
        const Column& col = ctx.ColumnAt(op.frame, op.col);
        GMDJ_DCHECK(col.type() == op.expect);
        Fit(&r.t, n);
        // A non-batch frame is fixed for the chunk: compare its one row
        // and broadcast the outcome.
        const bool batched = op.frame == scratch.batch_frame;
        TriBool* t = r.t.data();
        CompareToLiteral(
            op,
            ColumnVector::Of(col, batched ? scratch.batch_begin
                                          : ctx.RowAt(op.frame)),
            batched ? n : std::min<size_t>(n, 1),
            [t](size_t k, uint8_t null, bool truth) {
              t[k] = null ? TriBool::kUnknown : MakeTriBool(truth);
            });
        if (!batched && n > 1) std::fill_n(t + 1, n - 1, t[0]);
        break;
      }
      case OpCode::kArithI64: {
        const ExprVecReg& a = regs[op.a];
        const ExprVecReg& b = regs[op.b];
        ExprVecReg& r = regs[op.dst];
        Fit(&r.i, n);
        Fit(&r.null, n);
        for (size_t k = 0; k < n; ++k) {
          if ((r.null[k] = a.null[k] | b.null[k])) continue;
          switch (op.arith) {
            case ArithOp::kAdd:
              r.i[k] = a.i[k] + b.i[k];
              break;
            case ArithOp::kSub:
              r.i[k] = a.i[k] - b.i[k];
              break;
            case ArithOp::kMul:
              r.i[k] = a.i[k] * b.i[k];
              break;
            case ArithOp::kDiv:
              break;  // Division compiles to kDivDbl.
          }
        }
        break;
      }
      case OpCode::kArithDbl: {
        const ExprVecReg& a = regs[op.a];
        const ExprVecReg& b = regs[op.b];
        ExprVecReg& r = regs[op.dst];
        Fit(&r.d, n);
        Fit(&r.null, n);
        for (size_t k = 0; k < n; ++k) {
          if ((r.null[k] = a.null[k] | b.null[k])) continue;
          switch (op.arith) {
            case ArithOp::kAdd:
              r.d[k] = a.d[k] + b.d[k];
              break;
            case ArithOp::kSub:
              r.d[k] = a.d[k] - b.d[k];
              break;
            case ArithOp::kMul:
              r.d[k] = a.d[k] * b.d[k];
              break;
            case ArithOp::kDiv:
              break;  // Division compiles to kDivDbl.
          }
        }
        break;
      }
      case OpCode::kDivDbl: {
        const ExprVecReg& a = regs[op.a];
        const ExprVecReg& b = regs[op.b];
        ExprVecReg& r = regs[op.dst];
        Fit(&r.d, n);
        Fit(&r.null, n);
        for (size_t k = 0; k < n; ++k) {
          if ((r.null[k] = a.null[k] | b.null[k] | (b.d[k] == 0.0)))
            continue;
          r.d[k] = a.d[k] / b.d[k];
        }
        break;
      }
      case OpCode::kCastDbl: {
        const ExprVecReg& a = regs[op.a];
        ExprVecReg& r = regs[op.dst];
        Fit(&r.d, n);
        Fit(&r.null, n);
        for (size_t k = 0; k < n; ++k) {
          r.null[k] = a.null[k];
          r.d[k] = static_cast<double>(a.i[k]);
        }
        break;
      }
      case OpCode::kAnd: {
        const ExprVecReg& a = regs[op.a];
        const ExprVecReg& b = regs[op.b];
        ExprVecReg& r = regs[op.dst];
        Fit(&r.t, n);
        for (size_t k = 0; k < n; ++k) r.t[k] = And(a.t[k], b.t[k]);
        break;
      }
      case OpCode::kOr: {
        const ExprVecReg& a = regs[op.a];
        const ExprVecReg& b = regs[op.b];
        ExprVecReg& r = regs[op.dst];
        Fit(&r.t, n);
        for (size_t k = 0; k < n; ++k) r.t[k] = Or(a.t[k], b.t[k]);
        break;
      }
      case OpCode::kNot: {
        const ExprVecReg& a = regs[op.a];
        ExprVecReg& r = regs[op.dst];
        Fit(&r.t, n);
        for (size_t k = 0; k < n; ++k) r.t[k] = Not(a.t[k]);
        break;
      }
      case OpCode::kIsNull: {
        const ExprVecReg& a = regs[op.a];
        ExprVecReg& r = regs[op.dst];
        Fit(&r.t, n);
        for (size_t k = 0; k < n; ++k) {
          r.t[k] = MakeTriBool((a.null[k] != 0) != op.flag);
        }
        break;
      }
      case OpCode::kIsNotTrue: {
        const ExprVecReg& a = regs[op.a];
        ExprVecReg& r = regs[op.dst];
        Fit(&r.t, n);
        for (size_t k = 0; k < n; ++k) {
          r.t[k] = MakeTriBool(!IsTrue(a.t[k]));
        }
        break;
      }
      case OpCode::kTestScalar: {
        const ExprVecReg& a = regs[op.a];
        ExprVecReg& r = regs[op.dst];
        Fit(&r.t, n);
        switch (op.expect) {
          case ValueType::kInt64:
            for (size_t k = 0; k < n; ++k) {
              r.t[k] = a.null[k] ? TriBool::kUnknown
                                 : MakeTriBool(a.i[k] != 0);
            }
            break;
          case ValueType::kDouble:
            for (size_t k = 0; k < n; ++k) {
              r.t[k] = a.null[k] ? TriBool::kUnknown
                                 : MakeTriBool(a.d[k] != 0.0);
            }
            break;
          default:  // Strings (and NULL statics) are UNKNOWN.
            for (size_t k = 0; k < n; ++k) r.t[k] = TriBool::kUnknown;
            break;
        }
        break;
      }
      case OpCode::kBoolToScalar: {
        const ExprVecReg& a = regs[op.a];
        ExprVecReg& r = regs[op.dst];
        Fit(&r.i, n);
        Fit(&r.null, n);
        for (size_t k = 0; k < n; ++k) {
          r.null[k] = IsUnknown(a.t[k]);
          r.i[k] = IsTrue(a.t[k]) ? 1 : 0;
        }
        break;
      }
    }
  }

  return regs[root_];
}

void ExprProgram::EvalPredMask(const EvalContext& ctx,
                               const ExprScratch& scratch,
                               ExprVecScratch* vec, size_t num_rows,
                               uint8_t* mask) const {
  if (ops_.size() == 1 && ops_[0].code == OpCode::kCmpColLit &&
      ops_[0].frame == scratch.batch_frame) {
    const ExprOp& op = ops_[0];
    const Column& col = ctx.ColumnAt(op.frame, op.col);
    GMDJ_DCHECK(col.type() == op.expect);
    CompareToLiteral(op, ColumnVector::Of(col, scratch.batch_begin),
                     num_rows, [mask](size_t k, uint8_t null, bool truth) {
                       mask[k] &= static_cast<uint8_t>(!null & truth);
                     });
    return;
  }
  const size_t n = num_rows;
  const ExprVecReg& root = EvalBatch(ctx, scratch, vec, n);
  if (root_is_pred_) {
    for (size_t k = 0; k < n; ++k) {
      mask[k] &= static_cast<uint8_t>(IsTrue(root.t[k]));
    }
    return;
  }
  switch (root_type_) {
    case ValueType::kInt64:
      for (size_t k = 0; k < n; ++k) {
        mask[k] &= static_cast<uint8_t>(!root.null[k] && root.i[k] != 0);
      }
      break;
    case ValueType::kDouble:
      for (size_t k = 0; k < n; ++k) {
        mask[k] &= static_cast<uint8_t>(!root.null[k] && root.d[k] != 0.0);
      }
      break;
    default:  // String/NULL scalar roots are UNKNOWN — never TRUE.
      for (size_t k = 0; k < n; ++k) mask[k] = 0;
      break;
  }
}

std::string ExprProgram::ToString() const {
  std::string out;
  for (size_t i = 0; i < ops_.size(); ++i) {
    const ExprOp& op = ops_[i];
    out += std::to_string(i) + ": ";
    switch (op.code) {
      case OpCode::kConst:
        out += "const ";
        if (op.const_reg.null && op.const_reg.t == TriBool::kUnknown) {
          out += "NULL";
        } else if (op.const_reg.s != nullptr) {
          out += "\"" + *op.const_reg.s + "\"";
        } else {
          out += "i=" + std::to_string(op.const_reg.i) +
                 "/d=" + std::to_string(op.const_reg.d) + "/t=" +
                 gmdj::ToString(op.const_reg.t);
        }
        break;
      case OpCode::kLoadCol:
        out += "loadcol f" + std::to_string(op.frame) + " c" +
               std::to_string(op.col) + " " + ValueTypeToString(op.expect);
        break;
      case OpCode::kCmpI64:
        out += std::string("cmp_i64 ") + CompareOpToString(op.cmp) + " r" +
               std::to_string(op.a) + " r" + std::to_string(op.b);
        break;
      case OpCode::kCmpDbl:
        out += std::string("cmp_dbl ") + CompareOpToString(op.cmp) + " r" +
               std::to_string(op.a) + " r" + std::to_string(op.b);
        break;
      case OpCode::kCmpStr:
        out += std::string("cmp_str ") + CompareOpToString(op.cmp) + " r" +
               std::to_string(op.a) + " r" + std::to_string(op.b);
        break;
      case OpCode::kCmpColLit:
        out += std::string("cmp_col_lit ") + CompareOpToString(op.cmp) +
               " f" + std::to_string(op.frame) + " c" +
               std::to_string(op.col) + " " + ValueTypeToString(op.expect) +
               (op.expect == ValueType::kString
                    ? " \"" + *op.const_reg.s + "\""
                : op.expect == ValueType::kInt64 && !op.flag
                    ? " " + std::to_string(op.const_reg.i)
                    : " " + std::to_string(op.const_reg.d));
        break;
      case OpCode::kArithI64:
        out += "arith_i64 r" + std::to_string(op.a) + " r" +
               std::to_string(op.b);
        break;
      case OpCode::kArithDbl:
        out += "arith_dbl r" + std::to_string(op.a) + " r" +
               std::to_string(op.b);
        break;
      case OpCode::kDivDbl:
        out += "div_dbl r" + std::to_string(op.a) + " r" +
               std::to_string(op.b);
        break;
      case OpCode::kCastDbl:
        out += "cast_dbl r" + std::to_string(op.a);
        break;
      case OpCode::kAnd:
        out += "and r" + std::to_string(op.a) + " r" + std::to_string(op.b);
        break;
      case OpCode::kOr:
        out += "or r" + std::to_string(op.a) + " r" + std::to_string(op.b);
        break;
      case OpCode::kNot:
        out += "not r" + std::to_string(op.a);
        break;
      case OpCode::kIsNull:
        out += op.flag ? "is_not_null r" : "is_null r";
        out += std::to_string(op.a);
        break;
      case OpCode::kIsNotTrue:
        out += "is_not_true r" + std::to_string(op.a);
        break;
      case OpCode::kTestScalar:
        out += "test_scalar r" + std::to_string(op.a);
        break;
      case OpCode::kBoolToScalar:
        out += "bool_to_scalar r" + std::to_string(op.a);
        break;
    }
    out += " -> r" + std::to_string(op.dst) + "\n";
  }
  return out;
}

}  // namespace gmdj
