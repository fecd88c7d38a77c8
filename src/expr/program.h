#ifndef GMDJ_EXPR_PROGRAM_H_
#define GMDJ_EXPR_PROGRAM_H_

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "expr/expr.h"
#include "types/tribool.h"
#include "types/value.h"

namespace gmdj {

/// One typed compile-time constant: a kConst op's payload, or a
/// kCmpColLit op's literal. Scalars live in the payload fields gated by
/// `null`; a predicate constant lives in `t`.
struct ExprReg {
  int64_t i = 0;
  double d = 0.0;
  const std::string* s = nullptr;  // Into the program's string pool.
  TriBool t = TriBool::kUnknown;
  bool null = true;
};

/// A typed view of one table column from row `begin` on: the batch VM's
/// and the GMDJ chunk kernel's columnar input, read in place. Only the
/// array matching `type` is set; `null[k]` is row begin + k's validity.
struct ColumnVector {
  ValueType type = ValueType::kInt64;
  const uint8_t* null = nullptr;
  const int64_t* i64 = nullptr;
  const double* dbl = nullptr;
  const std::string* str = nullptr;

  static ColumnVector Of(const Column& col, size_t begin) {
    ColumnVector v;
    v.type = col.type();
    v.null = col.nulls() + begin;
    switch (col.type()) {
      case ValueType::kInt64:
        v.i64 = col.i64_data() + begin;
        break;
      case ValueType::kDouble:
        v.dbl = col.dbl_data() + begin;
        break;
      case ValueType::kString:
        v.str = col.str_data() + begin;
        break;
      case ValueType::kNull:
        break;
    }
    return v;
  }
};

/// The chunk the batch calls (EvalBatch / EvalPredMask) evaluate: rows
/// [batch_begin, batch_begin + num_rows) of frame `batch_frame`'s table.
/// Every other frame is fixed at its EvalContext row for the chunk.
struct ExprScratch {
  static constexpr size_t kNoBatch = static_cast<size_t>(-1);

  size_t batch_frame = kNoBatch;
  size_t batch_begin = 0;
};

/// One register of the *batch* VM: a column of ExprReg fields, one entry
/// per chunk row. Vectors grow to the chunk size on first use and keep
/// their capacity across chunks.
struct ExprVecReg {
  std::vector<int64_t> i;
  std::vector<double> d;
  std::vector<const std::string*> s;
  std::vector<TriBool> t;
  std::vector<uint8_t> null;
};

/// Per-thread register file of the batch VM.
struct ExprVecScratch {
  std::vector<ExprVecReg> regs;
};

/// Opcodes of the batch expression VM. Every op runs as one typed loop
/// over the chunk; its types are fixed at compile time from the bound
/// tree's static types. kLoadCol reads the typed column in place:
/// columns refuse values of another type at append, so the static type
/// is the runtime type.
enum class OpCode : unsigned char {
  kConst,       // regs[dst] = const_reg (payload + tribool prepared once).
  kLoadCol,     // regs[dst] = frame's column `col`, typed `expect`.
  kCmpI64,      // t[dst] = i[a] cmp i[b]; UNKNOWN when either is null.
  kCmpDbl,      // t[dst] = d[a] cmp d[b]; UNKNOWN when either is null.
  kCmpStr,      // t[dst] = *s[a] cmp *s[b]; UNKNOWN when either is null.
  kCmpColLit,   // t[dst] = frame's column `col` cmp const_reg, the literal;
                // UNKNOWN on a NULL cell. `expect` is the column's type;
                // `flag`: an int64 column compares as double (const_reg.d).
  kArithI64,    // i[dst] = i[a] op i[b]; NULL propagates.
  kArithDbl,    // d[dst] = d[a] op d[b]; NULL propagates.
  kDivDbl,      // d[dst] = d[a] / d[b]; NULL on null input or zero divisor.
  kCastDbl,     // d[dst] = (double) i[a]; inserted for mixed numerics.
  kAnd,         // t[dst] = And(t[a], t[b])  (Kleene min).
  kOr,          // t[dst] = Or(t[a], t[b])   (Kleene max).
  kNot,         // t[dst] = Not(t[a]).
  kIsNull,      // t[dst] = null[a] (xor `flag` for IS NOT NULL); 2VL.
  kIsNotTrue,   // t[dst] = !(t[a] == TRUE); 2VL.
  kTestScalar,  // t[dst] = ValueToTri(scalar reg a), per its static type.
  kBoolToScalar,  // i[dst]/null[dst] = TriToValue(t[a]).
};

/// One instruction. Wider than strictly necessary; programs are tiny
/// (typically < 16 ops) and built once per operator execution.
struct ExprOp {
  OpCode code = OpCode::kConst;
  CompareOp cmp = CompareOp::kEq;    // kCmp*.
  ArithOp arith = ArithOp::kAdd;     // kArith*.
  bool flag = false;  // kIsNull: negated; kCmpColLit: int64 column as double.
  ValueType expect = ValueType::kNull;  // kLoadCol / kCmpColLit / kTestScalar
                                        // static type.
  uint16_t a = 0;
  uint16_t b = 0;
  uint16_t dst = 0;
  uint16_t frame = 0;                // kLoadCol, kCmpColLit.
  uint32_t col = 0;                  // kLoadCol, kCmpColLit.
  ExprReg const_reg;                 // kConst payload; kCmpColLit literal.
};

/// A bound expression lowered to a flat program of typed column kernels.
///
/// Built by Compile (expr/compile.cc), which declines any tree it cannot
/// lower whole; the caller then evaluates that tree per row with
/// Expr::EvalPred / Eval. A program owns its constants and reads only
/// the tables of the EvalContext it runs against, so one program runs
/// concurrently on many threads, each with its own ExprVecScratch.
class ExprProgram {
 public:
  ExprProgram() = default;
  /// Move-only: ops point into `str_pool_`, whose strings keep their
  /// addresses when the pool moves but not when it is copied. (A deque's
  /// move may throw, so a copyable program would be copied, not moved,
  /// when a vector of programs grows.)
  ExprProgram(ExprProgram&&) = default;
  ExprProgram& operator=(ExprProgram&&) = default;
  ExprProgram(const ExprProgram&) = delete;
  ExprProgram& operator=(const ExprProgram&) = delete;

  /// Batch predicate evaluation over the `num_rows` chunk rows described
  /// by `scratch` (batch_frame / batch_begin): each opcode dispatches
  /// once per chunk and runs as a tight typed loop. ANDs IsTrue(predicate)
  /// for every row into `mask`. A program that is one kCmpColLit over the
  /// batch frame ANDs straight into `mask`, with no register.
  ///
  /// Evaluates all rows, including rows whose mask byte is already 0: ops
  /// are pure and total (division by zero yields NULL), so the dead lanes
  /// cannot raise errors and their results are discarded by the final AND.
  /// AND and OR compute both operands; the Kleene kAnd/kOr give the
  /// interpreter's short-circuit result.
  void EvalPredMask(const EvalContext& ctx, const ExprScratch& scratch,
                    ExprVecScratch* vec, size_t num_rows,
                    uint8_t* mask) const;

  /// Batch scalar evaluation over the chunk rows described by `scratch`:
  /// the register VM of EvalPredMask, returning the root register (valid
  /// until the next batch call on `vec`). Row k holds Expr::Eval's value
  /// for chunk row k: for a predicate root TriToValue(t[k]); otherwise
  /// NULL when `null[k]`, else `i[k]`, `d[k]` or `*s[k]` by result_type().
  const ExprVecReg& EvalBatch(const EvalContext& ctx,
                              const ExprScratch& scratch, ExprVecScratch* vec,
                              size_t num_rows) const;

  /// Static type of the root's non-NULL values; kNull for a predicate
  /// root.
  ValueType result_type() const {
    return root_is_pred_ ? ValueType::kNull : root_type_;
  }

  /// Whether the root is a predicate, whose EvalBatch rows live in `t`.
  bool root_is_pred() const { return root_is_pred_; }

  size_t num_ops() const { return ops_.size(); }
  size_t num_regs() const { return num_regs_; }
  const ExprOp& op(size_t i) const { return ops_[i]; }

  /// Disassembly, one op per line ("0: loadcol f1 c3 -> r0").
  std::string ToString() const;

 private:
  friend class ExprCompiler;

  std::vector<ExprOp> ops_;
  std::deque<std::string> str_pool_;  // Stable storage for kConst strings.
  uint16_t num_regs_ = 0;
  uint16_t root_ = 0;
  bool root_is_pred_ = false;
  ValueType root_type_ = ValueType::kNull;
};

/// Lowers a bound expression into an ExprProgram, folding constant
/// subtrees to kConst. Empty when some node has no typed opcode — LIKE, a
/// CASE or COALESCE that is not constant, a string compared with a
/// number — or a column's binding does not match `frames`, the schemas
/// the expression was bound against.
std::optional<ExprProgram> Compile(const Expr& expr,
                                   const std::vector<const Schema*>& frames);

}  // namespace gmdj

#endif  // GMDJ_EXPR_PROGRAM_H_
