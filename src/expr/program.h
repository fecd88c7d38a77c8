#ifndef GMDJ_EXPR_PROGRAM_H_
#define GMDJ_EXPR_PROGRAM_H_

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "expr/expr.h"
#include "types/tribool.h"
#include "types/value.h"

namespace gmdj {

/// One typed register of the expression VM. Scalar results live in the
/// payload fields gated by `null`; predicate results live in `t`. The
/// struct is deliberately flat (no variant) so the hot evaluation loop is
/// straight-line loads and stores.
struct ExprReg {
  int64_t i = 0;
  double d = 0.0;
  const std::string* s = nullptr;  // Borrowed from a row, batch, or pool.
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

/// Mutable per-thread evaluation state: the register file, plus the chunk
/// the batch calls (EvalBatch / EvalPredMask) evaluate: rows
/// [batch_begin, batch_begin + num_rows) of frame `batch_frame`'s table.
struct ExprScratch {
  static constexpr size_t kNoBatch = static_cast<size_t>(-1);

  std::vector<ExprReg> regs;
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

/// Per-thread register file of the batch VM (EvalPredMask). Kept separate
/// from ExprScratch because only chunk-granular callers (the GMDJ
/// detail-only pass) pay for the columnar registers.
struct ExprVecScratch {
  std::vector<ExprVecReg> regs;
};

/// Opcodes of the flat expression VM. Scalar ops are typed at compile time
/// from the bound tree's static types. kLoadCol reads the typed column in
/// place: columns refuse values of another type at append, so the static
/// type is the runtime type. kInterpret verifies the runtime type of the
/// subtree's result and bails the whole evaluation to the tree interpreter
/// on a mismatch, so compilation can never change semantics.
enum class OpCode : unsigned char {
  kConst,       // regs[dst] = const_reg (payload + tribool prepared once).
  kLoadCol,     // regs[dst] = frame's cell `col`, typed `expect`.
  kCmpI64,      // t[dst] = i[a] cmp i[b]; UNKNOWN when either is null.
  kCmpDbl,      // t[dst] = d[a] cmp d[b]; UNKNOWN when either is null.
  kCmpStr,      // t[dst] = *s[a] cmp *s[b]; UNKNOWN when either is null.
  kCmpColLit,   // t[dst] = frame's cell `col` cmp const_reg, the literal;
                // UNKNOWN on a NULL cell. `expect` is the column's type;
                // `flag`: an int64 column compares as double (const_reg.d).
  kArithI64,    // i[dst] = i[a] op i[b]; NULL propagates.
  kArithDbl,    // d[dst] = d[a] op d[b]; NULL propagates.
  kDivDbl,      // d[dst] = d[a] / d[b]; NULL on null input or zero divisor.
  kCastDbl,     // d[dst] = (double) i[a]; inserted for mixed numerics.
  kAnd,         // t[dst] = And(t[a], t[b])  (Kleene min).
  kOr,          // t[dst] = Or(t[a], t[b])   (Kleene max).
  kNot,         // t[dst] = Not(t[a]).
  kJmpIfFalse,  // if t[a] == FALSE: t[dst] = FALSE; pc = target.
  kJmpIfTrue,   // if t[a] == TRUE:  t[dst] = TRUE;  pc = target.
  kIsNull,      // t[dst] = null[a] (xor `flag` for IS NOT NULL); 2VL.
  kIsNotTrue,   // t[dst] = !(t[a] == TRUE); 2VL.
  kTestScalar,  // t[dst] = ValueToTri(scalar reg a), per its static type.
  kBoolToScalar,  // i[dst]/null[dst] = TriToValue(t[a]).
  kInterpret,   // regs[dst] = expr->Eval/EvalPred(ctx); bail on type drift.
};

/// One instruction. Wider than strictly necessary; programs are tiny
/// (typically < 16 ops) and built once per operator execution.
struct ExprOp {
  OpCode code = OpCode::kConst;
  CompareOp cmp = CompareOp::kEq;    // kCmp*.
  ArithOp arith = ArithOp::kAdd;     // kArith*.
  bool flag = false;  // kIsNull: negated; kInterpret: as-pred;
                      // kCmpColLit: int64 column as double.
  ValueType expect = ValueType::kNull;  // kLoadCol / kCmpColLit / kInterpret
                                        // static type.
  uint16_t a = 0;
  uint16_t b = 0;
  uint16_t dst = 0;
  uint16_t frame = 0;                // kLoadCol, kCmpColLit.
  uint32_t col = 0;                  // kLoadCol, kCmpColLit.
  uint32_t target = 0;               // kJmpIf*.
  const Expr* expr = nullptr;        // kInterpret subtree (borrowed).
  ExprReg const_reg;                 // kConst payload; kCmpColLit literal.
};

/// A bound expression lowered to a flat register program.
///
/// Built by Compile (expr/compile.cc); evaluated with a caller-provided
/// ExprScratch so one program can run concurrently on many threads. The
/// program *borrows* the source expression tree: kInterpret ops call back
/// into it, and any evaluation that trips a runtime type surprise re-runs
/// the whole row through `Expr::EvalPred`/`Eval` — the tree must outlive
/// the program.
class ExprProgram {
 public:
  /// 3VL predicate evaluation (the compiled Expr::EvalPred).
  TriBool EvalPred(const EvalContext& ctx, ExprScratch* scratch) const;

  /// Batch predicate evaluation over the `num_rows` chunk rows described
  /// by `scratch` (batch_frame / batch_begin): each opcode
  /// dispatches once per chunk and runs as a tight typed loop, so the
  /// per-row cost is the kernel body instead of the VM switch. On success
  /// ANDs IsTrue(predicate) for every row into `mask` and returns true.
  /// A program that is one kCmpColLit over the batch frame ANDs straight
  /// into `mask`, with no register.
  ///
  /// Returns false — with `mask` untouched — when the program holds a
  /// kInterpret op, which cannot run as a column kernel. Callers then fall
  /// back to per-row EvalPred, which is exact.
  ///
  /// Evaluates all rows, including rows whose mask byte is already 0: ops
  /// are pure and total (division by zero yields NULL), so the dead lanes
  /// cannot raise errors and their results are discarded by the final AND.
  /// kJmpIf* short-circuits become no-ops — both branches are computed and
  /// kAnd/kOr produce the same Kleene result the scalar VM's jump would.
  bool EvalPredMask(const EvalContext& ctx, const ExprScratch& scratch,
                    ExprVecScratch* vec, size_t num_rows,
                    uint8_t* mask) const;

  /// Batch scalar evaluation over the chunk rows described by `scratch`:
  /// the register VM of EvalPredMask, returning the root register (valid
  /// until the next batch call on `vec`). Row k holds Eval's value for
  /// chunk row k: NULL when `null[k]`, else `i[k]` or `d[k]` by
  /// result_type(). Null under the conditions EvalPredMask returns false;
  /// callers then evaluate per row with Eval, which is exact.
  const ExprVecReg* EvalBatch(const EvalContext& ctx,
                              const ExprScratch& scratch, ExprVecScratch* vec,
                              size_t num_rows) const;

  /// Scalar evaluation (the compiled Expr::Eval).
  Value Eval(const EvalContext& ctx, ExprScratch* scratch) const;

  /// Static type of Eval's non-NULL results; kNull for a predicate root
  /// (Eval then yields TriToValue of the predicate).
  ValueType result_type() const {
    return root_is_pred_ ? ValueType::kNull : root_type_;
  }

  /// True when no opcode falls back to the tree interpreter.
  bool fully_compiled() const { return interpret_ops_ == 0; }

  size_t num_ops() const { return ops_.size(); }
  size_t num_regs() const { return num_regs_; }
  const ExprOp& op(size_t i) const { return ops_[i]; }
  const Expr* source() const { return source_; }

  /// Ensures `scratch` has enough registers for this program.
  void PrepareScratch(ExprScratch* scratch) const {
    if (scratch->regs.size() < num_regs_) scratch->regs.resize(num_regs_);
  }

  /// Disassembly, one op per line ("0: loadcol f1 c3 -> r0").
  std::string ToString() const;

 private:
  friend class ExprCompiler;

  /// Runs the program; false = bailed (caller re-interprets the tree).
  bool Run(const EvalContext& ctx, ExprScratch* scratch) const;

  std::vector<ExprOp> ops_;
  std::deque<std::string> str_pool_;  // Stable storage for kConst strings.
  uint16_t num_regs_ = 0;
  uint16_t root_ = 0;
  bool root_is_pred_ = false;
  ValueType root_type_ = ValueType::kNull;
  size_t interpret_ops_ = 0;
  const Expr* source_ = nullptr;
};

/// Lowers a bound expression into an ExprProgram. Never fails: exotic or
/// unbound nodes land in kInterpret fallback ops (semantics preserved
/// exactly), constant subtrees are folded to kConst. `frames` are the
/// schemas the expression was bound against, used to validate column
/// bindings before trusting them with typed loads.
ExprProgram Compile(const Expr& expr,
                    const std::vector<const Schema*>& frames);

/// The interpreted evaluation mode as a program: one kInterpret op over
/// the whole bound tree, so a caller runs the same program path in both
/// modes and the tree interpreter does all the work.
ExprProgram CompileInterpreted(const Expr& expr);

}  // namespace gmdj

#endif  // GMDJ_EXPR_PROGRAM_H_
