#ifndef GMDJ_EXPR_EXPR_H_
#define GMDJ_EXPR_EXPR_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/table.h"
#include "types/row.h"
#include "types/schema.h"
#include "types/tribool.h"
#include "types/value.h"

namespace gmdj {

class Expr;
using ExprPtr = std::unique_ptr<Expr>;

/// Evaluation context: a stack of frames, one per table scope currently in
/// play. Frame 0 is the outermost scope; the innermost is at the back. A
/// frame is a (table, row) position: expressions read the cells of that
/// row in place, through the table's typed columns.
///
/// Correlation ("free references" in the paper) is simply a column
/// reference bound to a non-innermost frame. A GMDJ θ condition evaluates
/// with frames [... outer scopes ..., base, detail]; the native subquery
/// evaluator pushes a frame per nested block.
class EvalContext {
 public:
  struct Frame {
    const Table* table = nullptr;
    const Table::ColumnHandle* columns = nullptr;  // table->columns().
    size_t row = 0;
  };

  EvalContext() = default;

  /// `table` must keep its columns (no AddColumn) while the frame is up.
  void PushFrame(const Table* table, size_t row = 0) {
    frames_.push_back(
        Frame{table, table != nullptr ? table->columns() : nullptr, row});
  }
  void PopFrame() { frames_.pop_back(); }

  /// Moves the innermost frame to `row` (hot loop: the detail row changes
  /// per iteration while outer frames stay fixed).
  void SetTopRow(size_t row) { frames_.back().row = row; }
  void SetRow(size_t frame, size_t row) { frames_[frame].row = row; }

  size_t num_frames() const { return frames_.size(); }
  const Frame& frame(size_t i) const { return frames_[i]; }

  /// The column `column` of frame `frame`'s table, and the frame's row.
  const Column& ColumnAt(size_t frame, size_t column) const {
    return *frames_[frame].columns[column];
  }
  size_t RowAt(size_t frame) const { return frames_[frame].row; }

  Value ValueAt(size_t frame, size_t column) const {
    return ColumnAt(frame, column).Get(frames_[frame].row);
  }

 private:
  std::vector<Frame> frames_;
};

/// Kinds of scalar/predicate expression nodes.
enum class ExprKind : unsigned char {
  kColumnRef,
  kLiteral,
  kCompare,
  kArith,
  kAnd,
  kOr,
  kNot,
  kIsNull,    // IS NULL / IS NOT NULL
  kIsNotTrue, // IS NOT TRUE (maps UNKNOWN -> TRUE); used by unnesting.
  kCoalesce,  // COALESCE(a, b): first non-NULL argument.
  kCase,      // CASE WHEN cond THEN a ELSE b END.
  kLike,      // string [NOT] LIKE pattern (%, _ wildcards).
};

/// Arithmetic operators. Division always yields DOUBLE (the paper's
/// `sum1/sum2` fraction); other operators keep INT64 when both inputs are
/// INT64. Division by zero yields NULL.
enum class ArithOp : unsigned char { kAdd, kSub, kMul, kDiv };

/// Base class for scalar and predicate expressions.
///
/// Lifecycle: build an unbound tree (see expr_builder.h), `Bind` it against
/// an ordered list of scope schemas, then evaluate row-at-a-time with
/// `Eval` (scalar) or `EvalPred` (3VL predicate). Trees are `Clone`-able so
/// the translators can reuse and rewrite conditions freely.
class Expr {
 public:
  virtual ~Expr() = default;

  virtual ExprKind kind() const = 0;

  /// Resolves column references against `frames` (outermost first) and
  /// infers the result type. Idempotent; re-binding against different
  /// frames is allowed.
  virtual Status Bind(const std::vector<const Schema*>& frames) = 0;

  /// Scalar value of the expression for the rows in `ctx`. For predicate
  /// nodes this is the SQL boolean encoding: NULL=unknown, 0=false,
  /// 1=true.
  virtual Value Eval(const EvalContext& ctx) const;

  /// Predicate value with SQL 3VL. For scalar nodes: NULL -> UNKNOWN,
  /// 0 -> FALSE, nonzero -> TRUE.
  virtual TriBool EvalPred(const EvalContext& ctx) const;

  /// Deep copy (unbound state is preserved; binding info is copied too).
  virtual ExprPtr Clone() const = 0;

  /// Declared result type; valid after a successful Bind.
  ValueType result_type() const { return result_type_; }

  /// Human-readable rendering, e.g. "(F.StartTime >= B.StartInterval)".
  virtual std::string ToString() const = 0;

 protected:
  ValueType result_type_ = ValueType::kNull;
};

/// Reference to a column "name" or "Qualifier.name"; resolves innermost
/// frame first, so free references see the nearest enclosing scope that
/// defines them (standard SQL scoping).
class ColumnRefExpr final : public Expr {
 public:
  /// `pinned_frame` >= 0 restricts resolution to exactly that frame index;
  /// the GMDJ translator uses this to disambiguate synthetic columns (e.g.
  /// row ids) that exist in both the base and detail frames.
  explicit ColumnRefExpr(std::string ref, int pinned_frame = -1)
      : ref_(std::move(ref)), pinned_frame_(pinned_frame) {}

  ExprKind kind() const override { return ExprKind::kColumnRef; }
  Status Bind(const std::vector<const Schema*>& frames) override;
  Value Eval(const EvalContext& ctx) const override;
  ExprPtr Clone() const override;
  std::string ToString() const override { return ref_; }

  const std::string& ref() const { return ref_; }
  void set_ref(std::string ref) { ref_ = std::move(ref); }
  int pinned_frame() const { return pinned_frame_; }
  /// Frame index (absolute, 0 = outermost) after binding.
  size_t bound_frame() const { return bound_frame_; }
  size_t bound_column() const { return bound_column_; }

 private:
  std::string ref_;
  int pinned_frame_ = -1;
  size_t bound_frame_ = 0;
  size_t bound_column_ = 0;
};

/// Constant.
class LiteralExpr final : public Expr {
 public:
  explicit LiteralExpr(Value value) : value_(std::move(value)) {
    result_type_ = value_.type();
  }

  ExprKind kind() const override { return ExprKind::kLiteral; }
  Status Bind(const std::vector<const Schema*>& frames) override;
  Value Eval(const EvalContext& ctx) const override { (void)ctx; return value_; }
  ExprPtr Clone() const override;
  std::string ToString() const override;

  const Value& value() const { return value_; }

 private:
  Value value_;
};

/// Binary comparison with SQL 3VL semantics.
class CompareExpr final : public Expr {
 public:
  CompareExpr(CompareOp op, ExprPtr lhs, ExprPtr rhs)
      : op_(op), lhs_(std::move(lhs)), rhs_(std::move(rhs)) {}

  ExprKind kind() const override { return ExprKind::kCompare; }
  Status Bind(const std::vector<const Schema*>& frames) override;
  TriBool EvalPred(const EvalContext& ctx) const override;
  ExprPtr Clone() const override;
  std::string ToString() const override;

  CompareOp op() const { return op_; }
  const Expr& lhs() const { return *lhs_; }
  const Expr& rhs() const { return *rhs_; }

 private:
  /// Sets up the column-vs-literal fast path (after the operands bound).
  void BindColumnLiteral();

  CompareOp op_;
  ExprPtr lhs_;
  ExprPtr rhs_;
  // Fast paths: when both operands are bound column references, or one is
  // and the other a literal, evaluation compares in place, skipping the
  // Value copies. These are the hottest comparison shapes in every engine
  // (join, correlation and filter predicates), so the branches pay for
  // themselves many times over.
  bool col_col_ = false;
  bool col_lit_ = false;          // lhs_* is the column, `lit_` the value.
  CompareOp col_lit_op_ = CompareOp::kEq;  // Mirrored when the literal leads.
  const Value* lit_ = nullptr;    // Owned by the literal operand.
  size_t lhs_frame_ = 0, lhs_col_ = 0;
  size_t rhs_frame_ = 0, rhs_col_ = 0;
};

/// Binary arithmetic with NULL propagation.
class ArithExpr final : public Expr {
 public:
  ArithExpr(ArithOp op, ExprPtr lhs, ExprPtr rhs)
      : op_(op), lhs_(std::move(lhs)), rhs_(std::move(rhs)) {}

  ExprKind kind() const override { return ExprKind::kArith; }
  Status Bind(const std::vector<const Schema*>& frames) override;
  Value Eval(const EvalContext& ctx) const override;
  ExprPtr Clone() const override;
  std::string ToString() const override;

  ArithOp op() const { return op_; }
  const Expr& lhs() const { return *lhs_; }
  const Expr& rhs() const { return *rhs_; }

 private:
  ArithOp op_;
  ExprPtr lhs_;
  ExprPtr rhs_;
};

/// Kleene conjunction.
class AndExpr final : public Expr {
 public:
  AndExpr(ExprPtr lhs, ExprPtr rhs) : lhs_(std::move(lhs)), rhs_(std::move(rhs)) {}

  ExprKind kind() const override { return ExprKind::kAnd; }
  Status Bind(const std::vector<const Schema*>& frames) override;
  TriBool EvalPred(const EvalContext& ctx) const override;
  ExprPtr Clone() const override;
  std::string ToString() const override;

  const Expr& lhs() const { return *lhs_; }
  const Expr& rhs() const { return *rhs_; }

 private:
  ExprPtr lhs_;
  ExprPtr rhs_;
};

/// Kleene disjunction.
class OrExpr final : public Expr {
 public:
  OrExpr(ExprPtr lhs, ExprPtr rhs) : lhs_(std::move(lhs)), rhs_(std::move(rhs)) {}

  ExprKind kind() const override { return ExprKind::kOr; }
  Status Bind(const std::vector<const Schema*>& frames) override;
  TriBool EvalPred(const EvalContext& ctx) const override;
  ExprPtr Clone() const override;
  std::string ToString() const override;

  const Expr& lhs() const { return *lhs_; }
  const Expr& rhs() const { return *rhs_; }

 private:
  ExprPtr lhs_;
  ExprPtr rhs_;
};

/// Kleene negation.
class NotExpr final : public Expr {
 public:
  explicit NotExpr(ExprPtr input) : input_(std::move(input)) {}

  ExprKind kind() const override { return ExprKind::kNot; }
  Status Bind(const std::vector<const Schema*>& frames) override;
  TriBool EvalPred(const EvalContext& ctx) const override;
  ExprPtr Clone() const override;
  std::string ToString() const override;

  const Expr& input() const { return *input_; }

 private:
  ExprPtr input_;
};

/// IS [NOT] NULL — a 2VL predicate (never UNKNOWN).
class IsNullExpr final : public Expr {
 public:
  IsNullExpr(ExprPtr input, bool negated)
      : input_(std::move(input)), negated_(negated) {}

  ExprKind kind() const override { return ExprKind::kIsNull; }
  Status Bind(const std::vector<const Schema*>& frames) override;
  TriBool EvalPred(const EvalContext& ctx) const override;
  ExprPtr Clone() const override;
  std::string ToString() const override;

  bool negated() const { return negated_; }
  const Expr& input() const { return *input_; }

 private:
  ExprPtr input_;
  bool negated_;
};

/// IS NOT TRUE: TRUE when the input predicate is FALSE or UNKNOWN.
///
/// The join-unnesting baseline needs this to translate ALL quantifiers:
/// `x >all S` keeps a tuple iff no subquery row makes `x > y` false *or
/// unknown*, i.e. the anti-join probe predicate is `(x > y) IS NOT TRUE`.
class IsNotTrueExpr final : public Expr {
 public:
  explicit IsNotTrueExpr(ExprPtr input) : input_(std::move(input)) {}

  ExprKind kind() const override { return ExprKind::kIsNotTrue; }
  Status Bind(const std::vector<const Schema*>& frames) override;
  TriBool EvalPred(const EvalContext& ctx) const override;
  ExprPtr Clone() const override;
  std::string ToString() const override;

  const Expr& input() const { return *input_; }

 private:
  ExprPtr input_;
};

/// SQL [NOT] LIKE with `%` (any run) and `_` (any single character)
/// wildcards. UNKNOWN when the input is NULL; the pattern is a constant.
class LikeExpr final : public Expr {
 public:
  LikeExpr(ExprPtr input, std::string pattern, bool negated)
      : input_(std::move(input)),
        pattern_(std::move(pattern)),
        negated_(negated) {}

  ExprKind kind() const override { return ExprKind::kLike; }
  Status Bind(const std::vector<const Schema*>& frames) override;
  TriBool EvalPred(const EvalContext& ctx) const override;
  ExprPtr Clone() const override;
  std::string ToString() const override;

  const Expr& input() const { return *input_; }
  const std::string& pattern() const { return pattern_; }
  bool negated() const { return negated_; }

 private:
  ExprPtr input_;
  std::string pattern_;
  bool negated_;
};

/// CASE WHEN `condition` THEN `then` ELSE `otherwise` END.
///
/// SQL semantics: the THEN branch fires only when the condition is TRUE;
/// FALSE and UNKNOWN both take the ELSE branch. With a NULL ELSE branch
/// this is the conditional-aggregation idiom (`SUM(CASE WHEN θ THEN x
/// END)`) that the GMDJ-to-SQL reduction rests on.
///
/// Binds to its branches' common type: a NULL branch takes the other's,
/// INT64 and DOUBLE widen to DOUBLE, and STRING beside a number is an
/// InvalidArgument. COALESCE binds the same way.
class CaseExpr final : public Expr {
 public:
  CaseExpr(ExprPtr condition, ExprPtr then, ExprPtr otherwise)
      : condition_(std::move(condition)),
        then_(std::move(then)),
        otherwise_(std::move(otherwise)) {}

  ExprKind kind() const override { return ExprKind::kCase; }
  Status Bind(const std::vector<const Schema*>& frames) override;
  Value Eval(const EvalContext& ctx) const override;
  ExprPtr Clone() const override;
  std::string ToString() const override;

  const Expr& condition() const { return *condition_; }
  const Expr& then_branch() const { return *then_; }
  const Expr& else_branch() const { return *otherwise_; }

 private:
  ExprPtr condition_;
  ExprPtr then_;
  ExprPtr otherwise_;
};

/// COALESCE(a, b): `a` unless it is NULL, else `b`.
///
/// The join-unnesting baseline patches the classic COUNT bug with it: a
/// left-outer-joined COUNT aggregate is NULL for unmatched outer rows but
/// must compare as 0.
class CoalesceExpr final : public Expr {
 public:
  CoalesceExpr(ExprPtr first, ExprPtr second)
      : first_(std::move(first)), second_(std::move(second)) {}

  ExprKind kind() const override { return ExprKind::kCoalesce; }
  Status Bind(const std::vector<const Schema*>& frames) override;
  Value Eval(const EvalContext& ctx) const override;
  ExprPtr Clone() const override;
  std::string ToString() const override;

  const Expr& first() const { return *first_; }
  const Expr& second() const { return *second_; }

 private:
  ExprPtr first_;
  ExprPtr second_;
};

}  // namespace gmdj

#endif  // GMDJ_EXPR_EXPR_H_
