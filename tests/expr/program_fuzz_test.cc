// Differential fuzz of the expression compiler: random typed expression
// trees over a two-frame (base, detail) scope are lowered with Compile()
// and evaluated side by side with the tree interpreter over NULL-heavy
// rows. The batch VM runs each program twice: batched over the detail
// frame with a base row broadcast, and batched over the base frame with a
// detail row broadcast. Every divergence — EvalPredMask's verdict, or
// EvalBatch's root value or its runtime type — is a compiler bug: the
// programs must be bit-exact, including the Kleene UNKNOWN edges and the
// div-by-zero → NULL rule. A tree Compile declines is evaluated by the
// interpreter alone; its largest subtrees that do lower are checked in
// its place. Runtime type drift in a
// column (a value whose type contradicts the declared column type)
// cannot be built: tables refuse it at append.
//
// The generator is seeded with fixed constants (common/rng.h is
// platform-deterministic), so failures reproduce exactly.

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "expr/expr.h"
#include "expr/expr_builder.h"
#include "expr/program.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace gmdj {
namespace {

using testutil::MakeTable;

/// String cells and literals: short ones sharing prefixes, NUL bytes
/// inside and at the end, and lengths either side of 16 bytes.
const std::vector<std::string>& FuzzStrings() {
  static const std::vector<std::string> kStrings = {
      "", "a", "ab", "b", "ba", std::string("ab\0", 3),
      std::string("a\0b", 3), std::string(16, 'a'),
      "a string well past any small-string buffer"};
  return kStrings;
}

// Random expression trees over the fixed two-frame scope. Depth is capped
// low and integer literals/columns stay in [-3, 3] so the deepest
// all-integer product is far from overflow (UBSan-clean).
//
// The interpreter is total on comparisons, IS NULL, and the boolean ops,
// but ArithExpr::Eval is partial: AsDouble() on a string value is a
// contract violation (the engine's binder never produces string
// arithmetic). The generator therefore threads an `arith_safe` constraint
// through scalar positions: subtrees under an arithmetic node draw leaves
// only from `arith_cols` (numeric columns whose *data* is numeric-or-NULL)
// and numeric/NULL literals, including through CASE/COALESCE branches.
// Comparison operands and IS NULL inputs stay unrestricted.
class ExprGen {
 public:
  ExprGen(Rng* rng, std::vector<std::string> arith_cols,
          std::vector<std::string> cmp_cols)
      : rng_(rng),
        arith_cols_(std::move(arith_cols)),
        cmp_cols_(std::move(cmp_cols)) {}

  ExprPtr GenPred(int depth) {
    if (depth <= 0) {
      if (rng_->Chance(0.5)) return GenColumnLiteral();
      return Cmp(GenLeaf(false), RandomCmpOp(), GenLeaf(false));
    }
    const int64_t roll = rng_->Uniform(0, 99);
    if (roll < 15) return GenColumnLiteral();
    if (roll < 35) return Cmp(GenScalar(depth - 1, false), RandomCmpOp(),
                              GenScalar(depth - 1, false));
    if (roll < 50) return And(GenPred(depth - 1), GenPred(depth - 1));
    if (roll < 65) return Or(GenPred(depth - 1), GenPred(depth - 1));
    if (roll < 75) return Not(GenPred(depth - 1));
    if (roll < 85) {
      return std::make_unique<IsNullExpr>(GenScalar(depth - 1, false),
                                          rng_->Chance(0.5));
    }
    if (roll < 90) return IsNotTrue(GenPred(depth - 1));
    if (roll < 95) {
      static const std::vector<std::string> kPatterns = {"a%", "%b", "_a%",
                                                         "%", "ab"};
      return std::make_unique<LikeExpr>(Col(rng_->Chance(0.5) ? "R.s" : "B.s"),
                                        rng_->Pick(kPatterns),
                                        rng_->Chance(0.5));
    }
    // Scalar used as predicate (ValueToTri, which is total).
    return GenScalar(depth - 1, false);
  }

  ExprPtr GenScalar(int depth, bool arith_safe) {
    if (depth <= 0) return GenLeaf(arith_safe);
    const int64_t roll = rng_->Uniform(0, 99);
    if (roll < 30) return GenLeaf(arith_safe);
    if (roll < 60) {
      ExprPtr lhs = GenScalar(depth - 1, true);
      ExprPtr rhs = GenScalar(depth - 1, true);
      switch (rng_->Uniform(0, 3)) {
        case 0: return Add(std::move(lhs), std::move(rhs));
        case 1: return Sub(std::move(lhs), std::move(rhs));
        case 2: return Mul(std::move(lhs), std::move(rhs));
        default: return Div(std::move(lhs), std::move(rhs));
      }
    }
    if (roll < 70) {
      return std::make_unique<CaseExpr>(GenPred(depth - 1),
                                        GenScalar(depth - 1, arith_safe),
                                        GenScalar(depth - 1, arith_safe));
    }
    if (roll < 80) {
      return std::make_unique<CoalesceExpr>(GenScalar(depth - 1, arith_safe),
                                            GenScalar(depth - 1, arith_safe));
    }
    return GenPred(depth - 1);  // Predicate used as scalar (TriToValue).
  }

 private:
  ExprPtr GenLeaf(bool arith_safe) {
    const int64_t roll = rng_->Uniform(0, 99);
    if (roll < 40) {
      return Col(rng_->Pick(arith_safe ? arith_cols_ : cmp_cols_));
    }
    if (roll < 48 && !arith_safe) {
      return Col(rng_->Chance(0.5) ? "R.s" : "B.s");
    }
    return GenLiteral(arith_safe);
  }

  /// A numeric, string (unless `arith_safe`) or NULL literal.
  ExprPtr GenLiteral(bool arith_safe) {
    const int64_t roll = rng_->Uniform(48, 99);
    if (roll < 68) return Lit(Value(rng_->Uniform(-3, 3)));
    if (roll < 85) {
      return Lit(Value(static_cast<double>(rng_->Uniform(-6, 6)) * 0.5));
    }
    if (roll < 93 && !arith_safe) {
      return Lit(Value(rng_->Pick(FuzzStrings())));
    }
    return Lit(Value::Null());
  }

  /// `column op literal`, the literal on either side: the shape the
  /// compiler fuses into one kCmpColLit (and, a string against a number,
  /// one it leaves to the interpreter).
  ExprPtr GenColumnLiteral() {
    ExprPtr col = Col(rng_->Chance(0.25)
                          ? std::string(rng_->Chance(0.5) ? "R.s" : "B.s")
                          : rng_->Pick(cmp_cols_));
    ExprPtr lit = GenLiteral(false);
    const CompareOp op = RandomCmpOp();
    if (rng_->Chance(0.5)) return Cmp(std::move(col), op, std::move(lit));
    return Cmp(std::move(lit), op, std::move(col));
  }

  CompareOp RandomCmpOp() {
    switch (rng_->Uniform(0, 5)) {
      case 0: return CompareOp::kEq;
      case 1: return CompareOp::kNe;
      case 2: return CompareOp::kLt;
      case 3: return CompareOp::kLe;
      case 4: return CompareOp::kGt;
      default: return CompareOp::kGe;
    }
  }

  Rng* rng_;
  std::vector<std::string> arith_cols_;
  std::vector<std::string> cmp_cols_;
};

Value RandomCell(Rng* rng, ValueType type, double null_p) {
  if (rng->Chance(null_p)) return Value::Null();
  switch (type) {
    case ValueType::kInt64: return Value(rng->Uniform(-3, 3));
    case ValueType::kDouble:
      return Value(static_cast<double>(rng->Uniform(-6, 6)) * 0.5);
    default: return Value(rng->Pick(FuzzStrings()));
  }
}

Table RandomTable(Rng* rng, const std::vector<std::string>& specs,
                  size_t rows, double null_p) {
  std::vector<ValueType> types;
  for (const std::string& spec : specs) {
    types.push_back(spec.back() == 'd'   ? ValueType::kDouble
                    : spec.back() == 's' ? ValueType::kString
                                         : ValueType::kInt64);
  }
  std::vector<Row> data;
  for (size_t r = 0; r < rows; ++r) {
    Row row;
    for (const ValueType t : types) row.push_back(RandomCell(rng, t, null_p));
    data.push_back(std::move(row));
  }
  return MakeTable(specs, data);
}

struct FuzzStats {
  size_t tested = 0;
  size_t lowered = 0;         // Trees Compile turned into a program.
  size_t column_literal = 0;  // Trees with a checked kCmpColLit op.
};

/// The operands of `e`, in evaluation order.
std::vector<const Expr*> Operands(const Expr& e) {
  switch (e.kind()) {
    case ExprKind::kCompare: {
      const auto& c = static_cast<const CompareExpr&>(e);
      return {&c.lhs(), &c.rhs()};
    }
    case ExprKind::kArith: {
      const auto& a = static_cast<const ArithExpr&>(e);
      return {&a.lhs(), &a.rhs()};
    }
    case ExprKind::kAnd: {
      const auto& a = static_cast<const AndExpr&>(e);
      return {&a.lhs(), &a.rhs()};
    }
    case ExprKind::kOr: {
      const auto& o = static_cast<const OrExpr&>(e);
      return {&o.lhs(), &o.rhs()};
    }
    case ExprKind::kNot:
      return {&static_cast<const NotExpr&>(e).input()};
    case ExprKind::kIsNull:
      return {&static_cast<const IsNullExpr&>(e).input()};
    case ExprKind::kIsNotTrue:
      return {&static_cast<const IsNotTrueExpr&>(e).input()};
    case ExprKind::kLike:
      return {&static_cast<const LikeExpr&>(e).input()};
    case ExprKind::kCase: {
      const auto& c = static_cast<const CaseExpr&>(e);
      return {&c.condition(), &c.then_branch(), &c.else_branch()};
    }
    case ExprKind::kCoalesce: {
      const auto& c = static_cast<const CoalesceExpr&>(e);
      return {&c.first(), &c.second()};
    }
    default:
      return {};
  }
}

/// Row k of EvalBatch's root register, as the Value Expr::Eval yields.
Value BatchValue(const ExprProgram& program, const ExprVecReg& root,
                 size_t k) {
  if (program.root_is_pred()) {
    if (IsUnknown(root.t[k])) return Value::Null();
    return Value(int64_t{IsTrue(root.t[k]) ? 1 : 0});
  }
  if (root.null[k]) return Value::Null();
  switch (program.result_type()) {
    case ValueType::kInt64:
      return Value(root.i[k]);
    case ValueType::kDouble:
      return Value(root.d[k]);
    case ValueType::kString:
      return Value(std::string(root.s[k]));
    case ValueType::kNull:
      break;
  }
  return Value::Null();
}

// Runs `program`, compiled from `expr`, through both batch entry points,
// once per row of the broadcast frame, with each frame batched in turn.
// Per row, EvalPredMask's verdict must be the interpreter's IsTrue, and
// EvalBatch's root value must be expr.Eval's, by type and by value.
void CheckProgram(const Expr& expr, const ExprProgram& program,
                  const Table& base, const Table& detail,
                  const std::string& context) {
  const Table* tables[] = {&base, &detail};
  EvalContext ectx;
  ectx.PushFrame(&base);
  ectx.PushFrame(&detail);
  ExprVecScratch vec;
  for (const size_t batched : {size_t{1}, size_t{0}}) {
    const size_t fixed = 1 - batched;
    const size_t n = tables[batched]->num_rows();
    ExprScratch scratch;
    scratch.batch_frame = batched;
    scratch.batch_begin = 0;
    for (size_t f = 0; f < tables[fixed]->num_rows(); ++f) {
      ectx.SetRow(fixed, f);
      std::vector<uint8_t> mask(n, 1);
      program.EvalPredMask(ectx, scratch, &vec, n, mask.data());
      const ExprVecReg& root = program.EvalBatch(ectx, scratch, &vec, n);
      for (size_t k = 0; k < n; ++k) {
        ectx.SetRow(batched, k);
        const auto where = [&] {
          return context +
                 (batched == 1 ? " detail batch, base=" : " base batch, "
                                                          "detail=") +
                 std::to_string(f) + " row=" + std::to_string(k) +
                 "\nexpr: " + expr.ToString() + "\nprogram:\n" +
                 program.ToString();
        };
        ASSERT_EQ(mask[k] != 0, IsTrue(expr.EvalPred(ectx))) << where();
        const Value want = expr.Eval(ectx);
        const Value got = BatchValue(program, root, k);
        ASSERT_TRUE(want.type() == got.type() && want == got)
            << where() << ": interpreted " << want.ToString() << " vs batch "
            << got.ToString();
      }
    }
  }
}

// Checks the program of `expr`, or, when Compile declines it, those of
// its largest subtrees that lower. Returns whether a checked program holds
// a kCmpColLit op.
bool CheckLowerable(const Expr& expr, const Table& base, const Table& detail,
                    const std::string& context, bool* lowered) {
  const std::optional<ExprProgram> program =
      Compile(expr, {&base.schema(), &detail.schema()});
  *lowered = program.has_value();
  if (!program.has_value()) {
    bool column_literal = false;
    for (const Expr* operand : Operands(expr)) {
      bool ignored;
      column_literal |=
          CheckLowerable(*operand, base, detail, context, &ignored);
    }
    return column_literal;
  }
  CheckProgram(expr, *program, base, detail, context);
  for (size_t i = 0; i < program->num_ops(); ++i) {
    if (program->op(i).code == OpCode::kCmpColLit) return true;
  }
  return false;
}

void CheckExpr(const Expr& expr, const Table& base, const Table& detail,
               const std::string& context, FuzzStats* stats) {
  bool lowered = false;
  stats->column_literal +=
      CheckLowerable(expr, base, detail, context, &lowered) ? 1 : 0;
  stats->tested += 1;
  stats->lowered += lowered ? 1 : 0;
}

TEST(ProgramFuzzTest, CompiledMatchesInterpreterOnCleanData) {
  Rng rng(0x9e3779b97f4a7c15ull);
  const Table base =
      RandomTable(&rng, {"B.i", "B.i2", "B.d:d", "B.s:s"}, 5, 0.3);
  const Table detail = RandomTable(
      &rng, {"R.i", "R.i2", "R.d:d", "R.d2:d", "R.s:s"}, 17, 0.3);

  const std::vector<std::string> numeric_cols = {
      "B.i", "B.i2", "B.d", "R.i", "R.i2", "R.d", "R.d2"};
  FuzzStats stats;
  for (size_t iter = 0; iter < 1300 && !testing::Test::HasFailure(); ++iter) {
    ExprGen gen(&rng, numeric_cols, numeric_cols);
    ExprPtr expr =
        iter % 2 == 0 ? gen.GenPred(4) : gen.GenScalar(4, false);
    if (!expr->Bind({&base.schema(), &detail.schema()}).ok()) continue;
    CheckExpr(*expr, base, detail, "iter=" + std::to_string(iter), &stats);
  }
  // The generator is deterministic; the bound count can only change when
  // the generator or binder changes. The floor is the ISSUE's ≥1000.
  EXPECT_GE(stats.tested, 1000u);
  // Most clean-typed shapes should lower to a program (trees with a LIKE,
  // a non-constant CASE or COALESCE, or a string-number compare do not),
  // or the GMDJ detail-only pass silently loses its batch kernels.
  EXPECT_GT(stats.lowered, stats.tested / 3);
  // Column-vs-literal compares, the shape of every paper_olap mask, are
  // drawn often enough to exercise the fused opcode in every evaluator.
  EXPECT_GT(stats.column_literal, stats.tested / 4);
}

// A detail table whose rows try to make the declared column types lie: an
// "int" column fed doubles and strings mid-stream. Every such row is
// refused at append; int64s into the double column widen. The
// differential check then runs over the rows the table accepted, so
// results still match the interpreter exactly.
TEST(ProgramFuzzTest, CompiledMatchesInterpreterUnderTypeDrift) {
  Rng rng(0x51afd54c0ce5ca01ull);
  const Table base =
      RandomTable(&rng, {"B.i", "B.i2", "B.d:d", "B.s:s"}, 4, 0.3);

  Schema dirty;
  dirty.AddField(Field{"i", ValueType::kInt64, "R"});
  dirty.AddField(Field{"i2", ValueType::kInt64, "R"});
  dirty.AddField(Field{"d", ValueType::kDouble, "R"});
  dirty.AddField(Field{"d2", ValueType::kDouble, "R"});
  dirty.AddField(Field{"s", ValueType::kString, "R"});
  Table detail(dirty);
  size_t refused = 0;
  for (size_t r = 0; r < 13; ++r) {
    Row row;
    // R.i drifts: int64, double, string, NULL in rotation.
    switch (r % 4) {
      case 0: row.push_back(Value(rng.Uniform(-3, 3))); break;
      case 1: row.push_back(Value(0.5 * static_cast<double>(
                  rng.Uniform(-6, 6)))); break;
      case 2: row.push_back(Value("x")); break;
      default: row.push_back(Value::Null()); break;
    }
    row.push_back(RandomCell(&rng, ValueType::kInt64, 0.3));
    // R.d drifts into int64 on every third row.
    row.push_back(r % 3 == 0 ? Value(rng.Uniform(-3, 3))
                             : RandomCell(&rng, ValueType::kDouble, 0.3));
    row.push_back(RandomCell(&rng, ValueType::kDouble, 0.3));
    row.push_back(RandomCell(&rng, ValueType::kString, 0.3));
    const bool drifts = r % 4 == 1 || r % 4 == 2;
    const Status appended = detail.AppendRow(std::move(row));
    EXPECT_EQ(appended.ok(), !drifts) << "row " << r << ": "
                                      << appended.ToString();
    if (!appended.ok()) {
      ++refused;
      EXPECT_EQ(appended.code(), StatusCode::kInvalidArgument);
    }
  }
  EXPECT_EQ(refused, 6u);
  EXPECT_EQ(detail.num_rows(), 7u);
  EXPECT_TRUE(detail.Validate().ok());
  for (size_t r = 0; r < detail.num_rows(); ++r) {
    const Value d = detail.cell(r, 2);
    EXPECT_TRUE(d.is_null() || d.type() == ValueType::kDouble);  // Widened.
  }

  // R.i drifts into *strings*, so it may not appear under arithmetic (the
  // interpreter's AsDouble contract); R.d only drifts between the two
  // numeric types, which both evaluators handle, so it stays arith-safe.
  const std::vector<std::string> arith_cols = {"B.i", "B.i2", "B.d", "R.i2",
                                               "R.d", "R.d2"};
  const std::vector<std::string> cmp_cols = {"B.i",  "B.i2", "B.d", "R.i",
                                             "R.i2", "R.d",  "R.d2"};
  FuzzStats stats;
  for (size_t iter = 0; iter < 400 && !testing::Test::HasFailure(); ++iter) {
    ExprGen gen(&rng, arith_cols, cmp_cols);
    ExprPtr expr = iter % 2 == 0 ? gen.GenPred(3) : gen.GenScalar(3, false);
    if (!expr->Bind({&base.schema(), &detail.schema()}).ok()) continue;
    CheckExpr(*expr, base, detail, "drift iter=" + std::to_string(iter),
              &stats);
  }
  EXPECT_GE(stats.tested, 300u);
}

}  // namespace
}  // namespace gmdj
