// The fused column-vs-literal compare opcode (OpCode::kCmpColLit). The
// scalar VM (EvalPred and Eval), the batch VM (EvalBatch) and the mask
// kernel (EvalPredMask) are checked against the tree interpreter and
// against SqlCompare on the cell's value: every operator, the literal on
// either side, over NULL cells, NaN, ±0.0, int64 columns against double
// literals, a column of the non-batch (broadcast) frame, and strings of
// equal and unequal lengths that share a prefix.

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "expr/expr.h"
#include "expr/expr_builder.h"
#include "expr/program.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace gmdj {
namespace {

using testutil::MakeTable;

constexpr CompareOp kOps[] = {CompareOp::kEq, CompareOp::kNe,
                              CompareOp::kLt, CompareOp::kLe,
                              CompareOp::kGt, CompareOp::kGe};

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

/// B(x, y, t): the base frame, one row per value kind, one all NULL.
Table BaseTable() {
  return MakeTable({"B.x", "B.y:d", "B.t:s"},
                   {{Value(int64_t{2}), Value(-0.0), Value("ab")},
                    {Value::Null(), Value::Null(), Value::Null()},
                    {Value(int64_t{-7}), Value(kNaN), Value("abc")}});
}

/// R(i, d, s): the batch frame. NULLs, NaN, ±0.0, ±inf, the int64
/// extremes, 2^53 + 1 (not a double), and strings sharing prefixes.
Table DetailTable() {
  const int64_t big = (int64_t{1} << 53) + 1;
  return MakeTable(
      {"R.i", "R.d:d", "R.s:s"},
      {{Value(int64_t{2}), Value(2.0), Value("ab")},
       {Value::Null(), Value::Null(), Value::Null()},
       {Value(int64_t{-3}), Value(-0.0), Value("")},
       {Value(int64_t{0}), Value(0.0), Value("abc")},
       {Value(int64_t{3}), Value(kNaN), Value("a")},
       {Value(std::numeric_limits<int64_t>::max()), Value(2.5), Value("b")},
       {Value(std::numeric_limits<int64_t>::min()), Value(-kInf),
        Value("ab ")},
       {Value(big), Value(kInf), Value("ba")},
       {Value(int64_t{2}), Value(static_cast<double>(big)), Value("AB")}});
}

std::vector<Value> Literals() {
  return {Value(int64_t{2}),
          Value(int64_t{0}),
          Value(int64_t{-3}),
          Value((int64_t{1} << 53) + 1),
          Value(std::numeric_limits<int64_t>::max()),
          Value(2.0),
          Value(2.5),
          Value(0.0),
          Value(-0.0),
          Value(kNaN),
          Value(-kInf),
          Value(9007199254740992.0),
          Value("ab"),
          Value("abc"),
          Value("a"),
          Value(""),
          Value("b"),
          Value::Null()};
}

/// Whether `c op lit` (or `lit op c`) fuses: a non-NULL literal of the
/// column's kind (string, or either numeric type).
bool Fuses(ValueType column, const Value& lit) {
  return !lit.is_null() &&
         (column == ValueType::kString) == (lit.type() == ValueType::kString);
}

/// `column op literal` with the literal on the right, or the mirror.
ExprPtr ColumnLiteral(const std::string& column, CompareOp op,
                      const Value& lit, bool lit_right) {
  return lit_right ? Cmp(Col(column), op, Lit(lit))
                   : Cmp(Lit(lit), op, Col(column));
}

/// Evaluates `expr` and its program over every (base, detail) row pair:
/// the interpreter's TriBool is the reference for EvalPred, Eval, the
/// EvalBatch root register (when the program is a predicate over one
/// compare) and an EvalPredMask over a mask with dead lanes.
class Harness {
 public:
  Harness() : base_(BaseTable()), detail_(DetailTable()) {
    ectx_.PushFrame(&base_);
    ectx_.PushFrame(&detail_);
    scratch_.batch_frame = 1;
    scratch_.batch_begin = 0;
  }

  std::vector<const Schema*> frames() const {
    return {&base_.schema(), &detail_.schema()};
  }

  /// `reference(b, r)`, when given, must agree with the interpreter too.
  void Check(const Expr& expr, const std::string& context,
             const std::function<TriBool(size_t, size_t)>& reference =
                 nullptr) {
    const ExprProgram program = Compile(expr, frames());
    program.PrepareScratch(&scratch_);
    const size_t n = detail_.num_rows();
    const bool one_compare =
        program.num_ops() == 1 &&
        program.op(0).code == OpCode::kCmpColLit;
    for (size_t b = 0; b < base_.num_rows(); ++b) {
      ectx_.SetRow(0, b);
      std::vector<TriBool> want(n);
      for (size_t r = 0; r < n; ++r) {
        ectx_.SetRow(1, r);
        want[r] = expr.EvalPred(ectx_);
        const std::string where = context + " base=" + std::to_string(b) +
                                  " detail=" + std::to_string(r) + "\n" +
                                  program.ToString();
        if (reference != nullptr) {
          ASSERT_EQ(reference(b, r), want[r]) << where;
        }
        ASSERT_EQ(program.EvalPred(ectx_, &scratch_), want[r]) << where;
        const Value v = program.Eval(ectx_, &scratch_);
        const Value w = expr.Eval(ectx_);
        ASSERT_TRUE(v.type() == w.type() && v == w)
            << where << ": " << v.ToString() << " vs " << w.ToString();
      }
      const std::string where = context + " base=" + std::to_string(b) +
                                "\n" + program.ToString();
      if (one_compare) {
        const ExprVecReg* reg = program.EvalBatch(ectx_, scratch_, &vec_, n);
        ASSERT_NE(reg, nullptr) << where;
        for (size_t r = 0; r < n; ++r) {
          ASSERT_EQ(reg->t[r], want[r]) << where << " detail=" << r;
        }
      }
      // A kInterpret op (a string against a number) declines the batch.
      std::vector<uint8_t> mask(n);
      for (size_t r = 0; r < n; ++r) mask[r] = r % 3 != 1;
      ASSERT_EQ(program.EvalPredMask(ectx_, scratch_, &vec_, n, mask.data()),
                program.fully_compiled())
          << where;
      if (!program.fully_compiled()) continue;
      for (size_t r = 0; r < n; ++r) {
        ASSERT_EQ(mask[r] != 0, r % 3 != 1 && IsTrue(want[r]))
            << where << " detail=" << r;
      }
    }
  }

  Table base_;
  Table detail_;
  EvalContext ectx_;
  ExprScratch scratch_;
  ExprVecScratch vec_;
};

TEST(CompareLiteralOpTest, CompilesToOneOpWithTheLiteralOnEitherSide) {
  Harness h;
  for (const CompareOp op : kOps) {
    for (const bool lit_right : {true, false}) {
      ExprPtr e = ColumnLiteral("R.i", op, Value(2.5), lit_right);
      ASSERT_TRUE(e->Bind(h.frames()).ok());
      const ExprProgram program = Compile(*e, h.frames());
      ASSERT_EQ(program.num_ops(), 1u) << program.ToString();
      const ExprOp& fused = program.op(0);
      EXPECT_EQ(fused.code, OpCode::kCmpColLit);
      EXPECT_EQ(fused.cmp, lit_right ? op : MirrorCompareOp(op));
      EXPECT_EQ(fused.frame, 1u);
      EXPECT_EQ(fused.expect, ValueType::kInt64);
      EXPECT_TRUE(fused.flag);  // Compares as double.
      EXPECT_EQ(fused.const_reg.d, 2.5);
    }
  }
  // An int64 literal against an int64 column compares as int64; against
  // a double column it is cast once, at compile time.
  ExprPtr ints = Gt(Col("R.i"), Lit(int64_t{3}));
  ASSERT_TRUE(ints->Bind(h.frames()).ok());
  const ExprProgram ip = Compile(*ints, h.frames());
  EXPECT_FALSE(ip.op(0).flag);
  EXPECT_EQ(ip.op(0).const_reg.i, 3);
  ExprPtr dbl = Gt(Col("R.d"), Lit(int64_t{3}));
  ASSERT_TRUE(dbl->Bind(h.frames()).ok());
  const ExprProgram dp = Compile(*dbl, h.frames());
  EXPECT_EQ(dp.op(0).code, OpCode::kCmpColLit);
  EXPECT_EQ(dp.op(0).const_reg.d, 3.0);
  // A NULL literal folds to UNKNOWN; a string against a number keeps the
  // interpreter's answer.
  ExprPtr null = Eq(Col("R.i"), Lit(Value::Null()));
  ASSERT_TRUE(null->Bind(h.frames()).ok());
  const ExprProgram np = Compile(*null, h.frames());
  ASSERT_EQ(np.num_ops(), 1u);
  EXPECT_EQ(np.op(0).code, OpCode::kConst);
  ExprPtr mixed = Eq(Col("R.s"), Lit(int64_t{1}));
  ASSERT_TRUE(mixed->Bind(h.frames()).ok());
  EXPECT_FALSE(Compile(*mixed, h.frames()).fully_compiled());
}

TEST(CompareLiteralOpTest, EveryEvaluatorMatchesTheInterpreter) {
  Harness h;
  size_t fused = 0;
  for (const char* column : {"R.i", "R.d", "R.s"}) {
    const size_t c = h.detail_.schema().TryResolve(column);
    ASSERT_NE(c, Schema::kNotFound);
    const ValueType type = h.detail_.schema().field(c).type;
    for (const Value& lit : Literals()) {
      for (const CompareOp op : kOps) {
        for (const bool lit_right : {true, false}) {
          ExprPtr e = ColumnLiteral(column, op, lit, lit_right);
          ASSERT_TRUE(e->Bind(h.frames()).ok());
          const std::string context = e->ToString();
          const ExprProgram program = Compile(*e, h.frames());
          if (Fuses(type, lit)) {
            ASSERT_EQ(program.op(0).code, OpCode::kCmpColLit) << context;
            ++fused;
          }
          // SqlCompare on the cell's value, the operands as written.
          const auto reference = [&](size_t, size_t r) {
            const Value cell = h.detail_.cell(r, c);
            return lit_right ? SqlCompare(cell, op, lit)
                             : SqlCompare(lit, op, cell);
          };
          h.Check(*e, context, reference);
          if (testing::Test::HasFatalFailure()) return;
        }
      }
    }
  }
  EXPECT_EQ(fused, 2u * 6u * (12u + 12u + 5u));
}

TEST(CompareLiteralOpTest, NonBatchFrameBroadcastsOneRow) {
  // Base columns are fixed for the chunk: EvalBatch broadcasts the one
  // row's outcome, including a NULL cell's UNKNOWN.
  Harness h;
  for (const char* column : {"B.x", "B.y", "B.t"}) {
    for (const Value& lit :
         {Value(int64_t{2}), Value(-0.0), Value(kNaN), Value("ab")}) {
      for (const CompareOp op : kOps) {
        for (const bool lit_right : {true, false}) {
          ExprPtr e = ColumnLiteral(column, op, lit, lit_right);
          ASSERT_TRUE(e->Bind(h.frames()).ok());
          h.Check(*e, e->ToString());
          if (testing::Test::HasFatalFailure()) return;
        }
      }
    }
  }
}

TEST(CompareLiteralOpTest, InsideLargerPrograms) {
  // Not the root: the batch VM keeps the outcome in a register that And,
  // Or, Not and the scalar bridge read.
  Harness h;
  std::vector<ExprPtr> exprs;
  exprs.push_back(Not(Gt(Col("R.i"), Lit(int64_t{1}))));
  exprs.push_back(Or(Lt(Lit(2.5), Col("R.d")), Eq(Col("R.s"), Lit("ab"))));
  exprs.push_back(And(Ne(Col("R.s"), Lit("a")), Ge(Col("B.x"), Lit(0.5))));
  exprs.push_back(IsNotTrue(Le(Col("R.d"), Lit(int64_t{0}))));
  exprs.push_back(Gt(Add(Lt(Col("R.i"), Lit(int64_t{3})), Col("R.i")),
                     Lit(int64_t{2})));
  for (const ExprPtr& e : exprs) {
    ASSERT_TRUE(e->Bind(h.frames()).ok());
    h.Check(*e, e->ToString());
    if (testing::Test::HasFatalFailure()) return;
  }
}

TEST(CompareLiteralOpTest, StringEqualityComparesLengthsThenBytes) {
  // "ab" against "", "a", "ab", "ab ", "abc", "AB" and "ba": one match;
  // NULL is UNKNOWN either way.
  Harness h;
  ExprPtr eq = Eq(Col("R.s"), Lit("ab"));
  ExprPtr ne = Ne(Lit("ab"), Col("R.s"));
  ASSERT_TRUE(eq->Bind(h.frames()).ok());
  ASSERT_TRUE(ne->Bind(h.frames()).ok());
  const ExprProgram eq_prog = Compile(*eq, h.frames());
  const ExprProgram ne_prog = Compile(*ne, h.frames());
  ExprScratch scratch;
  for (size_t r = 0; r < h.detail_.num_rows(); ++r) {
    h.ectx_.SetRow(1, r);
    const Value cell = h.detail_.cell(r, 2);
    const TriBool want_eq = cell.is_null() ? TriBool::kUnknown
                                           : MakeTriBool(cell.str() == "ab");
    EXPECT_EQ(eq_prog.EvalPred(h.ectx_, &scratch), want_eq) << r;
    EXPECT_EQ(ne_prog.EvalPred(h.ectx_, &scratch), Not(want_eq)) << r;
  }
  h.Check(*eq, eq->ToString());
  h.Check(*ne, ne->ToString());
}

TEST(CompareLiteralOpTest, NullTypedColumnIsUnknown) {
  // A NULL-typed column holds only NULLs: every compare is UNKNOWN,
  // whichever side the literal is on, and none takes the fused op.
  Schema schema;
  schema.AddField(Field{"n", ValueType::kNull, "R"});
  Table table(schema);
  ASSERT_TRUE(table.AppendRows({{Value::Null()}, {Value::Null()}}).ok());
  EvalContext ectx;
  ectx.PushFrame(&table);
  ExprScratch scratch;
  std::vector<ExprPtr> exprs;
  exprs.push_back(Eq(Col("R.n"), Lit(int64_t{1})));
  exprs.push_back(Lt(Lit("a"), Col("R.n")));
  for (const ExprPtr& e : exprs) {
    ASSERT_TRUE(e->Bind({&table.schema()}).ok());
    const ExprProgram program = Compile(*e, {&table.schema()});
    for (size_t i = 0; i < program.num_ops(); ++i) {
      EXPECT_NE(program.op(i).code, OpCode::kCmpColLit) << program.ToString();
    }
    for (size_t r = 0; r < table.num_rows(); ++r) {
      ectx.SetRow(0, r);
      EXPECT_EQ(e->EvalPred(ectx), TriBool::kUnknown);
      EXPECT_EQ(program.EvalPred(ectx, &scratch), TriBool::kUnknown);
    }
  }
}

TEST(CompareLiteralOpTest, SignedZerosAndNaNFollowTheEngineOrder) {
  // -0.0 equals 0.0; the engine orders NaN as neither below nor above
  // any number, so it compares equal to every one, as Value::Compare
  // and the register kernels do.
  Harness h;
  ExprPtr zero = Eq(Col("R.d"), Lit(0.0));
  ASSERT_TRUE(zero->Bind(h.frames()).ok());
  const ExprProgram zp = Compile(*zero, h.frames());
  ExprScratch scratch;
  h.ectx_.SetRow(1, 2);  // -0.0
  EXPECT_EQ(zp.EvalPred(h.ectx_, &scratch), TriBool::kTrue);
  h.ectx_.SetRow(1, 4);  // NaN
  EXPECT_EQ(zp.EvalPred(h.ectx_, &scratch), TriBool::kTrue);
  h.ectx_.SetRow(1, 5);  // 2.5
  EXPECT_EQ(zp.EvalPred(h.ectx_, &scratch), TriBool::kFalse);
  h.ectx_.SetRow(1, 1);  // NULL
  EXPECT_EQ(zp.EvalPred(h.ectx_, &scratch), TriBool::kUnknown);
}

}  // namespace
}  // namespace gmdj
