// The fused column-vs-literal compare opcode (OpCode::kCmpColLit). The
// batch VM (EvalBatch) and the mask kernel (EvalPredMask) are checked
// against the tree interpreter and against SqlCompare on the cell's
// value: every operator, the literal on either side, over NULL cells,
// NaN, ±0.0, int64 columns against double literals, a column of the
// non-batch (broadcast) frame, and strings of equal and unequal lengths
// that share a prefix. A string against a number has no program.

#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
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
/// extremes, 2^53 + 1 (not a double), and strings sharing prefixes,
/// either side of 16 bytes, and with embedded NULs.
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
       {Value(int64_t{2}), Value(static_cast<double>(big)), Value("AB")},
       {Value(int64_t{5}), Value(1.5), Value(std::string("ab\0", 3))},
       {Value(int64_t{6}), Value(-1.5), Value(std::string("a\0b", 3))},
       {Value(int64_t{-1}), Value(3.0), Value(std::string(15, 'x'))},
       {Value(int64_t{7}), Value(4.0), Value(std::string(16, 'x'))},
       {Value(int64_t{8}), Value(5.0),
        Value("a string well past any small-string buffer")},
       {Value(int64_t{9}), Value(6.0), Value(std::string("\0", 1))}});
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
          Value(std::string("ab\0", 3)),
          Value(std::string("a\0b", 3)),
          Value(std::string(16, 'x')),
          Value(std::string("\0", 1)),
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
/// the interpreter's TriBool is the reference for the EvalBatch root
/// register and an EvalPredMask over a mask with dead lanes.
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

  /// The program's outcome on every detail row, with base row `b`
  /// broadcast: EvalBatch's root register.
  std::vector<TriBool> Batch(const ExprProgram& program, size_t b) {
    ectx_.SetRow(0, b);
    const size_t n = detail_.num_rows();
    EXPECT_TRUE(program.root_is_pred()) << program.ToString();
    const ExprVecReg& root = program.EvalBatch(ectx_, scratch_, &vec_, n);
    return std::vector<TriBool>(root.t.begin(), root.t.begin() + n);
  }

  /// `reference(b, r)`, when given, must agree with the interpreter too.
  /// A tree without a program is checked against the reference only.
  void Check(const Expr& expr, const std::string& context,
             const std::function<TriBool(size_t, size_t)>& reference =
                 nullptr) {
    const std::optional<ExprProgram> program = Compile(expr, frames());
    const size_t n = detail_.num_rows();
    for (size_t b = 0; b < base_.num_rows(); ++b) {
      ectx_.SetRow(0, b);
      std::vector<TriBool> want(n);
      for (size_t r = 0; r < n; ++r) {
        ectx_.SetRow(1, r);
        want[r] = expr.EvalPred(ectx_);
        if (reference != nullptr) {
          ASSERT_EQ(reference(b, r), want[r])
              << context << " base=" << b << " detail=" << r;
        }
      }
      if (!program.has_value()) continue;
      const std::string where = context + " base=" + std::to_string(b) +
                                "\n" + program->ToString();
      const std::vector<TriBool> got = Batch(*program, b);
      for (size_t r = 0; r < n; ++r) {
        ASSERT_EQ(got[r], want[r]) << where << " detail=" << r;
      }
      std::vector<uint8_t> mask(n);
      for (size_t r = 0; r < n; ++r) mask[r] = r % 3 != 1;
      program->EvalPredMask(ectx_, scratch_, &vec_, n, mask.data());
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
      const std::optional<ExprProgram> program = Compile(*e, h.frames());
      ASSERT_TRUE(program.has_value());
      ASSERT_EQ(program->num_ops(), 1u) << program->ToString();
      const ExprOp& fused = program->op(0);
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
  const std::optional<ExprProgram> ip = Compile(*ints, h.frames());
  ASSERT_TRUE(ip.has_value());
  EXPECT_FALSE(ip->op(0).flag);
  EXPECT_EQ(ip->op(0).const_reg.i, 3);
  ExprPtr dbl = Gt(Col("R.d"), Lit(int64_t{3}));
  ASSERT_TRUE(dbl->Bind(h.frames()).ok());
  const std::optional<ExprProgram> dp = Compile(*dbl, h.frames());
  ASSERT_TRUE(dp.has_value());
  EXPECT_EQ(dp->op(0).code, OpCode::kCmpColLit);
  EXPECT_EQ(dp->op(0).const_reg.d, 3.0);
  // A NULL literal folds to UNKNOWN; a string against a number, which no
  // opcode compares, gets no program, either way round.
  ExprPtr null = Eq(Col("R.i"), Lit(Value::Null()));
  ASSERT_TRUE(null->Bind(h.frames()).ok());
  const std::optional<ExprProgram> np = Compile(*null, h.frames());
  ASSERT_TRUE(np.has_value());
  ASSERT_EQ(np->num_ops(), 1u);
  EXPECT_EQ(np->op(0).code, OpCode::kConst);
  std::vector<ExprPtr> mixed_exprs;
  mixed_exprs.push_back(Eq(Col("R.s"), Lit(int64_t{1})));
  mixed_exprs.push_back(Lt(Lit(2.5), Col("R.s")));
  mixed_exprs.push_back(Gt(Col("R.i"), Lit("a")));
  for (const ExprPtr& mixed : mixed_exprs) {
    ASSERT_TRUE(mixed->Bind(h.frames()).ok());
    EXPECT_FALSE(Compile(*mixed, h.frames()).has_value())
        << mixed->ToString();
  }
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
          const std::optional<ExprProgram> program =
              Compile(*e, h.frames());
          // Only a string against a number has no program.
          ASSERT_EQ(program.has_value(),
                    lit.is_null() || (type == ValueType::kString) ==
                                         (lit.type() == ValueType::kString))
              << context;
          if (Fuses(type, lit)) {
            ASSERT_EQ(program->op(0).code, OpCode::kCmpColLit) << context;
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
  // Both sides, six operators: 12 numeric literals per numeric column and
  // 9 string literals for R.s.
  EXPECT_EQ(fused, 2u * 6u * (12u + 12u + 9u));
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
  // "ab" against "", "a", "ab", "ab ", "abc", "AB", "ba", "ab\0" and
  // the longer edge strings: one match; NULL is UNKNOWN either way.
  Harness h;
  ExprPtr eq = Eq(Col("R.s"), Lit("ab"));
  ExprPtr ne = Ne(Lit("ab"), Col("R.s"));
  ASSERT_TRUE(eq->Bind(h.frames()).ok());
  ASSERT_TRUE(ne->Bind(h.frames()).ok());
  const std::optional<ExprProgram> eq_prog = Compile(*eq, h.frames());
  const std::optional<ExprProgram> ne_prog = Compile(*ne, h.frames());
  ASSERT_TRUE(eq_prog.has_value() && ne_prog.has_value());
  const std::vector<TriBool> got_eq = h.Batch(*eq_prog, 0);
  const std::vector<TriBool> got_ne = h.Batch(*ne_prog, 0);
  for (size_t r = 0; r < h.detail_.num_rows(); ++r) {
    const Value cell = h.detail_.cell(r, 2);
    const TriBool want_eq = cell.is_null() ? TriBool::kUnknown
                                           : MakeTriBool(cell.str() == "ab");
    EXPECT_EQ(got_eq[r], want_eq) << r;
    EXPECT_EQ(got_ne[r], Not(want_eq)) << r;
  }
  h.Check(*eq, eq->ToString());
  h.Check(*ne, ne->ToString());
}

TEST(CompareLiteralOpTest, ChunkFromMidColumnReadsItsOwnCells) {
  // A chunk that starts past row 0 reads its cells from the offsets of
  // its first row on, for every literal and operator.
  Harness h;
  const size_t begin = 3;
  const size_t n = h.detail_.num_rows() - begin;
  h.scratch_.batch_begin = begin;
  for (const Value& lit : Literals()) {
    if (!Fuses(ValueType::kString, lit)) continue;
    for (const CompareOp op : kOps) {
      ExprPtr e = ColumnLiteral("R.s", op, lit, true);
      ASSERT_TRUE(e->Bind(h.frames()).ok());
      const std::optional<ExprProgram> program = Compile(*e, h.frames());
      ASSERT_TRUE(program.has_value());
      const ExprVecReg& root =
          program->EvalBatch(h.ectx_, h.scratch_, &h.vec_, n);
      for (size_t k = 0; k < n; ++k) {
        h.ectx_.SetRow(1, begin + k);
        EXPECT_EQ(root.t[k], e->EvalPred(h.ectx_))
            << e->ToString() << " row " << begin + k;
      }
    }
  }
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
  scratch.batch_frame = 0;
  ExprVecScratch vec;
  std::vector<ExprPtr> exprs;
  exprs.push_back(Eq(Col("R.n"), Lit(int64_t{1})));
  exprs.push_back(Lt(Lit("a"), Col("R.n")));
  for (const ExprPtr& e : exprs) {
    ASSERT_TRUE(e->Bind({&table.schema()}).ok());
    const std::optional<ExprProgram> program =
        Compile(*e, {&table.schema()});
    ASSERT_TRUE(program.has_value());
    for (size_t i = 0; i < program->num_ops(); ++i) {
      EXPECT_NE(program->op(i).code, OpCode::kCmpColLit)
          << program->ToString();
    }
    const ExprVecReg& root =
        program->EvalBatch(ectx, scratch, &vec, table.num_rows());
    for (size_t r = 0; r < table.num_rows(); ++r) {
      ectx.SetRow(0, r);
      EXPECT_EQ(e->EvalPred(ectx), TriBool::kUnknown);
      EXPECT_EQ(root.t[r], TriBool::kUnknown);
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
  const std::optional<ExprProgram> zp = Compile(*zero, h.frames());
  ASSERT_TRUE(zp.has_value());
  const std::vector<TriBool> got = h.Batch(*zp, 0);
  EXPECT_EQ(got[2], TriBool::kTrue);     // -0.0
  EXPECT_EQ(got[4], TriBool::kTrue);     // NaN
  EXPECT_EQ(got[5], TriBool::kFalse);    // 2.5
  EXPECT_EQ(got[1], TriBool::kUnknown);  // NULL
}

}  // namespace
}  // namespace gmdj
