// The GMDJ chunk kernel: typed aggregate folds, and the rows and work
// counters of the one kernel the sequential pass, the morsel workers and
// every spilled base slice run. Each kernel case is checked against the
// naive reference (a literal transcription of Definition 2.1) under every
// execution knob: threads 1 and 4, compiled and interpreted expressions,
// spilled and resident.

#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/gmdj_node.h"
#include "engine/olap_engine.h"
#include "exec/nodes.h"
#include "expr/aggregate.h"
#include "expr/expr_builder.h"
#include "gtest/gtest.h"
#include "obs/operator_stats.h"
#include "spill/spill_manager.h"
#include "test_util.h"
#include "workload/tpch_gen.h"

namespace gmdj {
namespace {

using testutil::MakeTable;
using testutil::SameRows;

// ---- Typed folds ----

/// Both states hold the same bits: counts, both sums, the sum mode, and
/// an extreme of the same type and value.
::testing::AssertionResult SameState(const AggState& a, const AggState& b) {
  if (a.count != b.count || a.sum_i != b.sum_i ||
      a.sum_is_int != b.sum_is_int ||
      std::bit_cast<uint64_t>(a.sum_d) != std::bit_cast<uint64_t>(b.sum_d) ||
      a.extreme.type() != b.extreme.type() ||
      a.extreme.Compare(b.extreme) != 0) {
    return ::testing::AssertionFailure()
           << "count " << a.count << "/" << b.count << " sum_i " << a.sum_i
           << "/" << b.sum_i << " sum_d " << a.sum_d << "/" << b.sum_d
           << " extreme " << a.extreme.ToString() << "/"
           << b.extreme.ToString();
  }
  return ::testing::AssertionSuccess();
}

/// Folds `inputs` with Update(Value) and with the typed helpers (NULLs
/// skipped, as the kernel skips them), after the same `prefix` of
/// Update(Value) calls, and expects identical states for every kind in
/// `kinds`.
void ExpectTypedFoldMatches(
    const std::vector<Value>& inputs, const std::vector<Value>& prefix = {},
    const std::vector<AggKind>& kinds = {AggKind::kCount, AggKind::kSum,
                                         AggKind::kAvg, AggKind::kMin,
                                         AggKind::kMax}) {
  for (const AggKind kind : kinds) {
    AggState boxed;
    AggState typed;
    for (const Value& v : prefix) {
      boxed.Update(kind, v);
      typed.Update(kind, v);
    }
    for (const Value& v : inputs) {
      boxed.Update(kind, v);
      if (v.type() == ValueType::kInt64) typed.UpdateInt64(kind, v.int64());
      if (v.type() == ValueType::kDouble) typed.UpdateDouble(kind, v.dbl());
      EXPECT_TRUE(SameState(typed, boxed)) << AggKindToString(kind);
    }
    for (const ValueType arg : {ValueType::kInt64, ValueType::kDouble}) {
      EXPECT_EQ(typed.Finalize(kind, arg).Compare(boxed.Finalize(kind, arg)),
                0);
    }
  }
}

TEST(TypedFoldTest, Int64MatchesBoxedUpdate) {
  ExpectTypedFoldMatches({Value(int64_t{5}), Value(int64_t{-3}),
                          Value(int64_t{5}), Value(int64_t{1} << 40),
                          Value(int64_t{-7})});
}

TEST(TypedFoldTest, DoubleMatchesBoxedUpdate) {
  ExpectTypedFoldMatches(
      {Value(0.1), Value(0.2), Value(-1e300), Value(0.3), Value(1e-300)});
}

TEST(TypedFoldTest, NullsAreSkipped) {
  ExpectTypedFoldMatches(
      {Value::Null(), Value(int64_t{4}), Value::Null(), Value(2.5)});
}

TEST(TypedFoldTest, SumMigratesFromIntToDouble) {
  // Ints, then the first double migrates the integer accumulator, then
  // ints keep adding to the double sum.
  ExpectTypedFoldMatches({Value(int64_t{3}), Value(int64_t{1} << 53),
                          Value(0.1), Value(int64_t{7}), Value(2.75)});
}

TEST(TypedFoldTest, MinMaxOverMixedTypes) {
  ExpectTypedFoldMatches({Value(int64_t{3}), Value(2.5), Value(int64_t{2}),
                          Value(2.0), Value(int64_t{9}), Value(9.5)});
  // An extreme of another type reached through Update(Value): a string
  // ranks above every number, so MIN replaces it and MAX keeps it.
  ExpectTypedFoldMatches({Value(int64_t{4}), Value(1.5)}, {Value("zz")},
                         {AggKind::kMin, AggKind::kMax});
  ExpectTypedFoldMatches({Value(1.5), Value(int64_t{4})}, {Value(int64_t{2})});
}

// ---- Kernel rows against the naive reference ----

struct Knobs {
  size_t threads;
  ExprEvalMode mode;
  bool spilled;

  std::string Name() const {
    return "threads=" + std::to_string(threads) +
           (mode == ExprEvalMode::kInterpret ? " interpret" : " compiled") +
           (spilled ? " spilled" : " resident");
  }
};

std::vector<Knobs> AllKnobs() {
  std::vector<Knobs> out;
  for (const size_t threads : {size_t{1}, size_t{4}}) {
    for (const ExprEvalMode mode :
         {ExprEvalMode::kCompiled, ExprEvalMode::kInterpret}) {
      for (const bool spilled : {false, true}) {
        out.push_back(Knobs{threads, mode, spilled});
      }
    }
  }
  return out;
}

/// Deterministic pseudo-random values.
class Lcg {
 public:
  explicit Lcg(uint64_t seed) : state_(seed) {}
  int64_t Next(int64_t mod) {
    state_ = state_ * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<int64_t>((state_ >> 33) % static_cast<uint64_t>(mod));
  }

 private:
  uint64_t state_;
};

/// "<prefix><n>", a string column value.
std::string Label(char prefix, int64_t n) {
  std::string out(1, prefix);
  out += std::to_string(n);
  return out;
}

/// B(k, lo, hi, x, s): keys 0..key_mod-1 (some NULL), an interval
/// [lo, hi) over 0..99, a quarter-valued double, and a string.
Table BaseTable(int n, int key_mod, uint64_t seed) {
  Lcg rng(seed);
  std::vector<Row> rows;
  for (int i = 0; i < n; ++i) {
    const int64_t lo = rng.Next(90);
    rows.push_back({i % 13 == 5 ? Value::Null() : Value(rng.Next(key_mod)),
                    Value(lo), Value(lo + 1 + rng.Next(30)),
                    Value(static_cast<double>(rng.Next(40)) / 4.0),
                    Value(Label('b', rng.Next(9)))});
  }
  return MakeTable({"B.k", "B.lo", "B.hi", "B.x:d", "B.s:s"}, rows);
}

/// R(k, t, y, v, s): keys, a time 0..99, and NULL-sprinkled y / v / s.
/// Doubles are multiples of 0.25, so sums are exact in any order and the
/// 4-thread runs (which merge partial sums) compare exactly too.
Table DetailTable(int n, int key_mod, uint64_t seed) {
  Lcg rng(seed);
  std::vector<Row> rows;
  for (int i = 0; i < n; ++i) {
    rows.push_back(
        {i % 17 == 3 ? Value::Null() : Value(rng.Next(key_mod)),
         Value(rng.Next(100)),
         i % 11 == 2 ? Value::Null() : Value(rng.Next(10)),
         i % 7 == 1 ? Value::Null()
                    : Value(static_cast<double>(rng.Next(400)) / 4.0 - 20.0),
         i % 19 == 4 ? Value::Null() : Value(Label('r', rng.Next(50)))});
  }
  return MakeTable({"R.k", "R.t", "R.y", "R.v:d", "R.s:s"}, rows);
}

ExprPtr KeyEq() { return Eq(Col("B.k"), Col("R.k")); }
/// `B.lo <= R.t < B.hi`: an interval binding.
ExprPtr TimeInRange() {
  return And(Ge(Col("R.t"), Col("B.lo")), Lt(Col("R.t"), Col("B.hi")));
}
ExprPtr YAbove(int64_t y) { return Gt(Col("R.y"), Lit(y)); }

GmdjCondition Cond(ExprPtr theta, std::vector<AggSpec> aggs) {
  return GmdjCondition(std::move(theta), std::move(aggs));
}
/// `B.k = R.k AND filter`: a hash binding plus a detail-only conjunct.
GmdjCondition KeyCond(ExprPtr filter, std::vector<AggSpec> aggs) {
  return Cond(And(KeyEq(), std::move(filter)), std::move(aggs));
}

std::vector<AggSpec> Aggs(AggSpec a) {
  std::vector<AggSpec> out;
  out.push_back(std::move(a));
  return out;
}
std::vector<AggSpec> Aggs(AggSpec a, AggSpec b) {
  std::vector<AggSpec> out = Aggs(std::move(a));
  out.push_back(std::move(b));
  return out;
}

using MakeConditions = std::function<std::vector<GmdjCondition>()>;

class GmdjKernelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    catalog_.PutTable("B", BaseTable(60, 25, 11));
    catalog_.PutTable("R", DetailTable(3000, 30, 12));
  }

  /// Runs the conditions through the kernel under every knob and checks
  /// the rows against the naive node. `completion` (optional) is applied
  /// to the kernel node, and `expected` then derives its rows from the
  /// naive output. Records the typed_aggs/aggs profile of the resident
  /// compiled single-thread run in `typed_`.
  void ExpectMatchesNaive(
      const MakeConditions& make, const std::string& context,
      const CompletionSpec* completion = nullptr,
      const std::function<Table(const Table&)>& expected = nullptr) {
    GmdjNode naive(std::make_unique<TableScanNode>("B"),
                   std::make_unique<TableScanNode>("R"), make(),
                   GmdjStrategy::kNaive);
    Table reference = testutil::RunPlan(&naive, catalog_);
    if (expected != nullptr) reference = expected(reference);

    typed_ = {0, 0};
    for (const Knobs& knobs : AllKnobs()) {
      const std::string where = context + " [" + knobs.Name() + "]";
      GmdjNode node(std::make_unique<TableScanNode>("B"),
                    std::make_unique<TableScanNode>("R"), make());
      if (completion != nullptr) node.SetCompletion(CloneSpec(*completion));
      ASSERT_TRUE(node.Prepare(catalog_).ok()) << where;
      ExecConfig config;
      config.num_threads = knobs.threads;
      config.expr_eval_mode = knobs.mode;
      config.min_parallel_rows = 1;
      config.morsel_rows = 16;
      ExecContext ctx(&catalog_, config);
      obs::PlanProfile profile;
      ctx.set_profile(&profile);
      spill::SpillConfig spill_config;
      spill_config.dir = ::testing::TempDir() + "/gmdj_kernel_test_" +
                         ::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name();
      spill_config.block_rows = 16;
      spill_config.min_spill_partitions = 3;
      spill::SpillManager spill_manager(spill_config);
      std::unique_ptr<spill::SpillScope> scope;
      if (knobs.spilled) {
        scope = spill_manager.CreateScope("kernel");
        ctx.set_spill(scope.get());
      }
      const Result<Table> actual = node.Execute(&ctx);
      ASSERT_TRUE(actual.ok()) << where << ": " << actual.status().ToString();
      EXPECT_TRUE(SameRows(*actual, reference)) << where;
      EXPECT_EQ(ctx.stats().spill_passes > 0, knobs.spilled) << where;
      if (knobs.threads == 1 && !knobs.spilled &&
          knobs.mode == ExprEvalMode::kCompiled) {
        const obs::OperatorStats* stats = profile.Find(&node);
        EXPECT_NE(stats, nullptr) << where;
        if (stats != nullptr) typed_ = {stats->typed_aggs, stats->aggs};
      }
    }
  }

  static CompletionSpec CloneSpec(const CompletionSpec& spec) {
    CompletionSpec out;
    out.actions = spec.actions;
    return out;
  }

  Catalog catalog_;
  std::pair<uint64_t, uint64_t> typed_;
};

TEST_F(GmdjKernelTest, SixAggregateBindingGroupWithMemberMasks) {
  // The COMPARE shape: six conditions share one probe per detail row,
  // each with its own detail-only filter (one with none).
  const auto make = [] {
    std::vector<GmdjCondition> conds;
    conds.push_back(Cond(KeyEq(), Aggs(CountStar("n"))));
    conds.push_back(KeyCond(YAbove(2), Aggs(SumOf(Col("R.v"), "s"))));
    conds.push_back(KeyCond(YAbove(4), Aggs(MinOf(Col("R.y"), "lo"))));
    conds.push_back(KeyCond(YAbove(6), Aggs(MaxOf(Col("R.v"), "hi"))));
    // A detail-only filter over two columns, between two members with
    // the same constant filter (batch mask programs share registers).
    conds.push_back(KeyCond(Lt(Col("R.y"), Col("R.t")),
                            Aggs(AvgOf(Col("R.y"), "avg"),
                                 CountOf(Col("R.v"), "c"))));
    conds.push_back(KeyCond(YAbove(6), Aggs(SumOf(Col("R.y"), "sy"))));
    return conds;
  };
  ExpectMatchesNaive(make, "six-aggregate group");
  EXPECT_EQ(typed_, std::make_pair(uint64_t{7}, uint64_t{7}));
}

TEST_F(GmdjKernelTest, IntervalGroups) {
  // Two conditions on one interval binding (one shared stab per row), and
  // a third on another binding.
  const auto make = [] {
    std::vector<GmdjCondition> conds;
    conds.push_back(Cond(And(TimeInRange(), YAbove(3)),
                         Aggs(SumOf(Col("R.v"), "s"), CountStar("n"))));
    conds.push_back(Cond(TimeInRange(), Aggs(MaxOf(Col("R.y"), "hi"))));
    conds.push_back(Cond(And(Ge(Col("R.y"), Col("B.lo")),
                             Lt(Col("R.y"), Col("B.hi"))),
                         Aggs(CountStar("ny"))));
    return conds;
  };
  ExpectMatchesNaive(make, "interval groups");
}

TEST_F(GmdjKernelTest, ScanConditionsMixedWithHash) {
  const auto make = [] {
    std::vector<GmdjCondition> conds;
    conds.push_back(Cond(Gt(Col("R.y"), Col("B.x")), Aggs(CountStar("n"))));
    conds.push_back(KeyCond(YAbove(1), Aggs(SumOf(Col("R.y"), "s"))));
    conds.push_back(Cond(nullptr, Aggs(MinOf(Col("R.v"), "lo"))));
    conds.push_back(Cond(KeyEq(), Aggs(AvgOf(Col("R.v"), "avg"))));
    return conds;
  };
  ExpectMatchesNaive(make, "scan + hash");
}

TEST_F(GmdjKernelTest, ResidualsReadingBaseColumns) {
  const auto make = [] {
    std::vector<GmdjCondition> conds;
    conds.push_back(Cond(And(KeyEq(), Gt(Col("R.v"), Col("B.x"))),
                         Aggs(SumOf(Col("R.v"), "s"), CountStar("n"))));
    conds.push_back(Cond(And(TimeInRange(), Ne(Col("R.y"), Col("B.lo"))),
                         Aggs(MaxOf(Col("R.s"), "smax"))));
    conds.push_back(Cond(KeyEq(), Aggs(CountStar("all"))));
    return conds;
  };
  ExpectMatchesNaive(make, "base-reading residuals");
}

TEST_F(GmdjKernelTest, ExpressionArguments) {
  const auto make = [] {
    std::vector<GmdjCondition> conds;
    std::vector<AggSpec> aggs;
    aggs.push_back(SumOf(Div(Col("R.v"), Lit(4.0)), "detail_only_dbl"));
    aggs.push_back(SumOf(Mul(Col("R.y"), Lit(int64_t{3})), "detail_only_int"));
    aggs.push_back(AvgOf(Add(Col("R.v"), Col("B.x")), "reads_base"));
    aggs.push_back(MaxOf(Col("R.s"), "string_arg"));
    aggs.push_back(MinOf(Col("R.v"), "column"));
    aggs.push_back(CountStar("n"));
    conds.push_back(Cond(And(KeyEq(), YAbove(0)), std::move(aggs)));
    conds.push_back(
        Cond(TimeInRange(),
             Aggs(MaxOf(Sub(Col("R.t"), Col("R.y")), "batch_max"))));
    return conds;
  };
  ExpectMatchesNaive(make, "expression arguments");
  // Typed: both detail-only expressions, the column, count(*), and the
  // interval condition's detail-only MAX; per pair: the base-reading AVG
  // and the string MAX.
  EXPECT_EQ(typed_, std::make_pair(uint64_t{5}, uint64_t{7}));
}

TEST_F(GmdjKernelTest, SkewedKeyExceedsStabAndPairCaps) {
  // 5,000 base tuples share one key and one interval covering every
  // detail time: each detail row has 5,000 candidates, past the pair
  // buffer's cap within one row and the stab buffer's within four.
  std::vector<Row> base;
  for (int i = 0; i < 5000; ++i) {
    base.push_back({Value(int64_t{7}), Value(int64_t{0}),
                    Value(int64_t{100 + i % 3}),
                    Value(static_cast<double>(i % 8) / 4.0),
                    Value(Label('b', i % 5))});
  }
  catalog_.PutTable("B", MakeTable({"B.k", "B.lo", "B.hi", "B.x:d", "B.s:s"},
                                   base));
  Table detail = DetailTable(60, 1, 13);  // Every non-NULL key is 0...
  for (size_t r = 0; r < detail.num_rows(); r += 2) {
    ASSERT_TRUE(detail.SetCell(r, 0, Value(int64_t{7})).ok());  // ...or 7.
  }
  catalog_.PutTable("R", std::move(detail));
  const auto make = [] {
    std::vector<GmdjCondition> conds;
    conds.push_back(Cond(KeyEq(), Aggs(SumOf(Col("R.v"), "s"),
                                       MaxOf(Col("R.y"), "hi"))));
    conds.push_back(Cond(TimeInRange(), Aggs(CountStar("n"),
                                             MinOf(Col("R.v"), "lo"))));
    conds.push_back(Cond(And(TimeInRange(), YAbove(4)),
                         Aggs(SumOf(Col("R.y"), "sy"))));
    return conds;
  };
  ExpectMatchesNaive(make, "skewed key");
}

TEST_F(GmdjKernelTest, DiscardOnMatchMixedWithAggregates) {
  // NOT EXISTS (key match with y > 7) discards a base tuple on its first
  // match while the same binding group and an interval condition keep
  // aggregating; a count(*)-only interval condition freezes on its first
  // match. Output: the naive rows with no discarding match, each frozen
  // count read as 1.
  const auto make = [] {
    std::vector<GmdjCondition> conds;
    conds.push_back(Cond(And(KeyEq(), YAbove(7)), Aggs(CountStar("bad"))));
    conds.push_back(Cond(KeyEq(), Aggs(SumOf(Col("R.v"), "s"),
                                       MaxOf(Col("R.y"), "hi"))));
    conds.push_back(
        Cond(And(TimeInRange(), YAbove(2)), Aggs(CountStar("hit"))));
    conds.push_back(Cond(Gt(Col("R.y"), Col("B.x")), Aggs(CountStar("scan"))));
    return conds;
  };
  CompletionSpec spec;
  spec.actions = {CompletionAction::kDiscardOnMatch, CompletionAction::kNone,
                  CompletionAction::kSatisfyOnMatch, CompletionAction::kNone};
  const size_t base_width = 5;
  const auto expected = [&](const Table& naive) {
    std::vector<Row> rows;
    for (const Row& row : naive.rows()) {
      if (row[base_width].int64() != 0) continue;  // `bad` matched.
      Row kept = row;
      if (kept[base_width + 3].int64() > 0) kept[base_width + 3] = Value(1);
      rows.push_back(std::move(kept));
    }
    Table out(naive.schema());
    EXPECT_TRUE(out.AppendRows(std::move(rows)).ok());
    return out;
  };
  ExpectMatchesNaive(make, "discard + aggregates", &spec, expected);
}

TEST_F(GmdjKernelTest, SequentialDoubleSumsMatchRowOrderBitForBit) {
  // Inexact doubles: the sequential kernel folds each (base, aggregate)
  // in detail-row order, as the naive reference does, so every sum is
  // bit-identical.
  std::vector<Row> detail;
  Lcg rng(21);
  for (int i = 0; i < 2500; ++i) {
    detail.push_back({Value(rng.Next(25)), Value(rng.Next(100)),
                      Value(rng.Next(10)),
                      Value(static_cast<double>(rng.Next(1000)) * 0.1),
                      Value("r")});
  }
  catalog_.PutTable("R", MakeTable({"R.k", "R.t", "R.y", "R.v:d", "R.s:s"},
                                   detail));
  const auto make = [] {
    std::vector<GmdjCondition> conds;
    conds.push_back(Cond(KeyEq(), Aggs(SumOf(Col("R.v"), "s"),
                                       AvgOf(Div(Col("R.v"), Lit(3.0)), "a"))));
    conds.push_back(Cond(TimeInRange(), Aggs(SumOf(Col("R.v"), "st"))));
    return conds;
  };
  GmdjNode naive(std::make_unique<TableScanNode>("B"),
                 std::make_unique<TableScanNode>("R"), make(),
                 GmdjStrategy::kNaive);
  const Table reference = testutil::RunPlan(&naive, catalog_);
  for (const ExprEvalMode mode :
       {ExprEvalMode::kCompiled, ExprEvalMode::kInterpret}) {
    GmdjNode node(std::make_unique<TableScanNode>("B"),
                  std::make_unique<TableScanNode>("R"), make());
    ASSERT_TRUE(node.Prepare(catalog_).ok());
    ExecConfig config;
    config.num_threads = 1;
    config.expr_eval_mode = mode;
    ExecContext ctx(&catalog_, config);
    const Result<Table> actual = node.Execute(&ctx);
    ASSERT_TRUE(actual.ok());
    ASSERT_EQ(actual->num_rows(), reference.num_rows());
    for (size_t r = 0; r < reference.num_rows(); ++r) {
      for (size_t c = 0; c < reference.schema().num_fields(); ++c) {
        const Value want = reference.row(r)[c];
        const Value got = actual->row(r)[c];
        ASSERT_EQ(got.type(), want.type()) << "row " << r << " col " << c;
        if (want.type() == ValueType::kDouble) {
          EXPECT_EQ(std::bit_cast<uint64_t>(got.dbl()),
                    std::bit_cast<uint64_t>(want.dbl()))
              << "row " << r << " col " << c;
        } else {
          EXPECT_EQ(got.Compare(want), 0) << "row " << r << " col " << c;
        }
      }
    }
  }
}

// ---- Work counters on the paper shapes ----

/// The paper_olap statement shapes over a small TPC data set: the kernel
/// runs one hash probe per detail row with a non-NULL key that passes at
/// least one member's detail-only filter, as the row-at-a-time loops did.
class PaperShapeProbeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TpchConfig config;
    config.num_customers = 300;
    config.num_orders = 5000;
    config.num_lineitems = 1;
    orders_ = GenOrdersTable(config);
    engine_.catalog()->PutTable("customer", GenCustomerTable(config));
    engine_.catalog()->PutTable("orders", orders_);
  }

  /// Orders rows with a non-NULL key for which `pass` holds.
  uint64_t CountOrders(const std::function<bool(const Row&)>& pass) const {
    const size_t key = Col("o_custkey");
    uint64_t n = 0;
    for (const Row& row : orders_.rows()) {
      if (!row[key].is_null() && pass(row)) ++n;
    }
    return n;
  }
  size_t Col(const std::string& name) const {
    return orders_.schema().TryResolve(name);
  }

  void ExpectProbes(const std::string& sql, uint64_t expected) {
    for (const size_t threads : {size_t{1}, size_t{2}}) {
      for (const ExprEvalMode mode :
           {ExprEvalMode::kCompiled, ExprEvalMode::kInterpret}) {
        ExecConfig config;
        config.num_threads = threads;
        config.expr_eval_mode = mode;
        config.min_parallel_rows = 1;
        config.morsel_rows = 1024;
        engine_.set_exec_config(config);
        obs::Counter* probes =
            engine_.metrics()->GetCounter("exec.hash_probes");
        const uint64_t before = probes->Total();
        const Result<Table> result =
            engine_.ExecuteSql(sql, Strategy::kGmdjOptimized);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        EXPECT_EQ(probes->Total() - before, expected)
            << sql << " threads=" << threads;
      }
    }
  }

  Table orders_;
  OlapEngine engine_;
};

TEST_F(PaperShapeProbeTest, HashProbesMatchTheRowAtATimeCount) {
  const size_t price = Col("o_totalprice");
  const size_t priority = Col("o_orderpriority");
  const auto above = [price](double x) {
    return [price, x](const Row& r) { return r[price].dbl() > x; };
  };
  // Fig. 2: EXISTS with a detail-only price filter.
  ExpectProbes(
      "SELECT * FROM customer C WHERE EXISTS (SELECT * FROM orders O WHERE "
      "O.o_custkey = C.c_custkey AND O.o_totalprice > 150000.00)",
      CountOrders(above(150000.0)));
  // Fig. 3: AVG of a detail-only expression, every row probed.
  ExpectProbes(
      "SELECT * FROM customer C WHERE C.c_acctbal > (SELECT "
      "AVG(O.o_totalprice / 100.00) FROM orders O WHERE O.o_custkey = "
      "C.c_custkey)",
      CountOrders([](const Row&) { return true; }));
  // Fig. 4: `<> ALL` as an anti-probe, one probe per θ-passing row.
  ExpectProbes(
      "SELECT * FROM customer C WHERE C.c_custkey <> ALL (SELECT O.o_custkey "
      "FROM orders O WHERE O.o_totalprice > 300000.00)",
      CountOrders(above(300000.0)));
  // Fig. 5: two EXISTS sharing one probe per row either filter passes.
  ExpectProbes(
      "SELECT * FROM customer C WHERE EXISTS (SELECT * FROM orders O1 WHERE "
      "O1.o_custkey = C.c_custkey AND O1.o_orderpriority = '1-URGENT') AND "
      "EXISTS (SELECT * FROM orders O2 WHERE O2.o_custkey = C.c_custkey AND "
      "O2.o_totalprice > 250000.00)",
      CountOrders([&](const Row& r) {
        return r[priority].str() == "1-URGENT" || r[price].dbl() > 250000.0;
      }));
  // COMPARE: six select-list aggregates in one binding group.
  ExpectProbes(
      "SELECT C.c_custkey, (SELECT COUNT(*) FROM orders O1 WHERE "
      "O1.o_custkey = C.c_custkey) AS n, (SELECT SUM(O2.o_totalprice) FROM "
      "orders O2 WHERE O2.o_custkey = C.c_custkey) AS total, (SELECT "
      "MIN(O3.o_totalprice) FROM orders O3 WHERE O3.o_custkey = C.c_custkey) "
      "AS lowest, (SELECT MAX(O4.o_totalprice) FROM orders O4 WHERE "
      "O4.o_custkey = C.c_custkey) AS highest, (SELECT COUNT(*) FROM orders "
      "O5 WHERE O5.o_custkey = C.c_custkey AND O5.o_totalprice > "
      "200000.00) AS n_big, (SELECT SUM(O6.o_totalprice) FROM orders O6 "
      "WHERE O6.o_custkey = C.c_custkey AND O6.o_orderdate >= 9300) AS "
      "recent FROM customer C WHERE C.c_acctbal > 1000.00",
      CountOrders([](const Row&) { return true; }));
}

}  // namespace
}  // namespace gmdj
