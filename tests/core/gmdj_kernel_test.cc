// The GMDJ chunk kernel: typed aggregate folds, and the rows and work
// counters of the one kernel the sequential pass, the morsel workers and
// every spilled base slice run. Each kernel case is checked against the
// naive reference (a literal transcription of Definition 2.1) under every
// execution knob: threads 1, 2 and 4, compiled and interpreted
// expressions, spilled and resident.

#include <bit>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

#include "core/gmdj_node.h"
#include "engine/olap_engine.h"
#include "exec/nodes.h"
#include "expr/aggregate.h"
#include "expr/expr_builder.h"
#include "governance/query_context.h"
#include "gtest/gtest.h"
#include "obs/operator_stats.h"
#include "spill/spill_manager.h"
#include "storage/key_index.h"
#include "test_util.h"
#include "workload/tpch_gen.h"

namespace gmdj {
namespace {

using testutil::MakeTable;
using testutil::SameRows;

// ---- Typed folds ----

/// Same type and value; doubles bit for bit.
::testing::AssertionResult SameValue(const Value& a, const Value& b) {
  if (a.type() != b.type() || a.Compare(b) != 0 ||
      (a.type() == ValueType::kDouble &&
       std::bit_cast<uint64_t>(a.dbl()) != std::bit_cast<uint64_t>(b.dbl()))) {
    return ::testing::AssertionFailure()
           << a.ToString() << " vs " << b.ToString();
  }
  return ::testing::AssertionSuccess();
}

/// The kernel's typed loop: folds non-NULL `v` (of the column's type)
/// through the kind-specialized Add.
void AddTyped(TypedAggColumn* col, size_t g, const Value& v) {
  if (v.is_null()) return;
  const auto add = [&](auto k) {
    constexpr AggKind K = decltype(k)::value;
    if (col->is_double()) {
      col->Add<K>(g, v.dbl());
    } else {
      col->Add<K>(g, v.int64());
    }
  };
  switch (col->kind()) {
    case AggKind::kCount:
      return add(std::integral_constant<AggKind, AggKind::kCount>());
    case AggKind::kSum:
      return add(std::integral_constant<AggKind, AggKind::kSum>());
    case AggKind::kAvg:
      return add(std::integral_constant<AggKind, AggKind::kAvg>());
    case AggKind::kMin:
      return add(std::integral_constant<AggKind, AggKind::kMin>());
    case AggKind::kMax:
      return add(std::integral_constant<AggKind, AggKind::kMax>());
    case AggKind::kCountStar:
      return;
  }
}

const std::vector<AggKind> kTypedKinds = {AggKind::kCount, AggKind::kSum,
                                          AggKind::kAvg, AggKind::kMin,
                                          AggKind::kMax};

/// Folds `inputs` through the boxed Add into group 1 of a column of each
/// kind over `arg_type` and into an AggState with
/// Update, and expects the same final Value bit for bit after every input;
/// group 0 sees nothing. Then, at every split point, the inputs folded
/// into two partials merged at the end, as the morsel merge does.
void ExpectBoxedFoldMatches(const std::vector<Value>& inputs,
                            ValueType arg_type,
                            const std::vector<AggKind>& kinds) {
  for (const AggKind kind : kinds) {
    const char* name = AggKindToString(kind);
    AggState boxed;
    TypedAggColumn col(kind, arg_type, 2);
    for (const Value& v : inputs) {
      boxed.Update(kind, v);
      col.Add(1, v);
      EXPECT_TRUE(SameValue(col.Finalize(1),
                            boxed.Finalize(kind, arg_type)))
          << name << " after " << v.ToString();
    }
    EXPECT_TRUE(SameValue(col.Finalize(0),
                          AggState().Finalize(kind, arg_type)))
        << name;

    for (size_t split = 0; split <= inputs.size(); ++split) {
      AggState left, right;
      TypedAggColumn col_left(kind, arg_type, 1);
      TypedAggColumn col_right(kind, arg_type, 1);
      for (size_t i = 0; i < inputs.size(); ++i) {
        (i < split ? left : right).Update(kind, inputs[i]);
        (i < split ? col_left : col_right).Add(0, inputs[i]);
      }
      left.Merge(kind, right);
      col_left.Merge(0, col_right, 0);
      EXPECT_TRUE(SameValue(col_left.Finalize(0),
                            left.Finalize(kind, arg_type)))
          << name << " merged at " << split;
    }
  }
}

/// Folds `inputs` (of `arg_type`, or NULL) into group 1 of a typed column
/// by the typed loop and into an AggState with Update, and expects the
/// same final Value bit for bit after every input, for every kind. Group 0
/// sees nothing and finalizes like an empty AggState. Then the same with
/// the inputs split into two partials merged at the end, as the morsel
/// merge does; and the same inputs through the boxed Add.
void ExpectTypedFoldMatches(const std::vector<Value>& inputs,
                            ValueType arg_type) {
  for (const AggKind kind : kTypedKinds) {
    const char* name = AggKindToString(kind);
    AggState boxed;
    TypedAggColumn typed(kind, arg_type, 2);
    for (const Value& v : inputs) {
      boxed.Update(kind, v);
      AddTyped(&typed, 1, v);
      EXPECT_TRUE(SameValue(typed.Finalize(1),
                            boxed.Finalize(kind, arg_type)))
          << name;
    }
    EXPECT_TRUE(SameValue(typed.Finalize(0),
                          AggState().Finalize(kind, arg_type)))
        << name;

    const size_t half = inputs.size() / 2;
    AggState left, right;
    TypedAggColumn typed_left(kind, arg_type, 1);
    TypedAggColumn typed_right(kind, arg_type, 1);
    for (size_t i = 0; i < inputs.size(); ++i) {
      (i < half ? left : right).Update(kind, inputs[i]);
      AddTyped(i < half ? &typed_left : &typed_right, 0, inputs[i]);
    }
    left.Merge(kind, right);
    typed_left.Merge(0, typed_right, 0);
    EXPECT_TRUE(SameValue(typed_left.Finalize(0),
                          left.Finalize(kind, arg_type)))
        << name << " merged";
  }
  ExpectBoxedFoldMatches(inputs, arg_type, kTypedKinds);
}

TEST(TypedFoldTest, Int64MatchesBoxedUpdate) {
  ExpectTypedFoldMatches({Value(int64_t{5}), Value(int64_t{-3}),
                          Value(int64_t{5}), Value(int64_t{1} << 40),
                          Value(int64_t{-7})},
                         ValueType::kInt64);
}

TEST(TypedFoldTest, DoubleMatchesBoxedUpdate) {
  ExpectTypedFoldMatches(
      {Value(0.1), Value(0.2), Value(-1e300), Value(0.3), Value(1e-300)},
      ValueType::kDouble);
}

TEST(TypedFoldTest, NullsAreSkipped) {
  ExpectTypedFoldMatches(
      {Value::Null(), Value(int64_t{4}), Value::Null(), Value(int64_t{2})},
      ValueType::kInt64);
  ExpectTypedFoldMatches({Value::Null(), Value(4.0), Value::Null(),
                          Value(2.5), Value::Null()},
                         ValueType::kDouble);
  ExpectTypedFoldMatches({Value::Null()}, ValueType::kDouble);
}

TEST(TypedFoldTest, SumMigratesFromIntToDouble) {
  // A double-typed argument may still yield int64 Values (an int CASE
  // branch) on the boxed fallback. AggState sums the ints exactly and
  // migrates to double at the first double; the double column adds each
  // int as a double from 0.0. While the int prefix is exact in a double,
  // both give the same sum and average, bit for bit.
  const std::vector<Value> inputs = {Value(int64_t{3}), Value(int64_t{5}),
                                     Value(0.1), Value(int64_t{7}),
                                     Value(2.75)};
  for (const AggKind kind : {AggKind::kSum, AggKind::kAvg, AggKind::kCount}) {
    AggState boxed;
    TypedAggColumn typed(kind, ValueType::kDouble, 1);
    for (const Value& v : inputs) {
      boxed.Update(kind, v);
      typed.Add(0, v);
      EXPECT_TRUE(SameValue(typed.Finalize(0),
                            boxed.Finalize(kind, ValueType::kDouble)))
          << AggKindToString(kind);
    }
  }
}

TEST(TypedFoldTest, MinMaxOverMixedTypes) {
  // Mixed int64/double Values into a double column order by value as
  // AggState's Compare does; the double column reports the extreme as a
  // double (AggState keeps the winning input's type, which a double
  // output column widens on append).
  const std::vector<Value> inputs = {Value(int64_t{3}), Value(2.5),
                                     Value(int64_t{2}), Value(2.0),
                                     Value(int64_t{9}), Value(9.5),
                                     Value(int64_t{-4})};
  for (const AggKind kind : {AggKind::kMin, AggKind::kMax}) {
    AggState boxed;
    TypedAggColumn typed(kind, ValueType::kDouble, 1);
    for (const Value& v : inputs) {
      boxed.Update(kind, v);
      typed.Add(0, v);
      const Value got = typed.Finalize(0);
      EXPECT_EQ(got.type(), ValueType::kDouble);
      EXPECT_EQ(got.Compare(boxed.Finalize(kind, ValueType::kDouble)), 0)
          << AggKindToString(kind) << " " << got.ToString();
    }
  }
  // Int64 extremes at both ends of the range.
  ExpectTypedFoldMatches({Value(std::numeric_limits<int64_t>::max()),
                          Value(std::numeric_limits<int64_t>::min()),
                          Value(int64_t{0})},
                         ValueType::kInt64);
}

TEST(TypedFoldTest, StringMinMaxMatchesBoxedUpdate) {
  // NULLs, equal strings (the first of equals stays), the empty string.
  const std::vector<AggKind> kinds = {AggKind::kMin, AggKind::kMax};
  ExpectBoxedFoldMatches(
      {Value::Null(), Value("pear"), Value("apple"), Value::Null(),
       Value("pear"), Value("apple"), Value("zebra"), Value(""),
       Value("apple")},
      ValueType::kString, kinds);
  ExpectBoxedFoldMatches({Value::Null(), Value::Null()}, ValueType::kString,
                         kinds);
  ExpectBoxedFoldMatches({Value("same"), Value("same")}, ValueType::kString,
                         kinds);
}

TEST(TypedFoldTest, CountOverStringMatchesBoxedUpdate) {
  ExpectBoxedFoldMatches({Value("a"), Value::Null(), Value("a"), Value("")},
                         ValueType::kString, {AggKind::kCount});
  ExpectBoxedFoldMatches({Value::Null()}, ValueType::kString,
                         {AggKind::kCount});
}

TEST(TypedFoldTest, NullTypedArgumentMatchesBoxedUpdate) {
  // MIN/MAX/SUM/COUNT/AVG(NULL): nothing folds; counts are 0, the rest
  // NULL, merged or not.
  ExpectBoxedFoldMatches({Value::Null(), Value::Null(), Value::Null()},
                         ValueType::kNull, kTypedKinds);
  ExpectBoxedFoldMatches({}, ValueType::kNull, kTypedKinds);
}

TEST(TypedFoldTest, InexactExtremesKeepTheWinningValue) {
  // A per-pair argument (interpreted, or a constant-folded CASE) may yield
  // values of another type than its bound one, so the kernel types its
  // MIN/MAX column kNull. It keeps a Value extreme ordered as AggState orders it (numbers
  // before strings), the winning input's type included: 2 and 2.0 are
  // equal, so the first one stays.
  const std::vector<AggKind> kinds = {AggKind::kMin, AggKind::kMax,
                                      AggKind::kCount};
  ExpectBoxedFoldMatches({Value(int64_t{3}), Value("b"), Value(2.5),
                          Value::Null(), Value(int64_t{-1}), Value("a")},
                         ValueType::kNull, kinds);
  ExpectBoxedFoldMatches({Value(int64_t{2}), Value(2.0), Value(int64_t{2}),
                          Value(7.5), Value(int64_t{9})},
                         ValueType::kNull, kinds);
}

TEST(TypedFoldTest, ValueLaneIsSmallerThanAggState) {
  EXPECT_EQ(TypedAggColumn::BytesPerGroup(AggKind::kMax, ValueType::kString),
            sizeof(Value));
  EXPECT_EQ(TypedAggColumn::BytesPerGroup(AggKind::kMin, ValueType::kNull),
            sizeof(Value));
  EXPECT_LT(sizeof(Value), sizeof(AggState));
  EXPECT_EQ(TypedAggColumn::BytesPerGroup(AggKind::kCount,
                                          ValueType::kString),
            sizeof(int64_t));
  EXPECT_EQ(TypedAggColumn::BytesPerGroup(AggKind::kMin, ValueType::kInt64),
            sizeof(int64_t) + 1);
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
  for (const size_t threads : {size_t{1}, size_t{2}, size_t{4}}) {
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
std::vector<AggSpec> Aggs(AggSpec a, AggSpec b, AggSpec c) {
  std::vector<AggSpec> out = Aggs(std::move(a), std::move(b));
  out.push_back(std::move(c));
  return out;
}

/// Always TRUE (R.t is 0..99, B.lo 0..89) and reads both frames: a
/// residual that takes a condition off the slot path without changing
/// its matches.
ExprPtr AlwaysTrue() {
  return Ge(Col("R.t"), Sub(Col("B.lo"), Lit(int64_t{1000})));
}

/// `B.k = R.k AND filter`, with `span` adding the always-true residual.
GmdjCondition RouteCond(ExprPtr filter, std::vector<AggSpec> aggs, bool span) {
  ExprPtr theta = KeyEq();
  if (filter != nullptr) theta = And(std::move(theta), std::move(filter));
  if (span) theta = And(std::move(theta), AlwaysTrue());
  return Cond(std::move(theta), std::move(aggs));
}

/// BaseTable with unique keys: B.k is the row index (every 13th NULL).
Table UniqueBaseTable(int n, uint64_t seed) {
  Table base = BaseTable(n, 1, seed);
  for (size_t r = 0; r < base.num_rows(); ++r) {
    if (base.column(0).is_null(r)) continue;
    EXPECT_TRUE(base.SetCell(r, 0, Value(static_cast<int64_t>(r))).ok());
  }
  return base;
}

/// Runs `check` over a unique-key base and a duplicated-key base (where
/// nothing takes the slot path); `unique` tells which.
void ForBothBases(Catalog* catalog,
                  const std::function<void(bool unique)>& check) {
  catalog->PutTable("B", UniqueBaseTable(60, 11));
  check(true);
  catalog->PutTable("B", BaseTable(60, 25, 11));
  check(false);
}

using MakeConditions = std::function<std::vector<GmdjCondition>()>;

class GmdjKernelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    catalog_.PutTable("B", BaseTable(60, 25, 11));
    catalog_.PutTable("R", DetailTable(3000, 30, 12));
  }

  /// One kernel run: its rows, the EXPLAIN ANALYZE `stats:` and `rng:`
  /// lines, the `slot_path=k/m` field of the `gmdj:` line, and its
  /// profile counters.
  struct Outcome {
    Table rows;
    std::string stats;
    std::string rng;
    std::string slot_path;
    uint64_t typed_aggs = 0;
    uint64_t aggs = 0;
    bool spilled = false;
    Status status;
  };

  /// `expect_ok` false: the caller checks `status` itself.
  Outcome Run(const MakeConditions& make, const CompletionSpec* completion,
              const Knobs& knobs, bool expect_ok = true) {
    Outcome outcome;
    const std::string where = knobs.Name();
    GmdjNode node(std::make_unique<TableScanNode>("B"),
                  std::make_unique<TableScanNode>("R"), make());
    if (completion != nullptr) node.SetCompletion(CloneSpec(*completion));
    EXPECT_TRUE(node.Prepare(catalog_).ok()) << where;
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
    Result<Table> actual = node.Execute(&ctx);
    outcome.status = actual.status();
    if (expect_ok) {
      EXPECT_TRUE(actual.ok()) << where << ": " << actual.status().ToString();
    }
    if (!actual.ok()) return outcome;
    outcome.rows = std::move(*actual);
    outcome.spilled = ctx.stats().spill_passes > 0;
    if (const obs::OperatorStats* stats = profile.Find(&node);
        stats != nullptr) {
      outcome.typed_aggs = stats->typed_aggs;
      outcome.aggs = stats->aggs;
    }
    AnalyzeRenderOptions render;
    render.include_timings = false;
    const std::string text = RenderAnalyzedPlan(node, profile, render);
    const auto line = [&](const std::string& tag) {
      const size_t at = text.find(tag);
      return at == std::string::npos
                 ? std::string()
                 : text.substr(at, text.find('\n', at) - at);
    };
    outcome.stats = line("stats: ");
    outcome.rng = line("rng: ");
    const std::string gmdj = line("gmdj: ");
    const size_t slot = gmdj.find("slot_path=");
    if (slot != std::string::npos) {
      outcome.slot_path = gmdj.substr(slot, gmdj.find(' ', slot) - slot);
    }
    return outcome;
  }

  /// The naive node's rows for the conditions, through `expected` when
  /// given (completion changes the output).
  Table NaiveRows(const MakeConditions& make,
                  const std::function<Table(const Table&)>& expected) {
    GmdjNode naive(std::make_unique<TableScanNode>("B"),
                   std::make_unique<TableScanNode>("R"), make(),
                   GmdjStrategy::kNaive);
    Table reference = testutil::RunPlan(&naive, catalog_);
    return expected != nullptr ? expected(reference) : reference;
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
    const Table reference = NaiveRows(make, expected);
    typed_ = {0, 0};
    for (const Knobs& knobs : AllKnobs()) {
      const std::string where = context + " [" + knobs.Name() + "]";
      const Outcome actual = Run(make, completion, knobs);
      EXPECT_TRUE(SameRows(actual.rows, reference)) << where;
      EXPECT_EQ(actual.spilled, knobs.spilled) << where;
      if (knobs.threads == 1 && !knobs.spilled &&
          knobs.mode == ExprEvalMode::kCompiled) {
        typed_ = {actual.typed_aggs, actual.aggs};
      }
    }
  }

  /// The slot path against the span path: `make` runs over the binding
  /// group's slot vector wherever the base keys are unique, and
  /// `make_span` is the same conditions with a residual that is always
  /// TRUE, which keeps every condition on candidate spans. Under every
  /// knob both give the naive rows and the same EXPLAIN ANALYZE `rng:`
  /// line. `slot_paths` and `span_slot_paths` are the resident
  /// `slot_path=` fields of `make` and `make_span`.
  void ExpectSlotPathMatchesSpanPath(
      const MakeConditions& make, const MakeConditions& make_span,
      const std::string& slot_paths, const std::string& span_slot_paths,
      const std::string& context,
      const CompletionSpec* completion = nullptr,
      const std::function<Table(const Table&)>& expected = nullptr) {
    const Table reference = NaiveRows(make, expected);
    for (const Knobs& knobs : AllKnobs()) {
      const std::string where = context + " [" + knobs.Name() + "]";
      const Outcome slot = Run(make, completion, knobs);
      const Outcome span = Run(make_span, completion, knobs);
      EXPECT_TRUE(SameRows(slot.rows, reference)) << where;
      EXPECT_TRUE(SameRows(span.rows, reference)) << where;
      EXPECT_FALSE(slot.rng.empty()) << where;
      EXPECT_EQ(slot.rng, span.rng) << where;
      if (!knobs.spilled) {
        EXPECT_EQ(slot.slot_path, slot_paths) << where;
        EXPECT_EQ(span.slot_path, span_slot_paths) << where;
      }
    }
  }

  static CompletionSpec CloneSpec(const CompletionSpec& spec) {
    CompletionSpec out;
    out.actions = spec.actions;
    return out;
  }

  void ExpectBitIdentical(const MakeConditions& make, const Table& reference,
                          const std::string& context);

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

TEST_F(GmdjKernelTest, ConjunctsWithoutAProgramRunThroughTheTree) {
  // Detail-only conjuncts mix batch programs — string compares whose
  // literals live in their programs' pools, several per condition — with
  // a LIKE, which has no program and filters the chunk row by row.
  // Residuals run through the tree in both modes.
  const auto make = [] {
    std::vector<GmdjCondition> conds;
    conds.push_back(KeyCond(And(Ne(Col("R.s"), Lit("r1")),
                                Ne(Col("R.s"), Lit("r2"))),
                            Aggs(SumOf(Col("R.v"), "s"), CountStar("n"))));
    conds.push_back(KeyCond(
        And(Ne(Col("R.s"), Lit("r3")),
            std::make_unique<LikeExpr>(Col("R.s"), "r1%", false)),
        Aggs(MaxOf(Col("R.y"), "hi"))));
    conds.push_back(Cond(And(KeyEq(), Gt(Col("R.v"), Col("B.x"))),
                         Aggs(CountStar("m"))));
    return conds;
  };
  ExpectMatchesNaive(make, "conjuncts without a program");
  // Compiled: every condition but the LIKE one, whose conjunct has no
  // program; interpreted: none.
  for (const ExprEvalMode mode :
       {ExprEvalMode::kCompiled, ExprEvalMode::kInterpret}) {
    GmdjNode node(std::make_unique<TableScanNode>("B"),
                  std::make_unique<TableScanNode>("R"), make());
    ASSERT_TRUE(node.Prepare(catalog_).ok());
    ExecConfig config;
    config.expr_eval_mode = mode;
    ExecContext ctx(&catalog_, config);
    ASSERT_TRUE(node.Execute(&ctx).ok());
    const bool compiled = mode == ExprEvalMode::kCompiled;
    EXPECT_EQ(ctx.stats().compiled_conditions, compiled ? 2u : 0u);
    EXPECT_EQ(ctx.stats().interpreter_fallbacks, compiled ? 1u : 3u);
  }
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

// Aggregates folded per pair (AggFold::kValue), in the one store. Each
// runs over a unique-key base (the slot path's scatter) and a duplicated
// one (candidate spans), next to an interval condition.

ExprPtr CaseOf(ExprPtr when, ExprPtr then, ExprPtr otherwise) {
  return std::make_unique<CaseExpr>(std::move(when), std::move(then),
                                    std::move(otherwise));
}

TEST_F(GmdjKernelTest, BaseReadingStringMax) {
  // MAX(C.c_name): each base's own string when it has a match, else NULL.
  const auto make = [] {
    std::vector<GmdjCondition> conds;
    conds.push_back(Cond(KeyEq(), Aggs(MaxOf(Col("B.s"), "bmax"),
                                       MinOf(Col("B.s"), "bmin"))));
    conds.push_back(KeyCond(YAbove(5), Aggs(MaxOf(Col("B.s"), "bmax5"))));
    conds.push_back(Cond(TimeInRange(), Aggs(MaxOf(Col("B.s"), "imax"))));
    return conds;
  };
  ForBothBases(&catalog_, [&](bool unique) {
    ExpectMatchesNaive(make, unique ? "base string max, unique keys"
                                    : "base string max, duplicate keys");
    EXPECT_EQ(typed_, std::make_pair(uint64_t{0}, uint64_t{4}));
  });
}

TEST_F(GmdjKernelTest, CaseStringArgumentMixingBaseAndDetail) {
  // MAX(CASE WHEN O.o_totalprice > 100000 THEN O.o_orderstatus ELSE
  // C.c_name END) and its kin: a string argument that reads both frames.
  const auto make = [] {
    std::vector<GmdjCondition> conds;
    std::vector<AggSpec> aggs;
    aggs.push_back(MaxOf(CaseOf(Gt(Col("R.v"), Lit(40.0)), Col("R.s"),
                                Col("B.s")),
                         "mixed_max"));
    aggs.push_back(MinOf(CaseOf(Gt(Col("R.y"), Col("B.lo")), Col("B.s"),
                                Col("R.s")),
                         "mixed_min"));
    aggs.push_back(CountOf(CaseOf(Gt(Col("R.v"), Col("B.x")), Col("R.s"),
                                  Col("B.s")),
                           "mixed_count"));
    aggs.push_back(CountOf(Col("R.s"), "string_count"));
    conds.push_back(Cond(KeyEq(), std::move(aggs)));
    conds.push_back(Cond(And(TimeInRange(), YAbove(3)),
                         Aggs(MaxOf(CaseOf(Gt(Col("R.t"), Col("B.lo")),
                                           Col("R.s"), Col("B.s")),
                                    "interval_max"))));
    return conds;
  };
  ForBothBases(&catalog_, [&](bool unique) {
    ExpectMatchesNaive(make, unique ? "CASE string, unique keys"
                                    : "CASE string, duplicate keys");
    EXPECT_EQ(typed_, std::make_pair(uint64_t{0}, uint64_t{5}));
  });
}

TEST_F(GmdjKernelTest, BaseReadingNumericArguments) {
  // R.v * B.k and R.y * B.k fold per pair, so MIN/MAX keep Value extremes.
  // R.v is a multiple of 0.25, so double sums are exact in any merge order.
  const auto make = [] {
    std::vector<GmdjCondition> conds;
    std::vector<AggSpec> aggs;
    aggs.push_back(SumOf(Mul(Col("R.v"), Col("B.k")), "sum_vk"));
    aggs.push_back(MaxOf(Mul(Col("R.y"), Col("B.k")), "max_yk"));
    aggs.push_back(MinOf(Mul(Col("R.v"), Col("B.k")), "min_vk"));
    aggs.push_back(AvgOf(Mul(Col("R.y"), Col("B.k")), "avg_yk"));
    aggs.push_back(CountOf(Mul(Col("R.v"), Col("B.k")), "count_vk"));
    conds.push_back(Cond(KeyEq(), std::move(aggs)));
    conds.push_back(KeyCond(YAbove(4), Aggs(MaxOf(Mul(Col("R.v"), Col("B.x")),
                                                  "max_vx"))));
    conds.push_back(Cond(TimeInRange(), Aggs(SumOf(Sub(Col("R.t"),
                                                       Col("B.lo")),
                                                   "sum_offset"))));
    return conds;
  };
  ForBothBases(&catalog_, [&](bool unique) {
    ExpectMatchesNaive(make, unique ? "base-reading numeric, unique keys"
                                    : "base-reading numeric, duplicate keys");
    EXPECT_EQ(typed_, std::make_pair(uint64_t{0}, uint64_t{7}));
  });
}

TEST_F(GmdjKernelTest, ConstantFoldedCaseArguments) {
  // A constant CASE binds as its branches unify but compiles to the branch
  // it takes, so the program's type may differ from the bound one: such an
  // argument folds per pair, and MIN/MAX keep a Value extreme.
  // CASE WHEN 1 = 1 THEN 1 ELSE 2.5 END binds DOUBLE and yields int64 1.
  const auto int_or_double = [] {
    return CaseOf(Eq(Lit(int64_t{1}), Lit(int64_t{1})), Lit(int64_t{1}),
                  Lit(2.5));
  };
  const auto make = [&] {
    std::vector<GmdjCondition> conds;
    std::vector<AggSpec> aggs;
    aggs.push_back(MaxOf(int_or_double(), "max_folded"));
    aggs.push_back(MinOf(int_or_double(), "min_folded"));
    aggs.push_back(SumOf(int_or_double(), "sum_folded"));
    aggs.push_back(AvgOf(int_or_double(), "avg_folded"));
    conds.push_back(Cond(KeyEq(), std::move(aggs)));
    conds.push_back(Cond(TimeInRange(),
                         Aggs(MaxOf(int_or_double(), "interval_max"))));
    return conds;
  };
  ForBothBases(&catalog_, [&](bool unique) {
    ExpectMatchesNaive(make, unique ? "folded CASE, unique keys"
                                    : "folded CASE, duplicate keys");
    EXPECT_EQ(typed_, std::make_pair(uint64_t{0}, uint64_t{5}));
  });

  // CASE WHEN 1 = 0 THEN 1 ELSE 'x' END mixes an INT64 and a STRING
  // branch, which have no common type: both strategies refuse it when
  // the node binds its conditions, before any evaluation.
  for (const AggKind kind : {AggKind::kMax, AggKind::kMin}) {
    for (const GmdjStrategy strategy :
         {GmdjStrategy::kAuto, GmdjStrategy::kNaive}) {
      std::vector<GmdjCondition> conds;
      conds.push_back(Cond(
          KeyEq(), Aggs(AggSpec(kind,
                                CaseOf(Eq(Lit(int64_t{1}), Lit(int64_t{0})),
                                       Lit(int64_t{1}), Lit("x")),
                                "folded_string"))));
      GmdjNode node(std::make_unique<TableScanNode>("B"),
                    std::make_unique<TableScanNode>("R"), std::move(conds),
                    strategy);
      const Status status = node.Prepare(catalog_);
      ASSERT_EQ(status.code(), StatusCode::kInvalidArgument)
          << status.ToString();
      EXPECT_NE(status.message().find("mixes STRING and numeric branches"),
                std::string::npos)
          << status.ToString();
    }
  }
}

TEST_F(GmdjKernelTest, NullTypedArguments) {
  // MIN/MAX/SUM/COUNT/AVG(NULL): counts 0, the rest NULL, on every route.
  const auto make = [] {
    std::vector<GmdjCondition> conds;
    std::vector<AggSpec> aggs;
    aggs.push_back(MinOf(Lit(Value::Null()), "min_null"));
    aggs.push_back(MaxOf(Lit(Value::Null()), "max_null"));
    aggs.push_back(SumOf(Lit(Value::Null()), "sum_null"));
    aggs.push_back(CountOf(Lit(Value::Null()), "count_null"));
    aggs.push_back(AvgOf(Lit(Value::Null()), "avg_null"));
    aggs.push_back(CountStar("n"));
    conds.push_back(Cond(KeyEq(), std::move(aggs)));
    conds.push_back(Cond(TimeInRange(), Aggs(SumOf(Lit(Value::Null()),
                                                   "interval_sum_null"))));
    return conds;
  };
  ForBothBases(&catalog_, [&](bool unique) {
    ExpectMatchesNaive(make, unique ? "NULL arguments, unique keys"
                                    : "NULL arguments, duplicate keys");
    EXPECT_EQ(typed_, std::make_pair(uint64_t{1}, uint64_t{7}));
  });
}

TEST_F(GmdjKernelTest, PredicateRootedArguments) {
  // SUM(R.y > 4) and kin, built through the C++ API: the program of a
  // predicate root has no scalar result type, yet it yields int64 0, 1
  // or NULL, so each column is typed from the bound argument type.
  const auto make = [] {
    std::vector<GmdjCondition> conds;
    std::vector<AggSpec> aggs;
    aggs.push_back(SumOf(Gt(Col("R.y"), Lit(int64_t{4})), "sum_pred"));
    aggs.push_back(AvgOf(Gt(Col("R.y"), Lit(int64_t{4})), "avg_pred"));
    aggs.push_back(MaxOf(Lt(Col("R.v"), Col("B.x")), "max_pred"));
    aggs.push_back(MinOf(IsNull(Col("R.s")), "min_pred"));
    aggs.push_back(CountOf(Gt(Col("R.y"), Lit(int64_t{4})), "count_pred"));
    conds.push_back(Cond(KeyEq(), std::move(aggs)));
    conds.push_back(Cond(TimeInRange(),
                         Aggs(SumOf(Gt(Col("R.y"), Col("B.lo")),
                                    "interval_sum_pred"))));
    return conds;
  };
  ForBothBases(&catalog_, [&](bool unique) {
    ExpectMatchesNaive(make, unique ? "predicate arguments, unique keys"
                                    : "predicate arguments, duplicate keys");
    EXPECT_EQ(typed_, std::make_pair(uint64_t{0}, uint64_t{6}));
  });
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
    conds.push_back(KeyCond(YAbove(4), Aggs(SumOf(Col("R.v"), "sm"),
                                            MinOf(Col("R.v"), "lo"))));
    return conds;
  };
  // Over duplicated base keys the hash members fold candidate spans; over
  // unique keys they scatter by slot. Either way each (base, aggregate)
  // folds in detail-row order.
  for (const bool unique : {false, true}) {
    catalog_.PutTable("B", unique ? UniqueBaseTable(60, 11)
                                  : BaseTable(60, 25, 11));
    GmdjNode naive(std::make_unique<TableScanNode>("B"),
                   std::make_unique<TableScanNode>("R"), make(),
                   GmdjStrategy::kNaive);
    const Table reference = testutil::RunPlan(&naive, catalog_);
    ExpectBitIdentical(make, reference, unique ? "unique" : "duplicated");
  }
}

/// Runs `make` sequentially (compiled and interpreted) and expects every
/// cell of `reference` bit for bit.
void GmdjKernelTest::ExpectBitIdentical(const MakeConditions& make,
                                        const Table& reference,
                                        const std::string& context) {
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
              << context << " row " << r << " col " << c;
        } else {
          EXPECT_EQ(got.Compare(want), 0) << "row " << r << " col " << c;
        }
      }
    }
  }
}

// ---- Slot path (unique base keys) against the span path ----

TEST_F(GmdjKernelTest, SlotPathUnfilteredMembersMatchSpanPath) {
  // The COMPARE shape plus a masked count(*), a string MAX and a
  // base-reading AVG (both boxed), a batch argument, and a condition with
  // a real residual that stays on spans.
  const auto conditions = [](bool span) {
    std::vector<GmdjCondition> conds;
    conds.push_back(RouteCond(nullptr, Aggs(CountStar("n")), span));
    conds.push_back(RouteCond(nullptr, Aggs(SumOf(Col("R.v"), "s"),
                                            MaxOf(Col("R.s"), "smax")),
                              span));
    conds.push_back(
        RouteCond(YAbove(4), Aggs(MinOf(Col("R.y"), "lo"), CountStar("n4")),
                  span));
    conds.push_back(RouteCond(YAbove(6),
                              Aggs(AvgOf(Add(Col("R.v"), Col("B.x")), "ab"),
                                   SumOf(Mul(Col("R.y"), Lit(int64_t{3})),
                                         "s3")),
                              span));
    conds.push_back(Cond(And(KeyEq(), Gt(Col("R.v"), Col("B.x"))),
                         Aggs(CountStar("res"))));
    return conds;
  };
  ForBothBases(&catalog_, [&](bool unique) {
    ExpectSlotPathMatchesSpanPath(
        [&] { return conditions(false); }, [&] { return conditions(true); },
        unique ? "slot_path=4/5" : "slot_path=0/5", "slot_path=0/5",
        unique ? "unique keys" : "duplicated keys");
  });
}

TEST_F(GmdjKernelTest, SlotPathSatisfyOnMatchMatchesSpanPath) {
  // Two EXISTS (Fig. 5) beside an unfiltered SUM; satisfy-on-match
  // freezes each count at its first match.
  const auto conditions = [](bool span) {
    std::vector<GmdjCondition> conds;
    conds.push_back(RouteCond(YAbove(7), Aggs(CountStar("e1")), span));
    conds.push_back(
        RouteCond(Lt(Col("R.t"), Lit(int64_t{20})), Aggs(CountStar("e2")),
                  span));
    conds.push_back(RouteCond(nullptr, Aggs(SumOf(Col("R.y"), "s")), span));
    return conds;
  };
  CompletionSpec spec;
  spec.actions = {CompletionAction::kSatisfyOnMatch,
                  CompletionAction::kSatisfyOnMatch, CompletionAction::kNone};
  const size_t base_width = 5;
  const auto expected = [&](const Table& naive) {
    std::vector<Row> rows;
    for (Row row : naive.rows()) {
      for (const size_t c : {base_width, base_width + 1}) {
        if (row[c].int64() > 0) row[c] = Value(1);
      }
      rows.push_back(std::move(row));
    }
    Table out(naive.schema());
    EXPECT_TRUE(out.AppendRows(std::move(rows)).ok());
    return out;
  };
  ForBothBases(&catalog_, [&](bool unique) {
    ExpectSlotPathMatchesSpanPath(
        [&] { return conditions(false); }, [&] { return conditions(true); },
        unique ? "slot_path=3/3" : "slot_path=0/3", "slot_path=0/3",
        unique ? "unique keys" : "duplicated keys", &spec, expected);
  });
}

TEST_F(GmdjKernelTest, SlotPathDiscardOnMatchMatchesSpanPath) {
  // NOT EXISTS discards a base tuple on its first match while the group's
  // other members keep folding it. Only the discarding condition changes
  // route, so the group mixes a span member with slot members.
  const auto conditions = [](bool span) {
    std::vector<GmdjCondition> conds;
    conds.push_back(RouteCond(YAbove(7), Aggs(CountStar("bad")), span));
    conds.push_back(RouteCond(nullptr, Aggs(SumOf(Col("R.v"), "s"),
                                            CountStar("n")),
                              false));
    conds.push_back(RouteCond(YAbove(2), Aggs(MaxOf(Col("R.s"), "smax")),
                              false));
    return conds;
  };
  CompletionSpec spec;
  spec.actions = {CompletionAction::kDiscardOnMatch, CompletionAction::kNone,
                  CompletionAction::kNone};
  const size_t base_width = 5;
  const auto expected = [&](const Table& naive) {
    std::vector<Row> rows;
    for (const Row& row : naive.rows()) {
      if (row[base_width].int64() == 0) rows.push_back(row);
    }
    Table out(naive.schema());
    EXPECT_TRUE(out.AppendRows(std::move(rows)).ok());
    return out;
  };
  ForBothBases(&catalog_, [&](bool unique) {
    ExpectSlotPathMatchesSpanPath(
        [&] { return conditions(false); }, [&] { return conditions(true); },
        unique ? "slot_path=3/3" : "slot_path=0/3",
        unique ? "slot_path=2/3" : "slot_path=0/3",
        unique ? "unique keys" : "duplicated keys", &spec, expected);
  });
}

TEST_F(GmdjKernelTest, SlotPathSatisfyWithAggregatesKeepsSpans) {
  // A satisfy-on-match condition whose first match feeds a SUM needs
  // that match's row, so it walks spans even over a unique index; its
  // unfiltered sibling still scatters. Sequential only (the first match
  // depends on scan order).
  catalog_.PutTable("B", UniqueBaseTable(60, 11));
  const auto make = [] {
    std::vector<GmdjCondition> conds;
    conds.push_back(RouteCond(YAbove(7),
                              Aggs(CountStar("e"), SumOf(Col("R.y"), "first")),
                              false));
    conds.push_back(RouteCond(nullptr, Aggs(CountStar("n")), false));
    return conds;
  };
  CompletionSpec spec;
  spec.actions = {CompletionAction::kSatisfyOnMatch, CompletionAction::kNone};
  for (const ExprEvalMode mode :
       {ExprEvalMode::kCompiled, ExprEvalMode::kInterpret}) {
    const Outcome outcome = Run(make, &spec, Knobs{1, mode, false});
    EXPECT_EQ(outcome.slot_path, "slot_path=1/2");
    // Each matched base: count 1, and the SUM of its first match only.
    const Table& rows = outcome.rows;
    for (size_t r = 0; r < rows.num_rows(); ++r) {
      const Row row = rows.row(r);
      if (row[5].int64() == 0) {
        EXPECT_TRUE(row[6].is_null());
      } else {
        EXPECT_EQ(row[5].int64(), 1);
        EXPECT_GT(row[6].int64(), 7);
      }
    }
  }
}

TEST_F(GmdjKernelTest, RngHistogramIsTheSameWithOrWithoutAResidual) {
  // The `rng:` line records the match counts of the base tuples the node
  // emits. Condition 1 is unfiltered, or carries the always-true residual
  // that stops it from counting tuples condition 0 has discarded; since
  // discarded tuples are not recorded, both spellings report the same
  // histogram, at one thread and at two.
  const auto make = [](bool residual) {
    return [residual] {
      std::vector<GmdjCondition> conds;
      conds.push_back(RouteCond(YAbove(7), Aggs(CountStar("bad")), false));
      conds.push_back(RouteCond(nullptr, Aggs(SumOf(Col("R.v"), "s"),
                                              CountStar("n")),
                                residual));
      return conds;
    };
  };
  CompletionSpec spec;
  spec.actions = {CompletionAction::kDiscardOnMatch, CompletionAction::kNone};
  ForBothBases(&catalog_, [&](bool unique) {
    const std::string context = unique ? "unique keys" : "duplicated keys";
    std::string single_thread;
    for (const size_t threads : {size_t{1}, size_t{2}}) {
      const Knobs knobs{threads, ExprEvalMode::kCompiled, false};
      const std::string where = context + " [" + knobs.Name() + "]";
      const Outcome plain = Run(make(false), &spec, knobs);
      const Outcome residual = Run(make(true), &spec, knobs);
      EXPECT_TRUE(SameRows(plain.rows, residual.rows)) << where;
      EXPECT_FALSE(plain.rng.empty()) << where;
      EXPECT_EQ(plain.rng, residual.rng) << where;
      if (threads == 1) single_thread = plain.rng;
      EXPECT_EQ(plain.rng, single_thread) << where;
    }
  });
}

// ---- The fused group pass ----
//
// Over a unique index, the scatter members of a binding group fold in one
// pass per chunk (GmdjScan::FoldGroup). Each case runs over a unique-key
// base, where that pass runs, and a duplicated-key one, where nothing
// scatters, and against the same conditions kept on candidate spans by an
// always-true residual. Under every knob the rows match gmdj-naive and
// the `rng:` line matches the span path's.

class GroupPassTest : public GmdjKernelTest {
 protected:
  /// `conditions(span)`: `slot` of its `total` conditions take the slot
  /// path over unique keys when `span` is false.
  void ExpectMatchesSpanPath(
      const std::function<std::vector<GmdjCondition>(bool)>& conditions,
      size_t slot, size_t total) {
    const std::string none = "slot_path=0/" + std::to_string(total);
    ForBothBases(&catalog_, [&](bool unique) {
      ExpectSlotPathMatchesSpanPath(
          [&] { return conditions(false); }, [&] { return conditions(true); },
          unique ? "slot_path=" + std::to_string(slot) + "/" +
                       std::to_string(total)
                 : none,
          none, unique ? "unique keys" : "duplicated keys");
    });
  }
};

TEST_F(GroupPassTest, MaskedAndUnmaskedCountSumMinMax) {
  // The COMPARE shape: unmasked members share one match count, masked
  // ones own theirs, and every aggregate of R.v reads it once per row.
  const auto conditions = [](bool span) {
    std::vector<GmdjCondition> conds;
    conds.push_back(RouteCond(nullptr, Aggs(CountStar("n")), span));
    conds.push_back(RouteCond(nullptr, Aggs(SumOf(Col("R.v"), "s"),
                                            MinOf(Col("R.v"), "lo")),
                              span));
    conds.push_back(RouteCond(nullptr, Aggs(MaxOf(Col("R.v"), "hi")), span));
    conds.push_back(RouteCond(YAbove(4), Aggs(CountStar("n4")), span));
    conds.push_back(RouteCond(Lt(Col("R.t"), Lit(int64_t{50})),
                              Aggs(SumOf(Col("R.v"), "s50"),
                                   MaxOf(Col("R.v"), "hi50")),
                              span));
    return conds;
  };
  ExpectMatchesSpanPath(conditions, 5, 5);

  // The EXPLAIN ANALYZE lines of the unique-key run, as the kernel
  // printed them before the pass was fused.
  catalog_.PutTable("B", UniqueBaseTable(60, 11));
  const Outcome outcome =
      Run([&] { return conditions(false); }, nullptr,
          Knobs{1, ExprEvalMode::kCompiled, false});
  EXPECT_EQ(outcome.stats,
            "stats: rows_in=3060 rows_out=60 batches=3 predicate_evals=6000 "
            "hash_probes=2823");
  EXPECT_EQ(outcome.rng, "rng: count=300 sum=10370 min=0 p50=0 p90=64 max=111");
}

TEST_F(GroupPassTest, NullArgumentCells) {
  // R.y is NULL on every 11th row and R.v on every 7th; one member's mask
  // passes only rows whose argument is NULL, so its SUM and extremes stay
  // NULL and its COUNT 0.
  const auto conditions = [](bool span) {
    std::vector<GmdjCondition> conds;
    conds.push_back(RouteCond(nullptr, Aggs(CountOf(Col("R.y"), "cy"),
                                            SumOf(Col("R.y"), "sy")),
                              span));
    conds.push_back(RouteCond(IsNull(Col("R.v")),
                              Aggs(SumOf(Col("R.v"), "sv"),
                                   MinOf(Col("R.v"), "lo"),
                                   CountOf(Col("R.v"), "cv")),
                              span));
    conds.push_back(RouteCond(IsNotNull(Col("R.y")),
                              Aggs(MaxOf(Col("R.y"), "hi"),
                                   AvgOf(Col("R.v"), "av")),
                              span));
    return conds;
  };
  ExpectMatchesSpanPath(conditions, 3, 3);
}

TEST_F(GroupPassTest, Int64AndDoubleArgumentsInOneGroup) {
  const auto conditions = [](bool span) {
    std::vector<GmdjCondition> conds;
    conds.push_back(RouteCond(nullptr, Aggs(SumOf(Col("R.y"), "sy"),
                                            SumOf(Col("R.v"), "sv")),
                              span));
    conds.push_back(RouteCond(YAbove(3), Aggs(MinOf(Col("R.y"), "ly"),
                                              MinOf(Col("R.v"), "lv")),
                              span));
    conds.push_back(RouteCond(Ge(Col("R.v"), Lit(10.5)),
                              Aggs(MaxOf(Col("R.y"), "hy"),
                                   MaxOf(Col("R.v"), "hv")),
                              span));
    conds.push_back(RouteCond(nullptr, Aggs(AvgOf(Col("R.y"), "ay"),
                                            AvgOf(Col("R.v"), "av")),
                              span));
    return conds;
  };
  ExpectMatchesSpanPath(conditions, 4, 4);
}

TEST_F(GroupPassTest, BatchArguments) {
  // Detail-only expression arguments, evaluated once per chunk; the same
  // expression in two members is two batch slots.
  const auto conditions = [](bool span) {
    std::vector<GmdjCondition> conds;
    conds.push_back(RouteCond(
        nullptr, Aggs(SumOf(Mul(Col("R.y"), Lit(int64_t{3})), "s3"),
                      MaxOf(Div(Col("R.v"), Lit(4.0)), "hq")),
        span));
    conds.push_back(RouteCond(
        YAbove(5), Aggs(SumOf(Mul(Col("R.y"), Lit(int64_t{3})), "s3m"),
                        AvgOf(Add(Col("R.y"), Col("R.t")), "ayt")),
        span));
    conds.push_back(RouteCond(nullptr, Aggs(CountStar("n")), span));
    return conds;
  };
  ExpectMatchesSpanPath(conditions, 3, 3);
}

TEST_F(GroupPassTest, PerPairMemberInTheGroup) {
  // MAX over a string (as MAX(O.o_orderpriority)) folds per pair after
  // the pass, beside typed aggregates of the same members.
  const auto conditions = [](bool span) {
    std::vector<GmdjCondition> conds;
    conds.push_back(RouteCond(nullptr, Aggs(MaxOf(Col("R.s"), "smax"),
                                            SumOf(Col("R.v"), "s")),
                              span));
    conds.push_back(RouteCond(YAbove(5), Aggs(MinOf(Col("R.s"), "smin"),
                                              CountStar("n5")),
                              span));
    conds.push_back(RouteCond(nullptr, Aggs(MaxOf(Col("R.v"), "hi")), span));
    return conds;
  };
  ExpectMatchesSpanPath(conditions, 3, 3);
}

TEST_F(GroupPassTest, OnlyScatterMemberIsMasked) {
  // The group's one scatter member has a mask; its sibling has a real
  // residual and walks spans.
  const auto conditions = [](bool span) {
    std::vector<GmdjCondition> conds;
    conds.push_back(RouteCond(YAbove(6), Aggs(SumOf(Col("R.v"), "s"),
                                              CountStar("n")),
                              span));
    conds.push_back(Cond(And(KeyEq(), Gt(Col("R.v"), Col("B.x"))),
                         Aggs(CountStar("res"), MaxOf(Col("R.y"), "hi"))));
    return conds;
  };
  ExpectMatchesSpanPath(conditions, 1, 2);
}

TEST_F(GroupPassTest, BaseColumnCompareInsideAnArgument) {
  // `(B.x > 2.0) * R.y` compiles its compare to one column-vs-literal op
  // on the base frame, so the argument reads the base row and folds per
  // pair: a batch over the detail chunk would read a stale base row.
  const auto conditions = [](bool span) {
    std::vector<GmdjCondition> conds;
    conds.push_back(RouteCond(
        nullptr,
        Aggs(SumOf(Mul(Gt(Col("B.x"), Lit(2.0)), Col("R.y")), "sx"),
             MaxOf(Mul(Col("R.y"), Le(Lit(int64_t{3}), Col("B.lo"))),
                   "hx")),
        span));
    conds.push_back(RouteCond(nullptr, Aggs(CountStar("n")), span));
    return conds;
  };
  ExpectMatchesSpanPath(conditions, 2, 2);
}

// ---- Memory charge of the base index ----

TEST_F(GmdjKernelTest, IndexBuildIsChargedBeforeItAllocates) {
  // The node charges the build's peak (KeyIndex::BuildBytesBound) before
  // building and then gives back what the built index does not hold, so
  // a budget one byte short of that peak fails, and the failed query
  // leaves nothing reserved. The int64 key is direct-mapped, the string
  // key hashed.
  struct Charge {
    Status status;
    size_t peak = 0;  // The query's high-water reservation.
    size_t held = 0;  // Reserved when the node returned.
  };
  const auto run = [&](const char* base_col, const char* detail_col,
                       size_t budget) {
    std::vector<GmdjCondition> conds;
    conds.push_back(Cond(Eq(Col(base_col), Col(detail_col)),
                         Aggs(SumOf(Col("R.v"), "s"))));
    GmdjNode node(std::make_unique<TableScanNode>("B"),
                  std::make_unique<TableScanNode>("R"), std::move(conds));
    EXPECT_TRUE(node.Prepare(catalog_).ok());
    MemoryPool pool;
    Charge charge;
    {
      QueryLimits limits;
      limits.mem_budget_bytes = budget;
      QueryContext query(limits, &pool);
      ExecConfig config;
      config.num_threads = 1;
      ExecContext ctx(&catalog_, config);
      ctx.set_query_ctx(&query);
      charge.status = node.Execute(&ctx).status();
      charge.peak = query.memory().peak_reserved();
      charge.held = query.memory().reserved();
    }
    EXPECT_EQ(pool.reserved(), 0u);
    return charge;
  };
  const Table& base = **catalog_.GetTable("B");
  for (const auto& [base_col, detail_col, direct] :
       {std::tuple{"B.k", "R.k", true}, std::tuple{"B.s", "R.s", false}}) {
    const KeyIndex index(base, {base.schema().TryResolve(base_col)});
    ASSERT_EQ(index.direct(), direct) << base_col;
    const Charge free = run(base_col, detail_col, 0);  // No cap.
    ASSERT_TRUE(free.status.ok()) << base_col << ": " << free.status.ToString();
    EXPECT_EQ(free.peak - free.held,
              KeyIndex::BuildBytesBound(base.num_rows()) - index.bytes())
        << base_col;
    EXPECT_TRUE(run(base_col, detail_col, free.peak).status.ok()) << base_col;
    EXPECT_EQ(run(base_col, detail_col, free.peak - 1).status.code(),
              StatusCode::kResourceExhausted)
        << base_col;
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
