// Binding-routed GMDJ dispatch: the anti-probe that answers a fused
// `<> ALL` pair with one hash probe per detail tuple, and binding groups
// that share one probe among conditions with identical bindings. Both are
// pure dispatch changes, so every case must return exactly the rows of
// the tuple-iteration references, under every execution knob: threads 1
// and 4, compiled and interpreted expressions, spilled and resident.

#include <cstdint>
#include <string>
#include <vector>

#include "core/gmdj_node.h"
#include "engine/olap_engine.h"
#include "exec/nodes.h"
#include "expr/expr_builder.h"
#include "gtest/gtest.h"
#include "nested/nested_builder.h"
#include "spill/spill_manager.h"
#include "test_util.h"

namespace gmdj {
namespace {

using testutil::MakeTable;
using testutil::SameRows;

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

ExecConfig ConfigFor(size_t threads, ExprEvalMode mode) {
  ExecConfig config;
  config.num_threads = threads;
  config.expr_eval_mode = mode;
  // Small morsels so every multi-threaded run that can go parallel does.
  config.min_parallel_rows = 1;
  config.morsel_rows = 16;
  return config;
}

/// B(k, x) and R(k, y), integer columns, NULLs given as Value::Null().
Table BaseTable(const std::vector<Row>& rows) {
  return MakeTable({"B.k", "B.x"}, rows);
}
Table DetailTable(const std::vector<Row>& rows) {
  return MakeTable({"R.k", "R.y"}, rows);
}

/// `B.k <> ALL (SELECT R.k FROM R WHERE R.y > min_y)`.
NestedSelect AllNeQuery(int64_t min_y) {
  NestedSelect q;
  q.source = From("B", "B");
  q.where = AllSub(Col("B.k"), CompareOp::kNe,
                   SubSelect(From("R", "R"), Col("R.k"),
                             WherePred(Gt(Col("R.y"), Lit(min_y)))));
  return q;
}

/// `B.k NOT IN (SELECT R.k FROM R)` — the `<> ALL` synonym, with no θ.
NestedSelect NotInQuery() {
  NestedSelect q;
  q.source = From("B", "B");
  q.where = NotInSub(Col("B.k"), SubSelect(From("R", "R"), Col("R.k"),
                                           nullptr));
  return q;
}

class AntiProbeTest : public ::testing::Test {
 protected:
  void Load(Table base, Table detail) {
    base_ = std::move(base);
    detail_ = std::move(detail);
  }

  void PutTables(OlapEngine* engine) const {
    engine->catalog()->PutTable("B", base_);
    engine->catalog()->PutTable("R", detail_);
  }

  /// Runs `query` under kGmdjOptimized with every knob combination and
  /// checks the rows against kGmdjNaive and kNativeNaive, the plan's
  /// anti-probe dispatch, and that the work stayed linear.
  void ExpectAgreesEverywhere(const NestedSelect& query,
                              const std::string& context) {
    OlapEngine reference;
    PutTables(&reference);
    const Result<Table> native =
        reference.Execute(query, Strategy::kNativeNaive);
    ASSERT_TRUE(native.ok()) << context << ": "
                             << native.status().ToString();
    const Result<Table> naive = reference.Execute(query, Strategy::kGmdjNaive);
    ASSERT_TRUE(naive.ok()) << context << ": " << naive.status().ToString();
    ASSERT_TRUE(SameRows(*naive, *native)) << context;

    for (const Knobs& knobs : AllKnobs()) {
      const std::string where = context + " [" + knobs.Name() + "]";
      OlapEngine engine;
      PutTables(&engine);
      engine.set_exec_config(ConfigFor(knobs.threads, knobs.mode));
      if (knobs.spilled) {
        spill::SpillConfig spill;
        // One directory per test: ctest runs the cases as parallel
        // processes, and a spill scope owns its directory.
        spill.dir = ::testing::TempDir() + "/gmdj_anti_probe_test_" +
                    ::testing::UnitTest::GetInstance()
                        ->current_test_info()
                        ->name();
        spill.block_rows = 16;
        spill.min_spill_partitions = 3;
        engine.EnableSpill(spill);
      }
      const Result<std::string> plan =
          engine.Explain(query, Strategy::kGmdjOptimized);
      ASSERT_TRUE(plan.ok()) << where;
      EXPECT_NE(plan->find("{anti-probe}"), std::string::npos)
          << where << "\n" << *plan;

      const Result<Table> actual =
          engine.Execute(query, Strategy::kGmdjOptimized);
      ASSERT_TRUE(actual.ok()) << where << ": "
                               << actual.status().ToString();
      EXPECT_TRUE(SameRows(*actual, *native)) << where;
      // Linear: θ once per detail row per pass, plus the selection over
      // surviving base rows — never a (base, detail) pair loop.
      const uint64_t passes = knobs.spilled ? 3 : 1;
      EXPECT_LE(engine.last_stats().predicate_evals,
                passes * detail_.num_rows() + base_.num_rows())
          << where;
    }
  }

  Table base_;
  Table detail_;
};

/// `n` deterministic (key, value) rows: row i is (i % key_mod,
/// i % y_mod), so keys repeat n / key_mod times.
std::vector<Row> DupRows(int n, int key_mod, int y_mod) {
  std::vector<Row> rows;
  for (int i = 0; i < n; ++i) {
    rows.push_back({Value(int64_t{i % key_mod}), Value(int64_t{i % y_mod})});
  }
  return rows;
}

TEST_F(AntiProbeTest, DuplicateKeys) {
  // Base keys 0..39 twice each; detail keys 0..29 three times each, so
  // every base key in 0..29 is violated by several detail rows.
  Load(BaseTable(DupRows(80, 40, 7)), DetailTable(DupRows(90, 30, 10)));
  ExpectAgreesEverywhere(AllNeQuery(6), "duplicate keys, y > 6");
  ExpectAgreesEverywhere(NotInQuery(), "duplicate keys, NOT IN");
}

TEST_F(AntiProbeTest, NullBaseKeys) {
  // A NULL base key makes ψ NULL for every detail row: the base row
  // survives only when no detail row passes θ.
  std::vector<Row> base = DupRows(60, 45, 5);
  for (int i = 0; i < 60; i += 7) base[i][0] = Value::Null();
  Load(BaseTable(base), DetailTable(DupRows(90, 30, 10)));
  ExpectAgreesEverywhere(AllNeQuery(4), "NULL base keys");
  ExpectAgreesEverywhere(AllNeQuery(100), "NULL base keys, no θ match");
}

TEST_F(AntiProbeTest, NullDetailKeys) {
  std::vector<Row> detail = DupRows(90, 30, 10);
  // A NULL key on a row θ rejects changes nothing...
  detail[5] = {Value::Null(), Value(int64_t{0})};
  Load(BaseTable(DupRows(60, 45, 5)), DetailTable(detail));
  ExpectAgreesEverywhere(AllNeQuery(3), "NULL detail key, filtered by θ");
  // ...on a row θ accepts it rejects every base row.
  detail[50] = {Value::Null(), Value(int64_t{9})};
  Load(BaseTable(DupRows(60, 45, 5)), DetailTable(detail));
  ExpectAgreesEverywhere(AllNeQuery(3), "NULL detail key, passes θ");
  ExpectAgreesEverywhere(NotInQuery(), "NULL detail key, NOT IN");
}

TEST_F(AntiProbeTest, EmptySubqueryResult) {
  // ALL over an empty set is TRUE, NULL base keys included.
  std::vector<Row> base = DupRows(30, 20, 5);
  base[3][0] = Value::Null();
  Load(BaseTable(base), DetailTable({}));
  ExpectAgreesEverywhere(AllNeQuery(0), "empty detail");
  ExpectAgreesEverywhere(NotInQuery(), "empty detail, NOT IN");
}

TEST_F(AntiProbeTest, ThetaFiltersEveryRow) {
  std::vector<Row> base = DupRows(30, 20, 5);
  base[4][0] = Value::Null();
  std::vector<Row> detail = DupRows(90, 30, 10);
  detail[7] = {Value::Null(), Value(int64_t{1})};
  Load(BaseTable(base), DetailTable(detail));
  ExpectAgreesEverywhere(AllNeQuery(1000), "θ rejects every detail row");
}

TEST_F(AntiProbeTest, CoalescedWithExistsOnSameDetail) {
  // The anti-probe pair and an EXISTS over the same detail table share
  // one GMDJ (coalescing): one scan answers both subqueries.
  std::vector<Row> base = DupRows(70, 40, 31);
  base[9][0] = Value::Null();
  std::vector<Row> detail = DupRows(90, 30, 10);
  detail[11] = {Value::Null(), Value(int64_t{2})};
  Load(BaseTable(base), DetailTable(detail));
  NestedSelect q;
  q.source = From("B", "B");
  q.where = AndP(
      AllSub(Col("B.k"), CompareOp::kNe,
             SubSelect(From("R", "R"), Col("R.k"),
                       WherePred(Gt(Col("R.y"), Lit(int64_t{7}))))),
      Exists(Sub(From("R", "R2"), WherePred(Eq(Col("R2.k"), Col("B.x"))))));
  ExpectAgreesEverywhere(q, "anti-probe + EXISTS");

  OlapEngine engine;
  PutTables(&engine);
  const Result<std::string> plan =
      engine.Explain(q, Strategy::kGmdjOptimized);
  ASSERT_TRUE(plan.ok());
  // One GMDJ node carries all three conditions.
  EXPECT_EQ(plan->find("GMDJ["), plan->rfind("GMDJ[")) << *plan;
  EXPECT_NE(plan->find("{hash}"), std::string::npos) << *plan;
}

TEST_F(AntiProbeTest, BasicGmdjKeepsTupleIteration) {
  // Without completion (basic gmdj) the pair is not fused, so there is
  // no anti-probe: the paper's per-pair behaviour stays measurable.
  Load(BaseTable(DupRows(40, 30, 5)), DetailTable(DupRows(50, 20, 10)));
  OlapEngine engine;
  PutTables(&engine);
  for (const Strategy strategy : {Strategy::kGmdj, Strategy::kGmdjNaive}) {
    const Result<std::string> plan = engine.Explain(AllNeQuery(3), strategy);
    ASSERT_TRUE(plan.ok());
    EXPECT_EQ(plan->find("anti-probe"), std::string::npos) << *plan;
  }
  ASSERT_TRUE(engine.Execute(AllNeQuery(3), Strategy::kGmdj).ok());
  EXPECT_GT(engine.last_stats().predicate_evals, 40u * 20u);
}

// ---- Binding groups ----

GmdjCondition AggCond(int64_t min_y, AggSpec agg) {
  GmdjCondition cond;
  cond.theta = And(Eq(Col("B.k"), Col("R.k")), Gt(Col("R.y"), Lit(min_y)));
  cond.aggs.push_back(std::move(agg));
  return cond;
}

/// A COMPARE-shaped GMDJ: several aggregates over one binding B.k = R.k,
/// each condition with its own detail-only filter.
std::vector<GmdjCondition> CompareConditions() {
  std::vector<GmdjCondition> conds;
  conds.push_back(AggCond(2, CountStar("n2")));
  conds.push_back(AggCond(4, SumOf(Col("R.y"), "s4")));
  conds.back().aggs.push_back(CountStar("n4"));
  conds.push_back(AggCond(6, MinOf(Col("R.y"), "lo6")));
  conds.push_back(AggCond(8, MaxOf(Col("R.y"), "hi8")));
  return conds;
}

TEST(BindingGroupTest, CompareShapeSharesOneProbePerDetailRow) {
  Catalog catalog;
  std::vector<Row> base = DupRows(50, 25, 3);
  base[2][0] = Value::Null();
  std::vector<Row> detail = DupRows(400, 30, 10);
  detail[17][0] = Value::Null();
  detail[18][1] = Value::Null();
  catalog.PutTable("B", BaseTable(base));
  catalog.PutTable("R", DetailTable(detail));
  // The shared key check: a non-NULL key on a row that passes at least
  // one condition's detail-only filter (y > 2 covers y > 4, 6, 8).
  uint64_t key_checks = 0;
  for (const Row& row : detail) {
    if (!row[0].is_null() && !row[1].is_null() && row[1].int64() > 2) {
      ++key_checks;
    }
  }

  GmdjNode naive(std::make_unique<TableScanNode>("B"),
                 std::make_unique<TableScanNode>("R"), CompareConditions(),
                 GmdjStrategy::kNaive);
  const Table expected = testutil::RunPlan(&naive, catalog);

  for (const size_t threads : {size_t{1}, size_t{4}}) {
    for (const ExprEvalMode mode :
         {ExprEvalMode::kCompiled, ExprEvalMode::kInterpret}) {
      const std::string where = "threads=" + std::to_string(threads) +
                                (mode == ExprEvalMode::kInterpret
                                     ? " interpret"
                                     : " compiled");
      GmdjNode node(std::make_unique<TableScanNode>("B"),
                    std::make_unique<TableScanNode>("R"),
                    CompareConditions());
      ASSERT_TRUE(node.Prepare(catalog).ok());
      EXPECT_NE(node.label().find("{hash, shared probe ×4}"),
                std::string::npos)
          << node.label();
      ExecContext ctx(&catalog, ConfigFor(threads, mode));
      const Result<Table> actual = node.Execute(&ctx);
      ASSERT_TRUE(actual.ok()) << where;
      EXPECT_TRUE(SameRows(*actual, expected)) << where;
      EXPECT_EQ(ctx.stats().hash_probes, key_checks) << where;
      EXPECT_EQ(ctx.stats().morsels > 0, threads > 1) << where;
    }
  }
}

TEST(BindingGroupTest, SingleConditionProbesAsBefore) {
  Catalog catalog;
  catalog.PutTable("B", BaseTable(DupRows(50, 25, 3)));
  std::vector<Row> detail = DupRows(200, 30, 10);
  detail[3][0] = Value::Null();
  catalog.PutTable("R", DetailTable(detail));
  std::vector<GmdjCondition> conds;
  conds.push_back(AggCond(4, CountStar("n")));
  GmdjNode node(std::make_unique<TableScanNode>("B"),
                std::make_unique<TableScanNode>("R"), std::move(conds));
  ASSERT_TRUE(node.Prepare(catalog).ok());
  EXPECT_NE(node.label().find("{hash}"), std::string::npos) << node.label();
  uint64_t probes = 0;
  for (const Row& row : detail) {
    if (!row[0].is_null() && row[1].int64() > 4) ++probes;
  }
  ExecStats stats;
  testutil::RunPlan(&node, catalog, &stats);
  EXPECT_EQ(stats.hash_probes, probes);
}

}  // namespace
}  // namespace gmdj
