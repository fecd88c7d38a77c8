// End-to-end equivalence of the two expression evaluation modes: every
// paper figure query (Fig. 2–5), run through the GMDJ strategies with
// compiled batch programs, must produce exactly the rows the tree
// interpreter produces — sequentially and morsel-parallel — and the
// ExecStats must show the compiler actually engaged. Also covers the
// "gmdj/expr-compile" fault point: a forced compilation failure degrades
// to the interpreter (counted as fallbacks) without failing the query.

#include "common/fault_injection.h"
#include "engine/olap_engine.h"
#include "gtest/gtest.h"
#include "parallel/exec_config.h"
#include "test_util.h"
#include "workload/paper_queries.h"
#include "workload/tpch_gen.h"

namespace gmdj {
namespace {

class EvalModeEquivalenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FaultInjector::Global()->Reset();
    TpchConfig config;
    config.seed = 20030901;  // NULL-carrying dbgen output, fixed.
    config.num_customers = 120;
    config.num_orders = 700;
    config.num_lineitems = 1;
    engine_.catalog()->PutTable("customer", GenCustomerTable(config));
    engine_.catalog()->PutTable("orders", GenOrdersTable(config));
  }
  void TearDown() override { FaultInjector::Global()->Reset(); }

  Table Run(const NestedSelect& query, Strategy strategy, ExprEvalMode mode,
            size_t threads = 1) {
    ExecConfig config;
    config.expr_eval_mode = mode;
    config.num_threads = threads;
    engine_.set_exec_config(config);
    Result<Table> result = engine_.Execute(query, strategy);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.ok() ? std::move(*result) : Table();
  }

  void ExpectModesAgree(const NestedSelect& query, const char* label) {
    for (const Strategy strategy : {Strategy::kGmdj, Strategy::kGmdjOptimized}) {
      const Table interpreted =
          Run(query, strategy, ExprEvalMode::kInterpret);
      EXPECT_EQ(engine_.last_stats().compiled_conditions, 0u) << label;
      const Table compiled = Run(query, strategy, ExprEvalMode::kCompiled);
      EXPECT_GT(engine_.last_stats().compiled_conditions, 0u)
          << label << ": the figure θ shapes must compile, stats: "
          << engine_.last_stats().ToString();
      EXPECT_TRUE(testutil::SameRows(compiled, interpreted))
          << label << " strategy=" << StrategyToString(strategy);
    }
  }

  OlapEngine engine_;
};

TEST_F(EvalModeEquivalenceTest, Fig2ModesAgree) {
  ExpectModesAgree(Fig2ExistsQuery(), "fig2");
}

TEST_F(EvalModeEquivalenceTest, Fig3ModesAgree) {
  ExpectModesAgree(Fig3AggCompareQuery(), "fig3");
}

TEST_F(EvalModeEquivalenceTest, Fig4ModesAgree) {
  ExpectModesAgree(Fig4AllQuery(), "fig4");
}

TEST_F(EvalModeEquivalenceTest, Fig5ModesAgree) {
  ExpectModesAgree(Fig5TreeExistsQuery(), "fig5");
}

TEST_F(EvalModeEquivalenceTest, MorselParallelCompiledMatchesInterpreter) {
  const Table interpreted =
      Run(Fig2ExistsQuery(), Strategy::kGmdj, ExprEvalMode::kInterpret, 4);
  const Table compiled =
      Run(Fig2ExistsQuery(), Strategy::kGmdj, ExprEvalMode::kCompiled, 4);
  EXPECT_GT(engine_.last_stats().compiled_conditions, 0u);
  EXPECT_TRUE(testutil::SameRows(compiled, interpreted));
}

TEST_F(EvalModeEquivalenceTest, CompileFaultDegradesToInterpreter) {
  const Table reference =
      Run(Fig2ExistsQuery(), Strategy::kGmdjOptimized,
          ExprEvalMode::kCompiled);
  EXPECT_GT(engine_.last_stats().compiled_conditions, 0u);

  FaultSpec spec;
  spec.kind = FaultKind::kError;
  spec.trigger_hit = 1;
  spec.code = StatusCode::kRuntimeError;
  spec.message = "injected compile failure";
  FaultInjector::Global()->Arm("gmdj/expr-compile", spec);

  // The query must still succeed — compilation is an optimization, never
  // a correctness dependency — with the fallback visible in the stats.
  const Table faulted = Run(Fig2ExistsQuery(), Strategy::kGmdjOptimized,
                            ExprEvalMode::kCompiled);
  EXPECT_GT(FaultInjector::Global()->hits("gmdj/expr-compile"), 0u);
  EXPECT_EQ(engine_.last_stats().compiled_conditions, 0u);
  EXPECT_GT(engine_.last_stats().interpreter_fallbacks, 0u);
  EXPECT_TRUE(testutil::SameRows(faulted, reference));
}

}  // namespace
}  // namespace gmdj
