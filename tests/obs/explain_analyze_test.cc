// EXPLAIN ANALYZE end to end: the golden annotated plan tree over the
// paper's Figure 1 warehouse, exact-count agreement between the compiled
// and interpreter expression modes (the acceptance bar: the profile is
// ground truth, not an estimate), the SQL statement forms, and the
// flight recorder naming the operator a governed abort interrupted.

#include <string>
#include <vector>

#include "common/fault_injection.h"
#include "engine/olap_engine.h"
#include "expr/expr_builder.h"
#include "gtest/gtest.h"
#include "nested/nested_builder.h"
#include "test_util.h"
#include "workload/paper_queries.h"
#include "workload/tpch_gen.h"

namespace gmdj {
namespace {

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    lines.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  return lines;
}

// Lines carrying a given annotation ("stats:", "gmdj:", ...), trimmed of
// the indentation so plans of different depths compare directly.
std::vector<std::string> AnnotationLines(const std::string& text,
                                         const std::string& marker) {
  std::vector<std::string> out;
  for (const std::string& line : SplitLines(text)) {
    const size_t at = line.find(marker);
    if (at != std::string::npos) out.push_back(line.substr(at));
  }
  return out;
}

// θ: flow starts within the hour bucket (the paper's Figure 1 join).
ExprPtr FlowInHour(const char* flow, const char* hour) {
  return And(Ge(Col(std::string(flow) + ".StartTime"),
                Col(std::string(hour) + ".StartInterval")),
             Lt(Col(std::string(flow) + ".StartTime"),
                Col(std::string(hour) + ".EndInterval")));
}

// Two EXISTS over Flow with the same correlation shape: under
// kGmdjOptimized they coalesce into ONE two-condition GMDJ with
// completion, which is exactly the shape the GMDJ detail block reports.
NestedSelect TwoExistsQuery() {
  NestedSelect query;
  query.source = From("Hours", "H");
  PredPtr w = Exists(
      Sub(From("Flow", "F1"),
          WherePred(And(FlowInHour("F1", "H"),
                        Eq(Col("F1.Protocol"), Lit("HTTP"))))));
  w = AndP(std::move(w),
           Exists(Sub(From("Flow", "F2"),
                      WherePred(And(FlowInHour("F2", "H"),
                                    Eq(Col("F2.DestIP"),
                                       Lit("167.167.167.0")))))));
  query.where = std::move(w);
  return query;
}

class ExplainAnalyzeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FaultInjector::Global()->Reset();
    testutil::LoadPaperTables(&engine_);
    // Sequential + compiled: the golden text must be byte-stable.
    ExecConfig exec;
    exec.num_threads = 1;
    exec.expr_eval_mode = ExprEvalMode::kCompiled;
    engine_.set_exec_config(exec);
  }
  void TearDown() override { FaultInjector::Global()->Reset(); }

  OlapEngine engine_;
};

TEST_F(ExplainAnalyzeTest, RejectsNativeStrategies) {
  const NestedSelect query = TwoExistsQuery();
  const Result<std::string> out =
      engine_.ExplainAnalyze(query, Strategy::kNativeSmart);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument);
}

// The golden tree: stable fields only (include_timings = false masks the
// wall-clock lines). Every number is derivable by hand from Figure 1:
// 3 hours, 6 flows, two coalesced EXISTS conditions evaluated in one
// detail scan (sharing one interval stab per flow: same binding), and
// satisfy-on-match completion retiring each of the
// 3 × 2 (hour, condition) slots after its first match — which is also
// why every recorded RNG(b, R, θ) range size is exactly 1.
TEST_F(ExplainAnalyzeTest, GoldenAnnotatedPlanOnPaperTables) {
  const NestedSelect query = TwoExistsQuery();
  AnalyzeRenderOptions options;
  options.include_timings = false;
  const Result<std::string> out =
      engine_.ExplainAnalyze(query, Strategy::kGmdjOptimized, options);
  ASSERT_TRUE(out.ok()) << out.status().message();

  EXPECT_EQ(
      *out,
      R"(Project[H.HourDescription -> HourDescription, H.StartInterval -> StartInterval, H.EndInterval -> EndInterval]
    stats: rows_in=3 rows_out=3 batches=1 predicate_evals=0 hash_probes=0
  Filter[((__cnt1 > 0) AND (__cnt2 > 0))]
      stats: rows_in=3 rows_out=3 batches=1 predicate_evals=3 hash_probes=0
    GMDJ[l1: (count(*) -> __cnt1) theta1: (((F1.StartTime >= H.StartInterval) AND (F1.StartTime < H.EndInterval)) AND (F1.Protocol = "HTTP")) {interval, shared probe ×2}; l2: (count(*) -> __cnt2) theta2: (((F1.StartTime >= H.StartInterval) AND (F1.StartTime < H.EndInterval)) AND (F1.DestIP = "167.167.167.0")) {interval, shared probe ×2}] +completion
        stats: rows_in=9 rows_out=3 batches=1 predicate_evals=12 hash_probes=0
        gmdj: conditions=2 compiled=2 fallbacks=0 typed_aggs=2/2 slot_path=0/2 discards=0 freezes=6 cache=not-probed
        rng: count=6 sum=6 min=1 p50=1 p90=1 max=1
      TableScan(Hours -> H)
          stats: rows_in=0 rows_out=3 batches=1 predicate_evals=0 hash_probes=0
      TableScan(Flow -> F1)
          stats: rows_in=0 rows_out=6 batches=1 predicate_evals=0 hash_probes=0
)");
  // Masked mode really masks: no wall-clock lines anywhere.
  EXPECT_TRUE(AnnotationLines(*out, "time:").empty()) << *out;
}

// Default rendering carries the timing lines the golden test masks.
TEST_F(ExplainAnalyzeTest, TimingsAppearUnlessMasked) {
  const NestedSelect query = TwoExistsQuery();
  const Result<std::string> out =
      engine_.ExplainAnalyze(query, Strategy::kGmdjOptimized);
  ASSERT_TRUE(out.ok()) << out.status().message();
  EXPECT_FALSE(AnnotationLines(*out, "time: exec=").empty()) << *out;
}

// The acceptance bar: per-operator rows / batches / predicate-eval
// counts from the compiled-expression run must EXACTLY match the tree
// interpreter's — the profile reports what executed, and both modes
// execute the same algorithm.
TEST_F(ExplainAnalyzeTest, CompiledCountsMatchInterpreterGroundTruth) {
  const NestedSelect query = TwoExistsQuery();
  AnalyzeRenderOptions options;
  options.include_timings = false;

  auto run = [&](ExprEvalMode mode) {
    ExecConfig exec;
    exec.num_threads = 1;
    exec.expr_eval_mode = mode;
    engine_.set_exec_config(exec);
    const Result<std::string> out =
        engine_.ExplainAnalyze(query, Strategy::kGmdjOptimized, options);
    EXPECT_TRUE(out.ok()) << out.status().message();
    return out.ok() ? *out : std::string();
  };

  const std::string compiled = run(ExprEvalMode::kCompiled);
  const std::string interpreted = run(ExprEvalMode::kInterpret);

  // Identical operator counts line for line...
  EXPECT_EQ(AnnotationLines(compiled, "stats:"),
            AnnotationLines(interpreted, "stats:"));
  EXPECT_EQ(AnnotationLines(compiled, "rng:"),
            AnnotationLines(interpreted, "rng:"));
  // ...while the gmdj detail proves the two runs really took different
  // expression paths.
  const std::vector<std::string> cg = AnnotationLines(compiled, "gmdj:");
  const std::vector<std::string> ig = AnnotationLines(interpreted, "gmdj:");
  ASSERT_EQ(cg.size(), 1u);
  ASSERT_EQ(ig.size(), 1u);
  EXPECT_NE(cg[0].find("compiled=2"), std::string::npos) << cg[0];
  EXPECT_NE(ig[0].find("compiled=0"), std::string::npos) << ig[0];
}

class SqlExplainTest : public ::testing::Test {
 protected:
  void SetUp() override {
    testutil::LoadPaperTables(&engine_);
    ExecConfig exec;
    exec.num_threads = 1;
    engine_.set_exec_config(exec);
  }
  OlapEngine engine_;

  // Example 2.1: two aggregate subqueries that coalesce into one GMDJ.
  static constexpr const char* kExample21Sql =
      "SELECT H.HourDescription, "
      "(SELECT SUM(F.NumBytes) FROM Flow F WHERE F.Protocol = 'HTTP' AND "
      "F.StartTime >= H.StartInterval AND F.StartTime < H.EndInterval) AS "
      "sum1, "
      "(SELECT SUM(F.NumBytes) FROM Flow F WHERE "
      "F.StartTime >= H.StartInterval AND F.StartTime < H.EndInterval) AS "
      "sum2 FROM Hours H";

  static std::string PlanText(const Table& table) {
    std::string text;
    for (size_t r = 0; r < table.num_rows(); ++r) {
      text += table.row(r)[0].ToString();
      text += '\n';
    }
    return text;
  }
};

TEST_F(SqlExplainTest, ExplainReturnsPlanTable) {
  const Result<Table> out = engine_.ExecuteSql(
      std::string("EXPLAIN ") + kExample21Sql, Strategy::kGmdjOptimized);
  ASSERT_TRUE(out.ok()) << out.status().message();
  ASSERT_EQ(out->schema().num_fields(), 1u);
  EXPECT_EQ(out->schema().field(0).name, "plan");
  const std::string text = PlanText(*out);
  EXPECT_NE(text.find("GMDJ"), std::string::npos) << text;
  // EXPLAIN prints the plan without running it: no stats annotations.
  EXPECT_EQ(text.find("stats:"), std::string::npos) << text;
}

TEST_F(SqlExplainTest, ExplainAnalyzeAnnotatesTheCoalescedGmdj) {
  const Result<Table> out =
      engine_.ExecuteSql(std::string("EXPLAIN ANALYZE ") + kExample21Sql,
                         Strategy::kGmdjOptimized);
  ASSERT_TRUE(out.ok()) << out.status().message();
  const std::string text = PlanText(*out);
  EXPECT_NE(text.find("stats:"), std::string::npos) << text;
  // The two SELECT-list subqueries coalesce into one two-condition GMDJ.
  const std::vector<std::string> gmdj = AnnotationLines(text, "gmdj:");
  ASSERT_EQ(gmdj.size(), 1u) << text;
  EXPECT_NE(gmdj[0].find("conditions=2"), std::string::npos) << gmdj[0];
}

// EXPLAIN ANALYZE through the engine cache: select-list subqueries run
// without completion (the SQL path keeps every base row), so their GMDJ
// is cache-eligible — a second identical run must report cache=hit.
TEST_F(SqlExplainTest, CacheProbeOutcomeIsReported) {
  engine_.EnableAggCache();
  const std::string sql = std::string("EXPLAIN ANALYZE ") + kExample21Sql;

  const Result<Table> miss = engine_.ExecuteSql(sql, Strategy::kGmdjOptimized);
  ASSERT_TRUE(miss.ok()) << miss.status().message();
  const std::vector<std::string> first =
      AnnotationLines(PlanText(*miss), "gmdj:");
  ASSERT_EQ(first.size(), 1u);
  EXPECT_NE(first[0].find("cache=miss"), std::string::npos) << first[0];

  const Result<Table> hit = engine_.ExecuteSql(sql, Strategy::kGmdjOptimized);
  ASSERT_TRUE(hit.ok()) << hit.status().message();
  const std::vector<std::string> second =
      AnnotationLines(PlanText(*hit), "gmdj:");
  ASSERT_EQ(second.size(), 1u);
  EXPECT_NE(second[0].find("cache=hit"), std::string::npos) << second[0];
}

// Under kAuto the planner decides the FROM/WHERE block only; the
// select-list GMDJ above it reports its own threads and morsels.
TEST_F(SqlExplainTest, SelectListGmdjReportsItsOwnThreadsAndMorsels) {
  ExecConfig config;
  config.num_threads = 2;
  config.morsel_rows = 2;  // 6 flows: three morsels.
  config.min_parallel_rows = 1;
  engine_.set_exec_config(config);
  const Result<Table> out = engine_.ExecuteSql(
      std::string("EXPLAIN ANALYZE ") + kExample21Sql, Strategy::kAuto);
  ASSERT_TRUE(out.ok()) << out.status().message();
  const std::string text = PlanText(*out);
  EXPECT_EQ(text.rfind("planner (outer block): strategy=", 0), 0u) << text;
  EXPECT_EQ(text.find("\nplanner: "), std::string::npos) << text;
  EXPECT_NE(text.find("\nselect-list gmdj: threads=2 morsels=3\n"),
            std::string::npos)
      << text;

  config.num_threads = 1;
  engine_.set_exec_config(config);
  const Result<Table> seq = engine_.ExecuteSql(
      std::string("EXPLAIN ANALYZE ") + kExample21Sql, Strategy::kAuto);
  ASSERT_TRUE(seq.ok()) << seq.status().message();
  EXPECT_NE(PlanText(*seq).find("\nselect-list gmdj: threads=1 sequential\n"),
            std::string::npos)
      << PlanText(*seq);
}

TEST_F(SqlExplainTest, ExplainRejectsNativeStrategies) {
  const Result<Table> out = engine_.ExecuteSql(
      std::string("EXPLAIN ") + kExample21Sql, Strategy::kNativeSmart);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument);
}

// --- Flight recorder -------------------------------------------------

class FlightRecorderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FaultInjector::Global()->Reset();
    TpchConfig config;
    config.num_customers = 50;
    config.num_orders = 900;
    config.num_lineitems = 1;
    engine_.catalog()->PutTable("customer", GenCustomerTable(config));
    engine_.catalog()->PutTable("orders", GenOrdersTable(config));
    ExecConfig exec;
    exec.num_threads = 1;
    engine_.set_exec_config(exec);
  }
  void TearDown() override { FaultInjector::Global()->Reset(); }

  OlapEngine engine_;
};

// A deadline trip mid-query: the dump captured by the engine names the
// governed abort AND the operator that was executing when it hit.
TEST_F(FlightRecorderTest, AbortDumpNamesTheAbortingOperator) {
  FaultSpec spec;
  spec.kind = FaultKind::kDelay;
  spec.delay_micros = 20000;
  FaultInjector::Global()->Arm("engine/execute", spec);
  QueryLimits limits;
  limits.deadline_ms = 5.0;
  const Result<Table> result =
      engine_.Execute(Fig2ExistsQuery(), Strategy::kGmdjOptimized, limits);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);

  const std::string& dump = engine_.last_abort_dump();
  EXPECT_NE(dump.find("flight recorder"), std::string::npos) << dump;
  EXPECT_NE(dump.find("governance/abort"), std::string::npos) << dump;
  EXPECT_NE(dump.find("deadline"), std::string::npos) << dump;
  // The operator spans live in the dump: the query span plus the plan
  // node the poll interrupted.
  EXPECT_NE(dump.find("query"), std::string::npos) << dump;
  EXPECT_NE(dump.find("GMDJ"), std::string::npos) << dump;

  // A clean re-run erases the dump.
  FaultInjector::Global()->Reset();
  ASSERT_TRUE(engine_.Execute(Fig2ExistsQuery(), Strategy::kGmdjOptimized)
                  .ok());
  EXPECT_TRUE(engine_.last_abort_dump().empty());
}

// The GMDJ's span has a short fixed name; the full label, with every
// condition, is EXPLAIN's.
TEST_F(FlightRecorderTest, GmdjSpanHasAShortName) {
  ASSERT_TRUE(
      engine_.Execute(Fig2ExistsQuery(), Strategy::kGmdjOptimized).ok());
  size_t gmdj_spans = 0;
  for (const obs::SpanRecord& record : engine_.tracer()->Recent()) {
    EXPECT_EQ(record.name.find("GMDJ["), std::string::npos) << record.name;
    gmdj_spans += record.name == "GMDJ";
  }
  EXPECT_GT(gmdj_spans, 0u);
  const Result<std::string> plan =
      engine_.Explain(Fig2ExistsQuery(), Strategy::kGmdjOptimized);
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->find("GMDJ["), std::string::npos) << *plan;
}

// The expr-compile fault site degrades to the interpreter rather than
// failing the query; the breadcrumb event must still name the operator.
TEST_F(FlightRecorderTest, ExprCompileFaultLeavesBreadcrumbEvent) {
  FaultSpec spec;
  spec.kind = FaultKind::kError;
  spec.code = StatusCode::kRuntimeError;
  spec.message = "compile degraded";
  FaultInjector::Global()->Arm("gmdj/expr-compile", spec);
  // The fault point sits on the compile path, so the premise is compiled
  // mode whatever GMDJ_EXPR_EVAL says.
  ExecConfig exec = engine_.exec_config();
  exec.expr_eval_mode = ExprEvalMode::kCompiled;
  engine_.set_exec_config(exec);

  const Result<Table> result =
      engine_.Execute(Fig2ExistsQuery(), Strategy::kGmdjOptimized);
  ASSERT_TRUE(result.ok()) << result.status().message();
  EXPECT_GT(engine_.last_stats().interpreter_fallbacks, 0u);
  EXPECT_TRUE(engine_.last_abort_dump().empty());  // Query succeeded.

  bool found = false;
  for (const obs::SpanRecord& record : engine_.tracer()->Recent()) {
    if (record.name != "fault:gmdj/expr-compile") continue;
    found = true;
    // The event detail carries the operator label.
    EXPECT_NE(record.detail.find("GMDJ"), std::string::npos)
        << record.detail;
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace gmdj
