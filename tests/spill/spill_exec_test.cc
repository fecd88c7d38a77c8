// Spilled execution must be indistinguishable from in-memory execution
// except for speed: identical rows in identical order, for both the GMDJ
// path and hash-join build sides, whether spilling is forced
// (min_spill_partitions) or triggered by a failed memory reservation.

#include <cstdint>
#include <string>
#include <vector>

#include "common/fault_injection.h"
#include "engine/olap_engine.h"
#include "expr/expr_builder.h"
#include "gtest/gtest.h"
#include "nested/nested_builder.h"
#include "spill/spill_manager.h"
#include "test_util.h"

namespace gmdj {
namespace {

using testutil::MakeTable;

std::string TestDir(const std::string& name) {
  return ::testing::TempDir() + "/gmdj_spill_exec_test_" + name;
}

/// Rows AND order must match: spilled evaluation reproduces the
/// single-pass output exactly, not just as a multiset.
void ExpectSameTableOrdered(const Table& actual, const Table& expected,
                            const std::string& context) {
  ASSERT_EQ(actual.num_rows(), expected.num_rows()) << context;
  for (size_t i = 0; i < expected.num_rows(); ++i) {
    ASSERT_EQ(actual.row(i).size(), expected.row(i).size())
        << context << " row " << i;
    for (size_t c = 0; c < expected.row(i).size(); ++c) {
      EXPECT_TRUE(actual.row(i)[c] == expected.row(i)[c])
          << context << " row " << i << " col " << c << ": "
          << actual.row(i)[c].ToString() << " vs "
          << expected.row(i)[c].ToString();
    }
  }
}

/// B(k, x) with `rows` rows and R(k, y) with `detail_rows` rows —
/// deterministic, with enough key skew that every subquery kind has
/// matches, misses, and multi-row groups.
void PopulateTables(Catalog* catalog, int rows, int detail_rows) {
  Table b = MakeTable({"B.k", "B.x"}, {});
  for (int i = 0; i < rows; ++i) {
    b.AppendRow({Value(i % 17), Value(i % 23)});
  }
  catalog->PutTable("B", std::move(b));
  Table r = MakeTable({"R.k", "R.y"}, {});
  for (int i = 0; i < detail_rows; ++i) {
    r.AppendRow({Value(i % 13), Value(i % 7)});
  }
  catalog->PutTable("R", std::move(r));
}

NestedSelect ExistsQuery() {
  NestedSelect q;
  q.source = From("B", "B");
  q.where = Exists(Sub(From("R", "R1"),
                       WherePred(Eq(Col("R1.k"), Col("B.k")))));
  return q;
}

NestedSelect NotExistsQuery() {
  NestedSelect q;
  q.source = From("B", "B");
  q.where = NotExists(Sub(
      From("R", "R1"),
      AndP(WherePred(Eq(Col("R1.k"), Col("B.k"))),
           WherePred(Cmp(Col("R1.y"), CompareOp::kGt, Lit(4))))));
  return q;
}

NestedSelect AggCompareQuery() {
  NestedSelect q;
  q.source = From("B", "B");
  auto sub = Sub(From("R", "R1"), WherePred(Eq(Col("R1.k"), Col("B.k"))));
  sub->select_agg = SumOf(Col("R1.y"), "a");
  q.where = CompareSub(Col("B.x"), CompareOp::kGt, std::move(sub));
  return q;
}

std::vector<NestedSelect> AllQueries() {
  std::vector<NestedSelect> out;
  out.push_back(ExistsQuery());
  out.push_back(NotExistsQuery());
  out.push_back(AggCompareQuery());
  return out;
}

spill::SpillConfig ForcedSpillConfig(const std::string& dir,
                                     size_t partitions) {
  spill::SpillConfig config;
  config.dir = TestDir(dir);
  config.block_rows = 64;  // Small blocks: multi-block spill files.
  config.min_spill_partitions = partitions;
  return config;
}

TEST(SpillExecTest, ForcedSpillMatchesInMemoryAcrossStrategies) {
  OlapEngine plain;
  OlapEngine spilled;
  PopulateTables(plain.catalog(), 500, 300);
  PopulateTables(spilled.catalog(), 500, 300);
  spilled.EnableSpill(ForcedSpillConfig("forced", 4));

  const Strategy strategies[] = {Strategy::kGmdjOptimized, Strategy::kGmdj,
                                 Strategy::kUnnest};
  for (const NestedSelect& query : AllQueries()) {
    for (const Strategy strategy : strategies) {
      const std::string context = std::string(StrategyToString(strategy)) +
                                  " / " + query.ToString();
      const Result<Table> expected = plain.Execute(query, strategy);
      ASSERT_TRUE(expected.ok()) << context << ": "
                                 << expected.status().ToString();
      const Result<Table> actual = spilled.Execute(query, strategy);
      ASSERT_TRUE(actual.ok()) << context << ": "
                               << actual.status().ToString();
      ExpectSameTableOrdered(*actual, *expected, context);
      EXPECT_GT(spilled.last_stats().spill_passes, 0u) << context;
      // GMDJ passes stage qualifying base rows on disk. Unnest semi/anti
      // joins legitimately write nothing (the cross-pass matched bitmap
      // is all they need), so only the GMDJ strategies assert bytes.
      if (strategy != Strategy::kUnnest) {
        EXPECT_GT(spilled.last_stats().spill_bytes_written, 0u) << context;
      }
    }
  }
  // Every scope died with its query: no spill bytes may remain on disk.
  EXPECT_EQ(spilled.spill_manager()->bytes_in_use(), 0u);
  EXPECT_EQ(spilled.spill_manager()->open_files(), 0u);
  // The manager fed the registry.
  auto snapshot = spilled.SnapshotMetrics();
  EXPECT_GT(snapshot.counters["spill.queries"], 0u);
  EXPECT_GT(snapshot.counters["spill.passes"], 0u);
  EXPECT_GT(snapshot.counters["spill.bytes_written"], 0u);
}

TEST(SpillExecTest, AmpleBudgetStaysResident) {
  // A spill scope alone never spills: with nothing forced and a budget
  // the whole input fits, every operator runs as one resident range and
  // writes no spill file.
  OlapEngine plain;
  OlapEngine scoped;
  PopulateTables(plain.catalog(), 500, 300);
  PopulateTables(scoped.catalog(), 500, 300);
  spill::SpillConfig config;
  config.dir = TestDir("ample");
  scoped.EnableSpill(config);
  QueryLimits limits;
  limits.mem_budget_bytes = 64 << 20;

  const Strategy strategies[] = {Strategy::kGmdjOptimized, Strategy::kGmdj,
                                 Strategy::kUnnest};
  for (const NestedSelect& query : AllQueries()) {
    for (const Strategy strategy : strategies) {
      const std::string context = std::string(StrategyToString(strategy)) +
                                  " / " + query.ToString();
      const Result<Table> expected = plain.Execute(query, strategy);
      ASSERT_TRUE(expected.ok()) << context << ": "
                                 << expected.status().ToString();
      const Result<Table> actual = scoped.Execute(query, strategy, limits);
      ASSERT_TRUE(actual.ok()) << context << ": "
                               << actual.status().ToString();
      ExpectSameTableOrdered(*actual, *expected, context);
      EXPECT_EQ(scoped.last_stats().spill_passes, 0u) << context;
      EXPECT_EQ(scoped.last_stats().spill_bytes_written, 0u) << context;
    }
  }
  EXPECT_EQ(scoped.SnapshotMetrics().counters["spill.files_created"], 0u);
}

TEST(SpillExecTest, BudgetPressureDegradesInsteadOfAborting) {
  // Big base: the GMDJ's per-base-row aggregate state dominates, so a
  // budget below the full state still admits a fraction of the base rows
  // per pass.
  constexpr int kBaseRows = 20000;
  constexpr int kDetailRows = 800;
  QueryLimits limits;
  limits.mem_budget_bytes = 128 << 10;

  OlapEngine plain;
  PopulateTables(plain.catalog(), kBaseRows, kDetailRows);
  const NestedSelect query = AggCompareQuery();
  const Result<Table> unconstrained =
      plain.Execute(query, Strategy::kGmdjOptimized);
  ASSERT_TRUE(unconstrained.ok());

  // Without spill, the budget aborts the query...
  const Result<Table> aborted =
      plain.Execute(query, Strategy::kGmdjOptimized, limits);
  ASSERT_FALSE(aborted.ok());
  EXPECT_EQ(aborted.status().code(), StatusCode::kResourceExhausted);

  // ...with spill, the same budget degrades to a multi-pass run with the
  // identical result.
  OlapEngine spilled;
  PopulateTables(spilled.catalog(), kBaseRows, kDetailRows);
  spill::SpillConfig config;
  config.dir = TestDir("budget");
  spilled.EnableSpill(config);
  const Result<Table> degraded =
      spilled.Execute(query, Strategy::kGmdjOptimized, limits);
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
  ExpectSameTableOrdered(*degraded, *unconstrained, "budget degrade");
  EXPECT_GT(spilled.last_stats().spill_passes, 1u);
  EXPECT_EQ(spilled.spill_manager()->bytes_in_use(), 0u);
}

TEST(SpillExecTest, SingleRowOverBudgetIsAHardError) {
  // Every GMDJ reservation shrinks with the base split, so the only way
  // to keep failing is a budget below even ONE base row's share (the
  // 32-byte hash-index slot already exceeds it). That must surface the
  // explicit fallback error, not recurse forever.
  OlapEngine engine;
  PopulateTables(engine.catalog(), 64, 300);
  spill::SpillConfig config;
  config.dir = TestDir("hard");
  engine.EnableSpill(config);
  QueryLimits limits;
  limits.mem_budget_bytes = 16;
  const Result<Table> result =
      engine.Execute(AggCompareQuery(), Strategy::kGmdjOptimized, limits);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(result.status().message().find("exceeds the memory budget"),
            std::string::npos)
      << result.status().ToString();
  // The engine (and its spill manager) stays fully usable.
  const Result<Table> retry =
      engine.Execute(AggCompareQuery(), Strategy::kGmdjOptimized);
  EXPECT_TRUE(retry.ok()) << retry.status().ToString();
  EXPECT_EQ(engine.spill_manager()->bytes_in_use(), 0u);
}

TEST(SpillExecTest, WriteFaultFailsQueryButNotEngine) {
  OlapEngine engine;
  PopulateTables(engine.catalog(), 500, 300);
  engine.EnableSpill(ForcedSpillConfig("write-fault", 4));
  const NestedSelect query = ExistsQuery();

  for (const char* site : {"spill/write", "spill/disk-full", "spill/read",
                           "spill/checksum", "spill/open"}) {
    FaultInjector::Global()->Reset();
    FaultSpec spec;
    spec.kind = FaultKind::kAllocFail;
    FaultInjector::Global()->Arm(site, spec);
    const Result<Table> faulted =
        engine.Execute(query, Strategy::kGmdjOptimized);
    FaultInjector::Global()->Reset();
    ASSERT_FALSE(faulted.ok()) << site << " never fired";
    // The abort unwound cleanly: no leaked spill bytes or handles, and
    // the identical query succeeds right after.
    EXPECT_EQ(engine.spill_manager()->bytes_in_use(), 0u) << site;
    EXPECT_EQ(engine.spill_manager()->open_files(), 0u) << site;
    const Result<Table> retry = engine.Execute(query, Strategy::kGmdjOptimized);
    EXPECT_TRUE(retry.ok()) << site << ": " << retry.status().ToString();
  }
}

TEST(SpillExecTest, ExplainAnalyzeShowsSpillCounters) {
  OlapEngine engine;
  PopulateTables(engine.catalog(), 500, 300);
  engine.EnableSpill(ForcedSpillConfig("explain", 4));
  ExecConfig exec = engine.exec_config();
  exec.expr_eval_mode = ExprEvalMode::kCompiled;
  engine.set_exec_config(exec);
  AnalyzeRenderOptions options;
  options.include_timings = false;
  const Result<std::string> rendered =
      engine.ExplainAnalyze(AggCompareQuery(), Strategy::kGmdjOptimized,
                            options);
  ASSERT_TRUE(rendered.ok()) << rendered.status().ToString();
  EXPECT_NE(rendered->find("spill:"), std::string::npos) << *rendered;
  EXPECT_NE(rendered->find("passes="), std::string::npos) << *rendered;
  // The node's condition counts are per execution, not per pass: four
  // passes still report the one condition and its one aggregate.
  EXPECT_NE(rendered->find("gmdj: conditions=1 compiled=1 fallbacks=0"),
            std::string::npos)
      << *rendered;
  EXPECT_NE(rendered->find("typed_aggs=1/1"), std::string::npos) << *rendered;
}

TEST(SpillExecTest, SpillEventInTracer) {
  OlapEngine engine;
  PopulateTables(engine.catalog(), 200, 100);
  engine.EnableSpill(ForcedSpillConfig("trace", 2));
  ASSERT_TRUE(engine.Execute(ExistsQuery(), Strategy::kGmdjOptimized).ok());
  const std::string dump = engine.tracer()->Dump();
  EXPECT_NE(dump.find("spill"), std::string::npos) << dump;
}

}  // namespace
}  // namespace gmdj
