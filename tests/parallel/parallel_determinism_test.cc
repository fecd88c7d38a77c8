// Determinism of the morsel-parallel GMDJ evaluator: for any thread
// count, morsel size, and morsel dispatch order, the output row multiset
// must be identical to the sequential evaluator's.
//
// Aggregate inputs are integers (or integer-valued doubles, whose sums
// are exact in double arithmetic), so "identical" here means bitwise row
// equality — there is no reassociation rounding to hide behind.

#include <cmath>
#include <string>
#include <vector>

#include "core/gmdj.h"
#include "engine/olap_engine.h"
#include "exec/nodes.h"
#include "expr/expr_builder.h"
#include "gtest/gtest.h"
#include "parallel/exec_config.h"
#include "test_util.h"
#include "workload/ipflow.h"
#include "workload/paper_queries.h"
#include "workload/tpch_gen.h"

namespace gmdj {
namespace {

using testutil::SameRows;

ExecConfig Sequential() {
  ExecConfig config;
  config.num_threads = 1;
  return config;
}

ExecConfig Parallel(size_t threads, size_t morsel_rows, uint64_t seed) {
  ExecConfig config;
  config.num_threads = threads;
  config.morsel_rows = morsel_rows;
  config.min_parallel_rows = 1;
  config.morsel_shuffle_seed = seed;
  return config;
}

/// The sweep every test runs against its sequential reference.
struct ParallelCase {
  size_t threads;
  size_t morsel_rows;
  uint64_t shuffle_seed;
};

std::vector<ParallelCase> Sweep() {
  return {{2, 512, 0}, {4, 512, 0}, {8, 512, 0},
          {4, 512, 7}, {8, 512, 41}, {4, 64, 7}};
}

std::string CaseLabel(const ParallelCase& c) {
  return "threads=" + std::to_string(c.threads) +
         " morsel_rows=" + std::to_string(c.morsel_rows) +
         " shuffle_seed=" + std::to_string(c.shuffle_seed);
}

/// TPC-style engine with o_totalprice rounded to whole dollars so every
/// aggregate over it is exact regardless of accumulation order.
OlapEngine* FigEngine(int64_t customers, int64_t orders) {
  auto* engine = new OlapEngine();
  TpchConfig config;
  config.num_customers = customers;
  config.num_orders = orders;
  config.num_lineitems = 1;
  Table orders_table = GenOrdersTable(config);
  for (size_t r = 0; r < orders_table.num_rows(); ++r) {
    const Value price = orders_table.cell(r, 3);
    if (price.is_null()) continue;
    EXPECT_TRUE(
        orders_table.SetCell(r, 3, Value(std::floor(price.dbl()))).ok());
  }
  engine->catalog()->PutTable("customer", GenCustomerTable(config));
  engine->catalog()->PutTable("orders", std::move(orders_table));
  return engine;
}

void ExpectParallelMatchesSequential(OlapEngine* engine,
                                     const NestedSelect& query,
                                     Strategy strategy,
                                     const std::string& context) {
  engine->set_exec_config(Sequential());
  const Result<Table> reference = engine->Execute(query, strategy);
  ASSERT_TRUE(reference.ok()) << context << ": " << reference.status().ToString();
  EXPECT_EQ(engine->last_stats().morsels, 0u)
      << context << ": sequential run must not dispatch morsels";

  for (const ParallelCase& c : Sweep()) {
    const std::string label = context + " [" + CaseLabel(c) + "]";
    engine->set_exec_config(Parallel(c.threads, c.morsel_rows,
                                     c.shuffle_seed));
    const Result<Table> result = engine->Execute(query, strategy);
    ASSERT_TRUE(result.ok()) << label << ": " << result.status().ToString();
    EXPECT_TRUE(SameRows(*result, *reference)) << label;
  }
  engine->set_exec_config(ExecConfig());
}

// ---- Figure 2–5 query shapes, plain and completion-enabled. ----

TEST(ParallelDeterminismTest, Fig2ExistsMatchesSequential) {
  OlapEngine* engine = FigEngine(150, 12'000);
  const NestedSelect query = Fig2ExistsQuery();
  ExpectParallelMatchesSequential(engine, query, Strategy::kGmdj, "fig2");
  ExpectParallelMatchesSequential(engine, query, Strategy::kGmdjOptimized,
                                  "fig2-optimized");
  delete engine;
}

TEST(ParallelDeterminismTest, Fig2OptimizedCompletionRunsParallel) {
  // Satisfy-on-match freezing is count(*)-only here, so the optimized
  // plan must stay on the morsel path (not fall back to sequential).
  OlapEngine* engine = FigEngine(150, 12'000);
  engine->set_exec_config(Parallel(4, 512, 0));
  const Result<Table> result =
      engine->Execute(Fig2ExistsQuery(), Strategy::kGmdjOptimized);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(engine->last_stats().morsels, 0u);
  delete engine;
}

TEST(ParallelDeterminismTest, Fig3AggCompareMatchesSequential) {
  OlapEngine* engine = FigEngine(150, 12'000);
  const NestedSelect query = Fig3AggCompareQuery();
  ExpectParallelMatchesSequential(engine, query, Strategy::kGmdj, "fig3");
  ExpectParallelMatchesSequential(engine, query, Strategy::kGmdjOptimized,
                                  "fig3-optimized");
  delete engine;
}

TEST(ParallelDeterminismTest, Fig4AllQuantifierMatchesSequential) {
  // Scan-dispatched <> correlation: smaller tables keep the |B|·|R| work
  // test-sized. The optimized plan fuses the ALL pair with discard
  // completion; correctness must hold whether it parallelizes or falls
  // back to the sequential path.
  OlapEngine* engine = FigEngine(60, 9'000);
  const NestedSelect query = Fig4AllQuery();
  ExpectParallelMatchesSequential(engine, query, Strategy::kGmdj, "fig4");
  ExpectParallelMatchesSequential(engine, query, Strategy::kGmdjOptimized,
                                  "fig4-optimized");
  delete engine;
}

TEST(ParallelDeterminismTest, Fig5TreeExistsMatchesSequential) {
  OlapEngine* engine = FigEngine(150, 12'000);
  const NestedSelect query = Fig5TreeExistsQuery();
  ExpectParallelMatchesSequential(engine, query, Strategy::kGmdj, "fig5");
  ExpectParallelMatchesSequential(engine, query, Strategy::kGmdjOptimized,
                                  "fig5-optimized");
  delete engine;
}

// ---- GMDJ node level: NULL-bearing detail tuples, all agg kinds. ----

class ParallelGmdjNodeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    IpFlowConfig config;
    config.num_flows = 12'000;
    config.null_bytes_fraction = 0.3;  // NULLs in the aggregated column.
    catalog_.PutTable("Flow", GenFlowTable(config));
    catalog_.PutTable("Hours", GenHoursTable(config));
    catalog_.PutTable("User", GenUserTable(config));
  }

  static std::vector<AggSpec> AllAggs() {
    std::vector<AggSpec> aggs;
    aggs.push_back(CountStar("cnt"));
    aggs.push_back(CountOf(Col("F.NumBytes"), "cntb"));
    aggs.push_back(SumOf(Col("F.NumBytes"), "sumb"));
    aggs.push_back(MinOf(Col("F.NumBytes"), "minb"));
    aggs.push_back(MaxOf(Col("F.NumBytes"), "maxb"));
    aggs.push_back(AvgOf(Col("F.NumBytes"), "avgb"));
    return aggs;
  }

  Table Run(const char* base, ExprPtr theta, const ExecConfig& config,
            ExecStats* stats = nullptr) {
    std::vector<GmdjCondition> conds;
    conds.emplace_back(std::move(theta), AllAggs());
    GmdjNode node(std::make_unique<TableScanNode>(base, "H"),
                  std::make_unique<TableScanNode>("Flow", "F"),
                  std::move(conds));
    EXPECT_TRUE(node.Prepare(catalog_).ok());
    ExecContext ctx(&catalog_, config);
    Result<Table> result = node.Execute(&ctx);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    if (stats != nullptr) *stats = ctx.stats();
    return std::move(*result);
  }

  /// Interval-dispatched θ: flows starting within the hour bucket.
  static ExprPtr IntervalTheta() {
    return And(Ge(Col("F.StartTime"), Col("H.StartInterval")),
               Lt(Col("F.StartTime"), Col("H.EndInterval")));
  }

  Catalog catalog_;
};

TEST_F(ParallelGmdjNodeTest, NullBearingDetailIntervalDispatch) {
  const Table reference = Run("Hours", IntervalTheta(), Sequential());
  for (const ParallelCase& c : Sweep()) {
    ExecStats stats;
    const Table result = Run("Hours", IntervalTheta(),
                             Parallel(c.threads, c.morsel_rows,
                                      c.shuffle_seed),
                             &stats);
    EXPECT_TRUE(SameRows(result, reference)) << CaseLabel(c);
    EXPECT_GT(stats.morsels, 0u) << CaseLabel(c);
  }
}

TEST_F(ParallelGmdjNodeTest, NullBearingDetailHashDispatch) {
  ExprPtr theta = Eq(Col("H.IPAddress"), Col("F.SourceIP"));
  const Table reference = Run("User", theta->Clone(), Sequential());
  for (const ParallelCase& c : Sweep()) {
    const Table result = Run("User", theta->Clone(),
                             Parallel(c.threads, c.morsel_rows,
                                      c.shuffle_seed));
    EXPECT_TRUE(SameRows(result, reference)) << CaseLabel(c);
  }
}

TEST_F(ParallelGmdjNodeTest, SlotPathOverUniqueAndDuplicatedKeys) {
  // User names are unique keys: the binding group scatters over its slot
  // vector (a masked member too). Every user listed twice makes the keys
  // duplicated and the same conditions walk candidate spans. Either way
  // every thread count and morsel order gives the sequential rows, and
  // the duplicated base's rows are the unique base's, each twice.
  const auto run = [&](const char* base, const ExecConfig& config) {
    std::vector<GmdjCondition> conds;
    conds.emplace_back(Eq(Col("H.IPAddress"), Col("F.SourceIP")), AllAggs());
    std::vector<AggSpec> masked;
    masked.push_back(CountStar("big"));
    masked.push_back(SumOf(Col("F.NumBytes"), "bigb"));
    conds.emplace_back(And(Eq(Col("H.IPAddress"), Col("F.SourceIP")),
                           Gt(Col("F.NumBytes"), Lit(int64_t{5000}))),
                       std::move(masked));
    GmdjNode node(std::make_unique<TableScanNode>(base, "H"),
                  std::make_unique<TableScanNode>("Flow", "F"),
                  std::move(conds));
    EXPECT_TRUE(node.Prepare(catalog_).ok());
    ExecContext ctx(&catalog_, config);
    Result<Table> result = node.Execute(&ctx);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return std::move(*result);
  };
  const Table& users = **catalog_.GetTable("User");
  std::vector<uint32_t> twice;
  for (uint32_t r = 0; r < users.num_rows(); ++r) twice.push_back(r);
  for (uint32_t r = 0; r < users.num_rows(); ++r) twice.push_back(r);
  catalog_.PutTable("UserTwice", users.Gather(twice));

  const Table unique = run("User", Sequential());
  const Table duplicated = run("UserTwice", Sequential());
  const Table doubled = unique.Gather(twice);
  EXPECT_TRUE(SameRows(duplicated, doubled));
  for (const ParallelCase& c : Sweep()) {
    const ExecConfig config =
        Parallel(c.threads, c.morsel_rows, c.shuffle_seed);
    EXPECT_TRUE(SameRows(run("User", config), unique)) << CaseLabel(c);
    EXPECT_TRUE(SameRows(run("UserTwice", config), duplicated))
        << CaseLabel(c);
  }
}

TEST_F(ParallelGmdjNodeTest, MorselTraceCoversEveryDetailRow) {
  std::vector<MorselTiming> trace;
  ExecConfig config = Parallel(4, 512, 0);
  config.morsel_trace = &trace;
  Run("Hours", IntervalTheta(), config);

  const size_t detail_rows = (*catalog_.GetTable("Flow"))->num_rows();
  ASSERT_EQ(trace.size(), (detail_rows + 511) / 512);
  uint64_t covered = 0;
  uint64_t next_row = 0;
  for (const MorselTiming& m : trace) {
    EXPECT_EQ(m.first_row, next_row);  // Sorted, contiguous, no overlap.
    EXPECT_LE(m.num_rows, 512u);
    EXPECT_LT(m.worker, 4u);
    next_row = m.first_row + m.num_rows;
    covered += m.num_rows;
  }
  EXPECT_EQ(covered, detail_rows);
}

}  // namespace
}  // namespace gmdj
