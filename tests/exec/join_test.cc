#include "exec/join.h"

#include <functional>
#include <string>

#include "exec/nodes.h"
#include "expr/expr_builder.h"
#include "governance/query_context.h"
#include "gtest/gtest.h"
#include "spill/spill_manager.h"
#include "test_util.h"

namespace gmdj {
namespace {

using testutil::MakeTable;
using testutil::RunPlan;
using testutil::SameRows;

class JoinTest : public ::testing::Test {
 protected:
  void SetUp() override {
    catalog_.PutTable("L", MakeTable({"L.k", "L.v:s"},
                                     {{1, "a"}, {2, "b"}, {3, "c"},
                                      {Value::Null(), "n"}}));
    catalog_.PutTable("R", MakeTable({"R.k", "R.w"},
                                     {{1, 10}, {1, 11}, {3, 30},
                                      {Value::Null(), 99}, {4, 40}}));
  }

  PlanPtr Scan(const char* name) {
    return std::make_unique<TableScanNode>(name);
  }

  std::vector<JoinKey> KeyOnK() {
    std::vector<JoinKey> keys;
    keys.emplace_back(Col("L.k"), Col("R.k"));
    return keys;
  }

  Catalog catalog_;
};

TEST_F(JoinTest, HashInnerJoin) {
  HashJoinNode join(Scan("L"), Scan("R"), JoinKind::kInner, KeyOnK());
  const Table out = RunPlan(&join, catalog_);
  EXPECT_TRUE(SameRows(out, MakeTable({"k", "v:s", "k2", "w"},
                                      {{1, "a", 1, 10},
                                       {1, "a", 1, 11},
                                       {3, "c", 3, 30}})));
}

TEST_F(JoinTest, HashLeftOuterJoinPadsNulls) {
  HashJoinNode join(Scan("L"), Scan("R"), JoinKind::kLeftOuter, KeyOnK());
  const Table out = RunPlan(&join, catalog_);
  EXPECT_TRUE(SameRows(
      out,
      MakeTable({"k", "v:s", "k2", "w"},
                {{1, "a", 1, 10},
                 {1, "a", 1, 11},
                 {2, "b", Value::Null(), Value::Null()},
                 {3, "c", 3, 30},
                 {Value::Null(), "n", Value::Null(), Value::Null()}})));
}

TEST_F(JoinTest, HashSemiAndAntiArePartition) {
  HashJoinNode semi(Scan("L"), Scan("R"), JoinKind::kSemi, KeyOnK());
  const Table semi_out = RunPlan(&semi, catalog_);
  EXPECT_TRUE(SameRows(semi_out,
                       MakeTable({"k", "v:s"}, {{1, "a"}, {3, "c"}})));

  HashJoinNode anti(Scan("L"), Scan("R"), JoinKind::kAnti, KeyOnK());
  const Table anti_out = RunPlan(&anti, catalog_);
  // NULL key never matches -> kept by anti join.
  EXPECT_TRUE(SameRows(
      anti_out,
      MakeTable({"k", "v:s"}, {{2, "b"}, {Value::Null(), "n"}})));
}

TEST_F(JoinTest, HashJoinResidualPredicate) {
  std::vector<JoinKey> keys;
  keys.emplace_back(Col("L.k"), Col("R.k"));
  HashJoinNode join(Scan("L"), Scan("R"), JoinKind::kInner, std::move(keys),
                    Gt(Col("R.w"), Lit(10)));
  const Table out = RunPlan(&join, catalog_);
  EXPECT_TRUE(SameRows(out, MakeTable({"k", "v:s", "k2", "w"},
                                      {{1, "a", 1, 11}, {3, "c", 3, 30}})));
}

TEST_F(JoinTest, HashJoinExpressionKeys) {
  // Join on k+1 = w/10: exercises non-column key expressions.
  std::vector<JoinKey> keys;
  keys.emplace_back(Mul(Col("L.k"), Lit(10)), Col("R.w"));
  HashJoinNode join(Scan("L"), Scan("R"), JoinKind::kSemi, std::move(keys));
  const Table out = RunPlan(&join, catalog_);
  EXPECT_TRUE(SameRows(out, MakeTable({"k", "v:s"}, {{1, "a"}, {3, "c"}})));
}

TEST_F(JoinTest, NLInnerJoinNonEqui) {
  NLJoinNode join(Scan("L"), Scan("R"), JoinKind::kInner,
                  Gt(Col("L.k"), Col("R.k")));
  const Table out = RunPlan(&join, catalog_);
  EXPECT_TRUE(SameRows(out, MakeTable({"k", "v:s", "k2", "w"},
                                      {{2, "b", 1, 10},
                                       {2, "b", 1, 11},
                                       {3, "c", 1, 10},
                                       {3, "c", 1, 11}})));
}

TEST_F(JoinTest, NLSemiAntiOuter) {
  NLJoinNode semi(Scan("L"), Scan("R"), JoinKind::kSemi,
                  Eq(Col("L.k"), Col("R.k")));
  EXPECT_TRUE(SameRows(RunPlan(&semi, catalog_),
                       MakeTable({"k", "v:s"}, {{1, "a"}, {3, "c"}})));

  NLJoinNode anti(Scan("L"), Scan("R"), JoinKind::kAnti,
                  Eq(Col("L.k"), Col("R.k")));
  EXPECT_TRUE(SameRows(RunPlan(&anti, catalog_),
                       MakeTable({"k", "v:s"},
                                 {{2, "b"}, {Value::Null(), "n"}})));

  NLJoinNode louter(Scan("L"), Scan("R"), JoinKind::kLeftOuter,
                    Eq(Col("L.k"), Col("R.k")));
  EXPECT_EQ(RunPlan(&louter, catalog_).num_rows(), 5u);
}

TEST_F(JoinTest, NLCrossJoinWithNullPredicate) {
  NLJoinNode cross(Scan("L"), Scan("R"), JoinKind::kInner, nullptr);
  EXPECT_EQ(RunPlan(&cross, catalog_).num_rows(), 20u);
}

TEST_F(JoinTest, AntiJoinWithIsNotTrueModelsAllQuantifier) {
  // L.k <> ALL (R.k): keep L rows where no R row has k equal... i.e. the
  // NOT IN pattern: the NULL R.k makes the comparison UNKNOWN for every
  // outer row, so NOTHING qualifies (classic NOT IN + NULL trap).
  NLJoinNode anti(Scan("L"), Scan("R"), JoinKind::kAnti,
                  IsNotTrue(Ne(Col("L.k"), Col("R.k"))));
  const Table out = RunPlan(&anti, catalog_);
  EXPECT_EQ(out.num_rows(), 0u);
}

TEST_F(JoinTest, HashAndNLAgreeOnEquiJoins) {
  for (const JoinKind kind : {JoinKind::kInner, JoinKind::kLeftOuter,
                              JoinKind::kSemi, JoinKind::kAnti}) {
    HashJoinNode hash(Scan("L"), Scan("R"), kind, KeyOnK());
    NLJoinNode nl(Scan("L"), Scan("R"), kind, Eq(Col("L.k"), Col("R.k")));
    EXPECT_TRUE(SameRows(RunPlan(&hash, catalog_), RunPlan(&nl, catalog_)))
        << "kind=" << JoinKindToString(kind);
  }
}

TEST_F(JoinTest, JoinStatsCounted) {
  ExecStats stats;
  HashJoinNode join(Scan("L"), Scan("R"), JoinKind::kInner, KeyOnK());
  RunPlan(&join, catalog_, &stats);
  EXPECT_EQ(stats.joins, 1u);
  EXPECT_GT(stats.hash_probes, 0u);
}

// ------------------------------------------------- spilled build ranges

/// A join over larger inputs, run resident and then spilled: forced into
/// 2, 3 and |build| build ranges, and split by a memory budget below the
/// whole build table. Every spilled run must reproduce the resident rows
/// in the resident order.
class SpilledJoinTest : public ::testing::Test {
 protected:
  static constexpr size_t kBuildRows = 40;

  void SetUp() override {
    // L.k in 0..10 with NULLs (unmatched rows and NULL keys for the
    // outer join); R.k in 0..14 with NULLs and duplicates.
    Table l = MakeTable({"L.k", "L.v:s"}, {});
    for (int i = 0; i < 60; ++i) {
      ASSERT_TRUE(l.AppendRow({i % 13 == 0 ? Value::Null() : Value(i % 11),
                               Value(std::to_string(i))})
                      .ok());
    }
    catalog_.PutTable("L", std::move(l));
    Table r = MakeTable({"R.k", "R.w"}, {});
    for (int i = 0; i < static_cast<int>(kBuildRows); ++i) {
      ASSERT_TRUE(r.AppendRow({i % 9 == 0 ? Value::Null() : Value(i * 7 % 15),
                               Value(i)})
                      .ok());
    }
    catalog_.PutTable("R", std::move(r));
  }

  /// Runs a fresh plan from `make` with a spill scope forcing
  /// `partitions` build ranges under a `budget`-byte cap (0 = none).
  Table RunSpilled(const std::function<PlanPtr()>& make, size_t partitions,
                   size_t budget, ExecStats* stats) {
    spill::SpillConfig config;
    // One root per test: ctest runs the tests as concurrent processes.
    const ::testing::TestInfo* test =
        ::testing::UnitTest::GetInstance()->current_test_info();
    config.dir = ::testing::TempDir() + "/gmdj_join_spill_test_" +
                 test->name();
    config.block_rows = 8;  // Multi-block pair files.
    config.min_spill_partitions = partitions;
    spill::SpillManager manager(config);
    std::unique_ptr<spill::SpillScope> scope = manager.CreateScope("join");
    QueryLimits limits;
    limits.mem_budget_bytes = budget;
    QueryContext query(limits, nullptr);
    ExecContext ctx(&catalog_);
    ctx.set_spill(scope.get());
    ctx.set_query_ctx(&query);
    PlanPtr plan = make();
    EXPECT_TRUE(plan->Prepare(catalog_).ok());
    Result<Table> out = plan->Execute(&ctx);
    EXPECT_TRUE(out.ok()) << out.status().ToString();
    *stats = ctx.stats();
    return out.ok() ? std::move(out).ValueOrDie() : Table();
  }

  void ExpectSpilledMatchesResident(const std::function<PlanPtr()>& make,
                                    bool emits_pairs) {
    PlanPtr resident_plan = make();
    const Table resident = RunPlan(resident_plan.get(), catalog_);
    ASSERT_GT(resident.num_rows(), 0u);
    struct Run {
      size_t partitions;
      size_t budget;
    };
    // One build row costs a Row plus a slot in the reservation: a third
    // of the table's charge forces at least three ranges.
    const size_t budget = kBuildRows * (sizeof(Row) + sizeof(uint32_t)) / 3;
    for (const Run run : {Run{2, 0}, Run{3, 0}, Run{kBuildRows, 0},
                          Run{1, budget}}) {
      const std::string context =
          "partitions=" + std::to_string(run.partitions) +
          " budget=" + std::to_string(run.budget);
      ExecStats stats;
      const Table spilled = RunSpilled(make, run.partitions, run.budget,
                                       &stats);
      EXPECT_GT(stats.spill_passes, 1u) << context;
      if (emits_pairs) {
        EXPECT_GT(stats.spill_bytes_written, 0u) << context;
      }
      ASSERT_EQ(spilled.num_rows(), resident.num_rows()) << context;
      for (size_t i = 0; i < resident.num_rows(); ++i) {
        EXPECT_TRUE(spilled.row(i) == resident.row(i))
            << context << " row " << i;
      }
    }
  }

  PlanPtr Join(JoinKind kind, ExprPtr left_key, ExprPtr right_key,
               ExprPtr residual = nullptr) {
    std::vector<JoinKey> keys;
    keys.emplace_back(std::move(left_key), std::move(right_key));
    return std::make_unique<HashJoinNode>(
        std::make_unique<TableScanNode>("L"),
        std::make_unique<TableScanNode>("R"), kind, std::move(keys),
        std::move(residual));
  }

  Catalog catalog_;
};

TEST_F(SpilledJoinTest, InnerJoin) {
  ExpectSpilledMatchesResident(
      [&] { return Join(JoinKind::kInner, Col("L.k"), Col("R.k")); }, true);
}

TEST_F(SpilledJoinTest, LeftOuterJoinPadsUnmatchedAndNullKeys) {
  ExpectSpilledMatchesResident(
      [&] { return Join(JoinKind::kLeftOuter, Col("L.k"), Col("R.k")); },
      true);
}

TEST_F(SpilledJoinTest, SemiJoin) {
  ExpectSpilledMatchesResident(
      [&] { return Join(JoinKind::kSemi, Col("L.k"), Col("R.k")); }, false);
}

TEST_F(SpilledJoinTest, AntiJoin) {
  ExpectSpilledMatchesResident(
      [&] { return Join(JoinKind::kAnti, Col("L.k"), Col("R.k")); }, false);
}

TEST_F(SpilledJoinTest, LeftOuterJoinWithResidual) {
  ExpectSpilledMatchesResident(
      [&] {
        return Join(JoinKind::kLeftOuter, Col("L.k"), Col("R.k"),
                    Gt(Col("R.w"), Lit(12)));
      },
      true);
}

TEST_F(SpilledJoinTest, InnerJoinOnExpressionKeys) {
  ExpectSpilledMatchesResident(
      [&] {
        return Join(JoinKind::kInner, Add(Col("L.k"), Lit(3)), Col("R.k"));
      },
      true);
}

}  // namespace
}  // namespace gmdj
