// A batch of queries run one by one under `gmdj` with the aggregate cache
// must be row-identical (values AND order) to running each query under
// `gmdj-optimized` without a cache. `gmdj` translates without base-tuple
// completion, so its GMDJs probe and store the cache; these tests pin that
// the observable results are nonetheless exactly the uncached ones —
// including on NULL-bearing data and on completion-eligible (ALL /
// NOT EXISTS) plans.

#include <vector>

#include "engine/olap_engine.h"
#include "expr/expr_builder.h"
#include "gtest/gtest.h"
#include "nested/nested_builder.h"
#include "test_util.h"
#include "workload/paper_queries.h"
#include "workload/tpch_gen.h"

namespace gmdj {
namespace {

using testutil::MakeTable;

/// Exact comparison: same rows in the same order (stricter than the
/// multiset SameRows — cached aggregate columns must not permute output).
void ExpectExactRows(const Table& actual, const Table& expected,
                     const std::string& context) {
  ASSERT_EQ(actual.num_rows(), expected.num_rows()) << context;
  for (size_t r = 0; r < expected.num_rows(); ++r) {
    const Row& got = actual.row(r);
    const Row& want = expected.row(r);
    ASSERT_EQ(got.size(), want.size()) << context << " row " << r;
    for (size_t c = 0; c < want.size(); ++c) {
      EXPECT_EQ(got[c], want[c]) << context << " row " << r << " col " << c;
    }
  }
}

/// Runs `queries` without a cache under `gmdj-optimized` for reference,
/// then one by one under `gmdj` with the cache enabled — two rounds, so
/// the second is served from a warm cache — asserting every result
/// matches exactly. `first` and `second` receive each round's summed
/// stats.
void ExpectCachedMatchesUncached(
    OlapEngine* engine, const std::vector<const NestedSelect*>& queries,
    const std::string& context, ExecStats* first = nullptr,
    ExecStats* second = nullptr) {
  engine->DisableAggCache();
  std::vector<Table> reference;
  for (const NestedSelect* query : queries) {
    Result<Table> result = engine->Execute(*query, Strategy::kGmdjOptimized);
    ASSERT_TRUE(result.ok()) << context << ": " << result.status().message();
    reference.push_back(std::move(*result));
  }

  engine->EnableAggCache();
  for (int round = 0; round < 2; ++round) {
    ExecStats totals;
    const std::vector<Result<Table>> results =
        testutil::RunThroughCache(engine, queries, &totals);
    for (size_t q = 0; q < queries.size(); ++q) {
      ASSERT_TRUE(results[q].ok()) << context << " query " << q << ": "
                                   << results[q].status().message();
      ExpectExactRows(*results[q], reference[q],
                      context + " query " + std::to_string(q) + " round " +
                          std::to_string(round));
    }
    if (round == 0 && first != nullptr) *first = totals;
    if (round == 1 && second != nullptr) *second = totals;
  }
  engine->DisableAggCache();
}

class BatchDeterminismTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TpchConfig config;
    config.num_customers = 60;
    config.num_orders = 900;
    config.num_lineitems = 1;
    engine_.catalog()->PutTable("customer", GenCustomerTable(config));
    engine_.catalog()->PutTable("orders", GenOrdersTable(config));
    // Single-threaded: floating-point aggregation order is then identical
    // between the cached and uncached runs, so comparison can be exact.
    ExecConfig exec;
    exec.num_threads = 1;
    engine_.set_exec_config(exec);
  }

  OlapEngine engine_;
};

TEST_F(BatchDeterminismTest, PaperMixMatchesSequential) {
  const NestedSelect fig2 = Fig2ExistsQuery();
  const NestedSelect fig3 = Fig3AggCompareQuery();
  const NestedSelect fig2_again = Fig2ExistsQuery();  // Identical work.
  const std::vector<const NestedSelect*> mix = {&fig2, &fig3, &fig2_again};

  ExecStats first, second;
  ExpectCachedMatchesUncached(&engine_, mix, "paper mix", &first, &second);

  // The warm round answers its GMDJs from the cache: several hits, and
  // the detail relation is no longer scanned per query.
  EXPECT_GE(second.cache_hits, 2u);
  EXPECT_LT(second.rows_scanned, first.rows_scanned);
}

TEST_F(BatchDeterminismTest, CompletionEligiblePlansMatch) {
  // Fig-4 (ALL quantifier) and NOT EXISTS translate with base-tuple
  // completion under kGmdjOptimized; the cached `gmdj` runs have no
  // completion and must still produce identical rows.
  const NestedSelect fig4 = Fig4AllQuery();
  const NestedSelect fig5 = Fig5TreeExistsQuery();
  const std::vector<const NestedSelect*> mix = {&fig4, &fig5};
  ExpectCachedMatchesUncached(&engine_, mix, "completion-eligible mix");
}

TEST_F(BatchDeterminismTest, RepeatedIdenticalQueriesShareOneEvaluation) {
  const NestedSelect fig2 = Fig2ExistsQuery();
  const NestedSelect fig2_b = Fig2ExistsQuery();
  const NestedSelect fig2_c = Fig2ExistsQuery();
  const std::vector<const NestedSelect*> mix = {&fig2, &fig2_b, &fig2_c};

  ExecStats first;
  ExpectCachedMatchesUncached(&engine_, mix, "triplicate fig2", &first);
  // Within the very first round, the aggregates the first query stored
  // already serve the other two: at least two of the three queries hit.
  EXPECT_GE(first.cache_hits, 2u);
}

class NullDataBatchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    engine_.catalog()->PutTable(
        "b", MakeTable({"bk", "t:d"},
                       {{1, 5.0}, {2, 0.5}, {3, Value::Null()}, {4, 2.0}}));
    engine_.catalog()->PutTable(
        "d", MakeTable({"dk", "v:d"},
                       {{1, 1.0},
                        {1, Value::Null()},
                        {2, 3.0},
                        {Value::Null(), 4.0},
                        {4, Value::Null()}}));
    ExecConfig exec;
    exec.num_threads = 1;
    engine_.set_exec_config(exec);
  }

  OlapEngine engine_;
};

TEST_F(NullDataBatchTest, NullBearingPlansMatchSequential) {
  // Correlated EXISTS whose inner predicate can evaluate to UNKNOWN.
  NestedSelect exists;
  exists.source = From("b", "B");
  exists.where = Exists(
      Sub(From("d", "D"), WherePred(And(Eq(Col("B.bk"), Col("D.dk")),
                                        Gt(Col("D.v"), Lit(0.0))))));

  // Aggregate comparison where empty groups yield a NULL average and
  // NULL-valued `t` makes the outer comparison UNKNOWN.
  NestedSelect agg_cmp;
  agg_cmp.source = From("b", "B");
  agg_cmp.where = CompareSub(
      Col("B.t"), CompareOp::kGt,
      SubAgg(From("d", "D"), AvgOf(Col("D.v"), "avg_v"),
             WherePred(Eq(Col("D.dk"), Col("B.bk")))));

  // NOT IN over a detail column that contains NULL: the classic
  // three-valued-logic trap (no base row may qualify via completion
  // shortcuts).
  NestedSelect not_in;
  not_in.source = From("b", "B");
  not_in.where = NotInSub(Col("B.bk"), SubSelect(From("d", "D"),
                                                 Col("D.dk"), nullptr));

  const std::vector<const NestedSelect*> mix = {&exists, &agg_cmp, &not_in};
  ExpectCachedMatchesUncached(&engine_, mix, "null-bearing mix");
}

}  // namespace
}  // namespace gmdj
