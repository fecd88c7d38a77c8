#ifndef GMDJ_TESTS_TEST_UTIL_H_
#define GMDJ_TESTS_TEST_UTIL_H_

#include <initializer_list>
#include <string>
#include <vector>

#include "engine/olap_engine.h"
#include "exec/plan.h"
#include "gtest/gtest.h"
#include "nested/nested_ast.h"
#include "planner/cost_model.h"
#include "storage/catalog.h"
#include "storage/table.h"

namespace gmdj {
namespace testutil {

/// Builds a table from terse field specs ("name:i", "name:d", "name:s")
/// and rows.
Table MakeTable(const std::vector<std::string>& field_specs,
                const std::vector<Row>& rows);

/// Prepares and executes a plan against `catalog`, asserting success.
Table RunPlan(PlanNode* plan, const Catalog& catalog,
              ExecStats* stats = nullptr);

/// Gtest predicate: both tables hold the same multiset of rows.
::testing::AssertionResult SameRows(const Table& actual,
                                    const Table& expected);

/// The paper's Figure 1 literal tables (Hours with 3 rows, Flow with 6).
Table PaperHoursTable();
Table PaperFlowTable();

/// Loads the Figure 1 tables plus a small User table into an engine's
/// catalog under names "Hours", "Flow", "User".
void LoadPaperTables(OlapEngine* engine);

/// Runs `query` under every strategy in AllStrategies() and asserts all
/// results agree with the native-naive reference. Returns the reference
/// result. `context` labels failures.
Table ExpectAllStrategiesAgree(OlapEngine* engine, const NestedSelect& query,
                               const std::string& context);

/// Runs each of `queries` once, in order, through the governed Execute
/// under `gmdj`, whose GMDJs (no completion) probe and store the engine's
/// MQO cache. `stats`, when given, receives the runs' summed ExecStats.
std::vector<Result<Table>> RunThroughCache(
    OlapEngine* engine, const std::vector<const NestedSelect*>& queries,
    ExecStats* stats = nullptr);

/// The planner's cost model without statistics: binds a clone of `query`
/// against `catalog` and estimates every strategy from catalog row counts
/// alone, cheapest first. Fails when the query does not bind.
Result<std::vector<StrategyCostEstimate>> StatFreeEstimates(
    const Catalog& catalog, const NestedSelect& query);

}  // namespace testutil
}  // namespace gmdj

#endif  // GMDJ_TESTS_TEST_UTIL_H_
