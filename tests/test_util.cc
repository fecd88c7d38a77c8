#include "test_util.h"

#include "common/str_util.h"
#include "planner/query_shape.h"

namespace gmdj {
namespace testutil {

Table MakeTable(const std::vector<std::string>& field_specs,
                const std::vector<Row>& rows) {
  Schema schema;
  for (const std::string& spec : field_specs) {
    const std::vector<std::string> parts = Split(spec, ':');
    ValueType type = ValueType::kInt64;
    if (parts.size() > 1) {
      if (parts[1] == "d") type = ValueType::kDouble;
      if (parts[1] == "s") type = ValueType::kString;
    }
    // "Q.name" field specs carry a qualifier.
    const std::vector<std::string> name_parts = Split(parts[0], '.');
    if (name_parts.size() == 2) {
      schema.AddField(Field{name_parts[1], type, name_parts[0]});
    } else {
      schema.AddField(Field{parts[0], type, ""});
    }
  }
  Table out(schema);
  const Status status = out.AppendRows(rows);
  EXPECT_TRUE(status.ok()) << status.ToString();
  return out;
}

Table RunPlan(PlanNode* plan, const Catalog& catalog, ExecStats* stats) {
  const Status prep = plan->Prepare(catalog);
  EXPECT_TRUE(prep.ok()) << prep.ToString();
  ExecContext ctx(&catalog);
  Result<Table> result = plan->Execute(&ctx);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  if (stats != nullptr) *stats = ctx.stats();
  return std::move(*result);
}

::testing::AssertionResult SameRows(const Table& actual,
                                    const Table& expected) {
  if (actual.SameRowsAs(expected)) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << "tables differ.\nactual (" << actual.num_rows() << " rows):\n"
         << actual.ToString(20) << "expected (" << expected.num_rows()
         << " rows):\n"
         << expected.ToString(20);
}

Table PaperHoursTable() {
  return MakeTable({"HourDescription", "StartInterval", "EndInterval"},
                   {{1, 0, 60}, {2, 61, 120}, {3, 121, 180}});
}

Table PaperFlowTable() {
  // Figure 1 of the paper: StartTime, Protocol, NumBytes (plus the other
  // warehouse attributes filled in consistently).
  return MakeTable(
      {"SourceIP:s", "DestIP:s", "Protocol:s", "StartTime", "NumBytes"},
      {
          {"10.0.0.1", "167.167.167.0", "HTTP", 43, 12},
          {"10.0.0.2", "167.167.168.0", "HTTP", 86, 36},
          {"10.0.0.1", "167.167.167.0", "FTP", 99, 48},
          {"10.0.0.3", "167.167.169.0", "HTTP", 132, 24},
          {"10.0.0.2", "167.167.167.0", "HTTP", 156, 24},
          {"10.0.0.1", "167.167.168.0", "FTP", 161, 48},
      });
}

void LoadPaperTables(OlapEngine* engine) {
  engine->catalog()->PutTable("Hours", PaperHoursTable());
  engine->catalog()->PutTable("Flow", PaperFlowTable());
  engine->catalog()->PutTable(
      "User", MakeTable({"UserName:s", "IPAddress:s"},
                        {{"alice", "10.0.0.1"},
                         {"bob", "10.0.0.2"},
                         {"carol", "10.0.0.9"}}));
}

Table ExpectAllStrategiesAgree(OlapEngine* engine, const NestedSelect& query,
                               const std::string& context) {
  Result<Table> reference = engine->Execute(query, Strategy::kNativeNaive);
  EXPECT_TRUE(reference.ok())
      << context << ": native-naive failed: " << reference.status().ToString();
  if (!reference.ok()) return Table();
  for (const Strategy strategy : AllStrategies()) {
    if (strategy == Strategy::kNativeNaive) continue;
    Result<Table> result = engine->Execute(query, strategy);
    if (!result.ok() &&
        result.status().code() == StatusCode::kUnimplemented) {
      continue;  // Outside the strategy's supported fragment (documented).
    }
    EXPECT_TRUE(result.ok()) << context << ": " << StrategyToString(strategy)
                             << " failed: " << result.status().ToString();
    if (!result.ok()) continue;
    EXPECT_TRUE(SameRows(*result, *reference))
        << context << ": " << StrategyToString(strategy)
        << " disagrees with native-naive\nquery: " << query.ToString();
  }
  return std::move(*reference);
}

std::vector<Result<Table>> RunThroughCache(
    OlapEngine* engine, const std::vector<const NestedSelect*>& queries,
    ExecStats* stats) {
  std::vector<Result<Table>> results;
  results.reserve(queries.size());
  for (const NestedSelect* query : queries) {
    QueryRun run;
    results.push_back(
        engine->Execute(*query, Strategy::kGmdj, SessionLimits(), &run));
    if (stats != nullptr) stats->Add(run.stats);
  }
  return results;
}

Result<std::vector<StrategyCostEstimate>> StatFreeEstimates(
    const Catalog& catalog, const NestedSelect& query) {
  std::unique_ptr<NestedSelect> bound = query.Clone();
  GMDJ_RETURN_IF_ERROR(bound->Bind(catalog, {}));
  planner::ShapeCollector collector(&catalog, /*stats=*/nullptr);
  GMDJ_ASSIGN_OR_RETURN(const planner::QueryShape shape,
                        collector.Collect(*bound));
  return planner::EstimateStrategies(shape);
}

}  // namespace testutil
}  // namespace gmdj
