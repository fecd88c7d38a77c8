// Interactive SQL shell over the GMDJ engine — the whole repository in
// one binary: the SQL front end, the cost-based planner, all eight evaluation
// strategies, plan explanation, and CSV export.
//
//   ./build/examples/gmdj_shell              # interactive
//   echo "SELECT * FROM Hours" | ./build/examples/gmdj_shell
//
// Commands:
//   <SQL>                 cost-based planner picks the strategy, runs,
//                         prints rows (ANALYZE <table> collects stats)
//   EXPLAIN [ANALYZE] <SQL>  plan (ANALYZE: run + per-operator stats,
//                         plus the planner's estimate-vs-actual line)
//   \run <strategy> <SQL> force a strategy ("auto" = planner; \strategies)
//   \explain [strategy] <SQL>  show the physical plan
//   \advise <SQL>         the planner's cost estimate for every strategy
//   \metrics              engine metrics snapshot (JSON)
//   \tables, \schema <t>, \export <t> <path>, \help, \quit

#include <cmath>
#include <cstdio>
#include <unistd.h>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>

#include "common/byte_size.h"
#include "engine/olap_engine.h"
#include "sql/parser.h"
#include "storage/csv.h"
#include "workload/warehouse.h"

namespace {

using namespace gmdj;

/// Parse errors carry the byte offset of the offending token; point at
/// it with a caret under the echoed statement.
void PrintParseError(const std::string& sql, const Status& status) {
  std::printf("parse error: %s\n", status.ToString().c_str());
  if (!status.offset().has_value()) return;
  const size_t offset = std::min(*status.offset(), sql.size());
  std::printf("  %s\n  %*s^\n", sql.c_str(), static_cast<int>(offset), "");
}

Strategy StrategyFromName(const std::string& name, bool* ok) {
  // Canonical parser (planner/strategy.h): case-insensitive, and also
  // accepts "auto" — resolve through the cost-based planner.
  const std::optional<Strategy> parsed = gmdj::StrategyFromName(name);
  *ok = parsed.has_value();
  return parsed.value_or(Strategy::kGmdj);
}

void PrintHelp() {
  std::printf(
      "Commands:\n"
      "  <SQL>                      run (cost-based planner picks the\n"
      "                             strategy; prints its rationale)\n"
      "  ANALYZE [table]            collect per-column statistics\n"
      "  EXPLAIN [ANALYZE] <SQL>    plan; ANALYZE runs the statement and\n"
      "                             annotates each operator with rows,\n"
      "                             batches, predicate evals, timings, and\n"
      "                             GMDJ detail (RNG sizes, completion),\n"
      "                             plus estimated vs actual cardinality\n"
      "  \\run <strategy> <SQL>      force a strategy (auto = planner)\n"
      "  \\explain [strategy] <SQL>  show the physical plan\n"
      "  \\advise <SQL>              the planner's per-strategy cost estimates\n"
      "  \\metrics                   engine metrics snapshot (JSON)\n"
      "  \\tables                    list tables\n"
      "  \\schema <table>            show a table's schema\n"
      "  \\export <table> <path>     write a table as CSV\n"
      "  \\strategies                list strategy names\n"
      "  \\limits [deadline_ms] [mem_mb] [threads]\n"
      "                             session governance defaults applied to\n"
      "                             every later statement (0 = unlimited;\n"
      "                             no args: show current)\n"
      "  \\snapshot <dir>            save every catalog table to <dir>\n"
      "                             (also SQL: SAVE SNAPSHOT '<dir>')\n"
      "  \\restore <dir>             replace catalog tables from a snapshot\n"
      "                             (also SQL: RESTORE SNAPSHOT '<dir>')\n"
      "  \\help   \\quit\n"
      "Examples:\n"
      "  SELECT * FROM Hours H WHERE EXISTS (SELECT * FROM Flow F WHERE\n"
      "    F.StartTime >= H.StartInterval AND F.StartTime < "
      "H.EndInterval)\n"
      "  SELECT H.HourDescription, (SELECT SUM(F.NumBytes) FROM Flow F\n"
      "    WHERE F.StartTime >= H.StartInterval AND F.StartTime <\n"
      "    H.EndInterval) AS bytes FROM Hours H\n");
}

void RunSql(OlapEngine* engine, const SessionLimits& limits,
            const std::string& sql) {
  auto parsed = ParseStatement(sql);
  if (!parsed.ok()) {
    PrintParseError(sql, parsed.status());
    return;
  }
  if (parsed->kind != SqlStatement::Kind::kSelect) {
    // SAVE/RESTORE SNAPSHOT, INSERT, and ANALYZE carry no query for the
    // planner; run directly. ANALYZE's stats summary spans several rows.
    QueryRun run;
    const auto result =
        engine->ExecuteSql(sql, Strategy::kGmdjOptimized, limits, &run);
    if (!result.ok()) {
      std::printf("error: %s\n", result.status().ToString().c_str());
    } else {
      for (size_t r = 0; r < result->num_rows(); ++r) {
        if (result->row(r).empty()) continue;
        std::printf("%s\n", result->row(r)[0].ToString().c_str());
      }
      if (result->num_rows() > 0) std::printf("(%.2f ms)\n", run.elapsed_ms);
    }
    return;
  }
  // The cost-based planner picks the strategy; show its choice and the
  // one-line rationale before running. Execution goes through
  // Strategy::kAuto so the planner's hints (threads, condition order,
  // binding/completion placement) and the adaptive feedback loop apply.
  const auto decision = engine->Decide(*parsed->select);
  if (!decision.ok()) {
    std::printf("planner error: %s\n", decision.status().ToString().c_str());
    return;
  }
  if (parsed->explain == SqlStatement::ExplainMode::kNone) {
    // EXPLAIN output already leads with these lines.
    std::printf("%s\n", decision->Summary().c_str());
  }
  QueryRun run;
  const auto result = engine->ExecuteSql(sql, Strategy::kAuto, limits, &run);
  if (!result.ok()) {
    std::printf("error: %s\n", result.status().ToString().c_str());
    return;
  }
  std::printf("%s(%zu rows, %.2f ms, strategy %s)\n",
              result->ToString(25).c_str(), result->num_rows(),
              run.elapsed_ms, StrategyToString(decision->strategy));
}

void RunForced(OlapEngine* engine, const SessionLimits& limits,
               std::istringstream* rest) {
  std::string name;
  *rest >> name;
  bool ok = false;
  const Strategy strategy = StrategyFromName(name, &ok);
  if (!ok) {
    std::printf("unknown strategy '%s' (try \\strategies)\n", name.c_str());
    return;
  }
  std::string sql;
  std::getline(*rest, sql);
  QueryRun run;
  const auto result = engine->ExecuteSql(sql, strategy, limits, &run);
  if (!result.ok()) {
    if (result.status().offset().has_value()) {
      PrintParseError(sql, result.status());
    } else {
      std::printf("error: %s\n", result.status().ToString().c_str());
    }
    return;
  }
  std::printf("%s(%zu rows, %.2f ms)\n", result->ToString(25).c_str(),
              result->num_rows(), run.elapsed_ms);
}

void SetLimits(SessionLimits* limits, std::istringstream* rest) {
  double deadline_ms = -1.0;
  double mem_mb = -1.0;
  int64_t threads = -1;
  *rest >> deadline_ms >> mem_mb >> threads;
  if (deadline_ms >= 0) limits->deadline_ms = deadline_ms;
  if (mem_mb >= 0) {
    limits->mem_budget_bytes =
        static_cast<size_t>(mem_mb * 1024.0 * 1024.0);
  }
  if (threads >= 0) limits->num_threads = static_cast<size_t>(threads);
  std::printf("limits: deadline %.0f ms, memory %zu bytes, threads %zu "
              "(0 = unlimited/default)\n",
              limits->deadline_ms, limits->mem_budget_bytes,
              limits->num_threads);
}

void Explain(OlapEngine* engine, std::istringstream* rest) {
  std::string first;
  *rest >> first;
  bool named = false;
  Strategy strategy = StrategyFromName(first, &named);
  std::string sql;
  std::getline(*rest, sql);
  if (!named) {
    sql = first + sql;
    strategy = Strategy::kGmdjOptimized;
  }
  auto parsed = ParseQuery(sql);
  if (!parsed.ok()) {
    PrintParseError(sql, parsed.status());
    return;
  }
  const auto plan = engine->Explain(**parsed, strategy);
  if (!plan.ok()) {
    std::printf("error: %s\n", plan.status().ToString().c_str());
    return;
  }
  std::printf("%s\n", plan->c_str());
}

void Advise(OlapEngine* engine, const std::string& sql) {
  auto parsed = ParseQuery(sql);
  if (!parsed.ok()) {
    PrintParseError(sql, parsed.status());
    return;
  }
  const auto decision = engine->Decide(**parsed);
  if (!decision.ok()) {
    std::printf("error: %s\n", decision.status().ToString().c_str());
    return;
  }
  if (decision->estimates.empty()) {  // Planner disabled: no cost model.
    std::printf("%s\n", decision->rationale.c_str());
    return;
  }
  std::printf("%-22s %14s  %s\n", "strategy", "est. row-ops", "rationale");
  for (const auto& e : decision->estimates) {
    if (std::isinf(e.cost)) {
      std::printf("%-22s %14s  %s\n", StrategyToString(e.strategy),
                  "unsupported", e.rationale.c_str());
    } else {
      std::printf("%-22s %14.0f  %s\n", StrategyToString(e.strategy), e.cost,
                  e.rationale.c_str());
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  OlapEngine engine;
  // Flags: --spill-dir=DIR [--spill-max-bytes=N|512mb] enable disk spill
  // for over-budget queries (see \limits for the budget itself).
  spill::SpillConfig spill_config;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto flag_value = [&arg](const char* name) -> std::string {
      const std::string prefix = std::string("--") + name + "=";
      return arg.rfind(prefix, 0) == 0 ? arg.substr(prefix.size())
                                       : std::string();
    };
    if (std::string v = flag_value("spill-dir"); !v.empty()) {
      spill_config.dir = v;
    } else if (std::string v = flag_value("spill-max-bytes"); !v.empty()) {
      const auto bytes_or = ParseByteSize(v);
      if (!bytes_or.ok()) {
        std::fprintf(stderr, "--spill-max-bytes: %s\n",
                     bytes_or.status().message().c_str());
        return 2;
      }
      spill_config.max_bytes = bytes_or.ValueOrDie();
    } else {
      std::fprintf(stderr,
                   "usage: %s [--spill-dir=DIR] [--spill-max-bytes=N|512mb]\n",
                   argv[0]);
      return 2;
    }
  }
  if (!spill_config.dir.empty()) engine.EnableSpill(spill_config);
  LoadDefaultWarehouse(engine.catalog());
  SessionLimits limits;  // \limits adjusts; applied to every statement.
  const bool interactive = isatty(fileno(stdin));
  if (interactive) {
    std::printf(
        "GMDJ-OLAP shell. Warehouse loaded (Flow/Hours/User + "
        "customer/orders/lineitem/supplier). \\help for commands.\n");
  }

  std::string line;
  while (true) {
    if (interactive) std::printf("gmdj> ");
    if (!std::getline(std::cin, line)) break;
    // Trim.
    const size_t begin = line.find_first_not_of(" \t");
    if (begin == std::string::npos) continue;
    const size_t end = line.find_last_not_of(" \t");
    line = line.substr(begin, end - begin + 1);
    if (line.empty()) continue;

    if (line[0] == '\\') {
      std::istringstream stream(line.substr(1));
      std::string command;
      stream >> command;
      if (command == "quit" || command == "q") break;
      if (command == "help") {
        PrintHelp();
      } else if (command == "tables") {
        for (const std::string& name : engine.catalog()->TableNames()) {
          const auto table = engine.catalog()->GetTable(name);
          std::printf("  %-12s %8zu rows\n", name.c_str(),
                      (*table)->num_rows());
        }
      } else if (command == "schema") {
        std::string name;
        stream >> name;
        const auto table = engine.catalog()->GetTable(name);
        if (!table.ok()) {
          std::printf("%s\n", table.status().ToString().c_str());
        } else {
          std::printf("%s\n", (*table)->schema().ToString().c_str());
        }
      } else if (command == "export") {
        std::string name, path;
        stream >> name >> path;
        const auto table = engine.catalog()->GetTable(name);
        if (!table.ok()) {
          std::printf("%s\n", table.status().ToString().c_str());
          continue;
        }
        const Status status = WriteCsvFile(**table, path);
        std::printf("%s\n", status.ok() ? ("wrote " + path).c_str()
                                        : status.ToString().c_str());
      } else if (command == "strategies") {
        for (const Strategy s : AllStrategies()) {
          std::printf("  %s\n", StrategyToString(s));
        }
      } else if (command == "metrics") {
        std::printf("%s\n", engine.SnapshotMetrics().ToJson().c_str());
      } else if (command == "snapshot" || command == "restore") {
        std::string dir;
        stream >> dir;
        if (dir.empty()) {
          std::printf("usage: \\%s <dir>\n", command.c_str());
          continue;
        }
        const Status status = command == "snapshot"
                                  ? engine.SaveSnapshot(dir)
                                  : engine.RestoreSnapshot(dir);
        if (status.ok()) {
          std::printf("%s %s (%zu tables)\n",
                      command == "snapshot" ? "saved snapshot to"
                                            : "restored snapshot from",
                      dir.c_str(), engine.catalog()->TableNames().size());
        } else {
          std::printf("%s\n", status.ToString().c_str());
        }
      } else if (command == "run") {
        RunForced(&engine, limits, &stream);
      } else if (command == "limits") {
        SetLimits(&limits, &stream);
      } else if (command == "explain") {
        Explain(&engine, &stream);
      } else if (command == "advise") {
        std::string sql;
        std::getline(stream, sql);
        Advise(&engine, sql);
      } else {
        std::printf("unknown command '\\%s' (\\help)\n", command.c_str());
      }
      continue;
    }
    RunSql(&engine, limits, line);
  }
  return 0;
}
