#ifndef GMDJ_BENCH_BENCH_UTIL_H_
#define GMDJ_BENCH_BENCH_UTIL_H_

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>

#include "common/byte_size.h"
#include "engine/olap_engine.h"
#include "nested/nested_ast.h"
#include "obs/metrics.h"
#include "parallel/exec_config.h"
#include "workload/ipflow.h"
#include "workload/tpch_gen.h"

namespace gmdj {
namespace bench {

/// Global size multiplier. The paper ran 50–200 MB TPC(R) databases on a
/// 2003 commercial DBMS; this repository defaults to 1/10 of the paper's
/// row counts (1/20 for the quadratic Figure 4) so the whole suite runs in
/// minutes on one core with an interpreted expression engine. Set
/// GMDJ_BENCH_SCALE=10 to sweep the paper's absolute sizes.
inline double Scale() {
  static const double scale = [] {
    const char* env = std::getenv("GMDJ_BENCH_SCALE");
    return env != nullptr ? std::atof(env) : 1.0;
  }();
  return scale;
}

inline int64_t Scaled(int64_t n) {
  return static_cast<int64_t>(static_cast<double>(n) * Scale());
}

/// Cached engine holding TPC-style tables; keyed by the sizes so sweeps
/// re-use generated data across series. Engines are deliberately leaked:
/// the process exits right after the benchmarks.
inline OlapEngine* TpchEngine(int64_t customers, int64_t orders,
                              int64_t lineitems) {
  static auto* cache = new std::map<std::string, OlapEngine*>();
  const std::string key = std::to_string(customers) + "/" +
                          std::to_string(orders) + "/" +
                          std::to_string(lineitems);
  auto& slot = (*cache)[key];
  if (slot == nullptr) {
    slot = new OlapEngine();
    TpchConfig config;
    config.num_customers = customers;
    config.num_orders = orders;
    config.num_lineitems = lineitems;
    slot->catalog()->PutTable("customer", GenCustomerTable(config));
    slot->catalog()->PutTable("orders", GenOrdersTable(config));
    slot->catalog()->PutTable("lineitem", GenLineitemTable(config));
    slot->catalog()->PutTable("supplier", GenSupplierTable(config));
  }
  return slot;
}

/// Cached engine with the IP-flow warehouse.
inline OlapEngine* IpFlowEngine(int64_t flows, int64_t hours, int64_t users) {
  static auto* cache = new std::map<std::string, OlapEngine*>();
  const std::string key = std::to_string(flows) + "/" +
                          std::to_string(hours) + "/" + std::to_string(users);
  auto& slot = (*cache)[key];
  if (slot == nullptr) {
    slot = new OlapEngine();
    IpFlowConfig config;
    config.num_flows = flows;
    config.num_hours = hours;
    config.num_users = users;
    slot->catalog()->PutTable("Flow", GenFlowTable(config));
    slot->catalog()->PutTable("Hours", GenHoursTable(config));
    slot->catalog()->PutTable("User", GenUserTable(config));
  }
  return slot;
}

/// The `--threads=N` flag shared by every benchmark binary. Default 1:
/// benchmarks reproduce the sequential evaluator unless threads are
/// requested explicitly, so figure sweeps stay comparable to the paper.
inline size_t& ThreadsFlagStorage() {
  static size_t threads = 1;
  return threads;
}
inline size_t ThreadsFlag() { return ThreadsFlagStorage(); }

/// `--deadline-ms=D` / `--mem-budget-mb=M`: run every measured query under
/// those governance limits (0 = ungoverned, the default), so sweeps can
/// chart behavior at the budget edge. `--mem-budget-mb` accepts a bare
/// number (MB) or a suffixed byte size (`64mb`, `1gb`) through the shared
/// parser in common/byte_size.h. Without spilling, tripped limits surface
/// as skipped benchmarks plus nonzero governance counters in the JSON
/// lines; with `--spill-dir` the over-budget operators degrade to
/// multi-pass spill evaluation instead.
inline double& DeadlineMsFlagStorage() {
  static double deadline_ms = 0.0;
  return deadline_ms;
}
inline size_t& MemBudgetBytesFlagStorage() {
  static size_t mem_budget_bytes = 0;
  return mem_budget_bytes;
}
inline QueryLimits BenchQueryLimits() {
  QueryLimits limits;
  limits.deadline_ms = DeadlineMsFlagStorage();
  limits.mem_budget_bytes = MemBudgetBytesFlagStorage();
  return limits;
}

/// `--spill-dir=DIR` / `--spill-max-bytes=N|512mb` / `--spill-partitions=P`:
/// spill-to-disk knobs. An empty dir (default) leaves spilling off;
/// `--spill-partitions` > 1 forces partitioned evaluation even when memory
/// would have sufficed (deterministic multi-pass runs for CI).
inline std::string& SpillDirFlagStorage() {
  static auto* dir = new std::string();
  return *dir;
}
inline size_t& SpillMaxBytesFlagStorage() {
  static size_t max_bytes = 0;
  return max_bytes;
}
inline size_t& SpillPartitionsFlagStorage() {
  static size_t partitions = 1;
  return partitions;
}

/// Applies the spill flags to an engine (idempotent; no-op without
/// `--spill-dir`). Benchmarks call this next to set_exec_config.
inline void ApplyBenchSpill(OlapEngine* engine) {
  if (SpillDirFlagStorage().empty()) return;
  if (engine->spill_manager() != nullptr) return;
  spill::SpillConfig config;
  config.dir = SpillDirFlagStorage();
  config.max_bytes = SpillMaxBytesFlagStorage();
  config.min_spill_partitions = SpillPartitionsFlagStorage();
  engine->EnableSpill(config);
}

/// The expression evaluation mode every measurement in this process runs
/// under (resolved once: GMDJ_EXPR_EVAL=interpret selects the tree
/// interpreter, anything else the compiled batch programs). Exported on
/// every JSON line so interpreted/compiled sweeps are self-describing.
inline const char* EvalModeName() {
  static const char* name =
      ExecConfig().ResolvedExprEvalMode() == ExprEvalMode::kInterpret
          ? "interpret"
          : "compiled";
  return name;
}

/// Metrics of the most recent measured engine (or raw plan loop),
/// exported on every JSON line through the one serialization path,
/// obs::MetricsSnapshot::ToJsonFields. Replaces the per-subsystem
/// governance/expr counter structs benches used to maintain by hand.
inline obs::MetricsSnapshot& MetricsStorage() {
  static auto* snapshot = new obs::MetricsSnapshot();
  return *snapshot;
}

/// Engine-based benchmarks: capture every engine metric (governance
/// outcomes, expr compile counters, cache gauges, pool gauges) at once.
inline void SnapshotEngineMetrics(OlapEngine* engine) {
  MetricsStorage() = engine->SnapshotMetrics();
}

/// Raw plan loops that bypass the engine: build the exported snapshot
/// from the loop's own ExecStats under the same metric names.
inline void SnapshotExecStats(const ExecStats& stats) {
  obs::MetricsSnapshot& snap = MetricsStorage();
  snap.counters["exec.rows_scanned"] = stats.rows_scanned;
  snap.counters["exec.predicate_evals"] = stats.predicate_evals;
  snap.counters["exec.hash_probes"] = stats.hash_probes;
  snap.counters["expr.compiled_conditions"] = stats.compiled_conditions;
  snap.counters["expr.interpreter_fallbacks"] = stats.interpreter_fallbacks;
}

/// Execution config every benchmark should install on its engine (or pass
/// to ExecContext for raw plan loops).
inline ExecConfig BenchExecConfig() {
  ExecConfig config;
  config.num_threads = ThreadsFlag();
  return config;
}

/// Strips flags the benchmark library does not know (`--threads=N`,
/// `--deadline-ms=D`, `--mem-budget-mb=M`, the `--spill-*` family) from
/// argv. Call before benchmark::Initialize, which rejects unknown flags.
inline void ParseBenchArgs(int* argc, char** argv) {
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      const long n = std::atol(argv[i] + 10);
      ThreadsFlagStorage() = n > 0 ? static_cast<size_t>(n) : 0;
    } else if (std::strncmp(argv[i], "--deadline-ms=", 14) == 0) {
      const double ms = std::atof(argv[i] + 14);
      DeadlineMsFlagStorage() = ms > 0.0 ? ms : 0.0;
    } else if (std::strncmp(argv[i], "--mem-budget-mb=", 16) == 0) {
      const auto bytes = ParseByteSizeDefaultMb(argv[i] + 16);
      if (!bytes.ok()) {
        std::fprintf(stderr, "--mem-budget-mb: %s\n",
                     bytes.status().message().c_str());
        std::exit(2);
      }
      MemBudgetBytesFlagStorage() = bytes.ValueOrDie();
    } else if (std::strncmp(argv[i], "--spill-dir=", 12) == 0) {
      SpillDirFlagStorage() = argv[i] + 12;
    } else if (std::strncmp(argv[i], "--spill-max-bytes=", 18) == 0) {
      const auto bytes = ParseByteSize(argv[i] + 18);
      if (!bytes.ok()) {
        std::fprintf(stderr, "--spill-max-bytes: %s\n",
                     bytes.status().message().c_str());
        std::exit(2);
      }
      SpillMaxBytesFlagStorage() = bytes.ValueOrDie();
    } else if (std::strncmp(argv[i], "--spill-partitions=", 19) == 0) {
      const long p = std::atol(argv[i] + 19);
      SpillPartitionsFlagStorage() = p > 1 ? static_cast<size_t>(p) : 1;
    } else {
      argv[out++] = argv[i];
    }
  }
  *argc = out;
}

/// Console output plus one machine-readable JSON line per measurement:
///   {"bench": "fig2/gmdj/30000", "threads": 4, "ms": 12.345,
///    "eval_mode": "compiled", "engine.queries": 7,
///    "governance.deadline_exceeded": 0, ...}
/// The metric fields are spliced verbatim from the last captured
/// MetricsSnapshot, so sweep scripts can `grep '^{'` instead of scraping
/// the table.
class JsonLineReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& reports) override {
    benchmark::ConsoleReporter::ReportRuns(reports);
    for (const Run& run : reports) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      const double iters =
          run.iterations > 0 ? static_cast<double>(run.iterations) : 1.0;
      const double ms = run.real_accumulated_time / iters * 1e3;
      const std::string metrics = MetricsStorage().ToJsonFields();
      // Leading newline: the console reporter leaves a color-reset escape
      // at the start of the next line; keep the JSON at column zero.
      std::fprintf(stdout,
                   "\n{\"bench\": \"%s\", \"threads\": %zu, \"ms\": %.6f, "
                   "\"eval_mode\": \"%s\"%s%s}\n",
                   run.benchmark_name().c_str(), ThreadsFlag(), ms,
                   EvalModeName(), metrics.empty() ? "" : ", ",
                   metrics.c_str());
    }
    std::fflush(stdout);
  }
};

/// Runs the registered benchmarks with the JSON-line reporter.
inline int RunBenchmarks() {
  JsonLineReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  return 0;
}

/// Executes the query under `strategy` inside the benchmark loop and
/// exports result cardinality plus engine statistics as counters.
inline void RunStrategy(benchmark::State& state, OlapEngine* engine,
                        const NestedSelect& query, Strategy strategy) {
  engine->set_exec_config(BenchExecConfig());
  ApplyBenchSpill(engine);
  const QueryLimits limits = BenchQueryLimits();
  size_t rows = 0;
  for (auto _ : state) {
    const Result<Table> result = engine->Execute(query, strategy, limits);
    if (!result.ok()) {
      // Tripped governance limits land here too; export the counters so
      // the JSON line shows WHY the measurement is missing.
      SnapshotEngineMetrics(engine);
      state.SkipWithError(result.status().ToString().c_str());
      return;
    }
    rows = result->num_rows();
    benchmark::DoNotOptimize(rows);
  }
  SnapshotEngineMetrics(engine);
  state.counters["result_rows"] = static_cast<double>(rows);
  state.counters["rows_scanned"] =
      static_cast<double>(engine->last_stats().rows_scanned);
  state.counters["table_scans"] =
      static_cast<double>(engine->last_stats().table_scans);
  state.counters["pred_evals"] =
      static_cast<double>(engine->last_stats().predicate_evals);
  state.counters["threads"] = static_cast<double>(ThreadsFlag());
  state.counters["peak_reserved_bytes"] =
      static_cast<double>(engine->governance_stats().peak_reserved_bytes);
  if (engine->last_stats().spill_passes > 0) {
    state.counters["spill_passes"] =
        static_cast<double>(engine->last_stats().spill_passes);
    state.counters["spill_bytes_written"] =
        static_cast<double>(engine->last_stats().spill_bytes_written);
  }
}

}  // namespace bench
}  // namespace gmdj

#endif  // GMDJ_BENCH_BENCH_UTIL_H_
