// MQO repeat benchmark: the paper's Fig-2 (correlated EXISTS) and Fig-3
// (correlated aggregate comparison) query mix submitted repeatedly — the
// dashboard-refresh pattern the MQO subsystem targets — with the GMDJ
// aggregate cache off vs on. Each repetition runs the two queries one at
// a time through the governed `Execute` under `gmdj`, whose GMDJs probe
// and store the cache (no base-tuple completion).
//
// With the cache off every repetition re-scans the detail relation per
// GMDJ. With it on, the first repetition pays the scans and every later
// one serves its aggregates from the cache, touching only the base table.
//
// Output: one JSON line per measured repetition,
//   {"bench": "mqo_repeat/fig2+fig3", "threads": 1, "cache": "on",
//    "rep": 2, "ms": 0.42, "cache_hits": 2, "table_scans": 3}
// plus a final summary line with the cold/warm speedup.
//
// Flags: --smoke (tiny tables, 3 reps, verifies on/off row equality and a
// warm-run cache hit — CI-sized), --reps=N, --threads=N,
// --customers=N, --orders=N.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/stopwatch.h"
#include "engine/olap_engine.h"
#include "workload/paper_queries.h"
#include "workload/tpch_gen.h"

namespace gmdj {
namespace {

struct Args {
  bool smoke = false;
  int reps = 5;
  size_t threads = 1;
  int64_t customers = 1000;
  int64_t orders = 100'000;
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--smoke") == 0) {
      args.smoke = true;
      args.reps = 3;
      args.customers = 100;
      args.orders = 2000;
    } else if (std::strncmp(arg, "--reps=", 7) == 0) {
      args.reps = std::atoi(arg + 7);
    } else if (std::strncmp(arg, "--threads=", 10) == 0) {
      args.threads = static_cast<size_t>(std::atol(arg + 10));
    } else if (std::strncmp(arg, "--customers=", 12) == 0) {
      args.customers = std::atol(arg + 12);
    } else if (std::strncmp(arg, "--orders=", 9) == 0) {
      args.orders = std::atol(arg + 9);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg);
      std::exit(2);
    }
  }
  return args;
}

/// One repetition of the mix: each query's result, the summed stats.
struct MixRun {
  std::vector<Result<Table>> results;
  ExecStats stats;
  double elapsed_ms = 0.0;
};

MixRun RunMix(OlapEngine* engine, const std::vector<const NestedSelect*>& mix) {
  MixRun out;
  Stopwatch watch;
  for (const NestedSelect* query : mix) {
    QueryRun run;
    out.results.push_back(
        engine->Execute(*query, Strategy::kGmdj, SessionLimits(), &run));
    out.stats.Add(run.stats);
  }
  out.elapsed_ms = watch.ElapsedMillis();
  return out;
}

bool SameRows(const Table& a, const Table& b) {
  if (a.num_rows() != b.num_rows()) return false;
  for (size_t r = 0; r < a.num_rows(); ++r) {
    const Row& ra = a.row(r);
    const Row& rb = b.row(r);
    if (ra.size() != rb.size()) return false;
    for (size_t c = 0; c < ra.size(); ++c) {
      if (ra[c] != rb[c]) return false;
    }
  }
  return true;
}

int Run(const Args& args) {
  OlapEngine engine;
  TpchConfig config;
  config.num_customers = args.customers;
  config.num_orders = args.orders;
  config.num_lineitems = 1;
  engine.catalog()->PutTable("customer", GenCustomerTable(config));
  engine.catalog()->PutTable("orders", GenOrdersTable(config));
  ExecConfig exec;
  exec.num_threads = args.threads;
  engine.set_exec_config(exec);

  const NestedSelect fig2 = Fig2ExistsQuery();
  const NestedSelect fig3 = Fig3AggCompareQuery();
  const std::vector<const NestedSelect*> mix = {&fig2, &fig3};

  std::vector<Result<Table>> reference;  // cache-off rep 0, for --smoke.
  double off_ms = 0.0, warm_ms = 0.0;
  uint64_t warm_hits = 0;
  bool warm_checked_ok = true;

  for (const bool cache_on : {false, true}) {
    if (cache_on) {
      engine.EnableAggCache();
    } else {
      engine.DisableAggCache();
    }
    for (int rep = 0; rep < args.reps; ++rep) {
      MixRun run = RunMix(&engine, mix);
      for (const Result<Table>& result : run.results) {
        if (!result.ok()) {
          std::fprintf(stderr, "query failed: %s\n",
                       result.status().message().c_str());
          return 1;
        }
      }
      std::printf(
          "{\"bench\": \"mqo_repeat/fig2+fig3\", \"threads\": %zu, "
          "\"cache\": \"%s\", \"rep\": %d, \"ms\": %.6f, "
          "\"cache_hits\": %llu, \"table_scans\": %llu, "
          "\"rows_scanned\": %llu}\n",
          args.threads, cache_on ? "on" : "off", rep, run.elapsed_ms,
          static_cast<unsigned long long>(run.stats.cache_hits),
          static_cast<unsigned long long>(run.stats.table_scans),
          static_cast<unsigned long long>(run.stats.rows_scanned));

      if (!cache_on && rep == 0) {
        reference = std::move(run.results);
      }
      if (!cache_on) {
        off_ms += run.elapsed_ms;
      } else if (rep > 0) {  // Warm: every repetition after the first.
        warm_ms += run.elapsed_ms;
        warm_hits += run.stats.cache_hits;
      }
      if (args.smoke && cache_on && !reference.empty()) {
        for (size_t q = 0; q < run.results.size(); ++q) {
          if (!SameRows(*reference[q], *run.results[q])) {
            std::fprintf(stderr,
                         "SMOKE FAIL: cached result of query %zu differs "
                         "from uncached\n",
                         q);
            warm_checked_ok = false;
          }
        }
      }
    }
  }

  const double off_avg = off_ms / args.reps;
  const double warm_avg = args.reps > 1 ? warm_ms / (args.reps - 1) : warm_ms;
  std::printf(
      "{\"bench\": \"mqo_repeat/summary\", \"threads\": %zu, "
      "\"cache\": \"summary\", \"off_avg_ms\": %.6f, \"warm_avg_ms\": %.6f, "
      "\"speedup\": %.2f, \"warm_hits\": %llu}\n",
      args.threads, off_avg, warm_avg,
      warm_avg > 0 ? off_avg / warm_avg : 0.0,
      static_cast<unsigned long long>(warm_hits));

  if (args.smoke) {
    if (!warm_checked_ok) return 1;
    if (warm_hits == 0) {
      std::fprintf(stderr, "SMOKE FAIL: warm repetitions never hit cache\n");
      return 1;
    }
    std::printf("SMOKE OK\n");
  }
  return 0;
}

}  // namespace
}  // namespace gmdj

int main(int argc, char** argv) {
  return gmdj::Run(gmdj::ParseArgs(argc, argv));
}
