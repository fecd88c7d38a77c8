// M1: micro-benchmarks of the GMDJ operator itself.
//
//   conditions/m — detail-scan throughput versus the number of coalesced
//                  conditions m (the cost of "one more subquery" in a
//                  coalesced GMDJ).
//   base/n       — scaling with the base-values cardinality at fixed
//                  detail size (hash dispatch keeps per-row cost flat).
//   aggs/k       — cost of additional aggregate functions per condition.
//   compare      — the COMPARE stress shape: six coalesced aggregate
//                  conditions on one binding (one shared probe per
//                  detail row, six aggregate updates).

#include <functional>

#include "bench_util.h"
#include "common/str_util.h"
#include "core/gmdj.h"
#include "exec/nodes.h"
#include "expr/expr_builder.h"

namespace gmdj {
namespace {

PlanPtr MakeGmdj(int conditions, int aggs_per_condition) {
  std::vector<GmdjCondition> conds;
  for (int i = 0; i < conditions; ++i) {
    GmdjCondition c;
    // Distinct per-condition predicates over the same binding.
    c.theta = And(Eq(Col("C.c_custkey"), Col("O.o_custkey")),
                  Gt(Col("O.o_totalprice"),
                     Lit(50000.0 * static_cast<double>(i + 1))));
    c.aggs.push_back(CountStar(StrCat({"c", std::to_string(i)})));
    for (int a = 1; a < aggs_per_condition; ++a) {
      c.aggs.push_back(SumOf(Col("O.o_totalprice"),
                             StrCat({"s", std::to_string(i), "_",
                                     std::to_string(a)})));
    }
    conds.push_back(std::move(c));
  }
  return std::make_unique<GmdjNode>(
      std::make_unique<TableScanNode>("customer", "C"),
      std::make_unique<TableScanNode>("orders", "O"), std::move(conds));
}

/// Six select-list-style aggregates over orders per customer, each its
/// own condition on the same binding (what coalescing produces for a
/// COMPARE statement).
PlanPtr MakeCompareGmdj() {
  auto cond = [](ExprPtr filter, AggSpec agg) {
    GmdjCondition c;
    ExprPtr key = Eq(Col("C.c_custkey"), Col("O.o_custkey"));
    c.theta = filter == nullptr ? std::move(key)
                                : And(std::move(key), std::move(filter));
    c.aggs.push_back(std::move(agg));
    return c;
  };
  std::vector<GmdjCondition> conds;
  conds.push_back(cond(nullptr, CountStar("n_orders")));
  conds.push_back(cond(nullptr, SumOf(Col("O.o_totalprice"), "total")));
  conds.push_back(cond(nullptr, MinOf(Col("O.o_totalprice"), "lowest")));
  conds.push_back(cond(nullptr, MaxOf(Col("O.o_totalprice"), "highest")));
  conds.push_back(cond(Gt(Col("O.o_totalprice"), Lit(250000.0)),
                       CountStar("n_big")));
  conds.push_back(cond(Ge(Col("O.o_orderdate"), Lit(int64_t{9300})),
                       SumOf(Col("O.o_totalprice"), "recent")));
  return std::make_unique<GmdjNode>(
      std::make_unique<TableScanNode>("customer", "C"),
      std::make_unique<TableScanNode>("orders", "O"), std::move(conds));
}

void RunPlanLoop(benchmark::State& state, int64_t customers, int64_t orders,
                 const std::function<PlanPtr()>& make_plan) {
  OlapEngine* engine = bench::TpchEngine(customers, orders, 1);
  for (auto _ : state) {
    PlanPtr plan = make_plan();
    if (!plan->Prepare(*engine->catalog()).ok()) {
      state.SkipWithError("prepare failed");
      return;
    }
    ExecContext ctx(engine->catalog(), bench::BenchExecConfig());
    const Result<Table> result = plan->Execute(&ctx);
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(result->num_rows());
    bench::SnapshotExecStats(ctx.stats());
  }
  state.SetItemsProcessed(state.iterations() * orders);
  state.counters["threads"] = static_cast<double>(bench::ThreadsFlag());
  state.counters["compiled_conditions"] = static_cast<double>(
      bench::MetricsStorage().counters["expr.compiled_conditions"]);
}

void RunPlanLoop(benchmark::State& state, int conditions, int aggs,
                 int64_t customers, int64_t orders) {
  RunPlanLoop(state, customers, orders,
              [&] { return MakeGmdj(conditions, aggs); });
}

void BM_Conditions(benchmark::State& state) {
  RunPlanLoop(state, static_cast<int>(state.range(0)), 1, 1000,
              bench::Scaled(60'000));
}

void BM_BaseSize(benchmark::State& state) {
  RunPlanLoop(state, 2, 1, state.range(0), bench::Scaled(60'000));
}

void BM_Aggs(benchmark::State& state) {
  RunPlanLoop(state, 1, static_cast<int>(state.range(0)), 1000,
              bench::Scaled(60'000));
}

void BM_Compare(benchmark::State& state) {
  RunPlanLoop(state, 1000, bench::Scaled(120'000), MakeCompareGmdj);
  state.counters["hash_probes"] = static_cast<double>(
      bench::MetricsStorage().counters["exec.hash_probes"]);
}

// Morsel-parallel detail scan over a fixed 1M-row detail relation (not
// divided by GMDJ_BENCH_SCALE: the parallel/sequential comparison needs a
// relation large enough that morsel scheduling is not the dominant cost).
// Sweep with --threads=1 vs --threads=4 to measure the speedup.
void BM_ParallelScan(benchmark::State& state) {
  RunPlanLoop(state, 2, 2, 1000, 1'000'000);
}

// CI smoke: one Fig. 2-shaped GMDJ (hash-dispatch equality + double
// compare) over tiny tables, verifying the expression compiler actually
// engaged (compiled_conditions > 0) unless GMDJ_EXPR_EVAL=interpret asked
// for the tree interpreter. Returns the process exit code.
int RunSmoke() {
  OlapEngine* engine = bench::TpchEngine(100, 1000, 1);
  PlanPtr plan = MakeGmdj(1, 1);
  if (!plan->Prepare(*engine->catalog()).ok()) {
    std::fprintf(stderr, "smoke: prepare failed\n");
    return 1;
  }
  ExecContext ctx(engine->catalog(), bench::BenchExecConfig());
  const Result<Table> result = plan->Execute(&ctx);
  if (!result.ok()) {
    std::fprintf(stderr, "smoke: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  const bool interpret =
      ExecConfig().ResolvedExprEvalMode() == ExprEvalMode::kInterpret;
  if (!interpret && ctx.stats().compiled_conditions == 0) {
    std::fprintf(stderr,
                 "smoke: expected compiled_conditions > 0 on the Fig. 2 "
                 "plan, got stats: %s\n",
                 ctx.stats().ToString().c_str());
    return 1;
  }
  std::printf("smoke ok: rows=%zu eval_mode=%s %s\n", result->num_rows(),
              bench::EvalModeName(), ctx.stats().ToString().c_str());
  return 0;
}

}  // namespace
}  // namespace gmdj

BENCHMARK(gmdj::BM_Conditions)
    ->Name("micro/conditions")
    ->Unit(benchmark::kMillisecond)
    ->MinTime(0.05)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8);
BENCHMARK(gmdj::BM_BaseSize)
    ->Name("micro/base_size")
    ->Unit(benchmark::kMillisecond)
    ->MinTime(0.05)
    ->Arg(100)
    ->Arg(1'000)
    ->Arg(10'000)
    ->Arg(100'000);
BENCHMARK(gmdj::BM_Aggs)
    ->Name("micro/aggs_per_condition")
    ->Unit(benchmark::kMillisecond)
    ->MinTime(0.05)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4);
BENCHMARK(gmdj::BM_Compare)
    ->Name("micro/compare")
    ->Unit(benchmark::kMillisecond)
    ->MinTime(0.05);
BENCHMARK(gmdj::BM_ParallelScan)
    ->Name("micro/parallel_scan")
    ->Unit(benchmark::kMillisecond)
    ->MinTime(0.05);

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) return gmdj::RunSmoke();
  }
  gmdj::bench::ParseBenchArgs(&argc, argv);
  benchmark::Initialize(&argc, argv);
  return gmdj::bench::RunBenchmarks();
}
