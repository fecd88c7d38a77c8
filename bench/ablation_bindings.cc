// Ablation A3: GMDJ condition-dispatch strategies.
//
// The same logical aggregation is computed with four physically different
// conditions so the evaluator picks a different strategy each time:
//
//   hash     — θ: B.key = R.key              (hash index on the base)
//   interval — θ: R.t >= B.lo AND R.t < B.hi (interval tree on the base)
//   scan     — θ: (B.key + 0) = R.key        (defeats binding analysis;
//                                             same semantics as `hash`)
//   naive    — reference nested-loop evaluation of the hash condition.
//
// This quantifies how much of the GMDJ's single-scan efficiency comes
// from binding extraction versus the operator shape itself.

#include "bench_util.h"
#include "core/gmdj.h"
#include "exec/nodes.h"
#include "expr/expr_builder.h"

namespace gmdj {
namespace {

enum class Variant { kHash, kInterval, kScan, kNaive };

void BM_Bindings(benchmark::State& state, Variant variant) {
  const int64_t flows = state.range(0);
  OlapEngine* engine = bench::IpFlowEngine(flows, 24, 50);
  if (!engine->catalog()->HasTable("FlowHour")) {
    // Flow extended with a precomputed hour column, so the hash/scan
    // variants have a bare-column equality to (not) extract.
    const Table& flow = **engine->catalog()->GetTable("Flow");
    Table derived = flow.WithQualifier("FH");
    const Column& start = flow.column(*flow.schema().Resolve("StartTime"));
    auto hour = std::make_shared<Column>(ValueType::kInt64);
    for (size_t r = 0; r < flow.num_rows(); ++r) {
      hour->Append(Value(start.i64(r) / 60 + 1));
    }
    derived.AddColumn(Field{"hour", ValueType::kInt64, "FH"}, std::move(hour));
    engine->catalog()->PutTable("FlowHour", derived);
  }

  auto make_plan = [&]() -> PlanPtr {
    std::vector<GmdjCondition> conds;
    GmdjCondition c;
    switch (variant) {
      case Variant::kHash:
      case Variant::kNaive:
        c.theta = Eq(Col("H.HourDescription"), Col("FH.hour"));
        break;
      case Variant::kScan:
        c.theta = Eq(Add(Col("H.HourDescription"), Lit(0)),
                     Col("FH.hour"));
        break;
      case Variant::kInterval:
        c.theta = And(Ge(Col("F.StartTime"), Col("H.StartInterval")),
                      Lt(Col("F.StartTime"), Col("H.EndInterval")));
        break;
    }
    const bool interval = variant == Variant::kInterval;
    c.aggs.push_back(
        SumOf(Col(interval ? "F.NumBytes" : "FH.NumBytes"), "s"));
    c.aggs.push_back(CountStar("c"));
    conds.push_back(std::move(c));
    PlanPtr detail =
        interval ? std::make_unique<TableScanNode>("Flow", "F")
                 : std::make_unique<TableScanNode>("FlowHour", "FH");
    return std::make_unique<GmdjNode>(
        std::make_unique<TableScanNode>("Hours", "H"), std::move(detail),
        std::move(conds),
        variant == Variant::kNaive ? GmdjStrategy::kNaive
                                   : GmdjStrategy::kAuto);
  };

  size_t rows = 0;
  ExecStats stats;
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
    rows = result->num_rows();
    stats = ctx.stats();
    benchmark::DoNotOptimize(rows);
  }
  state.counters["result_rows"] = static_cast<double>(rows);
  state.counters["pred_evals"] = static_cast<double>(stats.predicate_evals);
  state.counters["hash_probes"] = static_cast<double>(stats.hash_probes);
}

void RegisterAll() {
  const struct {
    const char* name;
    Variant variant;
  } kSeries[] = {
      {"bindings/hash", Variant::kHash},
      {"bindings/interval", Variant::kInterval},
      {"bindings/scan", Variant::kScan},
      {"bindings/naive", Variant::kNaive},
  };
  for (const auto& series : kSeries) {
    auto* b = benchmark::RegisterBenchmark(
        series.name, [variant = series.variant](benchmark::State& state) {
          BM_Bindings(state, variant);
        });
    b->Unit(benchmark::kMillisecond)->MinTime(0.05);
    for (const int64_t flows : {30'000, 60'000, 120'000}) {
      b->Arg(bench::Scaled(flows));
    }
  }
}

}  // namespace
}  // namespace gmdj

int main(int argc, char** argv) {
  gmdj::bench::ParseBenchArgs(&argc, argv);
  benchmark::Initialize(&argc, argv);
  benchmark::AddCustomContext(
      "experiment",
      "Ablation: GMDJ per-condition dispatch (hash / interval tree / "
      "active scan / naive nested loop). The base is tiny (24 hour "
      "buckets), so scan is tolerable here; the gap to naive shows the "
      "value of single-scan evaluation, the gap between hash/interval and "
      "scan the value of binding extraction.");
  gmdj::RegisterAll();
  return gmdj::bench::RunBenchmarks();
}
