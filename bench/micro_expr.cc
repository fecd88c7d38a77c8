// Expression-evaluation micro-benchmarks: the tree interpreter versus the
// batch programs (expr/program.h) on the θ shapes of the paper's Figure 2
// and Figure 4 workloads, and on Figure 5's detail-only mask (a string
// equality, one column-vs-literal compare op).
//
// Each benchmark evaluates the bound predicate once per detail (orders)
// row against a fixed base (customer) row, the exact call pattern of the
// GMDJ inner loop. Two variants per shape:
//
//   /interpret       Expr::EvalPred on the bound tree, one row at a time.
//   /compiled_batch  ExprProgram::EvalPredMask over 1024-row chunks of the
//                    table's typed columns — the batch kernels the GMDJ
//                    detail-only pass runs.
//
// The mode lives in the benchmark name (all variants run in one process),
// unlike the figure sweeps where GMDJ_EXPR_EVAL selects the engine-wide
// mode reported in the JSON `eval_mode` field.

#include <memory>
#include <optional>
#include <vector>

#include "bench_util.h"
#include "expr/expr_builder.h"
#include "expr/program.h"
#include "storage/table.h"

namespace gmdj {
namespace {

enum class EvalVariant { kInterpret, kCompiledBatch };

// Fig. 2 θ: the EXISTS condition — custkey equality plus a totalprice
// range filter (hash-dispatch residual shape).
ExprPtr Fig2Theta() {
  return And(Eq(Col("O.o_custkey"), Col("C.c_custkey")),
             Gt(Col("O.o_totalprice"), Lit(150000.0)));
}

// Fig. 4 ψ: the fused ALL-pair comparison C.c_custkey <> O.o_custkey,
// evaluated per candidate match in the quantifier pass.
ExprPtr Fig4PairCmp() { return Ne(Col("C.c_custkey"), Col("O.o_custkey")); }

// Fig. 5 mask: the first EXISTS's detail-only conjunct, which the GMDJ
// evaluates as a pass mask over each chunk.
ExprPtr Fig5PriorityMask() {
  return Eq(Col("O.o_orderpriority"), Lit("1-URGENT"));
}

void RunExprLoop(benchmark::State& state, ExprPtr expr, EvalVariant variant) {
  OlapEngine* engine = bench::TpchEngine(1000, bench::Scaled(60'000), 1);
  const Result<const Table*> customer = engine->catalog()->GetTable("customer");
  const Result<const Table*> orders = engine->catalog()->GetTable("orders");
  if (!customer.ok() || !orders.ok()) {
    state.SkipWithError("tables missing");
    return;
  }
  const Table base = (*customer)->WithQualifier("C");
  const Table detail = (*orders)->WithQualifier("O");
  if (!expr->Bind({&base.schema(), &detail.schema()}).ok()) {
    state.SkipWithError("bind failed");
    return;
  }
  const std::optional<ExprProgram> program =
      Compile(*expr, {&base.schema(), &detail.schema()});
  if (!program.has_value()) {
    state.SkipWithError("shape did not compile");
    return;
  }

  ExprScratch scratch;
  scratch.batch_frame = 1;
  ExprVecScratch vec_scratch;
  std::vector<uint8_t> mask;

  const size_t n = detail.num_rows();
  constexpr size_t kChunkRows = 1024;
  size_t matches = 0;
  for (auto _ : state) {
    EvalContext ectx;
    ectx.PushFrame(&base, 0);
    ectx.PushFrame(&detail);
    matches = 0;
    switch (variant) {
      case EvalVariant::kInterpret:
        for (size_t r = 0; r < n; ++r) {
          ectx.SetRow(1, r);
          matches += IsTrue(expr->EvalPred(ectx)) ? 1 : 0;
        }
        break;
      case EvalVariant::kCompiledBatch:
        for (size_t chunk = 0; chunk < n; chunk += kChunkRows) {
          const size_t rows = std::min(kChunkRows, n - chunk);
          scratch.batch_begin = chunk;
          mask.assign(rows, 1);
          program->EvalPredMask(ectx, scratch, &vec_scratch, rows,
                                mask.data());
          for (size_t i = 0; i < rows; ++i) matches += mask[i];
        }
        break;
    }
    benchmark::DoNotOptimize(matches);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
  state.counters["matches"] = static_cast<double>(matches);
  state.counters["program_ops"] = static_cast<double>(program->num_ops());
}

void BM_Fig2Interpret(benchmark::State& state) {
  RunExprLoop(state, Fig2Theta(), EvalVariant::kInterpret);
}
void BM_Fig2CompiledBatch(benchmark::State& state) {
  RunExprLoop(state, Fig2Theta(), EvalVariant::kCompiledBatch);
}
void BM_Fig4Interpret(benchmark::State& state) {
  RunExprLoop(state, Fig4PairCmp(), EvalVariant::kInterpret);
}
void BM_Fig4CompiledBatch(benchmark::State& state) {
  RunExprLoop(state, Fig4PairCmp(), EvalVariant::kCompiledBatch);
}

void BM_Fig5Interpret(benchmark::State& state) {
  RunExprLoop(state, Fig5PriorityMask(), EvalVariant::kInterpret);
}
void BM_Fig5CompiledBatch(benchmark::State& state) {
  RunExprLoop(state, Fig5PriorityMask(), EvalVariant::kCompiledBatch);
}

}  // namespace
}  // namespace gmdj

BENCHMARK(gmdj::BM_Fig2Interpret)
    ->Name("expr/fig2_theta/interpret")
    ->Unit(benchmark::kMillisecond)
    ->MinTime(0.05);
BENCHMARK(gmdj::BM_Fig2CompiledBatch)
    ->Name("expr/fig2_theta/compiled_batch")
    ->Unit(benchmark::kMillisecond)
    ->MinTime(0.05);
BENCHMARK(gmdj::BM_Fig4Interpret)
    ->Name("expr/fig4_pair_cmp/interpret")
    ->Unit(benchmark::kMillisecond)
    ->MinTime(0.05);
BENCHMARK(gmdj::BM_Fig4CompiledBatch)
    ->Name("expr/fig4_pair_cmp/compiled_batch")
    ->Unit(benchmark::kMillisecond)
    ->MinTime(0.05);

BENCHMARK(gmdj::BM_Fig5Interpret)
    ->Name("expr/fig5_mask/interpret")
    ->Unit(benchmark::kMillisecond)
    ->MinTime(0.05);
BENCHMARK(gmdj::BM_Fig5CompiledBatch)
    ->Name("expr/fig5_mask/compiled_batch")
    ->Unit(benchmark::kMillisecond)
    ->MinTime(0.05);

int main(int argc, char** argv) {
  gmdj::bench::ParseBenchArgs(&argc, argv);
  benchmark::Initialize(&argc, argv);
  return gmdj::bench::RunBenchmarks();
}
