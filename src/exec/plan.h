#ifndef GMDJ_EXEC_PLAN_H_
#define GMDJ_EXEC_PLAN_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "governance/query_context.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "obs/operator_stats.h"
#include "obs/trace.h"
#include "parallel/exec_config.h"
#include "storage/catalog.h"
#include "storage/table.h"

namespace gmdj {

namespace spill {
class SpillScope;
}  // namespace spill

/// Counters collected during plan execution. The paper's argument is about
/// *scans of the detail relation* being the dominant cost; `table_scans`
/// and `rows_scanned` make that observable in tests and benchmarks.
struct ExecStats {
  uint64_t table_scans = 0;      // Full passes over a stored/derived table.
  uint64_t rows_scanned = 0;     // Rows read by those passes.
  uint64_t rows_output = 0;      // Rows emitted by operators.
  uint64_t hash_probes = 0;      // Hash table lookups (joins, GMDJ, index).
  uint64_t predicate_evals = 0;  // θ / residual predicate evaluations.
  uint64_t joins = 0;            // Join operators executed.
  uint64_t gmdj_ops = 0;         // GMDJ operators executed.
  uint64_t morsels = 0;          // Morsels dispatched by parallel scans.

  // Expression-compilation counters (expr/program.h). A GMDJ θ condition
  // counts as compiled when it runs in compiled mode and every detail-only
  // conjunct and aggregate argument (its fused pair's too) has a batch
  // program; otherwise it counts as a fallback. Residuals and the pair
  // comparison run through the interpreter in both modes.
  uint64_t compiled_conditions = 0;    // Conditions on typed programs.
  uint64_t interpreter_fallbacks = 0;  // Conditions on the tree interpreter.

  // MQO aggregate-cache counters (src/mqo/). Hit/miss are counted per
  // GMDJ operator execution; evictions/invalidations/bytes are copied
  // from the cache by the engine after the query finishes.
  uint64_t cache_hits = 0;           // GMDJs served entirely from cache.
  uint64_t cache_misses = 0;         // Cache-eligible GMDJs that evaluated.
  uint64_t cache_evictions = 0;      // Entries dropped by the byte budget.
  uint64_t cache_invalidations = 0;  // Entries dropped by version mismatch.
  uint64_t cache_bytes = 0;          // Resident cache footprint.

  // Spill-to-disk counters (src/spill/). A spilled operator evaluates in
  // `spill_passes` per-partition passes; each extra pass re-scans its
  // probe/detail input, which the scan counters above also reflect.
  uint64_t spill_partitions = 0;     // Partitions spilled operators split into.
  uint64_t spill_passes = 0;         // Per-partition evaluation passes.
  uint64_t spill_bytes_written = 0;  // Encoded bytes written to spill files.
  uint64_t spill_bytes_read = 0;     // Encoded bytes read back.

  void Reset() { *this = ExecStats{}; }
  /// Folds another run's work counters into this one. The cache_evictions,
  /// cache_invalidations and cache_bytes fields are point-in-time copies
  /// of the shared cache, not per-run work, and are left as they are.
  void Add(const ExecStats& other);
  std::string ToString() const;
};

class GmdjCacheHook;

/// Registry handles for the metrics operators record on the hot path.
/// Resolved once by the engine (or left null: recording is null-safe and
/// the GMDJ_METRIC_* macros compile out under GMDJ_METRICS=OFF).
struct HotMetrics {
  obs::Counter* rows_scanned = nullptr;
  obs::Counter* predicate_evals = nullptr;
  obs::Histogram* rng_size = nullptr;  // |RNG(b, R, theta)| per match set.
};

/// Execution environment handed to every operator: the catalog for table
/// resolution, shared statistics, and the parallel-execution knobs.
class ExecContext {
 public:
  explicit ExecContext(const Catalog* catalog,
                       ExecConfig config = ExecConfig())
      : catalog_(catalog), config_(config) {}

  const Catalog& catalog() const { return *catalog_; }
  ExecStats& stats() { return stats_; }
  const ExecStats& stats() const { return stats_; }
  const ExecConfig& config() const { return config_; }

  /// Cross-query GMDJ aggregate cache (exec/gmdj_cache.h); null disables
  /// probing. The hook must outlive the context and be thread-safe.
  void set_gmdj_cache(GmdjCacheHook* cache) { gmdj_cache_ = cache; }
  GmdjCacheHook* gmdj_cache() const { return gmdj_cache_; }

  /// Lifecycle governance of the executing query (governance/
  /// query_context.h); null runs ungoverned. The context must outlive
  /// execution and is shared read-mostly across morsel workers.
  void set_query_ctx(QueryContext* query_ctx) { query_ctx_ = query_ctx; }
  QueryContext* query_ctx() const { return query_ctx_; }

  /// Operator liveness poll: Cancelled/DeadlineExceeded aborts the query.
  /// Call at loop-stride boundaries (~1k rows / once per morsel) and
  /// unwind with the returned Status. A tripped poll drops an abort
  /// marker into the flight recorder under the executing operator's span,
  /// so the post-mortem dump names where the query died.
  Status PollQuery() const {
    if (query_ctx_ == nullptr) return Status::OK();
    Status alive = query_ctx_->CheckAlive();
    if (!alive.ok() && tracer_ != nullptr) {
      tracer_->Event("governance/abort", alive.ToString(), current_span_);
    }
    return alive;
  }

  /// Charges `bytes` of operator state against the query's memory budget
  /// (no-op when ungoverned). Reservations are returned in bulk when the
  /// QueryContext dies, so error paths need no paired release.
  Status ReserveMemory(size_t bytes) const {
    return query_ctx_ == nullptr ? Status::OK()
                                 : query_ctx_->ReserveMemory(bytes);
  }

  /// Returns `bytes` of a prior reservation early. Spilling operators use
  /// this between passes so partition N+1 runs against the budget
  /// partition N just vacated; plain operators still rely on the bulk
  /// release at QueryContext destruction.
  void ReleaseMemory(size_t bytes) const {
    if (query_ctx_ != nullptr) query_ctx_->ReleaseMemory(bytes);
  }

  /// Bytes currently reserved by this query (0 when ungoverned). Spilling
  /// operators snapshot this before an attempt and release the delta after
  /// it, capturing reservations made behind callee interfaces too.
  size_t reserved_memory() const {
    return query_ctx_ == nullptr ? 0 : query_ctx_->memory().reserved();
  }

  /// Per-query spill scope (src/spill/); null means spilling is disabled
  /// and a failed reservation stays fatal for the operator.
  void set_spill(spill::SpillScope* spill) { spill_ = spill; }
  spill::SpillScope* spill() const { return spill_; }

  /// Per-operator profile sink (EXPLAIN ANALYZE). Null — the default —
  /// disables collection; OpScope then costs one branch per operator.
  void set_profile(obs::PlanProfile* profile) { profile_ = profile; }
  obs::PlanProfile* profile() const { return profile_; }

  /// Stats block for `node`, or null when profiling is off.
  obs::OperatorStats* op_stats(const void* node) const {
    return profile_ == nullptr ? nullptr : profile_->Stats(node);
  }

  /// Span tracer / flight recorder. Null disables span emission.
  void set_tracer(obs::SpanTracer* tracer) { tracer_ = tracer; }
  obs::SpanTracer* tracer() const { return tracer_; }

  /// Innermost open operator span (parent handle for nested spans);
  /// maintained by OpScope. SpanTracer::kNoSpan at query level.
  uint32_t current_span() const { return current_span_; }
  void set_current_span(uint32_t id) { current_span_ = id; }

  /// Time source for per-phase operator timings; never null.
  void set_clock(const obs::Clock* clock) {
    clock_ = clock != nullptr ? clock : obs::SteadyClock::Instance();
  }
  const obs::Clock& clock() const { return *clock_; }

  /// Hot-path metric handles (see HotMetrics); default all-null.
  void set_hot_metrics(const HotMetrics& metrics) { hot_metrics_ = metrics; }
  const HotMetrics& hot_metrics() const { return hot_metrics_; }

 private:
  friend class OpScope;

  const Catalog* catalog_;
  ExecConfig config_;
  ExecStats stats_;
  GmdjCacheHook* gmdj_cache_ = nullptr;
  QueryContext* query_ctx_ = nullptr;
  spill::SpillScope* spill_ = nullptr;
  obs::PlanProfile* profile_ = nullptr;
  obs::SpanTracer* tracer_ = nullptr;
  uint32_t current_span_ = obs::SpanTracer::kNoSpan;
  const obs::Clock* clock_ = obs::SteadyClock::Instance();
  HotMetrics hot_metrics_;
  class OpScope* active_scope_ = nullptr;
};

/// RAII guard an operator opens at the top of Execute. When a profile is
/// attached it times the operator, opens a span under the enclosing
/// operator's span, and attributes ExecStats deltas (predicate evals,
/// hash probes) *exclusively* — nested scopes report their share to the
/// parent, which subtracts it — so per-operator numbers sum to the query
/// totals. With no profile and no tracer the whole guard is two branches.
class OpScope {
 public:
  OpScope(ExecContext* ctx, const void* node, const std::string& label);
  ~OpScope();
  OpScope(const OpScope&) = delete;
  OpScope& operator=(const OpScope&) = delete;

  /// Explicit per-operator facts the delta attribution cannot infer.
  void AddRowsIn(uint64_t n) {
    if (stats_ != nullptr) stats_->rows_in += n;
  }
  void AddRowsOut(uint64_t n) {
    if (stats_ != nullptr) stats_->rows_out += n;
  }
  void AddBatches(uint64_t n) {
    if (stats_ != nullptr) stats_->batches += n;
  }

  /// Null when profiling is off; GMDJ fills its detail block through it.
  obs::OperatorStats* stats() const { return stats_; }

 private:
  ExecContext* ctx_;
  obs::OperatorStats* stats_;  // Null when profiling is off.
  OpScope* parent_;
  uint64_t start_nanos_ = 0;
  uint64_t start_predicate_evals_ = 0;
  uint64_t start_hash_probes_ = 0;
  uint64_t child_nanos_ = 0;
  uint64_t child_predicate_evals_ = 0;
  uint64_t child_hash_probes_ = 0;
  uint32_t span_ = obs::SpanTracer::kNoSpan;
  uint32_t prev_span_ = obs::SpanTracer::kNoSpan;
};

/// Base class of the physical plan tree.
///
/// Lifecycle: construct the tree, `Prepare` it once against a catalog
/// (resolves table names, binds expressions, computes output schemas), then
/// `Execute` any number of times. All operators materialize their output.
class PlanNode {
 public:
  virtual ~PlanNode() = default;
  PlanNode(const PlanNode&) = delete;
  PlanNode& operator=(const PlanNode&) = delete;

  /// Resolves names/expressions and computes `output_schema`.
  virtual Status Prepare(const Catalog& catalog) = 0;

  /// Runs the subtree and returns the materialized result.
  virtual Result<Table> Execute(ExecContext* ctx) const = 0;

  /// Output layout; valid after a successful Prepare.
  const Schema& output_schema() const { return output_schema_; }

  /// One-line operator description (no children).
  virtual std::string label() const = 0;

  /// Child operators (for plan printing and rewrites).
  virtual std::vector<const PlanNode*> children() const = 0;

  /// Multi-line indented plan rendering.
  std::string ToString() const;

 protected:
  PlanNode() = default;
  Schema output_schema_;
};

using PlanPtr = std::unique_ptr<PlanNode>;

/// EXPLAIN ANALYZE rendering options.
struct AnalyzeRenderOptions {
  /// Emit the per-operator "time:" line. Golden tests turn it off (wall
  /// time is nondeterministic); the shell leaves it on.
  bool include_timings = true;
};

/// Renders the plan tree annotated with per-operator stats from a
/// profiled execution. Operators the profile never saw (e.g. pruned by a
/// cache hit upstream) render without a stats block.
std::string RenderAnalyzedPlan(const PlanNode& root,
                               const obs::PlanProfile& profile,
                               const AnalyzeRenderOptions& options = {});

}  // namespace gmdj

#endif  // GMDJ_EXEC_PLAN_H_
