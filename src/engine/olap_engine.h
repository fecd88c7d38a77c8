#ifndef GMDJ_ENGINE_OLAP_ENGINE_H_
#define GMDJ_ENGINE_OLAP_ENGINE_H_

#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <vector>

#include "exec/nodes.h"
#include "exec/plan.h"
#include "governance/query_context.h"
#include "mqo/agg_cache.h"
#include "nested/nested_ast.h"
#include "obs/metrics.h"
#include "obs/operator_stats.h"
#include "obs/trace.h"
#include "parallel/exec_config.h"
#include "planner/planner.h"
#include "planner/strategy.h"
#include "spill/spill_manager.h"
#include "sql/parser.h"
#include "stats/stats_catalog.h"
#include "storage/catalog.h"

namespace gmdj {

namespace spill {
class JournalWriter;
}  // namespace spill

/// Caller-owned outputs of one governed execution: the per-query stats,
/// wall time, and (on a governed abort) the flight-recorder dump that
/// would otherwise land in the engine-level `last_*` members. Passing a
/// QueryRun keeps a concurrent caller's diagnostics off shared engine
/// state — the server gives every request its own.
struct QueryRun {
  ExecStats stats;
  double elapsed_ms = 0.0;
  /// Tracer dump captured when this query aborted; empty on success.
  std::string abort_dump;
};

// The Strategy enum (and StrategyToString / AllStrategies /
// StrategyFromName) moved to planner/strategy.h so the cost-based planner
// can name strategies without depending on the engine. Included above;
// existing engine callers compile unchanged. Strategy::kAuto defers the
// choice to the planner and is resolved before any execution.

/// Facade tying the pieces together: a catalog of tables plus a
/// strategy-dispatched executor for nested query expressions.
///
/// Typical use:
///
///   OlapEngine engine;
///   engine.catalog()->PutTable("Flow", GenFlowTable(cfg));
///   NestedSelect q = ...;                       // nested_builder.h
///   auto result = engine.Execute(q, Strategy::kGmdjOptimized);
///
/// Execute clones the query, so one definition can be run under every
/// strategy (their results must agree — the integration tests sweep
/// exactly that).
class OlapEngine {
 public:
  OlapEngine();
  OlapEngine(const OlapEngine&) = delete;
  OlapEngine& operator=(const OlapEngine&) = delete;

  Catalog* catalog() { return &catalog_; }
  const Catalog& catalog() const { return catalog_; }

  /// Evaluates σ[W](B) and returns the qualifying base rows.
  Result<Table> Execute(const NestedSelect& query, Strategy strategy);

  /// Governed execution: runs the query under `limits` (cancellation
  /// token, wall-clock deadline, per-query memory cap) drawn against the
  /// engine memory pool. A tripped limit unwinds cooperatively and
  /// returns Cancelled / DeadlineExceeded / ResourceExhausted; the engine
  /// stays fully usable afterwards and an identical re-run without the
  /// fault is byte-identical to a fresh engine's.
  Result<Table> Execute(const NestedSelect& query, Strategy strategy,
                        const QueryLimits& limits);

  /// Session-governed execution, the path every multi-tenant caller
  /// should use: `session` carries deadline/memory/threads in one struct
  /// (governance/query_context.h), and per-query diagnostics land in the
  /// caller's `run` instead of the engine's `last_*` members.
  ///
  /// Thread-safe: concurrent calls on one engine are allowed (alongside
  /// AppendRows and snapshot save/restore — reads share the catalog
  /// lock, mutations take it exclusively) as long as each
  /// caller passes its own QueryRun. Only this overload, ExecuteStatement
  /// and ExecuteSql-with-SessionLimits make that guarantee — the legacy
  /// overloads above write `last_stats_` and friends.
  Result<Table> Execute(const NestedSelect& query, Strategy strategy,
                        const SessionLimits& session, QueryRun* run = nullptr);

  /// Parses and runs a SQL statement (sql/parser.h), applying any
  /// top-level projection list to the qualifying rows.
  Result<Table> ExecuteSql(std::string_view sql, Strategy strategy);

  /// Session-governed SQL execution (thread-safe; see the SessionLimits
  /// Execute overload): ParseStatement (sql/parser.h), then
  /// ExecuteStatement.
  Result<Table> ExecuteSql(std::string_view sql, Strategy strategy,
                           const SessionLimits& session,
                           QueryRun* run = nullptr);

  /// Runs an already parsed statement under `session`, so a caller that
  /// parsed it up front (the server, to answer syntax errors before
  /// admission) does not parse it twice. EXPLAIN [ANALYZE] statements
  /// return the plan-text table. Thread-safe like ExecuteSql.
  Result<Table> ExecuteStatement(SqlStatement statement, Strategy strategy,
                                 const SessionLimits& session,
                                 QueryRun* run = nullptr);

  /// Builds the physical plan a strategy would run (plan-based strategies
  /// only; native strategies are interpreters without plans).
  Result<PlanPtr> Plan(const NestedSelect& query, Strategy strategy) const;

  /// Plan rendering (or a description for native strategies).
  Result<std::string> Explain(const NestedSelect& query, Strategy strategy);

  /// EXPLAIN ANALYZE: executes the query (plan-based strategies only)
  /// with a per-operator profile and the engine tracer attached, then
  /// renders the plan tree annotated with each operator's rows, batches,
  /// predicate-eval / hash-probe counts, phase timings, and — for GMDJ
  /// nodes — coalesced condition counts, completion retirements, the
  /// RNG(b, R, θ) range-size histogram, and the cache probe outcome.
  /// Golden tests pass `include_timings = false` to mask wall time.
  Result<std::string> ExplainAnalyze(const NestedSelect& query,
                                     Strategy strategy,
                                     const AnalyzeRenderOptions& options = {});

  /// Convenience: evaluates projection expressions over a result table
  /// (e.g. the paper's `sum1/sum2` output column).
  Result<Table> Project(const Table& input, std::vector<ProjItem> items);

  /// Runs the cost-based planner on `query` (under the shared catalog
  /// lock) and returns its decision without executing anything. This is
  /// what Strategy::kAuto resolves through; callers wanting the choice
  /// plus rationale (the shell, tests) use it directly.
  Result<planner::PlanDecision> Decide(const NestedSelect& query);

  /// The engine's planner and its per-column statistics. The statistics
  /// catalog is version-checked against catalog table versions, so
  /// INSERT / PutTable / RESTORE SNAPSHOT mutations invalidate entries
  /// automatically; `ANALYZE [table]` SQL forces recollection.
  planner::Planner* planner() { return planner_.get(); }
  stats::StatsCatalog* table_stats() { return &stats_catalog_; }

  /// Replaces the planner configuration (rebuilds the planner; metric
  /// handles persist). Lets one process host planner-on and planner-off
  /// engines side by side for differential tests, independent of the
  /// GMDJ_PLANNER environment default.
  void set_planner_config(planner::PlannerConfig config);

  /// Enables the cross-query GMDJ aggregate cache (mqo/agg_cache.h) for
  /// every plan the engine runs: GMDJs without base-tuple completion (all
  /// of `Strategy::kGmdj`'s) probe and store it, so concurrent queries
  /// over the same tables share their aggregates through it. Completion
  /// GMDJs never touch it. Replaces (and drops) any previous cache,
  /// and wires the cache as the memory pool's pressure reclaimer: under
  /// budget pressure cached aggregates are LRU-shed before any live query
  /// is rejected.
  void EnableAggCache(GmdjAggCacheConfig config = GmdjAggCacheConfig());
  void DisableAggCache();

  /// The active cache, or null when disabled.
  GmdjAggCache* agg_cache() { return agg_cache_.get(); }

  /// Enables spill-to-disk (src/spill/): every governed query gets a
  /// per-query SpillScope, and a GMDJ or hash-join build whose memory
  /// reservation is rejected degrades to partitioned multi-pass
  /// evaluation over spill files instead of failing — after the MQO cache
  /// reclaimer (when enabled) has already shed what it could. Results are
  /// row- and order-identical to in-memory evaluation; the trade is extra
  /// detail/probe scans, visible in ExecStats and `spill.*` metrics.
  void EnableSpill(spill::SpillConfig config);
  void DisableSpill();

  /// The active spill manager, or null when disabled.
  spill::SpillManager* spill_manager() { return spill_manager_.get(); }

  /// Serializes every catalog table into `dir` (spill block format plus a
  /// MANIFEST, staged and renamed crash-atomically); RestoreSnapshot
  /// replaces same-named tables from `dir`. Also reachable as SQL `SAVE
  /// SNAPSHOT '<dir>'` / `RESTORE SNAPSHOT '<dir>'` through ExecuteSql.
  /// Both take the writer mutex and the catalog lock exclusively, so they
  /// are safe alongside concurrent governed queries (which wait) and never
  /// fall between an INSERT's journal record and its apply. A successful
  /// save
  /// truncates the attached journal — its mutations are in the snapshot.
  /// Save and journal are crash-consistent via the marker protocol
  /// (spill/journal.h): replay after RestoreSnapshot skips journal
  /// records the snapshot already covers.
  Status SaveSnapshot(const std::string& dir);
  Status RestoreSnapshot(const std::string& dir);

  /// Snapshot id of the most recent successful RestoreSnapshot (0 when
  /// nothing was restored, or the snapshot predates ids). Pass to
  /// spill::ReplayJournal so replay skips records the restored snapshot
  /// already contains.
  uint64_t restored_snapshot_id() const { return restored_snapshot_id_; }

  /// Appends literal `rows` to catalog table `name` — the engine's one
  /// online mutation path (SQL `INSERT INTO ... VALUES ...` lands here).
  /// Rows are width- and type-checked against the table (an int64 widens
  /// into a double column), journaled (when a journal is attached) and
  /// fsynced *before* being applied in memory, so an OK return means the
  /// mutation survives a crash. Writers serialize on the writer mutex;
  /// the check and the journal fsync hold the catalog lock shared, so
  /// reads run on during the disk flush, and only the in-memory append
  /// takes it exclusively. The table version bump invalidates dependent
  /// MQO cache entries.
  Status AppendRows(const std::string& name, std::vector<Row> rows);

  /// Registers (or replaces) catalog table `name` while the engine is
  /// serving: takes the writer mutex and the catalog lock exclusively.
  /// (Set-up code that runs before any query may use catalog() directly.)
  void PutTable(const std::string& name, Table table);

  /// Attaches (or detaches, with nullptr) the mutation journal AppendRows
  /// writes through. Not owned; the caller keeps it alive across use.
  void set_journal(spill::JournalWriter* journal) { journal_ = journal; }

  /// Statistics and wall time of the most recent Execute call.
  const ExecStats& last_stats() const { return last_stats_; }
  double last_elapsed_ms() const { return last_elapsed_ms_; }

  /// Execution knobs applied to every plan the engine runs. With
  /// `num_threads` > 1 large GMDJ evaluations use the shared morsel
  /// pool; `num_threads == 1` reproduces the exact sequential behavior.
  /// 0 (default) means hardware concurrency.
  void set_exec_config(ExecConfig config) { exec_config_ = config; }
  const ExecConfig& exec_config() const { return exec_config_; }

  /// Caps the engine memory pool every governed query reserves against
  /// (bytes; default unbounded). Shrinking below current usage only
  /// affects new reservations.
  void set_memory_capacity(size_t bytes) { mem_pool_.set_capacity(bytes); }
  MemoryPool* memory_pool() { return &mem_pool_; }

  /// Governance counters accumulated across governed Execute calls, with
  /// pool gauges (reclaims, peak reserved bytes) sampled at call time.
  /// A typed view over the registry metrics (the counters live there).
  GovernanceStats governance_stats() const;

  /// The engine's metric registry. Every engine-level counter (governance
  /// outcomes, scan/predicate totals, the RNG range-size histogram) lives
  /// here; tests and benches read it through SnapshotMetrics().
  obs::MetricRegistry* metrics() { return &metrics_; }

  /// Point-in-time merge of every engine metric, with pool and cache
  /// gauges sampled at call time. MetricsSnapshot::ToJson() is the one
  /// serialization path (bench/bench_util.h splices ToJsonFields()).
  obs::MetricsSnapshot SnapshotMetrics();

  /// Span tracer / flight recorder shared by every query the engine runs.
  obs::SpanTracer* tracer() { return &tracer_; }

  /// Flight-recorder dump captured when the most recent governed Execute
  /// aborted (cancelled, deadline exceeded, memory rejected, or an
  /// injected fault); empty while the last query succeeded. The dump's
  /// most recent spans name the operator that was executing.
  const std::string& last_abort_dump() const { return last_abort_dump_; }

 private:
  /// Tracer + hot-metric handles + clock applied to every ExecContext
  /// the engine builds, so all execution paths feed the same registry.
  void WireContext(ExecContext* ctx);

  /// Profiled execution + rendering of an unprepared plan (the shared
  /// back half of ExplainAnalyze and the SQL EXPLAIN ANALYZE path).
  /// Writes diagnostics to `run` (never null), not to engine members.
  /// Caller holds the catalog lock (shared).
  /// When `result_rows` is non-null it receives the executed result's row
  /// count (for the planner's estimate-vs-actual feedback).
  /// When `outer_block` is non-null it is the FROM/WHERE block's plan
  /// inside `plan`; `back_half` then receives the threads and morsels of
  /// the GMDJs stacked above it (the select-list subqueries).
  struct BackHalfRun {
    uint64_t threads = 0;
    uint64_t morsels = 0;
  };
  Result<std::string> ExplainAnalyzePlan(PlanPtr plan,
                                         const AnalyzeRenderOptions& options,
                                         QueryRun* run,
                                         size_t* result_rows = nullptr,
                                         const PlanNode* outer_block = nullptr,
                                         BackHalfRun* back_half = nullptr);

  // Lock-free bodies of the public entry points. Each public method
  // takes `catalog_mu_` exactly once and delegates here, so internal
  // calls (e.g. ExecuteSql -> ExecuteLocked) never re-lock — same-thread
  // shared_mutex recursion is undefined behavior.
  Result<Table> ExecuteLocked(const NestedSelect& query, Strategy strategy,
                              const SessionLimits& session, QueryRun* run);
  Status SaveSnapshotLocked(const std::string& dir);

  /// Builds the physical plan for a planner decision: like Plan(), but
  /// honors the decision's completion-placement choice and applies the
  /// pre-Prepare binding hints to every GMDJ node. Caller holds the
  /// catalog lock (shared).
  Result<PlanPtr> PlanForDecision(const NestedSelect& query,
                                  const planner::PlanDecision& decision) const;

  /// ANALYZE statement body: forced stats recollection for one table (or
  /// all when `table` is empty); returns the summary text table.
  Result<Table> AnalyzeTables(const std::string& table);

  Catalog catalog_;
  /// Guards the catalog against online mutation: queries/batches/explains
  /// hold it shared; snapshot save/restore, PutTable and the in-memory
  /// half of AppendRows exclusively.
  mutable std::shared_mutex catalog_mu_;
  /// Serializes catalog writers (AppendRows, PutTable, snapshot save and
  /// restore), so a snapshot marker never falls between a journaled
  /// record and its apply. Taken before `catalog_mu_`, never after.
  std::mutex writer_mu_;
  spill::JournalWriter* journal_ = nullptr;
  uint64_t restored_snapshot_id_ = 0;
  ExecConfig exec_config_;
  ExecStats last_stats_;
  double last_elapsed_ms_ = 0.0;
  std::unique_ptr<GmdjAggCache> agg_cache_;
  std::unique_ptr<spill::SpillManager> spill_manager_;
  MemoryPool mem_pool_;
  stats::StatsCatalog stats_catalog_;
  std::unique_ptr<planner::Planner> planner_;

  obs::MetricRegistry metrics_;
  obs::SpanTracer tracer_;
  std::string last_abort_dump_;
  // Handles resolved once against `metrics_` in the constructor.
  obs::Counter* m_queries_ = nullptr;
  obs::Counter* m_cancellations_ = nullptr;
  obs::Counter* m_deadline_exceeded_ = nullptr;
  obs::Counter* m_mem_rejections_ = nullptr;
  obs::Gauge* g_pool_reclaims_ = nullptr;
  obs::Gauge* g_peak_reserved_ = nullptr;
  HotMetrics hot_metrics_;
};

}  // namespace gmdj

#endif  // GMDJ_ENGINE_OLAP_ENGINE_H_
