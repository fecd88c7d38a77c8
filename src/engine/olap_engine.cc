#include "engine/olap_engine.h"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <numeric>
#include <optional>
#include <utility>

#include "common/fault_injection.h"
#include "common/stopwatch.h"
#include "core/optimizer.h"
#include "core/gmdj.h"
#include "nested/native_eval.h"
#include "spill/journal.h"
#include "spill/snapshot.h"
#include "sql/parser.h"
#include "unnest/unnest.h"

namespace gmdj {

// StrategyToString / AllStrategies / StrategyFromName moved to
// planner/strategy.cc alongside the Strategy enum.

namespace {

NativeOptions NativeOptionsFor(Strategy strategy) {
  NativeOptions options;
  options.smart_termination = strategy != Strategy::kNativeNaive;
  options.use_indexes = strategy == Strategy::kNativeIndexed ||
                        strategy == Strategy::kNativeMemo;
  options.memoize_invariants = strategy == Strategy::kNativeMemo;
  return options;
}

TranslateOptions TranslateOptionsFor(Strategy strategy) {
  if (strategy == Strategy::kGmdjOptimized) {
    return TranslateOptions::Optimized();
  }
  TranslateOptions options = TranslateOptions::Basic();
  if (strategy == Strategy::kGmdjNaive) {
    options.strategy = GmdjStrategy::kNaive;
  }
  return options;
}

/// Applies `fn` to every GMDJ node of an owned plan tree. children()
/// exposes const pointers for traversal, but the caller owns the root, so
/// handing out mutable nodes for planner hints is sound.
void ForEachGmdjNode(PlanNode* root, const std::function<void(GmdjNode*)>& fn) {
  if (auto* node = dynamic_cast<GmdjNode*>(root)) fn(node);
  for (const PlanNode* child : root->children()) {
    if (child != nullptr) ForEachGmdjNode(const_cast<PlanNode*>(child), fn);
  }
}

int DispatchRank(CondStrategy s) {
  switch (s) {
    case CondStrategy::kHash:
      return 0;
    case CondStrategy::kInterval:
      return 1;
    case CondStrategy::kScan:
      return 2;
  }
  return 3;
}

/// Post-Prepare planner hint: probe conditions in dispatch-cost order
/// (hash < interval < scan), so cheap indexed conditions discard/freeze
/// base tuples before scan-dispatch conditions pay per-pair work.
/// Result-identical — only the runtime evaluation order changes.
void ApplyEvalOrderHints(PlanNode* root) {
  ForEachGmdjNode(root, [](GmdjNode* node) {
    const size_t n = node->num_conditions();
    if (n < 2) return;
    std::vector<size_t> order(n);
    std::iota(order.begin(), order.end(), size_t{0});
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return DispatchRank(node->condition_strategy(a)) <
             DispatchRank(node->condition_strategy(b));
    });
    node->SetEvalOrder(std::move(order));
  });
}

bool IsGmdjFamily(Strategy s) {
  return s == Strategy::kGmdjNaive || s == Strategy::kGmdj ||
         s == Strategy::kGmdjOptimized;
}

}  // namespace

OlapEngine::OlapEngine() {
  // Resolve every registry handle once; recording afterwards is lock-free.
  m_queries_ = metrics_.GetCounter("engine.queries");
  m_cancellations_ = metrics_.GetCounter("governance.cancellations");
  m_deadline_exceeded_ = metrics_.GetCounter("governance.deadline_exceeded");
  m_mem_rejections_ = metrics_.GetCounter("governance.mem_rejections");
  g_pool_reclaims_ = metrics_.GetGauge("pool.reclaims");
  g_peak_reserved_ = metrics_.GetGauge("pool.peak_reserved_bytes");
  // Pre-register the sampled cache gauges so snapshots always carry them
  // (zero while the cache is disabled).
  metrics_.GetGauge("mqo.cache_bytes");
  metrics_.GetGauge("mqo.cache_entries");
  metrics_.GetGauge("mqo.cache_evictions");
  metrics_.GetGauge("mqo.cache_invalidations");
  // Per-query ExecStats folds (RecordQueryStats).
  metrics_.GetCounter("exec.rows_scanned");
  metrics_.GetCounter("exec.predicate_evals");
  metrics_.GetCounter("exec.hash_probes");
  metrics_.GetCounter("exec.gmdj_ops");
  metrics_.GetCounter("exec.morsels");
  metrics_.GetCounter("expr.compiled_conditions");
  metrics_.GetCounter("expr.interpreter_fallbacks");
  metrics_.GetCounter("mqo.cache_hits");
  metrics_.GetCounter("mqo.cache_misses");
  // Spill subsystem feeds (SpillManager resolves the same names when
  // enabled); pre-registered so snapshots always carry them.
  metrics_.GetCounter("spill.bytes_written");
  metrics_.GetCounter("spill.bytes_read");
  metrics_.GetCounter("spill.blocks_written");
  metrics_.GetCounter("spill.blocks_read");
  metrics_.GetCounter("spill.files_created");
  metrics_.GetCounter("spill.partitions");
  metrics_.GetCounter("spill.passes");
  metrics_.GetCounter("spill.queries");
  metrics_.GetCounter("spill.budget_rejections");
  metrics_.GetGauge("spill.bytes_in_use");
  metrics_.GetGauge("spill.open_files");
  // Hot-path handles operators record through (GMDJ_METRIC_* macros).
  hot_metrics_.rows_scanned = metrics_.GetCounter("gmdj.rows_scanned");
  hot_metrics_.predicate_evals = metrics_.GetCounter("gmdj.predicate_evals");
  hot_metrics_.rng_size = metrics_.GetHistogram("gmdj.rng_size");
  // Cost-based planner: resolves Strategy::kAuto against fresh per-table
  // statistics; the enabled default comes from GMDJ_PLANNER.
  planner_ = std::make_unique<planner::Planner>(
      &catalog_, &stats_catalog_, &metrics_, planner::PlannerConfig::FromEnv());
}

void OlapEngine::set_planner_config(planner::PlannerConfig config) {
  planner_ = std::make_unique<planner::Planner>(&catalog_, &stats_catalog_,
                                                &metrics_, std::move(config));
}

Result<planner::PlanDecision> OlapEngine::Decide(const NestedSelect& query) {
  std::shared_lock<std::shared_mutex> lock(catalog_mu_);
  return planner_->Decide(query);
}

void OlapEngine::WireContext(ExecContext* ctx) {
  ctx->set_tracer(&tracer_);
  ctx->set_hot_metrics(hot_metrics_);
}

namespace {

/// Folds one finished query's ExecStats into the engine registry — the
/// single cold-path bridge between per-query counters and the long-lived
/// named metrics (replaces the per-subsystem counter structs benches used
/// to carry around).
void RecordQueryStats(obs::MetricRegistry* metrics, const ExecStats& stats) {
  metrics->GetCounter("exec.rows_scanned")->Add(stats.rows_scanned);
  metrics->GetCounter("exec.predicate_evals")->Add(stats.predicate_evals);
  metrics->GetCounter("exec.hash_probes")->Add(stats.hash_probes);
  metrics->GetCounter("exec.gmdj_ops")->Add(stats.gmdj_ops);
  metrics->GetCounter("exec.morsels")->Add(stats.morsels);
  metrics->GetCounter("expr.compiled_conditions")
      ->Add(stats.compiled_conditions);
  metrics->GetCounter("expr.interpreter_fallbacks")
      ->Add(stats.interpreter_fallbacks);
  metrics->GetCounter("mqo.cache_hits")->Add(stats.cache_hits);
  metrics->GetCounter("mqo.cache_misses")->Add(stats.cache_misses);
}

}  // namespace

Result<PlanPtr> OlapEngine::Plan(const NestedSelect& query,
                                 Strategy strategy) const {
  switch (strategy) {
    case Strategy::kAuto: {
      GMDJ_ASSIGN_OR_RETURN(
          const planner::PlanDecision decision,
          planner_->Decide(query, {.require_plan = true}));
      return PlanForDecision(query, decision);
    }
    case Strategy::kUnnest:
    case Strategy::kUnnestNoIndex: {
      UnnestOptions options;
      options.use_hash_joins = strategy == Strategy::kUnnest;
      return UnnestToJoins(query.Clone(), catalog_, options);
    }
    case Strategy::kGmdjNaive:
    case Strategy::kGmdj:
    case Strategy::kGmdjOptimized:
      return SubqueryToGmdj(query.Clone(), catalog_,
                            TranslateOptionsFor(strategy));
    default:
      return Status::InvalidArgument(
          std::string("strategy has no physical plan: ") +
          StrategyToString(strategy));
  }
}

Result<PlanPtr> OlapEngine::PlanForDecision(
    const NestedSelect& query, const planner::PlanDecision& decision) const {
  if (IsGmdjFamily(decision.strategy)) {
    TranslateOptions options = TranslateOptionsFor(decision.strategy);
    options.completion = options.completion && decision.use_completion;
    GMDJ_ASSIGN_OR_RETURN(PlanPtr plan,
                          SubqueryToGmdj(query.Clone(), catalog_, options));
    if (decision.force_scan_bindings) {
      ForEachGmdjNode(plan.get(), [](GmdjNode* node) {
        node->SetAllowIndexBindings(false);
      });
    }
    return plan;
  }
  return Plan(query, decision.strategy);
}

Result<Table> OlapEngine::Execute(const NestedSelect& query,
                                  Strategy strategy) {
  return Execute(query, strategy, QueryLimits());
}

Result<Table> OlapEngine::Execute(const NestedSelect& query, Strategy strategy,
                                  const QueryLimits& limits) {
  SessionLimits session;
  session.deadline_ms = limits.deadline_ms;
  session.mem_budget_bytes = limits.mem_budget_bytes;
  session.num_threads = limits.num_threads;
  session.cancel = limits.cancel;
  QueryRun run;
  Result<Table> result = Execute(query, strategy, session, &run);
  last_stats_ = run.stats;
  last_elapsed_ms_ = run.elapsed_ms;
  last_abort_dump_ = std::move(run.abort_dump);
  return result;
}

Result<Table> OlapEngine::Execute(const NestedSelect& query, Strategy strategy,
                                  const SessionLimits& session,
                                  QueryRun* run) {
  std::shared_lock<std::shared_mutex> lock(catalog_mu_);
  return ExecuteLocked(query, strategy, session, run);
}

Result<Table> OlapEngine::ExecuteLocked(const NestedSelect& query,
                                        Strategy strategy,
                                        const SessionLimits& session,
                                        QueryRun* run) {
  QueryRun local;
  if (run == nullptr) run = &local;
  Stopwatch watch;
  m_queries_->Add(1);
  // Strategy::kAuto resolves through the cost-based planner before any
  // execution; the decision also carries the execution hints applied
  // below and the estimates fed back after the run.
  std::optional<planner::PlanDecision> decision;
  if (strategy == Strategy::kAuto) {
    auto decided = planner_->Decide(query);
    GMDJ_RETURN_IF_ERROR(decided.status());
    decision = *std::move(decided);
    strategy = decision->strategy;
  }
  // The context lives for exactly one query; its destruction returns every
  // reserved byte to the pool, so error unwinds cannot leak budget.
  QueryContext qctx(session.ToQueryLimits(), &mem_pool_);
  ExecConfig config = exec_config_;
  // An explicit session thread count wins over the planner's choice.
  if (decision.has_value() && decision->num_threads > 0) {
    config.num_threads = decision->num_threads;
  }
  if (session.num_threads > 0) config.num_threads = session.num_threads;
  const uint32_t query_span =
      tracer_.Start("query", obs::SpanTracer::kNoSpan,
                    StrategyToString(strategy));
  Result<Table> result = [&]() -> Result<Table> {
    GMDJ_RETURN_IF_ERROR(GMDJ_FAULT_POINT("engine/execute"));
    switch (strategy) {
      case Strategy::kNativeNaive:
      case Strategy::kNativeSmart:
      case Strategy::kNativeIndexed:
      case Strategy::kNativeMemo: {
        // The native interpreters predate governance plumbing; they honor
        // admission-time cancellation/deadline but do not poll mid-run.
        GMDJ_RETURN_IF_ERROR(qctx.CheckAlive());
        NativeEvaluator evaluator(&catalog_, NativeOptionsFor(strategy));
        std::unique_ptr<NestedSelect> clone = query.Clone();
        auto native = evaluator.Run(clone.get());
        run->stats = evaluator.stats();
        return native;
      }
      default: {
        PlanPtr plan;
        if (decision.has_value()) {
          GMDJ_ASSIGN_OR_RETURN(plan, PlanForDecision(query, *decision));
        } else {
          GMDJ_ASSIGN_OR_RETURN(plan, Plan(query, strategy));
        }
        GMDJ_RETURN_IF_ERROR(plan->Prepare(catalog_));
        if (decision.has_value() && decision->reorder_conditions) {
          ApplyEvalOrderHints(plan.get());
        }
        ExecContext ctx(&catalog_, config);
        ctx.set_gmdj_cache(agg_cache_.get());
        ctx.set_query_ctx(&qctx);
        WireContext(&ctx);
        ctx.set_current_span(query_span);
        // The scope (and the spill files of any operator that degraded)
        // lives exactly as long as this query's execution.
        std::unique_ptr<spill::SpillScope> spill_scope;
        if (spill_manager_ != nullptr) {
          spill_scope = spill_manager_->CreateScope(StrategyToString(strategy));
          ctx.set_spill(spill_scope.get());
        }
        auto planned = plan->Execute(&ctx);
        run->stats = ctx.stats();
        if (agg_cache_ != nullptr) {
          const GmdjAggCache::Stats cache_stats = agg_cache_->stats();
          run->stats.cache_evictions = cache_stats.evictions;
          run->stats.cache_invalidations = cache_stats.invalidations;
          run->stats.cache_bytes = cache_stats.bytes;
        }
        return planned;
      }
    }
  }();
  tracer_.End(query_span);
  run->elapsed_ms = watch.ElapsedMillis();
  RecordQueryStats(&metrics_, run->stats);
  switch (result.status().code()) {
    case StatusCode::kCancelled:
      m_cancellations_->Add(1);
      break;
    case StatusCode::kDeadlineExceeded:
      m_deadline_exceeded_->Add(1);
      break;
    case StatusCode::kResourceExhausted:
      m_mem_rejections_->Add(1);
      break;
    default:
      break;
  }
  if (result.ok() && decision.has_value()) {
    // Close the adaptive loop: estimate-vs-actual under the decision's
    // plan signature; a >replan_factor miss re-optimizes the next run.
    planner_->RecordActuals(*decision,
                            static_cast<double>(result->num_rows()));
  }
  if (result.ok()) {
    run->abort_dump.clear();
  } else {
    // Post-mortem: the ring's most recent spans name the operators that
    // were executing (and any fault/abort events they left) when the
    // query died — captured before the next query overwrites the ring.
    run->abort_dump = tracer_.Dump();
  }
  return result;
}

GovernanceStats OlapEngine::governance_stats() const {
  GovernanceStats stats;
  stats.cancellations = m_cancellations_->Total();
  stats.deadline_exceeded = m_deadline_exceeded_->Total();
  stats.mem_rejections = m_mem_rejections_->Total();
  stats.pool_reclaims = mem_pool_.reclaims();
  stats.peak_reserved_bytes = mem_pool_.peak_reserved();
  return stats;
}

obs::MetricsSnapshot OlapEngine::SnapshotMetrics() {
  // Sample the point-in-time gauges, then merge every counter/histogram.
  g_pool_reclaims_->Set(static_cast<int64_t>(mem_pool_.reclaims()));
  g_peak_reserved_->Set(static_cast<int64_t>(mem_pool_.peak_reserved()));
  if (agg_cache_ != nullptr) {
    const GmdjAggCache::Stats cache = agg_cache_->stats();
    metrics_.GetGauge("mqo.cache_bytes")
        ->Set(static_cast<int64_t>(cache.bytes));
    metrics_.GetGauge("mqo.cache_entries")
        ->Set(static_cast<int64_t>(cache.entries));
    metrics_.GetGauge("mqo.cache_evictions")
        ->Set(static_cast<int64_t>(cache.evictions));
    metrics_.GetGauge("mqo.cache_invalidations")
        ->Set(static_cast<int64_t>(cache.invalidations));
  }
  return metrics_.Snapshot();
}

void OlapEngine::EnableAggCache(GmdjAggCacheConfig config) {
  agg_cache_ = std::make_unique<GmdjAggCache>(config);
  // Cache-before-query shedding: the cache charges its resident bytes to
  // the pool, and pool pressure evicts cached aggregates (recomputable)
  // before rejecting a live query's reservation.
  agg_cache_->set_memory_pool(&mem_pool_);
  mem_pool_.set_reclaimer(
      [cache = agg_cache_.get()](size_t want) { return cache->ShedBytes(want); });
}

void OlapEngine::DisableAggCache() {
  // Drop the reclaimer first; it captures the cache being destroyed.
  mem_pool_.set_reclaimer(nullptr);
  agg_cache_.reset();
}

void OlapEngine::EnableSpill(spill::SpillConfig config) {
  spill_manager_ = std::make_unique<spill::SpillManager>(std::move(config),
                                                         &metrics_);
}

void OlapEngine::DisableSpill() { spill_manager_.reset(); }

Status OlapEngine::SaveSnapshot(const std::string& dir) {
  std::lock_guard<std::mutex> writer(writer_mu_);
  std::unique_lock<std::shared_mutex> lock(catalog_mu_);
  return SaveSnapshotLocked(dir);
}

Status OlapEngine::SaveSnapshotLocked(const std::string& dir) {
  // Marker-before-publish protocol (spill/journal.h): the journal gets a
  // durable marker carrying this snapshot's id, the snapshot publishes
  // with the same id in its MANIFEST, and only then is the journal
  // truncated. Replay skips records before the marker iff the restored
  // snapshot carries the matching id, so a crash — or a plain truncate
  // failure — anywhere in this sequence never double-applies journaled
  // rows the snapshot already contains, and never drops acknowledged
  // rows a failed publish left uncovered.
  uint64_t snapshot_id = 0;
  if (journal_ != nullptr) {
    snapshot_id = spill::GenerateSnapshotId();
    GMDJ_RETURN_IF_ERROR(journal_->AppendSnapshotMarker(snapshot_id));
  }
  GMDJ_RETURN_IF_ERROR(spill::SaveSnapshot(catalog_, dir, snapshot_id));
  if (journal_ != nullptr) GMDJ_RETURN_IF_ERROR(journal_->Truncate());
  return Status::OK();
}

Status OlapEngine::RestoreSnapshot(const std::string& dir) {
  std::lock_guard<std::mutex> writer(writer_mu_);
  std::unique_lock<std::shared_mutex> lock(catalog_mu_);
  uint64_t snapshot_id = 0;
  GMDJ_RETURN_IF_ERROR(spill::RestoreSnapshot(&catalog_, dir, &snapshot_id));
  restored_snapshot_id_ = snapshot_id;
  return Status::OK();
}

Status OlapEngine::AppendRows(const std::string& name, std::vector<Row> rows) {
  std::lock_guard<std::mutex> writer(writer_mu_);
  std::vector<Column> staged;
  {
    // Check and journal with the catalog lock shared: reads go on during
    // the fsync, and no other writer can change the table meanwhile.
    std::shared_lock<std::shared_mutex> lock(catalog_mu_);
    GMDJ_ASSIGN_OR_RETURN(const Table* table, catalog_.GetTable(name));
    const Schema& schema = table->schema();
    const size_t width = schema.num_fields();
    for (const Row& row : rows) {
      if (row.size() != width) {
        return Status::InvalidArgument(
            "INSERT row has " + std::to_string(row.size()) +
            " values, table '" + name + "' has " + std::to_string(width) +
            " columns");
      }
      for (size_t c = 0; c < row.size(); ++c) {
        if (!table->column(c).Accepts(row[c])) {
          return Status::InvalidArgument(
              "INSERT value for column '" +
              table->schema().field(c).QualifiedName() + "' has type " +
              ValueTypeToString(row[c].type()) + ", expected " +
              ValueTypeToString(table->schema().field(c).type));
        }
      }
    }
    // The rows, staged as typed columns: the journal encodes them and the
    // table appends them.
    staged.reserve(width);
    for (size_t c = 0; c < width; ++c) {
      Column& col = staged.emplace_back(schema.field(c).type);
      col.Reserve(rows.size());
      for (Row& row : rows) col.Append(std::move(row[c]));
    }
    // Write-ahead: journal + fsync before the in-memory apply, so a crash
    // after the caller's ack replays to exactly the acknowledged state. A
    // journal failure leaves the catalog untouched (and at worst a torn
    // tail on disk, which recovery drops).
    if (journal_ != nullptr && !rows.empty()) {
      GMDJ_ASSIGN_OR_RETURN(const Table block,
                            Table::FromColumns(schema, staged));
      GMDJ_RETURN_IF_ERROR(journal_->AppendRows(name, block));
    }
  }
  std::unique_lock<std::shared_mutex> lock(catalog_mu_);
  GMDJ_ASSIGN_OR_RETURN(Table * table, catalog_.GetMutableTable(name));
  metrics_.GetCounter("engine.inserted_rows")
      ->Add(static_cast<int64_t>(rows.size()));
  return table->AppendColumns(std::move(staged));
}

void OlapEngine::PutTable(const std::string& name, Table table) {
  std::lock_guard<std::mutex> writer(writer_mu_);
  std::unique_lock<std::shared_mutex> lock(catalog_mu_);
  catalog_.PutTable(name, std::move(table));
}

namespace {

/// Stacks one GMDJ per select-list aggregate subquery on top of `plan`,
/// coalesces them, and applies the statement's projection list. Shared by
/// the regular ExecuteSql path (where `plan` is the materialized
/// qualifying rows) and the EXPLAIN [ANALYZE] path (where `plan` is the
/// base query's physical plan, so the whole statement renders as one
/// tree).
Result<PlanPtr> ApplySqlOutput(PlanPtr plan, SqlStatement* statement) {
  if (!statement->select_subqueries.empty()) {
    // Select-list aggregate subqueries: one GMDJ condition each over the
    // qualifying rows, then coalesced by the optimizer so subqueries over
    // the same detail table share a single scan (the paper's Example 2.1
    // evaluation). The subqueries' correlation predicates become the θ
    // conditions directly.
    for (SelectSubquery& entry : statement->select_subqueries) {
      NestedSelect& sub = *entry.sub;
      if (sub.where != nullptr) {
        // Nested subqueries inside a select-list subquery are out of
        // scope; PredTreeToExpr reports them cleanly.
      }
      ExprPtr theta;
      if (sub.where != nullptr) {
        GMDJ_ASSIGN_OR_RETURN(theta, PredTreeToExpr(*sub.where));
      }
      std::vector<GmdjCondition> conditions;
      GmdjCondition cond;
      cond.theta = std::move(theta);
      cond.aggs.push_back(sub.select_agg->Clone());
      conditions.push_back(std::move(cond));
      plan = std::make_unique<GmdjNode>(std::move(plan), sub.SourcePlan(),
                                        std::move(conditions));
    }
    OptimizeOptions optimize;
    optimize.completion = false;  // No selection above these GMDJs.
    plan = OptimizeGmdjPlan(std::move(plan), optimize);
  }
  if (!statement->projections.empty()) {
    plan = std::make_unique<ProjectNode>(std::move(plan),
                                         std::move(statement->projections));
  }
  return plan;
}

/// Wraps rendered plan text as the result table of an EXPLAIN statement:
/// one string column "plan", one row per line.
Table PlanTextTable(const std::string& text) {
  Schema schema;
  schema.AddField(Field{"plan", ValueType::kString, ""});
  Table out(schema);
  size_t start = 0;
  while (start <= text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    if (end > start) {
      out.AppendRow({Value(text.substr(start, end - start))});
    }
    start = end + 1;
  }
  return out;
}

/// The estimate-vs-actual line EXPLAIN ANALYZE appends under kAuto. The
/// error factor is symmetric (max/min, both clamped to >= 1 row) so a 10x
/// under- and a 10x over-estimate read the same.
std::string EstimateVsActualLine(const planner::PlanDecision& decision,
                                 size_t actual_rows,
                                 std::string_view label = "planner") {
  const double est = std::max(decision.est_result_rows, 1.0);
  const double act = std::max(static_cast<double>(actual_rows), 1.0);
  const double error = std::max(est, act) / std::min(est, act);
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                ": estimated_rows=%.0f actual_rows=%zu error=%.1fx",
                decision.est_result_rows, actual_rows, error);
  return std::string(label) + buf;
}

}  // namespace

Result<Table> OlapEngine::ExecuteSql(std::string_view sql,
                                     Strategy strategy) {
  QueryRun run;
  Result<Table> result = ExecuteSql(sql, strategy, SessionLimits(), &run);
  last_stats_ = run.stats;
  last_elapsed_ms_ = run.elapsed_ms;
  last_abort_dump_ = std::move(run.abort_dump);
  return result;
}

Result<Table> OlapEngine::ExecuteSql(std::string_view sql, Strategy strategy,
                                     const SessionLimits& session,
                                     QueryRun* run) {
  GMDJ_ASSIGN_OR_RETURN(SqlStatement statement, ParseStatement(sql));
  return ExecuteStatement(std::move(statement), strategy, session, run);
}

Result<Table> OlapEngine::ExecuteStatement(SqlStatement statement,
                                           Strategy strategy,
                                           const SessionLimits& session,
                                           QueryRun* run) {
  QueryRun local;
  if (run == nullptr) run = &local;
  if (statement.kind == SqlStatement::Kind::kInsert) {
    Stopwatch insert_watch;
    const size_t num_rows = statement.insert_rows.size();
    GMDJ_RETURN_IF_ERROR(AppendRows(statement.insert_table,
                                    std::move(statement.insert_rows)));
    run->elapsed_ms = insert_watch.ElapsedMillis();
    return PlanTextTable("inserted " + std::to_string(num_rows) +
                         " rows into " + statement.insert_table);
  }
  if (statement.kind == SqlStatement::Kind::kAnalyze) {
    Stopwatch analyze_watch;
    Result<Table> analyzed = AnalyzeTables(statement.analyze_table);
    run->elapsed_ms = analyze_watch.ElapsedMillis();
    return analyzed;
  }
  if (statement.kind != SqlStatement::Kind::kSelect) {
    const bool saving = statement.kind == SqlStatement::Kind::kSaveSnapshot;
    Stopwatch snapshot_watch;
    GMDJ_RETURN_IF_ERROR(saving ? SaveSnapshot(statement.snapshot_dir)
                                : RestoreSnapshot(statement.snapshot_dir));
    run->elapsed_ms = snapshot_watch.ElapsedMillis();
    return PlanTextTable(
        std::string(saving ? "saved snapshot to " : "restored snapshot from ") +
        statement.snapshot_dir + " (" +
        std::to_string(catalog_.TableNames().size()) + " tables)");
  }
  // Read path: hold the catalog lock shared for the whole statement —
  // the base execution and the projection back half both read catalog_.
  std::shared_lock<std::shared_mutex> lock(catalog_mu_);
  if (statement.explain != SqlStatement::ExplainMode::kNone) {
    switch (strategy) {
      case Strategy::kNativeNaive:
      case Strategy::kNativeSmart:
      case Strategy::kNativeIndexed:
      case Strategy::kNativeMemo:
        return Status::InvalidArgument(
            std::string("EXPLAIN requires a plan-based strategy: ") +
            StrategyToString(strategy));
      default:
        break;
    }
    // Under kAuto the planner decision is surfaced in the rendered plan:
    // its summary/rationale lines lead the output, and EXPLAIN ANALYZE
    // appends estimated-vs-actual cardinalities and feeds the actuals
    // back into the adaptive loop.
    std::optional<planner::PlanDecision> decision;
    PlanPtr plan;
    if (strategy == Strategy::kAuto) {
      auto decided = planner_->Decide(*statement.select, {.require_plan = true});
      GMDJ_RETURN_IF_ERROR(decided.status());
      decision = *std::move(decided);
      GMDJ_ASSIGN_OR_RETURN(plan,
                            PlanForDecision(*statement.select, *decision));
    } else {
      GMDJ_ASSIGN_OR_RETURN(plan, Plan(*statement.select, strategy));
    }
    const PlanNode* outer_block = plan.get();
    const bool select_list = !statement.select_subqueries.empty();
    GMDJ_ASSIGN_OR_RETURN(plan, ApplySqlOutput(std::move(plan), &statement));
    if (statement.explain == SqlStatement::ExplainMode::kAnalyze) {
      size_t result_rows = 0;
      BackHalfRun back_half;
      GMDJ_ASSIGN_OR_RETURN(
          std::string text,
          ExplainAnalyzePlan(std::move(plan), {}, run, &result_rows,
                             select_list ? outer_block : nullptr,
                             &back_half));
      if (decision.has_value()) {
        // With select-list subqueries the planner decided the FROM/WHERE
        // block only; the GMDJs above it report their own threads.
        const std::string_view label =
            select_list ? "planner (outer block)" : "planner";
        std::string summary = decision->Summary(label);
        if (select_list) {
          summary += "\nselect-list gmdj: threads=" +
                     std::to_string(back_half.threads) +
                     (back_half.morsels == 0
                          ? std::string(" sequential")
                          : " morsels=" + std::to_string(back_half.morsels));
        }
        text = summary + "\n" + text + "\n" +
               EstimateVsActualLine(*decision, result_rows, label);
        planner_->RecordActuals(*decision, static_cast<double>(result_rows));
      }
      return PlanTextTable(text);
    }
    GMDJ_RETURN_IF_ERROR(plan->Prepare(catalog_));
    std::string text = plan->ToString();
    if (decision.has_value()) text = decision->Summary() + "\n" + text;
    return PlanTextTable(text);
  }

  GMDJ_ASSIGN_OR_RETURN(
      Table rows, ExecuteLocked(*statement.select, strategy, session, run));
  if (statement.projections.empty()) return rows;

  // The projection / select-list-subquery back half is governed by its
  // own context (cancellation and memory caps still apply; the deadline
  // clock restarts for this bounded, already-filtered step).
  QueryContext qctx(session.ToQueryLimits(), &mem_pool_);
  ExecConfig config = exec_config_;
  if (session.num_threads > 0) config.num_threads = session.num_threads;
  PlanPtr plan = std::make_unique<ValuesNode>(std::move(rows));
  GMDJ_ASSIGN_OR_RETURN(plan, ApplySqlOutput(std::move(plan), &statement));
  GMDJ_RETURN_IF_ERROR(plan->Prepare(catalog_));
  ExecContext ctx(&catalog_, config);
  ctx.set_query_ctx(&qctx);
  WireContext(&ctx);
  std::unique_ptr<spill::SpillScope> spill_scope;
  if (spill_manager_ != nullptr) {
    spill_scope = spill_manager_->CreateScope("sql-output");
    ctx.set_spill(spill_scope.get());
  }
  auto result = plan->Execute(&ctx);
  run->stats.Add(ctx.stats());
  RecordQueryStats(&metrics_, ctx.stats());
  return result;
}

Result<std::string> OlapEngine::Explain(const NestedSelect& query,
                                        Strategy strategy) {
  std::shared_lock<std::shared_mutex> lock(catalog_mu_);
  switch (strategy) {
    case Strategy::kNativeNaive:
    case Strategy::kNativeSmart:
    case Strategy::kNativeIndexed:
    case Strategy::kNativeMemo:
      return std::string(StrategyToString(strategy)) +
             " (tuple iteration over): " + query.ToString();
    case Strategy::kAuto: {
      GMDJ_ASSIGN_OR_RETURN(const planner::PlanDecision decision,
                            planner_->Decide(query, {.require_plan = true}));
      GMDJ_ASSIGN_OR_RETURN(PlanPtr plan, PlanForDecision(query, decision));
      GMDJ_RETURN_IF_ERROR(plan->Prepare(catalog_));
      return decision.Summary() + "\n" + plan->ToString();
    }
    default: {
      GMDJ_ASSIGN_OR_RETURN(PlanPtr plan, Plan(query, strategy));
      GMDJ_RETURN_IF_ERROR(plan->Prepare(catalog_));
      return plan->ToString();
    }
  }
}

Result<std::string> OlapEngine::ExplainAnalyze(
    const NestedSelect& query, Strategy strategy,
    const AnalyzeRenderOptions& options) {
  switch (strategy) {
    case Strategy::kNativeNaive:
    case Strategy::kNativeSmart:
    case Strategy::kNativeIndexed:
    case Strategy::kNativeMemo:
      return Status::InvalidArgument(
          std::string("EXPLAIN ANALYZE requires a plan-based strategy: ") +
          StrategyToString(strategy));
    default:
      break;
  }
  std::shared_lock<std::shared_mutex> lock(catalog_mu_);
  std::optional<planner::PlanDecision> decision;
  PlanPtr plan;
  if (strategy == Strategy::kAuto) {
    auto decided = planner_->Decide(query, {.require_plan = true});
    GMDJ_RETURN_IF_ERROR(decided.status());
    decision = *std::move(decided);
    GMDJ_ASSIGN_OR_RETURN(plan, PlanForDecision(query, *decision));
  } else {
    GMDJ_ASSIGN_OR_RETURN(plan, Plan(query, strategy));
  }
  QueryRun run;
  size_t result_rows = 0;
  Result<std::string> rendered =
      ExplainAnalyzePlan(std::move(plan), options, &run, &result_rows);
  last_stats_ = run.stats;
  last_elapsed_ms_ = run.elapsed_ms;
  if (rendered.ok() && decision.has_value()) {
    planner_->RecordActuals(*decision, static_cast<double>(result_rows));
    return decision->Summary() + "\n" + *rendered + "\n" +
           EstimateVsActualLine(*decision, result_rows);
  }
  return rendered;
}

Result<std::string> OlapEngine::ExplainAnalyzePlan(
    PlanPtr plan, const AnalyzeRenderOptions& options, QueryRun* run,
    size_t* result_rows, const PlanNode* outer_block, BackHalfRun* back_half) {
  Stopwatch watch;
  m_queries_->Add(1);
  const obs::Clock& clock = tracer_.clock();
  const uint64_t prepare_start = clock.NowNanos();
  GMDJ_RETURN_IF_ERROR(plan->Prepare(catalog_));
  const uint64_t prepare_nanos = clock.NowNanos() - prepare_start;

  obs::PlanProfile profile;
  ExecContext ctx(&catalog_, exec_config_);
  ctx.set_gmdj_cache(agg_cache_.get());
  WireContext(&ctx);
  std::unique_ptr<spill::SpillScope> spill_scope;
  if (spill_manager_ != nullptr) {
    spill_scope = spill_manager_->CreateScope("explain-analyze");
    ctx.set_spill(spill_scope.get());
  }
  ctx.set_profile(&profile);
  const uint32_t span = tracer_.Start("explain-analyze");
  ctx.set_current_span(span);
  Result<Table> executed = plan->Execute(&ctx);
  tracer_.End(span);
  run->stats = ctx.stats();
  run->elapsed_ms = watch.ElapsedMillis();
  RecordQueryStats(&metrics_, ctx.stats());
  GMDJ_RETURN_IF_ERROR(executed.status());
  if (result_rows != nullptr) *result_rows = executed->num_rows();
  // Whole-plan Prepare cost (binding, index builds deferred to Execute
  // excluded) lands on the root operator; per-operator Execute phases are
  // timed exclusively by their OpScopes.
  profile.Stats(plan.get())->prepare_nanos += prepare_nanos;
  if (outer_block != nullptr && back_half != nullptr) {
    // Walk the back half: every node above the outer block.
    std::vector<const PlanNode*> stack = {plan.get()};
    while (!stack.empty()) {
      const PlanNode* node = stack.back();
      stack.pop_back();
      if (node == outer_block) continue;
      if (dynamic_cast<const GmdjNode*>(node) != nullptr) {
        const obs::OperatorStats* os = profile.Stats(node);
        back_half->threads = std::max(back_half->threads, os->threads);
        back_half->morsels += os->morsels;
      }
      for (const PlanNode* child : node->children()) stack.push_back(child);
    }
  }
  return RenderAnalyzedPlan(*plan, profile, options);
}

Result<Table> OlapEngine::AnalyzeTables(const std::string& table) {
  std::shared_lock<std::shared_mutex> lock(catalog_mu_);
  std::vector<std::string> names;
  if (table.empty()) {
    names = catalog_.TableNames();
  } else {
    names.push_back(table);
  }
  std::string text;
  for (const std::string& name : names) {
    std::shared_ptr<const stats::TableStats> tstats =
        stats_catalog_.Analyze(catalog_, name);
    if (tstats == nullptr) {
      return Status::InvalidArgument("ANALYZE: unknown table '" + name + "'");
    }
    text += tstats->ToString();
    if (!text.empty() && text.back() != '\n') text += "\n";
  }
  if (text.empty()) text = "analyzed 0 tables";
  return PlanTextTable(text);
}

Result<Table> OlapEngine::Project(const Table& input,
                                  std::vector<ProjItem> items) {
  std::shared_lock<std::shared_mutex> lock(catalog_mu_);
  PlanPtr plan = std::make_unique<ValuesNode>(input);
  plan = std::make_unique<ProjectNode>(std::move(plan), std::move(items));
  GMDJ_RETURN_IF_ERROR(plan->Prepare(catalog_));
  ExecContext ctx(&catalog_, exec_config_);
  WireContext(&ctx);
  return plan->Execute(&ctx);
}

}  // namespace gmdj
