#ifndef GMDJ_PLANNER_PLANNER_H_
#define GMDJ_PLANNER_PLANNER_H_

#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "nested/nested_ast.h"
#include "obs/metrics.h"
#include "planner/cost_model.h"
#include "planner/query_shape.h"
#include "planner/strategy.h"
#include "stats/stats_catalog.h"
#include "storage/catalog.h"

namespace gmdj {
namespace planner {

/// Planner knobs. The defaults come from the environment once per
/// construction (FromEnv); tests override per engine so a single process
/// can run planner-on and planner-off engines side by side for the
/// differential gate.
struct PlannerConfig {
  /// Master switch: false reproduces the static pre-planner behavior
  /// (every Strategy::kAuto resolves to `fallback`, no hints, no
  /// feedback). Default read from GMDJ_PLANNER (off/0/false disable).
  bool enabled = true;
  /// Estimated-vs-actual result-row ratio beyond which the planner
  /// records the actual and re-optimizes the plan signature.
  double replan_factor = 10.0;
  /// Base row count at or below which hash/interval index builds on the
  /// base cannot amortize: bindings are forced to scan dispatch.
  double small_base_index_threshold = 16;
  /// Estimated total row work (base + inner rows) below which morsel
  /// parallelism is not worth pool overhead: run single-threaded.
  double sequential_threshold = 8192;
  /// Estimated selectivity at or above which base-tuple completion is
  /// skipped (almost nothing would be pruned early).
  double completion_selectivity_cutoff = 0.98;
  /// Strategy used when the planner is disabled.
  Strategy fallback = Strategy::kGmdjOptimized;

  /// Defaults with `enabled` resolved from the GMDJ_PLANNER environment
  /// variable ("off" / "0" / "false", case-insensitive, disable).
  static PlannerConfig FromEnv();
};

/// One query's planning outcome: the chosen strategy, the execution hints
/// the engine applies, and the estimates the adaptive loop later compares
/// with actuals.
struct PlanDecision {
  Strategy strategy = Strategy::kGmdjOptimized;
  std::string rationale;          // One line: what dominated the choice.
  int num_threads = 0;            // 0 = inherit the engine config.
  bool reorder_conditions = false;  // Sort GMDJ probe order by dispatch cost.
  bool force_scan_bindings = false;  // Tiny base: no index builds.
  bool use_completion = true;     // Completion-check placement.
  double est_base_rows = 0;
  double est_result_rows = 0;     // Compared against actuals post-run.
  double est_cost = 0;
  std::string signature;          // Feedback key; empty = not recorded.
  bool replanned = false;         // Estimates corrected from actuals.
  /// Every concrete strategy's estimate, sorted cheapest first.
  std::vector<StrategyCostEstimate> estimates;

  /// "planner: strategy=... est_rows=... | rationale" lines prepended to
  /// EXPLAIN output (and shown by the shell); `label` replaces "planner".
  std::string Summary(std::string_view label = "planner") const;
};

/// Cost-based adaptive planner: consumes per-column statistics
/// (src/stats/) to choose the evaluation strategy, GMDJ binding strategy
/// and condition order, morsel thread count, and completion placement —
/// and closes the loop by recording EXPLAIN ANALYZE actuals keyed by plan
/// signature, re-optimizing any signature whose estimate missed by more
/// than `replan_factor`.
///
/// Repeat queries do not re-run the cost model: decisions are cached by
/// query text and validated against the version counters of every table
/// the query references, so any INSERT / PutTable / RESTORE that touches
/// a referenced table (or a newly recorded feedback miss) transparently
/// forces a re-plan.
///
/// Metrics (in the registry passed at construction):
///   planner.decisions            Decide calls that ran the cost model.
///   planner.plan_cache_hits      Decide calls served from the plan cache.
///   planner.replans              >replan_factor misses recorded.
///   planner.feedback_hits        decisions corrected from actuals.
///   planner.estimate_error_log2  histogram of |log2(actual/estimate)|.
///
/// Thread-safe: Decide and RecordActuals may race from concurrent
/// queries (the feedback store has its own mutex; the StatsCatalog its
/// own). Callers must hold the engine catalog lock (shared) so table
/// reads during stats collection are stable.
class Planner {
 public:
  Planner(const Catalog* catalog, stats::StatsCatalog* stats,
          obs::MetricRegistry* metrics, PlannerConfig config);

  struct DecideOptions {
    /// Restrict the choice to plan-based strategies (EXPLAIN paths — the
    /// native interpreters have no physical plan to render).
    bool require_plan = false;
  };

  /// Plans `query`: binds a clone, collects its shape against fresh
  /// statistics, costs every concrete strategy, and derives the hints.
  /// With the planner disabled, returns the static fallback immediately
  /// (no statistics are touched — the full ablation).
  Result<PlanDecision> Decide(const NestedSelect& query,
                              const DecideOptions& options) const;
  Result<PlanDecision> Decide(const NestedSelect& query) const {
    return Decide(query, DecideOptions());
  }

  /// Feeds one execution's actual result row count back. On a
  /// >replan_factor miss the actual is recorded under the decision's
  /// signature and the next Decide for the same signature re-optimizes
  /// with corrected cardinality. No-op for decisions without a signature
  /// (disabled planner).
  void RecordActuals(const PlanDecision& decision, double actual_rows) const;

  const PlannerConfig& config() const { return config_; }
  void set_config(PlannerConfig config) {
    config_ = std::move(config);
    // Cached decisions embed threshold-derived hints: drop them.
    std::lock_guard<std::mutex> lock(mu_);
    plan_cache_.clear();
  }

 private:
  /// A cached decision plus the (table, version) snapshot it was planned
  /// against; served only while every referenced table is unchanged and
  /// the feedback store agrees with the cached estimates.
  struct CachedPlan {
    PlanDecision decision;
    std::vector<std::pair<std::string, TableVersion>> deps;
  };

  /// Whether `entry` may be served as-is. Requires `mu_` held.
  bool CacheEntryFresh(const CachedPlan& entry) const;

  const Catalog* catalog_;
  stats::StatsCatalog* stats_;
  PlannerConfig config_;

  obs::Counter* decisions_;
  obs::Counter* plan_cache_hits_;
  obs::Counter* replans_;
  obs::Counter* feedback_hits_;
  obs::Histogram* estimate_error_log2_;

  /// Actual result rows recorded per plan signature after a miss, and the
  /// version-checked plan cache; both guarded by `mu_`.
  mutable std::mutex mu_;
  mutable std::map<std::string, double> feedback_;
  mutable std::map<std::string, CachedPlan> plan_cache_;
};

}  // namespace planner
}  // namespace gmdj

#endif  // GMDJ_PLANNER_PLANNER_H_
