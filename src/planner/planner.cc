#include "planner/planner.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

namespace gmdj {
namespace planner {
namespace {

/// Bound on cached plan decisions; past it the whole cache is dropped
/// (decisions are cheap to recompute — the cap only bounds memory under
/// adversarial workloads like the query fuzzer).
constexpr size_t kPlanCacheCapacity = 256;

bool IsNativeStrategy(Strategy s) {
  switch (s) {
    case Strategy::kNativeNaive:
    case Strategy::kNativeSmart:
    case Strategy::kNativeIndexed:
    case Strategy::kNativeMemo:
      return true;
    default:
      return false;
  }
}

bool IsGmdjFamily(Strategy s) {
  return s == Strategy::kGmdjNaive || s == Strategy::kGmdj ||
         s == Strategy::kGmdjOptimized;
}

std::string FormatRows(double rows) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.0f", rows);
  return buf;
}

}  // namespace

PlannerConfig PlannerConfig::FromEnv() {
  PlannerConfig config;
  const char* env = std::getenv("GMDJ_PLANNER");
  if (env != nullptr) {
    std::string value(env);
    for (char& c : value) c = static_cast<char>(std::tolower(c));
    if (value == "off" || value == "0" || value == "false") {
      config.enabled = false;
    }
  }
  return config;
}

std::string PlanDecision::Summary(std::string_view label) const {
  std::ostringstream out;
  out << label << ": strategy=" << StrategyToString(strategy);
  if (!signature.empty()) {
    out << " cost=" << FormatRows(est_cost)
        << " est_rows=" << FormatRows(est_result_rows)
        << " threads=" << (num_threads == 0 ? std::string("auto")
                                            : std::to_string(num_threads));
    if (replanned) out << " replanned=yes";
  }
  out << "\n" << label << ": " << rationale;
  return out.str();
}

Planner::Planner(const Catalog* catalog, stats::StatsCatalog* stats,
                 obs::MetricRegistry* metrics, PlannerConfig config)
    : catalog_(catalog),
      stats_(stats),
      config_(std::move(config)),
      decisions_(metrics->GetCounter("planner.decisions")),
      plan_cache_hits_(metrics->GetCounter("planner.plan_cache_hits")),
      replans_(metrics->GetCounter("planner.replans")),
      feedback_hits_(metrics->GetCounter("planner.feedback_hits")),
      estimate_error_log2_(
          metrics->GetHistogram("planner.estimate_error_log2")) {}

Result<PlanDecision> Planner::Decide(const NestedSelect& query,
                                     const DecideOptions& options) const {
  PlanDecision decision;
  if (!config_.enabled) {
    // Full ablation: static default, no statistics read, no feedback.
    decision.strategy = config_.fallback;
    decision.rationale =
        "cost-based planner disabled (GMDJ_PLANNER=off); static default";
    return decision;
  }

  // Repeat query over unchanged tables: serve the cached decision. The
  // key is the *unbound* query text (binding is part of what the cache
  // saves) plus the require_plan restriction, which changes the choice.
  const std::string cache_key =
      query.ToString() + (options.require_plan ? "\n#require_plan" : "");
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = plan_cache_.find(cache_key);
    if (it != plan_cache_.end() && CacheEntryFresh(it->second)) {
      plan_cache_hits_->Add(1);
      return it->second.decision;
    }
  }

  // Bind a clone so frame indexes are available for shape analysis.
  std::unique_ptr<NestedSelect> bound = query.Clone();
  GMDJ_RETURN_IF_ERROR(bound->Bind(*catalog_, {}));
  ShapeCollector collector(catalog_, stats_);
  GMDJ_ASSIGN_OR_RETURN(const QueryShape shape, collector.Collect(*bound));

  decision.estimates = EstimateStrategies(shape);
  const StrategyCostEstimate* best = nullptr;
  for (const StrategyCostEstimate& estimate : decision.estimates) {
    if (options.require_plan && IsNativeStrategy(estimate.strategy)) continue;
    if (std::isinf(estimate.cost)) continue;
    best = &estimate;
    break;
  }
  // The GMDJ strategies are always finite, so `best` only stays null if
  // the filter excluded everything finite — impossible today, but fall
  // back defensively rather than crash.
  if (best == nullptr) {
    decision.strategy = config_.fallback;
    decision.rationale = "no finite estimate; static default";
    return decision;
  }
  decision.strategy = best->strategy;
  decision.rationale = best->rationale;
  decision.est_cost = best->cost;
  decision.est_base_rows = shape.base_rows;
  decision.est_result_rows = EstimateResultRows(shape);
  decision.signature = bound->ToString();

  // Adaptive feedback: a recorded >replan_factor miss for this plan
  // signature overrides the estimate with the observed cardinality.
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = feedback_.find(decision.signature);
    if (it != feedback_.end()) {
      decision.replanned = true;
      decision.est_result_rows = it->second;
      feedback_hits_->Add(1);
    }
  }

  // Thread count: below the parallel threshold, pool overhead exceeds
  // the win — run the sequential evaluator.
  double total_work = shape.base_rows;
  for (const SubInfo& sub : shape.subs) total_work += sub.inner_rows;
  if (total_work < config_.sequential_threshold) {
    decision.num_threads = 1;
    decision.rationale += "; sequential (input below parallel threshold)";
  }

  if (IsGmdjFamily(decision.strategy)) {
    // Probe order: cheapest dispatch first (hash < interval < scan) so
    // discard-capable indexed conditions prune base tuples before any
    // scan-dispatch condition pays the per-pair work.
    decision.reorder_conditions = true;
    if (shape.base_rows <= config_.small_base_index_threshold) {
      decision.force_scan_bindings = true;
      decision.rationale += "; scan bindings (base too small for indexes)";
    }
  }
  if (decision.strategy == Strategy::kGmdjOptimized && !shape.subs.empty()) {
    const double selectivity =
        decision.est_result_rows / std::max(1.0, shape.base_rows);
    // Anti-probes exist only under completion: keep it for them however
    // little it is expected to prune.
    if (selectivity >= config_.completion_selectivity_cutoff &&
        !shape.has_anti_probe) {
      decision.use_completion = false;
      decision.rationale += "; completion off (little pruning expected)";
    }
  }
  decisions_->Add(1);

  // Cache against the current version of every referenced table. The
  // caller holds the engine catalog lock, so the versions observed here
  // are the ones the statistics above were collected under.
  CachedPlan entry;
  entry.decision = decision;
  entry.deps.reserve(shape.tables.size());
  for (const std::string& table : shape.tables) {
    entry.deps.emplace_back(table, catalog_->GetTableVersion(table));
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (plan_cache_.size() >= kPlanCacheCapacity) plan_cache_.clear();
    plan_cache_[cache_key] = std::move(entry);
  }
  return decision;
}

bool Planner::CacheEntryFresh(const CachedPlan& entry) const {
  for (const auto& [table, version] : entry.deps) {
    if (!(catalog_->GetTableVersion(table) == version)) return false;
  }
  // A feedback miss recorded since the entry was cached (or a newer
  // actual than the one it was re-planned with) must surface on the next
  // Decide: fall through to a full re-plan in that case.
  const auto it = feedback_.find(entry.decision.signature);
  if (it != feedback_.end() && (!entry.decision.replanned ||
                                entry.decision.est_result_rows != it->second)) {
    return false;
  }
  return true;
}

void Planner::RecordActuals(const PlanDecision& decision,
                            double actual_rows) const {
  if (decision.signature.empty()) return;
  const double est = std::max(1.0, decision.est_result_rows);
  const double act = std::max(1.0, actual_rows);
  const double ratio = est > act ? est / act : act / est;
  estimate_error_log2_->Record(
      static_cast<uint64_t>(std::llround(std::log2(ratio))));
  if (ratio > config_.replan_factor) {
    std::lock_guard<std::mutex> lock(mu_);
    feedback_[decision.signature] = actual_rows;
    replans_->Add(1);
  }
}

}  // namespace planner
}  // namespace gmdj
