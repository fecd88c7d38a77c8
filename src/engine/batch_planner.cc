#include "engine/batch_planner.h"

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>

#include "common/fault_injection.h"
#include "common/stopwatch.h"
#include "core/gmdj_node.h"
#include "core/translate.h"
#include "exec/nodes.h"
#include "expr/expr_analysis.h"
#include "mqo/signature.h"

namespace gmdj {
namespace {

// Sums `s` into `into`; cache gauges are excluded (they are sampled from
// the cache once per batch, not per query).
void Accumulate(ExecStats* into, const ExecStats& s) {
  into->table_scans += s.table_scans;
  into->rows_scanned += s.rows_scanned;
  into->rows_output += s.rows_output;
  into->hash_probes += s.hash_probes;
  into->predicate_evals += s.predicate_evals;
  into->joins += s.joins;
  into->gmdj_ops += s.gmdj_ops;
  into->morsels += s.morsels;
  into->cache_hits += s.cache_hits;
  into->cache_misses += s.cache_misses;
}

// Buckets a per-query outcome into the batch's governance counters.
void CountOutcome(GovernanceStats* governance, const Status& status) {
  switch (status.code()) {
    case StatusCode::kCancelled:
      ++governance->cancellations;
      break;
    case StatusCode::kDeadlineExceeded:
      ++governance->deadline_exceeded;
      break;
    case StatusCode::kResourceExhausted:
      ++governance->mem_rejections;
      break;
    default:
      break;
  }
}

TranslateOptions BatchTranslateOptions(bool with_cache) {
  TranslateOptions options = TranslateOptions::Optimized();
  if (with_cache) {
    // Completion prunes base tuples per the enclosing selection, making
    // GMDJ output query-specific; the Filter above applies the same
    // selection either way, so disabling completion trades its early-out
    // for cacheable (and cross-query shareable) GMDJs.
    options.completion = false;
  }
  return options;
}

// Collects every GmdjNode in the plan tree, in pre-order.
void CollectGmdjNodes(const PlanNode& node, std::vector<const GmdjNode*>* out) {
  if (const auto* gmdj = dynamic_cast<const GmdjNode*>(&node)) {
    out->push_back(gmdj);
  }
  for (const PlanNode* child : node.children()) {
    CollectGmdjNodes(*child, out);
  }
}

// One condition's merged definition across all its subscribers: a theta
// source plus the union of every subscriber's aggregates (keyed
// canonically, so renamed/reordered duplicates collapse).
struct MergedCondition {
  const GmdjNode* theta_node = nullptr;
  size_t theta_cond = 0;
  // agg_key -> (node, condition index, agg index) of the first provider.
  std::map<std::string, std::tuple<const GmdjNode*, size_t, size_t>> aggs;
  std::set<const GmdjNode*> subscribers;
};

// All shareable conditions over one (base, detail) scan pair.
struct ShareGroup {
  std::string base_table;
  std::string detail_table;
  std::map<std::string, MergedCondition> conditions;  // By share key.
  std::set<const GmdjNode*> nodes;
};

// Evaluates merged prewarm GMDJs for every scan-pair group that at least
// two distinct nodes subscribe to. The merged node runs through the
// normal evaluator with the cache hook wired, so its Store path publishes
// each condition's columns; the subscribers then hit during execution.
void PrewarmSharedGmdjs(const Catalog& catalog, const ExecConfig& config,
                        GmdjAggCache* cache, MemoryPool* pool,
                        const std::vector<PlanPtr>& plans, BatchResult* out) {
  // Prewarm is best-effort sharing: a fault here degrades the batch to
  // per-query evaluation (subscribers miss and recompute), never to an
  // error — the queries themselves stay correct.
  if (!GMDJ_FAULT_POINT("batch/prewarm").ok()) return;
  // One governance context covers all prewarm work; a prewarm the pool
  // rejects aborts cleanly and publishes nothing (the GMDJ store path is
  // ok()-gated).
  QueryContext qctx(QueryLimits(), pool);
  std::map<std::string, ShareGroup> groups;  // By base_fp|detail_fp.
  for (const PlanPtr& plan : plans) {
    if (plan == nullptr) continue;  // Failed admission; runs as error below.
    std::vector<const GmdjNode*> nodes;
    CollectGmdjNodes(*plan, &nodes);
    for (const GmdjNode* node : nodes) {
      const std::optional<GmdjSignature>& sig = node->signature();
      if (!sig.has_value() || node->completion().enabled()) continue;
      ShareGroup& group =
          groups[sig->base_fingerprint + "|" + sig->detail_fingerprint];
      group.base_table = sig->base_table;
      group.detail_table = sig->detail_table;
      group.nodes.insert(node);
      for (size_t c = 0; c < sig->conditions.size(); ++c) {
        const GmdjCondSignature& cs = sig->conditions[c];
        MergedCondition& merged = group.conditions[cs.share_key];
        if (merged.theta_node == nullptr) {
          merged.theta_node = node;
          merged.theta_cond = c;
        }
        merged.subscribers.insert(node);
        for (size_t a = 0; a < cs.agg_keys.size(); ++a) {
          merged.aggs.try_emplace(cs.agg_keys[a],
                                  std::make_tuple(node, c, a));
        }
      }
    }
  }

  for (auto& [pair_key, group] : groups) {
    if (group.nodes.size() < 2) continue;  // Nothing to share.
    ++out->shared_groups;
    for (const auto& [share_key, merged] : group.conditions) {
      if (merged.subscribers.size() >= 2) ++out->shared_conditions;
    }

    // The prewarm scans get reserved aliases so base and detail stay
    // unambiguous even when they scan the same table (self-GMDJ); cloned
    // expressions are re-qualified below against these schemas via their
    // preserved bound indices, which also erases each source query's own
    // aliasing.
    auto base_scan =
        std::make_unique<TableScanNode>(group.base_table, "__mqo_b");
    auto detail_scan =
        std::make_unique<TableScanNode>(group.detail_table, "__mqo_d");
    if (!base_scan->Prepare(catalog).ok() ||
        !detail_scan->Prepare(catalog).ok()) {
      continue;  // Table vanished; subscribers will just miss.
    }
    const std::vector<const Schema*> frames = {&base_scan->output_schema(),
                                               &detail_scan->output_schema()};

    std::vector<GmdjCondition> conditions;
    size_t agg_seq = 0;
    for (const auto& [share_key, merged] : group.conditions) {
      const GmdjCondition& src =
          merged.theta_node->condition(merged.theta_cond);
      GmdjCondition cond;
      if (src.theta != nullptr) {
        cond.theta = src.theta->Clone();
        QualifyColumnRefs(cond.theta.get(), frames);
      }
      for (const auto& [agg_key, provider] : merged.aggs) {
        const auto& [node, c, a] = provider;
        AggSpec agg = node->condition(c).aggs[a].Clone();
        // Output names are query-facing only (canonical keys ignore
        // them); synthetic names keep the merged schema collision-free.
        agg.output_name = "mqo" + std::to_string(agg_seq++);
        if (agg.arg != nullptr) QualifyColumnRefs(agg.arg.get(), frames);
        cond.aggs.push_back(std::move(agg));
      }
      conditions.push_back(std::move(cond));
    }

    // A GmdjNode holds at most 64 conditions (freeze bitmask width);
    // larger groups prewarm in chunks, each with its own detail scan.
    for (size_t begin = 0; begin < conditions.size(); begin += 64) {
      const size_t end = std::min(conditions.size(), begin + 64);
      std::vector<GmdjCondition> chunk;
      chunk.reserve(end - begin);
      for (size_t i = begin; i < end; ++i) {
        chunk.push_back(std::move(conditions[i]));
      }
      PlanPtr base = begin == 0 ? std::move(base_scan)
                                : std::make_unique<TableScanNode>(
                                      group.base_table, "__mqo_b");
      PlanPtr detail = begin == 0 ? std::move(detail_scan)
                                  : std::make_unique<TableScanNode>(
                                        group.detail_table, "__mqo_d");
      GmdjNode prewarm(std::move(base), std::move(detail), std::move(chunk));
      if (!prewarm.Prepare(catalog).ok()) continue;
      ExecContext ctx(&catalog, config);
      ctx.set_gmdj_cache(cache);
      ctx.set_query_ctx(&qctx);
      Result<Table> ignored = prewarm.Execute(&ctx);
      (void)ignored;  // Value unused; the Store side effect is the point.
      Accumulate(&out->stats, ctx.stats());
    }
  }
}

}  // namespace

BatchResult ExecuteGmdjBatch(const Catalog& catalog, const ExecConfig& config,
                             GmdjAggCache* cache, MemoryPool* pool,
                             const std::vector<const NestedSelect*>& queries) {
  BatchResult out;
  Stopwatch watch;

  // Admission: translate and prepare every query, recording failures
  // per slot instead of aborting the batch — one malformed query must not
  // take its neighbors down with it.
  const TranslateOptions translate = BatchTranslateOptions(cache != nullptr);
  std::vector<PlanPtr> plans(queries.size());
  std::vector<Status> admission(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    Result<PlanPtr> plan =
        SubqueryToGmdj(queries[i]->Clone(), catalog, translate);
    if (!plan.ok()) {
      admission[i] = plan.status();
      continue;
    }
    const Status prepared = (*plan)->Prepare(catalog);
    if (!prepared.ok()) {
      admission[i] = prepared;
      continue;
    }
    plans[i] = std::move(*plan);
  }

  if (cache != nullptr) {
    PrewarmSharedGmdjs(catalog, config, cache, pool, plans, &out);
  }

  for (size_t i = 0; i < queries.size(); ++i) {
    if (plans[i] == nullptr) {
      CountOutcome(&out.governance, admission[i]);
      out.results.emplace_back(std::move(admission[i]));
      continue;
    }
    // Fresh context per query: its reservation dies with it, so a pool
    // rejection or injected fault is visible only in this slot of
    // `results`.
    QueryContext qctx(QueryLimits(), pool);
    Result<Table> result = [&]() -> Result<Table> {
      GMDJ_RETURN_IF_ERROR(GMDJ_FAULT_POINT("batch/query"));
      ExecContext ctx(&catalog, config);
      ctx.set_gmdj_cache(cache);
      ctx.set_query_ctx(&qctx);
      auto executed = plans[i]->Execute(&ctx);
      Accumulate(&out.stats, ctx.stats());
      return executed;
    }();
    CountOutcome(&out.governance, result.status());
    out.results.push_back(std::move(result));
  }

  if (cache != nullptr) {
    const GmdjAggCache::Stats cache_stats = cache->stats();
    out.stats.cache_evictions = cache_stats.evictions;
    out.stats.cache_invalidations = cache_stats.invalidations;
    out.stats.cache_bytes = cache_stats.bytes;
  }
  if (pool != nullptr) {
    out.governance.pool_reclaims = pool->reclaims();
    out.governance.peak_reserved_bytes = pool->peak_reserved();
  }
  out.elapsed_ms = watch.ElapsedMillis();
  return out;
}

}  // namespace gmdj
