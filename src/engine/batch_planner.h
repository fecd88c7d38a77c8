#ifndef GMDJ_ENGINE_BATCH_PLANNER_H_
#define GMDJ_ENGINE_BATCH_PLANNER_H_

#include <cstdint>
#include <vector>

#include "engine/olap_engine.h"
#include "governance/query_context.h"
#include "mqo/agg_cache.h"
#include "nested/nested_ast.h"
#include "parallel/exec_config.h"
#include "storage/catalog.h"

namespace gmdj {

/// Outcome of a batch: per-query results plus batch-wide accounting.
/// Returned by value — batch execution never touches engine-level mutable
/// state, so concurrent batches against one engine are safe.
struct BatchResult {
  /// One result per input query, in input order. A failure — translation
  /// error, pool rejection, runtime fault — lands in the failing query's
  /// own slot while the rest of the batch runs to completion.
  std::vector<Result<Table>> results;

  /// Governance outcomes across the batch's queries (pool gauges are the
  /// engine's to report; these count per-query result codes).
  GovernanceStats governance;

  /// Summed execution stats of prewarm + all queries. Cache gauges
  /// (evictions/invalidations/bytes) are sampled from the cache at the
  /// end of the batch.
  ExecStats stats;

  double elapsed_ms = 0.0;

  /// (base, detail) scan groups that were shared by >= 2 queries and
  /// prewarmed with a merged GMDJ.
  uint64_t shared_groups = 0;

  /// Conditions subscribed by >= 2 distinct GMDJ nodes — work evaluated
  /// once instead of per-subscriber.
  uint64_t shared_conditions = 0;
};

/// The batch admission planner: translates every query under the
/// `gmdj-optimized` strategy, canonicalizes their GMDJs, coalesces
/// identical and subsumed conditions across queries into merged prewarm
/// GMDJs (evaluated once through the normal evaluator, results published
/// via `cache`), then runs every query — each of which now serves its
/// shared GMDJs from the cache.
///
/// `cache` may be null: the batch then degrades to sequential execution
/// with no sharing. When a cache is present, plans are translated with
/// base-tuple completion *disabled*: completion prunes base tuples
/// according to each query's selection, which would make the GMDJ output
/// query-specific and uncacheable; the enclosing Filter applies the same
/// selection, so results are identical either way.
/// `pool` is the engine memory pool every query's reservation draws from;
/// null means unbounded. Each query gets its own QueryContext, so its
/// reservation is released when it finishes or fails.
BatchResult ExecuteGmdjBatch(const Catalog& catalog, const ExecConfig& config,
                             GmdjAggCache* cache, MemoryPool* pool,
                             const std::vector<const NestedSelect*>& queries);

}  // namespace gmdj

#endif  // GMDJ_ENGINE_BATCH_PLANNER_H_
