#ifndef GMDJ_PLANNER_QUERY_SHAPE_H_
#define GMDJ_PLANNER_QUERY_SHAPE_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "nested/nested_ast.h"
#include "stats/stats_catalog.h"
#include "storage/catalog.h"

namespace gmdj {
namespace planner {

/// Summary of one subquery block, gathered by walking the bound query.
/// The statistics-backed fields (`*_ndv`) are 0 when unknown — collected
/// only when a StatsCatalog is attached and the correlation sides are
/// plain column references over catalog tables; every consumer falls back
/// to the stat-free heuristic in that case.
struct SubInfo {
  double inner_rows = 0;       // |R| of the block's source.
  bool eq_correlated = false;  // Has an indexable equality correlation.
  bool exists_like = false;    // EXISTS / SOME / ALL (early-terminable).
  bool non_neighboring = false;
  bool conjunctive = false;    // On the AND spine of its WHERE.
  bool top_level = false;      // Correlates against the outermost frame.
  std::string detail_table;    // Coalescing group key (leaf blocks only).
  bool leaf = true;            // No nested subqueries inside.
  double detail_corr_ndv = 0;  // NDV of the detail-side correlation column.
  double base_corr_ndv = 0;    // NDV of the base-side correlation column.
  /// Uncorrelated conjunctive `outer.col <> ALL (SELECT sub.col ...)`
  /// (NOT IN): with completion, the GMDJ answers it with one hash probe
  /// per detail tuple instead of a pass over the live base tuples.
  bool anti_probe = false;
};

/// Aggregated query features.
struct QueryShape {
  double base_rows = 0;
  std::string base_table;
  std::vector<SubInfo> subs;   // Flattened over all nesting levels.
  bool has_disjunctive_sub = false;
  bool has_non_neighboring = false;
  bool has_anti_probe = false;  // Some sub has `anti_probe` set.
  /// Every catalog table the query references (base + all sub sources,
  /// deduplicated). The planner snapshots these tables' versions to
  /// validate its plan-decision cache.
  std::vector<std::string> tables;
};

/// Walks a *bound* nested query and classifies every subquery block.
/// With a StatsCatalog attached, table cardinalities come from fresh
/// statistics (version-checked, so post-INSERT row counts are current)
/// and equality correlations carry the NDV of both sides; without one,
/// row counts come straight from the catalog and NDVs stay unknown (the
/// stat-free estimates, the original heuristic advisor's).
class ShapeCollector {
 public:
  ShapeCollector(const Catalog* catalog, stats::StatsCatalog* stats)
      : catalog_(catalog), stats_(stats) {}

  /// Collects the shape. `query` must already be bound (frame indexes are
  /// needed to classify correlations).
  Result<QueryShape> Collect(const NestedSelect& query);

 private:
  double TableRows(const SourceSpec& source) const;
  /// NDV of `ref` ("F.Col" or "Col") resolved against catalog table
  /// `table`; 0 when the table/column/statistics are unavailable.
  double ColumnNdv(const std::string& table, const std::string& ref) const;

  Status Walk(const Pred& pred, size_t frame, bool conjunctive,
              QueryShape* shape);
  /// `all_ne` marks a `col <> ALL (SELECT col ...)` block over bare
  /// columns of the enclosing and the sub frame (anti-probe candidate).
  Status AddSub(const NestedSelect& sub, size_t frame, bool conjunctive,
                bool exists_like, QueryShape* shape, bool all_ne = false);

  const Catalog* catalog_;
  stats::StatsCatalog* stats_;  // Nullable.
  std::string base_table_;
};

}  // namespace planner
}  // namespace gmdj

#endif  // GMDJ_PLANNER_QUERY_SHAPE_H_
