#ifndef GMDJ_PLANNER_COST_MODEL_H_
#define GMDJ_PLANNER_COST_MODEL_H_

#include <string>
#include <vector>

#include "planner/query_shape.h"
#include "planner/strategy.h"

namespace gmdj {

/// One strategy's estimated cost for a query, in abstract row operations.
struct StrategyCostEstimate {
  Strategy strategy = Strategy::kGmdj;
  double cost = 0.0;        // +inf encodes "outside the supported fragment".
  std::string rationale;    // One line: what dominated the estimate.
};

namespace planner {

/// Cost model over query shapes: the paper's closing suggestion that a
/// cost-based optimizer "select between a rich set of alternatives (joins,
/// set-division and GMDJs)", backed by cardinalities when statistics are
/// available.
///
/// The model charges each strategy in abstract row operations:
///
///   * scans and hash builds cost |R|; probes cost 1 + the expected match
///     fan-out per probe (|R| / NDV(correlation column) when statistics
///     are available, 1 otherwise),
///   * tuple iteration costs |B|·|R| with an early-termination discount
///     for EXISTS/SOME/ALL under "smart" evaluation,
///   * non-indexable GMDJ conditions (and NL joins) cost |B|·|R|,
///   * with statistics, eq-correlated GMDJ conditions additionally pay
///     aggregate-update work proportional to the expected total RNG size
///     |R|·|B| / NDV(base correlation column),
///   * coalescing merges same-table detail scans; completion discounts
///     scan-strategy conditions,
///   * strategies outside their fragment (disjunctive subqueries or
///     non-neighboring correlation for join unnesting) cost infinity.
///
/// The numbers are *ranks*, not milliseconds: the model answers "which
/// strategy should run this query", the benchmarks answer "how fast".
///
/// Returns one estimate per concrete strategy (AllStrategies() order),
/// sorted cheapest first (stable, so ties keep enum order).
std::vector<StrategyCostEstimate> EstimateStrategies(const QueryShape& shape);

/// Estimated number of qualifying base rows — the number EXPLAIN ANALYZE
/// compares against the actual result and the re-optimization loop checks
/// for >replan_factor misses. Each top-level conjunctive leaf subquery
/// filters the base: an eq-correlated EXISTS keeps the fraction of base
/// keys present in the detail (NDV ratio); anything else is charged the
/// default selectivity 1/3.
double EstimateResultRows(const QueryShape& shape);

}  // namespace planner
}  // namespace gmdj

#endif  // GMDJ_PLANNER_COST_MODEL_H_
