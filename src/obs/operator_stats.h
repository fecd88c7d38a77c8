#ifndef GMDJ_OBS_OPERATOR_STATS_H_
#define GMDJ_OBS_OPERATOR_STATS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "obs/metrics.h"

namespace gmdj {
namespace obs {

/// Outcome of a GMDJ aggregate-cache probe for one operator execution.
enum class CacheOutcome {
  kNotProbed,  // Operator is not cache-eligible (or no cache attached).
  kHit,
  kMiss,       // Probed, computed, stored.
};

inline const char* CacheOutcomeName(CacheOutcome outcome) {
  switch (outcome) {
    case CacheOutcome::kNotProbed:
      return "not-probed";
    case CacheOutcome::kHit:
      return "hit";
    case CacheOutcome::kMiss:
      return "miss";
  }
  return "?";
}

/// Per-plan-node execution statistics, collected through ExecContext while
/// a profiled query runs and rendered by EXPLAIN ANALYZE. Plain data;
/// collection is single-threaded (parallel GMDJ workers merge into
/// ExecStats first, and the operator folds the totals in afterwards).
struct OperatorStats {
  // Generic to every operator.
  uint64_t rows_in = 0;    // Rows consumed from children.
  uint64_t rows_out = 0;   // Rows produced.
  uint64_t batches = 0;    // Processing chunks / morsels handled.
  uint64_t morsels = 0;    // Parallel GMDJ morsels (0 = ran sequentially).
  uint64_t threads = 0;    // Most threads a GMDJ pass ran on.
  uint64_t predicate_evals = 0;
  uint64_t hash_probes = 0;

  // Per-phase wall time (clock-dependent; masked in golden tests).
  uint64_t prepare_nanos = 0;
  uint64_t exec_nanos = 0;

  // GMDJ-specific detail (zero/empty elsewhere).
  uint64_t coalesced_conditions = 0;   // Conditions evaluated in one scan.
  uint64_t completion_discards = 0;    // Base tuples retired by discard.
  uint64_t completion_freezes = 0;     // Base tuples frozen by satisfy.
  uint64_t compiled_conditions = 0;
  uint64_t interpreter_fallbacks = 0;
  uint64_t typed_aggs = 0;  // Aggregates folded by typed loops...
  uint64_t aggs = 0;        // ...out of all aggregates evaluated.
  uint64_t slot_path_conditions = 0;  // Conditions folded by slot vector.
  CacheOutcome cache_outcome = CacheOutcome::kNotProbed;
  HistogramData rng_sizes;  // |RNG(b, R, theta)| per (base row, condition).

  // Spill detail (zero when the operator ran fully in memory).
  uint64_t spill_partitions = 0;
  uint64_t spill_passes = 0;
  uint64_t spill_bytes_written = 0;
  uint64_t spill_bytes_read = 0;

  void MergeFrom(const OperatorStats& other);
};

/// Profile of one plan execution: OperatorStats keyed by plan-node
/// identity. The key is an opaque pointer so obs does not depend on exec;
/// exec-side rendering walks its own tree and looks nodes up here.
class PlanProfile {
 public:
  PlanProfile() = default;
  PlanProfile(const PlanProfile&) = delete;
  PlanProfile& operator=(const PlanProfile&) = delete;
  PlanProfile(PlanProfile&&) = default;
  PlanProfile& operator=(PlanProfile&&) = default;

  /// Stats block for `node`, created on first use. Pointer stays stable.
  OperatorStats* Stats(const void* node) {
    auto& slot = stats_[node];
    if (slot == nullptr) slot = std::make_unique<OperatorStats>();
    return slot.get();
  }

  /// Null when the node never executed under this profile.
  const OperatorStats* Find(const void* node) const {
    auto it = stats_.find(node);
    return it == stats_.end() ? nullptr : it->second.get();
  }

  size_t size() const { return stats_.size(); }

 private:
  std::map<const void*, std::unique_ptr<OperatorStats>> stats_;
};

}  // namespace obs
}  // namespace gmdj

#endif  // GMDJ_OBS_OPERATOR_STATS_H_
