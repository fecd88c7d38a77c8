#include "obs/operator_stats.h"

#include <algorithm>

namespace gmdj {
namespace obs {

void OperatorStats::MergeFrom(const OperatorStats& other) {
  rows_in += other.rows_in;
  rows_out += other.rows_out;
  batches += other.batches;
  predicate_evals += other.predicate_evals;
  hash_probes += other.hash_probes;
  prepare_nanos += other.prepare_nanos;
  exec_nanos += other.exec_nanos;
  coalesced_conditions += other.coalesced_conditions;
  completion_discards += other.completion_discards;
  completion_freezes += other.completion_freezes;
  compiled_conditions += other.compiled_conditions;
  morsels += other.morsels;
  threads = std::max(threads, other.threads);
  interpreter_fallbacks += other.interpreter_fallbacks;
  typed_aggs += other.typed_aggs;
  aggs += other.aggs;
  slot_path_conditions += other.slot_path_conditions;
  if (other.cache_outcome != CacheOutcome::kNotProbed) {
    cache_outcome = other.cache_outcome;
  }
  rng_sizes.Merge(other.rng_sizes);
  spill_partitions += other.spill_partitions;
  spill_passes += other.spill_passes;
  spill_bytes_written += other.spill_bytes_written;
  spill_bytes_read += other.spill_bytes_read;
}

}  // namespace obs
}  // namespace gmdj
