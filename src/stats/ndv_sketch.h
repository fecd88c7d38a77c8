#ifndef GMDJ_STATS_NDV_SKETCH_H_
#define GMDJ_STATS_NDV_SKETCH_H_

#include <array>
#include <cstddef>
#include <cstdint>

#include "types/value.h"

namespace gmdj {
namespace stats {

/// HyperLogLog distinct-value sketch, the NDV estimator behind every
/// cardinality the planner consumes.
///
/// 2^12 = 4096 six-bit registers (stored one per byte: 4 KB per column),
/// giving a standard error of 1.04 / sqrt(4096) ~= 1.6%. The classic
/// small-range correction (linear counting over empty registers) keeps the
/// estimate tight at low cardinalities, so columns with a handful of
/// distinct keys — the interesting case for join-order and binding
/// decisions — estimate near-exactly.
///
/// Merge is register-wise max: merging the sketches of two row sets yields
/// exactly the sketch of their union, which is what incremental collection
/// over appended row ranges needs.
class NdvSketch {
 public:
  static constexpr size_t kPrecision = 12;            // Register index bits.
  static constexpr size_t kRegisters = 1 << kPrecision;

  NdvSketch() { registers_.fill(0); }

  /// Adds a pre-hashed item. The hash must be well-mixed over all 64 bits
  /// (use AddValue for column values).
  void AddHash(uint64_t hash);

  /// Adds one column value. NULLs are skipped — NDV counts distinct
  /// non-null values, matching the planner's use (a NULL key never
  /// matches an equality binding). Hashing is consistent with
  /// Value::Hash / Compare equality.
  void AddValue(const Value& value);

  /// Adds one non-null value given its Value::Hash (a table cell's
  /// CellHash), without boxing it.
  void AddValueHash(size_t value_hash);

  /// Estimated number of distinct items added.
  double Estimate() const;

  /// Register-wise max: afterwards this sketch estimates the union of
  /// both input multisets.
  void Merge(const NdvSketch& other);

  /// True when nothing was ever added.
  bool empty() const;

 private:
  std::array<uint8_t, kRegisters> registers_;
};

}  // namespace stats
}  // namespace gmdj

#endif  // GMDJ_STATS_NDV_SKETCH_H_
