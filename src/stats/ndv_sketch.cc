#include "stats/ndv_sketch.h"

#include <cmath>

namespace gmdj {
namespace stats {
namespace {

/// Finalizing mix (splitmix64's output permutation). Value::Hash is a
/// bucket-quality hash; HLL additionally needs every bit — especially the
/// low index bits and the leading-zero run — to be uniform, so the sketch
/// re-mixes rather than trusting the caller.
uint64_t Mix64(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

}  // namespace

void NdvSketch::AddHash(uint64_t hash) {
  const size_t index = hash >> (64 - kPrecision);
  const uint64_t rest = hash << kPrecision;
  // Rank = leading-zero run of the remaining bits + 1, capped so the
  // 6-bit register range is never exceeded.
  const uint8_t rank = static_cast<uint8_t>(
      rest == 0 ? (64 - kPrecision + 1) : (__builtin_clzll(rest) + 1));
  if (rank > registers_[index]) registers_[index] = rank;
}

void NdvSketch::AddValue(const Value& value) {
  if (value.is_null()) return;
  AddValueHash(value.Hash());
}

void NdvSketch::AddValueHash(size_t value_hash) {
  AddHash(Mix64(static_cast<uint64_t>(value_hash)));
}

double NdvSketch::Estimate() const {
  const double m = static_cast<double>(kRegisters);
  // alpha_m for m >= 128 (Flajolet et al. 2007).
  const double alpha = 0.7213 / (1.0 + 1.079 / m);
  double inv_sum = 0.0;
  size_t zeros = 0;
  for (const uint8_t reg : registers_) {
    inv_sum += std::ldexp(1.0, -static_cast<int>(reg));
    if (reg == 0) ++zeros;
  }
  double estimate = alpha * m * m / inv_sum;
  if (estimate <= 2.5 * m && zeros != 0) {
    // Small-range correction: linear counting on empty registers.
    estimate = m * std::log(m / static_cast<double>(zeros));
  }
  return estimate;
}

void NdvSketch::Merge(const NdvSketch& other) {
  for (size_t i = 0; i < kRegisters; ++i) {
    if (other.registers_[i] > registers_[i]) {
      registers_[i] = other.registers_[i];
    }
  }
}

bool NdvSketch::empty() const {
  for (const uint8_t reg : registers_) {
    if (reg != 0) return false;
  }
  return true;
}

}  // namespace stats
}  // namespace gmdj
