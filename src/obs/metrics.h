#ifndef GMDJ_OBS_METRICS_H_
#define GMDJ_OBS_METRICS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace gmdj {
namespace obs {

/// Whether hot-path metric instrumentation (the GMDJ_METRIC_* macros) is
/// compiled in. Configured with -DGMDJ_METRICS=OFF the macros compile to
/// nothing and the registry reports zeros for hot-path metrics; cold-path
/// recording (governance outcomes, cache stats, per-query snapshots) stays
/// live because per-query semantics must not depend on a build knob.
#ifdef GMDJ_METRICS_DISABLED
inline constexpr bool kMetricsEnabled = false;
#else
inline constexpr bool kMetricsEnabled = true;
#endif

/// Number of independent per-thread shards a counter/histogram maintains.
/// Power of two; 16 keeps the TSan-visible false-sharing surface small
/// while covering typical morsel-pool widths.
inline constexpr size_t kMetricShards = 16;

/// Stable per-thread shard index (round-robin assignment on first use,
/// masked into the shard range). Threads keep their slot for life, so a
/// pinned worker never bounces between cache lines.
size_t ThreadShardIndex();

/// Sharded monotonic counter: Add() touches only the calling thread's
/// cache-line-padded shard (one relaxed fetch_add, no locks); Total()
/// merges. Usable standalone (the parallel GMDJ evaluator routes worker
/// counters through one) or wrapped by a registry Counter.
class ShardedCounter {
 public:
  ShardedCounter() = default;
  ShardedCounter(const ShardedCounter&) = delete;
  ShardedCounter& operator=(const ShardedCounter&) = delete;

  void Add(uint64_t n) {
    shards_[ThreadShardIndex()].value.fetch_add(n, std::memory_order_relaxed);
  }

  uint64_t Total() const {
    uint64_t total = 0;
    for (const Shard& shard : shards_) {
      total += shard.value.load(std::memory_order_relaxed);
    }
    return total;
  }

  void Reset() {
    for (Shard& shard : shards_) {
      shard.value.store(0, std::memory_order_relaxed);
    }
  }

 private:
  struct alignas(64) Shard {
    std::atomic<uint64_t> value{0};
  };
  Shard shards_[kMetricShards];
};

/// Log2-scale bucket index of a value: bucket 0 holds 0, bucket i >= 1
/// holds [2^(i-1), 2^i - 1]. 65 buckets cover the uint64 range.
inline constexpr size_t kHistogramBuckets = 65;
inline size_t HistogramBucket(uint64_t value) {
  size_t bits = 0;
  while (value != 0) {
    value >>= 1;
    ++bits;
  }
  return bits;  // 0 for value 0, else bit width.
}
/// Lower bound of a bucket (the resolution percentile estimates quote).
inline uint64_t HistogramBucketFloor(size_t bucket) {
  return bucket == 0 ? 0 : uint64_t{1} << (bucket - 1);
}

/// Merged, plain-data view of a histogram: what snapshots carry and what
/// OperatorStats embed directly (profile collection is single-threaded).
struct HistogramData {
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t min = UINT64_MAX;  // Meaningless while count == 0.
  uint64_t max = 0;
  uint64_t buckets[kHistogramBuckets] = {};

  void Record(uint64_t value);
  void Merge(const HistogramData& other);

  /// Lower bound of the bucket containing quantile `q` in [0, 1]
  /// (log-bucket resolution; exact for values 0 and 1). 0 when empty.
  uint64_t Quantile(double q) const;

  /// "count=12 sum=40 min=0 p50=2 p90=8 max=11" (empty: "count=0").
  std::string Summary() const;
};

/// Sharded concurrent histogram with log-scale buckets. Record() touches
/// only the caller's shard; Snapshot() merges into a HistogramData.
class ShardedHistogram {
 public:
  ShardedHistogram() = default;
  ShardedHistogram(const ShardedHistogram&) = delete;
  ShardedHistogram& operator=(const ShardedHistogram&) = delete;

  void Record(uint64_t value) {
    Shard& shard = shards_[ThreadShardIndex()];
    shard.buckets[HistogramBucket(value)].fetch_add(
        1, std::memory_order_relaxed);
    shard.sum.fetch_add(value, std::memory_order_relaxed);
    AtomicMin(&shard.min, value);
    AtomicMax(&shard.max, value);
  }

  HistogramData Snapshot() const;
  void Reset();

 private:
  struct alignas(64) Shard {
    std::atomic<uint64_t> buckets[kHistogramBuckets] = {};
    std::atomic<uint64_t> sum{0};
    std::atomic<uint64_t> min{UINT64_MAX};
    std::atomic<uint64_t> max{0};
  };
  static void AtomicMin(std::atomic<uint64_t>* slot, uint64_t value) {
    uint64_t cur = slot->load(std::memory_order_relaxed);
    while (value < cur &&
           !slot->compare_exchange_weak(cur, value,
                                        std::memory_order_relaxed)) {
    }
  }
  static void AtomicMax(std::atomic<uint64_t>* slot, uint64_t value) {
    uint64_t cur = slot->load(std::memory_order_relaxed);
    while (value > cur &&
           !slot->compare_exchange_weak(cur, value,
                                        std::memory_order_relaxed)) {
    }
  }
  Shard shards_[kMetricShards];
};

/// Registry-owned named counter (see MetricRegistry).
class Counter {
 public:
  void Add(uint64_t n = 1) { sharded_.Add(n); }
  uint64_t Total() const { return sharded_.Total(); }
  void Reset() { sharded_.Reset(); }

 private:
  ShardedCounter sharded_;
};

/// Registry-owned named gauge: a point-in-time signed value (footprints,
/// high-water marks sampled at snapshot time).
class Gauge {
 public:
  void Set(int64_t value) { value_.store(value, std::memory_order_relaxed); }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Registry-owned named histogram.
class Histogram {
 public:
  void Record(uint64_t value) { sharded_.Record(value); }
  HistogramData Snapshot() const { return sharded_.Snapshot(); }
  void Reset() { sharded_.Reset(); }

 private:
  ShardedHistogram sharded_;
};

/// Point-in-time merge of every metric in a registry. Plain data:
/// copyable, comparable in tests, serializable.
struct MetricsSnapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, int64_t> gauges;
  std::map<std::string, HistogramData> histograms;

  /// Flat JSON fields in deterministic (sorted) key order, no enclosing
  /// braces — callers splice them into larger objects (the bench JSON
  /// lines). Histograms render as nested objects:
  ///   "gmdj.rng_size": {"count": 12, "sum": 40, "min": 0, "p50": 2,
  ///                     "p90": 8, "max": 11}
  std::string ToJsonFields() const;

  /// The fields wrapped as one JSON object.
  std::string ToJson() const {
    std::string out = "{";
    out.append(ToJsonFields()).append("}");
    return out;
  }
};

/// Named metric registry. Handles are resolved once (mutex-protected map
/// lookup) and then recorded through lock-free; handle pointers stay
/// stable for the registry's lifetime. Instantiable so every OlapEngine
/// owns its own metrics; Global() serves process-wide consumers.
class MetricRegistry {
 public:
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  static MetricRegistry* Global();

  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name);

  MetricsSnapshot Snapshot() const;

  /// Removes every gauge whose name starts with `prefix`, returning the
  /// number removed. For dynamically-named series (e.g. the server's
  /// per-session gauges) whose owner has expired — the handles returned
  /// by GetGauge for them become dangling, so this is only safe for
  /// gauges that callers re-fetch by name and never cache.
  size_t RemoveGaugesWithPrefix(const std::string& prefix);

  /// Zeroes counters and histograms (gauges keep their last Set).
  void ResetForTest();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace obs
}  // namespace gmdj

// Hot-path instrumentation macros: null-safe, and compiled out entirely
// under GMDJ_METRICS=OFF (the operand is size-of'ed, never evaluated, so
// handles do not become unused-variable warnings).
#ifdef GMDJ_METRICS_DISABLED
#define GMDJ_METRIC_ADD(counter, n) \
  do {                              \
    (void)sizeof(counter);          \
    (void)sizeof(n);                \
  } while (0)
#define GMDJ_METRIC_RECORD(histogram, value) \
  do {                                       \
    (void)sizeof(histogram);                 \
    (void)sizeof(value);                     \
  } while (0)
#else
#define GMDJ_METRIC_ADD(counter, n)                    \
  do {                                                 \
    if ((counter) != nullptr) (counter)->Add(n);       \
  } while (0)
#define GMDJ_METRIC_RECORD(histogram, value)               \
  do {                                                     \
    if ((histogram) != nullptr) (histogram)->Record(value); \
  } while (0)
#endif

#endif  // GMDJ_OBS_METRICS_H_
