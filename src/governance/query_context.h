#ifndef GMDJ_GOVERNANCE_QUERY_CONTEXT_H_
#define GMDJ_GOVERNANCE_QUERY_CONTEXT_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "common/status.h"

namespace gmdj {

/// Cooperative cancellation signal, shared between the submitter (any
/// thread) and the executing query. Copies alias the same flag; default
/// construction yields a fresh, un-cancelled token.
class CancellationToken {
 public:
  CancellationToken() : flag_(std::make_shared<std::atomic<bool>>(false)) {}

  void Cancel() { flag_->store(true, std::memory_order_relaxed); }
  bool cancelled() const { return flag_->load(std::memory_order_relaxed); }

 private:
  std::shared_ptr<std::atomic<bool>> flag_;
};

/// Engine-level memory pool: the root of the budget hierarchy. Queries
/// draw per-query reservations from it; when a reservation would push past
/// capacity the pool first asks its reclaimer (the engine wires this to
/// LRU shedding of the MQO aggregate cache) to free bytes, and only
/// rejects if pressure persists. All methods are thread-safe.
class MemoryPool {
 public:
  /// `capacity` in bytes; SIZE_MAX (default) never rejects.
  explicit MemoryPool(size_t capacity = SIZE_MAX) : capacity_(capacity) {}

  MemoryPool(const MemoryPool&) = delete;
  MemoryPool& operator=(const MemoryPool&) = delete;

  /// Reserves `bytes`, invoking the reclaimer under pressure. False when
  /// the pool stays over capacity even after reclamation.
  bool TryReserve(size_t bytes);
  void Release(size_t bytes);

  /// Unconditional accounting for *reclaimable* consumers (the MQO cache
  /// registers its resident bytes this way). Charge never rejects and may
  /// push usage past capacity — the overage is resolved when a query's
  /// TryReserve triggers the reclaimer, which sheds these bytes first.
  /// Balance every Charge with a Release.
  void Charge(size_t bytes);

  /// Reclaimer called under pressure with the byte shortfall; returns the
  /// bytes it freed. Install before queries run (not synchronized against
  /// in-flight TryReserve callers).
  void set_reclaimer(std::function<size_t(size_t)> reclaimer) {
    reclaimer_ = std::move(reclaimer);
  }

  void set_capacity(size_t capacity) {
    capacity_.store(capacity, std::memory_order_relaxed);
  }
  size_t capacity() const {
    return capacity_.load(std::memory_order_relaxed);
  }
  size_t reserved() const {
    return reserved_.load(std::memory_order_relaxed);
  }
  /// High-water mark of `reserved()` since construction.
  size_t peak_reserved() const {
    return peak_.load(std::memory_order_relaxed);
  }
  /// Reservations rejected (capacity exceeded after reclamation).
  uint64_t rejections() const {
    return rejections_.load(std::memory_order_relaxed);
  }
  /// Times the reclaimer was invoked under pressure.
  uint64_t reclaims() const {
    return reclaims_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<size_t> capacity_;
  std::atomic<size_t> reserved_{0};
  std::atomic<size_t> peak_{0};
  std::atomic<uint64_t> rejections_{0};
  std::atomic<uint64_t> reclaims_{0};
  std::function<size_t(size_t)> reclaimer_;
};

/// Per-query slice of the budget hierarchy: counts this query's bytes
/// against an optional per-query cap, then against the engine pool. The
/// destructor returns everything to the pool, so an aborting query can
/// never leak reservation (operators need not pair every Release on error
/// paths).
class MemoryReservation {
 public:
  /// Null `pool` draws from nothing (engine-unbounded); `query_cap` of 0
  /// means no per-query cap.
  explicit MemoryReservation(MemoryPool* pool = nullptr, size_t query_cap = 0)
      : pool_(pool), query_cap_(query_cap) {}
  ~MemoryReservation();

  MemoryReservation(const MemoryReservation&) = delete;
  MemoryReservation& operator=(const MemoryReservation&) = delete;

  /// ResourceExhausted when the per-query cap or the pool rejects.
  Status Reserve(size_t bytes);
  void Release(size_t bytes);

  size_t reserved() const {
    return reserved_.load(std::memory_order_relaxed);
  }
  size_t peak_reserved() const {
    return peak_.load(std::memory_order_relaxed);
  }
  size_t query_cap() const { return query_cap_; }

 private:
  MemoryPool* pool_;
  const size_t query_cap_;
  std::atomic<size_t> reserved_{0};
  std::atomic<size_t> peak_{0};
};

/// Admission-time limits of one query. The zero value is "ungoverned":
/// no deadline, no memory cap, a fresh token.
struct QueryLimits {
  /// Wall-clock deadline in milliseconds from admission; 0 = none.
  double deadline_ms = 0.0;
  /// Per-query memory cap in bytes; 0 = uncapped (pool still applies).
  size_t mem_budget_bytes = 0;
  /// Threads for parallel operators; 0 = the engine's ExecConfig value.
  /// QueryContext ignores this (threading is ExecConfig's domain);
  /// executors that take QueryLimits — e.g. OlapEngine::Execute — apply
  /// it as an ExecConfig override.
  size_t num_threads = 0;
  /// Cooperative cancellation; callers keep a copy and Cancel() it.
  CancellationToken cancel;
};

/// The one documented way to configure per-query governance: deadline,
/// memory cap, and thread count in a single struct, usable both as a
/// session's standing defaults and as a per-request override.
///
/// Zero means "inherit": a session default of zero falls through to the
/// engine's configuration, and a per-request override of zero falls
/// through to the session default (see Overridden). OlapEngine::Execute /
/// ExecuteSql accept a SessionLimits directly; the query server builds one
/// per request by layering the request's headers over the session's
/// stored defaults, and the shell's \limits command sets one for the
/// interactive session.
struct SessionLimits {
  /// Wall-clock deadline in milliseconds from admission; 0 = none.
  double deadline_ms = 0.0;
  /// Per-query memory cap in bytes; 0 = uncapped (pool still applies).
  size_t mem_budget_bytes = 0;
  /// Threads for parallel operators; 0 = the engine's ExecConfig value.
  size_t num_threads = 0;
  /// Cooperative cancellation. Each request should carry its own token
  /// (Overridden adopts the override's token), so cancelling one request
  /// — e.g. on client disconnect — never aborts the session's others.
  CancellationToken cancel;

  /// Layers per-request `overrides` over these session defaults: nonzero
  /// override fields win, zero fields inherit, and the override's token is
  /// always adopted.
  SessionLimits Overridden(const SessionLimits& overrides) const {
    SessionLimits merged = overrides;
    if (merged.deadline_ms <= 0.0) merged.deadline_ms = deadline_ms;
    if (merged.mem_budget_bytes == 0) merged.mem_budget_bytes = mem_budget_bytes;
    if (merged.num_threads == 0) merged.num_threads = num_threads;
    return merged;
  }

  /// The admission-time slice a QueryContext is built from. Carries the
  /// thread cap too, for executors that take QueryLimits.
  QueryLimits ToQueryLimits() const {
    QueryLimits limits;
    limits.deadline_ms = deadline_ms;
    limits.mem_budget_bytes = mem_budget_bytes;
    limits.num_threads = num_threads;
    limits.cancel = cancel;
    return limits;
  }
};

/// The governed lifecycle of one executing query: cancellation token,
/// wall-clock deadline, and memory reservation, polled by every operator
/// at row/morsel-stride boundaries. Construction pins the admission time;
/// the object must outlive the query's ExecContext.
///
/// CheckAlive is the single liveness gate: operators call it (directly or
/// via ExecContext::PollQuery) and unwind with the returned non-OK Status.
/// It is cheap enough for inner loops at a ~1k-row stride: one relaxed
/// atomic load, plus one steady_clock read when a deadline is set.
class QueryContext {
 public:
  QueryContext() : QueryContext(QueryLimits(), nullptr) {}
  QueryContext(const QueryLimits& limits, MemoryPool* pool)
      : limits_(limits),
        memory_(pool, limits.mem_budget_bytes),
        deadline_(limits.deadline_ms > 0
                      ? std::chrono::steady_clock::now() +
                            std::chrono::duration_cast<
                                std::chrono::steady_clock::duration>(
                                std::chrono::duration<double, std::milli>(
                                    limits.deadline_ms))
                      : std::chrono::steady_clock::time_point::max()) {}

  QueryContext(const QueryContext&) = delete;
  QueryContext& operator=(const QueryContext&) = delete;

  /// OK while the query may keep running; Cancelled / DeadlineExceeded
  /// otherwise. Sticky: once non-OK it stays non-OK.
  Status CheckAlive() const;

  /// Charges `bytes` against the query cap and the engine pool
  /// (ResourceExhausted on rejection). Released by ReleaseMemory or, in
  /// bulk, by this context's destruction.
  Status ReserveMemory(size_t bytes) { return memory_.Reserve(bytes); }
  void ReleaseMemory(size_t bytes) { memory_.Release(bytes); }

  const CancellationToken& token() const { return limits_.cancel; }
  const MemoryReservation& memory() const { return memory_; }
  bool has_deadline() const {
    return deadline_ != std::chrono::steady_clock::time_point::max();
  }

 private:
  QueryLimits limits_;
  MemoryReservation memory_;
  const std::chrono::steady_clock::time_point deadline_;
};

/// Engine-level governance counters (monotonic; peak_reserved_bytes is a
/// high-water gauge sampled from the pool).
struct GovernanceStats {
  uint64_t cancellations = 0;      // Queries that returned kCancelled.
  uint64_t deadline_exceeded = 0;  // Queries that returned kDeadlineExceeded.
  uint64_t mem_rejections = 0;     // Queries that returned kResourceExhausted.
  uint64_t pool_reclaims = 0;      // Pool-pressure reclaimer invocations.
  uint64_t peak_reserved_bytes = 0;

  std::string ToString() const;
};

}  // namespace gmdj

#endif  // GMDJ_GOVERNANCE_QUERY_CONTEXT_H_
