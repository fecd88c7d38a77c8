#include "parallel/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <memory>

#include "common/check.h"

namespace gmdj {

namespace {

/// True on threads owned by a pool; ParallelFor uses it to run nested
/// loops inline instead of dispatching (a worker waiting on other workers
/// of the same pool could otherwise deadlock it).
thread_local bool t_inside_pool_worker = false;

/// Shared state of one ParallelFor invocation. Held by shared_ptr so a
/// straggling worker that wakes after the loop completed can still probe
/// the (empty) queues safely.
struct LoopState {
  LoopState(size_t num_tasks, size_t num_slots,
            std::function<void(size_t, size_t)> body)
      : fn(std::move(body)), queues(num_slots), total(num_tasks) {}

  std::function<void(size_t, size_t)> fn;
  std::vector<WorkStealingQueue> queues;
  const size_t total;
  std::atomic<size_t> completed{0};
  std::mutex done_mu;
  std::condition_variable done_cv;

  /// Next task for `slot`: own queue first, then steal, scanning victims
  /// starting just after the thief so steals spread out.
  bool NextTask(size_t slot, size_t* task) {
    if (queues[slot].PopFront(task)) return true;
    const size_t n = queues.size();
    for (size_t i = 1; i < n; ++i) {
      if (queues[(slot + i) % n].StealBack(task)) return true;
    }
    return false;
  }

  void RunSlot(size_t slot) {
    size_t task;
    while (NextTask(slot, &task)) {
      fn(task, slot);
      if (completed.fetch_add(1, std::memory_order_acq_rel) + 1 == total) {
        std::lock_guard<std::mutex> lock(done_mu);
        done_cv.notify_all();
      }
    }
  }
};

}  // namespace

ThreadPool::ThreadPool(size_t num_workers) { EnsureWorkers(num_workers); }

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

size_t ThreadPool::num_workers() const {
  std::lock_guard<std::mutex> lock(mu_);
  return workers_.size();
}

void ThreadPool::EnsureWorkers(size_t n) {
  n = std::min(n, kMaxWorkers);
  std::lock_guard<std::mutex> lock(mu_);
  GMDJ_CHECK(!stop_);
  while (workers_.size() < n) {
    workers_.emplace_back([this] { WorkerMain(); });
  }
}

void ThreadPool::WorkerMain() {
  t_inside_pool_worker = true;
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !jobs_.empty(); });
      if (jobs_.empty()) return;  // stop_ set and queue drained.
      job = std::move(jobs_.front());
      jobs_.pop_front();
    }
    job();
  }
}

void ThreadPool::ParallelFor(
    size_t num_tasks, size_t parallelism,
    const std::function<void(size_t task, size_t slot)>& fn) {
  if (num_tasks == 0) return;
  // Capped by the workers that exist: growing the pool is the caller's
  // decision (EnsureWorkers), never a side effect of one loop.
  const size_t slots =
      std::min({parallelism, num_tasks, num_workers() + 1});
  if (slots <= 1 || t_inside_pool_worker) {
    for (size_t task = 0; task < num_tasks; ++task) fn(task, 0);
    return;
  }

  auto state = std::make_shared<LoopState>(num_tasks, slots, fn);
  // Block partitioning: slot s seeds tasks [s*chunk, ...), so adjacent
  // morsels (adjacent detail rows) start on the same thread.
  const size_t chunk = (num_tasks + slots - 1) / slots;
  for (size_t task = 0; task < num_tasks; ++task) {
    state->queues[std::min(task / chunk, slots - 1)].PushBack(task);
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t slot = 1; slot < slots; ++slot) {
      jobs_.emplace_back([state, slot] { state->RunSlot(slot); });
    }
  }
  cv_.notify_all();

  state->RunSlot(0);
  std::unique_lock<std::mutex> lock(state->done_mu);
  state->done_cv.wait(lock, [&state] {
    return state->completed.load(std::memory_order_acquire) == state->total;
  });
}

ThreadPool* ThreadPool::Shared() {
  static ThreadPool* pool = [] {
    const unsigned hw = std::thread::hardware_concurrency();
    return new ThreadPool(hw > 1 ? hw - 1 : 0);
  }();
  return pool;
}

}  // namespace gmdj
