#include "parallel/thread_pool.h"

#include <atomic>
#include <map>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "gtest/gtest.h"

namespace gmdj {
namespace {

TEST(WorkStealingQueueTest, OwnerPopsFifoThiefPopsLifo) {
  WorkStealingQueue q;
  for (size_t t = 0; t < 4; ++t) q.PushBack(t);
  EXPECT_EQ(q.size(), 4u);

  size_t task = 99;
  ASSERT_TRUE(q.PopFront(&task));
  EXPECT_EQ(task, 0u);  // Oldest first for the owner.
  ASSERT_TRUE(q.StealBack(&task));
  EXPECT_EQ(task, 3u);  // Newest first for a thief.
  ASSERT_TRUE(q.PopFront(&task));
  EXPECT_EQ(task, 1u);
  ASSERT_TRUE(q.StealBack(&task));
  EXPECT_EQ(task, 2u);
  EXPECT_FALSE(q.PopFront(&task));
  EXPECT_FALSE(q.StealBack(&task));
  EXPECT_EQ(q.size(), 0u);
}

TEST(ThreadPoolTest, ParallelForRunsEveryTaskExactlyOnce) {
  ThreadPool pool(3);
  for (const size_t num_tasks : {0u, 1u, 7u, 1000u}) {
    std::vector<std::atomic<int>> hits(num_tasks);
    for (auto& h : hits) h.store(0);
    pool.ParallelFor(num_tasks, 4,
                     [&](size_t task, size_t /*slot*/) { ++hits[task]; });
    for (size_t t = 0; t < num_tasks; ++t) {
      EXPECT_EQ(hits[t].load(), 1) << "task " << t;
    }
  }
}

TEST(ThreadPoolTest, ZeroWorkerPoolRunsInline) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_workers(), 0u);
  std::atomic<int> sum{0};
  pool.ParallelFor(100, 8, [&](size_t task, size_t slot) {
    EXPECT_EQ(slot, 0u);  // Caller is the only participant.
    sum += static_cast<int>(task);
  });
  EXPECT_EQ(sum.load(), 4950);
}

TEST(ThreadPoolTest, EachSlotIsPinnedToOneThread) {
  ThreadPool pool(4);
  std::mutex mu;
  std::map<size_t, std::set<std::thread::id>> slot_threads;
  pool.ParallelFor(64, 4, [&](size_t /*task*/, size_t slot) {
    std::lock_guard<std::mutex> lock(mu);
    slot_threads[slot].insert(std::this_thread::get_id());
  });
  for (const auto& [slot, threads] : slot_threads) {
    EXPECT_EQ(threads.size(), 1u) << "slot " << slot;
  }
}

TEST(ThreadPoolTest, NestedParallelForRunsInlineWithoutDeadlock) {
  ThreadPool pool(2);
  std::atomic<int> inner_tasks{0};
  pool.ParallelFor(4, 3, [&](size_t /*task*/, size_t /*slot*/) {
    // A nested loop dispatched from inside a worker must not wait on the
    // (possibly fully busy) pool.
    pool.ParallelFor(10, 3,
                     [&](size_t /*t*/, size_t /*s*/) { ++inner_tasks; });
  });
  EXPECT_EQ(inner_tasks.load(), 40);
}

TEST(ThreadPoolTest, EnsureWorkersGrowsButNeverShrinks) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_workers(), 1u);
  pool.EnsureWorkers(5);
  EXPECT_EQ(pool.num_workers(), 5u);
  pool.EnsureWorkers(2);
  EXPECT_EQ(pool.num_workers(), 5u);
}

TEST(ThreadPoolTest, ParallelForOversubscribesPastHardwareConcurrency) {
  ThreadPool pool(0);
  std::mutex mu;
  std::set<size_t> slots;
  // A caller that honours a configured thread count grows the pool first;
  // the workers then exist regardless of the machine's core count.
  pool.EnsureWorkers(7);
  pool.ParallelFor(256, 8, [&](size_t /*task*/, size_t slot) {
    std::lock_guard<std::mutex> lock(mu);
    slots.insert(slot);
  });
  EXPECT_GE(pool.num_workers(), 7u);
  EXPECT_GE(slots.size(), 1u);
  for (const size_t slot : slots) EXPECT_LT(slot, 8u);
}

TEST(ThreadPoolTest, ConcurrentParallelForCallsFromSeparateThreads) {
  ThreadPool* pool = ThreadPool::Shared();
  constexpr int kCallers = 4;
  constexpr size_t kTasks = 200;
  std::vector<std::atomic<int>> counts(kCallers);
  for (auto& c : counts) c.store(0);
  std::vector<std::thread> callers;
  for (int i = 0; i < kCallers; ++i) {
    callers.emplace_back([pool, &counts, i] {
      pool->ParallelFor(kTasks, 3,
                        [&counts, i](size_t, size_t) { ++counts[i]; });
    });
  }
  for (std::thread& t : callers) t.join();
  for (int i = 0; i < kCallers; ++i) {
    EXPECT_EQ(counts[i].load(), static_cast<int>(kTasks));
  }
}

}  // namespace
}  // namespace gmdj
