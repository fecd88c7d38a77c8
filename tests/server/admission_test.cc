// Admission queue: capacity back-pressure, one-item FIFO pops, and
// close-with-drain semantics.

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "server/admission.h"

namespace gmdj {
namespace server {
namespace {

TEST(AdmissionQueueTest, TryPushRespectsCapacity) {
  AdmissionQueue<int> queue(2);
  EXPECT_TRUE(queue.TryPush(1));
  EXPECT_TRUE(queue.TryPush(2));
  EXPECT_FALSE(queue.TryPush(3));  // Full: the caller's 503.
  EXPECT_EQ(queue.size(), 2u);
}

// The next two names date from the batching PopBatch API; they now check
// that Pop drains queued items one at a time and never waits to coalesce.
TEST(AdmissionQueueTest, PopBatchCollectsQueuedItemsUpToMaxBatch) {
  AdmissionQueue<int> queue(8);
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(queue.TryPush(i));
  EXPECT_EQ(queue.Pop(), 0);
  EXPECT_EQ(queue.size(), 2u);  // One item per Pop; the rest stay queued.
  EXPECT_EQ(queue.Pop(), 1);
  EXPECT_EQ(queue.Pop(), 2);
  EXPECT_EQ(queue.size(), 0u);
}

TEST(AdmissionQueueTest, ZeroWindowDisablesCoalescingAcrossWaits) {
  AdmissionQueue<int> queue(8);
  ASSERT_TRUE(queue.TryPush(42));
  std::thread producer([&queue] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    queue.TryPush(43);
  });
  // Something is queued: Pop takes it at once, never waits for more.
  EXPECT_EQ(queue.Pop(), 42);
  producer.join();
  EXPECT_EQ(queue.size(), 1u);  // The later push stays queued.
  EXPECT_EQ(queue.Pop(), 43);
}

TEST(AdmissionQueueTest, PopBlocksUntilAPush) {
  AdmissionQueue<int> queue(8);
  std::thread producer([&queue] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    queue.TryPush(2);
  });
  EXPECT_EQ(queue.Pop(), 2);  // Empty at the call: waits for the push.
  producer.join();
}

TEST(AdmissionQueueTest, CloseDrainsThenReturnsEmpty) {
  AdmissionQueue<int> queue(8);
  ASSERT_TRUE(queue.TryPush(7));
  queue.Close();
  EXPECT_FALSE(queue.TryPush(8));  // Closed: no new work.
  EXPECT_EQ(queue.Pop(), 7);
  EXPECT_FALSE(queue.Pop().has_value());  // Drained.
}

TEST(AdmissionQueueTest, CloseWakesBlockedPopper) {
  AdmissionQueue<int> queue(8);
  std::atomic<bool> woke{false};
  std::thread popper([&] {
    EXPECT_FALSE(queue.Pop().has_value());
    woke.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  queue.Close();
  popper.join();
  EXPECT_TRUE(woke.load());
}

TEST(AdmissionQueueTest, ManyProducersManyConsumersLoseNothing) {
  constexpr int kProducers = 4;
  constexpr int kConsumers = 3;
  constexpr int kPerProducer = 2000;
  AdmissionQueue<int> queue(64);
  std::atomic<int> popped{0};
  std::atomic<int> pushed{0};

  std::vector<std::thread> consumers;
  for (int c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&] {
      while (true) {
        if (!queue.Pop().has_value()) return;  // Closed and drained.
        popped.fetch_add(1);
      }
    });
  }
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&] {
      for (int i = 0; i < kPerProducer; ++i) {
        if (queue.TryPush(i)) pushed.fetch_add(1);
      }
    });
  }
  for (std::thread& t : producers) t.join();
  queue.Close();
  for (std::thread& t : consumers) t.join();
  // Every accepted item came out exactly once (rejected ones never do).
  EXPECT_EQ(popped.load(), pushed.load());
  EXPECT_GT(pushed.load(), 0);
}

}  // namespace
}  // namespace server
}  // namespace gmdj
