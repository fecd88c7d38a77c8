#ifndef GMDJ_SERVER_ADMISSION_H_
#define GMDJ_SERVER_ADMISSION_H_

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

namespace gmdj {
namespace server {

/// Bounded MPMC admission queue — the server's back-pressure point.
/// Connection threads TryPush parsed requests (rejection → 503, the
/// client's signal to back off); worker threads Pop one job at a time.
///
/// Overload protection: every entry carries a priority (higher = more
/// important, default 0). A push against a full queue evicts the newest
/// strictly-lower-priority entry instead of failing (the caller answers
/// the evicted request with 503 + Retry-After), and ShedOverdue lets
/// workers drop entries that have waited past a latency bound while
/// higher-priority work is queued — under sustained overload the queue
/// sheds the lowest-priority work first rather than growing its latency
/// without bound. A uniform-priority workload never sheds: back-pressure
/// stays plain full-queue rejection.
///
/// Close() drains cooperatively: pushes start failing immediately, pops
/// keep returning queued items until the queue is empty, then return
/// nothing. Items must be movable; the queue never copies.
template <typename T>
class AdmissionQueue {
 public:
  explicit AdmissionQueue(size_t capacity) : capacity_(capacity) {}

  AdmissionQueue(const AdmissionQueue&) = delete;
  AdmissionQueue& operator=(const AdmissionQueue&) = delete;

  /// False when the queue is full or closed (caller rejects the request).
  bool TryPush(T item) { return TryPush(std::move(item), 0, nullptr); }

  /// Priority-aware push. On a full queue, evicts the newest entry whose
  /// priority is strictly below `priority` (moved into `*evicted` when
  /// non-null) to make room; with no lower-priority victim the push
  /// fails. Never blocks.
  bool TryPush(T item, int priority, T* evicted) {
    bool notify = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_) return false;
      if (items_.size() >= capacity_) {
        // Newest victim first: the oldest lower-priority entries keep
        // their FIFO claim on worker time as long as possible.
        size_t victim = items_.size();
        for (size_t i = items_.size(); i-- > 0;) {
          if (items_[i].priority < priority) {
            victim = i;
            break;
          }
        }
        if (victim == items_.size()) return false;
        if (evicted != nullptr) *evicted = std::move(items_[victim].item);
        items_.erase(items_.begin() + static_cast<ptrdiff_t>(victim));
      }
      items_.push_back(
          Entry{std::move(item), priority, std::chrono::steady_clock::now()});
      notify = true;
    }
    if (notify) ready_.notify_one();
    return true;
  }

  /// Blocks until an item is queued (or the queue closes) and takes the
  /// oldest one. An empty result means closed-and-drained: the worker
  /// should exit.
  std::optional<T> Pop() {
    std::unique_lock<std::mutex> lock(mu_);
    ready_.wait(lock, [&] { return closed_ || !items_.empty(); });
    if (items_.empty()) return std::nullopt;  // Closed and drained.
    T item = std::move(items_.front().item);
    items_.pop_front();
    return item;
  }

  /// Removes and returns every entry that has been queued longer than
  /// `bound` while an entry of strictly higher priority is also queued
  /// (overload: workers cannot keep up and important work is waiting
  /// behind less important work). The caller answers each returned item
  /// with 503 + Retry-After. When all queued work shares one priority
  /// nothing is shed — latency alone is back-pressure, not starvation.
  std::vector<T> ShedOverdue(std::chrono::microseconds bound) {
    std::vector<T> shed;
    std::lock_guard<std::mutex> lock(mu_);
    if (items_.size() < 2) return shed;
    int max_priority = items_.front().priority;
    for (const Entry& entry : items_) {
      if (entry.priority > max_priority) max_priority = entry.priority;
    }
    const auto now = std::chrono::steady_clock::now();
    for (size_t i = 0; i < items_.size();) {
      if (items_[i].priority < max_priority &&
          now - items_[i].enqueued > bound) {
        shed.push_back(std::move(items_[i].item));
        items_.erase(items_.begin() + static_cast<ptrdiff_t>(i));
      } else {
        ++i;
      }
    }
    return shed;
  }

  /// Stops new pushes and wakes every blocked popper.
  void Close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    ready_.notify_all();
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return items_.size();
  }
  bool closed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return closed_;
  }

 private:
  struct Entry {
    T item;
    int priority = 0;
    std::chrono::steady_clock::time_point enqueued;
  };

  const size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable ready_;
  std::deque<Entry> items_;
  bool closed_ = false;
};

}  // namespace server
}  // namespace gmdj

#endif  // GMDJ_SERVER_ADMISSION_H_
