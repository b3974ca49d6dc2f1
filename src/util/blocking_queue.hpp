#pragma once
// MPMC blocking queue with close semantics and an optional capacity bound
// — the work feed between InferenceService::submit and its worker
// threads.
//
// Capacity 0 (the default) keeps the original unbounded behavior: push
// never blocks and memory is bounded only by what callers submit. A
// positive capacity turns the queue into the service's admission-control
// primitive: push() blocks while full (the "block" policy), try_push()
// refuses instead of blocking and distinguishes kFull from kClosed (the
// "reject" policy), and push_shed_oldest() makes room by popping the
// oldest queued items and handing them back to the caller to fail (the
// "shed-oldest" policy).
//
// close() interaction with bounded pushes: close() wakes every blocked
// producer AND consumer. A push() blocked on a full queue returns false
// (item dropped) once closed — it never sneaks an item into a closing
// queue — while items already queued remain poppable until drained, so a
// draining shutdown observes every accepted item exactly once. After
// close(), try_push() returns kClosed and push_shed_oldest() returns
// false without shedding anything.
//
// Every refusal is REPORTED, never silent: callers that race close()
// must translate a false/kClosed/kFull push into a typed failure for
// whoever handed them the item (InferenceService::submit maps kFull to
// AdmissionRejectedError and a closed-queue refusal to its shutdown
// error; see ServiceStressTest.SubmitRacingShutdownAlwaysGetsATypedAnswer).

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <utility>
#include <vector>

#include "util/ordered_mutex.hpp"

namespace dynasparse {

template <typename T>
class BlockingQueue {
 public:
  /// capacity 0 = unbounded (push never blocks or refuses for space).
  /// `rank` places the queue's internal mutex in the global lock
  /// hierarchy (util/ordered_mutex.hpp); the default suits the service's
  /// work feed.
  explicit BlockingQueue(std::size_t capacity = 0,
                         LockRank rank = LockRank::kWorkQueue)
      : capacity_(capacity), mu_(rank) {}

  enum class PushResult { kOk, kFull, kClosed };

  /// Enqueue one item, blocking while the queue is at capacity. Returns
  /// false (dropping the item) once closed — including when close()
  /// arrives while this call is blocked waiting for space.
  bool push(T item) {
    {
      std::unique_lock<OrderedMutex> lk(mu_);
      space_cv_.wait(lk, [&] { return closed_ || !full_locked(); });
      if (closed_) return false;
      items_.push_back(std::move(item));
    }
    items_cv_.notify_one();
    return true;
  }

  /// Non-blocking enqueue: kFull when at capacity, kClosed once closed
  /// (the item is dropped in both refusal cases).
  PushResult try_push(T item) {
    {
      std::lock_guard<OrderedMutex> lk(mu_);
      if (closed_) return PushResult::kClosed;
      if (full_locked()) return PushResult::kFull;
      items_.push_back(std::move(item));
    }
    items_cv_.notify_one();
    return PushResult::kOk;
  }

  /// Enqueue one item, popping the oldest queued items into `shed` (in
  /// queue order) until there is room — one atomic step, so concurrent
  /// shedders cannot over-evict. Returns false (dropping the item,
  /// shedding nothing) once closed. With capacity 0 this never sheds.
  bool push_shed_oldest(T item, std::vector<T>& shed) {
    {
      std::lock_guard<OrderedMutex> lk(mu_);
      if (closed_) return false;
      while (full_locked()) {
        shed.push_back(std::move(items_.front()));
        items_.pop_front();
      }
      items_.push_back(std::move(item));
    }
    items_cv_.notify_one();
    return true;
  }

  /// Block until an item is available or the queue is closed *and*
  /// drained. Returns false only in the latter case.
  bool pop(T& out) {
    std::unique_lock<OrderedMutex> lk(mu_);
    items_cv_.wait(lk, [&] { return closed_ || !items_.empty(); });
    if (items_.empty()) return false;
    out = std::move(items_.front());
    items_.pop_front();
    lk.unlock();
    space_cv_.notify_one();
    return true;
  }

  /// Non-blocking pop; false when nothing is queued right now.
  bool try_pop(T& out) {
    {
      std::lock_guard<OrderedMutex> lk(mu_);
      if (items_.empty()) return false;
      out = std::move(items_.front());
      items_.pop_front();
    }
    space_cv_.notify_one();
    return true;
  }

  /// Stop accepting pushes and wake all blocked producers and consumers.
  /// Queued items remain poppable until drained.
  void close() {
    {
      std::lock_guard<OrderedMutex> lk(mu_);
      closed_ = true;
    }
    items_cv_.notify_all();
    space_cv_.notify_all();
  }

  bool closed() const {
    std::lock_guard<OrderedMutex> lk(mu_);
    return closed_;
  }

  std::size_t size() const {
    std::lock_guard<OrderedMutex> lk(mu_);
    return items_.size();
  }

  std::size_t capacity() const { return capacity_; }

 private:
  bool full_locked() const {
    return capacity_ > 0 && items_.size() >= capacity_;
  }

  const std::size_t capacity_;
  mutable OrderedMutex mu_;
  OrderedCondVar items_cv_;  // waited on by consumers
  OrderedCondVar space_cv_;  // waited on by bounded producers
  std::deque<T> items_;
  bool closed_ = false;
};

}  // namespace dynasparse
