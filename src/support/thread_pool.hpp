// Persistent host thread pool for data-parallel loops over independent work
// items (the engine uses it to run one simulated tile per item).
//
// Design constraints, in order: (1) determinism — the pool only *schedules*;
// callers must guarantee items touch disjoint state, so results cannot depend
// on interleaving; (2) no per-dispatch allocation — threads are spawned once
// and parked on a condition variable between jobs; (3) exceptions thrown by
// items are captured and rethrown on the calling thread (first one wins), so
// error behaviour matches a serial loop.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace graphene::support {

class ThreadPool {
 public:
  /// A pool of `numThreads` total execution lanes. The calling thread
  /// participates in every parallelFor, so only numThreads-1 workers are
  /// spawned; numThreads <= 1 spawns nothing and parallelFor degenerates to
  /// a plain loop.
  explicit ThreadPool(std::size_t numThreads) {
    const std::size_t helpers = numThreads > 1 ? numThreads - 1 : 0;
    workers_.reserve(helpers);
    for (std::size_t i = 0; i < helpers; ++i) {
      workers_.emplace_back([this] { workerLoop(); });
    }
  }

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    wake_.notify_all();
    for (std::thread& t : workers_) t.join();
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t numThreads() const { return workers_.size() + 1; }

  /// Runs fn(0..n-1), each index exactly once, across the pool. Blocks until
  /// all indices are done. Indices are claimed dynamically (atomic counter),
  /// so the assignment of index to thread is nondeterministic — items must
  /// not share mutable state. Not reentrant: do not call parallelFor from
  /// inside an item.
  void parallelFor(std::size_t n, const std::function<void(std::size_t)>& fn) {
    if (n == 0) return;
    if (workers_.empty() || n == 1) {
      for (std::size_t i = 0; i < n; ++i) fn(i);
      return;
    }
    std::unique_lock<std::mutex> lock(mutex_);
    // A worker can linger in drainJob briefly after the previous job's last
    // item finished; publishing a new job under it would let it claim stale
    // indices. Wait for full quiescence first (normally instant).
    idle_.wait(lock, [this] { return active_ == 0; });
    fn_ = &fn;
    limit_ = n;
    next_.store(0, std::memory_order_relaxed);
    pending_.store(n, std::memory_order_relaxed);
    ++generation_;
    lock.unlock();
    wake_.notify_all();
    drainJob(&fn, n);
    lock.lock();
    done_.wait(lock, [this] {
      return pending_.load(std::memory_order_acquire) == 0;
    });
    fn_ = nullptr;
    if (firstError_) {
      std::exception_ptr e = firstError_;
      firstError_ = nullptr;
      lock.unlock();
      std::rethrow_exception(e);
    }
  }

 private:
  void workerLoop() {
    std::uint64_t seen = 0;
    while (true) {
      const std::function<void(std::size_t)>* fn = nullptr;
      std::size_t limit = 0;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        wake_.wait(lock, [&] { return stop_ || generation_ != seen; });
        if (stop_) return;
        seen = generation_;
        fn = fn_;
        limit = limit_;
        ++active_;
      }
      drainJob(fn, limit);
      {
        std::lock_guard<std::mutex> lock(mutex_);
        if (--active_ == 0) idle_.notify_one();
      }
    }
  }

  /// Claims indices until the job is exhausted. Runs on workers and on the
  /// thread that called parallelFor. A worker that wakes after the job has
  /// finished may see fn == nullptr, but then every index is claimed.
  void drainJob(const std::function<void(std::size_t)>* fn,
                std::size_t limit) {
    while (true) {
      const std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
      if (i >= limit) return;
      try {
        (*fn)(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mutex_);
        if (!firstError_) firstError_ = std::current_exception();
      }
      if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        std::lock_guard<std::mutex> lock(mutex_);
        done_.notify_all();
      }
    }
  }

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable wake_;  // workers: new job or shutdown
  std::condition_variable done_;  // caller: all items of the job finished
  std::condition_variable idle_;  // caller: all workers parked again
  std::uint64_t generation_ = 0;
  std::size_t active_ = 0;
  bool stop_ = false;

  // Current job (fn_/limit_ published under mutex_ together with
  // generation_; workers read them only after observing the new generation
  // under the same mutex).
  const std::function<void(std::size_t)>* fn_ = nullptr;
  std::size_t limit_ = 0;
  std::atomic<std::size_t> next_{0};
  std::atomic<std::size_t> pending_{0};
  std::exception_ptr firstError_;
};

}  // namespace graphene::support
