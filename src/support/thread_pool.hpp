// Persistent host thread pool for data-parallel loops over independent work
// items (the engine uses it to run one simulated tile per item).
//
// Design constraints, in order: (1) determinism — the pool only *schedules*;
// callers must guarantee items touch disjoint state, so results cannot depend
// on interleaving; (2) no per-dispatch allocation or kernel wake-up while
// the pool is warm — threads are spawned once, and between jobs they poll
// for the next one for a bounded time before they park on a condition
// variable, so a stream of back-to-back jobs (one per simulated superstep)
// never pays a wake-up round trip; (3) exceptions thrown by items are
// captured and rethrown on the calling thread (first one wins), so error
// behaviour matches a serial loop.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>
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
    stop_.store(true);
    wake(workerGate_);
    for (std::thread& t : workers_) t.join();
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t numThreads() const { return workers_.size() + 1; }

  /// Runs fn(0..n-1), each index exactly once, across the pool. Blocks until
  /// all indices are done, and no worker touches the job (or `fn`) after it
  /// returns. Indices are claimed dynamically (atomic counter), so the
  /// assignment of index to thread is nondeterministic — items must not
  /// share mutable state. Not reentrant: do not call parallelFor from inside
  /// an item, or from two threads at once.
  template <typename Fn>
  void parallelFor(std::size_t n, const Fn& fn) {
    if (n == 0) return;
    if (workers_.empty() || n == 1) {
      for (std::size_t i = 0; i < n; ++i) fn(i);
      return;
    }
    // Publish. The previous job is retired: it is closed and no worker is
    // inside it, so nothing reads the job fields while they are written,
    // and the store below releases them to every worker that joins.
    fn_ = &fn;
    call_ = [](const void* f, std::size_t i) {
      (*static_cast<const Fn*>(f))(i);
    };
    limit_ = n;
    next_.store(0, std::memory_order_relaxed);
    const std::uint64_t open = ((epochOf(state_.load()) + 1) << kEpochShift) |
                               kOpenBit;
    state_.store(open);
    wake(workerGate_);
    drain();
    // Retire. Every index is claimed; wait until each worker that joined has
    // finished its items and left, then close the job in the same atomic
    // step, so no late worker can join it. A worker joins a job at most
    // once, so the close can lose to a join only numThreads-1 times.
    for (;;) {
      await(callerGate_, [&] { return activeOf(state_.load()) == 0; });
      std::uint64_t idle = open;
      if (state_.compare_exchange_strong(idle, open & ~kOpenBit)) break;
    }
    std::exception_ptr error;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      error = std::exchange(firstError_, nullptr);
    }
    if (error) std::rethrow_exception(error);
  }

 private:
  // state_ packs the job generation (epoch), whether the job takes new
  // workers (open) and how many workers are inside it (active), so a worker
  // joins — and the caller closes — a job with one compare-exchange.
  static constexpr std::uint64_t kActiveMask = 0xffffffffu;
  static constexpr std::uint64_t kOpenBit = std::uint64_t{1} << 32;
  static constexpr unsigned kEpochShift = 33;
  static std::uint64_t epochOf(std::uint64_t s) { return s >> kEpochShift; }
  static std::uint64_t activeOf(std::uint64_t s) { return s & kActiveMask; }

  // How long a thread polls before it parks: long enough to cover the host
  // work between two supersteps of a solve, short enough that an idle pool
  // gives its cores back at once. Measured on the bench_e2e workloads.
  static constexpr std::chrono::microseconds kSpin{100};
  // Polls between two yields. Yielding lets an oversubscribed host (more
  // lanes than cores) run the thread that is holding everyone up.
  static constexpr int kPauseBurst = 32;

  /// Where threads park once their poll runs out: the workers between jobs,
  /// the caller while stragglers finish. `seq` changes, under mutex_, with
  /// every wake, so the condition variable's predicate reads only guarded
  /// state.
  struct Gate {
    std::condition_variable cv;
    std::atomic<std::size_t> parked{0};
    std::uint64_t seq = 0;
  };

  static void cpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#endif
  }

  /// Returns once ready() holds: polls it for kSpin, then parks on `gate`.
  /// Lost wake-ups cannot happen: a waiter counts itself parked before its
  /// last check of ready(), and whoever makes ready() true checks the count
  /// afterwards (both sequentially consistent), so one of them sees the
  /// other.
  template <typename Ready>
  void await(Gate& gate, const Ready& ready) {
    const auto deadline = std::chrono::steady_clock::now() + kSpin;
    for (;;) {
      for (int i = 0; i < kPauseBurst; ++i) {
        if (ready()) return;
        cpuRelax();
      }
      if (std::chrono::steady_clock::now() >= deadline) break;
      std::this_thread::yield();
    }
    std::unique_lock<std::mutex> lock(mutex_);
    gate.parked.fetch_add(1);
    while (!ready()) {
      const std::uint64_t seq = gate.seq;
      gate.cv.wait(lock, [&] { return gate.seq != seq; });
    }
    gate.parked.fetch_sub(1);
  }

  /// Wakes whatever is parked on `gate`; call after making its ready() true.
  void wake(Gate& gate) {
    if (gate.parked.load() == 0) return;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++gate.seq;
    }
    gate.cv.notify_all();
  }

  void workerLoop() {
    std::uint64_t seen = 0;  // epoch of the last job this worker joined
    for (;;) {
      std::uint64_t s = 0;
      await(workerGate_, [&] {
        if (stop_.load()) return true;
        s = state_.load();
        return (s & kOpenBit) != 0 && epochOf(s) != seen;
      });
      if (stop_.load()) return;
      // Join: count this worker in, unless the job closed meanwhile (then
      // wait for the next one). A failed exchange reloads `s`.
      bool joined = false;
      while (!joined && (s & kOpenBit) != 0 && epochOf(s) != seen) {
        joined = state_.compare_exchange_weak(s, s + 1);
      }
      if (!joined) continue;
      seen = epochOf(s);
      drain();
      // Leave. The last worker out wakes the caller if it parked.
      if (activeOf(state_.fetch_sub(1)) == 1) wake(callerGate_);
    }
  }

  /// Claims indices until the job is exhausted. Runs on the caller and on
  /// every worker inside the job.
  void drain() {
    for (;;) {
      const std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
      if (i >= limit_) return;
      try {
        call_(fn_, i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mutex_);
        if (!firstError_) firstError_ = std::current_exception();
      }
    }
  }

  std::atomic<std::uint64_t> state_{0};
  std::atomic<bool> stop_{false};

  // The current job: written only while it is closed and no worker is
  // inside it; read by workers only after they joined it.
  const void* fn_ = nullptr;
  void (*call_)(const void*, std::size_t) = nullptr;
  std::size_t limit_ = 0;
  std::atomic<std::size_t> next_{0};

  std::mutex mutex_;  // guards firstError_ and both gates' seq
  std::exception_ptr firstError_;
  Gate workerGate_;
  Gate callerGate_;
  std::vector<std::thread> workers_;  // last: threads use every member above
};

}  // namespace graphene::support
