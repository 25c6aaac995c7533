// Work-stealing worker thread pool with per-worker busy-time accounting.
//
// The pool backs the "massively parallel" batch-selection step of PM-AReST
// (paper Sec. III-B) and the Table II utilization experiment: each worker
// records the wall time it spends executing tasks, so callers can compute
// utilization = busy_time / (threads * elapsed).
//
// Structure: every worker owns a lock-free Chase-Lev deque
// (util/chase_lev_deque.h). Workers pop their own deque LIFO and steal FIFO
// from siblings when empty, so bursts of submissions spread across the pool
// without funnelling through a lock; submissions from threads that are not
// pool workers (Chase-Lev's bottom end is single-owner) land in a bounded
// lock-free MPMC injection ring (util/mpmc_ring.h), so many frontend threads
// — the campaign-service daemon's submitters — never contend on a mutex
// either. Blocking joins (parallel_for / parallel_reduce) never sleep: the
// calling thread executes chunks itself and steals unrelated pool tasks
// while waiting, which makes nested parallel sections deadlock-free.
//
// Shutdown contract: a task accepted by submit() before the destructor
// begins either runs to completion or is destroyed unrun, in which case its
// future reports std::future_error{broken_promise}. Callers never see a
// silently-dropped future (util_test pins this).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <mutex>
#include <new>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/chase_lev_deque.h"
#include "util/mpmc_ring.h"
#include "util/thread_annotations.h"

namespace recon::util {

/// Move-only type-erased `void()` callable with small-buffer storage.
/// Unlike std::function it can hold move-only callables (packaged_task), so
/// ThreadPool::submit moves tasks straight into the queue with no shared_ptr
/// indirection and no extra allocation for small lambdas.
class TaskFunction {
 public:
  TaskFunction() noexcept = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, TaskFunction> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  TaskFunction(F&& fn) {  // NOLINT(google-explicit-constructor)
    using D = std::decay_t<F>;
    if constexpr (sizeof(D) <= kInlineSize &&
                  alignof(D) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<D>) {
      ::new (storage()) D(std::forward<F>(fn));
      ops_ = &inline_ops<D>;
    } else {
      ::new (storage()) D*(new D(std::forward<F>(fn)));
      ops_ = &heap_ops<D>;
    }
  }

  TaskFunction(TaskFunction&& o) noexcept : ops_(o.ops_) {
    if (ops_ != nullptr) ops_->move(o.storage(), storage());
    o.ops_ = nullptr;
  }

  TaskFunction& operator=(TaskFunction&& o) noexcept {
    if (this != &o) {
      reset();
      ops_ = o.ops_;
      if (ops_ != nullptr) ops_->move(o.storage(), storage());
      o.ops_ = nullptr;
    }
    return *this;
  }

  TaskFunction(const TaskFunction&) = delete;
  TaskFunction& operator=(const TaskFunction&) = delete;

  ~TaskFunction() { reset(); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  void operator()() { ops_->invoke(storage()); }

 private:
  static constexpr std::size_t kInlineSize = 48;

  struct Ops {
    void (*invoke)(void*);
    void (*move)(void* from, void* to);
    void (*destroy)(void*);
  };

  template <typename D>
  static constexpr Ops inline_ops = {
      [](void* p) { (*static_cast<D*>(p))(); },
      [](void* from, void* to) {
        ::new (to) D(std::move(*static_cast<D*>(from)));
        static_cast<D*>(from)->~D();
      },
      [](void* p) { static_cast<D*>(p)->~D(); }};

  template <typename D>
  static constexpr Ops heap_ops = {
      [](void* p) { (**static_cast<D**>(p))(); },
      [](void* from, void* to) {
        ::new (to) D*(*static_cast<D**>(from));
      },
      [](void* p) { delete *static_cast<D**>(p); }};

  void* storage() noexcept { return &buf_; }

  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(storage());
      ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) std::byte buf_[kInlineSize];
  const Ops* ops_ = nullptr;
};

class ThreadPool {
 public:
  /// Creates a pool with `num_threads` workers (at least 1).
  explicit ThreadPool(unsigned num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned size() const noexcept { return static_cast<unsigned>(workers_.size()); }

  /// Enqueues a task; returns a future for its completion. The task is moved
  /// into the worker deque directly (no shared_ptr per task).
  template <typename F>
  std::future<void> submit(F&& fn) {
    std::packaged_task<void()> task(std::forward<F>(fn));
    std::future<void> fut = task.get_future();
    push_task(TaskFunction(std::move(task)));
    return fut;
  }

  /// Runs `body` over [begin, end), distributing contiguous chunks across
  /// workers; the calling thread participates and steals pool work while
  /// waiting, so a pool of size T delivers up to T+1-way parallelism.
  ///
  /// `body` is invoked directly (no std::function indirection) and may take
  /// either a half-open range — void(std::size_t lo, std::size_t hi) — or a
  /// single index — void(std::size_t i). Prefer the range form in hot code:
  /// it is one type-erased call per chunk instead of per index.
  ///
  /// If `body` throws, unclaimed chunks are abandoned and the first exception
  /// is rethrown from this call on the joining thread (parallel_reduce
  /// behaves the same); the pool stays usable afterwards.
  template <typename Body>
  void parallel_for(std::size_t begin, std::size_t end, Body&& body,
                    std::size_t grain = 0) {
    run_chunked(begin, end, grain,
                [&body](std::size_t lo, std::size_t hi, unsigned /*slot*/) {
                  invoke_on_range(body, lo, hi);
                });
  }

  /// Parallel reduction: runs `body(acc, lo, hi)` over chunks of [begin, end)
  /// and returns the per-participant partial accumulators (the last slot is
  /// the calling thread's). Chunks are handed out dynamically, so which
  /// partial absorbed which chunk is not deterministic: merging the partials
  /// must be order-insensitive for run-to-run determinism (exact for integer
  /// sums, counts, max with total-order tie-breaks; floating-point sums may
  /// differ in the last ulp between runs).
  template <typename T, typename Body>
  std::vector<T> parallel_reduce(std::size_t begin, std::size_t end, T identity,
                                 Body&& body, std::size_t grain = 0) {
    const unsigned parties = size() + 1;
    std::vector<T> partials(parties, identity);
    run_chunked(begin, end, grain,
                [&body, &partials](std::size_t lo, std::size_t hi, unsigned slot) {
                  body(partials[slot], lo, hi);
                });
    return partials;
  }

  /// Total time workers have spent executing tasks, in nanoseconds, summed
  /// across workers since construction (or the last reset).
  std::uint64_t busy_nanos() const noexcept {
    return busy_nanos_.load(std::memory_order_relaxed);
  }
  void reset_busy_nanos() noexcept {
    busy_nanos_.store(0, std::memory_order_relaxed);
  }

 private:
  /// One per worker thread. The deque holds heap-allocated TaskFunctions:
  /// Chase-Lev transfers word-sized pointers, so the pool allocates on push
  /// and deletes after execution (the deque itself never touches pointees).
  struct Worker {
    ChaseLevDeque<TaskFunction> deque;
  };

  template <typename Body>
  static void invoke_on_range(Body& body, std::size_t lo, std::size_t hi) {
    if constexpr (std::is_invocable_v<Body&, std::size_t, std::size_t>) {
      body(lo, hi);
    } else {
      for (std::size_t i = lo; i < hi; ++i) body(i);
    }
  }

  /// Shared chunked-execution driver behind parallel_for / parallel_reduce.
  /// `chunk` receives (lo, hi, slot) where slot < size() + 1 identifies the
  /// participant (stable per helper task; size() is the calling thread).
  template <typename Chunk>
  void run_chunked(std::size_t begin, std::size_t end, std::size_t grain,
                   Chunk&& chunk) {
    if (begin >= end) return;
    const std::size_t total = end - begin;
    const std::size_t parties = static_cast<std::size_t>(size()) + 1;
    if (grain == 0) grain = std::max<std::size_t>(1, total / (parties * 4));
    const std::size_t num_chunks = (total + grain - 1) / grain;
    const unsigned caller_slot = size();

    if (num_chunks <= 1) {
      chunk(begin, end, caller_slot);
      return;
    }

    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> chunks_done{0};
    std::atomic<std::size_t> helpers_done{0};
    // First exception thrown by any chunk; remaining chunks are skipped (the
    // claim loop still drains them so the join accounting stays exact) and
    // the exception rethrows on the joining caller after every helper exits.
    // The slot is a local with annotated members, so the thread-safety
    // analysis checks the capture and rethrow sites like any guarded state.
    struct ErrorSlot {
      Mutex mutex;
      std::exception_ptr first RECON_GUARDED_BY(mutex);
    };
    std::atomic<bool> failed{false};
    ErrorSlot error;
    auto run_slot = [&](unsigned slot) {
      for (;;) {
        const std::size_t c = next.fetch_add(1, std::memory_order_relaxed);
        if (c >= num_chunks) return;
        const std::size_t lo = begin + c * grain;
        const std::size_t hi = std::min(end, lo + grain);
        if (!failed.load(std::memory_order_acquire)) {
          try {
            chunk(lo, hi, slot);
          } catch (...) {
            MutexLock lock(error.mutex);
            if (error.first == nullptr) error.first = std::current_exception();
            failed.store(true, std::memory_order_release);
          }
        }
        chunks_done.fetch_add(1, std::memory_order_release);
      }
    };

    const std::size_t helpers = std::min<std::size_t>(size(), num_chunks - 1);
    for (std::size_t t = 0; t < helpers; ++t) {
      push_task(TaskFunction([&run_slot, &helpers_done, t] {
        run_slot(static_cast<unsigned>(t));
        helpers_done.fetch_add(1, std::memory_order_release);
      }));
    }
    run_slot(caller_slot);
    // Helper tasks reference this stack frame, so wait until every one has
    // finished (not merely until all chunks are claimed). While waiting,
    // execute other pool tasks — this keeps nested parallel sections from
    // deadlocking and turns idle waits into useful work.
    while (chunks_done.load(std::memory_order_acquire) < num_chunks ||
           helpers_done.load(std::memory_order_acquire) < helpers) {
      if (!try_run_one_task(/*account_busy=*/false)) std::this_thread::yield();
    }
    if (failed.load(std::memory_order_acquire)) {
      // Every helper has exited, but read the slot under its mutex anyway:
      // the lock discipline is what the static analysis certifies.
      std::exception_ptr err;
      {
        MutexLock lock(error.mutex);
        err = error.first;
      }
      std::rethrow_exception(err);
    }
  }

  void push_task(TaskFunction task);
  /// Pops or steals one task and runs it. Returns false if the pool is idle.
  bool try_run_one_task(bool account_busy);
  void worker_loop(unsigned index);

  std::vector<Worker> queues_;  // one per worker; fixed after construction
  std::vector<std::thread> workers_;
  // External submissions land here (only a pool worker may push the bottom
  // of its own Chase-Lev deque); workers drain it after their own deque and
  // before stealing. Lock-free so concurrent frontend submitters never
  // serialize on a mutex; tasks spawned *by* pool work (nested joins,
  // worker-side submits) go through the per-worker deques instead. Holds
  // heap-allocated TaskFunctions (word-sized elements keep the ring cells
  // trivially movable); push allocates, the executing side deletes.
  MpmcRing<TaskFunction*> inject_ring_{1024};
  std::atomic<std::size_t> pending_{0};
  // lint:guard-ok(sleep_mutex_ guards no members: it only orders the sleep
  // condition variable against the pending_/stop_ atomics so notifies are
  // never lost; all shared pool state is atomic or per-Worker guarded)
  std::mutex sleep_mutex_;
  std::condition_variable sleep_cv_;
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> busy_nanos_{0};
};

/// Process-wide default pool sized to the hardware concurrency. Constructed
/// lazily on first use.
ThreadPool& default_pool();

}  // namespace recon::util
