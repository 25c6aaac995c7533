#include "util/thread_pool.h"

#include <algorithm>

namespace recon::util {

namespace {

// Which pool (if any) the current thread is a worker of, and its index.
// Lets push_task enqueue into the submitting worker's own deque (LIFO reuse,
// no cross-thread contention) and lets try_run_one_task pop locally first.
thread_local ThreadPool* tls_pool = nullptr;
thread_local unsigned tls_worker_index = 0;

}  // namespace

ThreadPool::ThreadPool(unsigned num_threads)
    : queues_(std::max(1u, num_threads)) {
  const unsigned n = static_cast<unsigned>(queues_.size());
  workers_.reserve(n);
  for (unsigned i = 0; i < n; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  stop_.store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(sleep_mutex_);
  }
  sleep_cv_.notify_all();
  for (auto& w : workers_) w.join();
  // Workers only exit once pending_ hit zero, so the deques are empty; drain
  // defensively anyway so a future early-exit path cannot leak tasks.
  for (auto& q : queues_) {
    while (TaskFunction* leftover = q.deque.pop_bottom()) delete leftover;
  }
  // An external submit can slip a task into the injection ring between the
  // last worker's exit check and its bump of pending_. Destroy such tasks
  // unrun: their packaged_task promises break, so waiting futures observe
  // std::future_error{broken_promise} instead of hanging (the shutdown
  // contract in thread_pool.h, pinned by util_test).
  TaskFunction* injected = nullptr;
  while (inject_ring_.try_pop(injected)) delete injected;
}

void ThreadPool::push_task(TaskFunction task) {
  if (tls_pool == this) {
    // Worker submit: lock-free push onto the bottom of its own deque. The
    // LIFO end keeps nested-join chunks cache-hot for this worker while
    // thieves peel the oldest tasks off the top.
    queues_[tls_worker_index].deque.push_bottom(
        new TaskFunction(std::move(task)));
  } else {
    // External submit: lock-free push into the bounded injection ring. A
    // full ring means workers are saturated; yielding until a slot frees is
    // backpressure, not contention. If the pool is being torn down the task
    // is destroyed unrun and its future reports broken_promise (shutdown
    // contract in thread_pool.h).
    auto* heap = new TaskFunction(std::move(task));
    while (!inject_ring_.try_push(heap)) {
      if (stop_.load(std::memory_order_acquire)) {
        delete heap;
        return;
      }
      std::this_thread::yield();
    }
  }
  pending_.fetch_add(1, std::memory_order_release);
  // The empty critical section orders the increment against a worker that is
  // mid-way through its sleep predicate, so the notify cannot be lost.
  {
    std::lock_guard<std::mutex> lock(sleep_mutex_);
  }
  sleep_cv_.notify_one();
}

bool ThreadPool::try_run_one_task(bool account_busy) {
  const std::size_t n = queues_.size();
  const bool is_worker = tls_pool == this;
  const std::size_t home = is_worker ? tls_worker_index : 0;
  if (pending_.load(std::memory_order_acquire) == 0) return false;
  TaskFunction task;
  TaskFunction* owned = nullptr;
  // Own deque bottom first (LIFO keeps caches warm), then the injection
  // queue, then steal siblings' tops (FIFO takes the oldest, likely-largest
  // unit of work). Non-workers have no own deque; they drain the injection
  // queue and steal.
  if (is_worker) owned = queues_[home].deque.pop_bottom();
  if (owned == nullptr) {
    TaskFunction* injected = nullptr;
    if (inject_ring_.try_pop(injected)) {
      task = std::move(*injected);
      delete injected;
    }
  }
  for (std::size_t probe = is_worker ? 1 : 0; probe < n && owned == nullptr && !task;
       ++probe) {
    owned = queues_[(home + probe) % n].deque.steal_top();
  }
  if (owned != nullptr) {
    task = std::move(*owned);
    delete owned;
  }
  if (!task) return false;
  pending_.fetch_sub(1, std::memory_order_release);
  if (account_busy) {
    // lint:clock-ok(busy-time accounting for Table II utilization; the
    // measured wall time is reporting-only and never feeds selection)
    const auto start = std::chrono::steady_clock::now();
    task();
    // lint:clock-ok(see above; end of the same busy-time measurement)
    const auto end = std::chrono::steady_clock::now();
    busy_nanos_.fetch_add(
        static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(end - start).count()),
        std::memory_order_relaxed);
  } else {
    task();
  }
  return true;
}

void ThreadPool::worker_loop(unsigned index) {
  tls_pool = this;
  tls_worker_index = index;
  for (;;) {
    if (try_run_one_task(/*account_busy=*/true)) continue;
    std::unique_lock<std::mutex> lock(sleep_mutex_);
    sleep_cv_.wait(lock, [this] {
      return stop_.load(std::memory_order_acquire) ||
             pending_.load(std::memory_order_acquire) > 0;
    });
    if (stop_.load(std::memory_order_acquire) &&
        pending_.load(std::memory_order_acquire) == 0) {
      return;
    }
  }
}

ThreadPool& default_pool() {
  static ThreadPool pool(std::max(1u, std::thread::hardware_concurrency()));
  return pool;
}

}  // namespace recon::util
