#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <exception>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace ufim {

namespace {

/// The process-wide helper pool: threads that sleep on one condition
/// variable and run posted closures in FIFO order. It never stops.
///
/// Thread-safety contract: `mu_` guards the queue. Producers push under
/// `mu_` then notify `cv_`; workers re-check the queue in a plain
/// `while` loop under `mu_` (not the predicate overload: the analysis
/// cannot see into a predicate lambda).
class HelperPool {
 public:
  /// The shared pool of HardwareThreads() workers, started on first use.
  /// Leaked on purpose, so its threads are never joined: they must
  /// outlive every static whose destructor might still run a parallel
  /// loop, and process exit reclaims them.
  static HelperPool& Shared() {
    static HelperPool* const pool = new HelperPool(HardwareThreads());
    return *pool;
  }

  void Post(std::function<void()> fn) {
    {
      MutexLock lock(mu_);
      queue_.push_back(std::move(fn));
    }
    cv_.notify_one();
  }

 private:
  explicit HelperPool(std::size_t num_threads) {
    workers_.reserve(num_threads);
    for (std::size_t i = 0; i < num_threads; ++i) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }

  [[noreturn]] void WorkerLoop() {
    for (;;) {
      std::function<void()> fn;
      {
        MutexLock lock(mu_);
        while (queue_.empty()) cv_.wait(lock.native_lock());
        fn = std::move(queue_.front());
        queue_.pop_front();
      }
      fn();  // posted helpers never throw
    }
  }

  Mutex mu_;
  std::deque<std::function<void()>> queue_ UFIM_GUARDED_BY(mu_);
  std::condition_variable cv_;
  /// Declared last: workers start only after the members they use.
  std::vector<std::thread> workers_;
};

/// What one ParallelForDynamic call shares with the helpers it posted.
/// Helpers hold it by shared_ptr, so one that reaches the front of the
/// queue after its call returned can still read `closed` and leave. The
/// call's own stack (cursor, error slots, body) is touched only by
/// helpers that registered in `active` before `closed` was set, and the
/// call waits for exactly those.
struct HelperRecord {
  Mutex mu;
  std::condition_variable idle;
  bool closed UFIM_GUARDED_BY(mu) = false;
  std::size_t active UFIM_GUARDED_BY(mu) = 0;
};

}  // namespace

std::size_t HardwareThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

std::size_t ParallelWorkerCount(std::size_t n, std::size_t num_threads) {
  if (num_threads == 0) num_threads = HardwareThreads();
  return std::min(std::max<std::size_t>(num_threads, 1), n);
}

void ParallelForDynamic(
    std::size_t n, std::size_t num_threads,
    const std::function<void(std::size_t, std::size_t)>& body,
    const RunContext* context) {
  const std::size_t workers = ParallelWorkerCount(n, num_threads);
  if (workers <= 1) {
    for (std::size_t i = 0; i < n; ++i) {
      if (context != nullptr && context->aborted()) break;
      body(i, 0);
    }
    PollRunContext(context);
    return;
  }

  // Per-index error slots (not per-worker): the rethrow choice must not
  // depend on which worker happened to claim the failing index.
  std::atomic<std::size_t> cursor{0};
  std::vector<std::exception_ptr> errors(n);
  auto drain = [&cursor, &errors, &body, context, n](std::size_t worker) {
    for (;;) {
      // Stop claiming work once the token trips; the index in flight
      // drains via its own body checkpoints.
      if (context != nullptr && context->aborted()) return;
      const std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        body(i, worker);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  };

  auto record = std::make_shared<HelperRecord>();
  std::exception_ptr post_error;
  try {
    HelperPool& pool = HelperPool::Shared();
    for (std::size_t w = 1; w < workers; ++w) {
      pool.Post([record, &drain, w] {
        HelperRecord& r = *record;
        {
          MutexLock lock(r.mu);
          if (r.closed) return;  // the call has returned; leave its stack
          ++r.active;
        }
        drain(w);
        MutexLock lock(r.mu);
        if (--r.active == 0) r.idle.notify_all();
      });
    }
  } catch (...) {
    post_error = std::current_exception();
  }
  // The caller's drain claims every index no helper takes (all of them
  // when posting failed or the pool is busy), so every index is
  // attempted without waiting for a helper to start.
  drain(0);
  {
    HelperRecord& r = *record;
    MutexLock lock(r.mu);
    r.closed = true;
    while (r.active > 0) r.idle.wait(lock.native_lock());
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (errors[i]) std::rethrow_exception(errors[i]);
  }
  if (post_error) std::rethrow_exception(post_error);
  // Unclaimed indices after a trip must surface as an abort, never as a
  // silently-shortened loop.
  PollRunContext(context);
}

}  // namespace ufim
