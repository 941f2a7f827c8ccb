#ifndef UFIM_COMMON_THREAD_POOL_H_
#define UFIM_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/run_context.h"
#include "common/thread_annotations.h"

namespace ufim {

/// Number of hardware threads, clamped to at least 1 (the standard
/// permits std::thread::hardware_concurrency() == 0).
std::size_t HardwareThreads();

namespace internal {

/// A Chase-Lev work-stealing deque of task pointers (Le, Pop, Cohen &
/// Nardelli, PPoPP'13 memory orderings). Exactly one thread — the slot
/// owner — may Push/Pop at the bottom (LIFO); any thread may Steal from
/// the top (FIFO). The buffer grows geometrically; retired buffers are
/// kept alive until destruction because a concurrent thief may still be
/// reading one (its CAS on `top_` then decides who owns the element).
///
/// The owner/thief split is machine-checked: `owner_role_` is a pure
/// role capability (see thread_annotations.h), `Push`/`Pop` require it,
/// and the slot-routing code in TaskGroupImpl claims it via
/// `AssertOwner()` exactly where the participation stack proves this
/// thread holds the slot. Calling `Push`/`Pop` from any path without
/// that claim fails the `-Wthread-safety` build; `Steal` is
/// deliberately unannotated — any thread may race for the top end.
class TaskDeque {
 public:
  TaskDeque();
  ~TaskDeque();

  TaskDeque(const TaskDeque&) = delete;
  TaskDeque& operator=(const TaskDeque&) = delete;

  /// Owner only. Pushes onto the bottom, growing the buffer if full.
  void Push(void* task) UFIM_REQUIRES(owner_role_);

  /// Owner only. Pops from the bottom (most recently pushed first);
  /// nullptr when empty.
  void* Pop() UFIM_REQUIRES(owner_role_);

  /// Any thread. Steals from the top (oldest first); nullptr when empty
  /// or when the race for the element was lost (callers just rescan).
  void* Steal();

  /// Claims the owner role to the thread-safety analysis (no runtime
  /// effect). Callers invoke it at the point where the scheduling
  /// protocol designates this thread the slot owner — in this codebase,
  /// where the thread-local participation stack maps the calling thread
  /// to this deque's slot.
  void AssertOwner() const UFIM_ASSERT_CAPABILITY(owner_role_) {}

 private:
  struct Buffer;

  void Grow(std::int64_t top, std::int64_t bottom)
      UFIM_REQUIRES(owner_role_);

  std::atomic<std::int64_t> top_{0};
  std::atomic<std::int64_t> bottom_{0};
  std::atomic<Buffer*> buffer_;
  /// Superseded buffers, freed only at destruction. Owner-only: guarded
  /// by the owner role, not a lock (thieves never touch this vector).
  std::vector<std::unique_ptr<Buffer>> retired_ UFIM_GUARDED_BY(owner_role_);

  /// The "I am the slot owner" capability; see the class comment.
  Role owner_role_;
};

class TaskGroupImpl;

}  // namespace internal

/// A fixed-size pool of worker threads. Two kinds of work flow through
/// it:
///   * one-off closures via `Submit` (a mutex-guarded FIFO injection
///     queue — coarse, rare, and the only thing the pool-wide mutex
///     guards), and
///   * fork-join task groups (`TaskGroup`), whose tasks live in
///     per-participant Chase-Lev deques — pushed LIFO by the thread that
///     spawned them, stolen FIFO by the other participants. Idle pool
///     workers discover groups needing help through lightweight help
///     tokens placed on the injection queue.
/// Workers therefore sleep on one condition variable exactly as a plain
/// FIFO pool would; all the lock-free machinery is scoped inside groups.
///
/// Thread-safety contract (annotated, not just documented): `mu_`
/// guards the injection queue and the stop flag — every touch of
/// `queue_`/`stop_` must hold `mu_`, and the `-Wthread-safety` CI leg
/// proves it. The sleep protocol is the classic monitor: producers
/// push under `mu_` then notify `cv_`; workers re-check
/// `stop_ || !queue_.empty()` in a plain `while` loop under `mu_`
/// (not the predicate overload — the analysis cannot see into a
/// predicate lambda). The Chase-Lev deques are *not* guarded by `mu_`;
/// their ownership split is annotated on TaskDeque itself.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (clamped to at least 1).
  explicit ThreadPool(std::size_t num_threads);

  /// Drains outstanding tasks, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t num_threads() const { return workers_.size(); }

  /// Enqueues `fn`; the future observes completion and rethrows any
  /// exception the task raised. Safe to call from inside a task (the
  /// nested task is queued normally; nothing in the pool ever waits on
  /// another task, so this cannot deadlock).
  std::future<void> Submit(std::function<void()> fn);

  /// The process-wide pool, sized to HardwareThreads(), created on first
  /// use and kept alive for the process lifetime. All `TaskGroup` /
  /// `ParallelForDynamic` calls share it; per-call `num_threads` caps how
  /// many of its workers one call occupies.
  static ThreadPool& Global();

  /// True when the calling thread is a worker of any ThreadPool.
  static bool InWorker();

 private:
  friend class TaskGroup;

  /// Asks an idle worker to help drain `group`; no-op when none is idle
  /// by the time the token is popped (the token re-checks).
  void PostHelpToken(std::shared_ptr<internal::TaskGroupImpl> group);

  void WorkerLoop();

  struct Injected;

  /// Written by the constructor only; joined by the destructor.
  std::vector<std::thread> workers_;
  /// Guards the injection queue and the stop flag (the only pool-wide
  /// shared state; see the class comment).
  Mutex mu_;
  std::deque<Injected> queue_ UFIM_GUARDED_BY(mu_);
  std::condition_variable cv_;
  bool stop_ UFIM_GUARDED_BY(mu_) = false;
};

/// A fork-join group of tasks scheduled over the shared pool's
/// work-stealing deques. The owning thread creates the group, spawns
/// tasks (tasks may themselves spawn into the group, or create nested
/// groups of their own — nesting runs parallel, it does not degrade to
/// serial), and blocks in `Wait`, which executes pending tasks itself
/// rather than idling.
///
/// Scheduling: a spawn from a participating thread pushes onto that
/// participant's own deque (LIFO — the child runs next on this thread
/// unless stolen, keeping working sets hot); idle participants steal the
/// *oldest* task of another participant (FIFO — stealing the biggest
/// remaining subtree first under recursive decomposition). Which thread
/// runs which task is scheduling-dependent; determinism is the caller's
/// contract: tasks write only pre-indexed result slots, and the caller
/// merges slots in task-index order after Wait.
///
/// Error contract: a throwing task never cancels the others; Wait runs
/// every spawned task to completion, then rethrows the exception of the
/// lowest-spawn-index failing task.
///
/// Cancellation: when a `RunContext` is attached and trips, participants
/// observe the token *between* tasks — in-flight task bodies drain to
/// completion (they poll their own checkpoints), but not-yet-started tasks
/// are skipped (still accounted, so Wait's bookkeeping is exact). Callers
/// that attach a context must poll it after Wait (`PollRunContext`) so
/// skipped work is never mistaken for completed work.
///
/// A group is not thread-safe for concurrent Spawn/Wait from unrelated
/// threads: Spawn may be called by the owner and from inside the group's
/// own tasks; Wait only by the owner.
class TaskGroup {
 public:
  /// `max_workers` caps how many threads (owner included) participate:
  /// 1 runs every task inline in Wait, 0 means HardwareThreads().
  /// `context`, when non-null, attaches a cancellation token for the
  /// lifetime of the group (the group keeps its own handle copy).
  explicit TaskGroup(std::size_t max_workers = 0,
                     const RunContext* context = nullptr,
                     ThreadPool& pool = ThreadPool::Global());

  /// Waits (without rethrowing) if Wait was never called.
  ~TaskGroup();

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Registers task `fn` with the next spawn index (0, 1, ...) and makes
  /// it available for execution. Returns the task's index.
  std::size_t Spawn(std::function<void()> fn);

  /// Runs and steals group tasks until every spawned task has completed,
  /// then rethrows the exception of the lowest-index failing task, if
  /// any. May be called repeatedly (spawn / wait phases).
  void Wait();

 private:
  ThreadPool& pool_;
  std::shared_ptr<internal::TaskGroupImpl> impl_;
};

/// Number of worker slots `ParallelForDynamic` uses for a given (n,
/// num_threads): min(num_threads, n), with num_threads == 0 meaning
/// HardwareThreads(). Callers size per-worker scratch with this.
std::size_t ParallelWorkerCount(std::size_t n, std::size_t num_threads);

/// The parallel loop: runs body(i, worker) for every i in [0, n), with
/// indices claimed one at a time from a shared atomic cursor by
/// `ParallelWorkerCount(n, num_threads)` workers (the calling thread is
/// worker 0, and helps run the rest while waiting — work-stealing
/// TaskGroup underneath). Blocks until every index completed. A worker
/// that draws a heavy index leaves the remaining indices to the others,
/// so skewed workloads balance.
///
/// Determinism: every index is executed exactly once, whole, by one
/// worker. Which worker runs it (and in what real-time order) is
/// scheduling-dependent, so bodies must confine writes to per-index
/// slots and per-worker scratch (`worker` < ParallelWorkerCount(n,
/// num_threads) identifies a private scratch slot); callers merge
/// per-index results in a fixed order afterwards. Under that discipline
/// results are bit-identical at every thread count, including the serial
/// fallback.
///
/// num_threads == 0 means HardwareThreads(); num_threads <= 1 or n <= 1
/// runs the plain serial loop with worker == 0. Nested calls fork real
/// nested groups, each with its own private worker-id space.
///
/// If bodies throw, every index is still attempted and the exception of
/// the lowest-numbered failing index is rethrown in the caller.
///
/// When `context` is non-null, workers check it before claiming each
/// index from the cursor and stop claiming once it trips; the call then
/// unwinds with `RunAbortedError` after the in-flight bodies drain.
void ParallelForDynamic(
    std::size_t n, std::size_t num_threads,
    const std::function<void(std::size_t index, std::size_t worker)>& body,
    const RunContext* context = nullptr);

}  // namespace ufim

#endif  // UFIM_COMMON_THREAD_POOL_H_
