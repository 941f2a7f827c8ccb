#include "common/thread_pool.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <utility>

namespace ufim {

namespace {

/// Set while a ThreadPool worker is running its loop (lets callers ask
/// ThreadPool::InWorker, e.g. to avoid blocking a worker on IO).
thread_local bool t_in_worker = false;

constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);

}  // namespace

std::size_t HardwareThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

namespace internal {

// ---------------------------------------------------------------------------
// Chase-Lev deque.

struct TaskDeque::Buffer {
  explicit Buffer(std::int64_t cap)
      : capacity(cap), slots(new std::atomic<void*>[cap]) {}

  void* Get(std::int64_t i) const {
    return slots[i & (capacity - 1)].load(std::memory_order_relaxed);
  }
  void Put(std::int64_t i, void* task) {
    slots[i & (capacity - 1)].store(task, std::memory_order_relaxed);
  }

  const std::int64_t capacity;  ///< power of two
  std::unique_ptr<std::atomic<void*>[]> slots;
};

TaskDeque::TaskDeque() {
  auto initial = std::make_unique<Buffer>(64);
  buffer_.store(initial.get(), std::memory_order_relaxed);
  retired_.push_back(std::move(initial));
}

TaskDeque::~TaskDeque() = default;

void TaskDeque::Grow(std::int64_t top, std::int64_t bottom) {
  Buffer* old = buffer_.load(std::memory_order_relaxed);
  auto grown = std::make_unique<Buffer>(old->capacity * 2);
  for (std::int64_t i = top; i < bottom; ++i) grown->Put(i, old->Get(i));
  // Thieves may still hold the old buffer pointer; the release store
  // publishes the copied contents, and the old buffer stays alive in
  // retired_ until destruction, so a stale read is merely a read of the
  // same element (the CAS on top_ then decides ownership).
  buffer_.store(grown.get(), std::memory_order_release);
  retired_.push_back(std::move(grown));
}

void TaskDeque::Push(void* task) {
  const std::int64_t b = bottom_.load(std::memory_order_relaxed);
  const std::int64_t t = top_.load(std::memory_order_acquire);
  Buffer* a = buffer_.load(std::memory_order_relaxed);
  if (b - t > a->capacity - 1) {
    Grow(t, b);
    a = buffer_.load(std::memory_order_relaxed);
  }
  a->Put(b, task);
  // seq_cst (not just release): Pop's bottom_ decrement and Steal's
  // top_/bottom_ reads reason about a single total order of these
  // stores; operation-level orderings keep the algorithm fence-free.
  bottom_.store(b + 1, std::memory_order_seq_cst);
}

void* TaskDeque::Pop() {
  const std::int64_t b = bottom_.load(std::memory_order_relaxed) - 1;
  Buffer* a = buffer_.load(std::memory_order_relaxed);
  bottom_.store(b, std::memory_order_seq_cst);
  std::int64_t t = top_.load(std::memory_order_seq_cst);
  void* result = nullptr;
  if (t <= b) {
    result = a->Get(b);
    if (t == b) {
      // Last element: race the thieves for it via top_.
      if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                        std::memory_order_relaxed)) {
        result = nullptr;  // a thief won
      }
      bottom_.store(b + 1, std::memory_order_relaxed);
    }
  } else {
    bottom_.store(b + 1, std::memory_order_relaxed);
  }
  return result;
}

void* TaskDeque::Steal() {
  std::int64_t t = top_.load(std::memory_order_seq_cst);
  const std::int64_t b = bottom_.load(std::memory_order_seq_cst);
  if (t >= b) return nullptr;
  Buffer* a = buffer_.load(std::memory_order_acquire);
  void* result = a->Get(t);
  if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                    std::memory_order_relaxed)) {
    return nullptr;  // lost the race; the caller rescans
  }
  return result;
}

// ---------------------------------------------------------------------------
// Task groups.

class TaskGroupImpl {
 public:
  struct Task {
    std::function<void()> fn;
    std::size_t index;
  };

  explicit TaskGroupImpl(std::size_t num_slots)
      : num_slots_(num_slots), slot_taken_(num_slots, false) {
    deques_.reserve(num_slots);
    for (std::size_t s = 0; s < num_slots; ++s) {
      deques_.push_back(std::make_unique<TaskDeque>());
    }
  }

  std::size_t num_slots() const { return num_slots_; }

  /// Registers and publishes a task; returns its spawn index. Pushes to
  /// the calling thread's deque when it holds a slot of this group,
  /// otherwise to the mutex-guarded overflow list (spawns from threads
  /// outside the group).
  std::size_t Spawn(std::function<void()> fn);

  /// Owner loop: run/steal group tasks until none are pending. The
  /// short timed wait covers transient steal races; completion of the
  /// last task notifies immediately.
  void WaitAll(std::size_t slot);

  /// Helper loop: run/steal until a full scan finds nothing, then
  /// return (helpers never block — the spawn-side token policy recruits
  /// replacements if more work appears).
  void DrainAsHelper(std::size_t slot);

  /// The recorded exception of the lowest-spawn-index failing task, or
  /// nullptr. Clears the error list.
  std::exception_ptr TakeFirstError();

  std::size_t TryAcquireSlot();
  void ReleaseSlot(std::size_t slot);

  /// Token accounting: true when another helper should be recruited
  /// (engaged count — helpers active plus tokens in flight — is below
  /// num_slots - 1); increments the count when so.
  bool ShouldPostToken();
  void TokenDone() { helpers_engaged_.fetch_sub(1, std::memory_order_acq_rel); }

 private:
  Task* FindWork(std::size_t slot);
  void RunTask(Task* task);

  const std::size_t num_slots_;
  /// Handle copy of the attached cancellation token (nullopt = none); a
  /// copy, not a pointer, so late help-token arrivals can never touch a
  /// dead context. Written once in the TaskGroup constructor, before
  /// any other thread can see the group; read-only afterwards.
  std::optional<RunContext> ctx_;
  std::vector<std::unique_ptr<TaskDeque>> deques_;  ///< one per slot
  std::atomic<std::size_t> pending_{0};
  std::atomic<std::size_t> next_index_{0};
  std::atomic<std::size_t> helpers_engaged_{0};

  /// Guards the slot table, the overflow list and the error slots —
  /// the group's coarse-grained shared state (the deques are lock-free
  /// and carry their own owner-role annotations).
  Mutex mu_;
  std::condition_variable done_cv_;
  std::vector<bool> slot_taken_ UFIM_GUARDED_BY(mu_);
  std::deque<Task*> overflow_ UFIM_GUARDED_BY(mu_);
  std::vector<std::pair<std::size_t, std::exception_ptr>> errors_
      UFIM_GUARDED_BY(mu_);

  friend class ::ufim::TaskGroup;
};

namespace {

/// The groups this thread currently participates in (owner or helper),
/// innermost last. Spawn targets the calling thread's deque of the
/// spawned-into group; nesting keeps one entry per active group.
struct Participation {
  TaskGroupImpl* group;
  std::size_t slot;
};
thread_local std::vector<Participation> t_participation;

std::size_t SlotOnThisThread(const TaskGroupImpl* group) {
  for (auto it = t_participation.rbegin(); it != t_participation.rend(); ++it) {
    if (it->group == group) return it->slot;
  }
  return kNoSlot;
}

}  // namespace

std::size_t TaskGroupImpl::Spawn(std::function<void()> fn) {
  const std::size_t index = next_index_.fetch_add(1, std::memory_order_relaxed);
  Task* task = new Task{std::move(fn), index};
  pending_.fetch_add(1, std::memory_order_acq_rel);
  const std::size_t slot = SlotOnThisThread(this);
  if (slot != kNoSlot) {
    // The participation stack just proved this thread holds `slot`, and
    // a slot has exactly one holder — so this thread is the deque owner.
    deques_[slot]->AssertOwner();
    deques_[slot]->Push(task);
  } else {
    MutexLock lock(mu_);
    overflow_.push_back(task);
  }
  return index;
}

TaskGroupImpl::Task* TaskGroupImpl::FindWork(std::size_t slot) {
  // `slot` is the caller's own slot (WaitAll / DrainAsHelper run on the
  // thread that acquired it), so the caller owns this deque's bottom end.
  deques_[slot]->AssertOwner();
  if (void* task = deques_[slot]->Pop()) return static_cast<Task*>(task);
  for (std::size_t i = 1; i < num_slots_; ++i) {
    const std::size_t victim = (slot + i) % num_slots_;
    if (void* task = deques_[victim]->Steal()) return static_cast<Task*>(task);
  }
  MutexLock lock(mu_);
  if (!overflow_.empty()) {
    Task* task = overflow_.front();
    overflow_.pop_front();
    return task;
  }
  return nullptr;
}

void TaskGroupImpl::RunTask(Task* task) {
  try {
    // Observe the cancellation token between tasks: once it trips,
    // not-yet-started tasks are skipped (their accounting below still
    // runs, so WaitAll sees exact completion). In-flight tasks drain via
    // their own body checkpoints.
    if (!ctx_ || !ctx_->aborted()) task->fn();
  } catch (...) {
    MutexLock lock(mu_);
    errors_.emplace_back(task->index, std::current_exception());
  }
  delete task;
  if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    // Serialize with the owner's pending check so the notification can
    // never slip between its re-check and its wait.
    MutexLock lock(mu_);
    done_cv_.notify_all();
  }
}

void TaskGroupImpl::WaitAll(std::size_t slot) {
  for (;;) {
    if (Task* task = FindWork(slot)) {
      RunTask(task);
      continue;
    }
    if (pending_.load(std::memory_order_acquire) == 0) return;
    MutexLock lock(mu_);
    if (pending_.load(std::memory_order_acquire) == 0) return;
    if (!overflow_.empty()) continue;
    // Remaining tasks are running on other threads (their completion
    // notifies) or were hidden by a transient steal race (the timeout
    // rescans).
    done_cv_.wait_for(lock.native_lock(), std::chrono::microseconds(200));
  }
}

void TaskGroupImpl::DrainAsHelper(std::size_t slot) {
  while (Task* task = FindWork(slot)) RunTask(task);
}

std::exception_ptr TaskGroupImpl::TakeFirstError() {
  MutexLock lock(mu_);
  if (errors_.empty()) return nullptr;
  auto lowest = std::min_element(
      errors_.begin(), errors_.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  std::exception_ptr error = lowest->second;
  errors_.clear();
  return error;
}

std::size_t TaskGroupImpl::TryAcquireSlot() {
  MutexLock lock(mu_);
  // Slot 0 is reserved for the owner.
  for (std::size_t s = 1; s < num_slots_; ++s) {
    if (!slot_taken_[s]) {
      slot_taken_[s] = true;
      return s;
    }
  }
  return kNoSlot;
}

void TaskGroupImpl::ReleaseSlot(std::size_t slot) {
  MutexLock lock(mu_);
  slot_taken_[slot] = false;
}

bool TaskGroupImpl::ShouldPostToken() {
  std::size_t engaged = helpers_engaged_.load(std::memory_order_relaxed);
  while (engaged + 1 < num_slots_) {
    if (helpers_engaged_.compare_exchange_weak(engaged, engaged + 1,
                                               std::memory_order_acq_rel,
                                               std::memory_order_relaxed)) {
      return true;
    }
  }
  return false;
}

}  // namespace internal

// ---------------------------------------------------------------------------
// ThreadPool.

struct ThreadPool::Injected {
  std::packaged_task<void()> task;                    ///< legacy Submit
  std::shared_ptr<internal::TaskGroupImpl> help;      ///< help token
};

ThreadPool::ThreadPool(std::size_t num_threads) {
  const std::size_t n = std::max<std::size_t>(num_threads, 1);
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

std::future<void> ThreadPool::Submit(std::function<void()> fn) {
  std::packaged_task<void()> task(std::move(fn));
  std::future<void> future = task.get_future();
  {
    MutexLock lock(mu_);
    queue_.push_back(Injected{std::move(task), nullptr});
  }
  cv_.notify_one();
  return future;
}

void ThreadPool::PostHelpToken(
    std::shared_ptr<internal::TaskGroupImpl> group) {
  {
    MutexLock lock(mu_);
    queue_.push_back(Injected{{}, std::move(group)});
  }
  cv_.notify_one();
}

void ThreadPool::WorkerLoop() {
  t_in_worker = true;
  for (;;) {
    Injected item;
    {
      MutexLock lock(mu_);
      // Plain wait loop (not the predicate overload): the thread-safety
      // analysis checks the guarded reads here, in a scope it can see
      // holds mu_ — it cannot look inside a predicate lambda.
      while (!stop_ && queue_.empty()) cv_.wait(lock.native_lock());
      // Drain the queue before honoring stop_ so ~ThreadPool never
      // abandons a future (or a group needing help) someone waits on.
      if (queue_.empty()) return;
      item = std::move(queue_.front());
      queue_.pop_front();
    }
    if (item.task.valid()) {
      item.task();  // packaged_task stores any exception in the future
    } else if (item.help != nullptr) {
      internal::TaskGroupImpl& group = *item.help;
      const std::size_t slot = group.TryAcquireSlot();
      if (slot != kNoSlot) {
        internal::t_participation.push_back({&group, slot});
        group.DrainAsHelper(slot);
        internal::t_participation.pop_back();
        group.ReleaseSlot(slot);
      }
      group.TokenDone();
    }
  }
}

ThreadPool& ThreadPool::Global() {
  // Leaked on purpose: worker threads must outlive every static whose
  // destructor might still submit, and process exit reclaims them.
  static ThreadPool* pool = new ThreadPool(HardwareThreads());
  return *pool;
}

bool ThreadPool::InWorker() { return t_in_worker; }

// ---------------------------------------------------------------------------
// TaskGroup.

TaskGroup::TaskGroup(std::size_t max_workers, const RunContext* context,
                     ThreadPool& pool)
    : pool_(pool),
      impl_(std::make_shared<internal::TaskGroupImpl>(std::max<std::size_t>(
          max_workers == 0 ? HardwareThreads() : max_workers, 1))) {
  if (context != nullptr) impl_->ctx_ = *context;
  {
    MutexLock lock(impl_->mu_);
    impl_->slot_taken_[0] = true;  // the owner occupies slot 0 for life
  }
  internal::t_participation.push_back({impl_.get(), 0});
}

TaskGroup::~TaskGroup() {
  impl_->WaitAll(0);  // never abandon spawned tasks
  (void)impl_->TakeFirstError();
  // Groups are scoped fork-join objects, but tolerate out-of-order
  // destruction of siblings by erasing this group's entry wherever it
  // sits on the participation stack.
  auto& stack = internal::t_participation;
  for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
    if (it->group == impl_.get()) {
      stack.erase(std::next(it).base());
      break;
    }
  }
  impl_->ReleaseSlot(0);
}

std::size_t TaskGroup::Spawn(std::function<void()> fn) {
  const std::size_t index = impl_->Spawn(std::move(fn));
  if (impl_->num_slots() > 1 && impl_->ShouldPostToken()) {
    try {
      pool_.PostHelpToken(impl_);
    } catch (...) {
      impl_->TokenDone();
      throw;
    }
  }
  return index;
}

void TaskGroup::Wait() {
  impl_->WaitAll(0);
  if (std::exception_ptr error = impl_->TakeFirstError()) {
    std::rethrow_exception(error);
  }
}

// ---------------------------------------------------------------------------
// Parallel loop helpers.

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

  TaskGroup group(workers, context);
  std::exception_ptr spawn_error;
  try {
    for (std::size_t w = 1; w < workers; ++w) {
      group.Spawn([&drain, w] { drain(w); });
    }
  } catch (...) {
    spawn_error = std::current_exception();
  }
  // The caller's drain claims every index no helper takes — including
  // all of them when spawning failed — so every index is attempted.
  drain(0);
  group.Wait();  // drain() never throws
  for (std::size_t i = 0; i < n; ++i) {
    if (errors[i]) std::rethrow_exception(errors[i]);
  }
  if (spawn_error) std::rethrow_exception(spawn_error);
  // Unclaimed indices after a trip must surface as an abort, never as a
  // silently-shortened loop.
  PollRunContext(context);
}

}  // namespace ufim
