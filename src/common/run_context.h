#ifndef UFIM_COMMON_RUN_CONTEXT_H_
#define UFIM_COMMON_RUN_CONTEXT_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>
#include <utility>

#include "common/status.h"
#include "common/thread_annotations.h"

namespace ufim {

/// Internal exception used to unwind a mine out of deep recursive or
/// vector-returning code once a `RunContext` trips. It never crosses the
/// public API: the `Miner` facades catch it and convert it back into the
/// `Status` it carries. RAII unwinding is what keeps storage and scratch
/// pools valid through a cancelled run.
class RunAbortedError : public std::runtime_error {
 public:
  explicit RunAbortedError(Status status)
      : std::runtime_error(status.ToString()), status_(std::move(status)) {}

  const Status& status() const { return status_; }

 private:
  Status status_;
};

/// Shared cancellation token + soft deadline + memory budget for one run.
///
/// `RunContext` is a cheap copyable handle; copies share the same state, so
/// a controller thread can `Cancel()` the handle it kept while workers poll
/// their copies via `CheckPoint()`. A default-constructed context is live
/// (never null) and unconstrained: polling it costs one relaxed atomic load
/// on the fast path, with the deadline clock read only ~every 32nd call per
/// thread.
///
/// Cleanup contract: mining code polls `CheckPoint()` at checkpoint sites
/// and unwinds via `RunAbortedError`; the facade converts that into a clean
/// error `Status`. All storage, scratch pools, and the parallel loop's
/// helper pool stay valid and reusable — a subsequent run on the same
/// objects with a fresh (or `Reset()`) context is bit-identical to a run
/// that was never cancelled.
class RunContext {
 public:
  RunContext() : state_(std::make_shared<State>()) {}

  // --- control plane ------------------------------------------------------

  /// Trips the token with kCancelled. Idempotent; the first trip wins.
  void Cancel() const { Trip(StatusCode::kCancelled); }

  /// Arms a soft deadline `budget` from now (steady clock). Polling after
  /// the deadline trips the token with kDeadlineExceeded.
  void SetDeadlineAfter(std::chrono::nanoseconds budget) const;
  void SetDeadlineAfterMillis(std::int64_t ms) const {
    SetDeadlineAfter(std::chrono::milliseconds(ms));
  }

  /// Arms a memory budget: if tracked allocation (`eval/memory_tracker`)
  /// grows by more than `bytes` over the baseline captured *now*, polling
  /// trips the token with kResourceExhausted. Inert unless the alloc hooks
  /// object library is linked into the binary.
  void SetMemoryBudgetBytes(std::size_t bytes) const;

  /// Returns the context to a fresh, unconstrained state: clears the trip,
  /// the deadline, the memory budget, the fault trigger, and the checkpoint
  /// counter. Lets a caller retry on the same objects after an aborted run.
  ///
  /// Quiescence required (annotated): unlike `Cancel`/`SetDeadlineAfter`,
  /// which any thread may call against a live run, `Reset` (and the fault
  /// trigger below) only make sense *between* runs — a worker polling
  /// mid-run could otherwise observe the cleared-then-rearmed state as a
  /// spurious pass or double-count checkpoints. Callers claim that
  /// between-runs window via `AssertQuiescent()`.
  void Reset() const UFIM_REQUIRES(controller_role_);

  // --- data plane ---------------------------------------------------------

  /// Cheap cooperative poll. OK on the fast path; once tripped, every
  /// subsequent call returns the same error code.
  Status CheckPoint() const {
    State* s = state_.get();
    if (s->counting.load(std::memory_order_relaxed)) return CountedCheck();
    const int code = s->tripped.load(std::memory_order_relaxed);
    if (code != 0) return TrippedStatus(code);
    thread_local std::uint32_t poll_tick = 0;
    if (((++poll_tick) & 31u) != 0) return Status::OK();
    return PollLimits();
  }

  /// `CheckPoint()`, but unwinds with `RunAbortedError` on failure — the
  /// form used inside deep mining code.
  void PollOrThrow() const {
    Status s = CheckPoint();
    if (!s.ok()) throw RunAbortedError(std::move(s));
  }

  /// Status view that does not count as a checkpoint and never reads the
  /// clock: OK while untripped.
  Status status() const {
    const int code = state_->tripped.load(std::memory_order_acquire);
    return code == 0 ? Status::OK() : TrippedStatus(code);
  }

  /// True once the token has tripped for any reason.
  bool aborted() const {
    return state_->tripped.load(std::memory_order_relaxed) != 0;
  }

  // --- deterministic fault injection (tests) ------------------------------

  /// Arms a deterministic fault: the first `CheckPoint()` at or past the
  /// `nth` poll (1-based, counted across all threads) trips the token with
  /// `code`. Arming also switches `CheckPoint()` into counting mode so
  /// `checkpoints()` becomes exact; arming with a huge `nth` is the idiom
  /// for counting a run's checkpoints without faulting it.
  void ArmFaultAtCheckpoint(std::uint64_t nth, StatusCode code) const
      UFIM_REQUIRES(controller_role_);

  /// Claims (to the thread-safety analysis; no runtime effect) that no
  /// run is currently polling this context — the precondition of
  /// `Reset` and `ArmFaultAtCheckpoint`. See Reset's comment.
  void AssertQuiescent() const UFIM_ASSERT_CAPABILITY(controller_role_) {}

  /// Checkpoints observed since construction / `Reset()`. Exact only while
  /// a fault trigger is armed (counting mode); otherwise stays 0.
  std::uint64_t checkpoints() const {
    return state_->checkpoints.load(std::memory_order_relaxed);
  }

 private:
  struct State {
    std::atomic<int> tripped{0};  // 0 = live, else the StatusCode
    std::atomic<bool> counting{false};
    std::atomic<std::int64_t> deadline_ns{kNoDeadline};
    std::atomic<std::size_t> budget_bytes{0};  // 0 = no budget
    std::atomic<std::size_t> budget_baseline{0};
    std::atomic<std::uint64_t> checkpoints{0};
    std::atomic<std::uint64_t> fault_at{0};  // 0 = unarmed
    std::atomic<int> fault_code{0};
  };

  static constexpr std::int64_t kNoDeadline =
      std::numeric_limits<std::int64_t>::max();

  void Trip(StatusCode code) const;
  Status PollLimits() const;    // deadline + budget check; trips on breach
  Status CountedCheck() const;  // counting-mode CheckPoint body
  static Status TrippedStatus(int code);

  std::shared_ptr<State> state_;

  /// The "no run is polling; I am reconfiguring between runs" role
  /// (per-handle; claiming it on one copy does not leak to others).
  Role controller_role_;
};

/// Polls `ctx` if non-null, unwinding with `RunAbortedError` when tripped.
/// The nullptr form keeps execution-layer plumbing zero-cost when no
/// context is attached.
inline void PollRunContext(const RunContext* ctx) {
  if (ctx != nullptr) ctx->PollOrThrow();
}

}  // namespace ufim

#endif  // UFIM_COMMON_RUN_CONTEXT_H_
