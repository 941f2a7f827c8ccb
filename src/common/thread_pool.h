#ifndef UFIM_COMMON_THREAD_POOL_H_
#define UFIM_COMMON_THREAD_POOL_H_

#include <cstddef>
#include <functional>

#include "common/run_context.h"

namespace ufim {

/// Number of hardware threads, clamped to at least 1 (the standard
/// permits std::thread::hardware_concurrency() == 0).
std::size_t HardwareThreads();

/// Number of worker slots `ParallelForDynamic` uses for a given (n,
/// num_threads): min(num_threads, n), with num_threads == 0 meaning
/// HardwareThreads(). Callers size per-worker scratch with this.
std::size_t ParallelWorkerCount(std::size_t n, std::size_t num_threads);

/// The parallel loop: runs body(i, worker) for every i in [0, n), with
/// indices claimed one at a time from a shared atomic cursor by
/// `ParallelWorkerCount(n, num_threads)` workers. The calling thread is
/// worker 0; the others are helpers posted to a process-wide FIFO pool
/// of HardwareThreads() threads. Blocks until every index completed. A
/// worker that draws a heavy index leaves the remaining indices to the
/// others, so skewed workloads balance.
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
/// runs the plain serial loop with worker == 0. Nested calls (a body
/// that calls ParallelForDynamic) run in parallel whenever pool threads
/// are free, each with its own private worker-id space. They never
/// deadlock: a call waits only for helpers that already started on it,
/// and runs every index no helper claims itself.
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
