#ifndef UFIM_TESTS_TESTING_FAULT_INJECTION_H_
#define UFIM_TESTS_TESTING_FAULT_INJECTION_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/run_context.h"
#include "core/flat_view.h"
#include "core/miner_registry.h"

namespace ufim::testing_util {

/// Deterministic fault-injection harness around RunContext's counted
/// checkpoint mode. The pattern is count-then-arm: run the workload once
/// with a count-only trigger to learn its exact checkpoint total (the
/// totals are deterministic per (data, config) — checkpoints are counted
/// per work unit, never per timeslice), then re-run with a fault armed at
/// seeded positions drawn from [1, total]. Every faulted run must return
/// the armed code cleanly, and a Reset + re-run on the same objects must
/// be bit-identical to the unfaulted baseline.

/// Arming nth = kCountOnly counts checkpoints without ever faulting.
inline constexpr std::uint64_t kCountOnly =
    std::numeric_limits<std::uint64_t>::max();

/// Runs `work` with `ctx` in counting mode and returns the exact number
/// of checkpoints it observed. `work` must complete successfully (the
/// trigger never fires). Leaves `ctx` freshly Reset.
template <typename Fn>
std::uint64_t CountCheckpoints(const RunContext& ctx, Fn&& work) {
  ctx.AssertQuiescent();  // caller hands us the context between runs
  ctx.Reset();
  ctx.ArmFaultAtCheckpoint(kCountOnly, StatusCode::kCancelled);
  std::forward<Fn>(work)();
  const std::uint64_t total = ctx.checkpoints();
  ctx.Reset();
  return total;
}

/// Exact checkpoint count of one run of registry miner `name` at
/// `threads` workers. A UH-Struct split polls once more when its nested
/// loop ends, so a count above the serial run's proves a split ran.
inline std::uint64_t CountMinerCheckpoints(std::string_view name,
                                           std::size_t threads,
                                           const FlatView& view,
                                           const MiningTask& task) {
  MinerOptions options;
  options.num_threads = threads;
  const RunContext ctx = options.run_context;
  std::unique_ptr<Miner> miner =
      MinerRegistry::Global().Create(name, options);
  return CountCheckpoints(
      ctx, [&] { EXPECT_TRUE(miner->Mine(view, task).ok()) << name; });
}

/// Seeded schedule of distinct 1-based fault positions in [1, total]:
/// always the first and last checkpoint (the abort points most likely to
/// hit half-initialized or almost-done state), the rest drawn uniformly
/// from the interior. Sorted ascending; size = min(faults, total).
inline std::vector<std::uint64_t> FaultSchedule(std::uint64_t seed,
                                                std::uint64_t total,
                                                std::size_t faults) {
  std::vector<std::uint64_t> picks;
  if (total == 0 || faults == 0) return picks;
  picks.push_back(1);
  if (total > 1 && faults > 1) picks.push_back(total);
  const std::uint64_t want = std::min<std::uint64_t>(faults, total);
  if (want > picks.size()) {
    Rng rng(seed);
    for (std::uint64_t interior :
         SampleWithoutReplacement(rng, total - 2, want - picks.size())) {
      picks.push_back(interior + 2);  // map [0, total-2) onto [2, total-1]
    }
  }
  std::sort(picks.begin(), picks.end());
  return picks;
}

/// Stable per-case seed (FNV-1a over the label, split by `stream`), so a
/// failing schedule reproduces across runs and platforms without any
/// dependence on std::hash.
inline std::uint64_t ScheduleSeed(std::string_view label,
                                  std::uint64_t stream = 0) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : label) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return DeriveStreamSeed(h, stream);
}

}  // namespace ufim::testing_util

#endif  // UFIM_TESTS_TESTING_FAULT_INJECTION_H_
