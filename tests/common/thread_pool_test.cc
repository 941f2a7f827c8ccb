#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <stdexcept>
#include <vector>

namespace ufim {
namespace {

TEST(HardwareThreadsTest, AtLeastOne) { EXPECT_GE(HardwareThreads(), 1u); }

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  for (std::size_t threads : {1u, 2u, 5u, 16u}) {
    constexpr std::size_t kN = 997;  // prime: no even split across workers
    std::vector<std::atomic<int>> hits(kN);
    ParallelForDynamic(kN, threads,
                       [&hits](std::size_t i, std::size_t) { ++hits[i]; });
    for (std::size_t i = 0; i < kN; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << " threads " << threads;
    }
  }
}

TEST(ParallelForTest, HandlesEdgeSizes) {
  int runs = 0;
  ParallelForDynamic(0, 4, [&runs](std::size_t, std::size_t) { ++runs; });
  EXPECT_EQ(runs, 0);
  ParallelForDynamic(1, 4, [&runs](std::size_t, std::size_t) { ++runs; });
  EXPECT_EQ(runs, 1);
  // num_threads = 0 means hardware concurrency.
  std::atomic<int> par_runs{0};
  ParallelForDynamic(10, 0,
                     [&par_runs](std::size_t, std::size_t) { ++par_runs; });
  EXPECT_EQ(par_runs.load(), 10);
}

TEST(ParallelForTest, ReusableAcrossManyRounds) {
  // Exercises pool reuse: repeated fork-joins over the shared global
  // pool must neither leak tasks nor lose indices.
  for (int round = 0; round < 50; ++round) {
    std::atomic<std::size_t> sum{0};
    ParallelForDynamic(100, 4,
                       [&sum](std::size_t i, std::size_t) { sum += i; });
    EXPECT_EQ(sum.load(), 4950u) << "round " << round;
  }
}

TEST(ParallelForTest, ExceptionPropagatesAfterAllChunksFinish) {
  std::vector<std::atomic<int>> ran(100);
  auto run = [&ran] {
    ParallelForDynamic(100, 4, [&ran](std::size_t i, std::size_t) {
      ++ran[i];
      if (i == 37) throw std::invalid_argument("bad index");
    });
  };
  EXPECT_THROW(run(), std::invalid_argument);
  // Indices are claimed one at a time, so a throw ends only its own index:
  // every index runs once, and the caller blocks until all have finished,
  // so no worker can touch the shared state after the rethrow.
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(ran[i].load(), 1) << i;
  }
  // The global pool survives for later calls.
  std::atomic<int> after{0};
  ParallelForDynamic(10, 4, [&after](std::size_t, std::size_t) { ++after; });
  EXPECT_EQ(after.load(), 10);
}

TEST(ParallelForTest, NestedParallelForRunsParallelAndCompletes) {
  // A body that itself calls ParallelForDynamic: the inner call posts its
  // own helpers and waits only for those that started, so it neither
  // deadlocks on a saturated pool nor degrades to serial.
  std::vector<std::atomic<int>> hits(64);
  ParallelForDynamic(8, 4, [&hits](std::size_t outer, std::size_t) {
    ParallelForDynamic(8, 4, [&hits, outer](std::size_t inner, std::size_t) {
      ++hits[outer * 8 + inner];
    });
  });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << i;
  }
}

TEST(ParallelForDynamicTest, CoversEveryIndexExactlyOnceWithValidWorkerIds) {
  for (std::size_t threads : {1u, 2u, 5u, 16u}) {
    constexpr std::size_t kN = 509;  // prime, larger than any worker count
    const std::size_t workers = ParallelWorkerCount(kN, threads);
    EXPECT_EQ(workers, std::min<std::size_t>(threads, kN));
    std::vector<std::atomic<int>> hits(kN);
    std::vector<std::atomic<int>> by_worker(workers);
    ParallelForDynamic(kN, threads,
                       [&](std::size_t i, std::size_t worker) {
                         ASSERT_LT(worker, workers);
                         ++hits[i];
                         ++by_worker[worker];
                       });
    int total = 0;
    for (std::size_t i = 0; i < kN; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << " threads " << threads;
    }
    for (std::size_t w = 0; w < workers; ++w) total += by_worker[w].load();
    EXPECT_EQ(total, static_cast<int>(kN));
  }
}

TEST(ParallelForDynamicTest, HandlesEdgeSizes) {
  int runs = 0;
  ParallelForDynamic(0, 4, [&runs](std::size_t, std::size_t) { ++runs; });
  EXPECT_EQ(runs, 0);
  ParallelForDynamic(1, 4, [&runs](std::size_t, std::size_t worker) {
    EXPECT_EQ(worker, 0u);  // serial fallback
    ++runs;
  });
  EXPECT_EQ(runs, 1);
  std::atomic<int> par_runs{0};
  ParallelForDynamic(10, 0, [&par_runs](std::size_t, std::size_t) { ++par_runs; });
  EXPECT_EQ(par_runs.load(), 10);
}

TEST(ParallelForDynamicTest, SkewedWorkloadsStillCoverEverything) {
  // One index is ~100x heavier than the rest — the shape the dynamic
  // scheduler exists for. All indices must still run exactly once.
  constexpr std::size_t kN = 64;
  std::vector<std::atomic<int>> hits(kN);
  std::atomic<std::size_t> heavy_work{0};
  ParallelForDynamic(kN, 4, [&](std::size_t i, std::size_t) {
    ++hits[i];
    const std::size_t spins = i == 0 ? 100000 : 1000;
    std::size_t acc = 0;
    for (std::size_t s = 0; s < spins; ++s) acc += s;
    heavy_work += acc > 0 ? 1 : 0;
  });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ParallelForDynamicTest, LowestFailingIndexExceptionWinsAndAllRun) {
  std::vector<std::atomic<int>> ran(100);
  auto run = [&ran] {
    ParallelForDynamic(100, 4, [&ran](std::size_t i, std::size_t) {
      ++ran[i];
      if (i == 37) throw std::invalid_argument("37 failed");
      if (i == 73) throw std::out_of_range("73 failed");
    });
  };
  // Every index is attempted, the exception of the lowest failing index
  // is the one rethrown, and the global pool survives for later calls.
  EXPECT_THROW(run(), std::invalid_argument);
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(ran[i].load(), 1) << i;
  }
  std::atomic<int> after{0};
  ParallelForDynamic(10, 4, [&after](std::size_t, std::size_t) { ++after; });
  EXPECT_EQ(after.load(), 10);
}

TEST(ParallelForDynamicTest, NestedCallRunsParallelAndCompletes) {
  // Each nested call has a private worker-id space: ids stay below the nested call's ParallelWorkerCount regardless of
  // which pool threads end up helping.
  const std::size_t nested_workers = ParallelWorkerCount(8, 4);
  std::vector<std::atomic<int>> hits(64);
  ParallelForDynamic(8, 4, [&](std::size_t outer, std::size_t) {
    ParallelForDynamic(8, 4, [&hits, nested_workers, outer](
                                 std::size_t inner, std::size_t worker) {
      EXPECT_LT(worker, nested_workers);
      ++hits[outer * 8 + inner];
    });
  });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << i;
  }
}

namespace {

// Recursive fork-join over nested loops, the shape of UH-Struct's split:
// a node fans its range out to kFanOut children through a nested
// ParallelForDynamic, each child writes its own slot, and the node
// merges the slots in index order. Returns {sum of i, sum of 1/(i+1)}.
struct TreeSum {
  std::size_t count = 0;
  double harmonic = 0.0;
};

TreeSum NestedTreeSum(std::size_t lo, std::size_t hi, std::size_t threads) {
  TreeSum out;
  if (hi - lo <= 4) {
    for (std::size_t i = lo; i < hi; ++i) {
      out.count += i;
      out.harmonic += 1.0 / static_cast<double>(i + 1);
    }
    return out;
  }
  constexpr std::size_t kFanOut = 3;
  std::vector<TreeSum> parts(kFanOut);
  ParallelForDynamic(kFanOut, threads, [&parts, lo, hi, threads](
                                           std::size_t c, std::size_t) {
    const std::size_t width = hi - lo;
    parts[c] = NestedTreeSum(lo + width * c / kFanOut,
                             lo + width * (c + 1) / kFanOut, threads);
  });
  for (const TreeSum& part : parts) {
    out.count += part.count;
    out.harmonic += part.harmonic;
  }
  return out;
}

}  // namespace

TEST(ParallelForDynamicTest, NestedTreeSumIsDeterministic) {
  constexpr std::size_t kN = 1000;
  const TreeSum serial = NestedTreeSum(0, kN, 1);
  EXPECT_EQ(serial.count, kN * (kN - 1) / 2);
  for (std::size_t threads : {2u, 4u, 8u}) {
    const TreeSum parallel = NestedTreeSum(0, kN, threads);
    EXPECT_EQ(parallel.count, serial.count) << "threads " << threads;
    // Fixed merge order: the floating-point sum matches bit for bit.
    EXPECT_EQ(parallel.harmonic, serial.harmonic) << "threads " << threads;
  }
}

TEST(ParallelForDynamicTest, StressNestedLoops) {
  // TSan-exercised stress loop: repeated outer loops whose bodies run
  // nested loops of different widths, some of which throw, racing the
  // helpers of every level for the shared pool.
  for (int round = 0; round < 20; ++round) {
    std::atomic<std::size_t> sum{0};
    std::atomic<int> caught{0};
    ParallelForDynamic(32, 8, [&sum, &caught](std::size_t i, std::size_t) {
      sum += i;
      if (i % 4 == 0) {
        ParallelForDynamic(4, 2, [&sum](std::size_t, std::size_t) { sum += 1; });
      } else if (i % 4 == 1) {
        try {
          ParallelForDynamic(3, 8, [&sum](std::size_t j, std::size_t) {
            sum += 1000;
            if (j == 1) throw std::runtime_error("nested");
          });
        } catch (const std::runtime_error&) {
          ++caught;
        }
      } else {
        ParallelForDynamic(5, 4, [&sum](std::size_t, std::size_t) { sum += 1; });
      }
    });
    // 32 indices summing 0..31; 8 run 4 nested (+1 each), 8 run 3 nested
    // (+1000 each, one throws), the other 16 run 5 nested (+1 each).
    EXPECT_EQ(sum.load(), 496u + 8 * 4 + 8 * 3000 + 16 * 5) << "round " << round;
    EXPECT_EQ(caught.load(), 8) << "round " << round;
  }
}

TEST(ParallelForDynamicTest, ChurnOfShortCallsNeverOutlivesTheCaller) {
  // Thousands of calls (not threads), each with fewer indices than
  // requested threads: the caller usually claims both indices before its
  // helper leaves the queue, so most helpers arrive after their call has
  // returned. Such a helper must see the call closed and leave without
  // touching the dead frame (cursor, error slots, this body's captures);
  // ASan's detect_stack_use_after_return and TSan flag one that does.
  for (int call = 0; call < 5000; ++call) {
    std::atomic<int> hits[2] = {0, 0};
    ParallelForDynamic(2, 4, [&hits](std::size_t i, std::size_t) { ++hits[i]; });
    ASSERT_EQ(hits[0].load(), 1) << "call " << call;
    ASSERT_EQ(hits[1].load(), 1) << "call " << call;
  }
}

}  // namespace
}  // namespace ufim
