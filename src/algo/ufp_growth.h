#ifndef UFIM_ALGO_UFP_GROWTH_H_
#define UFIM_ALGO_UFP_GROWTH_H_

#include "core/miner.h"

namespace ufim {

/// UFP-growth (Leung, Mateo & Brajczuk, PAKDD'08; paper §3.1.2):
/// FP-growth extended to uncertain data. Builds the UFP-tree, then
/// recursively projects conditional subtrees per extension item.
///
/// Because nodes are shared only on (item, probability) equality, the
/// compression of the FP-tree largely evaporates under uncertainty; the
/// paper consistently measures UFP-growth as the slowest and most
/// memory-hungry of the three expected-support miners, and this
/// implementation reproduces that regime faithfully (exact mining over
/// the weighted tree, no candidate-verification rescan needed): the node
/// count is exactly the paper's. The constant per node is kept small —
/// a 32 B node plus at most 16 B of the tree's flat child index, with
/// every tree sized up front from its input's unit count (see UFPTree).
///
/// Mining is task-parallel over the top-level header ranks of the global
/// tree: each rank's conditional projection chain is an independent
/// subproblem, claimed dynamically and mined whole by one worker.
/// Outputs and counters are merged in fixed rank order, so results are
/// bit-identical at every `num_threads`. A dominant rank is not split
/// further: nested child tasks measured no faster on real cores
/// (BENCH_pattern_growth.json).
class UFPGrowth final : public ExpectedSupportMiner {
 public:
  /// `num_threads`: workers for the per-rank mining tasks; 1 (default)
  /// is the sequential baseline, 0 means all hardware threads.
  explicit UFPGrowth(std::size_t num_threads = 1) : num_threads_(num_threads) {}

  std::string_view name() const override { return "UFP-growth"; }

  Result<MiningResult> MineExpected(
      const FlatView& view,
      const ExpectedSupportParams& params) const override;

 private:
  std::size_t num_threads_;
};

}  // namespace ufim

#endif  // UFIM_ALGO_UFP_GROWTH_H_
