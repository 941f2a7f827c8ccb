#ifndef UFIM_BENCH_BENCH_DATASETS_H_
#define UFIM_BENCH_BENCH_DATASETS_H_

#include <cstddef>

#include "core/uncertain_database.h"

namespace ufim::bench {

/// Scaled instances of the paper's five benchmark datasets (Table 6) with
/// the Table 7 probability parameters. Transaction counts are reduced to
/// single-core laptop scale; bench_datasets.cc records the scaling against
/// the paper's sizes. Generation is deterministic and not memoized: a
/// bench that mines one instance repeatedly keeps it (paper_figures
/// caches every sweep's instance).

/// Connect: dense, Gaussian(0.95, 0.05).
UncertainDatabase ConnectDb(std::size_t n = 2000);

/// Accident: dense-ish, Gaussian(0.5, 0.5).
UncertainDatabase AccidentDb(std::size_t n = 3000);

/// Kosarak: sparse, Gaussian(0.5, 0.5).
UncertainDatabase KosarakDb(std::size_t n = 10000);

/// Gazelle: very sparse, Gaussian(0.95, 0.05).
UncertainDatabase GazelleDb(std::size_t n = 5000);

/// T25I15D{n}: the Quest scalability family, Gaussian(0.9, 0.1).
UncertainDatabase QuestDb(std::size_t n);

/// Dense dataset with Zipf-assigned probabilities at the given skew
/// (the Figure 4/5/6 (k),(l) workload).
UncertainDatabase ZipfDenseDb(double skew, std::size_t n = 1500);

/// Skewed one-dominant-rank dataset: transaction t holds the chain
/// items 0..(t mod chain_len), so the least-frequent chain items carry
/// the deepest conditional subtrees — under per-top-level-rank
/// parallelism one task mines nearly everything while the rest idle,
/// the straggler shape UH-Struct's recursive split decomposes.
/// Probabilities cycle a small value set deterministically.
UncertainDatabase DominantChainDb(std::size_t n = 6000,
                                  std::size_t chain_len = 24);

}  // namespace ufim::bench

#endif  // UFIM_BENCH_BENCH_DATASETS_H_
