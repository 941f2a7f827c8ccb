#include "bench_datasets.h"

#include "gen/benchmark_datasets.h"
#include "gen/probability.h"

namespace ufim::bench {

// Scaling: the default sizes (bench_datasets.h) are the paper's Table 6
// sizes (gen/benchmark_datasets.h) divided by ~34 for Connect (2,000),
// ~113 for Accident (3,000), ~99 for Kosarak (10,000), ~12 for Gazelle
// (5,000) and 10 for T25I15D (2k-32k for the paper's 20k-320k). The
// figure presets in paper_figures.cc pass their own n per sweep.

namespace {
constexpr std::uint64_t kSeed = 20120827;  // VLDB'12 conference date
}  // namespace

UncertainDatabase ConnectDb(std::size_t n) {
  return AssignGaussianProbabilities(MakeConnectLike(n, kSeed), 0.95, 0.05, kSeed + 1);
}

UncertainDatabase AccidentDb(std::size_t n) {
  return AssignGaussianProbabilities(MakeAccidentLike(n, kSeed), 0.5, 0.5, kSeed + 2);
}

UncertainDatabase KosarakDb(std::size_t n) {
  return AssignGaussianProbabilities(MakeKosarakLike(n, kSeed), 0.5, 0.5, kSeed + 3);
}

UncertainDatabase GazelleDb(std::size_t n) {
  return AssignGaussianProbabilities(MakeGazelleLike(n, kSeed), 0.95, 0.05, kSeed + 4);
}

UncertainDatabase QuestDb(std::size_t n) {
  auto det = MakeQuestT25I15(n, kSeed);
  // The fixed configuration is valid by construction; an error here is a
  // programming bug, so fail loudly via empty database + stderr.
  if (!det.ok()) {
    std::fprintf(stderr, "QuestDb: %s\n", det.status().ToString().c_str());
    return UncertainDatabase();
  }
  return AssignGaussianProbabilities(*det, 0.9, 0.1, kSeed + 5);
}

UncertainDatabase ZipfDenseDb(double skew, std::size_t n) {
  return AssignZipfProbabilities(MakeConnectLike(n, kSeed), skew, kSeed + 6);
}

UncertainDatabase DominantChainDb(std::size_t n, std::size_t chain_len) {
  std::vector<Transaction> txns;
  txns.reserve(n);
  for (std::size_t t = 0; t < n; ++t) {
    std::vector<ProbItem> units;
    const std::size_t m = 1 + (t % chain_len);
    units.reserve(m);
    for (std::size_t i = 0; i < m; ++i) {
      ProbItem unit;
      unit.item = static_cast<ItemId>(i);
      unit.prob = 0.55 + 0.05 * static_cast<double>((t + 3 * i) % 8);
      units.push_back(unit);
    }
    txns.push_back(Transaction(std::move(units)));
  }
  return UncertainDatabase(std::move(txns));
}

}  // namespace ufim::bench
