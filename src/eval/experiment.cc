#include "eval/experiment.h"

#include <memory>
#include <string>
#include <utility>

#include "core/miner_registry.h"
#include "eval/memory_tracker.h"
#include "eval/stopwatch.h"

namespace ufim {

namespace {

template <typename DataT>
Result<ExperimentMeasurement> RunOne(const Miner& miner, const DataT& data,
                                     const MiningTask& task) {
  ScopedPeakMemory mem;
  Stopwatch watch;
  Result<MiningResult> mined = miner.Mine(data, task);
  if (!mined.ok()) return mined.status();
  ExperimentMeasurement m;
  m.millis = watch.ElapsedMillis();
  m.peak_bytes = mem.PeakDeltaBytes();
  m.algorithm = std::string(miner.name());
  m.num_frequent = mined.value().size();
  m.counters = mined.value().counters();
  m.result = std::move(mined).value();
  return m;
}

}  // namespace

Result<ExperimentMeasurement> RunExperiment(const Miner& miner,
                                            const FlatView& view,
                                            const MiningTask& task) {
  return RunOne(miner, view, task);
}

Result<ExperimentMeasurement> RunExperiment(const Miner& miner,
                                            const UncertainDatabase& db,
                                            const MiningTask& task) {
  return RunOne(miner, db, task);
}

Result<ExperimentMeasurement> RunRegisteredExperiment(
    std::string_view algorithm, const FlatView& view, const MiningTask& task,
    const MinerOptions& options) {
  std::unique_ptr<Miner> miner =
      MinerRegistry::Global().Create(algorithm, options);
  if (miner == nullptr) {
    return Status::NotFound("algorithm '" + std::string(algorithm) +
                            "' is not registered");
  }
  return RunExperiment(*miner, view, task);
}

}  // namespace ufim
