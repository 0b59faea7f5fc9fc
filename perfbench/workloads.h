#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

// The benchmark's workloads. NOTES.md records why each one exists and
// which layer it is meant to expose.

#include <cstdint>
#include <string>
#include <vector>

#include "core/trainer.h"
#include "graph/dataset.h"

namespace perfbench {

struct Workload {
  std::string name;
  std::string model;  ///< "graphsage" or "gcn"
  std::vector<uint32_t> fanouts;
  size_t hidden_dim = 64;
  uint32_t feature_dim = 64;
  size_t loader_workers = 0;
  std::string cache_policy = "none";
  double cache_ratio = 0.0;
  gnndm::PipelineMode pipeline = gnndm::PipelineMode::kNone;
  /// The traced run also measures the partition and dist layers on this
  /// workload's graph (see MakeDistProbeConfig).
  bool probes_dist_layers = false;
};

/// Compute threads of every workload. On a 4-vCPU VM a second thread did
/// not raise sage-skewed's throughput and widened its run-to-run spread
/// (NOTES.md), so kernel threading is left to a later workload.
constexpr size_t kComputeThreads = 1;
/// Set-ups timed per run; setup_s is their median.
constexpr uint32_t kSetups = 5;
/// Every workload trains one warm-up epoch, then this many timed epochs.
constexpr uint32_t kTimedEpochs = 12;
/// Full-graph inference passes timed at least, whatever --seconds says.
constexpr uint32_t kMinInferPasses = 3;
constexpr uint32_t kBatchSize = 1024;

/// Looks a registered workload up by name; nullptr when unknown.
const Workload* FindWorkload(const std::string& name);

/// The power-law community graph every workload trains on, generated from
/// the workload seed: 200k vertices, average degree 20, 30% labeled.
gnndm::Dataset MakeWorkloadDataset(const Workload& w, uint64_t seed);

/// Trainer configuration of `w`; `seed` drives model init and batching.
gnndm::TrainerConfig MakeTrainerConfig(const Workload& w, uint64_t seed);

/// Simulated workers the partition and dist layers are measured with.
constexpr uint32_t kDistWorkers = 4;
/// The DistTrainer configuration of that measurement: GCN (25,10),
/// hidden 64, per-worker degree cache at 10%, one compute thread, on a
/// Metis-VET partition of the workload's 64-dim graph.
gnndm::TrainerConfig MakeDistProbeConfig(uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
