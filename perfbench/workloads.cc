#include "workloads.h"

#include <utility>

#include "graph/generators.h"
#include "sampling/neighbor_sampler.h"
#include "transfer/pipeline.h"

namespace perfbench {

namespace {

std::vector<Workload> MakeWorkloads() {
  std::vector<Workload> all;

  // NN-bound: sampling is hidden on a loader thread, so NN kernels and
  // batch-plane overlap set the epoch time.
  Workload sage;
  sage.name = "sage-skewed";
  sage.model = "graphsage";
  sage.fanouts = {25, 10};
  sage.hidden_dim = 64;
  sage.feature_dim = 64;
  sage.loader_workers = 1;
  sage.cache_policy = "presample";
  sage.cache_ratio = 0.10;
  sage.pipeline = gnndm::PipelineMode::kOverlapBpDt;
  sage.probes_dist_layers = true;
  all.push_back(sage);

  // Sample-bound: serial, inline batch preparation, three hops.
  Workload gcn;
  gcn.name = "gcn-sample-bound";
  gcn.model = "gcn";
  gcn.fanouts = {15, 10, 5};
  gcn.hidden_dim = 16;
  gcn.feature_dim = 32;
  all.push_back(gcn);

  return all;
}

}  // namespace

const Workload* FindWorkload(const std::string& name) {
  static const std::vector<Workload> kWorkloads = MakeWorkloads();
  for (const Workload& w : kWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

gnndm::Dataset MakeWorkloadDataset(const Workload& w, uint64_t seed) {
  constexpr gnndm::VertexId kVertices = 200000;
  constexpr uint32_t kClasses = 16;
  // Average degree 20, 30% of it crossing communities.
  gnndm::CommunityGraph cg = gnndm::GeneratePowerLawCommunity(
      kVertices, kClasses, /*avg_intra_degree=*/14.0,
      /*avg_inter_degree=*/6.0, seed);
  gnndm::DatasetOptions options;
  options.feature_dim = w.feature_dim;
  options.feature_signal = 0.3;
  options.label_noise = 0.1;
  options.labeled_fraction = 0.3;
  gnndm::Dataset ds =
      gnndm::MakeCommunityDataset(w.name, std::move(cg), options, seed);
  ds.power_law = true;
  return ds;
}

gnndm::TrainerConfig MakeTrainerConfig(const Workload& w, uint64_t seed) {
  gnndm::TrainerConfig config;
  config.model = w.model;
  config.hidden_dim = w.hidden_dim;
  config.num_conv_layers = static_cast<uint32_t>(w.fanouts.size());
  config.batch_size = kBatchSize;
  config.hops.clear();
  for (uint32_t f : w.fanouts) config.hops.push_back(gnndm::HopSpec::Fanout(f));
  config.pipeline = w.pipeline;
  config.loader_workers = w.loader_workers;
  config.cache_policy = w.cache_policy;
  config.cache_ratio = w.cache_ratio;
  config.num_threads = kComputeThreads;
  config.seed = seed;
  return config;
}

gnndm::TrainerConfig MakeDistProbeConfig(uint64_t seed) {
  Workload dist;
  dist.model = "gcn";
  dist.fanouts = {25, 10};
  dist.hidden_dim = 64;
  dist.cache_policy = "degree";
  dist.cache_ratio = 0.10;
  return MakeTrainerConfig(dist, seed);
}

}  // namespace perfbench
