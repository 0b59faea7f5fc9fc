// End-to-end training benchmark.
//
//   perfbench_e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--spans-out <file>] [--git-sha <sha>]
//
// --trace 0 sets the workload up several times, trains a fixed schedule
// (one warm-up epoch, then timed epochs), then times full-graph sampled
// inference until --seconds have been measured and prints the end-to-end
// metrics. --trace 1 trains the same schedule untraced, epoch by epoch in
// turn with a replay from public calls that has a span around every call
// into a layer, and prints the per-layer metrics.
// Either way the last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// where attempted/failed count the output checks. A line before it
// carries the run's provenance. NOTES.md explains the workloads and the
// metrics.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "core/trainer.h"
#include "dist/dist_trainer.h"
#include "graph/dataset.h"
#include "partition/analyzer.h"
#include "partition/metis_partitioner.h"
#include "partition/partitioner.h"
#include "replay.h"
#include "sampling/neighbor_sampler.h"
#include "stats.h"
#include "tensor/ops.h"
#include "tensor/simd.h"
#include "transfer/feature_cache.h"
#include "transfer/transfer_engine.h"
#include "workloads.h"

namespace perfbench {
namespace {

using gnndm::VertexId;
using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string spans_out;
  std::string git_sha = "unknown";
};

bool ParseArgs(int argc, char** argv, Args& args) {
  bool has_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      has_seed = end != value && *end == '\0';
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value, &end);
      if (end == value || *end != '\0') return false;
    } else if (key == "--trace") {
      args.trace = std::atoi(value);
    } else if (key == "--spans-out") {
      args.spans_out = value;
    } else if (key == "--git-sha") {
      args.git_sha = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && has_seed && args.seconds > 0.0 &&
         (args.trace == 0 || args.trace == 1) && !args.workload.empty();
}

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    for (unsigned int leaf = 0; leaf < 3; ++leaf) {
      __get_cpuid(0x80000002u + leaf, &regs[4 * leaf], &regs[4 * leaf + 1],
                  &regs[4 * leaf + 2], &regs[4 * leaf + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    // It is printed inside a JSON string.
    for (char& c : s) {
      if (c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20) {
        c = ' ';
      }
    }
    const size_t first = s.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : s.substr(first);
  }
#endif
  return "unknown";
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Output checks of one run: failures against attempts.
struct Checks {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  void Add(bool ok) { AddCounts(ok ? 1 : 0, ok ? 0 : 1); }
  void AddCounts(uint64_t passed, uint64_t failures) {
    attempted += passed + failures;
    failed += failures;
  }
  double PassRate() const {
    return attempted == 0
               ? 0.0
               : static_cast<double>(attempted - failed) / attempted;
  }
};

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

class Metrics {
 public:
  void Add(std::string name, double value, const char* unit) {
    metrics_.push_back({std::move(name), value, unit});
  }
  /// A per-batch timing: median, tail (highest percentile with at least
  /// ten samples beyond it; 0 when there are too few samples), the tail's
  /// percentile, and the sample count.
  void AddTiming(const std::string& name, const std::vector<double>& s) {
    const Tail tail = HighestSupportedPercentile(s);
    Add(name, Median(s), "s");
    Add(name + ".tail", tail.ok ? tail.value : 0.0, "s");
    Add(name + ".tail_pct", tail.percentile, "%");
    Add(name + ".n", static_cast<double>(s.size()), "count");
  }
  std::string ToJson() const {
    std::string out = "{";
    char buf[160];
    for (size_t i = 0; i < metrics_.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, "
                    "\"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", metrics_[i].name.c_str(),
                    metrics_[i].value, metrics_[i].unit);
      out += buf;
    }
    return out + "}";
  }

 private:
  std::vector<Metric> metrics_;
};

void PrintResult(const Checks& checks, const Metrics& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              checks.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(checks.attempted),
              static_cast<unsigned long long>(checks.failed),
              metrics.ToJson().c_str());
}

/// One set-up: the graph and the trainer, which builds the feature cache.
struct Setup {
  gnndm::Dataset ds;
  std::unique_ptr<gnndm::Trainer> trainer;
};

std::unique_ptr<Setup> BuildSetup(const Workload& w, uint64_t seed,
                                  const gnndm::TrainerConfig& config,
                                  SpanRecorder* rec) {
  auto setup = std::make_unique<Setup>();
  {
    std::optional<ScopedSpan> span;
    if (rec) span.emplace(*rec, "graph.generate");
    setup->ds = MakeWorkloadDataset(w, seed);
  }
  std::optional<ScopedSpan> span;
  if (rec) span.emplace(*rec, "core.trainer_setup");
  setup->trainer = std::make_unique<gnndm::Trainer>(setup->ds, config);
  return setup;
}

/// What one training epoch reports.
struct EpochResult {
  double loss = 0.0;
  double virtual_seconds = 0.0;
  double wall_seconds = 0.0;
  uint64_t rows_from_cache = 0;
};

EpochResult TrainEpoch(Setup& s) {
  const Clock::time_point t0 = Clock::now();
  const gnndm::EpochStats stats = s.trainer->TrainEpoch();
  EpochResult r;
  r.wall_seconds = SecondsSince(t0);
  r.loss = stats.train_loss;
  r.virtual_seconds = stats.epoch_seconds;
  r.rows_from_cache = stats.rows_from_cache;
  return r;
}

std::vector<VertexId> AllVertices(const gnndm::Dataset& ds) {
  std::vector<VertexId> all(ds.graph.num_vertices());
  for (VertexId v = 0; v < all.size(); ++v) all[v] = v;
  return all;
}

/// Runs the fixed schedule on `s`: epoch 0 is the warm-up, epochs
/// 1..kTimedEpochs are timed. Checks every epoch's mean loss is finite
/// (a non-finite batch loss makes the epoch sum non-finite).
std::vector<EpochResult> TrainSchedule(Setup& s, Checks& checks) {
  std::vector<EpochResult> epochs;
  for (uint32_t e = 0; e <= kTimedEpochs; ++e) {
    epochs.push_back(TrainEpoch(s));
    checks.Add(std::isfinite(epochs.back().loss));
  }
  return epochs;
}

/// Median training seeds per wall second over the timed epochs.
double TrainSeedsPerSecond(const Setup& s,
                           const std::vector<EpochResult>& epochs) {
  std::vector<double> rates;
  for (size_t e = 1; e < epochs.size(); ++e) {
    rates.push_back(static_cast<double>(s.ds.split.train.size()) /
                    epochs[e].wall_seconds);
  }
  return Median(rates);
}

int RunUntraced(const Workload& w, const Args& args) {
  const gnndm::TrainerConfig config = MakeTrainerConfig(w, args.seed);
  Checks checks;
  std::vector<double> setup_seconds;
  std::unique_ptr<Setup> s;
  for (uint32_t k = 0; k < kSetups; ++k) {
    s.reset();
    const Clock::time_point t0 = Clock::now();
    s = BuildSetup(w, args.seed, config, nullptr);
    setup_seconds.push_back(SecondsSince(t0));
  }
  const std::vector<EpochResult> epochs = TrainSchedule(*s, checks);
  double virtual_sum = 0.0;
  for (size_t e = 1; e < epochs.size(); ++e) {
    virtual_sum += epochs[e].virtual_seconds;
  }
  const double val_acc = s->trainer->Evaluate(s->ds.split.val);
  const double chance = 1.0 / s->ds.num_classes;
  checks.Add(val_acc > 2.0 * chance);

  // Full-graph inference: at least kMinInferPasses passes, more while the
  // run has measured less than --seconds in total.
  const std::vector<VertexId> all = AllVertices(s->ds);
  double measured = 0.0;
  for (size_t e = 1; e < epochs.size(); ++e) {
    measured += epochs[e].wall_seconds;
  }
  std::vector<double> infer_rates;
  while (infer_rates.size() < kMinInferPasses || measured < args.seconds) {
    const Clock::time_point t0 = Clock::now();
    const double acc = s->trainer->Evaluate(all);
    const double wall = SecondsSince(t0);
    measured += wall;
    infer_rates.push_back(static_cast<double>(all.size()) / wall);
    checks.Add(acc > 2.0 * chance);
  }
  // Every prediction of the trained model over every vertex (untimed).
  SpanRecorder unused;
  const InferenceStats inf =
      ReplayInference(s->ds, config, s->trainer->model(), unused);
  checks.AddCounts(inf.predictions - inf.invalid, inf.invalid);

  Metrics m;
  m.Add("train_seeds_per_s", TrainSeedsPerSecond(*s, epochs), "vertices/s");
  m.Add("infer_vertices_per_s", Median(infer_rates), "vertices/s");
  m.Add("setup_s", Median(setup_seconds), "s");
  m.Add("peak_rss_mb", PeakRssMb(), "MB");
  m.Add("val_acc", val_acc, "fraction");
  m.Add("final_loss", epochs.back().loss, "nats");
  m.Add("virtual_epoch_s", virtual_sum / kTimedEpochs, "s");
  m.Add("check_pass_rate", checks.PassRate(), "fraction");
  PrintResult(checks, m);
  return 0;
}

/// The feature cache the trainer builds for `w`, rebuilt from the public
/// FeatureCache call with the trainer's parameters.
gnndm::FeatureCache BuildCache(const Workload& w, const gnndm::Dataset& ds,
                               const gnndm::TrainerConfig& config) {
  if (w.cache_policy != "presample") return gnndm::FeatureCache();
  // Trainer pre-samples about two epochs of batches.
  gnndm::Rng rng(config.seed ^ 0xCAC4Eu);
  const gnndm::NeighborSampler sampler(config.hops);
  const auto batches_per_epoch = static_cast<uint32_t>(
      (ds.split.train.size() + config.batch_size - 1) / config.batch_size);
  return gnndm::FeatureCache::PreSampling(
      ds.graph, ds.split.train, sampler, config.batch_size,
      std::max<uint32_t>(8, 2 * batches_per_epoch),
      static_cast<uint64_t>(config.cache_ratio * ds.graph.num_vertices()),
      rng);
}

/// The partition and dist layers, measured on the workload's graph: a
/// Metis-VET partition into kDistWorkers parts, then DistTrainer epochs
/// on it (MakeDistProbeConfig).
struct DistLayers {
  double edge_cut_frac = 0.0;
  double replication_factor = 1.0;
  double remote_bytes_per_epoch = 0.0;
  double straggler_ratio = 1.0;  ///< median max / mean worker virtual s
};

DistLayers ProbeDistLayers(const gnndm::Dataset& ds, uint64_t seed,
                           SpanRecorder& rec) {
  constexpr uint32_t kEpochs = 2;
  gnndm::PartitionResult partition;
  {
    ScopedSpan span(rec, "partition.partition");
    partition = gnndm::MetisPartitioner(gnndm::MetisMode::kVET)
                    .Partition({ds.graph, ds.split}, kDistWorkers, seed);
  }
  DistLayers out;
  out.edge_cut_frac = static_cast<double>(partition.EdgeCut(ds.graph)) /
                      ds.graph.num_edges();
  out.replication_factor =
      gnndm::AnalyzeStorage(ds.graph, partition, ds.features.BytesPerVertex())
          .replication_factor;
  gnndm::DistTrainer dist(ds, partition, MakeDistProbeConfig(seed));
  std::vector<double> straggler;
  for (uint32_t e = 0; e < kEpochs; ++e) {
    const gnndm::DistEpochStats stats = dist.TrainEpoch();
    double max_s = 0.0;
    double sum_s = 0.0;
    for (const gnndm::WorkerStats& ws : stats.workers) {
      out.remote_bytes_per_epoch += static_cast<double>(
          ws.remote_feature_bytes + ws.remote_structure_bytes);
      max_s = std::max(max_s, ws.seconds);
      sum_s += ws.seconds;
    }
    straggler.push_back(max_s * stats.workers.size() / sum_s);
  }
  out.remote_bytes_per_epoch /= kEpochs;
  out.straggler_ratio = Median(straggler);
  return out;
}

double SingleSpanSeconds(const SpanRecorder& rec, const char* name) {
  const std::vector<double> s = rec.SelfTimes(name);
  return s.empty() ? 0.0 : s.front();
}

/// Summed self time of the spans called `name`; see SelfTimes.
double SpanSeconds(const SpanRecorder& rec, const char* name,
                   int64_t skip_root_batch = -2) {
  double sum = 0.0;
  for (double t : rec.SelfTimes(name, skip_root_batch)) sum += t;
  return sum;
}

int RunTraced(const Workload& w, const Args& args) {
  const gnndm::TrainerConfig config = MakeTrainerConfig(w, args.seed);
  Checks checks;
  SpanRecorder rec;
  std::unique_ptr<Setup> s = BuildSetup(w, args.seed, config, &rec);
  gnndm::FeatureCache cache;
  {
    ScopedSpan span(rec, "transfer.cache_build");
    cache = BuildCache(w, s->ds, config);
  }

  // The trainer itself (untraced) and its traced replay, epoch by epoch in
  // turn, so both see the same phases of host speed.
  std::unique_ptr<gnndm::GnnModel> model = MakeReplayModel(s->ds, config);
  TrainingReplay replay(w, s->ds, config, cache, *model, rec);
  std::vector<EpochResult> epochs;
  bool match = true;
  uint64_t trainer_hits = 0;
  for (uint32_t e = 0; e <= kTimedEpochs; ++e) {
    epochs.push_back(TrainEpoch(*s));
    checks.Add(std::isfinite(epochs.back().loss));
    trainer_hits += epochs.back().rows_from_cache;
    match = replay.Epoch() == epochs.back().loss && match;
  }
  const ReplayStats& stats = replay.stats();
  match = match && trainer_hits == stats.rows_from_cache;
  checks.Add(match);
  checks.AddCounts(stats.checks - stats.check_failures, stats.check_failures);
  if (!match) {
    std::fprintf(stderr, "replay does not reproduce the trainer's epoch "
                 "losses; per-layer numbers withheld\n");
  }
  const double untraced_rate = TrainSeedsPerSecond(*s, epochs);
  const double val_acc = s->trainer->Evaluate(s->ds.split.val);
  checks.Add(val_acc > 2.0 * (1.0 / s->ds.num_classes));
  const InferenceStats inf = ReplayInference(s->ds, config, *model, rec);
  checks.AddCounts(inf.predictions - inf.invalid, inf.invalid);
  const DistLayers dist = w.probes_dist_layers
                              ? ProbeDistLayers(s->ds, args.seed, rec)
                              : DistLayers();

  // Consumer-thread coverage and traced throughput over the timed epochs.
  std::vector<double> traced_rates;
  std::vector<double> coverage;
  std::vector<double> untimed;
  double wall_sum = 0.0;
  for (size_t e = 1; e < stats.epoch_spans.size(); ++e) {
    const size_t span = stats.epoch_spans[e];
    const double wall = rec.Duration(span) - rec.BenchSecondsUnder(span);
    traced_rates.push_back(s->ds.split.train.size() / wall);
    untimed.push_back(rec.SelfTime(span));
    coverage.push_back(1.0 - rec.SelfTime(span) / wall);
    wall_sum += wall;
  }
  const double min_coverage =
      coverage.empty() ? 0.0 : *std::min_element(coverage.begin(),
                                                 coverage.end());
  checks.Add(min_coverage >= 0.9);
  if (!args.spans_out.empty()) {
    std::ofstream out(args.spans_out, std::ios::trunc);
    out << rec.ToJson();
  }

  Metrics m;
  if (match) {
    const double epochs_run = kTimedEpochs + 1;
    // The replay's counts cover every epoch, the warm-up included; so do
    // the times they are divided by.
    const double nn_seconds =
        SpanSeconds(rec, "nn.forward") + SpanSeconds(rec, "nn.backward");
    const double sample_seconds = SpanSeconds(rec, "sampling.sample");
    const double wait_seconds = SpanSeconds(rec, "core.next_wait", 0);

    m.Add("graph.generate_s", SingleSpanSeconds(rec, "graph.generate"), "s");
    m.Add("partition.partition_s",
          SingleSpanSeconds(rec, "partition.partition"), "s");
    m.Add("partition.edge_cut_frac", dist.edge_cut_frac, "fraction");
    m.Add("partition.replication_factor", dist.replication_factor, "ratio");
    m.Add("transfer.cache_build_s",
          SingleSpanSeconds(rec, "transfer.cache_build"), "s");
    m.Add("transfer.cache_hit_ratio",
          stats.rows_requested == 0
              ? 0.0
              : static_cast<double>(stats.rows_from_cache) /
                    stats.rows_requested,
          "fraction");
    m.AddTiming("transfer.gather_s", rec.SelfTimes("transfer.gather", 0));
    m.Add("transfer.gather_bytes", stats.gather_bytes / epochs_run,
          "bytes/epoch");
    m.AddTiming("transfer.cost_s", rec.SelfTimes("transfer.cost", 0));
    m.Add("batch.select_s", Median(rec.SelfTimes("batch.select", 0)), "s");
    m.AddTiming("sampling.sample_s", rec.SelfTimes("sampling.sample", 0));
    m.Add("sampling.sampled_edges", stats.sampled_edges / epochs_run,
          "edges/epoch");
    m.Add("sampling.edges_per_s",
          sample_seconds > 0.0 ? stats.sampled_edges / sample_seconds : 0.0,
          "edges/s");
    m.AddTiming("core.next_wait_s", rec.SelfTimes("core.next_wait", 0));
    m.Add("core.next_wait_share",
          wall_sum > 0.0 ? wait_seconds / wall_sum : 0.0, "fraction");
    m.AddTiming("nn.forward_s", rec.SelfTimes("nn.forward", 0));
    m.AddTiming("nn.loss_s", rec.SelfTimes("nn.loss", 0));
    m.AddTiming("nn.backward_s", rec.SelfTimes("nn.backward", 0));
    m.AddTiming("nn.optimizer_s", rec.SelfTimes("nn.optimizer", 0));
    m.AddTiming("nn.infer_forward_s", rec.SelfTimes("nn.infer_forward"));
    m.AddTiming("infer.sample_s", rec.SelfTimes("infer.sample"));
    m.Add("tensor.gflop", stats.flops / epochs_run / 1e9, "GFLOP/epoch");
    m.Add("tensor.gflops_per_s",
          nn_seconds > 0.0 ? stats.flops / nn_seconds / 1e9 : 0.0,
          "GFLOP/s");
    m.Add("dist.remote_bytes_per_epoch", dist.remote_bytes_per_epoch,
          "bytes");
    m.Add("dist.straggler_ratio", dist.straggler_ratio, "ratio");
    m.Add("trace.coverage", Median(coverage), "fraction");
    m.Add("trace.untimed_s", Median(untimed), "s");
    const double traced_rate = Median(traced_rates);
    m.Add("trace.traced_train_seeds_per_s", traced_rate, "vertices/s");
    m.Add("trace.untraced_train_seeds_per_s", untraced_rate, "vertices/s");
    m.Add("trace.overhead_frac", 1.0 - traced_rate / untraced_rate,
          "fraction");
  }
  m.Add("trace.replay_loss_match", match ? 1.0 : 0.0, "bool");
  PrintResult(checks, m);
  return 0;
}

void PrintProvenance(const Workload& w, const Args& args, unsigned nproc) {
  std::printf("{\"provenance\": {\"workload\": \"%s\", \"seed\": %llu, "
              "\"nproc\": %u, \"cpu_model\": \"%s\", \"simd\": \"%s\", "
              "\"compute_threads\": %zu, \"loader_workers\": %zu, "
              "\"git_sha\": \"%s\", \"trace\": %d}}\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed),
              nproc, CpuModel().c_str(),
              gnndm::SimdTierName(gnndm::ActiveSimdTier()),
              kComputeThreads, w.loader_workers, args.git_sha.c_str(),
              args.trace);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--spans-out <file>] [--git-sha <sha>]\n",
                 argv[0]);
    return 2;
  }
  const perfbench::Workload* w = perfbench::FindWorkload(args.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const unsigned nproc = std::thread::hardware_concurrency();
  if (perfbench::kComputeThreads + w->loader_workers > nproc) {
    std::fprintf(stderr,
                 "workload %s needs %zu compute threads + %zu loader workers "
                 "but only %u processors are online\n",
                 w->name.c_str(), perfbench::kComputeThreads,
                 w->loader_workers, nproc);
    return 3;
  }
  perfbench::PrintProvenance(*w, args, nproc);
  return args.trace == 1 ? perfbench::RunTraced(*w, args)
                         : perfbench::RunUntraced(*w, args);
}
