#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

// The traced run's instrument: an in-memory span log and a replay of the
// trainer's epochs built only from public calls into each layer, with a
// span around every call. The replay performs the same arithmetic as
// Trainer::TrainEpoch, so its per-epoch loss must equal the trainer's bit
// for bit; that equality is what lets its per-layer split stand for the
// untraced run.

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/trainer.h"
#include "graph/dataset.h"
#include "common/rng.h"
#include "nn/model.h"
#include "nn/optimizer.h"
#include "sampling/neighbor_sampler.h"
#include "transfer/feature_cache.h"
#include "workloads.h"

namespace perfbench {

struct Span {
  const char* name = "";
  double start = 0.0;  ///< seconds since the recorder was created
  double end = 0.0;
  int32_t parent = -1;  ///< index of the enclosing span, -1 for a root
  int64_t batch = -1;   ///< batch index, -1 when not per batch
};

/// Span log of the benchmark's own thread. Spans nest strictly: a span's
/// parent is the innermost span open when it began. Names are string
/// literals. Spans named "bench.*" cover work the benchmark adds (checks,
/// copies); they are excluded from the traced epoch wall.
class SpanRecorder {
 public:
  size_t Open(const char* name, int64_t batch = -1);
  void Close(size_t index);

  double Duration(size_t index) const {
    return spans_[index].end - spans_[index].start;
  }
  /// Duration minus the time the span's direct children cover.
  double SelfTime(size_t index) const {
    return Duration(index) - child_seconds_[index];
  }
  /// Self time of every span called `name`, in recording order, leaving
  /// out spans under a root span whose batch is `skip_root_batch` (the
  /// warm-up epoch's "epoch" and "inline_pass" roots carry batch 0).
  std::vector<double> SelfTimes(std::string_view name,
                                int64_t skip_root_batch = -2) const;
  /// Summed duration of the "bench.*" spans nested anywhere under `index`.
  double BenchSecondsUnder(size_t index) const;
  /// Chrome-trace-style JSON of every span ("X" events, microseconds).
  std::string ToJson() const;

 private:
  std::chrono::steady_clock::time_point origin_ =
      std::chrono::steady_clock::now();
  std::vector<Span> spans_;
  std::vector<double> child_seconds_;
  std::vector<size_t> root_;
  std::vector<size_t> open_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, const char* name, int64_t batch = -1)
      : rec_(rec), index_(rec.Open(name, batch)) {}
  ~ScopedSpan() { rec_.Close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  size_t index() const { return index_; }

 private:
  SpanRecorder& rec_;
  size_t index_;
};

/// Counts gathered while replaying.
struct ReplayStats {
  std::vector<double> epoch_losses;  ///< mean training loss per epoch
  std::vector<size_t> epoch_spans;   ///< index of each "epoch" span
  uint64_t rows_requested = 0;  ///< TransferEngine::Cost base
  uint64_t rows_from_cache = 0;
  uint64_t gather_bytes = 0;
  uint64_t sampled_edges = 0;
  double flops = 0.0;  ///< EstimateGnnFlops over every training batch
  uint64_t checks = 0;
  uint64_t check_failures = 0;
};

/// The model a Trainer built from `config` starts with.
std::unique_ptr<gnndm::GnnModel> MakeReplayModel(
    const gnndm::Dataset& ds, const gnndm::TrainerConfig& config);

class BatchReplayer;

/// Replays the Trainer `w` describes, epoch by epoch, from the model's
/// initial weights, so its epochs can interleave with the trainer's own.
/// `cache` is the feature cache the trainer would build (an empty one
/// when it has none).
/// Checks every batch loss is finite and every sampled subgraph passes
/// Validate(). All references must outlive the replay.
class TrainingReplay {
 public:
  TrainingReplay(const Workload& w, const gnndm::Dataset& ds,
                 const gnndm::TrainerConfig& config,
                 const gnndm::FeatureCache& cache, gnndm::GnnModel& model,
                 SpanRecorder& rec);
  ~TrainingReplay();
  TrainingReplay(const TrainingReplay&) = delete;
  TrainingReplay& operator=(const TrainingReplay&) = delete;

  /// Replays the next epoch; returns its mean training loss, the value
  /// the trainer reports as train_loss for the same epoch.
  double Epoch();
  const ReplayStats& stats() const { return stats_; }

 private:
  const Workload& w_;
  const gnndm::Dataset& ds_;
  const gnndm::TrainerConfig& config_;
  SpanRecorder& rec_;
  ReplayStats stats_;
  const gnndm::NeighborSampler sampler_;
  std::unique_ptr<gnndm::Optimizer> optimizer_;
  std::unique_ptr<BatchReplayer> replayer_;
  gnndm::Rng select_rng_;
  uint32_t epoch_ = 0;
};

struct InferenceStats {
  uint64_t predictions = 0;
  uint64_t invalid = 0;  ///< predictions outside [0, num_classes)
};

/// Sampled inference of `model` over every vertex of the graph, batch by
/// batch, with spans around sampling, gathering and the forward pass.
InferenceStats ReplayInference(const gnndm::Dataset& ds,
                               const gnndm::TrainerConfig& config,
                               gnndm::GnnModel& model, SpanRecorder& rec);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
