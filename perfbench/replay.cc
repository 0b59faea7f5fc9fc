#include "replay.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>
#include <utility>

#include "batch/batch_selector.h"
#include "common/rng.h"
#include "core/batch_source.h"
#include "core/costs.h"
#include "nn/optimizer.h"
#include "sampling/neighbor_sampler.h"
#include "sampling/sampled_subgraph.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "transfer/transfer_engine.h"

namespace perfbench {

using gnndm::VertexId;

size_t SpanRecorder::Open(const char* name, int64_t batch) {
  Span span;
  span.name = name;
  span.batch = batch;
  span.parent = open_.empty() ? -1 : static_cast<int32_t>(open_.back());
  span.start = std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - origin_)
                   .count();
  root_.push_back(open_.empty() ? spans_.size() : root_[open_.front()]);
  spans_.push_back(span);
  child_seconds_.push_back(0.0);
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void SpanRecorder::Close(size_t index) {
  Span& span = spans_[index];
  span.end = std::chrono::duration<double>(
                 std::chrono::steady_clock::now() - origin_)
                 .count();
  open_.pop_back();
  if (span.parent >= 0) child_seconds_[span.parent] += span.end - span.start;
}

std::vector<double> SpanRecorder::SelfTimes(std::string_view name,
                                            int64_t skip_root_batch) const {
  std::vector<double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (name != spans_[i].name) continue;
    if (spans_[root_[i]].batch == skip_root_batch) continue;
    out.push_back(SelfTime(i));
  }
  return out;
}

double SpanRecorder::BenchSecondsUnder(size_t index) const {
  // Spans are stored in the order they opened and nest strictly, so the
  // descendants of `index` are the spans after it that open before it
  // closes.
  double seconds = 0.0;
  for (size_t j = index + 1;
       j < spans_.size() && spans_[j].start < spans_[index].end; ++j) {
    if (std::string_view(spans_[j].name).starts_with("bench.")) {
      seconds += Duration(j);
    }
  }
  return seconds;
}

std::string SpanRecorder::ToJson() const {
  std::string out = "{\"traceEvents\": [";
  char buf[256];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                  "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                  "{\"id\": %zu, \"parent\": %d, \"batch\": %lld}}",
                  i == 0 ? "" : ",", s.name, s.start * 1e6,
                  (s.end - s.start) * 1e6, i, s.parent,
                  static_cast<long long>(s.batch));
    out += buf;
  }
  out += "\n]}\n";
  return out;
}

std::unique_ptr<gnndm::GnnModel> MakeReplayModel(
    const gnndm::Dataset& ds, const gnndm::TrainerConfig& config) {
  // The same ModelConfig Trainer derives from `config`.
  gnndm::ModelConfig mc;
  mc.in_dim = ds.features.dim();
  mc.hidden_dim = config.hidden_dim;
  mc.num_classes = ds.num_classes;
  mc.num_conv_layers = config.num_conv_layers;
  mc.num_mlp_layers = config.num_mlp_layers;
  mc.dropout = config.dropout;
  mc.seed = config.seed ^ 0x40DE1u;
  return gnndm::MakeModel(config.model, mc);
}

/// The consumer-thread work of one training batch, as BatchConsumer does
/// it: transfer accounting, forward, loss, backward. Returns the batch
/// loss times its seed count, the quantity the trainer sums.
class BatchReplayer {
 public:
  BatchReplayer(const gnndm::Dataset& ds, const gnndm::TrainerConfig& config,
                const gnndm::FeatureCache& cache, gnndm::GnnModel& model,
                SpanRecorder& rec, ReplayStats& stats)
      : ds_(ds),
        config_(config),
        cache_(cache.capacity_rows() > 0 ? &cache : nullptr),
        model_(model),
        rec_(rec),
        stats_(stats),
        engine_(gnndm::MakeTransferEngine(config.transfer, config.device)) {}

  double Consume(const std::vector<VertexId>& seeds,
                 const gnndm::SampledSubgraph& sg, const gnndm::Tensor& input,
                 int64_t b) {
    {
      ScopedSpan span(rec_, "transfer.cost", b);
      const gnndm::TransferStats t =
          engine_->Cost(sg.input_vertices(), ds_.features, cache_);
      stats_.rows_requested += t.rows_requested;
      stats_.rows_from_cache += t.rows_from_cache;
    }
    const gnndm::Tensor* logits = nullptr;
    {
      ScopedSpan span(rec_, "nn.forward", b);
      logits = &model_.Forward(sg, input, /*train=*/true);
    }
    labels_.resize(seeds.size());
    for (size_t i = 0; i < seeds.size(); ++i) labels_[i] = ds_.labels[seeds[i]];
    double loss = 0.0;
    {
      ScopedSpan span(rec_, "nn.loss", b);
      loss = gnndm::SoftmaxCrossEntropy(*logits, labels_, d_logits_);
    }
    {
      ScopedSpan span(rec_, "nn.backward", b);
      model_.Backward(sg, d_logits_);
    }
    ++stats_.checks;
    if (!std::isfinite(loss)) ++stats_.check_failures;
    stats_.flops += gnndm::EstimateGnnFlops(sg, ds_.features.dim(),
                                            config_.hidden_dim,
                                            ds_.num_classes,
                                            config_.num_mlp_layers);
    return loss * static_cast<double>(seeds.size());
  }

  /// Samples and gathers one batch on this thread, as InlineBatchSource
  /// does, and checks the subgraph.
  void Prepare(const gnndm::NeighborSampler& sampler,
               const std::vector<VertexId>& seeds, gnndm::Rng& rng,
               int64_t b) {
    {
      ScopedSpan span(rec_, "sampling.sample", b);
      sg_ = sampler.Sample(ds_.graph, seeds, rng, scratch_);
    }
    {
      ScopedSpan span(rec_, "bench.validate", b);
      ++stats_.checks;
      if (!sg_.Validate(ds_.graph.num_vertices()).ok()) {
        ++stats_.check_failures;
      }
    }
    {
      ScopedSpan span(rec_, "transfer.gather", b);
      gnndm::TransferEngine::Gather(sg_.input_vertices(), ds_.features,
                                    input_);
    }
    stats_.sampled_edges += sg_.TotalEdges();
    stats_.gather_bytes +=
        sg_.input_vertices().size() * ds_.features.BytesPerVertex();
  }

  const gnndm::SampledSubgraph& subgraph() const { return sg_; }
  const gnndm::Tensor& input() const { return input_; }

 private:
  const gnndm::Dataset& ds_;
  const gnndm::TrainerConfig& config_;
  const gnndm::FeatureCache* cache_;
  gnndm::GnnModel& model_;
  SpanRecorder& rec_;
  ReplayStats& stats_;
  std::unique_ptr<gnndm::TransferEngine> engine_;
  gnndm::SamplerScratch scratch_;
  gnndm::SampledSubgraph sg_;
  gnndm::Tensor input_;
  std::vector<int32_t> labels_;
  gnndm::Tensor d_logits_;
};

namespace {

void Step(gnndm::Optimizer& optimizer, SpanRecorder& rec, int64_t b) {
  ScopedSpan span(rec, "nn.optimizer", b);
  optimizer.Step();
}

}  // namespace

TrainingReplay::TrainingReplay(const Workload& w, const gnndm::Dataset& ds,
                               const gnndm::TrainerConfig& config,
                               const gnndm::FeatureCache& cache,
                               gnndm::GnnModel& model, SpanRecorder& rec)
    : w_(w),
      ds_(ds),
      config_(config),
      rec_(rec),
      sampler_(config.hops),
      optimizer_(std::make_unique<gnndm::Adam>(
          model.Parameters(), config.learning_rate, /*beta1=*/0.9f,
          /*beta2=*/0.999f, /*epsilon=*/1e-8f, config.weight_decay)),
      replayer_(std::make_unique<BatchReplayer>(ds, config, cache, model, rec,
                                                stats_)),
      select_rng_(config.seed) {}

TrainingReplay::~TrainingReplay() = default;

// Trainer::TrainEpoch: one BatchSource per epoch, batch i sampled with
// Rng(BatchRngSeed(epoch seed, i)), one optimizer step per batch.
double TrainingReplay::Epoch() {
  const uint64_t source_seed = config_.seed ^ (0xA51Cull + epoch_);
  std::vector<std::vector<VertexId>> batches;
  double loss_sum = 0.0;
  {
    ScopedSpan epoch(rec_, "epoch", epoch_);
    stats_.epoch_spans.push_back(epoch.index());
    {
      ScopedSpan span(rec_, "batch.select");
      batches = gnndm::RandomBatchSelector().SelectEpoch(
          ds_.split.train, config_.batch_size, select_rng_);
    }
    if (w_.loader_workers == 0) {
      for (uint32_t i = 0; i < batches.size(); ++i) {
        gnndm::Rng rng(gnndm::BatchRngSeed(source_seed, i));
        replayer_->Prepare(sampler_, batches[i], rng, i);
        loss_sum += replayer_->Consume(batches[i], replayer_->subgraph(),
                                       replayer_->input(), i);
        Step(*optimizer_, rec_, i);
      }
    } else {
      std::vector<std::vector<VertexId>> copy;
      {
        ScopedSpan span(rec_, "bench.copy");
        copy = batches;
      }
      gnndm::BatchSourceOptions options;
      options.workers = w_.loader_workers;
      options.queue_depth = config_.async_queue_depth;
      options.seed = source_seed;
      std::unique_ptr<gnndm::BatchSource> source = gnndm::MakeBatchSource(
          ds_.graph, ds_.features, std::move(copy), &sampler_, options);
      for (uint32_t i = 0;; ++i) {
        std::optional<gnndm::PreparedBatch> batch;
        {
          ScopedSpan span(rec_, "core.next_wait", i);
          batch = source->Next();
        }
        if (!batch) break;
        loss_sum += replayer_->Consume(batch->seeds, batch->subgraph,
                                       batch->input, i);
        Step(*optimizer_, rec_, i);
      }
    }
  }
  if (w_.loader_workers > 0) {
    // The loader thread's sampling and gathering, timed inline over the
    // same batches (outside the consumer's epoch span).
    ScopedSpan pass(rec_, "inline_pass", epoch_);
    for (uint32_t i = 0; i < batches.size(); ++i) {
      gnndm::Rng rng(gnndm::BatchRngSeed(source_seed, i));
      replayer_->Prepare(sampler_, batches[i], rng, i);
    }
  }
  ++epoch_;
  stats_.epoch_losses.push_back(
      loss_sum / static_cast<double>(ds_.split.train.size()));
  return stats_.epoch_losses.back();
}

InferenceStats ReplayInference(const gnndm::Dataset& ds,
                               const gnndm::TrainerConfig& config,
                               gnndm::GnnModel& model, SpanRecorder& rec) {
  // Trainer::Evaluate's loop: 1024-vertex batches, one sampler Rng.
  constexpr uint32_t kEvalBatch = 1024;
  InferenceStats stats;
  const gnndm::NeighborSampler sampler(config.hops);
  gnndm::SamplerScratch scratch;
  gnndm::Rng rng(config.seed ^ 0x1F3E7ull);
  const VertexId n = ds.graph.num_vertices();
  std::vector<VertexId> batch;
  gnndm::SampledSubgraph sg;
  gnndm::Tensor input;
  std::vector<int32_t> preds;
  ScopedSpan pass(rec, "inference");
  for (VertexId begin = 0; begin < n; begin += kEvalBatch) {
    const VertexId end = std::min<VertexId>(n, begin + kEvalBatch);
    batch.clear();
    for (VertexId v = begin; v < end; ++v) batch.push_back(v);
    const int64_t b = begin / kEvalBatch;
    {
      ScopedSpan span(rec, "infer.sample", b);
      sg = sampler.Sample(ds.graph, batch, rng, scratch);
    }
    {
      ScopedSpan span(rec, "infer.gather", b);
      gnndm::TransferEngine::Gather(sg.input_vertices(), ds.features, input);
    }
    {
      ScopedSpan span(rec, "nn.infer_forward", b);
      gnndm::ArgmaxRowsInto(model.Forward(sg, input, /*train=*/false), preds);
    }
    for (size_t i = 0; i < batch.size(); ++i) {
      ++stats.predictions;
      if (preds[i] < 0 || static_cast<uint32_t>(preds[i]) >= ds.num_classes) {
        ++stats.invalid;
      }
    }
  }
  return stats;
}

}  // namespace perfbench
