#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>

#include "common/rng.h"
#include "graph/csr_graph.h"
#include "graph/dataset.h"
#include "graph/generators.h"
#include "nn/aggregate.h"
#include "nn/layers.h"
#include "nn/model.h"
#include "nn/optimizer.h"
#include "nn/parameter.h"
#include "sampling/neighbor_sampler.h"
#include "sampling/sampled_subgraph.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "transfer/transfer_engine.h"

namespace gnndm {
namespace {

/// A tiny 1-layer bipartite block: 2 destinations, 4 sources.
/// dst 0 has neighbors {2, 3}, dst 1 has neighbor {3}.
SampleLayer TinyLayer() {
  SampleLayer layer;
  layer.num_src = 4;
  layer.num_dst = 2;
  layer.offsets = {0, 2, 3};
  layer.neighbors = {2, 3, 3};
  return layer;
}

TEST(AggregateTest, MeanWithSelfKnownValues) {
  SampleLayer layer = TinyLayer();
  Tensor src(4, 1);
  src.at(0, 0) = 1.0f;  // dst 0's own features
  src.at(1, 0) = 2.0f;  // dst 1's own features
  src.at(2, 0) = 4.0f;
  src.at(3, 0) = 8.0f;
  Tensor out;
  MeanAggregateWithSelf(layer, src, out);
  EXPECT_NEAR(out.at(0, 0), (1.0 + 4.0 + 8.0) / 3.0, 1e-6);
  EXPECT_NEAR(out.at(1, 0), (2.0 + 8.0) / 2.0, 1e-6);
}

TEST(AggregateTest, MeanNeighborsZeroRowWhenNoNeighbors) {
  SampleLayer layer;
  layer.num_src = 1;
  layer.num_dst = 1;
  layer.offsets = {0, 0};
  Tensor src(1, 2);
  src.Fill(3.0f);
  Tensor out;
  MeanAggregateNeighbors(layer, src, out);
  EXPECT_EQ(out.at(0, 0), 0.0f);
  EXPECT_EQ(out.at(0, 1), 0.0f);
}

TEST(AggregateTest, ForwardBackwardAreAdjoint) {
  // <Agg(x), y> == <x, AggBackward(y)> for linear aggregation.
  SampleLayer layer = TinyLayer();
  Rng rng(1);
  Tensor x(4, 3), y(2, 3);
  XavierInit(x, rng);
  XavierInit(y, rng);

  Tensor ax;
  MeanAggregateWithSelf(layer, x, ax);
  double lhs = 0.0;
  for (size_t i = 0; i < ax.size(); ++i) lhs += ax.data()[i] * y.data()[i];

  Tensor aty(4, 3);
  MeanAggregateWithSelfBackward(layer, y, aty);
  double rhs = 0.0;
  for (size_t i = 0; i < x.size(); ++i) rhs += x.data()[i] * aty.data()[i];
  EXPECT_NEAR(lhs, rhs, 1e-5);
}

TEST(AggregateTest, NeighborsForwardBackwardAreAdjoint) {
  SampleLayer layer = TinyLayer();
  Rng rng(2);
  Tensor x(4, 2), y(2, 2);
  XavierInit(x, rng);
  XavierInit(y, rng);
  Tensor ax;
  MeanAggregateNeighbors(layer, x, ax);
  double lhs = 0.0;
  for (size_t i = 0; i < ax.size(); ++i) lhs += ax.data()[i] * y.data()[i];
  Tensor aty(4, 2);
  MeanAggregateNeighborsBackward(layer, y, aty);
  double rhs = 0.0;
  for (size_t i = 0; i < x.size(); ++i) rhs += x.data()[i] * aty.data()[i];
  EXPECT_NEAR(lhs, rhs, 1e-5);
}

/// Numerical gradient check of a whole model: compares the analytic
/// directional derivative along the gradient itself against central
/// differences. A directional probe perturbs every unit by a tiny amount,
/// which keeps ReLU units from flipping sides (the failure mode of
/// per-coordinate finite differences on float32 nets); per-coordinate
/// checks for the ReLU-free layers live in LayerGradTest below.
void CheckModelGradients(GnnModel& model, const SampledSubgraph& sg,
                         const Tensor& input,
                         const std::vector<int32_t>& labels) {
  auto loss_fn = [&]() {
    // Models below are built with dropout = 0, so train=true is
    // deterministic.
    const Tensor& logits = model.Forward(sg, input, /*train=*/true);
    Tensor unused;
    return SoftmaxCrossEntropy(logits, labels, unused);
  };

  // Analytic gradients.
  for (Parameter* p : model.Parameters()) p->ZeroGrad();
  const Tensor& logits = model.Forward(sg, input, true);
  Tensor d_logits;
  SoftmaxCrossEntropy(logits, labels, d_logits);
  model.Backward(sg, d_logits);

  // Direction d = g / ||g||; analytic directional derivative = ||g||.
  double norm_sq = 0.0;
  for (Parameter* p : model.Parameters()) {
    for (size_t i = 0; i < p->grad.size(); ++i) {
      norm_sq += static_cast<double>(p->grad.data()[i]) * p->grad.data()[i];
    }
  }
  const double norm = std::sqrt(norm_sq);
  ASSERT_GT(norm, 1e-6);

  const double t = 1e-3;
  auto shift = [&](double scale) {
    for (Parameter* p : model.Parameters()) {
      for (size_t i = 0; i < p->value.size(); ++i) {
        p->value.data()[i] += static_cast<float>(
            scale * p->grad.data()[i] / norm);
      }
    }
  };
  shift(t);
  const double lp = loss_fn();
  shift(-2 * t);
  const double lm = loss_fn();
  shift(t);  // restore
  const double numeric = (lp - lm) / (2 * t);
  EXPECT_NEAR(numeric, norm, 0.05 * norm + 1e-4);
}

struct ModelFixture {
  CommunityGraph cg;
  SampledSubgraph sg;
  Tensor input;
  std::vector<int32_t> labels;
  FeatureMatrix features;

  explicit ModelFixture(uint64_t seed) {
    cg = GeneratePlantedPartition(200, 4, 10.0, 1.0, seed);
    NeighborSampler sampler = NeighborSampler::WithFanouts({4, 4});
    Rng rng(seed + 1);
    std::vector<VertexId> seeds{1, 17, 42, 99, 150};
    sg = sampler.Sample(cg.graph, seeds, rng);
    std::vector<int32_t> all_labels(cg.community.begin(),
                                    cg.community.end());
    features = MakeLabelCorrelatedFeatures(all_labels, 4, 8, 1.0, seed + 2);
    TransferEngine::Gather(sg.input_vertices(), features, input);
    for (VertexId v : seeds) labels.push_back(all_labels[v]);
  }
};

ModelConfig NoDropoutConfig() {
  ModelConfig config;
  config.in_dim = 8;
  config.hidden_dim = 6;
  config.num_classes = 4;
  config.num_conv_layers = 2;
  config.num_mlp_layers = 2;
  config.dropout = 0.0;  // deterministic forward for finite differences
  config.seed = 5;
  return config;
}

TEST(LayerGradTest, LinearNoReluCoordinateGradients) {
  // Kink-free per-coordinate finite differences on a single Linear layer.
  Rng rng(30);
  Linear layer("lin", 5, 3, /*relu=*/false, rng);
  Tensor x(4, 5);
  XavierInit(x, rng);
  std::vector<int32_t> labels{0, 1, 2, 0};

  auto loss_fn = [&]() {
    const Tensor& logits = layer.Forward(x);
    Tensor unused;
    return SoftmaxCrossEntropy(logits, labels, unused);
  };
  for (Parameter* p : layer.Parameters()) p->ZeroGrad();
  const Tensor& logits = layer.Forward(x);
  Tensor d_logits;
  SoftmaxCrossEntropy(logits, labels, d_logits);
  layer.Backward(d_logits, /*input_grad=*/false);

  const double eps = 1e-2;
  for (Parameter* p : layer.Parameters()) {
    for (size_t idx = 0; idx < p->value.size(); ++idx) {
      float original = p->value.data()[idx];
      p->value.data()[idx] = original + static_cast<float>(eps);
      double lp = loss_fn();
      p->value.data()[idx] = original - static_cast<float>(eps);
      double lm = loss_fn();
      p->value.data()[idx] = original;
      EXPECT_NEAR(p->grad.data()[idx], (lp - lm) / (2 * eps), 2e-3)
          << p->name << "[" << idx << "]";
    }
  }
}

TEST(LayerGradTest, GcnConvNoReluCoordinateGradients) {
  Rng rng(31);
  SampleLayer block = TinyLayer();
  GcnConv conv("conv", 4, 3, /*relu=*/false, rng);
  Tensor src(4, 4);
  XavierInit(src, rng);
  std::vector<int32_t> labels{1, 2};

  auto loss_fn = [&]() {
    const Tensor& logits = conv.Forward(block, src);
    Tensor unused;
    return SoftmaxCrossEntropy(logits, labels, unused);
  };
  for (Parameter* p : conv.Parameters()) p->ZeroGrad();
  const Tensor& logits = conv.Forward(block, src);
  Tensor d_logits;
  SoftmaxCrossEntropy(logits, labels, d_logits);
  conv.Backward(block, d_logits, /*input_grad=*/false);

  const double eps = 1e-2;
  for (Parameter* p : conv.Parameters()) {
    for (size_t idx = 0; idx < p->value.size(); ++idx) {
      float original = p->value.data()[idx];
      p->value.data()[idx] = original + static_cast<float>(eps);
      double lp = loss_fn();
      p->value.data()[idx] = original - static_cast<float>(eps);
      double lm = loss_fn();
      p->value.data()[idx] = original;
      EXPECT_NEAR(p->grad.data()[idx], (lp - lm) / (2 * eps), 2e-3)
          << p->name << "[" << idx << "]";
    }
  }
}

TEST(LayerGradTest, SageConvNoReluCoordinateGradients) {
  Rng rng(32);
  SampleLayer block = TinyLayer();
  SageConv conv("sage", 4, 3, /*relu=*/false, rng);
  Tensor src(4, 4);
  XavierInit(src, rng);
  std::vector<int32_t> labels{0, 2};

  auto loss_fn = [&]() {
    const Tensor& logits = conv.Forward(block, src);
    Tensor unused;
    return SoftmaxCrossEntropy(logits, labels, unused);
  };
  for (Parameter* p : conv.Parameters()) p->ZeroGrad();
  const Tensor& logits = conv.Forward(block, src);
  Tensor d_logits;
  SoftmaxCrossEntropy(logits, labels, d_logits);
  conv.Backward(block, d_logits, /*input_grad=*/false);

  const double eps = 1e-2;
  for (Parameter* p : conv.Parameters()) {
    for (size_t idx = 0; idx < p->value.size(); ++idx) {
      float original = p->value.data()[idx];
      p->value.data()[idx] = original + static_cast<float>(eps);
      double lp = loss_fn();
      p->value.data()[idx] = original - static_cast<float>(eps);
      double lm = loss_fn();
      p->value.data()[idx] = original;
      EXPECT_NEAR(p->grad.data()[idx], (lp - lm) / (2 * eps), 2e-3)
          << p->name << "[" << idx << "]";
    }
  }
}

/// Shared body of the input-gradient tests. `forward(x)` returns the
/// layer's logits for input `x`; `backward(d_logits, input_grad)` runs
/// the layer's Backward. Checks that skipping the input gradient leaves
/// every parameter gradient bit-identical and returns an empty tensor,
/// and that the requested input gradient matches per-coordinate central
/// differences (the layers are built ReLU-free, so no kinks).
void CheckInputGradient(
    const std::vector<Parameter*>& params, Tensor& x,
    const std::vector<int32_t>& labels,
    const std::function<const Tensor&(const Tensor&)>& forward,
    const std::function<Tensor(const Tensor&, bool)>& backward) {
  auto run = [&](bool input_grad, std::vector<float>& param_grads) {
    for (Parameter* p : params) p->ZeroGrad();
    Tensor d_logits;
    SoftmaxCrossEntropy(forward(x), labels, d_logits);
    Tensor dx = backward(d_logits, input_grad);
    param_grads.clear();
    for (Parameter* p : params) {
      param_grads.insert(param_grads.end(), p->grad.data(),
                         p->grad.data() + p->grad.size());
    }
    return dx;
  };
  std::vector<float> with_dx, without_dx;
  const Tensor dx = run(/*input_grad=*/true, with_dx);
  const Tensor skipped = run(/*input_grad=*/false, without_dx);
  EXPECT_TRUE(skipped.empty());
  ASSERT_EQ(with_dx.size(), without_dx.size());
  EXPECT_EQ(std::memcmp(with_dx.data(), without_dx.data(),
                        with_dx.size() * sizeof(float)),
            0);

  ASSERT_EQ(dx.rows(), x.rows());
  ASSERT_EQ(dx.cols(), x.cols());
  auto loss_fn = [&]() {
    Tensor unused;
    return SoftmaxCrossEntropy(forward(x), labels, unused);
  };
  const double eps = 1e-2;
  for (size_t idx = 0; idx < x.size(); ++idx) {
    const float original = x.data()[idx];
    x.data()[idx] = original + static_cast<float>(eps);
    const double lp = loss_fn();
    x.data()[idx] = original - static_cast<float>(eps);
    const double lm = loss_fn();
    x.data()[idx] = original;
    EXPECT_NEAR(dx.data()[idx], (lp - lm) / (2 * eps), 2e-3)
        << "input[" << idx << "]";
  }
}

TEST(LayerGradTest, LinearInputGradient) {
  Rng rng(33);
  Linear layer("lin", 5, 3, /*relu=*/false, rng);
  Tensor x(4, 5);
  XavierInit(x, rng);
  CheckInputGradient(
      layer.Parameters(), x, {2, 0, 1, 1},
      [&](const Tensor& in) -> const Tensor& { return layer.Forward(in); },
      [&](const Tensor& d, bool input_grad) {
        return layer.Backward(d, input_grad);
      });
}

TEST(LayerGradTest, GcnConvInputGradient) {
  Rng rng(34);
  SampleLayer block = TinyLayer();
  GcnConv conv("conv", 4, 3, /*relu=*/false, rng);
  Tensor src(4, 4);
  XavierInit(src, rng);
  CheckInputGradient(
      conv.Parameters(), src, {2, 1},
      [&](const Tensor& in) -> const Tensor& {
        return conv.Forward(block, in);
      },
      [&](const Tensor& d, bool input_grad) {
        return conv.Backward(block, d, input_grad);
      });
}

TEST(LayerGradTest, SageConvInputGradient) {
  Rng rng(35);
  SampleLayer block = TinyLayer();
  SageConv conv("sage", 4, 3, /*relu=*/false, rng);
  Tensor src(4, 4);
  XavierInit(src, rng);
  CheckInputGradient(
      conv.Parameters(), src, {1, 0},
      [&](const Tensor& in) -> const Tensor& {
        return conv.Forward(block, in);
      },
      [&](const Tensor& d, bool input_grad) {
        return conv.Backward(block, d, input_grad);
      });
}

TEST(ModelTest, GcnGradientsMatchNumerical) {
  ModelFixture fx(10);
  Gcn model(NoDropoutConfig());
  CheckModelGradients(model, fx.sg, fx.input, fx.labels);
}

TEST(ModelTest, GraphSageGradientsMatchNumerical) {
  ModelFixture fx(11);
  GraphSage model(NoDropoutConfig());
  CheckModelGradients(model, fx.sg, fx.input, fx.labels);
}

TEST(ModelTest, MlpGradientsMatchNumerical) {
  ModelFixture fx(12);
  Mlp model(NoDropoutConfig());
  CheckModelGradients(model, fx.sg, fx.input, fx.labels);
}

TEST(ModelTest, ForwardShapesMatchSeeds) {
  ModelFixture fx(13);
  for (const char* name : {"gcn", "graphsage", "mlp"}) {
    auto model = MakeModel(name, NoDropoutConfig());
    ASSERT_NE(model, nullptr) << name;
    const Tensor& logits = model->Forward(fx.sg, fx.input, false);
    EXPECT_EQ(logits.rows(), fx.labels.size()) << name;
    EXPECT_EQ(logits.cols(), 4u) << name;
  }
}

TEST(ModelTest, FactoryRejectsUnknownName) {
  EXPECT_EQ(MakeModel("transformer", NoDropoutConfig()), nullptr);
}

TEST(ModelTest, NumParametersIsPositiveAndStable) {
  Gcn model(NoDropoutConfig());
  size_t n = model.NumParameters();
  EXPECT_GT(n, 0u);
  EXPECT_EQ(model.NumParameters(), n);
}

TEST(OptimizerTest, SgdDescendsQuadratic) {
  // Minimize f(w) = 0.5 * w^2 by hand-feeding grad = w.
  Parameter w("w", 1, 1);
  w.value.at(0, 0) = 4.0f;
  Sgd sgd({&w}, /*lr=*/0.1f);
  for (int i = 0; i < 100; ++i) {
    w.grad.at(0, 0) = w.value.at(0, 0);
    sgd.Step();
  }
  EXPECT_NEAR(w.value.at(0, 0), 0.0f, 1e-3);
}

TEST(OptimizerTest, SgdMomentumAcceleratesDescent) {
  Parameter a("a", 1, 1), b("b", 1, 1);
  a.value.at(0, 0) = b.value.at(0, 0) = 4.0f;
  Sgd plain({&a}, 0.01f);
  Sgd momentum({&b}, 0.01f, 0.9f);
  for (int i = 0; i < 50; ++i) {
    a.grad.at(0, 0) = a.value.at(0, 0);
    plain.Step();
    b.grad.at(0, 0) = b.value.at(0, 0);
    momentum.Step();
  }
  EXPECT_LT(std::abs(b.value.at(0, 0)), std::abs(a.value.at(0, 0)));
}

TEST(OptimizerTest, AdamDescendsQuadratic) {
  Parameter w("w", 1, 1);
  w.value.at(0, 0) = 4.0f;
  Adam adam({&w}, 0.1f);
  for (int i = 0; i < 300; ++i) {
    w.grad.at(0, 0) = w.value.at(0, 0);
    adam.Step();
  }
  EXPECT_NEAR(w.value.at(0, 0), 0.0f, 1e-2);
}

TEST(OptimizerTest, StepZeroesGradients) {
  Parameter w("w", 2, 2);
  w.grad.Fill(1.0f);
  Adam adam({&w}, 0.01f);
  adam.Step();
  EXPECT_DOUBLE_EQ(w.grad.Norm(), 0.0);
}

TEST(LayersTest, DropoutMaskScalesAndZeroes) {
  Rng rng(6);
  Dropout dropout(0.5);
  Tensor x(10, 10);
  x.Fill(1.0f);
  dropout.Forward(x, /*train=*/true, rng);
  int zeros = 0, scaled = 0;
  for (size_t i = 0; i < x.size(); ++i) {
    if (x.data()[i] == 0.0f) {
      ++zeros;
    } else {
      EXPECT_NEAR(x.data()[i], 2.0f, 1e-6);
      ++scaled;
    }
  }
  EXPECT_GT(zeros, 20);
  EXPECT_GT(scaled, 20);
}

TEST(LayersTest, DropoutInactiveAtEval) {
  Rng rng(7);
  Dropout dropout(0.9);
  Tensor x(4, 4);
  x.Fill(3.0f);
  dropout.Forward(x, /*train=*/false, rng);
  for (size_t i = 0; i < x.size(); ++i) EXPECT_EQ(x.data()[i], 3.0f);
}

TEST(TrainingTest, GcnLearnsCommunityLabels) {
  // End-to-end learnability: a 2-layer GCN must beat random guessing by a
  // wide margin on a planted-partition dataset within a few epochs.
  CommunityGraph cg = GeneratePowerLawCommunity(1500, 4, 15.0, 1.5, 20);
  DatasetOptions options;
  options.feature_dim = 16;
  Dataset ds = MakeCommunityDataset("tiny", std::move(cg), options, 21);

  ModelConfig config;
  config.in_dim = 16;
  config.hidden_dim = 16;
  config.num_classes = ds.num_classes;
  config.dropout = 0.1;
  config.seed = 22;
  Gcn model(config);
  Adam adam(model.Parameters(), 0.01f);
  NeighborSampler sampler = NeighborSampler::WithFanouts({10, 5});
  Rng rng(23);

  for (int epoch = 0; epoch < 5; ++epoch) {
    std::vector<VertexId> order = ds.split.train;
    rng.Shuffle(order);
    for (size_t begin = 0; begin < order.size(); begin += 256) {
      size_t end = std::min(order.size(), begin + 256);
      std::vector<VertexId> batch(order.begin() + begin,
                                  order.begin() + end);
      SampledSubgraph sg = sampler.Sample(ds.graph, batch, rng);
      Tensor input;
      TransferEngine::Gather(sg.input_vertices(), ds.features, input);
      const Tensor& logits = model.Forward(sg, input, true);
      std::vector<int32_t> labels;
      for (VertexId v : batch) labels.push_back(ds.labels[v]);
      Tensor d_logits;
      SoftmaxCrossEntropy(logits, labels, d_logits);
      model.Backward(sg, d_logits);
      adam.Step();
    }
  }

  // Validation accuracy.
  SampledSubgraph sg = sampler.Sample(ds.graph, ds.split.val, rng);
  Tensor input;
  TransferEngine::Gather(sg.input_vertices(), ds.features, input);
  const Tensor& logits = model.Forward(sg, input, false);
  std::vector<int32_t> preds = ArgmaxRows(logits);
  uint32_t correct = 0;
  for (size_t i = 0; i < ds.split.val.size(); ++i) {
    if (preds[i] == ds.labels[ds.split.val[i]]) ++correct;
  }
  double accuracy =
      static_cast<double>(correct) / ds.split.val.size();
  EXPECT_GT(accuracy, 0.6) << "random guess would be 0.25";
}

}  // namespace
}  // namespace gnndm
