#ifndef GNNDM_NN_LAYERS_H_
#define GNNDM_NN_LAYERS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "nn/parameter.h"
#include "sampling/sampled_subgraph.h"
#include "tensor/tensor.h"

namespace gnndm {

/// Fully connected layer: y = x W + b, with optional ReLU fused in.
/// Forward caches its input and activation; Backward must follow the
/// matching Forward (single-use-per-step discipline, as in a tape).
class Linear {
 public:
  Linear(std::string name, size_t in_dim, size_t out_dim, bool relu,
         Rng& rng);

  /// Computes the layer output for `x` [n x in_dim].
  const Tensor& Forward(const Tensor& x);

  /// Given dLoss/dOutput, accumulates weight grads and returns
  /// dLoss/dInput. With `input_grad` false the input gradient is not
  /// computed and an empty tensor is returned: a model's first layer
  /// reads the gathered feature block, which has nothing upstream to
  /// train.
  Tensor Backward(const Tensor& d_out, bool input_grad);

  std::vector<Parameter*> Parameters() { return {&weight_, &bias_}; }
  size_t in_dim() const { return weight_.value.rows(); }
  size_t out_dim() const { return weight_.value.cols(); }

 private:
  Parameter weight_;  // [in x out]
  Parameter bias_;    // [1 x out]
  bool relu_;
  Tensor input_cache_;
  Tensor output_;
};

/// Graph convolution (Eq. 1 + Eq. 2 with mean aggregation and self loop):
///   h_dst = act( mean(h_src over N(dst) ∪ {dst}) · W + b ).
class GcnConv {
 public:
  GcnConv(std::string name, size_t in_dim, size_t out_dim, bool relu,
          Rng& rng);

  /// `src` is [layer.num_src x in_dim]; returns [layer.num_dst x out_dim].
  const Tensor& Forward(const SampleLayer& layer, const Tensor& src);

  /// Accumulates the parameter gradients and returns dLoss/dSrc
  /// [num_src x in_dim], or an empty tensor when `input_grad` is false
  /// (see Linear::Backward).
  Tensor Backward(const SampleLayer& layer, const Tensor& d_out,
                  bool input_grad);

  std::vector<Parameter*> Parameters() { return {&weight_, &bias_}; }

 private:
  Parameter weight_;
  Parameter bias_;
  bool relu_;
  Tensor agg_cache_;  // aggregated inputs, for dW
  Tensor output_;
};

/// GraphSAGE-mean convolution:
///   h_dst = act( h_dst · W_self + mean(h_src over N(dst)) · W_neigh + b ).
/// Uses the invariant that destination i's own features are src row i.
class SageConv {
 public:
  SageConv(std::string name, size_t in_dim, size_t out_dim, bool relu,
           Rng& rng);

  const Tensor& Forward(const SampleLayer& layer, const Tensor& src);
  /// Same contract as GcnConv::Backward.
  Tensor Backward(const SampleLayer& layer, const Tensor& d_out,
                  bool input_grad);

  std::vector<Parameter*> Parameters() {
    return {&weight_self_, &weight_neigh_, &bias_};
  }

 private:
  Parameter weight_self_;
  Parameter weight_neigh_;
  Parameter bias_;
  bool relu_;
  Tensor self_cache_;
  Tensor agg_cache_;
  Tensor output_;
};

/// Inverted dropout: active only when Forward is called with train=true.
class Dropout {
 public:
  explicit Dropout(double rate) : rate_(rate) {}

  /// Applies the mask in place when training; identity otherwise.
  void Forward(Tensor& x, bool train, Rng& rng);
  /// Applies the same mask to the gradient in place.
  void Backward(Tensor& d_x) const;

 private:
  double rate_;
  std::vector<uint8_t> mask_;
  bool active_ = false;
};

}  // namespace gnndm

#endif  // GNNDM_NN_LAYERS_H_
