#pragma once
// Sequential model over Layers plus the flat-parameter view that the
// decentralized algorithms use: a model is, to an algorithm, the vector
// x in R^d from the paper; set_flat_params/flat_grad convert between views.

#include <memory>
#include <vector>

#include "nn/layer.hpp"
#include "nn/loss.hpp"

namespace pdsl::nn {

class Model {
 public:
  Model() = default;
  Model(const Model& other);
  Model& operator=(const Model& other);
  Model(Model&&) noexcept = default;
  Model& operator=(Model&&) noexcept = default;

  /// Append a layer; returns *this for chaining.
  Model& add(std::unique_ptr<Layer> layer);

  template <typename L, typename... Args>
  Model& emplace(Args&&... args) {
    return add(std::make_unique<L>(std::forward<Args>(args)...));
  }

  /// Initialize every layer's parameters.
  void init(Rng& rng);

  /// Forward pass through all layers, keeping what backward() reads. The
  /// caller's tensor is copied once; from there each layer's output moves
  /// into the next layer.
  Tensor forward(const Tensor& input);

  /// Inference pass through layers first.. only: `input` is what layer
  /// `first` takes (layer first-1's output). The output bits of forward(),
  /// but no layer keeps a backward cache, and a ReLU followed by a
  /// MaxPool2D runs as one pass (MaxPool2D::infer_after_relu). backward()
  /// must not follow it.
  Tensor infer_from(std::size_t first, Tensor input);

  /// Backward pass; accumulates parameter gradients. Stops at the lowest
  /// layer with parameters: the model's own input gradient is not computed.
  void backward(Tensor grad_output);

  void zero_grad();

  /// ----- flat parameter view -----
  [[nodiscard]] std::size_t num_params() const;
  [[nodiscard]] std::vector<float> flat_params() const;
  void set_flat_params(const std::vector<float>& flat);
  [[nodiscard]] std::vector<float> flat_grad() const;

  /// ----- convenience training/eval entry points -----

  /// Zeroes grads, runs forward + loss + backward; returns the mean loss.
  double loss_and_backward(const Tensor& batch_x, const std::vector<int>& batch_y);

  /// Mean loss without touching gradients.
  double loss(const Tensor& batch_x, const std::vector<int>& batch_y);

  /// Classification accuracy on a batch.
  double accuracy(const Tensor& batch_x, const std::vector<int>& batch_y);

  /// Per-sample losses on a batch (for membership-inference evaluation).
  std::vector<double> per_sample_losses(const Tensor& batch_x, const std::vector<int>& batch_y);

  [[nodiscard]] std::size_t num_layers() const { return layers_.size(); }
  [[nodiscard]] const Layer& layer(std::size_t i) const { return *layers_[i]; }

 private:
  std::vector<Param*> all_params();
  [[nodiscard]] std::vector<const Param*> all_params() const;

  std::vector<std::unique_ptr<Layer>> layers_;
  SoftmaxCrossEntropy loss_;
};

}  // namespace pdsl::nn
