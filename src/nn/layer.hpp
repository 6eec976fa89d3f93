#pragma once
// Layer abstraction for the NN substrate (S2). Layers cache whatever they
// need in forward() and consume it in backward(); a Model drives them in
// sequence, moving each tensor from one layer to the next: a layer takes its
// input by value, so it can keep it (Conv2D, Linear) or work in place (ReLU,
// Flatten) without a copy. Parameters are exposed as (value, grad) tensor
// pairs so that the decentralized algorithms can flatten a model into a
// single vector — the representation every algorithm in the paper works with.

#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "tensor/tensor.hpp"

namespace pdsl::nn {

/// A trainable parameter: value and the gradient accumulated by backward().
struct Param {
  Tensor value;
  Tensor grad;

  explicit Param(Shape shape) : value(shape), grad(std::move(shape)) {}
};

class Layer {
 public:
  virtual ~Layer() = default;

  /// Compute the layer output; caches activations needed by backward().
  virtual Tensor forward(Tensor input) = 0;

  /// forward() for inference: the same output bits, but no backward() may
  /// follow, so layers that can skip their caches override it.
  virtual Tensor infer(Tensor input) { return forward(std::move(input)); }

  /// Propagate the loss gradient; accumulates into parameter grads and
  /// returns the gradient w.r.t. the layer input.
  virtual Tensor backward(Tensor grad_output) = 0;

  /// backward() without the input gradient: accumulates parameter grads
  /// only. Model::backward calls it on its lowest parametrized layer, whose
  /// input gradient nothing reads. Layers that can skip work override it.
  virtual void backward_params(const Tensor& grad_output) { (void)backward(grad_output); }

  /// Trainable parameters (empty for stateless layers).
  virtual std::vector<Param*> params() { return {}; }

  /// Initialize parameters (no-op for stateless layers).
  virtual void init(Rng& /*rng*/) {}

  /// Deep copy, including current parameter values.
  [[nodiscard]] virtual std::unique_ptr<Layer> clone() const = 0;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Shape of the output given an input shape (batch dim included).
  [[nodiscard]] virtual Shape output_shape(const Shape& input) const = 0;
};

}  // namespace pdsl::nn
