#pragma once
// 2x2 max pooling with stride 2, as in the paper's CNNs. Stores each
// window's argmax for the backward pass. Both forms run kernels::maxpool2x2
// (or its ReLU-fused inference form) in place on the input's buffer.

#include <cstdint>

#include "nn/layer.hpp"

namespace pdsl::nn {

class MaxPool2D final : public Layer {
 public:
  Tensor forward(Tensor input) override;
  Tensor backward(Tensor grad_output) override;
  /// ReLU followed by this pool, for inference: the bits of ReLU::forward
  /// then forward(), in one pass, without the argmax.
  Tensor infer_after_relu(Tensor input);
  [[nodiscard]] std::unique_ptr<Layer> clone() const override;
  [[nodiscard]] std::string name() const override { return "MaxPool2D"; }
  [[nodiscard]] Shape output_shape(const Shape& input) const override;

 private:
  Shape cached_in_shape_;
  std::vector<std::uint32_t> argmax_;  // flat input index per output element
};

}  // namespace pdsl::nn
