#pragma once
// 2x2 (configurable) max pooling with stride equal to the window size, as in
// the paper's CNNs. Stores argmax indices for the backward pass.

#include "nn/layer.hpp"

namespace pdsl::nn {

class MaxPool2D final : public Layer {
 public:
  explicit MaxPool2D(std::size_t window = 2);

  Tensor forward(Tensor input) override;
  Tensor backward(Tensor grad_output) override;
  [[nodiscard]] std::unique_ptr<Layer> clone() const override;
  [[nodiscard]] std::string name() const override { return "MaxPool2D"; }
  [[nodiscard]] Shape output_shape(const Shape& input) const override;

 private:
  std::size_t win_;
  Shape cached_in_shape_;
  std::vector<std::size_t> argmax_;  // flat input index per output element
};

}  // namespace pdsl::nn
