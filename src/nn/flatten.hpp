#pragma once
// Flatten (N, C, H, W) -> (N, C*H*W), the glue between conv stacks and FC heads.

#include "nn/layer.hpp"

namespace pdsl::nn {

class Flatten final : public Layer {
 public:
  Tensor forward(Tensor input) override;
  Tensor backward(Tensor grad_output) override;
  [[nodiscard]] std::unique_ptr<Layer> clone() const override;
  [[nodiscard]] std::string name() const override { return "Flatten"; }
  [[nodiscard]] Shape output_shape(const Shape& input) const override;

 private:
  Shape cached_in_shape_;
};

}  // namespace pdsl::nn
