#pragma once
// The ReLU activation layer, the only activation the paper's models use.

#include <cstdint>

#include "nn/layer.hpp"

namespace pdsl::nn {

class ReLU final : public Layer {
 public:
  Tensor forward(Tensor input) override;
  /// forward() without the mask backward() reads.
  Tensor infer(Tensor input) override;
  Tensor backward(Tensor grad_output) override;
  [[nodiscard]] std::unique_ptr<Layer> clone() const override;
  [[nodiscard]] std::string name() const override { return "ReLU"; }
  [[nodiscard]] Shape output_shape(const Shape& input) const override { return input; }

 private:
  std::vector<std::uint64_t> mask_;  // bit i of word w: element 64w + i was > 0
  std::size_t mask_len_ = 0;         // elements in the last forward
};

}  // namespace pdsl::nn
