#pragma once
// Fully connected layer: y = x W^T + b, x is (N, in), W is (out, in).

#include "nn/layer.hpp"

namespace pdsl::nn {

class Linear final : public Layer {
 public:
  Linear(std::size_t in_features, std::size_t out_features);

  Tensor forward(Tensor input) override;
  /// forward() without keeping the input for backward().
  Tensor infer(Tensor input) override;
  Tensor backward(Tensor grad_output) override;
  void backward_params(const Tensor& grad_output) override;
  std::vector<Param*> params() override { return {&weight_, &bias_}; }
  void init(Rng& rng) override;
  [[nodiscard]] std::unique_ptr<Layer> clone() const override;
  [[nodiscard]] std::string name() const override { return "Linear"; }
  [[nodiscard]] Shape output_shape(const Shape& input) const override;

  [[nodiscard]] std::size_t in_features() const { return in_; }
  [[nodiscard]] std::size_t out_features() const { return out_; }
  Param& weight() { return weight_; }
  Param& bias() { return bias_; }

 private:
  [[nodiscard]] Tensor apply(const Tensor& input) const;


  std::size_t in_;
  std::size_t out_;
  Param weight_;
  Param bias_;
  Tensor cached_input_;
};

}  // namespace pdsl::nn
