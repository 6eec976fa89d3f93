#pragma once
// 2-D convolution (stride 1, symmetric zero padding). Two implementations,
// selected by kernels::backend(): the blocked path runs the forward as
// kernels::conv2d_forward (a direct convolution over a zero-padded copy of
// each image, bit-identical to an im2col + sgemm lowering) and the backward
// by lowering each image to an im2col column matrix held in a per-layer
// scratch arena and running the S-KER GEMMs (weight gradient, input gradient
// via col2im); the naive path keeps the original direct six-loop form as a
// differential-testing reference. Both paths agree to rounding error (the
// reductions associate differently); each path is deterministic at every
// --threads width.

#include "kernels/im2col.hpp"
#include "nn/layer.hpp"

namespace pdsl::nn {

class Conv2D final : public Layer {
 public:
  /// kernel: square kernel size; pad: zero padding on each side.
  Conv2D(std::size_t in_channels, std::size_t out_channels, std::size_t kernel,
         std::size_t pad = 0);

  Tensor forward(Tensor input) override;
  /// forward() without keeping the input for backward().
  Tensor infer(Tensor input) override;
  Tensor backward(Tensor grad_output) override;
  void backward_params(const Tensor& grad_output) override;
  std::vector<Param*> params() override { return {&weight_, &bias_}; }
  void init(Rng& rng) override;
  [[nodiscard]] std::unique_ptr<Layer> clone() const override;
  [[nodiscard]] std::string name() const override { return "Conv2D"; }
  [[nodiscard]] Shape output_shape(const Shape& input) const override;

  [[nodiscard]] std::size_t in_channels() const { return in_ch_; }
  [[nodiscard]] std::size_t out_channels() const { return out_ch_; }
  [[nodiscard]] std::size_t kernel() const { return k_; }
  [[nodiscard]] std::size_t pad() const { return pad_; }

 private:
  /// The output on the current backend.
  [[nodiscard]] Tensor apply(const Tensor& input) const;
  [[nodiscard]] Tensor forward_direct(const Tensor& input, const Shape& out_shape) const;
  // The backward paths write the input gradient to gx (zero-filled, the
  // input's shape) or, when gx is null, accumulate parameter grads only.
  void backward_into(const Tensor& grad_output, float* gx);
  void backward_direct(const Tensor& grad_output, const Shape& out_shape, float* gx);
  void backward_im2col(const Tensor& grad_output, const Shape& out_shape, float* gx);

  std::size_t in_ch_;
  std::size_t out_ch_;
  std::size_t k_;
  std::size_t pad_;
  Param weight_;  // (out_ch, in_ch, k, k)
  Param bias_;    // (out_ch)
  Tensor cached_input_;
  // Scratch for the im2col backward (slot 0: column matrix, slot 1: column
  // gradient). Grow-only and reused across batches; never cloned — a fresh
  // layer starts with an empty arena and grows it on first use.
  kernels::Arena scratch_;
};

}  // namespace pdsl::nn
