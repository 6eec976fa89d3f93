#include "nn/pooling.hpp"

#include <limits>
#include <stdexcept>

#include "kernels/cnn.hpp"

namespace pdsl::nn {

Shape MaxPool2D::output_shape(const Shape& input) const {
  if (input.size() != 4) {
    throw std::invalid_argument("MaxPool2D: expected 4-D input, got " + shape_to_string(input));
  }
  if (input[2] < 2 || input[3] < 2) {
    throw std::invalid_argument("MaxPool2D: input smaller than window");
  }
  return Shape{input[0], input[1], input[2] / 2, input[3] / 2};
}

namespace {

/// The output shape, after checking that the kernel's 32-bit argmax can
/// index the input.
Shape checked_output_shape(const MaxPool2D& pool, const Tensor& input) {
  Shape out = pool.output_shape(input.shape());
  if (input.numel() > std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument("MaxPool2D: input has 2^32 elements or more");
  }
  return out;
}

/// The pooled values, written over the front of the input's own buffer.
/// With `fit`, the buffer is cut to them: in training the next layer keeps
/// its input for backward, and would otherwise hold all four times the
/// memory until the next step.
Tensor shrink_to(Tensor input, Shape out_shape, bool fit) {
  std::vector<float> data = std::move(input.vec());
  data.resize(shape_numel(out_shape));
  if (fit) data.shrink_to_fit();
  return Tensor(std::move(out_shape), std::move(data));
}

}  // namespace

Tensor MaxPool2D::forward(Tensor input) {
  Shape out_shape = checked_output_shape(*this, input);
  cached_in_shape_ = input.shape();
  // Every slot is written, so only a larger batch than the last one grows
  // (and fills) the argmax buffer.
  argmax_.resize(shape_numel(out_shape));
  kernels::maxpool2x2(input.data(), input.dim(0) * input.dim(1), input.dim(2), input.dim(3),
                      input.data(), argmax_.data());
  return shrink_to(std::move(input), std::move(out_shape), /*fit=*/true);
}

Tensor MaxPool2D::infer_after_relu(Tensor input) {
  Shape out_shape = checked_output_shape(*this, input);
  kernels::relu_maxpool2x2(input.data(), input.dim(0) * input.dim(1), input.dim(2),
                           input.dim(3), input.data());
  return shrink_to(std::move(input), std::move(out_shape), /*fit=*/false);
}

Tensor MaxPool2D::backward(Tensor grad_output) {
  if (grad_output.numel() != argmax_.size()) {
    throw std::invalid_argument("MaxPool2D::backward: grad does not match last forward");
  }
  Tensor grad_input(cached_in_shape_);
  float* gx = grad_input.data();
  const float* gy = grad_output.data();
  for (std::size_t i = 0; i < argmax_.size(); ++i) gx[argmax_[i]] += gy[i];
  return grad_input;
}

std::unique_ptr<Layer> MaxPool2D::clone() const { return std::make_unique<MaxPool2D>(); }

}  // namespace pdsl::nn
