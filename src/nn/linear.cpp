#include "nn/linear.hpp"

#include <cmath>
#include <stdexcept>

#include "kernels/gemm.hpp"
#include "tensor/ops.hpp"

namespace pdsl::nn {

Linear::Linear(std::size_t in_features, std::size_t out_features)
    : in_(in_features),
      out_(out_features),
      weight_(Shape{out_features, in_features}),
      bias_(Shape{out_features}) {}

void Linear::init(Rng& rng) {
  // He initialization: appropriate for the ReLU networks used throughout.
  const double stddev = std::sqrt(2.0 / static_cast<double>(in_));
  rng.fill_normal(weight_.value.vec(), 0.0, stddev);
  bias_.value.zero();
}

Shape Linear::output_shape(const Shape& input) const {
  if (input.size() != 2 || input[1] != in_) {
    throw std::invalid_argument("Linear: expected (N, " + std::to_string(in_) + "), got " +
                                shape_to_string(input));
  }
  return Shape{input[0], out_};
}

Tensor Linear::forward(Tensor input) {
  Tensor out = apply(input);
  cached_input_ = std::move(input);
  return out;
}

Tensor Linear::infer(Tensor input) { return apply(input); }

Tensor Linear::apply(const Tensor& input) const {
  (void)output_shape(input.shape());  // validates
  // Build every output row as the bias (no zero-fill first), then let the
  // GEMM accumulate X(N,in) * W(out,in)^T on top.
  const std::size_t n = input.dim(0);
  std::vector<float> out;
  out.reserve(n * out_);
  for (std::size_t r = 0; r < n; ++r) {
    out.insert(out.end(), bias_.value.vec().begin(), bias_.value.vec().end());
  }
  kernels::sgemm_transpose_b(n, in_, out_, input.data(), weight_.value.data(), out.data(),
                             /*accumulate=*/true);
  return Tensor(Shape{n, out_}, std::move(out));
}

Tensor Linear::backward(Tensor grad_output) {
  backward_params(grad_output);
  return matmul(grad_output, weight_.value);
}

void Linear::backward_params(const Tensor& grad_output) {
  if (grad_output.rank() != 2 || grad_output.dim(1) != out_) {
    throw std::invalid_argument("Linear::backward: bad grad shape");
  }
  // dW += dY^T X ; db += column sums of dY (backward adds dX = dY W). The
  // weight gradient accumulates straight into the param buffer — no (out,in)
  // temporary.
  const std::size_t n = grad_output.dim(0);
  kernels::sgemm_transpose_a(n, out_, in_, grad_output.data(), cached_input_.data(),
                             weight_.grad.data(), /*accumulate=*/true);
  for (std::size_t r = 0; r < n; ++r) {
    const float* row = grad_output.data() + r * out_;
    for (std::size_t c = 0; c < out_; ++c) bias_.grad[c] += row[c];
  }
}

std::unique_ptr<Layer> Linear::clone() const {
  auto copy = std::make_unique<Linear>(in_, out_);
  copy->weight_.value = weight_.value;
  copy->bias_.value = bias_.value;
  return copy;
}

}  // namespace pdsl::nn
