#include "nn/flatten.hpp"

#include <stdexcept>

namespace pdsl::nn {

Shape Flatten::output_shape(const Shape& input) const {
  if (input.empty()) throw std::invalid_argument("Flatten: empty shape");
  std::size_t rest = 1;
  for (std::size_t i = 1; i < input.size(); ++i) rest *= input[i];
  return Shape{input[0], rest};
}

// Both directions reshape in place: the data never moves.
Tensor Flatten::forward(Tensor input) {
  cached_in_shape_ = input.shape();
  input.reshape(output_shape(cached_in_shape_));
  return input;
}

Tensor Flatten::backward(Tensor grad_output) {
  grad_output.reshape(cached_in_shape_);
  return grad_output;
}

std::unique_ptr<Layer> Flatten::clone() const { return std::make_unique<Flatten>(); }

}  // namespace pdsl::nn
