#include "tensor/tensor.hpp"

#include <numeric>
#include <stdexcept>

namespace pdsl {

std::size_t shape_numel(const Shape& shape) {
  return std::accumulate(shape.begin(), shape.end(), std::size_t{1},
                         [](std::size_t a, std::size_t b) { return a * b; });
}

std::string shape_to_string(const Shape& shape) {
  std::string s = "[";
  for (std::size_t i = 0; i < shape.size(); ++i) {
    if (i) s += ", ";
    s += std::to_string(shape[i]);
  }
  return s + "]";
}

Tensor::Tensor(Shape shape, float fill)
    : shape_(std::move(shape)), data_(shape_numel(shape_), fill) {}

Tensor::Tensor(Shape shape, std::vector<float> data)
    : shape_(std::move(shape)), data_(std::move(data)) {
  if (data_.size() != shape_numel(shape_)) {
    throw std::invalid_argument("Tensor: data size " + std::to_string(data_.size()) +
                                " does not match shape " + shape_to_string(shape_));
  }
}

Tensor Tensor::from(std::initializer_list<float> values) {
  return Tensor(Shape{values.size()}, std::vector<float>(values));
}

std::size_t Tensor::dim(std::size_t i) const {
  if (i >= shape_.size()) throw std::out_of_range("Tensor::dim: axis out of range");
  return shape_[i];
}

void Tensor::check_index_2d(std::size_t r, std::size_t c) const {
  if (rank() != 2 || r >= shape_[0] || c >= shape_[1]) {
    throw std::out_of_range("Tensor::at2: bad index for shape " + shape_to_string(shape_));
  }
}

void Tensor::check_index_4d(std::size_t n, std::size_t c, std::size_t h, std::size_t w) const {
  if (rank() != 4 || n >= shape_[0] || c >= shape_[1] || h >= shape_[2] || w >= shape_[3]) {
    throw std::out_of_range("Tensor::at4: bad index for shape " + shape_to_string(shape_));
  }
}

float& Tensor::at2(std::size_t r, std::size_t c) {
  check_index_2d(r, c);
  return data_[r * shape_[1] + c];
}

const float& Tensor::at2(std::size_t r, std::size_t c) const {
  check_index_2d(r, c);
  return data_[r * shape_[1] + c];
}

float& Tensor::at4(std::size_t n, std::size_t c, std::size_t h, std::size_t w) {
  check_index_4d(n, c, h, w);
  return data_[((n * shape_[1] + c) * shape_[2] + h) * shape_[3] + w];
}

const float& Tensor::at4(std::size_t n, std::size_t c, std::size_t h, std::size_t w) const {
  check_index_4d(n, c, h, w);
  return data_[((n * shape_[1] + c) * shape_[2] + h) * shape_[3] + w];
}

void Tensor::reshape(Shape new_shape) {
  if (shape_numel(new_shape) != numel()) {
    throw std::invalid_argument("Tensor::reshape: numel mismatch " + shape_to_string(shape_) +
                                " -> " + shape_to_string(new_shape));
  }
  shape_ = std::move(new_shape);
}

void Tensor::fill(float value) { std::fill(data_.begin(), data_.end(), value); }

Tensor& Tensor::operator+=(const Tensor& rhs) {
  if (!same_shape(rhs)) throw std::invalid_argument("Tensor+=: shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += rhs.data_[i];
  return *this;
}

Tensor& Tensor::operator*=(float s) {
  for (auto& v : data_) v *= s;
  return *this;
}

}  // namespace pdsl
