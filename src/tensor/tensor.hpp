#pragma once
// Dense row-major float tensor. This is the numeric substrate for the neural
// network library (S1 in DESIGN.md). It intentionally stays small: shape
// bookkeeping, element access, and a handful of structural operations. The
// heavier kernels (matmul, conv) live in ops.hpp.

#include <cstddef>
#include <initializer_list>
#include <string>
#include <vector>

namespace pdsl {

/// Shape of a tensor; up to 4 dimensions (N, C, H, W) are used by the NN code.
using Shape = std::vector<std::size_t>;

[[nodiscard]] std::size_t shape_numel(const Shape& shape);
[[nodiscard]] std::string shape_to_string(const Shape& shape);

class Tensor {
 public:
  Tensor() = default;
  explicit Tensor(Shape shape, float fill = 0.0f);
  Tensor(Shape shape, std::vector<float> data);

  static Tensor zeros(Shape shape) { return Tensor(std::move(shape), 0.0f); }
  static Tensor ones(Shape shape) { return Tensor(std::move(shape), 1.0f); }
  /// 1-D tensor from values.
  static Tensor from(std::initializer_list<float> values);

  [[nodiscard]] const Shape& shape() const { return shape_; }
  [[nodiscard]] std::size_t rank() const { return shape_.size(); }
  [[nodiscard]] std::size_t numel() const { return data_.size(); }
  [[nodiscard]] std::size_t dim(std::size_t i) const;

  [[nodiscard]] float* data() { return data_.data(); }
  [[nodiscard]] const float* data() const { return data_.data(); }
  [[nodiscard]] std::vector<float>& vec() { return data_; }
  [[nodiscard]] const std::vector<float>& vec() const { return data_; }

  float& operator[](std::size_t i) { return data_[i]; }
  const float& operator[](std::size_t i) const { return data_[i]; }

  /// 2-D access (rows x cols).
  float& at2(std::size_t r, std::size_t c);
  [[nodiscard]] const float& at2(std::size_t r, std::size_t c) const;

  /// 4-D access (n, c, h, w).
  float& at4(std::size_t n, std::size_t c, std::size_t h, std::size_t w);
  [[nodiscard]] const float& at4(std::size_t n, std::size_t c, std::size_t h,
                                 std::size_t w) const;

  /// Reinterpret in place with a new shape of equal numel.
  void reshape(Shape new_shape);

  void fill(float value);
  void zero() { fill(0.0f); }

  /// Elementwise in-place updates.
  Tensor& operator+=(const Tensor& rhs);
  Tensor& operator*=(float s);

  [[nodiscard]] bool same_shape(const Tensor& rhs) const { return shape_ == rhs.shape_; }

 private:
  void check_index_2d(std::size_t r, std::size_t c) const;
  void check_index_4d(std::size_t n, std::size_t c, std::size_t h, std::size_t w) const;

  Shape shape_;
  std::vector<float> data_;
};

}  // namespace pdsl
