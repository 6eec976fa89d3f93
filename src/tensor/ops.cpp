#include "tensor/ops.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "kernels/gemm.hpp"

namespace pdsl {

namespace {
void require_2d(const Tensor& t, const char* what) {
  if (t.rank() != 2) throw std::invalid_argument(std::string(what) + ": tensor must be 2-D");
}
}  // namespace

// The matmul family validates shapes here and delegates the math to the
// S-KER layer (src/kernels/), which dispatches on the selected backend. The
// former in-place loops had `av == 0.0f` skip shortcuts that silently dropped
// NaN/Inf propagation from the other operand; the kernel paths have no such
// shortcut on either backend.

Tensor matmul(const Tensor& a, const Tensor& b) {
  require_2d(a, "matmul");
  require_2d(b, "matmul");
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  if (b.dim(0) != k) throw std::invalid_argument("matmul: inner dimension mismatch");
  Tensor c(Shape{m, n});
  kernels::sgemm(m, k, n, a.data(), b.data(), c.data());
  return c;
}

Tensor matmul_transpose_a(const Tensor& a, const Tensor& b) {
  require_2d(a, "matmul_transpose_a");
  require_2d(b, "matmul_transpose_a");
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  if (b.dim(0) != m) throw std::invalid_argument("matmul_transpose_a: dimension mismatch");
  Tensor c(Shape{k, n});
  kernels::sgemm_transpose_a(m, k, n, a.data(), b.data(), c.data());
  return c;
}

Tensor softmax_rows(const Tensor& logits) {
  require_2d(logits, "softmax_rows");
  const std::size_t rows = logits.dim(0), cols = logits.dim(1);
  Tensor out(Shape{rows, cols});
  for (std::size_t r = 0; r < rows; ++r) {
    const float* in = logits.data() + r * cols;
    float* o = out.data() + r * cols;
    const float mx = *std::max_element(in, in + cols);
    double total = 0.0;
    for (std::size_t c = 0; c < cols; ++c) {
      o[c] = std::exp(in[c] - mx);
      total += o[c];
    }
    const auto inv = static_cast<float>(1.0 / total);
    for (std::size_t c = 0; c < cols; ++c) o[c] *= inv;
  }
  return out;
}

std::size_t argmax_row(const Tensor& t, std::size_t r) {
  require_2d(t, "argmax_row");
  const std::size_t cols = t.dim(1);
  const float* row = t.data() + r * cols;
  return static_cast<std::size_t>(std::max_element(row, row + cols) - row);
}

}  // namespace pdsl
