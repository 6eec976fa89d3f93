#pragma once
// Numeric kernels on Tensors: matmul, matmul_transpose_a, row argmax and
// softmax. The matmul pair is a shape-checked facade over the S-KER layer
// (src/kernels/gemm.hpp), which owns the naive/blocked backend split; every
// call runs single-threaded on the caller's thread. Convolution
// kernels live inside the Conv2D layer because they need its geometry
// bookkeeping; its blocked path is im2col + the kernels' GEMMs.

#include "tensor/tensor.hpp"

namespace pdsl {

/// C = A(MxK) * B(KxN)
Tensor matmul(const Tensor& a, const Tensor& b);

/// C = A^T(MxK->KxM... ) i.e. C(KxN) = A(MxK)^T * B(MxN)
Tensor matmul_transpose_a(const Tensor& a, const Tensor& b);

/// Row-wise softmax of a 2-D tensor (numerically stabilized).
Tensor softmax_rows(const Tensor& logits);

/// Index of the max element in row r of a 2-D tensor.
std::size_t argmax_row(const Tensor& t, std::size_t r);

}  // namespace pdsl
