#pragma once
// The CNN layer kernels beside the GEMMs: the 2x2 max-pool (MaxPool2D) and
// the direct convolution forward (Conv2D on the blocked backend). Like the
// blocked GEMM tiles they are compiled once per ISA level and dispatched by
// kernels::isa() (gemm.cpp, cnn_clone.inc), and every level gives the same
// bits. Each call runs single-threaded; conv2d_forward's scratch is
// thread_local, so concurrent agents may call them.

#include <cstddef>
#include <cstdint>

namespace pdsl::kernels {

/// 2x2 max-pool with stride 2 over `planes` planes of ih x iw floats into
/// y(planes, ih / 2, iw / 2): each window's first element, replaced by each
/// later one (row-major order) that compares strictly greater, so the first
/// of equal maxima wins, a NaN first element wins and a later NaN never
/// does. arg gets the flat index into x of each winner; x must hold fewer
/// than 2^32 floats. y may equal x.
void maxpool2x2(const float* x, std::size_t planes, std::size_t ih, std::size_t iw, float* y,
                std::uint32_t* arg);

/// maxpool2x2's values over relu(x), where relu(v) = v > 0 ? v : +0 (NaN
/// and -0 become +0), without the argmax: bit for bit what applying relu to
/// every element and then maxpool2x2 gives. y may equal x.
void relu_maxpool2x2(const float* x, std::size_t planes, std::size_t ih, std::size_t iw,
                     float* y);

/// y(n, out_ch, oh, ow) = conv(x(n, in_ch, ih, iw), w(out_ch, in_ch, k, k)) +
/// bias, stride 1, `pad` zeros on each side (oh = ih + 2 pad - k + 1). Every
/// output has the chain of im2col + sgemm seeded with the bias, bit for bit:
/// bias, then + w * x over (ic, ky, kx) ascending, padded zeros included.
void conv2d_forward(const float* x, std::size_t n, std::size_t in_ch, std::size_t ih,
                    std::size_t iw, const float* w, const float* bias, std::size_t out_ch,
                    std::size_t k, std::size_t pad, float* y);

}  // namespace pdsl::kernels
