#include "nn/activations.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <stdexcept>

namespace pdsl::nn {

// Both directions are select loops with no per-element branch: on conv
// outputs the sign of x is close to a coin flip, so a branch per element
// mispredicts about half the time. The mask keeps one bit per element (x > 0),
// packed 64 to a word; full words are packed and applied 4 floats at a time
// with GCC's portable vector extension, the ragged last word one float at a
// time.

namespace {

typedef float f4 __attribute__((vector_size(16)));
typedef std::int32_t i4 __attribute__((vector_size(16)));

/// v if keep, else +0.0f. A bitwise AND rather than a ternary, which the
/// compiler may turn back into a branch around a store.
inline float keep_or_zero(float v, bool keep) {
  const std::uint32_t all = 0u - static_cast<std::uint32_t>(keep);
  return std::bit_cast<float>(std::bit_cast<std::uint32_t>(v) & all);
}

/// Bit b (b < 16) set iff p[b] > 0.
inline std::uint64_t positive_bits16(const float* p) {
  i4 bits = {};
  for (int q = 0; q < 4; ++q) {
    f4 v;
    __builtin_memcpy(&v, p + 4 * q, sizeof(v));
    const i4 lane_bit = {1 << (4 * q), 2 << (4 * q), 4 << (4 * q), 8 << (4 * q)};
    bits |= (v > f4{}) & lane_bit;
  }
  return static_cast<std::uint32_t>(bits[0] | bits[1] | bits[2] | bits[3]);
}

/// Zeroes p[b] (b < 16) where bit b of `bits` is clear.
inline void keep_bits16(float* p, std::uint64_t bits) {
  for (int q = 0; q < 4; ++q) {
    const auto nibble = static_cast<std::int32_t>((bits >> (4 * q)) & 15u);
    const i4 keep = (i4{nibble, nibble, nibble, nibble} & i4{1, 2, 4, 8}) != 0;
    i4 v;
    __builtin_memcpy(&v, p + 4 * q, sizeof(v));
    v &= keep;
    __builtin_memcpy(p + 4 * q, &v, sizeof(v));
  }
}

}  // namespace

// Both directions work in place on the tensor they were handed.
Tensor ReLU::infer(Tensor input) {
  float* y = input.data();
  // NaN and -0 both fail x > 0 and become +0.
  for (std::size_t i = 0; i < input.numel(); ++i) y[i] = keep_or_zero(y[i], y[i] > 0.0f);
  return input;
}

Tensor ReLU::forward(Tensor input) {
  input = infer(std::move(input));
  const std::size_t n = input.numel();
  const float* y = input.data();
  mask_len_ = n;
  mask_.resize((n + 63) / 64);
  for (std::size_t w = 0; w < mask_.size(); ++w) {
    const float* yw = y + 64 * w;
    const std::size_t len = std::min<std::size_t>(64, n - 64 * w);
    std::uint64_t bits = 0;
    if (len == 64) {
      for (std::size_t s = 0; s < 4; ++s) bits |= positive_bits16(yw + 16 * s) << (16 * s);
    } else {
      for (std::size_t b = 0; b < len; ++b) {
        bits |= static_cast<std::uint64_t>(yw[b] > 0.0f) << b;
      }
    }
    mask_[w] = bits;
  }
  return input;
}

Tensor ReLU::backward(Tensor grad_output) {
  if (grad_output.numel() != mask_len_) {
    throw std::invalid_argument("ReLU::backward: grad does not match last forward");
  }
  float* g = grad_output.data();
  for (std::size_t w = 0; w < mask_.size(); ++w) {
    float* gw = g + 64 * w;
    const std::size_t len = std::min<std::size_t>(64, mask_len_ - 64 * w);
    const std::uint64_t bits = mask_[w];
    if (len == 64) {
      for (std::size_t s = 0; s < 4; ++s) keep_bits16(gw + 16 * s, bits >> (16 * s));
    } else {
      for (std::size_t b = 0; b < len; ++b) gw[b] = keep_or_zero(gw[b], (bits >> b) & 1u);
    }
  }
  return grad_output;
}

std::unique_ptr<Layer> ReLU::clone() const { return std::make_unique<ReLU>(); }

}  // namespace pdsl::nn
