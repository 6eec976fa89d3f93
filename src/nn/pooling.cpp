#include "nn/pooling.hpp"

#include <bit>
#include <cstdint>
#include <stdexcept>

namespace pdsl::nn {

namespace {

/// best, at = v, idx if v > best. Masks rather than a ternary, which the
/// compiler turns back into a branch: on conv activations each compare is
/// close to a coin flip.
inline void take_if_greater(float v, std::size_t idx, float& best, std::size_t& at) {
  const auto gt = static_cast<std::uint32_t>(v > best);
  const std::uint32_t keep_v = 0u - gt;
  best = std::bit_cast<float>((std::bit_cast<std::uint32_t>(v) & keep_v) |
                              (std::bit_cast<std::uint32_t>(best) & ~keep_v));
  at += (idx - at) & (std::size_t{0} - gt);
}

}  // namespace

MaxPool2D::MaxPool2D(std::size_t window) : win_(window) {
  if (window == 0) throw std::invalid_argument("MaxPool2D: window must be positive");
}

Shape MaxPool2D::output_shape(const Shape& input) const {
  if (input.size() != 4) {
    throw std::invalid_argument("MaxPool2D: expected 4-D input, got " + shape_to_string(input));
  }
  if (input[2] < win_ || input[3] < win_) {
    throw std::invalid_argument("MaxPool2D: input smaller than window");
  }
  return Shape{input[0], input[1], input[2] / win_, input[3] / win_};
}

Tensor MaxPool2D::forward(Tensor input) {
  const Shape out_shape = output_shape(input.shape());
  cached_in_shape_ = input.shape();
  Tensor out(out_shape);
  // Every slot is written below, so only a larger batch than the last one
  // grows (and fills) the argmax buffer.
  argmax_.resize(out.numel());
  const std::size_t n = input.dim(0), ch = input.dim(1), ih = input.dim(2), iw = input.dim(3);
  const std::size_t oh = out_shape[2], ow = out_shape[3];
  const float* x = input.data();
  float* y = out.data();
  std::size_t* arg = argmax_.data();
  std::size_t oi = 0;
  if (win_ == 2) {
    // Fast path for the 2x2 window every model in the zoo uses: the four
    // candidates are compared in the same (dr, dc) order as the generic loop
    // with the same strict `>`, so results and argmax ties are bit-identical.
    // Each window starts from its first element, so any finite or infinite
    // maximum is found; a NaN first element wins the window (no `x > NaN`
    // holds), a NaN elsewhere never does.
    for (std::size_t b = 0; b < n; ++b) {
      for (std::size_t c = 0; c < ch; ++c) {
        const std::size_t plane = (b * ch + c) * ih * iw;
        for (std::size_t r = 0; r < oh; ++r) {
          const float* row0 = x + plane + (2 * r) * iw;
          const float* row1 = row0 + iw;
          const std::size_t base = plane + (2 * r) * iw;
          for (std::size_t col = 0; col < ow; ++col, ++oi) {
            const std::size_t c0 = 2 * col;
            float best = row0[c0];
            std::size_t at = base + c0;
            take_if_greater(row0[c0 + 1], base + c0 + 1, best, at);
            take_if_greater(row1[c0], base + iw + c0, best, at);
            take_if_greater(row1[c0 + 1], base + iw + c0 + 1, best, at);
            y[oi] = best;
            arg[oi] = at;
          }
        }
      }
    }
    return out;
  }
  for (std::size_t b = 0; b < n; ++b) {
    for (std::size_t c = 0; c < ch; ++c) {
      const std::size_t plane = (b * ch + c) * ih * iw;
      for (std::size_t r = 0; r < oh; ++r) {
        for (std::size_t col = 0; col < ow; ++col, ++oi) {
          std::size_t best_idx = plane + (r * win_) * iw + col * win_;
          float best = x[best_idx];
          for (std::size_t dr = 0; dr < win_; ++dr) {
            for (std::size_t dc = 0; dc < win_; ++dc) {
              const std::size_t idx = plane + (r * win_ + dr) * iw + (col * win_ + dc);
              if (x[idx] > best) {
                best = x[idx];
                best_idx = idx;
              }
            }
          }
          y[oi] = best;
          argmax_[oi] = best_idx;
        }
      }
    }
  }
  return out;
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

std::unique_ptr<Layer> MaxPool2D::clone() const { return std::make_unique<MaxPool2D>(win_); }

}  // namespace pdsl::nn
