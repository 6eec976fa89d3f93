#include "nn/conv2d.hpp"

#include <cmath>
#include <stdexcept>

#include "kernels/backend.hpp"
#include "kernels/cnn.hpp"
#include "kernels/gemm.hpp"

namespace pdsl::nn {

Conv2D::Conv2D(std::size_t in_channels, std::size_t out_channels, std::size_t kernel,
               std::size_t pad)
    : in_ch_(in_channels),
      out_ch_(out_channels),
      k_(kernel),
      pad_(pad),
      weight_(Shape{out_channels, in_channels, kernel, kernel}),
      bias_(Shape{out_channels}) {
  if (kernel == 0) throw std::invalid_argument("Conv2D: kernel must be positive");
}

void Conv2D::init(Rng& rng) {
  const double fan_in = static_cast<double>(in_ch_ * k_ * k_);
  rng.fill_normal(weight_.value.vec(), 0.0, std::sqrt(2.0 / fan_in));
  bias_.value.zero();
}

Shape Conv2D::output_shape(const Shape& input) const {
  if (input.size() != 4 || input[1] != in_ch_) {
    throw std::invalid_argument("Conv2D: expected (N, " + std::to_string(in_ch_) +
                                ", H, W), got " + shape_to_string(input));
  }
  const std::size_t h = input[2] + 2 * pad_;
  const std::size_t w = input[3] + 2 * pad_;
  if (h < k_ || w < k_) throw std::invalid_argument("Conv2D: input smaller than kernel");
  return Shape{input[0], out_ch_, h - k_ + 1, w - k_ + 1};
}

Tensor Conv2D::forward(Tensor input) {
  Tensor out = apply(input);
  cached_input_ = std::move(input);
  return out;
}

Tensor Conv2D::infer(Tensor input) { return apply(input); }

Tensor Conv2D::apply(const Tensor& input) const {
  const Shape out_shape = output_shape(input.shape());
  if (kernels::backend() != kernels::Backend::kBlocked) return forward_direct(input, out_shape);
  Tensor out(out_shape);
  kernels::conv2d_forward(input.data(), input.dim(0), in_ch_, input.dim(2), input.dim(3),
                          weight_.value.data(), bias_.value.data(), out_ch_, k_, pad_,
                          out.data());
  return out;
}

Tensor Conv2D::backward(Tensor grad_output) {
  Tensor grad_input(cached_input_.shape());
  backward_into(grad_output, grad_input.data());
  return grad_input;
}

void Conv2D::backward_params(const Tensor& grad_output) { backward_into(grad_output, nullptr); }

void Conv2D::backward_into(const Tensor& grad_output, float* gx) {
  const Shape out_shape = output_shape(cached_input_.shape());
  if (grad_output.shape() != out_shape) {
    throw std::invalid_argument("Conv2D::backward: bad grad shape");
  }
  if (kernels::backend() == kernels::Backend::kBlocked) {
    backward_im2col(grad_output, out_shape, gx);
  } else {
    backward_direct(grad_output, out_shape, gx);
  }
}

// ---------------------------------------------------------------------------
// Blocked backward: per image, lower to a column matrix and run GEMMs.
//   dW += dY_b * col_b^T ; dcol = W^T * dY_b ; dX_b = col2im(dcol)
//   (the last two only when the input gradient is wanted)
// ---------------------------------------------------------------------------

void Conv2D::backward_im2col(const Tensor& grad_output, const Shape& out_shape, float* gx) {
  const Shape in_shape = cached_input_.shape();
  const std::size_t n = in_shape[0], ih = in_shape[2], iw = in_shape[3];
  const std::size_t oh = out_shape[2], ow = out_shape[3];
  const std::size_t npix = oh * ow;
  const std::size_t ickk = in_ch_ * k_ * k_;
  float* col = scratch_.buffer(0, ickk * npix);
  float* dcol = gx != nullptr ? scratch_.buffer(1, ickk * npix) : nullptr;
  const float* x = cached_input_.data();
  const float* w = weight_.value.data();
  const float* gy = grad_output.data();
  float* gw = weight_.grad.data();

  for (std::size_t b = 0; b < n; ++b) {
    const float* gy_b = gy + b * out_ch_ * npix;
    // Bias gradient: double-accumulated per map, like the direct path.
    for (std::size_t oc = 0; oc < out_ch_; ++oc) {
      const float* gymap = gy_b + oc * npix;
      double bias_acc = 0.0;
      for (std::size_t i = 0; i < npix; ++i) bias_acc += gymap[i];
      bias_.grad[oc] += static_cast<float>(bias_acc);
    }
    // Recompute the column matrix (cheaper than caching one per batch image).
    kernels::im2col(x + b * in_ch_ * ih * iw, in_ch_, ih, iw, k_, pad_, col);
    // dW(out_ch, ickk) += dY_b(out_ch, npix) * col(ickk, npix)^T.
    kernels::sgemm_transpose_b(out_ch_, npix, ickk, gy_b, col, gw, /*accumulate=*/true);
    if (gx == nullptr) continue;
    // dcol(ickk, npix) = W(out_ch, ickk)^T * dY_b(out_ch, npix).
    kernels::sgemm_transpose_a(out_ch_, ickk, npix, w, gy_b, dcol);
    kernels::col2im(dcol, in_ch_, ih, iw, k_, pad_, gx + b * in_ch_ * ih * iw);
  }
}

// ---------------------------------------------------------------------------
// Naive path: the original direct loops, kept as the reference backend. The
// former `g == 0.0f` skip in backward is gone — it silently dropped NaN/Inf
// propagation from weights and activations.
// ---------------------------------------------------------------------------

Tensor Conv2D::forward_direct(const Tensor& input, const Shape& out_shape) const {
  Tensor out(out_shape);
  const std::size_t n = input.dim(0), ih = input.dim(2), iw = input.dim(3);
  const std::size_t oh = out_shape[2], ow = out_shape[3];
  const float* x = input.data();
  const float* w = weight_.value.data();
  float* y = out.data();

  for (std::size_t b = 0; b < n; ++b) {
    for (std::size_t oc = 0; oc < out_ch_; ++oc) {
      float* ymap = y + ((b * out_ch_ + oc) * oh) * ow;
      const float bias = bias_.value[oc];
      for (std::size_t i = 0; i < oh * ow; ++i) ymap[i] = bias;
      for (std::size_t ic = 0; ic < in_ch_; ++ic) {
        const float* xmap = x + ((b * in_ch_ + ic) * ih) * iw;
        const float* wmap = w + ((oc * in_ch_ + ic) * k_) * k_;
        for (std::size_t r = 0; r < oh; ++r) {
          for (std::size_t c = 0; c < ow; ++c) {
            float acc = 0.0f;
            for (std::size_t kr = 0; kr < k_; ++kr) {
              const std::ptrdiff_t xr = static_cast<std::ptrdiff_t>(r + kr) -
                                        static_cast<std::ptrdiff_t>(pad_);
              if (xr < 0 || xr >= static_cast<std::ptrdiff_t>(ih)) continue;
              for (std::size_t kc = 0; kc < k_; ++kc) {
                const std::ptrdiff_t xc = static_cast<std::ptrdiff_t>(c + kc) -
                                          static_cast<std::ptrdiff_t>(pad_);
                if (xc < 0 || xc >= static_cast<std::ptrdiff_t>(iw)) continue;
                acc += xmap[xr * static_cast<std::ptrdiff_t>(iw) + xc] * wmap[kr * k_ + kc];
              }
            }
            ymap[r * ow + c] += acc;
          }
        }
      }
    }
  }
  return out;
}

void Conv2D::backward_direct(const Tensor& grad_output, const Shape& out_shape, float* gx) {
  const Shape in_shape = cached_input_.shape();
  const std::size_t n = in_shape[0], ih = in_shape[2], iw = in_shape[3];
  const std::size_t oh = out_shape[2], ow = out_shape[3];
  const float* x = cached_input_.data();
  const float* w = weight_.value.data();
  const float* gy = grad_output.data();
  float* gw = weight_.grad.data();

  for (std::size_t b = 0; b < n; ++b) {
    for (std::size_t oc = 0; oc < out_ch_; ++oc) {
      const float* gymap = gy + ((b * out_ch_ + oc) * oh) * ow;
      double bias_acc = 0.0;
      for (std::size_t i = 0; i < oh * ow; ++i) bias_acc += gymap[i];
      bias_.grad[oc] += static_cast<float>(bias_acc);
      for (std::size_t ic = 0; ic < in_ch_; ++ic) {
        const float* xmap = x + ((b * in_ch_ + ic) * ih) * iw;
        const float* wmap = w + ((oc * in_ch_ + ic) * k_) * k_;
        float* gxmap = gx != nullptr ? gx + ((b * in_ch_ + ic) * ih) * iw : nullptr;
        float* gwmap = gw + ((oc * in_ch_ + ic) * k_) * k_;
        for (std::size_t r = 0; r < oh; ++r) {
          for (std::size_t c = 0; c < ow; ++c) {
            const float g = gymap[r * ow + c];
            for (std::size_t kr = 0; kr < k_; ++kr) {
              const std::ptrdiff_t xr = static_cast<std::ptrdiff_t>(r + kr) -
                                        static_cast<std::ptrdiff_t>(pad_);
              if (xr < 0 || xr >= static_cast<std::ptrdiff_t>(ih)) continue;
              for (std::size_t kc = 0; kc < k_; ++kc) {
                const std::ptrdiff_t xc = static_cast<std::ptrdiff_t>(c + kc) -
                                          static_cast<std::ptrdiff_t>(pad_);
                if (xc < 0 || xc >= static_cast<std::ptrdiff_t>(iw)) continue;
                const std::size_t xi = static_cast<std::size_t>(xr) * iw +
                                       static_cast<std::size_t>(xc);
                gwmap[kr * k_ + kc] += g * xmap[xi];
                if (gxmap != nullptr) gxmap[xi] += g * wmap[kr * k_ + kc];
              }
            }
          }
        }
      }
    }
  }
}

std::unique_ptr<Layer> Conv2D::clone() const {
  auto copy = std::make_unique<Conv2D>(in_ch_, out_ch_, k_, pad_);
  copy->weight_.value = weight_.value;
  copy->bias_.value = bias_.value;
  return copy;
}

}  // namespace pdsl::nn
