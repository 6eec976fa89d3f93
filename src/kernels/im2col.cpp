#include "kernels/im2col.hpp"

#include <algorithm>
#include <vector>

namespace pdsl::kernels {

namespace {

typedef float f4 __attribute__((vector_size(16)));

inline void move4(float* dst, const float* src) {
  f4 v;
  __builtin_memcpy(&v, src, sizeof(f4));
  __builtin_memcpy(dst, &v, sizeof(f4));
}

/// dst[0, n) = src[0, n) in 4-float moves; when n % 4 != 0 the last move
/// overlaps the one before it. Rows shorter than one move go float by float.
/// The rows are a few dozen floats, where a libc call per row costs more
/// than the copy.
inline void copy_row(float* dst, const float* src, std::size_t n) {
  if (n < 4) {
    for (std::size_t i = 0; i < n; ++i) dst[i] = src[i];
    return;
  }
  for (std::size_t i = 0; i + 4 < n; i += 4) move4(dst + i, src + i);
  move4(dst + n - 4, src + n - 4);
}

}  // namespace

// im2col pads each input plane once into a per-thread buffer, so every
// (ic, kr, kc) tap row is then one unconditional copy of `ow` floats:
// output row r of tap (kr, kc) is padded row r + kr from column kc.

void im2col(const float* x, std::size_t in_ch, std::size_t ih, std::size_t iw, std::size_t k,
            std::size_t pad, float* col) {
  const std::size_t ph = ih + 2 * pad;
  const std::size_t pw = iw + 2 * pad;
  const std::size_t oh = ph - k + 1;
  const std::size_t ow = pw - k + 1;
  // Per-thread, grow-only: agents run convolutions concurrently. The whole
  // plane is zeroed on every call, since the last call may have left another
  // geometry's interior where this one has its border; the channels of one
  // call then overwrite only the interior.
  thread_local std::vector<float> padded;
  if (pad > 0) {
    if (padded.size() < ph * pw) padded.resize(ph * pw);
    std::fill(padded.begin(), padded.begin() + static_cast<std::ptrdiff_t>(ph * pw), 0.0f);
  }
  float* out = col;
  for (std::size_t ic = 0; ic < in_ch; ++ic) {
    const float* plane = x + ic * ih * iw;
    if (pad > 0) {
      for (std::size_t r = 0; r < ih; ++r) {
        copy_row(padded.data() + (r + pad) * pw + pad, plane + r * iw, iw);
      }
      plane = padded.data();
    }
    for (std::size_t kr = 0; kr < k; ++kr) {
      for (std::size_t kc = 0; kc < k; ++kc) {
        for (std::size_t r = 0; r < oh; ++r, out += ow) {
          copy_row(out, plane + (r + kr) * pw + kc, ow);
        }
      }
    }
  }
}

// col2im walks one (ic, kr, kc) tap at a time. For a fixed tap the source
// row index is xr = r + kr - pad, so the valid output rows are a contiguous
// band and, within a row, the valid output columns are a contiguous run that
// is added in; entries that fell on the padding are skipped.

void col2im(const float* col, std::size_t in_ch, std::size_t ih, std::size_t iw, std::size_t k,
            std::size_t pad, float* x) {
  const std::size_t oh = ih + 2 * pad - k + 1;
  const std::size_t ow = iw + 2 * pad - k + 1;
  const std::ptrdiff_t ihs = static_cast<std::ptrdiff_t>(ih);
  const std::ptrdiff_t iws = static_cast<std::ptrdiff_t>(iw);
  const float* in = col;
  for (std::size_t ic = 0; ic < in_ch; ++ic) {
    float* plane = x + ic * ih * iw;
    for (std::size_t kr = 0; kr < k; ++kr) {
      for (std::size_t kc = 0; kc < k; ++kc) {
        const std::ptrdiff_t dr = static_cast<std::ptrdiff_t>(kr) - static_cast<std::ptrdiff_t>(pad);
        const std::ptrdiff_t dc = static_cast<std::ptrdiff_t>(kc) - static_cast<std::ptrdiff_t>(pad);
        for (std::size_t r = 0; r < oh; ++r, in += ow) {
          const std::ptrdiff_t xr = static_cast<std::ptrdiff_t>(r) + dr;
          if (xr < 0 || xr >= ihs) continue;
          const std::size_t c_lo = static_cast<std::size_t>(std::max<std::ptrdiff_t>(0, -dc));
          const std::size_t c_hi = static_cast<std::size_t>(
              std::clamp<std::ptrdiff_t>(iws - dc, 0, static_cast<std::ptrdiff_t>(ow)));
          float* dst = plane + xr * iws + dc;
          for (std::size_t c = c_lo; c < c_hi; ++c) dst[c] += in[c];
        }
      }
    }
  }
}

}  // namespace pdsl::kernels
