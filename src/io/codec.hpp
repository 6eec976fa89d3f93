#pragma once
// Shared little-endian binary codec primitives for the io/ persistence layer
// and the fleet wire format: fixed-width integer and float-payload
// append/read over byte buffers, plus byte-wise FNV-1a, the checksum of every
// on-disk format (model/fleet checkpoints, PDSLSNP1, PDSLRUN1) and the tail
// step of the wire frame's word-parallel checksum (fleet/wire.hpp).
// Header-only so stream-based (checkpoint) and buffer-based (wire) users
// share one implementation.

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

namespace pdsl::io {

using ByteBuffer = std::vector<std::uint8_t>;

/// FNV-1a 64-bit over raw bytes.
[[nodiscard]] inline std::uint64_t fnv1a_bytes(const void* data, std::size_t n) {
  std::uint64_t hash = 0xCBF29CE484222325ULL;
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001B3ULL;
  }
  return hash;
}

inline void append_raw(ByteBuffer& buf, const void* data, std::size_t n) {
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  buf.insert(buf.end(), bytes, bytes + n);
}

inline void append_u8(ByteBuffer& buf, std::uint8_t v) { buf.push_back(v); }

inline void append_u32(ByteBuffer& buf, std::uint32_t v) { append_raw(buf, &v, sizeof(v)); }

inline void append_u64(ByteBuffer& buf, std::uint64_t v) { append_raw(buf, &v, sizeof(v)); }

/// Doubles travel as their raw IEEE-754 bit pattern (bit-exact round-trip;
/// the recovery layer persists RDP accumulators and metric doubles this way).
inline void append_f64(ByteBuffer& buf, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  append_u64(buf, bits);
}

inline void append_string(ByteBuffer& buf, const std::string& s) {
  append_u32(buf, static_cast<std::uint32_t>(s.size()));
  append_raw(buf, s.data(), s.size());
}

inline void append_floats(ByteBuffer& buf, const std::vector<float>& v) {
  append_u64(buf, v.size());
  append_raw(buf, v.data(), v.size() * sizeof(float));
}

/// Sequential reader over a byte buffer; every read throws std::runtime_error
/// naming `what` on truncation.
class ByteReader {
 public:
  ByteReader(const ByteBuffer& buf, const char* who) : buf_(&buf), who_(who) {}

  void read_raw(void* out, std::size_t n, const char* what) {
    if (pos_ + n > buf_->size()) {
      throw std::runtime_error(std::string(who_) + ": truncated reading " + what);
    }
    if (n == 0) return;  // an empty vector's data() may be null, which memcpy forbids
    std::memcpy(out, buf_->data() + pos_, n);
    pos_ += n;
  }

  [[nodiscard]] std::uint8_t read_u8(const char* what) {
    std::uint8_t v = 0;
    read_raw(&v, sizeof(v), what);
    return v;
  }

  [[nodiscard]] std::uint32_t read_u32(const char* what) {
    std::uint32_t v = 0;
    read_raw(&v, sizeof(v), what);
    return v;
  }

  [[nodiscard]] std::uint64_t read_u64(const char* what) {
    std::uint64_t v = 0;
    read_raw(&v, sizeof(v), what);
    return v;
  }

  [[nodiscard]] double read_f64(const char* what) {
    const std::uint64_t bits = read_u64(what);
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }

  [[nodiscard]] std::string read_string(const char* what) {
    const auto n = read_u32(what);
    // Check the declared length before allocating: a corrupted frame must not
    // zero-fill gigabytes only to fail the truncation check afterwards.
    if (n > buf_->size() - pos_) {
      throw std::runtime_error(std::string(who_) + ": truncated reading " + what);
    }
    std::string s(n, '\0');
    read_raw(s.data(), n, what);
    return s;
  }

  [[nodiscard]] std::vector<float> read_floats(const char* what) {
    const auto n = read_u64(what);
    if (n > (buf_->size() - pos_) / sizeof(float)) {
      throw std::runtime_error(std::string(who_) + ": truncated reading " + what);
    }
    std::vector<float> v(static_cast<std::size_t>(n));
    read_raw(v.data(), v.size() * sizeof(float), what);
    return v;
  }

  [[nodiscard]] std::size_t position() const { return pos_; }
  [[nodiscard]] bool exhausted() const { return pos_ == buf_->size(); }

 private:
  const ByteBuffer* buf_;
  const char* who_;
  std::size_t pos_ = 0;
};

}  // namespace pdsl::io
