#include "fleet/wire.hpp"

#include <bit>
#include <cstring>
#include <stdexcept>

namespace pdsl::fleet {

namespace {

constexpr std::uint64_t kFnvPrime = 0x100000001B3ULL;

/// The v2 frame checksum (wire.hpp): four independent multiply chains over
/// 8-byte words instead of one chain per byte.
[[nodiscard]] std::uint64_t wire_checksum(const std::uint8_t* data, std::size_t n) {
  std::uint64_t h0 = 0xCBF29CE484222325ULL;  // the FNV-1a offset basis
  std::uint64_t h1 = 0x9E3779B97F4A7C15ULL;
  std::uint64_t h2 = 0xC2B2AE3D27D4EB4FULL;
  std::uint64_t h3 = 0x165667B19E3779F9ULL;
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    std::uint64_t w[4];
    std::memcpy(w, data + i, sizeof(w));  // little-endian words, like every codec field
    h0 = (h0 ^ w[0]) * kFnvPrime;
    h1 = (h1 ^ w[1]) * kFnvPrime;
    h2 = (h2 ^ w[2]) * kFnvPrime;
    h3 = (h3 ^ w[3]) * kFnvPrime;
  }
  return io::fnv1a_bytes(data + i, n - i) ^ h0 ^ std::rotl(h1, 17) ^ std::rotl(h2, 31) ^
         std::rotl(h3, 47);
}

}  // namespace

io::ByteBuffer wire_encode(const WireMessage& msg) {
  io::ByteBuffer buf;
  buf.reserve(64 + msg.tag.size() + msg.payload.size() * sizeof(float));
  io::append_u64(buf, kWireMagic);
  io::append_u32(buf, kWireVersion);
  io::append_u32(buf, msg.src);
  io::append_u32(buf, msg.dst);
  io::append_u32(buf, msg.round);
  io::append_u8(buf, msg.channel);
  io::append_string(buf, msg.tag);
  io::append_floats(buf, msg.payload);
  io::append_u64(buf, wire_checksum(buf.data(), buf.size()));
  return buf;
}

WireMessage wire_decode(const io::ByteBuffer& buf) {
  io::ByteReader r(buf, "wire_decode");
  if (r.read_u64("magic") != kWireMagic) {
    throw std::runtime_error("wire_decode: bad magic");
  }
  const auto version = r.read_u32("version");
  if (version != kWireVersion) {
    throw std::runtime_error("wire_decode: unsupported version " + std::to_string(version));
  }
  WireMessage msg;
  msg.src = r.read_u32("src");
  msg.dst = r.read_u32("dst");
  msg.round = r.read_u32("round");
  msg.channel = r.read_u8("channel");
  msg.tag = r.read_string("tag");
  msg.payload = r.read_floats("payload");
  const std::size_t body = r.position();
  const auto checksum = r.read_u64("checksum");
  if (!r.exhausted()) throw std::runtime_error("wire_decode: trailing bytes");
  if (wire_checksum(buf.data(), body) != checksum) {
    throw std::runtime_error("wire_decode: checksum mismatch");
  }
  return msg;
}

std::optional<WireMessage> wire_try_decode(const io::ByteBuffer& buf) {
  try {
    return wire_decode(buf);
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

bool wire_equal(const WireMessage& a, const WireMessage& b) {
  if (a.src != b.src || a.dst != b.dst || a.round != b.round || a.channel != b.channel ||
      a.tag != b.tag || a.payload.size() != b.payload.size()) {
    return false;
  }
  return a.payload.empty() ||
         std::memcmp(a.payload.data(), b.payload.data(),
                     a.payload.size() * sizeof(float)) == 0;
}

}  // namespace pdsl::fleet
