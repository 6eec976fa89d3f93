#pragma once
// Versioned binary wire format for sim::Network messages (S-SCALE pillar 4) —
// the stepping stone to multi-process sharding. A frame is:
//
//   u64 magic   "PDSLWIR1"
//   u32 version (kWireVersion)
//   u32 src, u32 dst, u32 round
//   u8  channel
//   u32 tag length + tag bytes
//   u64 payload length + raw float bytes (memcpy: NaN/Inf bit patterns survive)
//   u64 checksum over everything before it (the "body")
//
// built from the same io/ codec primitives as the checkpoint files. decode()
// fails loudly on bad magic, unknown version, truncation or checksum
// mismatch. Network's wire_roundtrip mode encodes + decodes + verifies every
// message at the send boundary, proving bit-identical serialization.
//
// Version 2 changed only the checksum. Version 1 ran byte-wise FNV-1a, one
// dependent 64-bit multiply per byte; every transported message is hashed
// twice (encode and decode), and at fleet scale that chain was most of the
// send cost. The v2 checksum runs four FNV-1a-style lanes over the body's
// little-endian 8-byte words (word k feeds lane k mod 4 as
// h <- (h ^ w) * 0x100000001B3, each lane from its own nonzero offset),
// hashes the final < 32 bytes with byte-wise FNV-1a, and XORs that with the
// four lanes rotated by distinct amounts. Each lane step is a bijection, so
// any error inside one 8-byte word, in particular every single bit flip,
// still changes the sum, as it did under v1. Version-1 frames are rejected.
// The checkpoint formats keep plain FNV-1a.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "io/codec.hpp"

namespace pdsl::fleet {

constexpr std::uint64_t kWireMagic = 0x5044534C'57495231ULL;  // "PDSLWIR1"
constexpr std::uint32_t kWireVersion = 2;

struct WireMessage {
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  std::uint32_t round = 0;
  std::uint8_t channel = 0;  ///< sim::Channel as a stable integer
  std::string tag;
  std::vector<float> payload;
};

[[nodiscard]] io::ByteBuffer wire_encode(const WireMessage& msg);

/// Throws std::runtime_error on bad magic / version / truncation / checksum.
[[nodiscard]] WireMessage wire_decode(const io::ByteBuffer& buf);

/// S-RECOV detect-don't-assert decode: nullopt on any malformed frame (bad
/// magic / version / truncation / checksum / trailing bytes) instead of a
/// throw. The transport's NACK/retransmit loop keys off this.
[[nodiscard]] std::optional<WireMessage> wire_try_decode(const io::ByteBuffer& buf);

/// Exact equality including payload bit patterns (NaN-safe).
[[nodiscard]] bool wire_equal(const WireMessage& a, const WireMessage& b);

}  // namespace pdsl::fleet
