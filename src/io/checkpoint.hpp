#pragma once
// Checkpointing: persist and restore flat parameter vectors (single models
// or a whole fleet of per-agent models mid-experiment). Binary format with a
// magic header, a format-version word, dimension metadata and a FNV-1a
// content checksum so that a truncated, corrupted or future-format file
// fails loudly instead of producing silently wrong models.
//
// Saves are crash-safe: bytes stream into a `<path>.tmp` sibling which is
// std::rename'd over the destination only after a verified flush, so a crash
// mid-save never clobbers the previous checkpoint and readers never see a
// half-written file. A failed save removes its own .tmp.

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "io/codec.hpp"

namespace pdsl::io {

/// On-disk layout version shared by every io/ checkpoint family. Version 2
/// added the version word itself (version-1 files, which had the payload
/// metadata where the version now lives, are rejected loudly). Version 3
/// dropped the coalition score caches from the PDSL state and three Shapley
/// counters from the PDSLRUN1 round rows; version-2 files are refused rather
/// than misparsed. Version 4 dropped the never-assigned grad_norm column from
/// the PDSLRUN1 round rows; version-3 files are refused the same way.
/// Version 5 dropped the per-edge byte total from the network state (only
/// the per-edge message index is kept); version-4 files are refused.
constexpr std::uint64_t kCheckpointVersion = 5;

/// Crash-safe writer: stream into a `.tmp` sibling, then std::rename over the
/// destination once the bytes are durably written. A crash mid-save leaves the
/// previous checkpoint intact (plus at worst a stale .tmp the next successful
/// save overwrites); a reader can never observe a half-written file. Exposed
/// for the S-RECOV recovery snapshots and run-state files.
class AtomicFile {
 public:
  AtomicFile(const std::string& path, const char* who)
      : path_(path), tmp_(path + ".tmp"), who_(who), out_(tmp_, std::ios::binary) {
    if (!out_) throw std::runtime_error(std::string(who_) + ": cannot open " + tmp_);
  }

  ~AtomicFile() {
    if (!committed_) {
      out_.close();
      std::remove(tmp_.c_str());  // failed save: don't leave the partial file
    }
  }

  AtomicFile(const AtomicFile&) = delete;
  AtomicFile& operator=(const AtomicFile&) = delete;

  std::ofstream& stream() { return out_; }

  /// Flush, verify the stream, and rename into place. Throws on any failure
  /// (the destructor then cleans up the tmp and the old checkpoint survives).
  void commit() {
    out_.flush();
    if (!out_) throw std::runtime_error(std::string(who_) + ": write failed for " + path_);
    out_.close();
    if (std::rename(tmp_.c_str(), path_.c_str()) != 0) {
      throw std::runtime_error(std::string(who_) + ": cannot rename " + tmp_ + " to " + path_);
    }
    committed_ = true;
  }

 private:
  std::string path_;
  std::string tmp_;
  const char* who_;
  std::ofstream out_;
  bool committed_ = false;
};

/// Save one flat parameter vector.
void save_params(const std::string& path, const std::vector<float>& params);

/// Load one flat parameter vector; throws std::runtime_error on missing
/// file, bad magic, unsupported version, size mismatch or checksum failure.
[[nodiscard]] std::vector<float> load_params(const std::string& path);

/// Save a fleet (per-agent models, all the same dimension).
void save_fleet(const std::string& path, const std::vector<std::vector<float>>& models);

/// Load a fleet saved with save_fleet.
[[nodiscard]] std::vector<std::vector<float>> load_fleet(const std::string& path);

/// Crash-safe opaque-blob checkpoint: `magic`, the format version, the body
/// length and a FNV-1a checksum frame an arbitrary codec buffer. The S-RECOV
/// run-state and per-agent snapshot files are blobs with their own magics.
void save_blob(const std::string& path, std::uint64_t magic, const ByteBuffer& body,
               const char* who);

/// Load a blob saved with save_blob; throws std::runtime_error (prefixed
/// with `who`) on missing file, wrong magic, unsupported version, truncation
/// or checksum mismatch.
[[nodiscard]] ByteBuffer load_blob(const std::string& path, std::uint64_t magic,
                                   const char* who);

/// FNV-1a over the raw bytes of a float vector (exposed for tests).
[[nodiscard]] std::uint64_t fnv1a(const std::vector<float>& data);

}  // namespace pdsl::io
