#include "io/checkpoint.hpp"

#include <cstring>

namespace pdsl::io {

namespace {

constexpr std::uint64_t kMagicSingle = 0x5044534C'4D4F4431ULL;  // "PDSLMOD1"
constexpr std::uint64_t kMagicFleet = 0x5044534C'464C5431ULL;   // "PDSLFLT1"

void write_u64(std::ofstream& out, std::uint64_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

std::uint64_t read_u64(std::ifstream& in, const char* what) {
  std::uint64_t v = 0;
  in.read(reinterpret_cast<char*>(&v), sizeof(v));
  if (!in) throw std::runtime_error(std::string("checkpoint: truncated reading ") + what);
  return v;
}

/// Throws unless `count` items of `item_bytes` bytes each fit between the
/// read position and the end of the file. Every length word passes this check
/// before anything is allocated from it, so a corrupted or hostile file fails
/// as truncated, not with bad_alloc.
void check_fits(std::ifstream& in, std::uint64_t count, std::uint64_t item_bytes,
                const std::string& who, const std::string& what) {
  const auto pos = in.tellg();
  in.seekg(0, std::ios::end);
  const auto left = static_cast<std::uint64_t>(in.tellg() - pos);
  in.seekg(pos);
  if (count > left / item_bytes) throw std::runtime_error(who + ": truncated reading " + what);
}

void write_floats(std::ofstream& out, const std::vector<float>& v) {
  out.write(reinterpret_cast<const char*>(v.data()),
            static_cast<std::streamsize>(v.size() * sizeof(float)));
}

std::vector<float> read_floats(std::ifstream& in, std::uint64_t n) {
  check_fits(in, n, sizeof(float), "checkpoint", "parameters");
  std::vector<float> v(n);
  in.read(reinterpret_cast<char*>(v.data()), static_cast<std::streamsize>(n * sizeof(float)));
  if (!in) throw std::runtime_error("checkpoint: truncated reading parameters");
  return v;
}

void check_version(std::ifstream& in, const char* who, const std::string& path) {
  const auto version = read_u64(in, "version");
  if (version != kCheckpointVersion) {
    throw std::runtime_error(std::string(who) + ": unsupported checkpoint version " +
                             std::to_string(version) + " in " + path + " (expected " +
                             std::to_string(kCheckpointVersion) + ")");
  }
}

}  // namespace

std::uint64_t fnv1a(const std::vector<float>& data) {
  return fnv1a_bytes(data.data(), data.size() * sizeof(float));
}

void save_params(const std::string& path, const std::vector<float>& params) {
  AtomicFile file(path, "save_params");
  std::ofstream& out = file.stream();
  write_u64(out, kMagicSingle);
  write_u64(out, kCheckpointVersion);
  write_u64(out, params.size());
  write_u64(out, fnv1a(params));
  write_floats(out, params);
  file.commit();
}

std::vector<float> load_params(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("load_params: cannot open " + path);
  if (read_u64(in, "magic") != kMagicSingle) {
    throw std::runtime_error("load_params: bad magic in " + path);
  }
  check_version(in, "load_params", path);
  const auto dim = read_u64(in, "dimension");
  const auto checksum = read_u64(in, "checksum");
  auto params = read_floats(in, dim);
  if (fnv1a(params) != checksum) {
    throw std::runtime_error("load_params: checksum mismatch in " + path);
  }
  return params;
}

void save_fleet(const std::string& path, const std::vector<std::vector<float>>& models) {
  if (models.empty()) throw std::invalid_argument("save_fleet: empty fleet");
  const std::size_t dim = models[0].size();
  for (const auto& m : models) {
    if (m.size() != dim) throw std::invalid_argument("save_fleet: ragged fleet");
  }
  AtomicFile file(path, "save_fleet");
  std::ofstream& out = file.stream();
  write_u64(out, kMagicFleet);
  write_u64(out, kCheckpointVersion);
  write_u64(out, models.size());
  write_u64(out, dim);
  for (const auto& m : models) {
    write_u64(out, fnv1a(m));
    write_floats(out, m);
  }
  file.commit();
}

std::vector<std::vector<float>> load_fleet(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("load_fleet: cannot open " + path);
  if (read_u64(in, "magic") != kMagicFleet) {
    throw std::runtime_error("load_fleet: bad magic in " + path);
  }
  check_version(in, "load_fleet", path);
  const auto count = read_u64(in, "count");
  const auto dim = read_u64(in, "dimension");
  // Bounding dim first keeps the per-model size below from overflowing.
  check_fits(in, dim, sizeof(float), "load_fleet", "parameters of " + path);
  check_fits(in, count, sizeof(std::uint64_t) + dim * sizeof(float), "load_fleet",
             "models of " + path);
  std::vector<std::vector<float>> models;
  models.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    const auto checksum = read_u64(in, "checksum");
    auto m = read_floats(in, dim);
    if (fnv1a(m) != checksum) {
      throw std::runtime_error("load_fleet: checksum mismatch in agent " + std::to_string(i));
    }
    models.push_back(std::move(m));
  }
  return models;
}

void save_blob(const std::string& path, std::uint64_t magic, const ByteBuffer& body,
               const char* who) {
  AtomicFile file(path, who);
  std::ofstream& out = file.stream();
  write_u64(out, magic);
  write_u64(out, kCheckpointVersion);
  write_u64(out, body.size());
  write_u64(out, fnv1a_bytes(body.data(), body.size()));
  out.write(reinterpret_cast<const char*>(body.data()),
            static_cast<std::streamsize>(body.size()));
  file.commit();
}

ByteBuffer load_blob(const std::string& path, std::uint64_t magic, const char* who) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error(std::string(who) + ": cannot open " + path);
  if (read_u64(in, "magic") != magic) {
    throw std::runtime_error(std::string(who) + ": bad magic in " + path);
  }
  check_version(in, who, path);
  const auto size = read_u64(in, "size");
  const auto checksum = read_u64(in, "checksum");
  check_fits(in, size, 1, who, "body of " + path);
  ByteBuffer body(static_cast<std::size_t>(size));
  in.read(reinterpret_cast<char*>(body.data()), static_cast<std::streamsize>(body.size()));
  if (!in) {
    throw std::runtime_error(std::string(who) + ": truncated reading body of " + path);
  }
  if (fnv1a_bytes(body.data(), body.size()) != checksum) {
    throw std::runtime_error(std::string(who) + ": checksum mismatch in " + path);
  }
  return body;
}

}  // namespace pdsl::io
