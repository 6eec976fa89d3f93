// Checkpoint serialization: round trips, corruption detection, fleet I/O.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <new>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/pdsl.hpp"
#include "data/partition.hpp"
#include "data/synthetic.hpp"
#include "io/checkpoint.hpp"
#include "io/codec.hpp"
#include "nn/model_zoo.hpp"

// Any single allocation above 1 GiB fails with std::bad_alloc in this binary:
// a reader that sizes a buffer from an unchecked length field then fails its
// test (bad_alloc is not the runtime_error expected) instead of zero-filling
// gigabytes on the way to rejecting the frame.
void* operator new(std::size_t n) {
  if (n > (std::size_t{1} << 30)) throw std::bad_alloc();
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
// Out of line: inlined into a caller, the free() would face a pointer the
// compiler knows came from operator new and report a mismatched pair.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }

using namespace pdsl;
using namespace pdsl::io;

namespace {
std::vector<float> random_vec(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(n);
  rng.fill_normal(v, 0.0, 1.0);
  return v;
}
}  // namespace

TEST(Checkpoint, SingleRoundTrip) {
  const std::string path = "/tmp/pdsl_ckpt_single.bin";
  const auto params = random_vec(1234, 1);
  save_params(path, params);
  EXPECT_EQ(load_params(path), params);
}

TEST(Checkpoint, EmptyVectorRoundTrips) {
  const std::string path = "/tmp/pdsl_ckpt_empty.bin";
  save_params(path, {});
  EXPECT_TRUE(load_params(path).empty());
}

TEST(Checkpoint, MissingFileThrows) {
  EXPECT_THROW(load_params("/tmp/definitely_missing_pdsl.bin"), std::runtime_error);
}

TEST(Checkpoint, BadMagicDetected) {
  const std::string path = "/tmp/pdsl_ckpt_magic.bin";
  std::ofstream(path) << "this is not a checkpoint at all, not even close";
  EXPECT_THROW(load_params(path), std::runtime_error);
}

TEST(Checkpoint, TruncationDetected) {
  const std::string path = "/tmp/pdsl_ckpt_trunc.bin";
  save_params(path, random_vec(1000, 2));
  // Truncate the file to half its size.
  std::ifstream in(path, std::ios::binary);
  std::string contents((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  in.close();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(contents.data(), static_cast<std::streamsize>(contents.size() / 2));
  out.close();
  EXPECT_THROW(load_params(path), std::runtime_error);
}

TEST(Checkpoint, CorruptionDetectedByChecksum) {
  const std::string path = "/tmp/pdsl_ckpt_corrupt.bin";
  save_params(path, random_vec(500, 3));
  // Flip one payload byte (past the 24-byte header).
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(24 + 100);
  char byte;
  f.read(&byte, 1);
  f.seekp(24 + 100);
  byte = static_cast<char>(byte ^ 0x5A);
  f.write(&byte, 1);
  f.close();
  EXPECT_THROW(load_params(path), std::runtime_error);
}

TEST(Checkpoint, SaveIsAtomicOverAnExistingCheckpoint) {
  // The new bytes must land via tmp + rename: after a save there is no .tmp
  // sibling and the file holds exactly the new payload.
  const std::string path = "/tmp/pdsl_ckpt_atomic.bin";
  save_params(path, random_vec(100, 11));
  const auto next = random_vec(100, 12);
  save_params(path, next);
  EXPECT_EQ(load_params(path), next);
  EXPECT_FALSE(std::ifstream(path + ".tmp").good()) << "tmp sibling left behind";
}

TEST(Checkpoint, StaleTmpLeftoverIsOverwrittenByTheNextSave) {
  // Simulate a crash mid-save: a garbage .tmp sibling sits next to a valid
  // checkpoint. The checkpoint must still load, and the next save must
  // reclaim the tmp path and still commit atomically.
  const std::string path = "/tmp/pdsl_ckpt_stale.bin";
  const auto params = random_vec(80, 13);
  save_params(path, params);
  std::ofstream(path + ".tmp") << "half-written garbage from a crashed save";
  EXPECT_EQ(load_params(path), params);
  const auto next = random_vec(80, 14);
  save_params(path, next);
  EXPECT_EQ(load_params(path), next);
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());
}

TEST(Checkpoint, FailedSaveLeavesTheOldCheckpointAndNoTmp) {
  // Unwritable destination directory: the save must throw, the previous
  // checkpoint must survive untouched, and no .tmp may be left anywhere.
  const std::string path = "/tmp/pdsl_ckpt_dir_missing/ckpt.bin";
  EXPECT_THROW(save_params(path, random_vec(10, 15)), std::runtime_error);
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());

  const std::string good = "/tmp/pdsl_ckpt_survivor.bin";
  const auto params = random_vec(60, 16);
  save_params(good, params);
  EXPECT_THROW(save_fleet("/tmp/pdsl_ckpt_dir_missing/fleet.bin", {{1.0f}}),
               std::runtime_error);
  EXPECT_EQ(load_params(good), params);
}

TEST(Checkpoint, ShortHeaderDetected) {
  // A file shorter than even the header must fail on the truncated read, not
  // crash or return an empty model.
  const std::string path = "/tmp/pdsl_ckpt_short.bin";
  std::ofstream(path, std::ios::binary) << "PDSL";
  EXPECT_THROW(load_params(path), std::runtime_error);
  EXPECT_THROW(load_fleet(path), std::runtime_error);
}

TEST(Checkpoint, HugeLengthWordThrowsBeforeAllocating) {
  // Each loader's length words, patched to 2^60 in an otherwise valid file,
  // must be refused as truncation: allocating from them first fails with
  // std::bad_alloc in this binary.
  const std::string path = "/tmp/pdsl_ckpt_huge_len.bin";
  const std::uint64_t huge = std::uint64_t{1} << 60;
  auto patch = [&](std::streamoff offset) {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(offset);
    f.write(reinterpret_cast<const char*>(&huge), sizeof(huge));
  };
  save_params(path, random_vec(8, 1));
  patch(16);  // dimension
  EXPECT_THROW((void)load_params(path), std::runtime_error);
  for (const std::streamoff offset : {16, 24}) {  // count, dimension
    save_fleet(path, {random_vec(8, 2), random_vec(8, 3)});
    patch(offset);
    EXPECT_THROW((void)load_fleet(path), std::runtime_error) << "offset " << offset;
  }
  constexpr std::uint64_t kMagic = 0x5044534C54455354ULL;  // "PDSLTEST"
  save_blob(path, kMagic, io::ByteBuffer(16, 7), "blob-test");
  patch(16);  // body size
  EXPECT_THROW((void)load_blob(path, kMagic, "blob-test"), std::runtime_error);
}

TEST(Checkpoint, FleetRoundTrip) {
  const std::string path = "/tmp/pdsl_ckpt_fleet.bin";
  std::vector<std::vector<float>> fleet;
  for (std::uint64_t i = 0; i < 5; ++i) fleet.push_back(random_vec(321, 10 + i));
  save_fleet(path, fleet);
  EXPECT_EQ(load_fleet(path), fleet);
}

TEST(Checkpoint, FleetValidation) {
  EXPECT_THROW(save_fleet("/tmp/pdsl_ckpt_bad.bin", {}), std::invalid_argument);
  EXPECT_THROW(save_fleet("/tmp/pdsl_ckpt_bad.bin", {{1.0f}, {1.0f, 2.0f}}),
               std::invalid_argument);
}

TEST(Checkpoint, SingleAndFleetFormatsAreDistinct) {
  const std::string path = "/tmp/pdsl_ckpt_cross.bin";
  save_params(path, random_vec(10, 4));
  EXPECT_THROW(load_fleet(path), std::runtime_error);
}

TEST(Checkpoint, ModelWeightsSurviveRoundTrip) {
  Rng rng(5);
  nn::Model model = nn::make_mlp(16, 8, 4);
  model.init(rng);
  const std::string path = "/tmp/pdsl_ckpt_model.bin";
  save_params(path, model.flat_params());
  nn::Model restored = nn::make_mlp(16, 8, 4);
  restored.set_flat_params(load_params(path));
  EXPECT_EQ(restored.flat_params(), model.flat_params());
}

TEST(Checkpoint, WarmStartRestoresAlgorithmFleet) {
  // End-to-end: checkpoint a PDSL fleet, restore into a fresh instance.
  using namespace pdsl;
  Rng rng(7);
  auto pool = data::make_gaussian_mixture(300, 3, 4, 2.0, 0.5, 8);
  auto [train, validation] = data::split_off(pool, 60, rng);
  const auto topo = graph::Graph::ring(4);
  const auto mixing = graph::Metropolis(topo);
  const nn::Model model = nn::make_logistic(4, 3);
  const auto partition = data::iid_partition(train, 4, rng);
  algos::Env env;
  env.topo = &topo;
  env.mixing = &mixing;
  env.train = &train;
  env.validation = &validation;
  env.model_template = &model;
  env.partition = &partition;
  env.hp.gamma = 0.05;
  env.hp.batch = 8;
  env.hp.shapley_permutations = 2;
  env.hp.validation_batch = 16;
  env.seed = 3;

  core::Pdsl a(env);
  for (std::size_t t = 1; t <= 3; ++t) a.run_round(t);
  const std::string path = "/tmp/pdsl_ckpt_warm.bin";
  save_fleet(path, a.models().dense());

  core::Pdsl b(env);
  b.set_models(load_fleet(path));
  EXPECT_EQ(b.models().dense(), a.models().dense());
  EXPECT_THROW(b.set_models({{1.0f}}), std::invalid_argument);
}

TEST(Checkpoint, Fnv1aIsStableAndSensitive) {
  const auto v = random_vec(64, 6);
  EXPECT_EQ(fnv1a(v), fnv1a(v));
  auto w = v;
  w[10] += 1.0f;
  EXPECT_NE(fnv1a(v), fnv1a(w));
}

TEST(ByteReader, LyingStringLengthThrowsBeforeAllocating) {
  // A corrupted u32 length prefix claiming ~4 GB must be refused against the
  // bytes actually left, not allocated and zero-filled first.
  io::ByteBuffer buf;
  io::append_u32(buf, 0xFFFFFFF0u);
  io::append_raw(buf, "tag", 3);
  io::ByteReader r(buf, "lying-length");
  EXPECT_THROW((void)r.read_string("tag"), std::runtime_error);

  // An honest length that overruns by one byte is refused too; an exact fit reads.
  io::ByteBuffer tight;
  io::append_string(tight, "abc");
  tight.pop_back();
  io::ByteReader short_reader(tight, "short");
  EXPECT_THROW((void)short_reader.read_string("tag"), std::runtime_error);
  io::ByteBuffer exact;
  io::append_string(exact, "abc");
  io::ByteReader exact_reader(exact, "exact");
  EXPECT_EQ(exact_reader.read_string("tag"), "abc");
  EXPECT_TRUE(exact_reader.exhausted());
}

// ---------------------------------------------------------------------------
// S-RECOV opaque-blob framing (run-state + per-agent snapshot files).
// ---------------------------------------------------------------------------

namespace {
constexpr std::uint64_t kTestMagic = 0x5044534C54455354ULL;  // "PDSLTEST"

io::ByteBuffer sample_body() {
  io::ByteBuffer body;
  io::append_u64(body, 42);
  io::append_f64(body, 3.25);
  io::append_floats(body, {1.0f, -2.0f, 0.5f});
  return body;
}
}  // namespace

TEST(Blob, RoundTripsAnOpaqueBody) {
  const std::string path = "/tmp/pdsl_blob_roundtrip.bin";
  const auto body = sample_body();
  save_blob(path, kTestMagic, body, "blob-test");
  EXPECT_EQ(load_blob(path, kTestMagic, "blob-test"), body);
  // Empty bodies frame fine too.
  save_blob(path, kTestMagic, {}, "blob-test");
  EXPECT_TRUE(load_blob(path, kTestMagic, "blob-test").empty());
}

TEST(Blob, WrongMagicIsRefused) {
  const std::string path = "/tmp/pdsl_blob_magic.bin";
  save_blob(path, kTestMagic, sample_body(), "blob-test");
  EXPECT_THROW(load_blob(path, kTestMagic + 1, "blob-test"), std::runtime_error);
}

TEST(Blob, UnsupportedFormatVersionIsRefused) {
  const std::string path = "/tmp/pdsl_blob_version.bin";
  // A future version, and versions 2 to 4 — whose PDSL state, run-state rows
  // or network state carried fields later versions dropped — must be
  // refused, not misparsed.
  for (const std::uint64_t bogus :
       {kCheckpointVersion + 7, std::uint64_t{2}, std::uint64_t{3}, std::uint64_t{4}}) {
    SCOPED_TRACE(bogus);
    save_blob(path, kTestMagic, sample_body(), "blob-test");
    // Patch the version word (bytes 8..16).
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(8);
    f.write(reinterpret_cast<const char*>(&bogus), sizeof(bogus));
    f.close();
    try {
      (void)load_blob(path, kTestMagic, "blob-test");
      FAIL() << "expected unsupported-version throw";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("unsupported checkpoint version"),
                std::string::npos);
    }
  }
}

TEST(Blob, TruncationIsDetected) {
  const std::string path = "/tmp/pdsl_blob_trunc.bin";
  save_blob(path, kTestMagic, sample_body(), "blob-test");
  std::ifstream in(path, std::ios::binary);
  std::vector<char> bytes((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  in.close();
  std::ofstream(path, std::ios::binary | std::ios::trunc)
      .write(bytes.data(), static_cast<std::streamsize>(bytes.size() - 5));
  EXPECT_THROW(load_blob(path, kTestMagic, "blob-test"), std::runtime_error);
}

TEST(Blob, BodyCorruptionIsCaughtByTheChecksum) {
  const std::string path = "/tmp/pdsl_blob_corrupt.bin";
  save_blob(path, kTestMagic, sample_body(), "blob-test");
  // Flip one bit in the body (past the 32-byte magic/version/size/checksum
  // header) — exactly the failure the unreliable-channel model injects.
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  f.seekg(33);
  char c = 0;
  f.read(&c, 1);
  c = static_cast<char>(c ^ 0x10);
  f.seekp(33);
  f.write(&c, 1);
  f.close();
  try {
    (void)load_blob(path, kTestMagic, "blob-test");
    FAIL() << "expected checksum throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("checksum mismatch"), std::string::npos);
  }
}
