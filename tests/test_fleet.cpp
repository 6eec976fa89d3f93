// S-SCALE unit tests: deterministic participation sampling, the wire codec,
// LazyMatrix COW semantics, and the end-to-end bit-identity contracts
// (fleet.sparse on vs off, eager vs lazy, wire on vs off, sampled reruns and
// thread widths).

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "common/schema.hpp"
#include "core/experiment.hpp"
#include "fleet/lazy_matrix.hpp"
#include "fleet/options.hpp"
#include "fleet/participation.hpp"
#include "fleet/wire.hpp"
#include "graph/graph.hpp"

namespace {

using pdsl::core::ExperimentConfig;
using pdsl::core::ExperimentResult;
using pdsl::fleet::FleetOptions;
using pdsl::fleet::LazyMatrix;
using pdsl::fleet::ParticipationMode;
using pdsl::fleet::ParticipationPlan;
using pdsl::fleet::WireMessage;
using pdsl::graph::Graph;

// ---------------------------------------------------------------------------
// Participation sampling
// ---------------------------------------------------------------------------

TEST(Participation, FullModeIsAllOnes) {
  const Graph g = Graph::ring(8);
  ParticipationPlan plan;  // kFull
  const auto mask = pdsl::fleet::participation_mask(plan, g, 1, 42);
  ASSERT_EQ(mask.size(), 8u);
  for (const auto m : mask) EXPECT_EQ(m, 1);
}

TEST(Participation, SampledExactlyKDeterministicAndRoundVarying) {
  const Graph g = Graph::regular(64, 4);
  ParticipationPlan plan;
  plan.mode = ParticipationMode::kSampled;
  plan.active = 8;
  const std::uint64_t seed = pdsl::fleet::resolve_participation_seed(plan, 1);
  ASSERT_NE(seed, 0u);

  bool any_round_differs = false;
  std::vector<unsigned char> prev;
  for (std::size_t t = 1; t <= 6; ++t) {
    const auto mask = pdsl::fleet::participation_mask(plan, g, t, seed);
    const auto again = pdsl::fleet::participation_mask(plan, g, t, seed);
    EXPECT_EQ(mask, again) << "round " << t << " not deterministic";
    std::size_t count = 0;
    for (const auto m : mask) count += m;
    EXPECT_EQ(count, 8u) << "round " << t;
    if (!prev.empty() && mask != prev) any_round_differs = true;
    prev = mask;
  }
  EXPECT_TRUE(any_round_differs) << "active set frozen across rounds";
}

TEST(Participation, RateResolvesToCeil) {
  ParticipationPlan plan;
  plan.mode = ParticipationMode::kSampled;
  plan.rate = 0.1;
  EXPECT_EQ(plan.resolved_active(64), 7u);  // ceil(6.4)
  EXPECT_EQ(plan.resolved_active(4), 1u);
}

TEST(Participation, WalkIsAnEdgeHandoffChain) {
  const Graph g = Graph::ring(9);
  ParticipationPlan plan;
  plan.mode = ParticipationMode::kWalk;
  const std::uint64_t seed = 99;
  for (std::size_t t = 2; t <= 8; ++t) {
    const auto now = pdsl::fleet::walk_position(g, t, seed);
    const auto prev = pdsl::fleet::walk_position(g, t - 1, seed);
    EXPECT_TRUE(now == prev || g.has_edge(prev, now))
        << "round " << t << ": " << prev << " -> " << now << " is not an edge";
    const auto mask = pdsl::fleet::participation_mask(plan, g, t, seed);
    std::size_t count = 0;
    for (const auto m : mask) count += m;
    EXPECT_GE(count, 1u);
    EXPECT_LE(count, 2u);
    EXPECT_EQ(mask[now], 1);
    EXPECT_EQ(mask[prev], 1);
  }
}

TEST(Participation, ValidationThrowsWithFieldNames) {
  FleetOptions f;
  f.participation.mode = ParticipationMode::kSampled;
  // Neither active nor rate set.
  EXPECT_THROW(f.validate(8), std::invalid_argument);
  f.participation.active = 9;
  EXPECT_THROW(f.validate(8), std::invalid_argument);  // k > N
  f.participation.active = 0;
  f.participation.rate = 1.5;
  EXPECT_THROW(f.validate(8), std::invalid_argument);  // rate out of (0,1]
  f.participation.rate = 0.5;
  EXPECT_NO_THROW(f.validate(8));

  FleetOptions s;
  s.sparse = true;
  s.degree = 0;
  EXPECT_THROW(s.validate(8), std::invalid_argument);  // degree must be > 0
  s.degree = 4;
  s.radius = 0.0;
  EXPECT_THROW(s.validate(8), std::invalid_argument);  // radius <= 0
}

TEST(Participation, OptionsJsonRoundTrip) {
  FleetOptions f;
  f.participation.mode = ParticipationMode::kSampled;
  f.participation.active = 8;
  f.lazy_state = true;
  f.wire_roundtrip = true;
  f.sparse = true;
  f.degree = 6;
  const auto j = pdsl::schema::to_json(f);
  const FleetOptions g = pdsl::schema::from_json<FleetOptions>(j);
  EXPECT_EQ(g.participation.mode, ParticipationMode::kSampled);
  EXPECT_EQ(g.participation.active, 8u);
  EXPECT_TRUE(g.lazy_state);
  EXPECT_TRUE(g.wire_roundtrip);
  EXPECT_TRUE(g.sparse);
  EXPECT_EQ(g.degree, 6u);
}

// ---------------------------------------------------------------------------
// Wire codec
// ---------------------------------------------------------------------------

WireMessage sample_message() {
  WireMessage m;
  m.src = 3;
  m.dst = 7;
  m.round = 42;
  m.channel = 1;
  m.tag = "xgrad:3";
  m.payload = {1.5f, -2.25f, 0.0f, 3.0e-38f};
  return m;
}

TEST(Wire, RoundTripIsExact) {
  const WireMessage m = sample_message();
  const WireMessage back = pdsl::fleet::wire_decode(pdsl::fleet::wire_encode(m));
  EXPECT_TRUE(pdsl::fleet::wire_equal(m, back));
  EXPECT_EQ(back.tag, "xgrad:3");
  EXPECT_EQ(back.payload, m.payload);
}

TEST(Wire, NanAndInfBitPatternsSurvive) {
  WireMessage m = sample_message();
  m.payload = {std::numeric_limits<float>::quiet_NaN(),
               std::numeric_limits<float>::infinity(),
               -std::numeric_limits<float>::infinity(), -0.0f};
  const WireMessage back = pdsl::fleet::wire_decode(pdsl::fleet::wire_encode(m));
  ASSERT_EQ(back.payload.size(), m.payload.size());
  for (std::size_t i = 0; i < m.payload.size(); ++i) {
    std::uint32_t a = 0, b = 0;
    std::memcpy(&a, &m.payload[i], 4);
    std::memcpy(&b, &back.payload[i], 4);
    EXPECT_EQ(a, b) << "payload bit pattern " << i;
  }
  EXPECT_TRUE(pdsl::fleet::wire_equal(m, back));  // NaN-safe equality
}

TEST(Wire, EmptyPayloadAndTag) {
  WireMessage m;
  const WireMessage back = pdsl::fleet::wire_decode(pdsl::fleet::wire_encode(m));
  EXPECT_TRUE(pdsl::fleet::wire_equal(m, back));
}

TEST(Wire, CorruptionTruncationAndBadHeaderThrow) {
  const auto buf = pdsl::fleet::wire_encode(sample_message());

  auto corrupted = buf;
  corrupted[corrupted.size() / 2] ^= 0x40;  // flip a payload bit
  EXPECT_THROW((void)pdsl::fleet::wire_decode(corrupted), std::runtime_error);

  auto truncated = buf;
  truncated.resize(truncated.size() - 3);
  EXPECT_THROW((void)pdsl::fleet::wire_decode(truncated), std::runtime_error);

  auto bad_magic = buf;
  bad_magic[0] ^= 0xFF;
  EXPECT_THROW((void)pdsl::fleet::wire_decode(bad_magic), std::runtime_error);

  auto bad_version = buf;
  bad_version[8] ^= 0xFF;  // version field follows the u64 magic
  EXPECT_THROW((void)pdsl::fleet::wire_decode(bad_version), std::runtime_error);

  // A version-1 frame (byte-wise FNV-1a checksum) is refused, not misread.
  auto v1 = buf;
  const std::uint32_t old_version = 1;
  std::memcpy(v1.data() + 8, &old_version, sizeof(old_version));
  EXPECT_THROW((void)pdsl::fleet::wire_decode(v1), std::runtime_error);
  EXPECT_FALSE(pdsl::fleet::wire_try_decode(v1).has_value());

  // The v2 checksum of sample_message(), pinned so the format cannot drift
  // without a version bump.
  std::uint64_t checksum = 0;
  std::memcpy(&checksum, buf.data() + buf.size() - sizeof(checksum), sizeof(checksum));
  EXPECT_EQ(checksum, 0xA138BED4DD7761C2ULL);

  // Every single bit flip is detected: a body of three whole 32-byte checksum
  // blocks plus a ragged tail, with flips in the header, every lane, the tail
  // and the checksum field itself.
  WireMessage big = sample_message();
  big.payload.resize(20, 0.75f);  // body = 44 header/tag bytes + 80 payload bytes
  const auto frame = pdsl::fleet::wire_encode(big);
  const std::size_t body = frame.size() - sizeof(std::uint64_t);
  ASSERT_GE(body / 32, 3u);
  ASSERT_NE(body % 32, 0u);
  ASSERT_TRUE(pdsl::fleet::wire_try_decode(frame).has_value());
  for (std::size_t bit = 0; bit < frame.size() * 8; ++bit) {
    auto flipped = frame;
    flipped[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    EXPECT_FALSE(pdsl::fleet::wire_try_decode(flipped).has_value()) << "bit " << bit;
  }
}

// ---------------------------------------------------------------------------
// LazyMatrix
// ---------------------------------------------------------------------------

TEST(LazyMatrix, SharesDefaultUntilWritten) {
  LazyMatrix m(4, {1.0f, 2.0f});
  EXPECT_EQ(m.size(), 4u);
  EXPECT_EQ(m.dim(), 2u);
  EXPECT_EQ(m.materialized_count(), 0u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(m[i], (std::vector<float>{1.0f, 2.0f}));
    EXPECT_FALSE(m.materialized(i));
  }
}

TEST(LazyMatrix, MutCopiesDefaultOnFirstTouch) {
  LazyMatrix m(4, {1.0f, 2.0f});
  m.mut(2)[0] = 9.0f;
  EXPECT_EQ(m.materialized_count(), 1u);
  EXPECT_EQ(m[2], (std::vector<float>{9.0f, 2.0f}));
  EXPECT_EQ(m[0], (std::vector<float>{1.0f, 2.0f}));  // others untouched
}

TEST(LazyMatrix, SetReplacesRowAndChecksDim) {
  LazyMatrix m(3, {0.0f, 0.0f});
  m.set(1, {5.0f, 6.0f});
  EXPECT_EQ(m[1], (std::vector<float>{5.0f, 6.0f}));
  EXPECT_THROW(m.set(0, {1.0f}), std::invalid_argument);
}

TEST(LazyMatrix, DenseAssignAndEquality) {
  LazyMatrix a(2, {1.0f});
  LazyMatrix b(2, {1.0f});
  EXPECT_TRUE(a == b);
  b.set(0, {2.0f});
  EXPECT_TRUE(a != b);
  a.assign(b.dense());
  EXPECT_TRUE(a == b);
  EXPECT_EQ(a.materialized_count(), 2u);  // assign materializes everything
}

// ---------------------------------------------------------------------------
// End-to-end bit-identity contracts
// ---------------------------------------------------------------------------

ExperimentConfig tiny_config() {
  ExperimentConfig cfg;
  cfg.algorithm = "pdsl";
  cfg.dataset = "mnist_like";
  cfg.model = "logistic";
  cfg.image = 8;
  cfg.topology = "ring";
  cfg.partition = "iid";
  cfg.agents = 8;
  cfg.rounds = 3;
  cfg.train_samples = 256;
  cfg.test_samples = 64;
  cfg.validation_samples = 64;
  cfg.hp.batch = 8;
  cfg.hp.shapley_permutations = 2;
  cfg.hp.validation_batch = 16;
  cfg.sigma_mode = "none";
  cfg.seed = 5;
  cfg.metrics.eval_every = 0;
  cfg.metrics.test_subsample = 32;
  return cfg;
}

TEST(FleetContract, SparseRingBitIdenticalToDense) {
  ExperimentConfig dense = tiny_config();
  ExperimentConfig sparse = tiny_config();
  sparse.fleet.sparse = true;
  const ExperimentResult a = pdsl::core::run_experiment(dense);
  const ExperimentResult b = pdsl::core::run_experiment(sparse);
  EXPECT_EQ(a.average_model, b.average_model);
  EXPECT_EQ(a.final_loss, b.final_loss);
  EXPECT_EQ(a.messages, b.messages);
}

TEST(FleetContract, WireRoundTripDoesNotChangeResults) {
  ExperimentConfig plain = tiny_config();
  ExperimentConfig wired = tiny_config();
  wired.fleet.wire_roundtrip = true;
  const ExperimentResult a = pdsl::core::run_experiment(plain);
  const ExperimentResult b = pdsl::core::run_experiment(wired);
  EXPECT_EQ(a.average_model, b.average_model);
  EXPECT_GT(b.wire_messages, 0u);
  EXPECT_GT(b.wire_bytes, 0u);
  EXPECT_EQ(a.wire_messages, 0u);
}

TEST(FleetContract, LazyStateBitIdenticalToEagerUnderSampling) {
  // Both sides sample (so both use stateless batch draws); only the worker
  // materialization policy differs. Eviction must not change the math.
  ExperimentConfig eager = tiny_config();
  eager.fleet.participation.mode = ParticipationMode::kSampled;
  eager.fleet.participation.active = 3;
  eager.metrics.metric_agents = 2;  // metric eval materializes workers too
  ExperimentConfig lazy = eager;
  lazy.fleet.lazy_state = true;
  lazy.fleet.worker_cache = 4;
  const ExperimentResult a = pdsl::core::run_experiment(eager);
  const ExperimentResult b = pdsl::core::run_experiment(lazy);
  EXPECT_EQ(a.average_model, b.average_model);
  EXPECT_EQ(a.final_loss, b.final_loss);
  EXPECT_EQ(a.workers_peak, 8u);  // eager materializes the whole fleet
  // Lazy transient bound: prepare() materializes this round's actives first
  // and then evicts down to the cap, so peak <= cache_cap + active (4 + 3).
  EXPECT_LE(b.workers_peak, 7u);
  EXPECT_LT(b.workers_peak, a.workers_peak);
  EXPECT_EQ(a.participants, 3u);
  EXPECT_EQ(b.participants, 3u);
}

TEST(FleetContract, WorkerCacheSizeDoesNotChangeResults) {
  ExperimentConfig small = tiny_config();
  small.fleet.participation.mode = ParticipationMode::kSampled;
  small.fleet.participation.active = 3;
  small.fleet.lazy_state = true;
  small.fleet.worker_cache = 4;
  ExperimentConfig big = small;
  big.fleet.worker_cache = 64;
  const ExperimentResult a = pdsl::core::run_experiment(small);
  const ExperimentResult b = pdsl::core::run_experiment(big);
  EXPECT_EQ(a.average_model, b.average_model);
}

TEST(FleetContract, SampledRerunAndThreadWidthBitIdentical) {
  ExperimentConfig cfg = tiny_config();
  cfg.fleet.participation.mode = ParticipationMode::kSampled;
  cfg.fleet.participation.active = 4;
  cfg.fleet.sparse = true;
  cfg.fleet.wire_roundtrip = true;
  const ExperimentResult a = pdsl::core::run_experiment(cfg);
  const ExperimentResult b = pdsl::core::run_experiment(cfg);
  cfg.threads = 4;
  const ExperimentResult c = pdsl::core::run_experiment(cfg);
  EXPECT_EQ(a.average_model, b.average_model);
  EXPECT_EQ(a.average_model, c.average_model);
}

TEST(FleetContract, WalkModeRunsWithTinyActiveSet) {
  ExperimentConfig cfg = tiny_config();
  cfg.fleet.participation.mode = ParticipationMode::kWalk;
  cfg.fleet.lazy_state = true;
  const ExperimentResult res = pdsl::core::run_experiment(cfg);
  EXPECT_LE(res.participants, 2u);
  EXPECT_GE(res.participants, 1u);
  const ExperimentResult again = pdsl::core::run_experiment(cfg);
  EXPECT_EQ(res.average_model, again.average_model);
}

TEST(FleetContract, FleetScaleTopologiesRunWithoutSparseFlag) {
  ExperimentConfig cfg = tiny_config();
  for (const char* topology : {"regular", "geometric"}) {
    SCOPED_TRACE(topology);
    cfg.topology = topology;
    cfg.fleet.sparse = false;
    const ExperimentResult dense = pdsl::core::run_experiment(cfg);
    EXPECT_GT(dense.messages, 0u);
    EXPECT_LT(dense.spectral.sqrt_rho, 1.0);  // spectral report computed
    cfg.fleet.sparse = true;
    const ExperimentResult sparse = pdsl::core::run_experiment(cfg);
    EXPECT_EQ(sparse.average_model, dense.average_model);
    EXPECT_EQ(sparse.spectral.rho, 0.0);  // fleet.sparse only skips the report
  }
}

TEST(FleetContract, Theorem1SigmaUnchangedBySparseFlag) {
  ExperimentConfig cfg = tiny_config();
  cfg.sigma_mode = "theorem1";
  cfg.rounds = 1;
  const ExperimentResult plain = pdsl::core::run_experiment(cfg);
  cfg.fleet.sparse = true;
  const ExperimentResult sparse = pdsl::core::run_experiment(cfg);
  EXPECT_GT(plain.sigma, 0.0);
  EXPECT_EQ(sparse.sigma, plain.sigma);
  EXPECT_EQ(sparse.average_model, plain.average_model);
}

}  // namespace

TEST(FleetContract, WireCorruptionIsDetectedRetransmittedAndDeterministic) {
  // The S-SCALE wire format carries the S-RECOV checksum: with an unreliable
  // channel underneath, every hash-driven bit flip is detected (exactly one
  // counter each), repaired by a retransmission, and the run stays
  // bit-identical across reruns and execution widths — corruption never
  // silently changes math, and the transport work that runs outside the
  // network's lock does not make the result depend on the schedule.
  ExperimentConfig cfg = tiny_config();
  cfg.fleet.wire_roundtrip = true;
  cfg.channel.corrupt_prob = 0.15;
  cfg.channel.duplicate_prob = 0.2;
  cfg.channel.reorder_prob = 0.2;
  cfg.channel.max_retries = 16;
  const ExperimentResult a = pdsl::core::run_experiment(cfg);
  EXPECT_GT(a.corruptions_detected, 0u);
  EXPECT_EQ(a.corruptions_detected, a.retransmits + a.retry_exhausted);
  EXPECT_EQ(a.retry_exhausted, 0u);  // the budget covers 0.15^17 comfortably
  EXPECT_GT(a.wire_messages, 0u);
  EXPECT_GT(a.duplicates_dropped, 0u);
  EXPECT_GT(a.reordered, 0u);
  EXPECT_TRUE(std::isfinite(a.final_loss));
  const ExperimentResult b = pdsl::core::run_experiment(cfg);
  EXPECT_EQ(a.average_model, b.average_model);
  EXPECT_EQ(a.corruptions_detected, b.corruptions_detected);
  EXPECT_EQ(a.retransmits, b.retransmits);
  for (const std::size_t threads : {2u, 4u}) {
    SCOPED_TRACE(threads);
    cfg.threads = threads;
    const ExperimentResult c = pdsl::core::run_experiment(cfg);
    EXPECT_EQ(c.average_model, a.average_model);
    EXPECT_EQ(c.messages, a.messages);
    EXPECT_EQ(c.wire_messages, a.wire_messages);
    EXPECT_EQ(c.wire_bytes, a.wire_bytes);
    EXPECT_EQ(c.retransmits, a.retransmits);
    EXPECT_EQ(c.corruptions_detected, a.corruptions_detected);
    EXPECT_EQ(c.retry_exhausted, a.retry_exhausted);
    EXPECT_EQ(c.duplicates_dropped, a.duplicates_dropped);
    EXPECT_EQ(c.reordered, a.reordered);
  }
}
