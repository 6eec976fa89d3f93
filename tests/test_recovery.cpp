// S-RECOV: unreliable-channel transport (corruption/NACK/retransmit/backoff,
// duplication dedup, reordering) and crash/restart recovery (CrashPlan purity,
// RecoveryManager snapshot + neighbor resync, snapshot files), plus the
// kill-and-resume contract: a run checkpointed mid-flight and resumed must be
// bit-identical to the uninterrupted run at any --threads width.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "common/json.hpp"
#include "common/schema.hpp"
#include "common/rng.hpp"
#include "core/experiment.hpp"
#include "graph/graph.hpp"
#include "io/checkpoint.hpp"
#include "io/codec.hpp"
#include "recovery/recovery.hpp"
#include "recovery/run_state.hpp"
#include "sim/faults.hpp"
#include "sim/metrics.hpp"
#include "sim/network.hpp"

using namespace pdsl;
using namespace pdsl::sim;

namespace {

std::vector<float> payload_of(float base, std::size_t n = 8) {
  std::vector<float> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = base + static_cast<float>(i);
  return v;
}

Network make_net(std::size_t agents, ChannelPlan channel, FaultPlan faults = {}) {
  const auto topo = graph::Graph::full(agents);
  NetworkOptions opts;
  opts.seed = 77;
  opts.faults = std::move(faults);
  opts.channel = std::move(channel);
  return Network(topo, opts);
}

core::ExperimentConfig tiny_cfg() {
  core::ExperimentConfig cfg;
  cfg.algorithm = "pdsl";
  cfg.dataset = "gaussian";
  cfg.model = "logistic";
  cfg.topology = "ring";
  cfg.agents = 5;
  cfg.rounds = 6;
  cfg.train_samples = 250;
  cfg.test_samples = 60;
  cfg.validation_samples = 40;
  cfg.image = 3;  // gaussian: dim = 9
  cfg.hp.batch = 8;
  cfg.hp.gamma = 0.05;
  cfg.hp.shapley_permutations = 2;
  cfg.hp.validation_batch = 16;
  cfg.sigma_mode = "none";
  cfg.metrics.test_subsample = 40;
  cfg.seed = 11;
  return cfg;
}

/// Compare every deterministic column of the per-round record.
void expect_same_series(const std::vector<RoundMetrics>& a,
                        const std::vector<RoundMetrics>& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(deterministic_diff(a[i], b[i]), "") << what << " round " << i;
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Plan semantics
// ---------------------------------------------------------------------------

TEST(ChannelPlanTest, ValidateRejectsOutOfRangeKnobs) {
  ChannelPlan p;
  p.corrupt_prob = 1.0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = ChannelPlan{};
  p.duplicate_prob = -0.1;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = ChannelPlan{};
  p.reorder_prob = 1.5;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = ChannelPlan{};
  p.corrupt_prob = 0.3;
  p.duplicate_prob = 0.999;
  p.reorder_prob = 0.0;
  EXPECT_NO_THROW(p.validate());
}

TEST(ChannelPlanTest, JsonRoundTripPreservesEveryKnob) {
  ChannelPlan p;
  p.corrupt_prob = 0.12;
  p.duplicate_prob = 0.05;
  p.reorder_prob = 0.07;
  p.max_retries = 6;
  p.seed = 42;
  const auto back = schema::from_json<ChannelPlan>(schema::to_json(p));
  EXPECT_EQ(back.corrupt_prob, p.corrupt_prob);
  EXPECT_EQ(back.duplicate_prob, p.duplicate_prob);
  EXPECT_EQ(back.reorder_prob, p.reorder_prob);
  EXPECT_EQ(back.max_retries, p.max_retries);
  EXPECT_EQ(back.seed, p.seed);

  auto v = schema::to_json(p);
  v.as_object()["warp_speed"] = 1.0;
  EXPECT_THROW(schema::from_json<ChannelPlan>(v), std::invalid_argument);
}

TEST(ChannelPlanTest, DecisionsArePureFunctionsOfIdentity) {
  ChannelPlan p;
  p.corrupt_prob = 0.3;
  p.duplicate_prob = 0.3;
  p.reorder_prob = 0.3;
  p.seed = 99;
  // Same identity -> same answer, every time and in any query order.
  for (int rep = 0; rep < 3; ++rep) {
    EXPECT_EQ(p.corrupt(0, 1, 7, 0), p.corrupt(0, 1, 7, 0));
    EXPECT_EQ(p.duplicate(2, 3, 11), p.duplicate(2, 3, 11));
    EXPECT_EQ(p.reorder(1, 0, 5), p.reorder(1, 0, 5));
  }
  // The attempt number is mixed into the corruption hash, so a retransmission
  // re-rolls: over many messages the two attempt streams must differ.
  bool attempt_streams_differ = false;
  std::size_t hits = 0;
  for (std::uint64_t k = 0; k < 2000; ++k) {
    if (p.corrupt(0, 1, k, 0) != p.corrupt(0, 1, k, 1)) attempt_streams_differ = true;
    if (p.corrupt(0, 1, k, 0)) ++hits;
  }
  EXPECT_TRUE(attempt_streams_differ);
  // Empirical rate within a loose band of the knob.
  EXPECT_NEAR(static_cast<double>(hits) / 2000.0, 0.3, 0.05);
}

TEST(ChannelPlanTest, BackoffScheduleIsRoundGranularAndCapped) {
  EXPECT_EQ(ChannelPlan::backoff_for(0), 0u);
  EXPECT_EQ(ChannelPlan::backoff_for(1), 0u);
  EXPECT_EQ(ChannelPlan::backoff_for(2), 1u);
  EXPECT_EQ(ChannelPlan::backoff_for(3), 2u);
  EXPECT_EQ(ChannelPlan::backoff_for(4), 4u);
  EXPECT_EQ(ChannelPlan::backoff_for(5), 8u);
  EXPECT_EQ(ChannelPlan::backoff_for(6), 8u);   // capped
  EXPECT_EQ(ChannelPlan::backoff_for(50), 8u);  // still capped
}

TEST(CrashPlanTest, ValidateRejectsBadKnobs) {
  CrashPlan p;
  p.crash_prob = 1.0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = CrashPlan{};
  p.crash_prob = 0.1;
  p.snapshot_every = 0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = CrashPlan{};
  p.crash_prob = 0.1;
  p.snapshot_every = 3;
  EXPECT_NO_THROW(p.validate());
}

TEST(CrashPlanTest, JsonRoundTripAndPurity) {
  CrashPlan p;
  p.crash_prob = 0.2;
  p.snapshot_every = 4;
  p.seed = 17;
  const auto back = schema::from_json<CrashPlan>(schema::to_json(p));
  EXPECT_EQ(back.crash_prob, p.crash_prob);
  EXPECT_EQ(back.snapshot_every, p.snapshot_every);
  EXPECT_EQ(back.seed, p.seed);

  std::size_t crashed = 0;
  for (std::size_t agent = 0; agent < 10; ++agent) {
    for (std::size_t t = 1; t <= 50; ++t) {
      EXPECT_EQ(p.crashes(agent, t), p.crashes(agent, t));
      if (p.crashes(agent, t)) ++crashed;
    }
  }
  EXPECT_NEAR(static_cast<double>(crashed) / 500.0, 0.2, 0.08);

  auto v = schema::to_json(p);
  v.as_object()["blast_radius"] = 2.0;
  EXPECT_THROW(schema::from_json<CrashPlan>(v), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Transport: corruption / retransmit / dedup / reorder
// ---------------------------------------------------------------------------

TEST(TransportTest, RetransmitRecoversEveryCorruptedFrame) {
  ChannelPlan ch;
  ch.corrupt_prob = 0.5;
  ch.max_retries = 16;  // 0.5^17 residual loss: effectively never exhausts
  ch.seed = 101;
  auto net = make_net(2, ch);
  net.begin_round(1);

  const std::size_t kMsgs = 80;
  std::vector<float> late_payloads;
  std::size_t delivered_now = 0;
  for (std::size_t k = 0; k < kMsgs; ++k) {
    ASSERT_TRUE(net.send(0, 1, "t@" + std::to_string(k), payload_of(static_cast<float>(k))));
  }
  for (std::size_t k = 0; k < kMsgs; ++k) {
    const auto got = net.receive(1, 0, "t@" + std::to_string(k));
    if (got) {
      ++delivered_now;
      // Delivered payloads survive the corrupt/retransmit loop bit-intact.
      EXPECT_EQ(*got, payload_of(static_cast<float>(k)));
    }
  }
  // Backed-off retransmissions surface in later rounds; collect them all.
  std::size_t delivered_late = net.in_flight();
  for (std::size_t t = 2; t <= 12 && net.in_flight() > 0; ++t) {
    for (const auto& late : net.begin_round(t)) {
      EXPECT_EQ(late.payload, payload_of(late.payload[0]));
    }
  }
  EXPECT_EQ(delivered_now + delivered_late, kMsgs);
  const NetCounters c = net.counters();
  EXPECT_EQ(c.retry_exhausted, 0u);
  EXPECT_GT(c.retransmits, 0u);
  // Exactly-one-counter invariant: every checksum-caught flip either triggered
  // one retransmission or (never, here) exhausted the budget.
  EXPECT_EQ(c.corrupt_detected, c.retransmits + c.retry_exhausted);
}

TEST(TransportTest, DetectedCorruptionNeverReachesTheMailbox) {
  ChannelPlan ch;
  ch.corrupt_prob = 0.9;
  ch.max_retries = 0;  // no budget: every detected flip is a terminal loss
  ch.seed = 202;
  auto net = make_net(2, ch);
  net.begin_round(1);

  const std::size_t kMsgs = 60;
  std::size_t delivered = 0;
  for (std::size_t k = 0; k < kMsgs; ++k) {
    const std::string tag = "u@" + std::to_string(k);
    const bool ok = net.send(0, 1, tag, payload_of(1.0f));
    if (!ok) {
      // A detected corruption with no retry budget must never surface.
      EXPECT_FALSE(net.has_message(1, 0, tag));
      EXPECT_FALSE(net.receive(1, 0, tag).has_value());
    } else if (net.has_message(1, 0, tag)) {
      EXPECT_EQ(*net.receive(1, 0, tag), payload_of(1.0f));
      ++delivered;
    }
  }
  const NetCounters c = net.counters();
  EXPECT_GT(c.corrupt_detected, 0u);
  EXPECT_EQ(c.retransmits, 0u);
  // With zero retries every detection is an exhaustion, counted exactly once.
  EXPECT_EQ(c.corrupt_detected, c.retry_exhausted);
  EXPECT_EQ(c.retry_exhausted, c.dropped);
  EXPECT_EQ(delivered + net.in_flight() + c.dropped, kMsgs);
}

TEST(TransportTest, DuplicatesAreDeliveredExactlyOnce) {
  ChannelPlan ch;
  ch.duplicate_prob = 0.9;
  ch.seed = 303;
  auto net = make_net(2, ch);
  net.begin_round(1);

  const std::size_t kMsgs = 40;
  for (std::size_t k = 0; k < kMsgs; ++k) {
    ASSERT_TRUE(net.send(0, 1, "d@" + std::to_string(k), payload_of(2.0f)));
  }
  for (std::size_t k = 0; k < kMsgs; ++k) {
    const std::string tag = "d@" + std::to_string(k);
    ASSERT_TRUE(net.receive(1, 0, tag).has_value()) << tag;
    // Exactly-once: the duplicate copy was deduped at the transport.
    EXPECT_FALSE(net.receive(1, 0, tag).has_value()) << tag;
  }
  EXPECT_GT(net.counters().dup_dropped, 0u);
  // The duplicate copies consumed wire frames beyond one per message.
  EXPECT_GT(net.counters().wire_messages, kMsgs);
}

TEST(TransportTest, ReorderingIsDeterministicAndJumpsTheQueue) {
  ChannelPlan ch;
  ch.reorder_prob = 0.5;
  ch.seed = 404;
  auto net = make_net(2, ch);
  net.begin_round(1);

  // All sends share one tag so they land in one mailbox deque; replay the
  // plan's pure reorder decisions to predict the exact delivery order.
  const std::size_t kMsgs = 16;
  std::deque<float> expected;
  const auto& plan = net.channel();  // seed-folded effective plan
  for (std::size_t k = 0; k < kMsgs; ++k) {
    ASSERT_TRUE(net.send(0, 1, "r", {static_cast<float>(k)}));
    if (plan.reorder(0, 1, k)) {
      expected.push_front(static_cast<float>(k));
    } else {
      expected.push_back(static_cast<float>(k));
    }
  }
  std::vector<float> order;
  while (auto got = net.receive(1, 0, "r")) order.push_back((*got)[0]);
  ASSERT_EQ(order.size(), kMsgs);
  EXPECT_EQ(order, std::vector<float>(expected.begin(), expected.end()));
  EXPECT_GT(net.counters().reordered, 0u);
  EXPECT_NE(order.front(), 0.0f);  // at least one jump actually happened

  // Deterministic: an identical network replays the identical order.
  auto net2 = make_net(2, ch);
  net2.begin_round(1);
  for (std::size_t k = 0; k < kMsgs; ++k) {
    ASSERT_TRUE(net2.send(0, 1, "r", {static_cast<float>(k)}));
  }
  std::vector<float> order2;
  while (auto got = net2.receive(1, 0, "r")) order2.push_back((*got)[0]);
  EXPECT_EQ(order, order2);
}

TEST(TransportTest, BackoffDelaysLateRetransmissions) {
  // Find a message whose first two attempts are corrupted but whose third is
  // clean: attempt 2 carries backoff_for(2) = 1 round of delay, so the
  // payload must mature via begin_round instead of arriving immediately.
  ChannelPlan ch;
  ch.corrupt_prob = 0.6;
  ch.max_retries = 8;
  ch.seed = 505;
  auto net = make_net(2, ch);
  const auto& plan = net.channel();
  std::uint64_t target = static_cast<std::uint64_t>(-1);
  for (std::uint64_t k = 0; k < 512; ++k) {
    if (plan.corrupt(0, 1, k, 0) && plan.corrupt(0, 1, k, 1) && !plan.corrupt(0, 1, k, 2)) {
      target = k;
      break;
    }
  }
  ASSERT_NE(target, static_cast<std::uint64_t>(-1)) << "no suitable edge index in 512 tries";

  net.begin_round(1);
  for (std::uint64_t k = 0; k <= target; ++k) {
    net.send(0, 1, "b@" + std::to_string(k), payload_of(9.0f));
  }
  const std::string tag = "b@" + std::to_string(target);
  EXPECT_FALSE(net.has_message(1, 0, tag));  // in flight, not lost
  EXPECT_GE(net.in_flight(), 1u);
  bool matured = false;
  for (std::size_t t = 2; t <= 3 && !matured; ++t) {
    for (const auto& late : net.begin_round(t)) {
      if (late.tag == tag) {
        EXPECT_EQ(late.payload, payload_of(9.0f));
        matured = true;
      }
    }
  }
  EXPECT_TRUE(matured);
}

// ---------------------------------------------------------------------------
// Crash / recovery end-to-end
// ---------------------------------------------------------------------------

TEST(RecoveryTest, CrashedRunStaysFiniteAndIsBitIdentical) {
  auto cfg = tiny_cfg();
  cfg.crash.crash_prob = 0.15;
  cfg.crash.snapshot_every = 2;
  const auto a = core::run_experiment(cfg);
  EXPECT_GT(a.crashes, 0u) << "plan never fired; loosen the knobs";
  EXPECT_EQ(a.crashes, a.resyncs);  // ring: every agent has online neighbors here
  EXPECT_TRUE(std::isfinite(a.final_loss));

  const auto b = core::run_experiment(cfg);
  expect_same_series(a.series, b.series, "rerun");

  auto cfg4 = cfg;
  cfg4.threads = 4;
  const auto c = core::run_experiment(cfg4);
  expect_same_series(a.series, c.series, "threads 1 vs 4");
}

TEST(RecoveryTest, SnapshotFilesArePersistedAndLoadable) {
  const std::string dir = "/tmp/pdsl_recovery_snaps";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  auto cfg = tiny_cfg();
  cfg.crash.crash_prob = 0.15;
  cfg.crash.snapshot_every = 2;
  cfg.recovery_dir = dir;
  const auto res = core::run_experiment(cfg);
  EXPECT_GT(res.crashes, 0u);
  for (std::size_t i = 0; i < cfg.agents; ++i) {
    const std::string path = dir + "/agent_" + std::to_string(i) + ".snap";
    io::ByteBuffer body;
    ASSERT_NO_THROW(body = io::load_blob(path, recovery::kSnapshotMagic, "test"))
        << path;
    io::ByteReader r(body, "snap-test");
    const auto round = r.read_u64("round");
    EXPECT_GT(round, 0u);
    const auto model = r.read_floats("model");
    EXPECT_EQ(model.size(), res.model_dim);
    for (float x : model) EXPECT_TRUE(std::isfinite(x));
  }
}

TEST(RecoveryTest, ChaosPlusRecoveryGate) {
  // The ISSUE acceptance gate: 10% corruption + dup/reorder + 10% crashes +
  // 5% drops simultaneously; the run must stay finite, keep learning, and be
  // bit-identical across reruns and thread widths.
  auto cfg = tiny_cfg();
  cfg.rounds = 8;
  cfg.channel.corrupt_prob = 0.10;
  cfg.channel.duplicate_prob = 0.05;
  cfg.channel.reorder_prob = 0.05;
  cfg.crash.crash_prob = 0.10;
  cfg.crash.snapshot_every = 3;
  cfg.faults.drop_prob = 0.05;
  const auto a = core::run_experiment(cfg);
  EXPECT_TRUE(std::isfinite(a.final_loss));
  // "Still learning" under chaos: the loss trajectory must head down.
  EXPECT_LT(a.series.back().avg_loss, a.series.front().avg_loss);
  EXPECT_GT(a.corruptions_detected, 0u);
  EXPECT_GT(a.retransmits, 0u);
  EXPECT_GT(a.duplicates_dropped, 0u);
  EXPECT_GT(a.crashes, 0u);

  const auto b = core::run_experiment(cfg);
  expect_same_series(a.series, b.series, "chaos rerun");
  auto cfg4 = cfg;
  cfg4.threads = 4;
  const auto c = core::run_experiment(cfg4);
  expect_same_series(a.series, c.series, "chaos threads 1 vs 4");
}

// ---------------------------------------------------------------------------
// Kill-and-resume
// ---------------------------------------------------------------------------

TEST(ResumeTest, KillAndResumeIsBitIdenticalToTheUninterruptedRun) {
  // Kill after every round k of a small run and resume. Checkpoints fire on
  // multiples of checkpoint_every and never after the final round, so the
  // run killed at k is configured with rounds = min(2k, R) and
  // checkpoint_every = k: its last cursor on disk is k. Every row of it, and
  // of its resumed continuation, must equal the uninterrupted R-round run's.
  constexpr std::size_t kRounds = 6;
  const auto prefix = [](const std::vector<RoundMetrics>& s, std::size_t n) {
    return std::vector<RoundMetrics>(s.begin(), s.begin() + static_cast<std::ptrdiff_t>(n));
  };
  for (const char* eval : {"linear", "sequential"}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      SCOPED_TRACE(std::string(eval) + " threads=" + std::to_string(threads));
      auto base = tiny_cfg();
      base.rounds = kRounds;
      base.threads = threads;
      base.hp.shapley_eval = eval;
      const auto uninterrupted = core::run_experiment(base);
      ASSERT_EQ(uninterrupted.series.size(), kRounds);

      for (std::size_t kill = 1; kill < kRounds; ++kill) {
        SCOPED_TRACE("kill after round " + std::to_string(kill));
        const std::string ck = "/tmp/pdsl_resume_t" + std::to_string(threads) + "_" + eval +
                               "_k" + std::to_string(kill) + ".bin";
        std::remove(ck.c_str());
        auto first = base;
        first.rounds = std::min(2 * kill, kRounds);
        first.checkpoint_every = kill;
        first.checkpoint_path = ck;
        const auto full = core::run_experiment(first);
        // Checkpointing is observation-free.
        expect_same_series(prefix(uninterrupted.series, first.rounds), full.series,
                           "checkpointed run");

        auto second = first;
        second.checkpoint_every = 0;
        second.checkpoint_path.clear();
        second.resume_from = ck;
        const auto resumed = core::run_experiment(second);
        EXPECT_EQ(resumed.resumed_from_round, kill);
        expect_same_series(prefix(uninterrupted.series, first.rounds), resumed.series,
                           "resumed run");
        EXPECT_EQ(full.average_model, resumed.average_model);
        if (first.rounds == kRounds) {
          EXPECT_EQ(uninterrupted.final_accuracy, resumed.final_accuracy);
          EXPECT_EQ(uninterrupted.average_model, resumed.average_model);
        }
      }
    }
  }
}

TEST(ResumeTest, ResumeRefusesAMismatchedConfig) {
  const std::string ck = "/tmp/pdsl_resume_mismatch.bin";
  std::remove(ck.c_str());
  auto cfg = tiny_cfg();
  cfg.checkpoint_every = 3;
  cfg.checkpoint_path = ck;
  (void)core::run_experiment(cfg);

  auto other = tiny_cfg();
  other.resume_from = ck;
  other.hp.gamma = 0.07;  // different trajectory -> different identity hash
  EXPECT_THROW(core::run_experiment(other), std::runtime_error);

  // The coalition scoring path is part of the identity too: resuming a
  // linear-mode checkpoint in sequential mode is refused.
  auto flipped = tiny_cfg();
  flipped.resume_from = ck;
  ASSERT_EQ(flipped.hp.shapley_eval, "linear");
  flipped.hp.shapley_eval = "sequential";
  EXPECT_THROW(core::run_experiment(flipped), std::runtime_error);

  // Volatile knobs are scrubbed from the identity: changing threads resumes.
  auto same = tiny_cfg();
  same.resume_from = ck;
  same.threads = 4;
  EXPECT_NO_THROW(core::run_experiment(same));
}

TEST(ResumeTest, ResumeCursorPastTheRequestedRoundsIsRejected) {
  const std::string ck = "/tmp/pdsl_resume_past.bin";
  std::remove(ck.c_str());
  auto cfg = tiny_cfg();
  cfg.checkpoint_every = 3;  // last cursor on disk: round 3 of 6... then 6? no:
  cfg.checkpoint_path = ck;  // fires at 3 only (never after the final round)
  (void)core::run_experiment(cfg);

  auto shorter = tiny_cfg();
  shorter.rounds = 3;  // cursor == rounds: nothing left to run
  shorter.resume_from = ck;
  EXPECT_THROW(core::run_experiment(shorter), std::exception);
}

TEST(ResumeTest, RunStateRoundTripsAndDetectsDamage) {
  const std::string path = "/tmp/pdsl_runstate_unit.bin";
  recovery::RunState st;
  st.config_hash = 0xDEADBEEFCAFEF00DULL;
  st.resume.completed_rounds = 7;
  st.resume.last_acc = 0.625;
  st.resume.accountant_rdp = {0.5, 1.25, 2.0};
  st.resume.accountant_invocations = 35;
  // Every column distinct, so a row the codec skips, swaps or mistypes shows.
  RoundMetrics m;
  double next = 1.0;
  for_each_column(
      [&](const MetricColumn&, auto& v) {
        v = static_cast<std::remove_cvref_t<decltype(v)>>(next);
        next += 1.0;
      },
      m);
  st.resume.prior_series = {m};
  io::append_floats(st.algo_state, {1.0f, 2.0f, 3.0f});
  recovery::save_run_state(path, st);

  const auto back = recovery::load_run_state(path, st.config_hash);
  EXPECT_EQ(back.config_hash, st.config_hash);
  EXPECT_EQ(back.resume.completed_rounds, 7u);
  EXPECT_EQ(back.resume.last_acc, 0.625);
  EXPECT_EQ(back.resume.accountant_rdp, st.resume.accountant_rdp);
  EXPECT_EQ(back.resume.accountant_invocations, 35u);
  ASSERT_EQ(back.resume.prior_series.size(), 1u);
  for_each_column(
      [](const MetricColumn& c, const auto& got, const auto& want) {
        EXPECT_EQ(got, want) << c.name;
      },
      back.resume.prior_series[0], m);
  EXPECT_EQ(back.algo_state, st.algo_state);

  // Wrong identity hash: refused loudly.
  EXPECT_THROW(recovery::load_run_state(path, 0x1234), std::runtime_error);
  // expected 0 = skip the check (the CLI resolves the hash itself).
  EXPECT_NO_THROW(recovery::load_run_state(path, 0));

  // Truncation and single-byte corruption are both caught by the blob frame.
  std::ifstream in(path, std::ios::binary);
  std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  in.close();
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  }
  EXPECT_THROW(recovery::load_run_state(path, 0), std::runtime_error);
  {
    bytes[bytes.size() - 9] ^= 0x40;  // flip a bit inside the body
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  EXPECT_THROW(recovery::load_run_state(path, 0), std::runtime_error);
}
