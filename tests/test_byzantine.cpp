// S-BYZ tests (ctest -L byzantine): AdversaryPlan role resolution and JSON
// round-trip, corrupt_payload mode semantics and per-message determinism,
// Network channel gating (state traffic never corrupted) and stale-replay
// history, consumer-side sanitization (NaN-bomb rejection keeps every
// algorithm finite), robust aggregation for the baselines, the empty-plan
// bit-identity contract, attacked-run determinism across --threads and
// reruns, and the headline defense result: PDSL's Shapley weighting collapses
// attacker-edge pi and beats unweighted DP-SGD gossip under the same attack.

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "common/schema.hpp"
#include "core/config_io.hpp"
#include "core/experiment.hpp"
#include "core/pdsl.hpp"
#include "sim/faults.hpp"
#include "sim/network.hpp"

using namespace pdsl;
using pdsl::core::ExperimentConfig;
using pdsl::core::ExperimentResult;
using pdsl::sim::AdversaryPlan;
using pdsl::sim::ByzMode;
using pdsl::sim::ByzRole;
using pdsl::sim::Channel;
using pdsl::sim::Network;
using pdsl::sim::NetworkOptions;

namespace {

bool all_finite(const std::vector<float>& v) {
  for (float x : v) {
    if (!std::isfinite(x)) return false;
  }
  return true;
}

/// The reduced-scale mnist_like setup the defense acceptance runs use
/// (mirrors the pdsl_cli quick-demo defaults + bench_byzantine).
ExperimentConfig attacked_config(const std::string& algorithm) {
  ExperimentConfig cfg;
  cfg.algorithm = algorithm;
  cfg.dataset = "mnist_like";
  cfg.model = "mlp";
  cfg.topology = "full";
  cfg.agents = 8;
  cfg.rounds = 12;
  cfg.train_samples = 900;
  cfg.image = 10;
  cfg.hp.batch = 16;
  cfg.hp.gamma = 0.05;
  cfg.hp.shapley_permutations = 8;
  cfg.hp.validation_batch = 64;
  cfg.epsilon = 0.3;
  cfg.noise_scale = 0.06;
  cfg.seed = 1;
  cfg.metrics.eval_every = 12;  // accuracy at the final round only (speed)
  cfg.adversary.frac = 0.25;
  cfg.adversary.mode = ByzMode::kSignFlip;
  cfg.adversary.scale = 3.0;
  return cfg;
}

/// Small fast config for determinism / finiteness sweeps.
ExperimentConfig tiny_config(const std::string& algorithm) {
  ExperimentConfig cfg;
  cfg.algorithm = algorithm;
  cfg.dataset = "mnist_like";
  cfg.model = "mlp";
  cfg.topology = "full";
  cfg.agents = 4;
  cfg.rounds = 3;
  cfg.train_samples = 300;
  cfg.test_samples = 100;
  cfg.validation_samples = 80;
  cfg.image = 8;
  cfg.hidden = 16;
  cfg.hp.batch = 8;
  cfg.hp.gamma = 0.05;
  cfg.hp.clip = 5.0;
  cfg.hp.shapley_permutations = 2;
  cfg.hp.validation_batch = 24;
  cfg.noise_scale = 0.05;
  cfg.seed = 5;
  cfg.metrics.eval_every = 3;
  cfg.metrics.test_subsample = 100;
  return cfg;
}

}  // namespace

// ---------------------------------------------------------------------------
// AdversaryPlan semantics
// ---------------------------------------------------------------------------

TEST(AdversaryPlan, FracDefaultPicksLowestIdsWithOnsetWindow) {
  AdversaryPlan plan;
  plan.frac = 0.25;
  plan.mode = ByzMode::kSignFlip;
  plan.onset = 3;
  plan.until_round = 6;
  EXPECT_TRUE(plan.any());
  EXPECT_EQ(plan.num_default_attackers(8), 2u);
  EXPECT_TRUE(plan.is_byzantine(0, 8));
  EXPECT_TRUE(plan.is_byzantine(1, 8));
  EXPECT_FALSE(plan.is_byzantine(2, 8));
  // Outside [onset, until_round) everyone resolves honest.
  EXPECT_EQ(plan.role(0, 8, 2).mode, ByzMode::kNone);
  EXPECT_EQ(plan.role(0, 8, 3).mode, ByzMode::kSignFlip);
  EXPECT_EQ(plan.role(0, 8, 5).mode, ByzMode::kSignFlip);
  EXPECT_EQ(plan.role(0, 8, 6).mode, ByzMode::kNone);
  EXPECT_EQ(plan.active_count(8, 4), 2u);
  EXPECT_EQ(plan.active_count(8, 7), 0u);
}

TEST(AdversaryPlan, FracNeverConvertsTheWholeFleet) {
  AdversaryPlan plan;
  plan.frac = 0.99;
  plan.mode = ByzMode::kScale;
  EXPECT_EQ(plan.num_default_attackers(4), 3u);  // at least one honest agent
  EXPECT_EQ(plan.num_default_attackers(1), 0u);
  EXPECT_EQ(plan.num_default_attackers(0), 0u);
}

TEST(AdversaryPlan, ExplicitRolesOverrideTheFracDefault) {
  AdversaryPlan plan;
  plan.frac = 0.5;  // would cover agents 0..3 of 8
  plan.mode = ByzMode::kSignFlip;
  // Agent 0 is explicitly scheduled: nan_bomb in rounds [2,4) ONLY — the frac
  // default must not apply to it outside that window.
  plan.roles.push_back(ByzRole{0, ByzMode::kNanBomb, 1.0, 2, 4});
  EXPECT_EQ(plan.role(0, 8, 1).mode, ByzMode::kNone);
  EXPECT_EQ(plan.role(0, 8, 2).mode, ByzMode::kNanBomb);
  EXPECT_EQ(plan.role(0, 8, 4).mode, ByzMode::kNone);
  // Agent 1 still follows the frac default.
  EXPECT_EQ(plan.role(1, 8, 1).mode, ByzMode::kSignFlip);
}

TEST(AdversaryPlan, ValidateRejectsBadKnobs) {
  AdversaryPlan plan;
  plan.frac = 1.0;
  EXPECT_THROW(plan.validate(), std::invalid_argument);
  plan.frac = 0.25;
  plan.onset = 0;
  EXPECT_THROW(plan.validate(), std::invalid_argument);
  plan.onset = 5;
  plan.until_round = 5;
  EXPECT_THROW(plan.validate(), std::invalid_argument);
  plan.until_round = sim::kNoRoundLimit;
  plan.scale = 0.0;
  EXPECT_THROW(plan.validate(), std::invalid_argument);
  plan.scale = 3.0;
  plan.roles.push_back(ByzRole{0, ByzMode::kScale, 2.0, 3, 2});
  EXPECT_THROW(plan.validate(), std::invalid_argument);
}

TEST(AdversaryPlan, JsonRoundTripPreservesEveryField) {
  AdversaryPlan plan;
  plan.frac = 0.25;
  plan.mode = ByzMode::kNoise;
  plan.scale = 1.5;
  plan.onset = 4;
  plan.until_round = 9;
  plan.seed = 42;
  plan.roles.push_back(ByzRole{3, ByzMode::kStaleReplay, 2.0, 2, 7});
  const auto v = schema::to_json(plan);
  const AdversaryPlan back = schema::from_json<AdversaryPlan>(json::parse(v.dump()));
  EXPECT_EQ(back.frac, plan.frac);
  EXPECT_EQ(back.mode, plan.mode);
  EXPECT_EQ(back.scale, plan.scale);
  EXPECT_EQ(back.onset, plan.onset);
  EXPECT_EQ(back.until_round, plan.until_round);
  EXPECT_EQ(back.seed, plan.seed);
  ASSERT_EQ(back.roles.size(), 1u);
  EXPECT_EQ(back.roles[0].agent, 3u);
  EXPECT_EQ(back.roles[0].mode, ByzMode::kStaleReplay);
  EXPECT_EQ(back.roles[0].from_round, 2u);
  EXPECT_EQ(back.roles[0].until_round, 7u);
}

TEST(AdversaryPlan, JsonParseRejectsUnknownKeys) {
  EXPECT_THROW(schema::from_json<AdversaryPlan>(json::parse(R"({"fraction": 0.2})")),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// corrupt_payload
// ---------------------------------------------------------------------------

TEST(CorruptPayload, SignFlipNegatesAndAmplifies) {
  ByzRole role{0, ByzMode::kSignFlip, 3.0, 1, sim::kNoRoundLimit};
  std::vector<float> p{1.0f, -2.0f, 0.5f};
  sim::corrupt_payload(role, 7, 0, 1, sim::hash_tag("xg@1"), p);
  EXPECT_EQ(p, (std::vector<float>{-3.0f, 6.0f, -1.5f}));
}

TEST(CorruptPayload, ScaleModeAmplifiesWithoutFlip) {
  ByzRole role{0, ByzMode::kScale, 2.0, 1, sim::kNoRoundLimit};
  std::vector<float> p{1.0f, -2.0f};
  sim::corrupt_payload(role, 7, 0, 1, sim::hash_tag("xg@1"), p);
  EXPECT_EQ(p, (std::vector<float>{2.0f, -4.0f}));
}

TEST(CorruptPayload, NanBombReplacesEverythingNonFinite) {
  ByzRole role{0, ByzMode::kNanBomb, 1.0, 1, sim::kNoRoundLimit};
  std::vector<float> p(7, 1.0f);
  sim::corrupt_payload(role, 7, 0, 1, sim::hash_tag("xg@1"), p);
  for (float x : p) EXPECT_FALSE(std::isfinite(x));
}

TEST(CorruptPayload, NoiseIsAPureFunctionOfMessageIdentity) {
  ByzRole role{0, ByzMode::kNoise, 1.0, 1, sim::kNoRoundLimit};
  std::vector<float> a(8, 0.0f), b(8, 0.0f), c(8, 0.0f);
  sim::corrupt_payload(role, 7, 0, 1, sim::hash_tag("xg@1"), a);
  sim::corrupt_payload(role, 7, 0, 1, sim::hash_tag("xg@1"), b);
  sim::corrupt_payload(role, 7, 0, 1, sim::hash_tag("xg@2"), c);
  EXPECT_EQ(a, b);  // identical identity -> identical noise, any call order
  EXPECT_NE(a, c);  // a different message draws a different stream
  for (float x : a) EXPECT_TRUE(std::isfinite(x));
}

TEST(CorruptPayload, HashTagIsStableAndSensitive) {
  EXPECT_EQ(sim::hash_tag("xg@1"), sim::hash_tag("xg@1"));
  EXPECT_NE(sim::hash_tag("xg@1"), sim::hash_tag("xg@2"));
  EXPECT_NE(sim::hash_tag(""), sim::hash_tag("x"));
}

// ---------------------------------------------------------------------------
// Network integration: channel gating + stale replay
// ---------------------------------------------------------------------------

TEST(NetworkByzantine, RoleNamingAnAgentOutsideTheTopologyIsRefused) {
  // Such a role attacks nobody, yet it makes AdversaryPlan::any() true, so
  // sanitize=auto would screen a fleet with no attacker.
  const auto topo = graph::Graph::full(3);
  NetworkOptions opts;
  opts.adversary.roles.push_back(ByzRole{3, ByzMode::kSignFlip, 3.0, 1, sim::kNoRoundLimit});
  try {
    Network net(topo, opts);
    ADD_FAILURE() << "a role for agent 3 of 3 was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("role names agent 3"), std::string::npos) << e.what();
  }
  opts.adversary.roles[0].agent = 2;
  EXPECT_NO_THROW({ const Network net(topo, opts); });
}

TEST(NetworkByzantine, StateChannelIsNeverCorrupted) {
  const auto topo = graph::Graph::full(3);
  NetworkOptions opts;
  opts.adversary.frac = 0.4;  // agent 0 attacks
  opts.adversary.mode = ByzMode::kSignFlip;
  Network net(topo, opts);
  net.begin_round(1);
  const std::vector<float> payload{1.0f, 2.0f};
  net.send(0, 1, "x@1", payload, Channel::kState);
  net.send(0, 1, "xg@1", payload, Channel::kContribution);
  EXPECT_EQ(*net.receive(1, 0, "x@1"), payload);
  EXPECT_EQ(*net.receive(1, 0, "xg@1"), (std::vector<float>{-3.0f, -6.0f}));
  EXPECT_EQ(net.messages_corrupted(), 1u);
}

TEST(NetworkByzantine, HonestSendersAreUntouchedOnEveryChannel) {
  const auto topo = graph::Graph::full(3);
  NetworkOptions opts;
  opts.adversary.frac = 0.4;  // agent 0 attacks; 1 and 2 are honest
  opts.adversary.mode = ByzMode::kSignFlip;
  Network net(topo, opts);
  net.begin_round(1);
  const std::vector<float> payload{1.0f, 2.0f};
  net.send(1, 2, "xg@1", payload, Channel::kContribution);
  EXPECT_EQ(*net.receive(2, 1, "xg@1"), payload);
  EXPECT_EQ(net.messages_corrupted(), 0u);
}

TEST(NetworkByzantine, StaleReplayResendsTheFirstRecordedPayload) {
  const auto topo = graph::Graph::full(2);
  NetworkOptions opts;
  opts.adversary.roles.push_back(
      ByzRole{0, ByzMode::kStaleReplay, 1.0, 1, sim::kNoRoundLimit});
  Network net(topo, opts);
  net.begin_round(1);
  net.send(0, 1, "xg@1", {1.0f}, Channel::kContribution);
  EXPECT_EQ(*net.receive(1, 0, "xg@1"), std::vector<float>{1.0f});  // recorded
  EXPECT_EQ(net.messages_corrupted(), 0u);
  net.begin_round(2);
  net.send(0, 1, "xg@2", {2.0f}, Channel::kContribution);
  // Round 2's payload is replaced by the round-1 recording (tag kind "xg").
  EXPECT_EQ(*net.receive(1, 0, "xg@2"), std::vector<float>{1.0f});
  EXPECT_EQ(net.messages_corrupted(), 1u);
  net.begin_round(3);
  net.send(0, 1, "xg@3", {3.0f}, Channel::kContribution);
  EXPECT_EQ(*net.receive(1, 0, "xg@3"), std::vector<float>{1.0f});
  EXPECT_EQ(net.messages_corrupted(), 2u);
}

// ---------------------------------------------------------------------------
// Defense screening end to end
// ---------------------------------------------------------------------------

TEST(Defense, EmptyPlanKeepsSanitizationOffAndRunsBitIdentical) {
  // kAuto must resolve to "off" with no adversary configured, taking the
  // exact pre-defense receive path: forcing kOff must change nothing.
  ExperimentConfig cfg = tiny_config("pdsl");
  const ExperimentResult a = core::run_experiment(cfg);
  cfg.defense.sanitize = algos::DefenseOptions::Sanitize::kOff;
  const ExperimentResult b = core::run_experiment(cfg);
  EXPECT_EQ(a.average_model, b.average_model);
  EXPECT_EQ(a.corrupted, 0u);
  EXPECT_EQ(a.rejected, 0u);
  EXPECT_EQ(a.reclipped, 0u);
}

TEST(Defense, EveryAlgorithmStaysFiniteUnderTheNanBomb) {
  for (const char* alg :
       {"pdsl", "pdsl_uniform", "dp_dpsgd", "muffliato", "dp_cga", "dp_netfleet",
        "async_dp_gossip", "dp_qgm", "fedavg", "dpsgd", "dmsgd"}) {
    SCOPED_TRACE(alg);
    ExperimentConfig cfg = tiny_config(alg);
    cfg.adversary.frac = 0.25;
    cfg.adversary.mode = ByzMode::kNanBomb;
    const ExperimentResult res = core::run_experiment(cfg);
    EXPECT_TRUE(all_finite(res.average_model));
    EXPECT_TRUE(std::isfinite(res.final_loss));
  }
}

TEST(Defense, SanitizationRejectsNanBombsAndCountsThem) {
  ExperimentConfig cfg = tiny_config("pdsl");
  cfg.adversary.frac = 0.25;
  cfg.adversary.mode = ByzMode::kNanBomb;
  const ExperimentResult res = core::run_experiment(cfg);
  EXPECT_GT(res.corrupted, 0u);
  EXPECT_GT(res.rejected, 0u);
  EXPECT_TRUE(all_finite(res.average_model));
  // Without screening the NaNs reach the aggregation and poison the fleet —
  // the counters and the finite model above are what the defense buys.
  cfg.defense.sanitize = algos::DefenseOptions::Sanitize::kOff;
  const ExperimentResult undefended = core::run_experiment(cfg);
  EXPECT_FALSE(all_finite(undefended.average_model));
}

TEST(Defense, RobustAggregationShieldsTheGossipBaseline) {
  // dp_dpsgd's model gossip is its contribution channel: a sign-flip attacker
  // injects -3x models into every neighbor average. Coordinate-median
  // aggregation must hold the fleet together where plain W-averaging sinks.
  ExperimentConfig plain = tiny_config("dp_dpsgd");
  plain.rounds = 8;
  plain.metrics.eval_every = 8;
  plain.adversary.frac = 0.25;
  plain.adversary.mode = ByzMode::kScale;
  plain.adversary.scale = 25.0;  // inflation attack: huge bogus models
  ExperimentConfig robust = plain;
  robust.defense.robust_agg = algos::DefenseOptions::RobustAgg::kMedian;
  const ExperimentResult a = core::run_experiment(plain);
  const ExperimentResult b = core::run_experiment(robust);
  // The median ignores the inflated minority entirely; plain averaging blows
  // the consensus distance up by the attack magnitude.
  ASSERT_FALSE(a.series.empty());
  ASSERT_FALSE(b.series.empty());
  EXPECT_LT(b.series.back().consensus, a.series.back().consensus);
  EXPECT_TRUE(all_finite(b.average_model));
}

// ---------------------------------------------------------------------------
// Determinism contract for attacked runs
// ---------------------------------------------------------------------------

TEST(ByzantineDeterminism, AttackedRunsAreBitIdenticalAcrossThreadsAndReruns) {
  ExperimentConfig cfg = tiny_config("pdsl");
  cfg.adversary.frac = 0.25;
  cfg.adversary.mode = ByzMode::kNoise;  // the only mode that draws noise
  cfg.adversary.scale = 2.0;
  const ExperimentResult first = core::run_experiment(cfg);
  const ExperimentResult rerun = core::run_experiment(cfg);
  cfg.threads = 4;
  const ExperimentResult wide = core::run_experiment(cfg);
  EXPECT_EQ(first.average_model, rerun.average_model);
  EXPECT_EQ(first.average_model, wide.average_model);
  EXPECT_EQ(first.corrupted, wide.corrupted);
  ASSERT_EQ(first.series.size(), wide.series.size());
  for (std::size_t r = 0; r < first.series.size(); ++r) {
    EXPECT_EQ(first.series[r].avg_loss, wide.series[r].avg_loss) << r;
    EXPECT_EQ(first.series[r].pi_attacker, wide.series[r].pi_attacker) << r;
    EXPECT_EQ(first.series[r].pi_honest, wide.series[r].pi_honest) << r;
    EXPECT_EQ(first.series[r].rejected, wide.series[r].rejected) << r;
  }
}

// ---------------------------------------------------------------------------
// The headline defense result (acceptance criteria)
// ---------------------------------------------------------------------------

TEST(ShapleyDefense, AttackerEdgeWeightsCollapseByRoundTen) {
  // 25% sign-flip attackers on mnist_like. The robust PDSL configuration
  // (loss characteristic + ReLU normalization — the repo's documented fix for
  // the flat-accuracy cold start) drives attacker-edge pi far below
  // honest-edge pi within ten rounds.
  ExperimentConfig cfg = attacked_config("pdsl_robust");
  const ExperimentResult res = core::run_experiment(cfg);
  ASSERT_GE(res.series.size(), 12u);
  const auto& r10 = res.series[9];
  EXPECT_GT(r10.byz_active, 0u);
  EXPECT_LT(r10.pi_attacker, r10.pi_honest);
  double att = 0.0, hon = 0.0;
  for (std::size_t r = 9; r < 12; ++r) {
    att += res.series[r].pi_attacker;
    hon += res.series[r].pi_honest;
  }
  EXPECT_LT(att, 0.5 * hon);  // collapsed, not merely below
}

TEST(ShapleyDefense, PdslBeatsUnweightedGossipUnderTheSameAttack) {
  const ExperimentResult pdsl = core::run_experiment(attacked_config("pdsl"));
  const ExperimentResult dpsgd = core::run_experiment(attacked_config("dp_dpsgd"));
  // dp_dpsgd averages the flipped models straight in and stays at chance
  // (~0.1); PDSL's weighting keeps learning through the attack.
  EXPECT_GT(pdsl.final_accuracy, dpsgd.final_accuracy + 0.15);
  EXPECT_GT(pdsl.final_accuracy, 0.25);
}

// ---------------------------------------------------------------------------
// S-RECOV x S-BYZ: adversarial corruption rides the unreliable channel
// ---------------------------------------------------------------------------

TEST(NetworkByzantine, CorruptedPayloadMaturesThroughTheDelayBuffer) {
  // A Byzantine sign-flip is *semantic* corruption: it happens before the
  // wire, so the checksum sees a consistent frame and the transport carries
  // the poisoned payload faithfully — including through the pending-delay
  // buffer and around any bit-flip/retransmit cycles the channel injects.
  const auto topo = graph::Graph::full(2);
  NetworkOptions opts;
  opts.adversary.frac = 0.5;  // agent 0 attacks
  opts.adversary.mode = ByzMode::kSignFlip;
  opts.faults.delay_prob = 0.8;
  opts.faults.delay_rounds = 2;
  opts.channel.corrupt_prob = 0.3;
  opts.channel.max_retries = 16;
  Network net(topo, opts);
  net.begin_round(1);
  const std::vector<float> flipped{-3.0f, -6.0f};
  const std::size_t kMsgs = 20;
  for (std::size_t k = 0; k < kMsgs; ++k) {
    ASSERT_TRUE(net.send(0, 1, "xg@1/" + std::to_string(k), {1.0f, 2.0f},
                         Channel::kContribution));
  }
  std::size_t now = 0;
  for (std::size_t k = 0; k < kMsgs; ++k) {
    const std::string tag = "xg@1/" + std::to_string(k);
    if (const auto got = net.receive(1, 0, tag)) {
      EXPECT_EQ(*got, flipped) << tag;
      ++now;
    }
  }
  EXPECT_GT(net.in_flight(), 0u);  // the delay knob actually fired
  std::size_t late = 0;
  for (std::size_t t = 2; t <= 14 && net.in_flight() > 0; ++t) {
    for (const auto& m : net.begin_round(t)) {
      EXPECT_EQ(m.payload, flipped) << m.tag;  // still poisoned after maturing
      ++late;
    }
  }
  EXPECT_EQ(now + late, kMsgs);  // nothing lost, nothing double-delivered
  EXPECT_EQ(net.messages_corrupted(), kMsgs);  // one Byz event per message
  // Every checksum-caught bit flip triggered exactly one retransmission and
  // never surfaced anywhere — the only corruption a receiver ever sees is
  // the adversary's, which the checksum cannot (and must not) flag.
  EXPECT_GT(net.corruptions_detected(), 0u);
  EXPECT_EQ(net.corruptions_detected(), net.retransmits());
  EXPECT_EQ(net.retry_exhausted(), 0u);
}
