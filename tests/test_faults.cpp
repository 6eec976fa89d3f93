// S-FAULT unit tests: FaultPlan hash determinism (drop/delay/churn decisions
// identical at any thread width), delayed-delivery maturation order through
// Network::begin_round, churn round-interval semantics, Network::clear()
// accounting with in-flight delayed messages, and the graceful-degradation
// paths in PDSL (pi renormalization over survivors, bounded-staleness reuse,
// self-gradient fallback) plus the unread-mailbox protocol-bug detector.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <tuple>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "common/schema.hpp"
#include "core/experiment.hpp"
#include "core/pdsl.hpp"
#include "data/partition.hpp"
#include "data/synthetic.hpp"
#include "nn/model_zoo.hpp"
#include "runtime/parallel_for.hpp"
#include "sim/faults.hpp"
#include "sim/network.hpp"

using namespace pdsl;
using namespace pdsl::algos;
using pdsl::core::Pdsl;
using pdsl::sim::EdgeFaultRule;
using pdsl::sim::FaultPlan;
using pdsl::sim::LateMessage;
using pdsl::sim::NetCounters;
using pdsl::sim::Network;
using pdsl::sim::NetworkOptions;

namespace {

struct Fixture {
  data::Dataset train;
  data::Dataset validation;
  data::Dataset test;
  graph::Graph topo;
  graph::Metropolis mixing;
  nn::Model model;
  std::vector<std::vector<std::size_t>> partition;

  static Fixture make(std::size_t agents, const std::string& topology,
                      std::uint64_t seed = 31) {
    Rng rng(seed);
    auto pool = data::make_gaussian_mixture(600, 4, 6, 2.5, 0.5, seed);
    auto [rest, test] = data::split_off(pool, 100, rng);
    auto [train, validation] = data::split_off(rest, 100, rng);
    auto topo = graph::Graph::make(topology, agents, {&rng});
    auto mixing = graph::Metropolis(topo);
    nn::Model model = nn::make_mlp(6, 10, 4);
    auto partition = data::iid_partition(train, agents, rng);
    return Fixture{std::move(train), std::move(validation), std::move(test),
                   std::move(topo),  std::move(mixing),     std::move(model),
                   std::move(partition)};
  }

  Env env() const {
    Env e;
    e.topo = &topo;
    e.mixing = &mixing;
    e.train = &train;
    e.validation = &validation;
    e.model_template = &model;
    e.partition = &partition;
    e.hp.gamma = 0.05;
    e.hp.alpha = 0.5;
    e.hp.clip = 5.0;
    e.hp.batch = 16;
    e.hp.shapley_permutations = 4;
    e.hp.validation_batch = 32;
    e.seed = 13;
    return e;
  }

  /// One EdgeFaultRule per directed inter-agent pair.
  std::vector<EdgeFaultRule> all_edges_rule(double p, std::size_t from_round = 0,
                                            std::size_t until = sim::kNoRoundLimit) const {
    std::vector<EdgeFaultRule> rules;
    const std::size_t m = topo.size();
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t j = 0; j < m; ++j) {
        if (i != j) rules.push_back(EdgeFaultRule{i, j, p, from_round, until});
      }
    }
    return rules;
  }
};

}  // namespace

// ---------------------------------------------------------------------------
// FaultPlan: validation + JSON
// ---------------------------------------------------------------------------

TEST(FaultPlan, ValidateRejectsOutOfRangeKnobs) {
  {
    FaultPlan p;
    p.drop_prob = 1.0;  // global probabilities live in [0, 1)
    EXPECT_THROW(p.validate(), std::invalid_argument);
  }
  {
    FaultPlan p;
    p.delay_prob = -0.1;
    EXPECT_THROW(p.validate(), std::invalid_argument);
  }
  {
    FaultPlan p;
    p.churn_prob = 0.2;
    p.churn_interval = 0;
    EXPECT_THROW(p.validate(), std::invalid_argument);
  }
  {
    FaultPlan p;
    p.edge_rules.push_back(EdgeFaultRule{0, 1, 0.5, 5, 5});  // empty window
    EXPECT_THROW(p.validate(), std::invalid_argument);
  }
  {
    FaultPlan p;  // edge rules may pin drop_prob to exactly 1.0
    p.edge_rules.push_back(EdgeFaultRule{0, 1, 1.0, 1, 4});
    EXPECT_NO_THROW(p.validate());
  }
}

TEST(FaultPlan, JsonRoundTripPreservesEveryKnob) {
  FaultPlan p;
  p.drop_prob = 0.1;
  p.delay_prob = 0.25;
  p.delay_rounds = 2;
  p.churn_prob = 0.3;
  p.churn_interval = 4;
  p.staleness_rounds = 3;
  p.seed = 99;
  p.edge_rules.push_back(EdgeFaultRule{1, 2, 0.75, 3, 8});

  const FaultPlan q = schema::from_json<FaultPlan>(schema::to_json(p));
  EXPECT_DOUBLE_EQ(q.drop_prob, p.drop_prob);
  EXPECT_DOUBLE_EQ(q.delay_prob, p.delay_prob);
  EXPECT_EQ(q.delay_rounds, p.delay_rounds);
  EXPECT_DOUBLE_EQ(q.churn_prob, p.churn_prob);
  EXPECT_EQ(q.churn_interval, p.churn_interval);
  EXPECT_EQ(q.staleness_rounds, p.staleness_rounds);
  EXPECT_EQ(q.seed, p.seed);
  ASSERT_EQ(q.edge_rules.size(), 1u);
  EXPECT_EQ(q.edge_rules[0].src, 1u);
  EXPECT_EQ(q.edge_rules[0].dst, 2u);
  EXPECT_DOUBLE_EQ(q.edge_rules[0].drop_prob, 0.75);
  EXPECT_EQ(q.edge_rules[0].from_round, 3u);
  EXPECT_EQ(q.edge_rules[0].until_round, 8u);
}

TEST(FaultPlan, JsonRejectsUnknownKeys) {
  const auto v = json::parse(R"({"drop_prob": 0.1, "not_a_knob": 1})");
  EXPECT_THROW(schema::from_json<FaultPlan>(v), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// FaultPlan: hash determinism
// ---------------------------------------------------------------------------

TEST(FaultPlan, DecisionsArePureFunctionsOfIdentity) {
  FaultPlan p;
  p.drop_prob = 0.3;
  p.delay_prob = 0.3;
  p.delay_rounds = 3;
  p.churn_prob = 0.3;
  p.churn_interval = 2;
  p.seed = 7;

  // Record a batch of decisions, then re-query in reverse order: identical.
  std::vector<int> first;
  for (std::size_t src = 0; src < 4; ++src)
    for (std::size_t dst = 0; dst < 4; ++dst)
      for (std::uint64_t idx = 0; idx < 16; ++idx) {
        first.push_back(p.drop(src, dst, idx, 1) ? 1 : 0);
        first.push_back(static_cast<int>(p.delay(src, dst, idx)));
        first.push_back(p.offline(src, idx + 1) ? 1 : 0);
      }
  // Re-query from a copied plan (after the full first sweep): a pure function
  // of (seed, identity, index) gives the same answers regardless of what was
  // asked before.
  std::vector<int> second;
  FaultPlan copy = p;
  for (std::size_t src = 0; src < 4; ++src)
    for (std::size_t dst = 0; dst < 4; ++dst)
      for (std::uint64_t idx = 0; idx < 16; ++idx) {
        second.push_back(copy.drop(src, dst, idx, 1) ? 1 : 0);
        second.push_back(static_cast<int>(copy.delay(src, dst, idx)));
        second.push_back(copy.offline(src, idx + 1) ? 1 : 0);
      }
  EXPECT_EQ(first, second);

  // Delay is bounded: 0 or in [1, delay_rounds].
  for (std::uint64_t idx = 0; idx < 200; ++idx) {
    const std::size_t d = p.delay(0, 1, idx);
    EXPECT_LE(d, p.delay_rounds);
  }
}

TEST(FaultPlan, LegacyDropKnobReproducesHistoricDropStream) {
  // ExperimentConfig::drop_prob predates FaultPlan; run_experiment folds it
  // into faults.drop_prob, so the legacy knob must reproduce the run a
  // FaultPlan configured directly makes, bit for bit.
  core::ExperimentConfig legacy;
  legacy.model = "logistic";
  legacy.image = 6;
  legacy.agents = 4;
  legacy.rounds = 3;
  legacy.train_samples = 160;
  legacy.test_samples = 40;
  legacy.validation_samples = 40;
  legacy.hp.batch = 8;
  legacy.hp.shapley_permutations = 2;
  legacy.hp.validation_batch = 16;
  legacy.sigma_mode = "none";
  legacy.metrics.eval_every = 0;
  core::ExperimentConfig modern = legacy;
  legacy.drop_prob = 0.3;
  modern.faults.drop_prob = 0.3;
  const auto a = core::run_experiment(legacy);
  const auto b = core::run_experiment(modern);
  EXPECT_GT(a.dropped, 0u);
  EXPECT_LT(a.dropped, a.messages);
  EXPECT_EQ(a.dropped, b.dropped);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.average_model, b.average_model);

  // A plan that sets its own drop probability wins over the legacy knob.
  legacy.faults.drop_prob = 0.1;
  modern.faults.drop_prob = 0.1;
  const auto c = core::run_experiment(legacy);
  const auto d = core::run_experiment(modern);
  EXPECT_EQ(c.dropped, d.dropped);
  EXPECT_EQ(c.average_model, d.average_model);

  legacy.drop_prob = 1.0;  // the knob keeps its [0,1) range
  EXPECT_THROW((void)core::run_experiment(legacy), std::invalid_argument);
}

TEST(FaultPlan, ChurnIsConstantWithinAnIntervalAndRehashedAcross) {
  FaultPlan p;
  p.churn_prob = 0.5;
  p.churn_interval = 3;
  p.seed = 11;

  bool saw_offline = false, saw_online = false, saw_flip = false;
  for (std::size_t agent = 0; agent < 16; ++agent) {
    std::vector<bool> per_interval;
    for (std::size_t k = 0; k < 6; ++k) {
      const std::size_t lo = 1 + k * p.churn_interval;
      const bool off = p.offline(agent, lo);
      // Every round of interval k agrees with its first round.
      for (std::size_t r = lo; r < lo + p.churn_interval; ++r) {
        EXPECT_EQ(p.offline(agent, r), off) << "agent " << agent << " round " << r;
      }
      per_interval.push_back(off);
      (off ? saw_offline : saw_online) = true;
    }
    for (std::size_t k = 1; k < per_interval.size(); ++k) {
      if (per_interval[k] != per_interval[k - 1]) saw_flip = true;
    }
  }
  // With churn_prob=0.5 over 16 agents x 6 intervals the hash must produce
  // both outcomes and at least one cross-interval flip (deterministic: these
  // are fixed facts of seed 11, not a statistical claim).
  EXPECT_TRUE(saw_offline);
  EXPECT_TRUE(saw_online);
  EXPECT_TRUE(saw_flip);

  FaultPlan off;  // churn disabled => nobody is ever offline
  off.churn_prob = 0.0;
  off.seed = 11;
  for (std::size_t agent = 0; agent < 8; ++agent)
    for (std::size_t r = 1; r <= 10; ++r) EXPECT_FALSE(off.offline(agent, r));
}

// ---------------------------------------------------------------------------
// Network: delayed delivery + clear() accounting
// ---------------------------------------------------------------------------

TEST(NetworkFaults, EdgeRuleNamingAnAgentOutsideTheTopologyIsRefused) {
  // Such a rule would never match any message, so the run would silently
  // carry no injected fault at all.
  const auto topo = graph::Graph::full(3);
  for (const auto& rule : {EdgeFaultRule{3, 0, 0.5, 0, sim::kNoRoundLimit},
                           EdgeFaultRule{0, 7, 0.5, 0, sim::kNoRoundLimit}}) {
    NetworkOptions opts;
    opts.faults.edge_rules.push_back(rule);
    try {
      Network net(topo, opts);
      ADD_FAILURE() << "rule " << rule.src << "->" << rule.dst << " was accepted";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("edge rule " + std::to_string(rule.src) + "->" +
                          std::to_string(rule.dst)),
                std::string::npos)
          << what;
    }
  }
  NetworkOptions ok;
  ok.faults.edge_rules.push_back(EdgeFaultRule{2, 0, 0.5, 0, sim::kNoRoundLimit});
  EXPECT_NO_THROW({ const Network net(topo, ok); });
}

TEST(NetworkFaults, DelayedMessagesMatureInDeterministicOrder) {
  const auto topo = graph::Graph::full(3);
  NetworkOptions opts;
  opts.faults.delay_prob = 0.9;
  opts.faults.delay_rounds = 2;
  opts.faults.seed = 17;
  Network net(topo, opts);

  EXPECT_TRUE(net.begin_round(1).empty());
  std::size_t immediate = 0;
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = 0; j < 3; ++j) {
      if (i == j) continue;
      ASSERT_TRUE(net.send(i, j, "m", {static_cast<float>(10 * i + j)}));
      if (net.receive(j, i, "m")) ++immediate;
    }
  EXPECT_GT(net.counters().delayed, 0u);
  EXPECT_EQ(net.in_flight(), net.counters().delayed);
  // In-flight delayed messages are legitimately in transit: clear() must not
  // count or discard them.
  EXPECT_EQ(net.clear(), 0u);
  EXPECT_EQ(net.in_flight(), net.counters().delayed);

  std::size_t matured = 0;
  for (std::size_t t = 2; t <= 1 + opts.faults.delay_rounds; ++t) {
    const auto late = net.begin_round(t);
    for (std::size_t k = 1; k < late.size(); ++k) {
      const auto& a = late[k - 1];
      const auto& b = late[k];
      const auto ka = std::make_tuple(a.src, a.dst, a.tag);
      const auto kb = std::make_tuple(b.src, b.dst, b.tag);
      EXPECT_LE(ka, kb) << "matured messages not sorted by (src, dst, tag)";
    }
    for (const auto& msg : late) {
      EXPECT_EQ(msg.sent_round, 1u);
      ASSERT_EQ(msg.payload.size(), 1u);
      EXPECT_FLOAT_EQ(msg.payload[0], static_cast<float>(10 * msg.src + msg.dst));
    }
    matured += late.size();
  }
  // Delay is bounded: everything sent in round 1 surfaced by round 1+max.
  EXPECT_EQ(immediate + matured, net.counters().messages);
  EXPECT_EQ(net.in_flight(), 0u);
  EXPECT_EQ(net.counters().dropped, 0u);
}

TEST(NetworkFaults, ChurnDropsTrafficToAndFromOfflineAgents) {
  const auto topo = graph::Graph::full(6);
  NetworkOptions opts;
  opts.faults.churn_prob = 0.4;
  opts.faults.churn_interval = 2;
  // Pick the first seed whose round-1 interval has both offline and online
  // agents (a fixed, deterministic choice — just made without hardcoding a
  // magic hash preimage).
  for (std::uint64_t seed = 1;; ++seed) {
    opts.faults.seed = seed;
    std::size_t off = 0;
    for (std::size_t a = 0; a < 6; ++a)
      if (opts.faults.offline(a, 1)) ++off;
    if (off > 0 && off < 6) break;
    ASSERT_LT(seed, 1000u) << "no seed churns anyone out?";
  }
  Network net(topo, opts);

  net.begin_round(1);
  const auto& plan = net.faults();
  for (std::size_t i = 0; i < 6; ++i)
    for (std::size_t j = 0; j < 6; ++j) {
      if (i == j) continue;
      const bool delivered = net.send(i, j, "x", {1.0f});
      const bool endpoint_offline = plan.offline(i, 1) || plan.offline(j, 1);
      EXPECT_EQ(delivered, !endpoint_offline) << i << "->" << j;
    }
  EXPECT_GT(net.counters().dropped, 0u);
  net.clear();
}

// ---------------------------------------------------------------------------
// PDSL graceful degradation
// ---------------------------------------------------------------------------

TEST(PdslFaults, PiRenormalizesToUnityOverSurvivors) {
  const auto fx = Fixture::make(5, "full");
  Env env = fx.env();
  env.faults.drop_prob = 0.3;
  env.faults.seed = 41;
  Pdsl alg(env);

  bool saw_renormalized_row = false;
  for (std::size_t t = 1; t <= 3; ++t) {
    alg.run_round(t);
    for (std::size_t i = 0; i < alg.num_agents(); ++i) {
      const auto hood = fx.topo.closed_neighborhood(i);
      const auto& pi = alg.last_pi()[i];
      ASSERT_EQ(pi.size(), hood.size());
      std::size_t survivors = 0;
      double sum = 0.0;
      for (std::size_t k = 0; k < hood.size(); ++k) {
        if (pi[k] != 0.0) ++survivors;
        sum += pi[k] * fx.mixing(i, hood[k]);
      }
      if (survivors >= 2) {
        // Eq. 20 renormalized over the present subset: sum_k pi_k w_ik = 1.
        EXPECT_NEAR(sum, 1.0, 1e-9) << "agent " << i << " round " << t;
        if (survivors < hood.size()) saw_renormalized_row = true;
      }
    }
  }
  EXPECT_GT(alg.network().counters().dropped, 0u);
  EXPECT_TRUE(saw_renormalized_row)
      << "drop_prob=0.3 over 3 rounds never produced a partial neighborhood";
}

TEST(PdslFaults, SelfFallbackWhenEveryNeighborFails) {
  const auto fx = Fixture::make(4, "full");
  Env env = fx.env();
  env.faults.edge_rules = fx.all_edges_rule(1.0);  // sever every link
  env.faults.seed = 41;
  Pdsl alg(env);

  alg.run_round(1);
  EXPECT_EQ(alg.fault_stats().self_fallbacks, 4u);
  EXPECT_EQ(alg.fault_stats().stale_reused, 0u);
  for (std::size_t i = 0; i < 4; ++i) {
    const auto hood = fx.topo.closed_neighborhood(i);
    const auto& pi = alg.last_pi()[i];
    for (std::size_t k = 0; k < hood.size(); ++k) {
      EXPECT_DOUBLE_EQ(pi[k], hood[k] == i ? 1.0 : 0.0) << "agent " << i;
    }
    for (float v : alg.models()[i]) ASSERT_TRUE(std::isfinite(v));
  }
}

TEST(PdslFaults, StaleCrossGradientsReusedThenExpired) {
  const auto fx = Fixture::make(4, "full");
  Env env = fx.env();
  // Round 1 is clean (caches fill); every link is severed from round 2 on.
  env.faults.edge_rules = fx.all_edges_rule(1.0, /*from_round=*/2);
  env.faults.staleness_rounds = 1;
  env.faults.seed = 41;
  Pdsl alg(env);

  alg.run_round(1);
  EXPECT_EQ(alg.fault_stats().stale_reused, 0u);
  EXPECT_EQ(alg.fault_stats().self_fallbacks, 0u);

  // Round 2: fresh cross-gradients are gone, but every cache entry is exactly
  // 1 round old (= the staleness bound), so all 4 agents x 3 neighbors reuse.
  alg.run_round(2);
  EXPECT_EQ(alg.fault_stats().stale_reused, 12u);
  EXPECT_EQ(alg.fault_stats().self_fallbacks, 0u);

  // Round 3: the cached gradients are now 2 rounds old -> expired; with no
  // fresh arrivals either, every agent falls back to its own gradient.
  alg.run_round(3);
  EXPECT_EQ(alg.fault_stats().stale_reused, 0u);
  EXPECT_EQ(alg.fault_stats().self_fallbacks, 4u);
  for (const auto& m : alg.models())
    for (float v : m) ASSERT_TRUE(std::isfinite(v));
}

TEST(PdslFaults, BitIdenticalAcrossThreadWidths) {
  // The S-RT determinism contract must survive every fault axis at once:
  // the fault set is a pure hash, so threads=4 replays threads=1 exactly.
  const auto fx = Fixture::make(5, "full");
  Env env = fx.env();
  env.faults.drop_prob = 0.2;
  env.faults.delay_prob = 0.3;
  env.faults.delay_rounds = 2;
  env.faults.churn_prob = 0.2;
  env.faults.churn_interval = 2;
  env.faults.staleness_rounds = 2;
  env.faults.seed = 41;

  const std::size_t before = runtime::global_threads();
  runtime::set_global_threads(1);
  Pdsl seq(env);
  for (std::size_t t = 1; t <= 4; ++t) seq.run_round(t);

  runtime::set_global_threads(4);
  Pdsl par(env);
  for (std::size_t t = 1; t <= 4; ++t) par.run_round(t);
  runtime::set_global_threads(before);

  EXPECT_EQ(seq.models(), par.models());
  EXPECT_EQ(seq.network().counters().dropped, par.network().counters().dropped);
  EXPECT_EQ(seq.network().counters().delayed, par.network().counters().delayed);
  EXPECT_GT(seq.network().counters().dropped, 0u);
}

TEST(PdslFaults, ZeroFaultPlanMatchesLegacyCleanRun) {
  // All knobs at zero must be byte-identical to a default-constructed run —
  // the degradation machinery may not perturb the fault-free path.
  const auto fx = Fixture::make(4, "ring");
  Pdsl clean(fx.env());
  Env env = fx.env();
  env.faults = sim::FaultPlan{};  // explicit all-zero plan
  Pdsl planned(env);
  for (std::size_t t = 1; t <= 3; ++t) {
    clean.run_round(t);
    planned.run_round(t);
  }
  EXPECT_EQ(clean.models(), planned.models());
  EXPECT_EQ(clean.network().counters().dropped, 0u);
  EXPECT_EQ(planned.network().counters().delayed, 0u);
}

// ---------------------------------------------------------------------------
// Unread-mailbox protocol-bug detector
// ---------------------------------------------------------------------------

namespace {

/// Deliberately buggy protocol: sends a message every round and never reads
/// it, which run_round() must catch when it clears the mailboxes.
class LeakyAlgorithm final : public Algorithm {
 public:
  explicit LeakyAlgorithm(const Env& env) : Algorithm(env) {}
  [[nodiscard]] std::string name() const override { return "leaky"; }

 protected:
  void round_impl(std::size_t) override {
    const auto hood = neighbors(0);
    ASSERT_FALSE(hood.empty());
    network().send(0, hood.front(), "leak", {1.0f, 2.0f});
  }
};

}  // namespace

TEST(ProtocolBugDetector, UnreadMailboxIsCaught) {
  const auto fx = Fixture::make(4, "ring");
  const Env env = fx.env();
#ifdef NDEBUG
  // Release builds count the leak (and keep running) instead of asserting.
  LeakyAlgorithm alg(env);
  alg.run_round(1);
  EXPECT_EQ(alg.unread_cleared(), 1u);
  alg.run_round(2);
  EXPECT_EQ(alg.unread_cleared(), 2u);
  // run_round already cleared the mailboxes, so the leak never accumulates.
  EXPECT_EQ(alg.network().clear(), 0u);
#else
  EXPECT_DEATH(
      {
        LeakyAlgorithm alg(env);
        alg.run_round(1);
      },
      "unread");
#endif
}

TEST(ProtocolBugDetector, CleanProtocolReportsZero) {
  const auto fx = Fixture::make(4, "full");
  Env env = fx.env();
  env.faults.drop_prob = 0.25;  // faults must not trip the detector either
  env.faults.seed = 41;
  Pdsl alg(env);
  for (std::size_t t = 1; t <= 3; ++t) alg.run_round(t);
  EXPECT_EQ(alg.unread_cleared(), 0u);
}

// ---------------------------------------------------------------------------
// S-RECOV: channel impairments compose with benign faults
// ---------------------------------------------------------------------------

TEST(NetworkFaults, ChannelCorruptionCountsExactlyOnceAndNeverLeaks) {
  // Drops (S-FAULT) and checksum-caught corruption (S-RECOV) are different
  // failures with different counters: every send is classified exactly once
  // as delivered, in flight, faulted away, or lost to retry exhaustion, and
  // a detected corruption is answered by exactly one retransmission or one
  // exhaustion — a corrupted frame never reaches a mailbox.
  const auto topo = graph::Graph::full(2);
  NetworkOptions opts;
  opts.seed = 13;
  opts.faults.drop_prob = 0.2;
  opts.channel.corrupt_prob = 0.4;
  opts.channel.max_retries = 1;  // tight budget: exhaustion is reachable
  Network net(topo, opts);
  net.begin_round(1);
  const std::vector<float> payload{5.0f, 6.0f, 7.0f};
  const std::size_t kMsgs = 120;
  for (std::size_t k = 0; k < kMsgs; ++k) {
    net.send(0, 1, "c@" + std::to_string(k), payload);
  }
  std::size_t delivered = 0;
  for (std::size_t k = 0; k < kMsgs; ++k) {
    const std::string tag = "c@" + std::to_string(k);
    if (const auto got = net.receive(1, 0, tag)) {
      EXPECT_EQ(*got, payload) << tag;  // survivors are bit-intact
      ++delivered;
    }
  }
  const NetCounters c = net.counters();
  EXPECT_GT(c.corrupt_detected, 0u);
  EXPECT_GT(c.retransmits, 0u);
  EXPECT_GT(c.retry_exhausted, 0u);
  // Exactly-one-counter: each detection is either retransmitted or terminal.
  EXPECT_EQ(c.corrupt_detected, c.retransmits + c.retry_exhausted);
  // Exactly-one-outcome: dropped counts both fault drops and exhausted
  // messages; everything else was delivered now or is maturing via backoff.
  EXPECT_EQ(delivered + net.in_flight() + c.dropped, kMsgs);
  EXPECT_GE(c.dropped, c.retry_exhausted);
}
