// JSON parser/writer and the ExperimentConfig/Result (de)serialization.

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/json.hpp"
#include "common/schema.hpp"
#include "core/config_io.hpp"
#include "sim/metrics.hpp"

using namespace pdsl;
using namespace pdsl::json;

TEST(Json, ParsesScalars) {
  EXPECT_TRUE(parse("null").is_null());
  EXPECT_TRUE(parse("true").as_bool());
  EXPECT_FALSE(parse("false").as_bool());
  EXPECT_DOUBLE_EQ(parse("3.5").as_number(), 3.5);
  EXPECT_DOUBLE_EQ(parse("-2e3").as_number(), -2000.0);
  EXPECT_EQ(parse("42").as_int(), 42);
  EXPECT_EQ(parse("\"hi\"").as_string(), "hi");
}

TEST(Json, ParsesContainers) {
  const auto v = parse(R"({"a": [1, 2, 3], "b": {"c": true}, "d": null})");
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.at("a").as_array().size(), 3u);
  EXPECT_DOUBLE_EQ(v.at("a").as_array()[1].as_number(), 2.0);
  EXPECT_TRUE(v.at("b").at("c").as_bool());
  EXPECT_TRUE(v.at("d").is_null());
  EXPECT_TRUE(v.contains("a"));
  EXPECT_FALSE(v.contains("z"));
  EXPECT_THROW((void)v.at("z"), std::out_of_range);
}

TEST(Json, StringEscapes) {
  const auto v = parse(R"("line\nbreak \"quoted\" tab\t back\\slash A")");
  EXPECT_EQ(v.as_string(), "line\nbreak \"quoted\" tab\t back\\slash A");
}

TEST(Json, RoundTripsThroughDump) {
  const auto v = parse(R"({"name":"pdsl","nums":[1,2.5,-3],"flag":false,"nested":{"x":1}})");
  const auto again = parse(v.dump());
  EXPECT_EQ(again.at("name").as_string(), "pdsl");
  EXPECT_DOUBLE_EQ(again.at("nums").as_array()[1].as_number(), 2.5);
  EXPECT_FALSE(again.at("flag").as_bool());
  EXPECT_EQ(again.at("nested").at("x").as_int(), 1);
}

TEST(Json, PrettyPrintParses) {
  Object o;
  o["k"] = Value(Array{Value(1), Value("two")});
  const std::string pretty = Value(std::move(o)).dump(2);
  EXPECT_NE(pretty.find('\n'), std::string::npos);
  EXPECT_EQ(parse(pretty).at("k").as_array()[1].as_string(), "two");
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_THROW(parse(""), std::runtime_error);
  EXPECT_THROW(parse("{"), std::runtime_error);
  EXPECT_THROW(parse("[1,]"), std::runtime_error);
  EXPECT_THROW(parse("{\"a\" 1}"), std::runtime_error);
  EXPECT_THROW(parse("tru"), std::runtime_error);
  EXPECT_THROW(parse("1 2"), std::runtime_error);
  EXPECT_THROW(parse("\"unterminated"), std::runtime_error);
  EXPECT_THROW(parse("1.2.3"), std::runtime_error);
}

TEST(Json, TypeMismatchesThrow) {
  const auto v = parse("[1]");
  EXPECT_THROW((void)v.as_object(), std::logic_error);
  EXPECT_THROW((void)v.as_string(), std::logic_error);
  EXPECT_THROW((void)parse("1.5").as_int(), std::logic_error);
}

namespace {

/// Every field and every sub-plan away from its default, with two edge rules
/// and two roles, one of each with `until_round` set and one without.
core::ExperimentConfig maximal_config() {
  core::ExperimentConfig c;
  c.algorithm = "dp_cga";
  c.dataset = "cifar_like";
  c.model = "cifar_cnn";
  c.topology = "bipartite";
  c.agents = 12;
  c.rounds = 77;
  c.train_samples = 1500;
  c.test_samples = 300;
  c.validation_samples = 150;
  c.image = 16;
  c.hidden = 48;
  c.mu = 0.66;
  c.iid = true;
  c.partition = "shards";
  c.shards_per_agent = 3;
  c.corrupt_agents = 2;
  c.byzantine_agents = 1;
  c.hp.gamma = 0.123;
  c.hp.alpha = 0.77;
  c.hp.clip = 2.5;
  c.hp.sigma = 0.42;
  c.hp.batch = 99;
  c.hp.shapley_permutations = 11;
  c.hp.shapley_method = "adaptive";
  c.hp.shapley_eval = "batched";
  c.hp.shapley_min_permutations = 5;
  c.hp.shapley_ci_z = 1.5;
  c.hp.validation_batch = 40;
  c.hp.gossip_steps = 3;
  c.hp.local_steps = 4;
  c.sigma_mode = "fixed";
  c.noise_scale = 0.5;
  c.epsilon = 0.07;
  c.delta = 1e-4;
  c.phi_hat_min = 0.2;
  c.threads = 3;
  c.backend = "naive";
  c.seed = 1234;
  c.drop_prob = 0.05;
  c.faults.drop_prob = 0.1;
  c.faults.delay_prob = 0.25;
  c.faults.delay_rounds = 2;
  c.faults.churn_prob = 0.3;
  c.faults.churn_interval = 4;
  c.faults.staleness_rounds = 3;
  c.faults.seed = 99;
  c.faults.edge_rules.push_back(sim::EdgeFaultRule{1, 2, 0.75, 3, 8});
  c.faults.edge_rules.push_back(sim::EdgeFaultRule{4, 0, 1.0, 0, sim::kNoRoundLimit});
  c.channel.corrupt_prob = 0.12;
  c.channel.duplicate_prob = 0.05;
  c.channel.reorder_prob = 0.07;
  c.channel.max_retries = 6;
  c.channel.seed = 42;
  c.crash.crash_prob = 0.2;
  c.crash.snapshot_every = 4;
  c.crash.seed = 17;
  c.recovery_dir = "snaps";
  c.checkpoint_every = 3;
  c.checkpoint_path = "ck.bin";
  c.resume_from = "prev.bin";
  c.adversary.frac = 0.25;
  c.adversary.mode = sim::ByzMode::kNoise;
  c.adversary.scale = 1.5;
  c.adversary.onset = 4;
  c.adversary.until_round = 9;
  c.adversary.seed = 42;
  c.adversary.roles.push_back(sim::ByzRole{3, sim::ByzMode::kStaleReplay, 2.0, 2, 7});
  c.adversary.roles.push_back(sim::ByzRole{5, sim::ByzMode::kScale, 4.0, 1, sim::kNoRoundLimit});
  c.defense.sanitize = algos::DefenseOptions::Sanitize::kOn;
  c.defense.robust_agg = algos::DefenseOptions::RobustAgg::kTrimmedMean;
  c.defense.trim_frac = 0.1;
  c.compression = "quant:8";
  c.fleet.participation.mode = fleet::ParticipationMode::kSampled;
  c.fleet.participation.active = 8;
  c.fleet.participation.rate = 0.5;
  c.fleet.participation.seed = 7;
  c.fleet.lazy_state = true;
  c.fleet.worker_cache = 16;
  c.fleet.wire_roundtrip = true;
  c.fleet.sparse = true;
  c.fleet.degree = 6;
  c.fleet.radius = 0.4;
  c.metrics.test_subsample = 128;
  c.metrics.eval_every = 2;
  c.metrics.metric_agents = 4;
  c.profile = true;
  c.trace_out = "t.json";
  c.ledger_out = "l.jsonl";
  return c;
}

// config_to_json of the default and of the maximal config, byte for byte.
// Every config_hash and golden fixture depends on these bytes, so a change
// to them is a change to every experiment's identity.
const char* const kDefaultJson =
    R"({"adversary":{"frac":0,"mode":"sign_flip","onset":1,"scale":3,"seed":0},"agents":10)"
    R"(,"algorithm":"pdsl","alpha":0.5,"backend":"","batch":32,"byzantine_agents":0)"
    R"(,"channel":{"corrupt_prob":0,"duplicate_prob":0,"max_retries":3,"reorder_prob":0)"
    R"(,"seed":0},"checkpoint_every":0,"checkpoint_path":"","clip":1,"compression":"none")"
    R"(,"corrupt_agents":0,"crash":{"crash_prob":0,"seed":0,"snapshot_every":5})"
    R"(,"dataset":"mnist_like","defense":{"robust_agg":"none","sanitize":"auto")"
    R"(,"trim_frac":0.25},"delta":0.001,"drop_prob":0,"epsilon":0.10000000000000001)"
    R"(,"eval_every":1,"faults":{"churn_interval":5,"churn_prob":0,"delay_prob":0)"
    R"(,"delay_rounds":0,"drop_prob":0,"seed":0,"staleness_rounds":0},"fleet":{"degree":4)"
    R"(,"lazy_state":false,"participation":{"active":0,"mode":"full","rate":0,"seed":0})"
    R"(,"radius":0.25,"sparse":false,"wire_roundtrip":false,"worker_cache":0},"gamma":0.01)"
    R"(,"gossip_steps":2,"hidden":32,"iid":false,"image":14,"ledger_out":"","local_steps":3)"
    R"(,"metric_agents":0,"model":"mlp","mu":0.25,"noise_scale":1,"partition":"dirichlet")"
    R"(,"phi_hat_min":0.10000000000000001,"profile":false,"recovery_dir":"")"
    R"(,"resume_from":"","rounds":50,"seed":1,"shapley_ci_z":2,"shapley_eval":"linear")"
    R"(,"shapley_method":"mc","shapley_min_permutations":4,"shapley_permutations":8)"
    R"(,"shards_per_agent":2,"sigma":0,"sigma_mode":"dpsgd","test_samples":400)"
    R"(,"test_subsample":256,"threads":1,"topology":"full","trace_out":"")"
    R"(,"train_samples":2000,"validation_batch":64,"validation_samples":200})";
const char* const kMaximalJson =
    R"({"adversary":{"frac":0.25,"mode":"noise","onset":4,"roles":[{"agent":3)"
    R"(,"from_round":2,"mode":"stale_replay","scale":2,"until_round":7},{"agent":5)"
    R"(,"from_round":1,"mode":"scale","scale":4}],"scale":1.5,"seed":42,"until_round":9})"
    R"(,"agents":12,"algorithm":"dp_cga","alpha":0.77000000000000002,"backend":"naive")"
    R"(,"batch":99,"byzantine_agents":1,"channel":{"corrupt_prob":0.12)"
    R"(,"duplicate_prob":0.050000000000000003,"max_retries":6)"
    R"(,"reorder_prob":0.070000000000000007,"seed":42},"checkpoint_every":3)"
    R"(,"checkpoint_path":"ck.bin","clip":2.5,"compression":"quant:8","corrupt_agents":2)"
    R"(,"crash":{"crash_prob":0.20000000000000001,"seed":17,"snapshot_every":4})"
    R"(,"dataset":"cifar_like","defense":{"robust_agg":"trimmed_mean","sanitize":"on")"
    R"(,"trim_frac":0.10000000000000001},"delta":0.0001,"drop_prob":0.050000000000000003)"
    R"(,"epsilon":0.070000000000000007,"eval_every":2,"faults":{"churn_interval":4)"
    R"(,"churn_prob":0.29999999999999999,"delay_prob":0.25,"delay_rounds":2)"
    R"(,"drop_prob":0.10000000000000001,"edges":[{"drop_prob":0.75,"dst":2,"from_round":3)"
    R"(,"src":1,"until_round":8},{"drop_prob":1,"dst":0,"from_round":0,"src":4}],"seed":99)"
    R"(,"staleness_rounds":3},"fleet":{"degree":6,"lazy_state":true)"
    R"(,"participation":{"active":8,"mode":"sampled","rate":0.5,"seed":7})"
    R"(,"radius":0.40000000000000002,"sparse":true,"wire_roundtrip":true,"worker_cache":16})"
    R"(,"gamma":0.123,"gossip_steps":3,"hidden":48,"iid":true,"image":16)"
    R"(,"ledger_out":"l.jsonl","local_steps":4,"metric_agents":4,"model":"cifar_cnn")"
    R"(,"mu":0.66000000000000003,"noise_scale":0.5,"partition":"shards")"
    R"(,"phi_hat_min":0.20000000000000001,"profile":true,"recovery_dir":"snaps")"
    R"(,"resume_from":"prev.bin","rounds":77,"seed":1234,"shapley_ci_z":1.5)"
    R"(,"shapley_eval":"batched","shapley_method":"adaptive","shapley_min_permutations":5)"
    R"(,"shapley_permutations":11,"shards_per_agent":3,"sigma":0.41999999999999998)"
    R"(,"sigma_mode":"fixed","test_samples":300,"test_subsample":128,"threads":3)"
    R"(,"topology":"bipartite","trace_out":"t.json","train_samples":1500)"
    R"(,"validation_batch":40,"validation_samples":150})";

}  // namespace

TEST(ConfigIo, DefaultAndMaximalConfigJsonIsPinnedAndRoundTrips) {
  EXPECT_EQ(core::config_to_json(core::ExperimentConfig{}).dump(), kDefaultJson);
  EXPECT_EQ(core::config_to_json(maximal_config()).dump(), kMaximalJson);
  for (const char* text : {kDefaultJson, kMaximalJson}) {
    EXPECT_EQ(core::config_to_json(core::config_from_json(parse(text))).dump(), text);
  }
}

TEST(ConfigIo, PartialConfigKeepsDefaults) {
  const auto cfg = core::config_from_json(parse(R"({"algorithm": "muffliato", "agents": 9})"));
  EXPECT_EQ(cfg.algorithm, "muffliato");
  EXPECT_EQ(cfg.agents, 9u);
  EXPECT_EQ(cfg.dataset, "mnist_like");  // default preserved
  EXPECT_DOUBLE_EQ(cfg.mu, 0.25);
}

TEST(ConfigIo, UnknownKeysAreRejected) {
  EXPECT_THROW(core::config_from_json(parse(R"({"agentz": 9})")), std::invalid_argument);
}

TEST(ConfigIo, SizeKeysRejectOutOfRangeValuesNamingTheKey) {
  // A negative value used to wrap to a huge size_t (or, in the fleet block,
  // hit an undefined double -> size_t cast) and run or fail far from its key.
  const std::vector<std::pair<const char*, const char*>> cases = {
      {R"({"validation_batch": -1})", "\"validation_batch\""},
      {R"({"agents": -1})", "\"agents\""},
      {R"({"rounds": -3})", "\"rounds\""},
      {R"({"threads": 1e30})", "\"threads\""},
      {R"({"batch": 2.5})", "\"batch\""},
      {R"({"fleet": {"degree": -2}})", "\"degree\""},
      {R"({"fleet": {"worker_cache": -1}})", "\"worker_cache\""},
      {R"({"fleet": {"participation": {"mode": "sampled", "active": -1}}})", "\"active\""},
      {R"({"agents": 0})", "\"agents\""},
      {R"({"faults": {"delay_rounds": -1}})", "\"delay_rounds\""},
      {R"({"faults": {"churn_interval": -1}})", "\"churn_interval\""},
      {R"({"faults": {"staleness_rounds": -1}})", "\"staleness_rounds\""},
      {R"({"faults": {"edges": [{"src": -1, "dst": 0, "drop_prob": 0.5}]}})", "\"src\""},
      {R"({"channel": {"max_retries": -1}})", "\"max_retries\""},
      {R"({"crash": {"snapshot_every": -1}})", "\"snapshot_every\""},
      {R"({"adversary": {"onset": -1}})", "\"onset\""},
      {R"({"adversary": {"roles": [{"agent": -1}]}})", "\"agent\""},
  };
  for (const auto& [text, key] : cases) {
    try {
      (void)core::config_from_json(parse(text));
      ADD_FAILURE() << text << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(key), std::string::npos) << text << ": " << e.what();
    }
  }
  const auto cfg = core::config_from_json(parse(R"({"agents": 1, "fleet": {"degree": 6}})"));
  EXPECT_EQ(cfg.agents, 1u);
  EXPECT_EQ(cfg.fleet.degree, 6u);
}

TEST(ConfigIo, EachKeyGetsTheStricterOfItsJsonAndFlagRanges) {
  const std::vector<std::pair<const char*, const char*>> cases = {
      {R"({"rounds": 0})", "json: \"rounds\" must be > 0, got 0"},
      {R"({"shapley_min_permutations": 0})", "\"shapley_min_permutations\" must be > 0"},
      {R"({"drop_prob": 1})", "json: \"drop_prob\" must be in [0,1), got 1"},
      {R"({"shapley_eval": "fast"})", "\"shapley_eval\" must be one of sequential|batched|linear"},
      {R"({"shapley_method": "mcmc"})", "\"shapley_method\" must be one of mc|exact|tmc"},
      {R"({"shapley_ci_z": -1})", "\"shapley_ci_z\" must be >= 0"},
      {R"({"channel": {"max_retries": 17}})", "\"max_retries\" must be <= 16"},
      {R"({"adversary": {"scale": 0}})", "\"scale\" must be > 0 and finite"},
      {R"({"fleet": {"participation": {"rate": 1.5}}})", "\"rate\" must be in [0,1]"},
      {R"({"defense": {"trim_frac": 0.5}})", "\"trim_frac\" must be in [0,0.5)"},
      {R"({"faults": {"edges": [{"dst": 0}]}})", "\"src\" is required"},
      {R"({"faults": {"not_a_knob": 1}})", "unknown key \"not_a_knob\""},
  };
  for (const auto& [text, needle] : cases) {
    try {
      (void)core::config_from_json(parse(text));
      ADD_FAILURE() << text << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos) << text << ": " << e.what();
    }
  }
}

TEST(ConfigIo, RunFlagsAreExactlyTheDeclaredSet) {
  // `pdsl_cli run` accepts these plus its own config, json, seeds, csv and
  // save_model. Adding or dropping a flag shows up here.
  auto flags = schema::flags<core::ExperimentConfig>();
  std::sort(flags.begin(), flags.end());
  const std::vector<std::string> expected = {
      "active", "agents", "algorithm", "alpha", "backend", "batch", "byz-frac", "byz-mode",
      "byz-onset", "byz-scale", "checkpoint-every", "checkpoint-path", "churn",
      "churn-interval", "clip", "compression", "corrupt", "corrupt-prob", "crash-prob",
      "dataset", "degree", "delay-prob", "delay-rounds", "delta", "drop-prob", "dup-prob",
      "eps", "gamma", "hidden", "image", "lazy-state", "ledger-out", "max-retries",
      "mc_perms", "metric-agents", "model", "mu", "noise_scale", "participation",
      "participation-rate", "partition", "profile", "radius", "recovery-dir", "reorder-prob",
      "resume-from", "robust-agg", "rounds", "sanitize", "seed", "shapley-ci-z",
      "shapley-eval", "shapley-method", "shapley-min-perms", "sigma_mode", "snapshot-every",
      "sparse", "staleness", "threads", "topology", "trace-out", "train", "valbatch",
      "wire-roundtrip", "worker-cache"};
  EXPECT_EQ(flags, expected);
}

TEST(ConfigIo, IdentityHashTreatsBlockedAsTheDefaultBackend) {
  core::ExperimentConfig cfg;
  const auto default_hash = core::config_identity_hash(cfg);
  cfg.backend = "blocked";
  EXPECT_EQ(core::config_identity_hash(cfg), default_hash);
  cfg.backend = "naive";
  EXPECT_NE(core::config_identity_hash(cfg), default_hash);
}

TEST(ConfigIo, LoadFromFile) {
  const std::string path = "/tmp/pdsl_config_test.json";
  std::ofstream(path) << R"({"algorithm": "pdsl", "rounds": 4, "epsilon": 0.2})";
  const auto cfg = core::load_config(path);
  EXPECT_EQ(cfg.algorithm, "pdsl");
  EXPECT_EQ(cfg.rounds, 4u);
  EXPECT_DOUBLE_EQ(cfg.epsilon, 0.2);
  EXPECT_THROW(core::load_config("/tmp/missing_pdsl_cfg.json"), std::runtime_error);
}

TEST(ConfigIo, ResultSerialization) {
  core::ExperimentResult res;
  res.algorithm = "PDSL";
  res.final_loss = 0.5;
  res.final_accuracy = 0.9;
  res.series.resize(2);
  res.series[0].round = 1;
  res.series[0].avg_loss = 1.0;
  res.series[1].round = 2;
  res.series[1].avg_loss = 0.5;
  const auto v = core::result_to_json(res);
  EXPECT_EQ(v.at("algorithm").as_string(), "PDSL");
  EXPECT_DOUBLE_EQ(v.at("final_accuracy").as_number(), 0.9);
  EXPECT_EQ(v.at("series").as_array().size(), 2u);
  EXPECT_EQ(v.at("series").as_array()[1].at("round").as_int(), 2);
  // Each row carries exactly the deterministic columns of the per-round table.
  std::set<std::string> columns;
  sim::for_each_column([&](const sim::MetricColumn& c) {
    if (!c.wall_clock) columns.insert(c.name);
  });
  EXPECT_GT(columns.size(), 5u);
  for (const auto& row : v.at("series").as_array()) {
    std::set<std::string> keys;
    for (const auto& [key, value] : row.as_object()) keys.insert(key);
    EXPECT_EQ(keys, columns);
  }
  // And it survives a text round trip.
  EXPECT_DOUBLE_EQ(parse(v.dump()).at("final_loss").as_number(), 0.5);
}
