// JSON parser/writer and the ExperimentConfig/Result (de)serialization.

#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "common/json.hpp"
#include "core/config_io.hpp"

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
  EXPECT_THROW(v.at("z"), std::out_of_range);
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

TEST(ConfigIo, RoundTripPreservesEveryField) {
  core::ExperimentConfig cfg;
  cfg.algorithm = "dp_cga";
  cfg.dataset = "cifar_like";
  cfg.model = "cifar_cnn";
  cfg.topology = "bipartite";
  cfg.agents = 12;
  cfg.rounds = 77;
  cfg.mu = 0.66;
  cfg.partition = "shards";
  cfg.shards_per_agent = 3;
  cfg.corrupt_agents = 2;
  cfg.hp.gamma = 0.123;
  cfg.hp.alpha = 0.77;
  cfg.hp.batch = 99;
  cfg.hp.shapley_method = "tmc";
  cfg.sigma_mode = "fixed";
  cfg.hp.sigma = 0.42;
  cfg.noise_scale = 0.5;
  cfg.epsilon = 0.07;
  cfg.seed = 1234;
  cfg.compression = "quant:8";

  const auto restored = core::config_from_json(core::config_to_json(cfg));
  EXPECT_EQ(restored.algorithm, cfg.algorithm);
  EXPECT_EQ(restored.dataset, cfg.dataset);
  EXPECT_EQ(restored.model, cfg.model);
  EXPECT_EQ(restored.topology, cfg.topology);
  EXPECT_EQ(restored.agents, cfg.agents);
  EXPECT_EQ(restored.rounds, cfg.rounds);
  EXPECT_DOUBLE_EQ(restored.mu, cfg.mu);
  EXPECT_EQ(restored.partition, cfg.partition);
  EXPECT_EQ(restored.shards_per_agent, cfg.shards_per_agent);
  EXPECT_EQ(restored.corrupt_agents, cfg.corrupt_agents);
  EXPECT_DOUBLE_EQ(restored.hp.gamma, cfg.hp.gamma);
  EXPECT_DOUBLE_EQ(restored.hp.alpha, cfg.hp.alpha);
  EXPECT_EQ(restored.hp.batch, cfg.hp.batch);
  EXPECT_EQ(restored.hp.shapley_method, cfg.hp.shapley_method);
  EXPECT_EQ(restored.sigma_mode, cfg.sigma_mode);
  EXPECT_DOUBLE_EQ(restored.hp.sigma, cfg.hp.sigma);
  EXPECT_DOUBLE_EQ(restored.noise_scale, cfg.noise_scale);
  EXPECT_DOUBLE_EQ(restored.epsilon, cfg.epsilon);
  EXPECT_EQ(restored.seed, cfg.seed);
  EXPECT_EQ(restored.compression, cfg.compression);
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
  };
  for (const auto& [text, key] : cases) {
    try {
      (void)core::config_from_json(parse(text));
      ADD_FAILURE() << text << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(key), std::string::npos) << text << ": " << e.what();
    }
  }
  const auto cfg = core::config_from_json(parse(R"({"agents": 0, "fleet": {"degree": 6}})"));
  EXPECT_EQ(cfg.agents, 0u);
  EXPECT_EQ(cfg.fleet.degree, 6u);
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
  // And it survives a text round trip.
  EXPECT_DOUBLE_EQ(parse(v.dump()).at("final_loss").as_number(), 0.5);
}
