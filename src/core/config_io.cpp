#include "core/config_io.hpp"

#include <set>
#include <stdexcept>

#include "fleet/options.hpp"
#include "sim/faults.hpp"

namespace pdsl::core {

namespace {

json::Value defense_to_json(const algos::DefenseOptions& d) {
  json::Object o;
  o["sanitize"] = std::string(algos::sanitize_to_string(d.sanitize));
  o["robust_agg"] = std::string(algos::robust_agg_to_string(d.robust_agg));
  o["trim_frac"] = d.trim_frac;
  return json::Value(std::move(o));
}

algos::DefenseOptions defense_from_json(const json::Value& v) {
  const auto& obj = v.as_object();
  static const std::set<std::string> known = {"sanitize", "robust_agg", "trim_frac"};
  for (const auto& [key, value] : obj) {
    if (known.find(key) == known.end()) {
      throw std::invalid_argument("defense_from_json: unknown key '" + key + "'");
    }
  }
  algos::DefenseOptions d;
  if (v.contains("sanitize")) d.sanitize = algos::sanitize_from_string(v.at("sanitize").as_string());
  if (v.contains("robust_agg")) {
    d.robust_agg = algos::robust_agg_from_string(v.at("robust_agg").as_string());
  }
  if (v.contains("trim_frac")) d.trim_frac = v.at("trim_frac").as_number();
  return d;
}

}  // namespace

json::Value config_to_json(const ExperimentConfig& cfg) {
  json::Object o;
  o["algorithm"] = cfg.algorithm;
  o["dataset"] = cfg.dataset;
  o["model"] = cfg.model;
  o["topology"] = cfg.topology;
  o["agents"] = cfg.agents;
  o["rounds"] = cfg.rounds;
  o["train_samples"] = cfg.train_samples;
  o["test_samples"] = cfg.test_samples;
  o["validation_samples"] = cfg.validation_samples;
  o["image"] = cfg.image;
  o["hidden"] = cfg.hidden;
  o["mu"] = cfg.mu;
  o["iid"] = cfg.iid;
  o["partition"] = cfg.partition;
  o["shards_per_agent"] = cfg.shards_per_agent;
  o["corrupt_agents"] = cfg.corrupt_agents;
  o["byzantine_agents"] = cfg.byzantine_agents;
  o["gamma"] = cfg.hp.gamma;
  o["alpha"] = cfg.hp.alpha;
  o["clip"] = cfg.hp.clip;
  o["sigma"] = cfg.hp.sigma;
  o["batch"] = cfg.hp.batch;
  o["shapley_permutations"] = cfg.hp.shapley_permutations;
  o["shapley_method"] = cfg.hp.shapley_method;
  o["shapley_eval"] = cfg.hp.shapley_eval;
  o["shapley_min_permutations"] = cfg.hp.shapley_min_permutations;
  o["shapley_ci_z"] = cfg.hp.shapley_ci_z;
  o["validation_batch"] = cfg.hp.validation_batch;
  o["gossip_steps"] = cfg.hp.gossip_steps;
  o["local_steps"] = cfg.hp.local_steps;
  o["sigma_mode"] = cfg.sigma_mode;
  o["noise_scale"] = cfg.noise_scale;
  o["epsilon"] = cfg.epsilon;
  o["delta"] = cfg.delta;
  o["phi_hat_min"] = cfg.phi_hat_min;
  o["threads"] = cfg.threads;
  o["backend"] = cfg.backend;
  o["seed"] = cfg.seed;
  o["drop_prob"] = cfg.drop_prob;
  o["faults"] = sim::fault_plan_to_json(cfg.faults);
  o["channel"] = sim::channel_plan_to_json(cfg.channel);
  o["crash"] = sim::crash_plan_to_json(cfg.crash);
  o["recovery_dir"] = cfg.recovery_dir;
  o["checkpoint_every"] = cfg.checkpoint_every;
  o["checkpoint_path"] = cfg.checkpoint_path;
  o["resume_from"] = cfg.resume_from;
  o["adversary"] = sim::adversary_plan_to_json(cfg.adversary);
  o["defense"] = defense_to_json(cfg.defense);
  o["compression"] = cfg.compression;
  o["fleet"] = fleet::fleet_options_to_json(cfg.fleet);
  o["test_subsample"] = cfg.metrics.test_subsample;
  o["eval_every"] = cfg.metrics.eval_every;
  o["metric_agents"] = cfg.metrics.metric_agents;
  o["profile"] = cfg.profile;
  o["trace_out"] = cfg.trace_out;
  o["ledger_out"] = cfg.ledger_out;
  return json::Value(std::move(o));
}

ExperimentConfig config_from_json(const json::Value& v) {
  const auto& obj = v.as_object();
  static const std::set<std::string> known = {
      "algorithm",  "dataset",   "model",     "topology",      "agents",
      "rounds",     "train_samples", "test_samples", "validation_samples",
      "image",      "hidden",    "mu",        "iid",           "partition",
      "shards_per_agent", "corrupt_agents", "byzantine_agents", "gamma", "alpha", "clip",
      "sigma",      "batch",     "shapley_permutations", "shapley_method",
      "shapley_eval", "shapley_min_permutations", "shapley_ci_z",
      "validation_batch", "gossip_steps", "local_steps", "sigma_mode",
      "noise_scale", "epsilon",  "delta",     "phi_hat_min",   "threads",
      "backend",    "seed",      "drop_prob",  "faults", "adversary", "defense",
      "channel",    "crash",     "recovery_dir", "checkpoint_every",
      "checkpoint_path", "resume_from",
      "compression", "fleet", "test_subsample", "eval_every", "metric_agents",
      "profile",     "trace_out", "ledger_out"};
  for (const auto& [key, value] : obj) {
    if (known.find(key) == known.end()) {
      throw std::invalid_argument("config_from_json: unknown key '" + key + "'");
    }
  }

  ExperimentConfig cfg;
  auto str = [&](const char* k, std::string& dst) {
    if (v.contains(k)) dst = v.at(k).as_string();
  };
  auto num = [&](const char* k, double& dst) {
    if (v.contains(k)) dst = v.at(k).as_number();
  };
  auto idx = [&](const char* k, std::size_t& dst) { dst = v.size_or(k, dst); };
  str("algorithm", cfg.algorithm);
  str("dataset", cfg.dataset);
  str("model", cfg.model);
  str("topology", cfg.topology);
  idx("agents", cfg.agents);
  idx("rounds", cfg.rounds);
  idx("train_samples", cfg.train_samples);
  idx("test_samples", cfg.test_samples);
  idx("validation_samples", cfg.validation_samples);
  idx("image", cfg.image);
  idx("hidden", cfg.hidden);
  num("mu", cfg.mu);
  if (v.contains("iid")) cfg.iid = v.at("iid").as_bool();
  str("partition", cfg.partition);
  idx("shards_per_agent", cfg.shards_per_agent);
  idx("corrupt_agents", cfg.corrupt_agents);
  idx("byzantine_agents", cfg.byzantine_agents);
  num("gamma", cfg.hp.gamma);
  num("alpha", cfg.hp.alpha);
  num("clip", cfg.hp.clip);
  num("sigma", cfg.hp.sigma);
  idx("batch", cfg.hp.batch);
  idx("shapley_permutations", cfg.hp.shapley_permutations);
  str("shapley_method", cfg.hp.shapley_method);
  str("shapley_eval", cfg.hp.shapley_eval);
  idx("shapley_min_permutations", cfg.hp.shapley_min_permutations);
  num("shapley_ci_z", cfg.hp.shapley_ci_z);
  idx("validation_batch", cfg.hp.validation_batch);
  idx("gossip_steps", cfg.hp.gossip_steps);
  idx("local_steps", cfg.hp.local_steps);
  str("sigma_mode", cfg.sigma_mode);
  num("noise_scale", cfg.noise_scale);
  num("epsilon", cfg.epsilon);
  num("delta", cfg.delta);
  num("phi_hat_min", cfg.phi_hat_min);
  idx("threads", cfg.threads);
  str("backend", cfg.backend);
  if (v.contains("seed")) cfg.seed = static_cast<std::uint64_t>(v.at("seed").as_int());
  num("drop_prob", cfg.drop_prob);
  if (v.contains("faults")) cfg.faults = sim::fault_plan_from_json(v.at("faults"));
  if (v.contains("channel")) cfg.channel = sim::channel_plan_from_json(v.at("channel"));
  if (v.contains("crash")) cfg.crash = sim::crash_plan_from_json(v.at("crash"));
  str("recovery_dir", cfg.recovery_dir);
  idx("checkpoint_every", cfg.checkpoint_every);
  str("checkpoint_path", cfg.checkpoint_path);
  str("resume_from", cfg.resume_from);
  if (v.contains("adversary")) {
    cfg.adversary = sim::adversary_plan_from_json(v.at("adversary"));
  }
  if (v.contains("defense")) cfg.defense = defense_from_json(v.at("defense"));
  str("compression", cfg.compression);
  if (v.contains("fleet")) cfg.fleet = fleet::fleet_options_from_json(v.at("fleet"));
  idx("test_subsample", cfg.metrics.test_subsample);
  idx("eval_every", cfg.metrics.eval_every);
  idx("metric_agents", cfg.metrics.metric_agents);
  if (v.contains("profile")) cfg.profile = v.at("profile").as_bool();
  str("trace_out", cfg.trace_out);
  str("ledger_out", cfg.ledger_out);
  return cfg;
}

ExperimentConfig load_config(const std::string& path) {
  return config_from_json(json::parse_file(path));
}

json::Value result_to_json(const ExperimentResult& res) {
  json::Object o;
  o["algorithm"] = res.algorithm;
  o["final_loss"] = res.final_loss;
  o["final_accuracy"] = res.final_accuracy;
  o["sigma"] = res.sigma;
  o["heterogeneity"] = res.heterogeneity;
  o["rho"] = res.spectral.rho;
  o["spectral_gap"] = res.spectral.spectral_gap;
  o["model_dim"] = res.model_dim;
  o["messages"] = res.messages;
  o["bytes"] = res.bytes;
  o["dropped"] = res.dropped;
  o["delayed"] = res.delayed;
  o["corrupted"] = res.corrupted;
  o["rejected"] = res.rejected;
  o["reclipped"] = res.reclipped;
  o["epsilon_spent"] = res.epsilon_spent;
  o["wire_messages"] = res.wire_messages;
  o["wire_bytes"] = res.wire_bytes;
  o["workers_peak"] = res.workers_peak;
  o["models_materialized"] = res.models_materialized;
  o["participants"] = res.participants;
  o["retransmits"] = res.retransmits;
  o["corruptions_detected"] = res.corruptions_detected;
  o["retry_exhausted"] = res.retry_exhausted;
  o["duplicates_dropped"] = res.duplicates_dropped;
  o["reordered"] = res.reordered;
  o["crashes"] = res.crashes;
  o["resyncs"] = res.resyncs;
  o["resumed_from_round"] = res.resumed_from_round;
  json::Object phases;
  phases["local_grad_s"] = res.phase_totals.local_grad_s;
  phases["crossgrad_s"] = res.phase_totals.crossgrad_s;
  phases["shapley_s"] = res.phase_totals.shapley_s;
  phases["aggregate_s"] = res.phase_totals.aggregate_s;
  phases["gossip_s"] = res.phase_totals.gossip_s;
  o["phase_totals"] = json::Value(std::move(phases));
  json::Array series;
  for (const auto& m : res.series) {
    json::Object row;
    row["round"] = m.round;
    row["avg_loss"] = m.avg_loss;
    row["test_accuracy"] = m.test_accuracy;
    row["consensus"] = m.consensus;
    row["epsilon_spent"] = m.epsilon_spent;
    if (m.byz_active > 0) {
      row["byzantine_active"] = m.byz_active;
      row["msgs_rejected"] = m.rejected;
      row["pi_attacker"] = m.pi_attacker;
      row["pi_honest"] = m.pi_honest;
    }
    series.push_back(json::Value(std::move(row)));
  }
  o["series"] = json::Value(std::move(series));
  return json::Value(std::move(o));
}

}  // namespace pdsl::core
