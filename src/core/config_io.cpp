#include "core/config_io.hpp"

#include "common/schema.hpp"
#include "fleet/options.hpp"
#include "obs/phase.hpp"
#include "sim/faults.hpp"
#include "sim/metrics.hpp"

namespace pdsl::core {

void visit(schema::Visitor& v, ExperimentConfig& c) {
  v.field({"algorithm", "algorithm"}, c.algorithm);
  v.field({"dataset", "dataset"}, c.dataset);
  v.field({"model", "model"}, c.model);
  v.field({"topology", "topology"}, c.topology);
  v.field({"agents", "agents"}, c.agents, schema::kPositiveCount);
  v.field({"rounds", "rounds"}, c.rounds, schema::kPositiveCount);
  v.field({"train_samples", "train"}, c.train_samples, schema::kPositiveCount);
  v.field({"test_samples"}, c.test_samples);
  v.field({"validation_samples"}, c.validation_samples);
  v.field({"image", "image"}, c.image, schema::kPositiveCount);
  v.field({"hidden", "hidden"}, c.hidden, schema::kPositiveCount);
  v.field({"mu", "mu"}, c.mu);
  v.field({"iid"}, c.iid);
  v.field({"partition", "partition"}, c.partition);
  v.field({"shards_per_agent"}, c.shards_per_agent);
  v.field({"corrupt_agents", "corrupt"}, c.corrupt_agents);
  v.field({"byzantine_agents"}, c.byzantine_agents);
  v.field({"gamma", "gamma"}, c.hp.gamma);
  v.field({"alpha", "alpha"}, c.hp.alpha);
  v.field({"clip", "clip"}, c.hp.clip);
  v.field({"sigma"}, c.hp.sigma);
  v.field({"batch", "batch"}, c.hp.batch, schema::kPositiveCount);
  v.field({"shapley_permutations", "mc_perms"}, c.hp.shapley_permutations);
  v.field({"shapley_method", "shapley-method"}, c.hp.shapley_method,
          schema::OneOf{algos::kShapleyMethods});
  v.field({"shapley_eval", "shapley-eval"}, c.hp.shapley_eval,
          schema::OneOf{algos::kShapleyEvals});
  v.field({"shapley_min_permutations", "shapley-min-perms"}, c.hp.shapley_min_permutations,
          schema::kPositiveCount);
  v.field({"shapley_ci_z", "shapley-ci-z"}, c.hp.shapley_ci_z, schema::kNonNegative);
  v.field({"validation_batch", "valbatch"}, c.hp.validation_batch);
  v.field({"gossip_steps"}, c.hp.gossip_steps);
  v.field({"local_steps"}, c.hp.local_steps);
  v.field({"sigma_mode", "sigma_mode"}, c.sigma_mode);
  v.field({"noise_scale", "noise_scale"}, c.noise_scale);
  v.field({"epsilon", "eps"}, c.epsilon);
  v.field({"delta", "delta"}, c.delta);
  v.field({"phi_hat_min"}, c.phi_hat_min);
  v.field({"threads", "threads"}, c.threads);
  v.field({"backend", "backend"}, c.backend);
  v.field({"seed", "seed"}, c.seed, schema::kSeed);
  v.field({"drop_prob", "drop-prob"}, c.drop_prob, schema::kProb);
  v.object({"faults"}, c.faults);
  v.object({"channel"}, c.channel);
  v.object({"crash"}, c.crash);
  v.field({"recovery_dir", "recovery-dir"}, c.recovery_dir);
  v.field({"checkpoint_every", "checkpoint-every"}, c.checkpoint_every);
  v.field({"checkpoint_path", "checkpoint-path"}, c.checkpoint_path);
  v.field({"resume_from", "resume-from"}, c.resume_from);
  v.object({"adversary"}, c.adversary);
  v.object({"defense"}, c.defense);
  v.field({"compression", "compression"}, c.compression);
  v.object({"fleet"}, c.fleet);
  v.field({"test_subsample"}, c.metrics.test_subsample);
  v.field({"eval_every"}, c.metrics.eval_every);
  v.field({"metric_agents", "metric-agents"}, c.metrics.metric_agents);
  v.field({"profile", "profile"}, c.profile);
  v.field({"trace_out", "trace-out"}, c.trace_out);
  v.field({"ledger_out", "ledger-out"}, c.ledger_out);
}

json::Value config_to_json(const ExperimentConfig& cfg) { return schema::to_json(cfg); }

ExperimentConfig config_from_json(const json::Value& v) {
  return schema::from_json<ExperimentConfig>(v);
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
  for (const obs::Phase p : obs::kPhases) {
    phases[std::string(obs::phase_name(p)) + "_s"] = res.phase_totals.at(p);
  }
  o["phase_totals"] = json::Value(std::move(phases));
  json::Array series;
  for (const auto& m : res.series) series.push_back(json::Value(sim::deterministic_json(m)));
  o["series"] = json::Value(std::move(series));
  return json::Value(std::move(o));
}

}  // namespace pdsl::core
