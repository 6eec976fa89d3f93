#include "core/experiment.hpp"

#include <optional>
#include <stdexcept>

#include "algos/dp_cga.hpp"
#include "algos/dp_dpsgd.hpp"
#include "algos/dp_netfleet.hpp"
#include "algos/async_gossip.hpp"
#include "algos/dpsgd.hpp"
#include "algos/fedavg.hpp"
#include "algos/muffliato.hpp"
#include "algos/qgm.hpp"
#include "compress/compressor.hpp"
#include "core/config_io.hpp"
#include "core/pdsl.hpp"
#include "data/partition.hpp"
#include "data/synthetic.hpp"
#include "dp/calibration.hpp"
#include "dp/mechanism.hpp"
#include "kernels/backend.hpp"
#include "nn/model_zoo.hpp"
#include "obs/trace.hpp"
#include "recovery/recovery.hpp"
#include "recovery/run_state.hpp"
#include "runtime/parallel_for.hpp"

namespace pdsl::core {

namespace {

data::Dataset build_dataset(const ExperimentConfig& cfg) {
  const std::size_t total = cfg.train_samples + cfg.test_samples + cfg.validation_samples;
  if (cfg.dataset == "mnist_like") {
    return data::make_synthetic_images(data::mnist_like_spec(total, cfg.image, cfg.seed));
  }
  if (cfg.dataset == "cifar_like") {
    return data::make_synthetic_images(data::cifar_like_spec(total, cfg.image, cfg.seed));
  }
  if (cfg.dataset == "gaussian") {
    return data::make_gaussian_mixture(total, 10, cfg.image * cfg.image, 1.5, 1.0, cfg.seed);
  }
  throw std::invalid_argument("run_experiment: unknown dataset '" + cfg.dataset + "'");
}

std::size_t dataset_channels(const ExperimentConfig& cfg) {
  return cfg.dataset == "cifar_like" ? 3 : 1;
}

}  // namespace

double calibrate_sigma(const ExperimentConfig& cfg, const graph::Metropolis& w) {
  if (cfg.sigma_mode == "none") return 0.0;
  if (cfg.sigma_mode == "fixed") return cfg.hp.sigma;
  if (cfg.sigma_mode == "dpsgd") {
    // Mini-batch mean of per-example-bounded gradients: replacing one example
    // moves the mean by at most 2C/B.
    const double sensitivity = 2.0 * cfg.hp.clip / static_cast<double>(cfg.hp.batch);
    return dp::gaussian_sigma(sensitivity, cfg.epsilon, cfg.delta);
  }
  if (cfg.sigma_mode == "theorem1") {
    dp::Theorem1Params p;
    p.epsilon = cfg.epsilon;
    p.delta = cfg.delta;
    p.clip = cfg.hp.clip;
    p.phi_hat_min = cfg.phi_hat_min;
    return dp::theorem1_sigma(w, p);
  }
  throw std::invalid_argument("run_experiment: unknown sigma_mode '" + cfg.sigma_mode + "'");
}

std::unique_ptr<algos::Algorithm> make_algorithm(const std::string& name,
                                                 const algos::Env& env) {
  Pdsl::Options popts;
  if (name == "pdsl") return std::make_unique<Pdsl>(env, popts);
  if (name == "pdsl_uniform") {
    popts.uniform_weights = true;
    return std::make_unique<Pdsl>(env, popts);
  }
  if (name == "pdsl_relu") {
    popts.relu_normalization = true;
    return std::make_unique<Pdsl>(env, popts);
  }
  if (name == "pdsl_robust") {
    // Both robustness extensions together: loss characteristic + ReLU norm.
    popts.relu_normalization = true;
    popts.loss_characteristic = true;
    return std::make_unique<Pdsl>(env, popts);
  }
  if (name == "dp_dpsgd") return std::make_unique<algos::DpDpsgd>(env);
  if (name == "muffliato") return std::make_unique<algos::Muffliato>(env);
  if (name == "dp_cga") return std::make_unique<algos::DpCga>(env);
  if (name == "dp_netfleet") return std::make_unique<algos::DpNetFleet>(env);
  if (name == "async_dp_gossip") return std::make_unique<algos::AsyncDpGossip>(env);
  if (name == "dp_qgm") return std::make_unique<algos::DpQgm>(env);
  if (name == "fedavg" || name == "dp_fedavg") return std::make_unique<algos::FedAvg>(env);
  if (name == "dpsgd") return std::make_unique<algos::DPSGD>(env);
  if (name == "dmsgd") return std::make_unique<algos::DMSGD>(env);
  throw std::invalid_argument("make_algorithm: unknown algorithm '" + name + "'");
}

std::uint64_t config_identity_hash(const ExperimentConfig& cfg) {
  ExperimentConfig scrub = cfg;
  // Wall-clock-only and output-routing knobs do not change the trajectory;
  // the checkpoint/resume knobs must not change the hash or a checkpointed
  // run could never be resumed by a config that (correctly) differs in them.
  scrub.threads = 1;
  // cfg.backend stays in the hash: the naive direct convolution agrees with
  // im2col only to rounding, so switching backends switches CNN trajectories.
  // "" runs blocked, so "blocked" hashes as "" (which leaves every config
  // without the key at its old hash).
  if (scrub.backend == "blocked") scrub.backend.clear();
  scrub.profile = false;
  scrub.trace_out.clear();
  scrub.ledger_out.clear();
  scrub.recovery_dir.clear();
  scrub.checkpoint_every = 0;
  scrub.checkpoint_path.clear();
  scrub.resume_from.clear();
  return recovery::fnv1a_str(config_to_json(scrub).dump());
}

const std::vector<std::string>& paper_algorithms() {
  static const std::vector<std::string> algos = {"dp_dpsgd", "dp_cga", "muffliato",
                                                 "dp_netfleet", "pdsl"};
  return algos;
}

ExperimentResult run_experiment(const ExperimentConfig& cfg) {
  // S-RT: configure the execution width for this run's per-agent phases.
  runtime::set_global_threads(cfg.threads);
  // S-KER: select the math backend for every run; "" means blocked.
  kernels::set_backend(cfg.backend.empty() ? kernels::Backend::kBlocked
                                           : kernels::backend_from_string(cfg.backend));

  Rng rng(cfg.seed);

  // Data: one synthetic pool split into train / validation (Q) / test.
  const data::Dataset pool = build_dataset(cfg);
  auto [train_and_val, test] = data::split_off(pool, cfg.test_samples, rng);
  auto [train, validation] = data::split_off(train_and_val, cfg.validation_samples, rng);

  // Heterogeneous partition of the training data.
  Rng part_rng = rng.split(0x9A27);
  std::vector<std::vector<std::size_t>> partition;
  if (cfg.iid || cfg.partition == "iid") {
    partition = data::iid_partition(train, cfg.agents, part_rng);
  } else if (cfg.partition == "shards") {
    partition = data::shard_partition(train, cfg.agents, cfg.shards_per_agent, part_rng);
  } else if (cfg.partition == "dirichlet") {
    data::PartitionOptions popts;
    popts.mu = cfg.mu;
    popts.min_per_agent = std::max<std::size_t>(2, cfg.hp.batch / 4);
    partition = data::dirichlet_partition(train, cfg.agents, popts, part_rng);
  } else {
    throw std::invalid_argument("run_experiment: unknown partition '" + cfg.partition + "'");
  }
  const auto dists = data::label_distributions(train, partition, train.num_classes());

  // Optional poisoning: the first corrupt_agents agents see random labels.
  if (cfg.corrupt_agents > 0) {
    if (cfg.corrupt_agents >= cfg.agents) {
      throw std::invalid_argument("run_experiment: corrupt_agents must be < agents");
    }
    Rng poison_rng = rng.split(0xBAD);
    const auto classes = static_cast<std::int64_t>(train.num_classes());
    for (std::size_t a = 0; a < cfg.corrupt_agents; ++a) {
      for (std::size_t idx : partition[a]) {
        train.set_label(idx, static_cast<int>(poison_rng.uniform_int(0, classes - 1)));
      }
    }
  }

  // S-SCALE gating: the fleet path covers the graph-gossip algorithms only.
  // FedAvg has a virtual server (no graph traffic to guard) and the async
  // baseline's pairwise wakes assume every agent is addressable every event.
  if (cfg.fleet.enabled() &&
      (cfg.algorithm == "fedavg" || cfg.algorithm == "dp_fedavg" ||
       cfg.algorithm == "async_dp_gossip")) {
    throw std::invalid_argument("run_experiment: algorithm '" + cfg.algorithm +
                                "' does not support fleet mode (participation sampling / "
                                "lazy state / wire round-trip)");
  }
  cfg.fleet.validate(cfg.agents);

  // Communication graph + Metropolis weights.
  Rng topo_rng = rng.split(0x70B0);
  graph::GraphParams gp;
  gp.rng = &topo_rng;
  gp.degree = cfg.fleet.degree;
  gp.radius = cfg.fleet.radius;
  gp.seed = cfg.seed;
  const graph::Graph topo = graph::Graph::make(cfg.topology, cfg.agents, gp);
  const graph::Metropolis mixing(topo);

  // Model template.
  const nn::Model model_template =
      nn::make_model(cfg.model, cfg.image, dataset_channels(cfg), train.num_classes(),
                     cfg.hidden);

  // Noise calibration.
  algos::HyperParams hp = cfg.hp;
  hp.sigma = calibrate_sigma(cfg, mixing);
  if (cfg.sigma_mode != "none") hp.sigma *= cfg.noise_scale;

  algos::Env env;
  env.topo = &topo;
  env.mixing = &mixing;
  env.train = &train;
  env.validation = &validation;
  env.model_template = &model_template;
  env.partition = &partition;
  env.hp = hp;
  env.seed = cfg.seed;
  env.dp_delta = cfg.delta;
  env.faults = cfg.faults;
  // Legacy drop_prob knob: folded into the fault plan unless the plan sets
  // its own drop probability.
  if (cfg.drop_prob < 0.0 || cfg.drop_prob >= 1.0) {
    throw std::invalid_argument("run_experiment: drop_prob must be in [0,1)");
  }
  if (env.faults.drop_prob == 0.0) env.faults.drop_prob = cfg.drop_prob;
  env.faults.validate();
  env.adversary = cfg.adversary;
  // Legacy byzantine_agents knob: explicit sign_flip roles at the historical
  // x3 amplification, unless a real plan is already configured.
  if (cfg.byzantine_agents > 0 && !env.adversary.any()) {
    if (cfg.byzantine_agents >= cfg.agents) {
      throw std::invalid_argument("run_experiment: byzantine_agents must be < agents");
    }
    for (std::size_t a = 0; a < cfg.byzantine_agents; ++a) {
      env.adversary.roles.push_back(
          sim::ByzRole{a, sim::ByzMode::kSignFlip, 3.0, 1, sim::kNoRoundLimit});
    }
  }
  env.adversary.validate();
  env.channel = cfg.channel;
  env.channel.validate();
  env.crash = cfg.crash;
  env.crash.validate();
  env.defense = cfg.defense;
  env.fleet = cfg.fleet;
  const auto compressor = compress::make_compressor(cfg.compression);
  if (cfg.compression != "none" && !cfg.compression.empty()) env.compressor = compressor.get();

  // S-OBS: tracing stays off (near-zero overhead) unless a sink is named.
  // The recorder is process-global, so back-to-back runs accumulate into the
  // same trace file — each run rewrites it with everything recorded so far.
  if (!cfg.trace_out.empty()) obs::TraceRecorder::global().enable(true);

  auto alg = make_algorithm(cfg.algorithm, env);

  // S-RECOV: crash injection + snapshot/resync recovery rides on run_round
  // via the RecoveryHook seam. The crash seed falls back to the run seed so
  // configs stay terse; decisions remain a pure (seed, agent, round) hash.
  std::optional<recovery::RecoveryManager> recov;
  if (cfg.crash.any()) {
    sim::CrashPlan plan = cfg.crash;
    if (plan.seed == 0) plan.seed = cfg.seed;
    recovery::RecoveryOptions ropts;
    ropts.snapshot_dir = cfg.recovery_dir;
    recov.emplace(plan, ropts);
    alg->set_recovery(&*recov);
  }

  // S-RECOV kill-and-resume: restore the algorithm + driver state saved by a
  // previous run's checkpoint hook, refusing a config-identity mismatch.
  const std::uint64_t cfg_hash = config_identity_hash(cfg);
  algos::ResumeState resume_state;
  const algos::ResumeState* resume_ptr = nullptr;
  if (!cfg.resume_from.empty()) {
    recovery::RunState st = recovery::load_run_state(cfg.resume_from, cfg_hash);
    io::ByteReader reader(st.algo_state, "run-state algorithm blob");
    alg->load_state(reader);
    resume_state = std::move(st.resume);
    resume_ptr = &resume_state;
  }
  algos::CheckpointHook checkpoint_hook;
  if (cfg.checkpoint_every > 0) {
    if (cfg.checkpoint_path.empty()) {
      throw std::invalid_argument(
          "run_experiment: checkpoint_every > 0 requires checkpoint_path");
    }
    checkpoint_hook = [&cfg, cfg_hash, &alg](std::size_t t, double last_acc,
                                             const dp::RdpAccountant& accountant,
                                             const std::vector<sim::RoundMetrics>& so_far) {
      recovery::RunState st;
      st.config_hash = cfg_hash;
      st.resume.completed_rounds = t;
      st.resume.last_acc = last_acc;
      st.resume.accountant_rdp = accountant.accumulated_rdp();
      st.resume.accountant_invocations = accountant.num_invocations();
      st.resume.prior_series = so_far;
      alg->save_state(st.algo_state);
      recovery::save_run_state(cfg.checkpoint_path, st);
    };
  }

  // S-BENCH360 run ledger: header event with the run's identity, the
  // per-round events from run_with_metrics, then a summary footer.
  obs::RunLedger ledger;
  if (!cfg.ledger_out.empty()) {
    ledger.open(cfg.ledger_out);
    json::Object start;
    start["algorithm"] = cfg.algorithm;
    start["dataset"] = cfg.dataset;
    start["model"] = cfg.model;
    start["topology"] = cfg.topology;
    start["agents"] = cfg.agents;
    start["rounds"] = cfg.rounds;
    start["seed"] = cfg.seed;
    start["sigma"] = hp.sigma;
    start["epsilon"] = cfg.epsilon;
    start["delta"] = cfg.delta;
    ledger.event("run_start", std::move(start));
    // Width-dependent identity goes into its own volatile event so the rest
    // of the ledger stays byte-comparable across --threads settings.
    json::Object env_ev;
    env_ev["threads"] = cfg.threads;
    ledger.event(obs::RunLedger::kEnvEvent, std::move(env_ev));
  }

  auto series = algos::run_with_metrics(*alg, cfg.rounds, test, cfg.metrics,
                                        ledger.enabled() ? &ledger : nullptr, resume_ptr,
                                        checkpoint_hook, cfg.checkpoint_every);

  ExperimentResult res;
  res.algorithm = alg->name();
  res.final_loss = series.empty() ? 0.0 : series.back().avg_loss;
  res.final_accuracy = series.empty() ? 0.0 : series.back().test_accuracy;
  res.sigma = hp.sigma;
  res.heterogeneity = data::heterogeneity_index(dists);
  // fleet.sparse skips the O(M^3) spectral report and leaves it zero.
  if (!cfg.fleet.sparse) res.spectral = graph::analyze(mixing);
  res.model_dim = model_template.num_params();
  res.messages = alg->network().messages_sent();
  res.bytes = alg->network().bytes_sent();
  res.dropped = alg->network().messages_dropped();
  res.delayed = alg->network().messages_delayed();
  res.corrupted = alg->network().messages_corrupted();
  for (const auto& rm : series) {
    res.rejected += rm.rejected;
    res.reclipped += rm.reclipped;
  }
  res.average_model = alg->average_model();
  res.wire_messages = alg->network().wire_messages();
  res.wire_bytes = alg->network().wire_bytes();
  res.retransmits = alg->network().retransmits();
  res.corruptions_detected = alg->network().corruptions_detected();
  res.retry_exhausted = alg->network().retry_exhausted();
  res.duplicates_dropped = alg->network().duplicates_dropped();
  res.reordered = alg->network().reorders();
  for (const auto& rm : series) {
    res.crashes += rm.crashes;
    res.resyncs += rm.resyncs;
  }
  res.resumed_from_round = resume_ptr != nullptr ? resume_state.completed_rounds : 0;
  res.workers_peak = alg->workers_peak();
  res.models_materialized = alg->models_materialized();
  res.participants = alg->participants();
  for (const auto& rm : series) res.phase_totals += rm.phases;
  res.epsilon_spent = series.empty() ? 0.0 : series.back().epsilon_spent;
  res.series = std::move(series);
  if (ledger.enabled()) {
    json::Object end;
    end["final_loss"] = res.final_loss;
    end["final_accuracy"] = res.final_accuracy;
    end["messages"] = res.messages;
    end["bytes"] = res.bytes;
    end["dropped"] = res.dropped;
    end["corrupted"] = res.corrupted;
    end["epsilon_spent"] = res.epsilon_spent;
    end["retransmits"] = res.retransmits;
    end["corruptions_detected"] = res.corruptions_detected;
    end["retry_exhausted"] = res.retry_exhausted;
    end["crashes"] = res.crashes;
    end["resyncs"] = res.resyncs;
    ledger.event("run_end", std::move(end));
    ledger.close();
  }
  if (!cfg.trace_out.empty()) obs::TraceRecorder::global().write(cfg.trace_out);
  return res;
}

}  // namespace pdsl::core
