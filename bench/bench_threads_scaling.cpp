// S-RT scaling bench: wall time of one whole PDSL run, per-round test
// evaluation included, at --threads 1/2/4/8 (override with --threads <list>).
// Reports ms/round per phase, the per-round metrics evaluation
// (metrics_eval_ms, the run's elapsed time minus its rounds' time) and
// end-to-end speedup vs the sequential run, asserts the runs are bit-identical
// (the S-RT determinism contract: the average model and every deterministic
// RoundMetrics field), and writes the table as JSON (default
// BENCH_threads.json; override with --out).
//
// Every parallel section is a per-agent loop: the five round phases
// (local_grad, crossgrad, shapley, aggregate, gossip) and the metrics
// evaluation after each round, where each agent scores its own model.

#include <cstdio>
#include <string>
#include <tuple>
#include <vector>

#include "bench_util.hpp"
#include "common/cli.hpp"
#include "common/json.hpp"
#include "common/stopwatch.hpp"
#include "core/experiment.hpp"

namespace {

using pdsl::core::ExperimentConfig;
using pdsl::core::ExperimentResult;
using pdsl::sim::RoundMetrics;

ExperimentConfig base_config(const pdsl::CliArgs& args) {
  ExperimentConfig cfg;
  cfg.algorithm = args.get_string("algo", "pdsl");
  cfg.dataset = "mnist_like";
  cfg.model = "mlp";
  cfg.topology = "full";
  // m >= 8 so the per-agent loops have enough slots for 8 workers.
  cfg.agents = static_cast<std::size_t>(args.get_int("agents", 8));
  cfg.rounds = static_cast<std::size_t>(args.get_int("rounds", 6));
  cfg.train_samples = static_cast<std::size_t>(args.get_int("train", 1600));
  cfg.test_samples = 240;
  cfg.validation_samples = 200;
  cfg.image = static_cast<std::size_t>(args.get_int("image", 12));
  cfg.hidden = 32;
  cfg.hp.batch = 16;
  cfg.hp.gamma = 0.05;
  cfg.hp.alpha = 0.5;
  cfg.hp.clip = 1.0;
  cfg.hp.shapley_permutations =
      static_cast<std::size_t>(args.get_int("mc_perms", 8));
  cfg.hp.validation_batch = 48;
  cfg.sigma_mode = "dpsgd";
  cfg.noise_scale = 0.06;
  cfg.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  cfg.metrics.eval_every = 1;  // the paper's per-round test accuracy, timed too
  cfg.metrics.test_subsample = 120;
  return cfg;
}

double ms_per_round(double seconds, std::size_t rounds) {
  return 1e3 * seconds / static_cast<double>(rounds);
}

/// Run time outside run_round: the per-round metrics evaluation.
double metrics_eval_s(const ExperimentResult& res) {
  if (res.series.empty()) return 0.0;
  double rounds_s = 0.0;
  for (const auto& m : res.series) rounds_s += m.round_s;
  return res.series.back().elapsed_s - rounds_s;
}

/// Every RoundMetrics field but the wall-clock ones (elapsed_s, round_s,
/// phases).
auto deterministic_fields(const RoundMetrics& m) {
  return std::tie(m.round, m.avg_loss, m.test_accuracy, m.consensus, m.grad_norm, m.messages,
                  m.bytes, m.dropped, m.delayed, m.offline, m.stale_reused, m.fallbacks,
                  m.byz_active, m.corrupted, m.rejected, m.reclipped, m.pi_attacker,
                  m.pi_honest, m.epsilon_spent, m.shapley_evals, m.shapley_early_stops,
                  m.retransmits, m.corrupt_detected, m.dup_dropped, m.reordered, m.crashes,
                  m.resyncs);
}

bool same_results(const ExperimentResult& a, const ExperimentResult& b) {
  if (a.average_model != b.average_model || a.series.size() != b.series.size()) return false;
  for (std::size_t r = 0; r < a.series.size(); ++r) {
    if (deterministic_fields(a.series[r]) != deterministic_fields(b.series[r])) return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const pdsl::CliArgs args(
      argc, argv,
      {"agents", "rounds", "train", "image", "mc_perms", "seed", "algo",
       "threads", "out"});
  const auto widths = args.get_int_list("threads", {1, 2, 4, 8});
  const std::string out_path = args.get_string("out", "BENCH_threads.json");
  ExperimentConfig cfg = base_config(args);

  std::printf("==== bench_threads_scaling: %s, M=%zu, %zu rounds ====\n",
              cfg.algorithm.c_str(), cfg.agents, cfg.rounds);
  std::printf("%7s %10s | per-phase ms/round: %10s %10s %10s %10s %10s | %12s | %8s\n",
              "threads", "total(s)", "local_grad", "crossgrad", "shapley",
              "aggregate", "gossip", "metrics_eval", "speedup");

  pdsl::bench::BenchEnvelope env("threads", "scaling");
  {
    pdsl::json::Object c;
    c["algorithm"] = cfg.algorithm;
    c["agents"] = cfg.agents;
    c["rounds"] = cfg.rounds;
    c["shapley_permutations"] = cfg.hp.shapley_permutations;
    c["eval_every"] = cfg.metrics.eval_every;
    c["seed"] = cfg.seed;
    pdsl::json::Array ws;
    for (const auto w : widths) ws.push_back(pdsl::json::Value(w));
    c["threads"] = pdsl::json::Value(std::move(ws));
    env.set_config(std::move(c));
  }
  env.set_faults(pdsl::bench::fault_config_json(cfg));

  ExperimentResult reference;
  double seq_total = 0.0, seq_cross = 0.0, seq_shap = 0.0;
  bool bitwise_ok = true;
  for (std::size_t k = 0; k < widths.size(); ++k) {
    const auto w = widths[k];
    cfg.threads = static_cast<std::size_t>(w);
    pdsl::Stopwatch sw;
    ExperimentResult res = pdsl::core::run_experiment(cfg);
    const double total = sw.elapsed_seconds();
    const auto& p = res.phase_totals;
    const double metrics_ms = ms_per_round(metrics_eval_s(res), cfg.rounds);
    if (k == 0) {
      seq_total = total;
      seq_cross = p.crossgrad_s;
      seq_shap = p.shapley_s;
    }
    const bool identical = k == 0 || same_results(res, reference);
    bitwise_ok = bitwise_ok && identical;  // a violation is flagged loudly below
    std::printf("%7lld %10.2f | %30.2f %10.2f %10.2f %10.2f %10.2f | %12.2f | %7.2fx\n",
                static_cast<long long>(w), total,
                ms_per_round(p.local_grad_s, cfg.rounds),
                ms_per_round(p.crossgrad_s, cfg.rounds),
                ms_per_round(p.shapley_s, cfg.rounds),
                ms_per_round(p.aggregate_s, cfg.rounds),
                ms_per_round(p.gossip_s, cfg.rounds), metrics_ms, seq_total / total);

    const std::string prefix = "threads" + std::to_string(w);
    env.add_metric_sample(prefix + ".total_s", "s", total);
    env.add_metric_sample(prefix + ".speedup_total", "x", seq_total / total);
    env.add_metric_sample(prefix + ".crossgrad_ms_per_round", "ms",
                          ms_per_round(p.crossgrad_s, cfg.rounds));
    env.add_metric_sample(prefix + ".shapley_ms_per_round", "ms",
                          ms_per_round(p.shapley_s, cfg.rounds));
    env.add_metric_sample(prefix + ".metrics_eval_ms_per_round", "ms", metrics_ms);

    pdsl::json::Object row;
    row["threads"] = static_cast<std::size_t>(w);
    row["total_s"] = total;
    row["local_grad_ms_per_round"] = ms_per_round(p.local_grad_s, cfg.rounds);
    row["crossgrad_ms_per_round"] = ms_per_round(p.crossgrad_s, cfg.rounds);
    row["shapley_ms_per_round"] = ms_per_round(p.shapley_s, cfg.rounds);
    row["aggregate_ms_per_round"] = ms_per_round(p.aggregate_s, cfg.rounds);
    row["gossip_ms_per_round"] = ms_per_round(p.gossip_s, cfg.rounds);
    row["metrics_eval_ms_per_round"] = metrics_ms;
    row["speedup_total"] = seq_total / total;
    row["speedup_crossgrad"] = p.crossgrad_s > 0 ? seq_cross / p.crossgrad_s : 0.0;
    row["speedup_shapley"] = p.shapley_s > 0 ? seq_shap / p.shapley_s : 0.0;
    row["bit_identical_to_threads1"] = identical;
    env.add_run(std::move(row));
    if (k == 0) reference = std::move(res);
  }

  // The determinism contract doubles as this bench's acceptance gate.
  pdsl::json::Object gate;
  gate["bit_identical_across_widths"] = bitwise_ok;
  gate["passed"] = bitwise_ok;
  env.set_acceptance(std::move(gate));
  if (!env.write(out_path)) return 1;
  if (!bitwise_ok) {
    std::fprintf(stderr,
                 "ERROR: results differ across thread widths (determinism "
                 "contract violated)\n");
    return 1;
  }
  return 0;
}
