// S-BYZ attacker-fraction sweep: PDSL's Shapley weighting evaluated as a
// native Byzantine defense. For each attacker fraction the sweep runs
// pdsl / pdsl_robust / pdsl_uniform / dp_dpsgd under the same attack and
// records final accuracy plus the mean Shapley-derived aggregation weight pi
// on attacker vs honest edges (averaged over the last 3 rounds; PDSL
// variants only — the gossip baseline has no edge weights).
//
// The run doubles as the PR's acceptance gate: at the 25% sign_flip point it
// asserts (a) pdsl_robust's attacker-edge pi has collapsed below half the
// honest-edge pi by round 10 and (b) plain pdsl's final accuracy beats
// unweighted dp_dpsgd gossip by a clear margin. Exit 1 on violation, and
// also when the 25% row ran fewer than 10 rounds (acceptance records
// pi_gate_armed: false), so CI can run the bench as a contract. Results land
// in BENCH_byzantine.json (override with --out).

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/cli.hpp"
#include "common/json.hpp"
#include "common/schema.hpp"
#include "core/experiment.hpp"
#include "sim/faults.hpp"

namespace {

using pdsl::core::ExperimentConfig;
using pdsl::core::ExperimentResult;

ExperimentConfig base_config(const pdsl::CliArgs& args) {
  ExperimentConfig cfg;
  cfg.dataset = "mnist_like";
  cfg.model = "mlp";
  cfg.topology = "full";
  cfg.agents = static_cast<std::size_t>(args.get_int("agents", 8));
  cfg.rounds = static_cast<std::size_t>(args.get_int("rounds", 12));
  cfg.train_samples = static_cast<std::size_t>(args.get_int("train", 900));
  cfg.test_samples = 240;
  cfg.validation_samples = 200;
  cfg.image = 10;
  cfg.hidden = 32;
  cfg.hp.batch = 16;
  cfg.hp.gamma = 0.05;
  cfg.hp.alpha = 0.5;
  cfg.hp.shapley_permutations =
      static_cast<std::size_t>(args.get_int("mc_perms", 8));
  cfg.hp.validation_batch = 64;
  cfg.sigma_mode = "dpsgd";
  cfg.epsilon = 0.3;
  cfg.noise_scale = 0.06;
  cfg.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  cfg.metrics.eval_every = cfg.rounds;  // accuracy at the final round only
  cfg.metrics.test_subsample = 240;
  return cfg;
}

/// Mean attacker/honest-edge pi over the trailing `window` rounds (0/0 when
/// the algorithm exposes no split, e.g. the gossip baseline or a clean run).
struct PiSplit {
  double attacker = 0.0;
  double honest = 0.0;
};

PiSplit trailing_pi(const ExperimentResult& res, std::size_t window) {
  PiSplit s;
  if (res.series.size() < window || window == 0) return s;
  for (std::size_t r = res.series.size() - window; r < res.series.size(); ++r) {
    s.attacker += res.series[r].pi_attacker;
    s.honest += res.series[r].pi_honest;
  }
  s.attacker /= static_cast<double>(window);
  s.honest /= static_cast<double>(window);
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  const pdsl::CliArgs args(argc, argv,
                           {"agents", "rounds", "train", "mc_perms", "seed",
                            "fracs", "mode", "scale", "out"});
  const auto fracs = args.get_double_list("fracs", {0.0, 0.125, 0.25, 0.375});
  const std::string mode_name = args.get_string("mode", "sign_flip");
  const double byz_scale = args.get_double("scale", 3.0);
  const std::string out_path = args.get_string("out", "BENCH_byzantine.json");
  const std::vector<std::string> algos = {"pdsl", "pdsl_robust", "pdsl_uniform",
                                          "dp_dpsgd"};
  ExperimentConfig base = base_config(args);

  std::printf("==== bench_byzantine: %s x%.1f, M=%zu, %zu rounds, seed %llu ====\n",
              mode_name.c_str(), byz_scale, base.agents, base.rounds,
              static_cast<unsigned long long>(base.seed));
  std::printf("%6s %14s | %8s %9s %9s | %10s %9s %9s\n", "frac", "algorithm",
              "acc", "pi_att", "pi_hon", "corrupted", "rejected", "reclipped");

  pdsl::bench::BenchEnvelope env("byzantine", "table");
  {
    pdsl::json::Object c;
    c["dataset"] = base.dataset;
    c["topology"] = base.topology;
    c["agents"] = base.agents;
    c["rounds"] = base.rounds;
    c["byz_mode"] = mode_name;
    c["byz_scale"] = byz_scale;
    c["shapley_permutations"] = base.hp.shapley_permutations;
    c["seed"] = base.seed;
    pdsl::json::Array fs;
    for (const double f : fracs) fs.push_back(pdsl::json::Value(f));
    c["fracs"] = pdsl::json::Value(std::move(fs));
    env.set_config(std::move(c));
  }
  env.set_faults(pdsl::bench::fault_config_json(base));

  double pdsl_acc_25 = -1.0, dpsgd_acc_25 = -1.0;
  double robust_pi_att_r10 = -1.0, robust_pi_hon_r10 = -1.0;
  for (const double frac : fracs) {
    for (const std::string& algo : algos) {
      ExperimentConfig cfg = base;
      cfg.algorithm = algo;
      cfg.adversary.frac = frac;
      cfg.adversary.mode = pdsl::sim::byz_mode_from_string(mode_name);
      cfg.adversary.scale = byz_scale;
      // Record the regime at the largest attacker fraction of the sweep.
      if (frac == fracs.back() && algo == algos.front()) {
        env.set_adversary(pdsl::schema::to_json(cfg.adversary));
      }
      const ExperimentResult res = pdsl::core::run_experiment(cfg);
      const PiSplit pi = trailing_pi(res, 3);
      std::printf("%6.3f %14s | %8.3f %9.3f %9.3f | %10zu %9zu %9zu\n", frac,
                  algo.c_str(), res.final_accuracy, pi.attacker, pi.honest,
                  res.corrupted, res.rejected, res.reclipped);

      env.add_metric_sample(algo + ".final_accuracy", "accuracy", res.final_accuracy);
      env.add_metric_sample(algo + ".pi_attacker_mean_last3", "weight", pi.attacker);
      env.add_metric_sample(algo + ".pi_honest_mean_last3", "weight", pi.honest);

      pdsl::json::Object row;
      row["frac"] = frac;
      row["algorithm"] = algo;
      row["final_accuracy"] = res.final_accuracy;
      row["final_loss"] = res.final_loss;
      row["epsilon_spent"] = res.epsilon_spent;
      row["pi_attacker_mean_last3"] = pi.attacker;
      row["pi_honest_mean_last3"] = pi.honest;
      row["corrupted"] = res.corrupted;
      row["rejected"] = res.rejected;
      row["reclipped"] = res.reclipped;
      env.add_run(std::move(row));

      if (frac == 0.25 && mode_name == "sign_flip") {
        if (algo == "pdsl") pdsl_acc_25 = res.final_accuracy;
        if (algo == "dp_dpsgd") dpsgd_acc_25 = res.final_accuracy;
        if (algo == "pdsl_robust" && res.series.size() >= 10) {
          robust_pi_att_r10 = res.series[9].pi_attacker;
          robust_pi_hon_r10 = res.series[9].pi_honest;
        }
      }
    }
  }

  // Acceptance contract (mirrors test_byzantine's ShapleyDefense suite). It
  // applies whenever the 25% sign_flip row ran, and fails closed: a run too
  // short to reach round 10 never measures the pi collapse, which leaves the
  // gate unarmed — a failure, not a pass.
  bool ok = true;
  const bool pi_gate_armed = robust_pi_att_r10 >= 0.0;
  if (pdsl_acc_25 >= 0.0 && dpsgd_acc_25 >= 0.0) {
    if (pdsl_acc_25 <= dpsgd_acc_25 + 0.15) {
      std::fprintf(stderr,
                   "CONTRACT VIOLATION: pdsl %.3f vs dp_dpsgd %.3f at 25%% "
                   "sign_flip (need +0.15 margin)\n",
                   pdsl_acc_25, dpsgd_acc_25);
      ok = false;
    }
    if (!pi_gate_armed) {
      std::fprintf(stderr,
                   "CONTRACT UNARMED: pdsl_robust pi at round 10 was never measured "
                   "(%zu rounds; need >= 10)\n",
                   base.rounds);
      ok = false;
    } else if (robust_pi_att_r10 >= robust_pi_hon_r10) {
      std::fprintf(stderr,
                   "CONTRACT VIOLATION: pdsl_robust round-10 attacker pi %.3f "
                   ">= honest pi %.3f\n",
                   robust_pi_att_r10, robust_pi_hon_r10);
      ok = false;
    }
  }

  if (pdsl_acc_25 >= 0.0) {
    pdsl::json::Object gate;
    gate["pdsl_accuracy_at_25pct"] = pdsl_acc_25;
    gate["dp_dpsgd_accuracy_at_25pct"] = dpsgd_acc_25;
    gate["pi_gate_armed"] = pi_gate_armed;
    gate["pdsl_robust_pi_attacker_round10"] = robust_pi_att_r10;
    gate["pdsl_robust_pi_honest_round10"] = robust_pi_hon_r10;
    gate["passed"] = ok;
    env.set_acceptance(std::move(gate));
  }
  if (!env.write(out_path)) return 1;
  return ok ? 0 : 1;
}
