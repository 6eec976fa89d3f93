// S-SHAP consolidated Shapley bench (absorbs the old ablation_shapley and
// ablation_mc_shapley binaries). Three sections:
//
//  perf      — the hot-path contract. One PDSL testbed (8 agents, full graph,
//              mnist_like mlp) run four ways: the sequential reference path,
//              --shapley-eval batched (stacked-GEMM coalition scoring;
//              BIT-IDENTICAL to sequential),
//              --shapley-eval linear (coalitions scored via first-layer
//              linearity — per-member pre-activations computed once, each
//              coalition a cheap average + the small later layers), and
//              linear + --shapley-method adaptive (antithetic pairs, CI
//              early stop) — the full S-SHAP fast path. Reports per-round
//              wall time, the shapley phase alone, and the speedups; at full
//              scale the acceptance gate requires linear+adaptive to hold
//              >= 5x on the shapley phase and >= 4x end-to-end while (a) the
//              batched mc run is BIT-IDENTICAL to sequential mc and (b) every
//              fast variant preserves each agent's top-1 pi up to
//              characteristic-quantization ties.
//  quality   — estimator error vs exact enumeration (Eq. 18): the Monte Carlo
//              permutation-budget sweep plus the tmc/stratified/adaptive
//              variants at a matched budget.
//  weighting — what Shapley weighting buys (ablation A1): PDSL vs
//              PDSL-uniform vs DP-DPSGD across heterogeneity, label-poisoned
//              agents and Byzantine gradient poisoning.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/csv.hpp"
#include "common/stopwatch.hpp"
#include "core/pdsl.hpp"
#include "data/partition.hpp"
#include "data/synthetic.hpp"
#include "nn/model_zoo.hpp"

using namespace pdsl;

namespace {

/// Shared PDSL testbed for the perf and quality sections: mnist_like images,
/// one-hidden-layer mlp, fully connected graph (largest neighborhoods).
struct Bed {
  data::Dataset train, validation, test;
  graph::Graph topo;
  graph::Metropolis mixing;
  nn::Model model;
  std::vector<std::vector<std::size_t>> partition;

  static Bed make(std::size_t agents, std::uint64_t seed) {
    Rng rng(seed);
    auto pool = data::make_synthetic_images(data::mnist_like_spec(1200, 10, seed));
    auto [rest, test] = data::split_off(pool, 200, rng);
    auto [train, validation] = data::split_off(rest, 150, rng);
    auto topo = graph::Graph::full(agents);
    auto mixing = graph::Metropolis(topo);
    nn::Model model = nn::make_mlp(100, 24, 10);
    Rng part_rng = rng.split(1);
    data::PartitionOptions popts;
    popts.mu = 0.25;
    auto partition = data::dirichlet_partition(train, agents, popts, part_rng);
    return Bed{std::move(train), std::move(validation), std::move(test),
               std::move(topo),  std::move(mixing),     std::move(model),
               std::move(partition)};
  }

  [[nodiscard]] algos::Env env(std::uint64_t seed) const {
    algos::Env e;
    e.topo = &topo;
    e.mixing = &mixing;
    e.train = &train;
    e.validation = &validation;
    e.model_template = &model;
    e.partition = &partition;
    e.hp.gamma = 0.05;
    e.hp.alpha = 0.5;
    e.hp.clip = 1.0;
    e.hp.sigma = 0.05;
    e.hp.batch = 16;
    e.hp.validation_batch = 32;
    e.seed = seed;
    return e;
  }
};

struct PerfRun {
  std::vector<sim::RoundMetrics> series;
  std::vector<std::vector<float>> models;      ///< final x_i, materialized
  std::vector<std::vector<double>> last_phi;   ///< final-round phi per agent
  algos::ShapleyRoundStats stats;              ///< last-round S-SHAP counters
  double round_ms = 0.0;                       ///< mean wall ms per round
  double shapley_ms = 0.0;                     ///< mean shapley-phase ms per round
  double accuracy = 0.0;
};

PerfRun run_perf_variant(const Bed& bed, std::uint64_t seed, std::size_t rounds,
                         const std::string& eval, const std::string& method,
                         std::size_t perms) {
  algos::Env e = bed.env(seed);
  e.hp.shapley_eval = eval;
  e.hp.shapley_method = method;
  e.hp.shapley_permutations = perms;
  core::Pdsl alg(e);
  algos::MetricsOptions mopts;
  mopts.test_subsample = 200;
  mopts.eval_every = rounds;
  PerfRun out;
  out.series = run_with_metrics(alg, rounds, bed.test, mopts);
  for (const auto& m : out.series) {
    out.round_ms += 1e3 * m.round_s / static_cast<double>(rounds);
    out.shapley_ms += 1e3 * m.phases.shapley_s / static_cast<double>(rounds);
  }
  for (std::size_t i = 0; i < alg.num_agents(); ++i) out.models.push_back(alg.models()[i]);
  out.last_phi = alg.last_shapley();
  if (const auto s = alg.shapley_round_stats()) out.stats = *s;
  out.accuracy = out.series.back().test_accuracy;
  return out;
}

/// Round-1 phi under one (eval, method) configuration: every variant starts
/// from the same initial models, so this isolates the estimator/eval-path
/// difference from trajectory divergence (after several rounds the runs play
/// DIFFERENT games on diverged models and their rankings are not comparable;
/// trajectory-level ranking claims live in bench_byzantine's attacker-pi
/// collapse check, which the S-SHAP gate requires to stay green separately).
std::vector<std::vector<double>> probe_phi(const Bed& bed, std::uint64_t seed,
                                           const std::string& eval,
                                           const std::string& method, std::size_t perms) {
  algos::Env e = bed.env(seed);
  e.hp.shapley_eval = eval;
  e.hp.shapley_method = method;
  e.hp.shapley_permutations = perms;
  core::Pdsl alg(e);
  alg.run_round(1);
  return alg.last_shapley();
}

/// Does `var` put each agent's top weight on the same member as `ref`, up to
/// ties? The characteristic is validation accuracy on a 32-sample batch, so
/// phi is quantized at 1/32 — when the reference's top-1 and the variant's
/// pick are within one quantum of each other in the REFERENCE phi, they are
/// statistically indistinguishable and either choice is a faithful ranking.
bool top1_preserved(const char* name, const std::vector<std::vector<double>>& ref,
                    const std::vector<std::vector<double>>& var, double tie_tol) {
  bool ok = true;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    const auto argmax = [](const std::vector<double>& row) {
      return static_cast<std::size_t>(
          std::max_element(row.begin(), row.end()) - row.begin());
    };
    const std::size_t s = argmax(ref[i]);
    const std::size_t v = argmax(var[i]);
    if (v != s && ref[i][s] - ref[i][v] > tie_tol) {
      std::fprintf(stderr,
                   "  top-1 divergence [%s] agent %zu: ref prefers %zu "
                   "(phi %.4f), variant prefers %zu (ref phi %.4f, gap %.4f)\n",
                   name, i, s, ref[i][s], v, ref[i][v], ref[i][s] - ref[i][v]);
      ok = false;
    }
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv, {"scale", "rounds", "agents", "seed", "perms", "mc_perms",
                                  "mu", "eps", "sections", "out"});
  const std::string scale = args.get_string("scale", "quick");
  const auto agents = static_cast<std::size_t>(args.get_int("agents", 8));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const auto rounds_flag = static_cast<std::size_t>(args.get_int("rounds", 0));
  // R=64 permutations is the canonical per-agent MC budget: the quality
  // section shows mean |phi - exact| has converged well below one
  // characteristic quantum there, and it is the scale the perf gate's
  // speedup thresholds are calibrated against (at tiny budgets the shapley
  // phase no longer dominates the round and a 4x end-to-end speedup is
  // arithmetically impossible for ANY shapley-only optimization).
  const auto mc_perms = static_cast<std::size_t>(args.get_int("mc_perms", 64));
  const auto perm_budgets = args.get_int_list("perms", {2, 4, 8, 16, 32});
  const double eps = args.get_double("eps", 0.1);
  const auto mus = args.get_double_list("mu", {0.1, 0.25, 1.0});
  const std::string sections = args.get_string("sections", "perf,quality,weighting");
  const auto want = [&](const char* s) { return sections.find(s) != std::string::npos; };

  std::filesystem::create_directories("bench_results");  // CSVs land here
  bench::BenchEnvelope env("shapley", "ablation");
  {
    json::Object c;
    c["agents"] = agents;
    c["rounds"] = rounds_flag;
    c["seed"] = seed;
    c["mc_perms"] = mc_perms;
    c["epsilon"] = eps;
    c["sections"] = sections;
    env.set_config(std::move(c));
  }

  bool gate_evaluated = false;
  bool ok = true;

  // ---------------------------------------------------------------- perf --
  if (want("perf")) {
    const std::size_t rounds = rounds_flag != 0 ? rounds_flag : 6;
    const Bed bed = Bed::make(agents, seed);
    std::printf("==== S-SHAP perf: sequential vs batched vs linear(+adaptive) ====\n");
    std::printf("M=%zu rounds=%zu mc_perms=%zu (mnist_like mlp, full graph)\n", agents,
                rounds, mc_perms);

    const auto seq = run_perf_variant(bed, seed, rounds, "sequential", "mc", mc_perms);
    const auto bat = run_perf_variant(bed, seed, rounds, "batched", "mc", mc_perms);
    const auto lin = run_perf_variant(bed, seed, rounds, "linear", "mc", mc_perms);
    const auto ada = run_perf_variant(bed, seed, rounds, "linear", "adaptive", mc_perms);

    const bool bit_identical = seq.models == bat.models;
    const double tie_tol = 1.0 / 32.0;  // one validation-batch quantum
    const auto ref_phi = probe_phi(bed, seed, "sequential", "mc", mc_perms);
    const bool top1_bat = top1_preserved(
        "batched", ref_phi, probe_phi(bed, seed, "batched", "mc", mc_perms), tie_tol);
    const bool top1_lin = top1_preserved(
        "linear", ref_phi, probe_phi(bed, seed, "linear", "mc", mc_perms), tie_tol);
    const bool top1_ada = top1_preserved(
        "adaptive", ref_phi, probe_phi(bed, seed, "linear", "adaptive", mc_perms), tie_tol);
    const bool top1_ok = top1_bat && top1_lin && top1_ada;
    const double shap_speedup_bat = seq.shapley_ms / std::max(bat.shapley_ms, 1e-9);
    const double shap_speedup_lin = seq.shapley_ms / std::max(lin.shapley_ms, 1e-9);
    const double shap_speedup_ada = seq.shapley_ms / std::max(ada.shapley_ms, 1e-9);
    const double round_speedup_bat = seq.round_ms / std::max(bat.round_ms, 1e-9);
    const double round_speedup_lin = seq.round_ms / std::max(lin.round_ms, 1e-9);
    const double round_speedup_ada = seq.round_ms / std::max(ada.round_ms, 1e-9);

    CsvWriter csv("bench_results/shapley_perf.csv",
                  {"variant", "round_ms", "shapley_ms", "coalition_evals",
                   "permutations_used", "early_stopped", "test_accuracy"});
    std::printf("%22s %10s %12s %8s %6s %9s\n", "variant", "round_ms", "shapley_ms", "evals",
                "perms", "accuracy");
    const auto report = [&](const char* name, const PerfRun& r) {
      std::printf("%22s %10.2f %12.2f %8zu %6zu %9.3f\n", name, r.round_ms, r.shapley_ms,
                  r.stats.coalition_evals, r.stats.permutations_used, r.accuracy);
      csv.row(name, r.round_ms, r.shapley_ms, r.stats.coalition_evals,
              r.stats.permutations_used, r.stats.early_stopped, r.accuracy);
      const std::string p = std::string("perf.") + name;
      env.add_metric_sample(p + ".round_ms", "ms", r.round_ms);
      env.add_metric_sample(p + ".shapley_ms", "ms", r.shapley_ms);
      env.add_metric_sample(p + ".coalition_evals", "count",
                            static_cast<double>(r.stats.coalition_evals));
      json::Object run;
      run["section"] = std::string("perf");
      run["variant"] = std::string(name);
      run["round_ms"] = r.round_ms;
      run["shapley_ms"] = r.shapley_ms;
      run["coalition_evals"] = r.stats.coalition_evals;
      run["permutations_used"] = r.stats.permutations_used;
      run["early_stopped"] = r.stats.early_stopped;
      run["test_accuracy"] = r.accuracy;
      env.add_run(std::move(run));
    };
    report("sequential_mc", seq);
    report("batched_mc", bat);
    report("linear_mc", lin);
    report("linear_adaptive", ada);
    csv.flush();
    std::printf("speedup: batched %.2fx shapley / %.2fx round; "
                "linear %.2fx / %.2fx; linear+adaptive %.2fx / %.2fx\n",
                shap_speedup_bat, round_speedup_bat, shap_speedup_lin, round_speedup_lin,
                shap_speedup_ada, round_speedup_ada);
    std::printf("batched bit-identical to sequential: %s; top-1 pi preserved: %s\n",
                bit_identical ? "yes" : "NO", top1_ok ? "yes" : "NO");
    env.add_metric_sample("perf.batched.shapley_speedup_x", "x", shap_speedup_bat);
    env.add_metric_sample("perf.batched.round_speedup_x", "x", round_speedup_bat);
    env.add_metric_sample("perf.linear.shapley_speedup_x", "x", shap_speedup_lin);
    env.add_metric_sample("perf.linear.round_speedup_x", "x", round_speedup_lin);
    env.add_metric_sample("perf.adaptive.shapley_speedup_x", "x", shap_speedup_ada);
    env.add_metric_sample("perf.adaptive.round_speedup_x", "x", round_speedup_ada);

    // The bit-identity half of the contract holds at ANY scale. The timing
    // thresholds and the ranking check are only meaningful at the full
    // default size (tiny smoke runs are all overhead, and after 2 rounds phi
    // is one big statistical tie), so they arm at >= 8 agents, >= 5 rounds.
    if (!bit_identical) {
      std::fprintf(stderr, "CONTRACT VIOLATION: batched mc diverged from sequential mc\n");
      ok = false;
    }
    if (agents >= 8 && rounds >= 5) {
      gate_evaluated = true;
      if (!top1_ok) {
        std::fprintf(stderr,
                     "CONTRACT VIOLATION: top-1 pi changed beyond tie tolerance\n");
        ok = false;
      }
      if (shap_speedup_ada < 5.0) {
        std::fprintf(stderr,
                     "CONTRACT VIOLATION: shapley-phase speedup %.2fx < 5x\n",
                     shap_speedup_ada);
        ok = false;
      }
      if (round_speedup_ada < 4.0) {
        std::fprintf(stderr, "CONTRACT VIOLATION: round speedup %.2fx < 4x\n",
                     round_speedup_ada);
        ok = false;
      }
      json::Object gate;
      gate["shapley_speedup_x"] = shap_speedup_ada;
      gate["round_speedup_x"] = round_speedup_ada;
      gate["linear_shapley_speedup_x"] = shap_speedup_lin;
      gate["batched_shapley_speedup_x"] = shap_speedup_bat;
      gate["batched_bit_identical"] = bit_identical;
      gate["top1_pi_preserved"] = top1_ok;
      gate["passed"] = ok;
      env.set_acceptance(std::move(gate));
    }
  }

  // ------------------------------------------------------------- quality --
  if (want("quality")) {
    const std::size_t rounds = rounds_flag != 0 ? rounds_flag : 6;
    const std::size_t q_agents = std::min<std::size_t>(agents, 6);  // exact is 2^n
    const Bed bed = Bed::make(q_agents, seed);
    std::printf("\n==== S-SHAP quality: estimators vs exact enumeration (M=%zu) ====\n",
                q_agents);

    struct QRun {
      std::vector<std::vector<std::vector<double>>> phis;  // [round][agent][k]
      double seconds = 0.0;
      std::size_t evals = 0;
      double acc = 0.0;
    };
    const auto collect = [&](const std::string& method, std::size_t perms) {
      algos::Env e = bed.env(seed);
      e.hp.shapley_method = method;
      e.hp.shapley_permutations = perms;
      core::Pdsl alg(e);
      QRun out;
      Stopwatch sw;
      for (std::size_t t = 1; t <= rounds; ++t) {
        alg.run_round(t);
        out.phis.push_back(alg.last_shapley());
        out.evals += alg.last_characteristic_evals();
      }
      out.seconds = sw.elapsed_seconds();
      nn::Model ws = bed.model;
      for (std::size_t i = 0; i < q_agents; ++i) {
        out.acc += sim::evaluate(ws, alg.models()[i], bed.test, 200).accuracy;
      }
      out.acc /= static_cast<double>(q_agents);
      return out;
    };

    const auto exact = collect("exact", 1);
    std::printf("exact: evals=%zu time=%.2fs acc=%.3f\n", exact.evals, exact.seconds,
                exact.acc);
    env.add_metric_sample("exact.char_evals", "count", static_cast<double>(exact.evals));
    env.add_metric_sample("exact.seconds", "s", exact.seconds);
    env.add_metric_sample("exact.test_accuracy", "accuracy", exact.acc);

    const auto phi_err = [&](const QRun& r) {
      double err = 0.0;
      std::size_t count = 0;
      for (std::size_t t = 0; t < rounds; ++t) {
        for (std::size_t i = 0; i < q_agents; ++i) {
          for (std::size_t k = 0; k < exact.phis[t][i].size(); ++k) {
            err += std::abs(r.phis[t][i][k] - exact.phis[t][i][k]);
            ++count;
          }
        }
      }
      return err / static_cast<double>(count);
    };

    CsvWriter csv("bench_results/shapley_quality.csv",
                  {"method", "permutations", "mean_abs_phi_error", "char_evals", "seconds",
                   "test_accuracy"});
    std::printf("%8s %6s %20s %12s %10s %10s\n", "method", "R", "mean |phi - exact|",
                "char evals", "time(s)", "accuracy");
    const auto report = [&](const std::string& method, std::size_t perms, const QRun& r) {
      const double err = phi_err(r);
      std::printf("%8s %6zu %20.5f %12zu %10.2f %10.3f\n", method.c_str(), perms, err,
                  r.evals, r.seconds, r.acc);
      csv.row(method, perms, err, r.evals, r.seconds, r.acc);
      csv.flush();
      json::Object run;
      run["section"] = std::string("quality");
      run["method"] = method;
      run["permutations"] = perms;
      run["mean_abs_phi_error"] = err;
      run["char_evals"] = r.evals;
      run["seconds"] = r.seconds;
      run["test_accuracy"] = r.acc;
      env.add_run(std::move(run));
      return err;
    };
    for (const auto perms : perm_budgets) {
      const auto R = static_cast<std::size_t>(perms);
      const auto mc = collect("mc", R);
      const double err = report("mc", R, mc);
      const std::string prefix = "perm" + std::to_string(R);
      env.add_metric_sample(prefix + ".mean_abs_phi_error", "phi", err);
      env.add_metric_sample(prefix + ".char_evals", "count",
                            static_cast<double>(mc.evals));
      env.add_metric_sample(prefix + ".seconds", "s", mc.seconds);
    }
    std::printf("-- variants at matched budget (R=8) --\n");
    for (const std::string method : {"tmc", "stratified", "adaptive"}) {
      const auto r = collect(method, 8);
      const double err = report(method, 8, r);
      env.add_metric_sample("variant_" + method + ".mean_abs_phi_error", "phi", err);
      env.add_metric_sample("variant_" + method + ".char_evals", "count",
                            static_cast<double>(r.evals));
    }
  }

  // ----------------------------------------------------------- weighting --
  if (want("weighting")) {
    auto sp = bench::scale_params(scale, "mnist_like");
    if (rounds_flag != 0) sp.rounds = rounds_flag;
    const std::size_t w_agents = std::min<std::size_t>(agents, 6);
    bench::SweepSpec spec;
    spec.id = "shapley";
    spec.dataset = "mnist_like";
    spec.topology = "full";

    std::printf("\n==== S-SHAP weighting ablation (PDSL vs PDSL-uniform vs DP-DPSGD) ====\n");
    std::printf("M=%zu eps=%.3g rounds=%zu\n", w_agents, eps, sp.rounds);
    CsvWriter csv("bench_results/shapley_weighting.csv",
                  {"section", "mu", "corrupt_agents", "byzantine_agents", "algorithm",
                   "final_loss", "test_accuracy", "heterogeneity"});

    std::printf("%8s %15s %12s %12s %14s\n", "mu", "algorithm", "final_loss", "accuracy",
                "heterogeneity");
    for (const double mu : mus) {
      for (const std::string algo : {"pdsl", "pdsl_uniform", "dp_dpsgd"}) {
        auto cfg = bench::make_config(spec, sp, w_agents, eps, seed);
        cfg.algorithm = algo;
        cfg.mu = mu;
        env.set_faults(bench::fault_config_json(cfg));
        const auto res = core::run_experiment(cfg);
        std::printf("%8.3g %15s %12.4f %12.3f %14.3f\n", mu,
                    bench::display_name(algo).c_str(), res.final_loss, res.final_accuracy,
                    res.heterogeneity);
        csv.row("mu_sweep", mu, 0, 0, bench::display_name(algo), res.final_loss,
                res.final_accuracy, res.heterogeneity);
        csv.flush();
        env.add_metric_sample("mu_sweep." + algo + ".final_accuracy", "accuracy",
                              res.final_accuracy);
        json::Object run;
        run["section"] = std::string("mu_sweep");
        run["mu"] = mu;
        run["algorithm"] = algo;
        run["final_loss"] = res.final_loss;
        run["final_accuracy"] = res.final_accuracy;
        run["heterogeneity"] = res.heterogeneity;
        env.add_run(std::move(run));
      }
    }

    // Label-poisoned agents: uniform averaging has no defense, the Shapley
    // characteristic scores garbage contributions near zero on Q.
    std::printf("-- poisoned agents (mu=0.25) --\n%10s %15s %12s %12s\n", "poisoned",
                "algorithm", "final_loss", "accuracy");
    for (const std::size_t bad : {std::size_t{0}, std::size_t{1}, std::size_t{2}}) {
      for (const std::string algo : {"pdsl", "pdsl_uniform", "dp_dpsgd"}) {
        auto cfg = bench::make_config(spec, sp, w_agents, eps, seed);
        cfg.algorithm = algo;
        cfg.corrupt_agents = bad;
        const auto res = core::run_experiment(cfg);
        std::printf("%10zu %15s %12.4f %12.3f\n", bad, bench::display_name(algo).c_str(),
                    res.final_loss, res.final_accuracy);
        csv.row("poison", 0.25, bad, 0, bench::display_name(algo), res.final_loss,
                res.final_accuracy, res.heterogeneity);
        csv.flush();
        env.add_metric_sample("poison." + algo + ".final_accuracy", "accuracy",
                              res.final_accuracy);
        json::Object run;
        run["section"] = std::string("poison");
        run["corrupt_agents"] = bad;
        run["algorithm"] = algo;
        run["final_loss"] = res.final_loss;
        run["final_accuracy"] = res.final_accuracy;
        env.add_run(std::move(run));
      }
    }

    // Byzantine gradient poisoning (flip + 3x amplify): the paper's accuracy
    // characteristic is blind at a random init, the robust variant (loss
    // characteristic + ReLU normalization) zeroes attackers from round one.
    std::printf("-- byzantine agents --\n%10s %15s %12s %12s\n", "byzantine", "algorithm",
                "final_loss", "accuracy");
    for (const std::size_t bad : {std::size_t{0}, std::size_t{1}, std::size_t{2}}) {
      for (const std::string algo : {"pdsl", "pdsl_robust", "pdsl_uniform"}) {
        auto cfg = bench::make_config(spec, sp, w_agents, eps, seed);
        cfg.algorithm = algo;
        cfg.byzantine_agents = bad;
        const auto res = core::run_experiment(cfg);
        std::printf("%10zu %15s %12.4f %12.3f\n", bad, bench::display_name(algo).c_str(),
                    res.final_loss, res.final_accuracy);
        csv.row("byzantine", 0.25, 0, bad, bench::display_name(algo), res.final_loss,
                res.final_accuracy, res.heterogeneity);
        csv.flush();
        env.add_metric_sample("byzantine." + algo + ".final_accuracy", "accuracy",
                              res.final_accuracy);
        json::Object run;
        run["section"] = std::string("byzantine");
        run["byzantine_agents"] = bad;
        run["algorithm"] = algo;
        run["final_loss"] = res.final_loss;
        run["final_accuracy"] = res.final_accuracy;
        env.add_run(std::move(run));
      }
    }
  }

  if (!env.write(args.get_string("out", "BENCH_shapley.json"))) return 1;
  if (gate_evaluated) {
    std::printf("acceptance: %s\n", ok ? "PASSED" : "FAILED");
  }
  return ok ? 0 : 1;
}
