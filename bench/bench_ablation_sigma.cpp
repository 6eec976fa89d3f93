// Ablation A3: noise calibration. Prints, across topologies x agent counts x
// privacy budgets, the Theorem-1 sigma bound versus the per-round DP-SGD
// Gaussian-mechanism sigma, plus composed privacy over T rounds from the
// accountant. Pure computation (no training) — fast at any scale.

#include <cstdio>

#include "bench_util.hpp"
#include "common/cli.hpp"
#include "common/csv.hpp"
#include "dp/accountant.hpp"
#include "dp/calibration.hpp"
#include "dp/mechanism.hpp"
#include "graph/spectral.hpp"

using namespace pdsl;

int main(int argc, char** argv) {
  const CliArgs args(argc, argv,
                     {"agents", "eps", "delta", "clip", "batch", "rounds", "phimin", "out"});
  const auto agent_counts = args.get_int_list("agents", {10, 15, 20});
  const auto epsilons = args.get_double_list("eps", {0.08, 0.1, 0.3, 0.5, 0.7, 1.0});
  const double delta = args.get_double("delta", 1e-3);
  const double clip = args.get_double("clip", 1.0);
  const auto batch = static_cast<std::size_t>(args.get_int("batch", 250));
  const auto rounds = static_cast<std::size_t>(args.get_int("rounds", 180));
  const double phimin = args.get_double("phimin", 0.1);

  std::printf("==== ablation: Theorem-1 sigma vs per-round DP-SGD sigma ====\n");
  std::printf("delta=%.1e clip=%.2f batch=%zu phi_hat_min=%.2f\n\n", delta, clip, batch, phimin);

  CsvWriter csv("bench_results/ablation_sigma.csv",
                {"topology", "agents", "epsilon", "sigma_theorem1", "sigma_dpsgd", "rho",
                 "omega_min", "sensitivity_theorem1", "eps_total_basic", "eps_total_advanced"});

  bench::BenchEnvelope env("ablation_sigma", "calibration");
  {
    json::Object c;
    c["delta"] = delta;
    c["clip"] = clip;
    c["batch"] = batch;
    c["rounds"] = rounds;
    c["phi_hat_min"] = phimin;
    env.set_config(std::move(c));
  }

  std::printf("%-10s %3s %6s %14s %12s %8s %10s %12s %12s\n", "topology", "M", "eps",
              "sigma_thm1", "sigma_dpsgd", "rho", "omega_min", "T*eps basic", "T eps adv");
  for (const std::string topo_name : {"full", "bipartite", "ring"}) {
    for (const auto m : agent_counts) {
      const auto topo = graph::Graph::make(topo_name, static_cast<std::size_t>(m));
      const auto w = graph::Metropolis(topo);
      const auto info = graph::analyze(w);
      for (const double eps : epsilons) {
        dp::Theorem1Params p;
        p.epsilon = eps;
        p.delta = delta;
        p.clip = clip;
        p.phi_hat_min = phimin;
        const double s_thm = dp::theorem1_sigma(w, p);
        const double s_dpsgd =
            dp::gaussian_sigma(2.0 * clip / static_cast<double>(batch), eps, delta);
        dp::PrivacyAccountant acc;
        acc.record_rounds(eps, delta, rounds);
        const double basic = acc.basic_epsilon();
        const double adv = acc.advanced_epsilon(delta);
        std::printf("%-10s %3lld %6.3g %14.4g %12.4g %8.4f %10.4f %12.4g %12.4g\n",
                    topo_name.c_str(), static_cast<long long>(m), eps, s_thm, s_dpsgd, info.rho,
                    w.min_positive_weight(), basic, adv);
        csv.row(topo_name, m, eps, s_thm, s_dpsgd, info.rho, w.min_positive_weight(),
                dp::theorem1_sensitivity(w, clip), basic, adv);
        env.add_metric_sample(topo_name + ".sigma_theorem1_over_dpsgd", "x",
                              s_dpsgd > 0 ? s_thm / s_dpsgd : 0.0);
        json::Object run;
        run["topology"] = topo_name;
        run["agents"] = m;
        run["epsilon"] = eps;
        run["sigma_theorem1"] = s_thm;
        run["sigma_dpsgd"] = s_dpsgd;
        run["rho"] = info.rho;
        run["omega_min"] = w.min_positive_weight();
        run["eps_total_basic"] = basic;
        run["eps_total_advanced"] = adv;
        env.add_run(std::move(run));
      }
    }
  }
  csv.flush();
  std::printf("\nrows in bench_results/ablation_sigma.csv\n");
  return env.write(args.get_string("out", "BENCH_ablation_sigma.json")) ? 0 : 1;
}
