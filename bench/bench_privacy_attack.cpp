// Extension experiment: empirical privacy. The paper motivates DP with the
// risk that shared cross-gradients leak private data ([15]-[17]); this bench
// quantifies that risk directly and shows what the Gaussian mechanism buys:
//   (a) label-leakage attack on released gradients vs sigma (Sec. IV's
//       cross-gradient channel is exactly what the attacker sees);
//   (b) loss-threshold membership inference against PDSL's final models,
//       trained with and without DP.

#include <cstdio>

#include "attack/label_inference.hpp"
#include "attack/membership.hpp"
#include "bench_util.hpp"
#include "common/cli.hpp"
#include "common/csv.hpp"
#include "core/pdsl.hpp"
#include "data/partition.hpp"
#include "data/synthetic.hpp"
#include "dp/mechanism.hpp"
#include "nn/model_zoo.hpp"

using namespace pdsl;

int main(int argc, char** argv) {
  const CliArgs args(argc, argv, {"trials", "rounds", "sigmas", "seed", "out"});
  const auto trials = static_cast<std::size_t>(args.get_int("trials", 120));
  const auto rounds = static_cast<std::size_t>(args.get_int("rounds", 20));
  const auto sigmas = args.get_double_list("sigmas", {0.0, 0.02, 0.05, 0.1, 0.3, 1.0});
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));

  std::printf("==== extension: empirical privacy attacks vs Gaussian noise ====\n\n");

  pdsl::bench::BenchEnvelope envelope("privacy_attack", "attack");
  {
    json::Object c;
    c["trials"] = trials;
    c["rounds"] = rounds;
    c["seed"] = seed;
    json::Array ss;
    for (const double s : sigmas) ss.push_back(json::Value(s));
    c["sigmas"] = json::Value(std::move(ss));
    envelope.set_config(std::move(c));
  }

  // Shared data/model setup.
  Rng rng(seed);
  auto pool = data::make_synthetic_images(data::mnist_like_spec(1400, 10, seed));
  auto [rest, holdout] = data::split_off(pool, 300, rng);
  auto [train, validation] = data::split_off(rest, 150, rng);

  nn::Model model = nn::make_mlp(train.sample_numel(), 32, 10);
  Rng init_rng = rng.split(1);
  model.init(init_rng);

  // (a) Label leakage from released (cross-)gradients.
  std::printf("-- label-leakage attack on released gradients (batch=16, C=1) --\n");
  std::printf("%8s %10s %10s\n", "sigma", "hit_rate", "chance");
  CsvWriter csv("bench_results/privacy_attack.csv",
                {"attack", "sigma", "metric", "value", "baseline"});
  for (const double sigma : sigmas) {
    const auto res =
        attack::label_leakage_experiment(model, train, 16, 1.0, sigma, trials, rng.split(7));
    std::printf("%8.3g %10.3f %10.3f\n", sigma, res.hit_rate, res.chance);
    csv.row("label_leakage", sigma, "hit_rate", res.hit_rate, res.chance);
    if (sigma == sigmas.front()) {
      envelope.add_metric_sample("label_leakage.hit_rate_no_noise", "rate", res.hit_rate);
    }
    if (sigma == sigmas.back()) {
      envelope.add_metric_sample("label_leakage.hit_rate_max_noise", "rate", res.hit_rate);
    }
    json::Object run;
    run["attack"] = std::string("label_leakage");
    run["sigma"] = sigma;
    run["hit_rate"] = res.hit_rate;
    run["chance"] = res.chance;
    envelope.add_run(std::move(run));
  }

  // (b) Membership inference against PDSL's trained models.
  std::printf("\n-- membership inference vs PDSL's final model --\n");
  std::printf("%8s %8s %12s %14s %14s\n", "sigma", "auc", "advantage", "member_loss",
              "holdout_loss");
  const auto topo = graph::Graph::full(5);
  const auto mixing = graph::Metropolis(topo);
  Rng part_rng = rng.split(2);
  data::PartitionOptions popts;
  popts.mu = 0.25;
  const auto partition = data::dirichlet_partition(train, 5, popts, part_rng);

  for (const double sigma : {0.0, 0.05, 0.3}) {
    algos::Env env;
    env.topo = &topo;
    env.mixing = &mixing;
    env.train = &train;
    env.validation = &validation;
    env.model_template = &model;
    env.partition = &partition;
    env.hp.gamma = 0.05;
    env.hp.alpha = 0.5;
    env.hp.clip = 1.0;
    env.hp.sigma = sigma;
    env.hp.batch = 16;
    env.hp.shapley_permutations = 6;
    env.hp.validation_batch = 32;
    env.seed = seed;
    core::Pdsl alg(env);
    for (std::size_t t = 1; t <= rounds; ++t) alg.run_round(t);

    nn::Model ws = model;
    const auto members = train.subset(partition[0]);
    const auto res = attack::membership_inference(ws, alg.models()[0], members, holdout, 200);
    std::printf("%8.3g %8.3f %12.3f %14.4f %14.4f\n", sigma, res.auc, res.advantage,
                res.mean_member_loss, res.mean_nonmember_loss);
    csv.row("membership", sigma, "auc", res.auc, 0.5);
    csv.row("membership", sigma, "advantage", res.advantage, 0.0);
    if (sigma == 0.0) {
      envelope.add_metric_sample("membership.auc_no_noise", "auc", res.auc);
    } else {
      envelope.add_metric_sample("membership.auc_with_dp", "auc", res.auc);
    }
    json::Object run;
    run["attack"] = std::string("membership");
    run["sigma"] = sigma;
    run["auc"] = res.auc;
    run["advantage"] = res.advantage;
    run["mean_member_loss"] = res.mean_member_loss;
    run["mean_nonmember_loss"] = res.mean_nonmember_loss;
    envelope.add_run(std::move(run));
  }
  csv.flush();
  std::printf("\nrows in bench_results/privacy_attack.csv\n");
  return envelope.write(args.get_string("out", "BENCH_privacy_attack.json")) ? 0 : 1;
}
