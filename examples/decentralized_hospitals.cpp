// Domain scenario: a consortium of hospitals trains a shared diagnostic
// model without a coordinating server and without revealing patient data.
//
// This example uses the *assembly-level* API: you build the dataset shards,
// the communication graph, the mixing matrix and the Env yourself, then drive
// core::Pdsl round by round. It also shows the observability hooks: per-round
// Shapley values act as a contribution audit across sites, and the privacy
// accountant tracks the cumulative (epsilon, delta) spend.
//
// The data is synthetic (class-skewed images standing in for per-site
// disease mixes): each hospital sees a very different case mix, which is
// exactly the heterogeneity PDSL targets.

#include <cstdio>

#include "core/pdsl.hpp"
#include "data/partition.hpp"
#include "data/synthetic.hpp"
#include "dp/accountant.hpp"
#include "dp/mechanism.hpp"
#include "nn/model_zoo.hpp"
#include "sim/evaluate.hpp"

using namespace pdsl;

int main() {
  constexpr std::size_t kHospitals = 5;
  constexpr std::size_t kRounds = 15;
  constexpr double kEpsilonPerRound = 0.3;
  constexpr double kDelta = 1e-3;

  // 1. Data: one pool of "cases", split into per-hospital shards with a very
  // skewed Dir(0.1) case mix, plus a shared validation registry Q and a
  // held-out test registry.
  Rng rng(2026);
  auto pool = data::make_synthetic_images(data::mnist_like_spec(1400, 10, 77));
  auto [rest, test] = data::split_off(pool, 250, rng);
  auto [train, validation] = data::split_off(rest, 150, rng);

  data::PartitionOptions popts;
  popts.mu = 0.1;  // strongly skewed case mix
  auto partition = data::dirichlet_partition(train, kHospitals, popts, rng);
  const auto dists = data::label_distributions(train, partition, train.num_classes());
  std::printf("case-mix heterogeneity (mean pairwise TV): %.3f\n",
              data::heterogeneity_index(dists));

  // 2. Communication: hospitals are connected in a ring (regional peering).
  const auto topo = graph::Graph::ring(kHospitals);
  const auto mixing = graph::Metropolis(topo);

  // 3. Model + privacy calibration: per-round Gaussian mechanism on clipped
  // mini-batch gradients.
  const nn::Model model = nn::make_mlp(100, 32, 10);
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
  env.hp.batch = 16;
  // Gaussian-mechanism sigma for the per-round budget, scaled down for the
  // reduced problem size exactly as the bench harness does (DESIGN.md,
  // "Noise level at reduced scale").
  env.hp.sigma =
      0.06 * dp::gaussian_sigma(2.0 * env.hp.clip / env.hp.batch, kEpsilonPerRound, kDelta);
  env.hp.shapley_permutations = 6;
  env.hp.validation_batch = 40;
  env.seed = 11;

  std::printf("hospitals=%zu ring, sigma=%.4f (eps=%.2f/round, delta=%.0e)\n\n", kHospitals,
              env.hp.sigma, kEpsilonPerRound, kDelta);

  // 4. Train, auditing contributions and privacy spend as we go.
  core::Pdsl alg(env);
  dp::PrivacyAccountant accountant;
  nn::Model eval_ws = model;

  for (std::size_t t = 1; t <= kRounds; ++t) {
    alg.run_round(t);
    accountant.record(kEpsilonPerRound, kDelta);
    if (t % 5 == 0 || t == 1) {
      double loss = 0.0;
      for (std::size_t h = 0; h < kHospitals; ++h) {
        loss += alg.worker(h).local_eval_loss(alg.models()[h]);
      }
      std::printf("round %2zu: avg local loss %.4f | hospital 0 sees contributions:", t,
                  loss / kHospitals);
      for (double phi : alg.last_shapley()[0]) std::printf(" %+.3f", phi);
      std::printf("\n");
    }
  }

  // 5. Final report: per-hospital accuracy on the shared test registry.
  std::printf("\nper-hospital test accuracy:");
  double mean_acc = 0.0;
  for (std::size_t h = 0; h < kHospitals; ++h) {
    const double acc = sim::evaluate(eval_ws, alg.models()[h], test, 250).accuracy;
    mean_acc += acc;
    std::printf(" %.3f", acc);
  }
  std::printf("  (mean %.3f)\n", mean_acc / kHospitals);
  std::printf("privacy spend after %zu rounds: basic eps=%.2f, advanced eps=%.2f (delta'=%g)\n",
              accountant.num_rounds(), accountant.basic_epsilon(),
              accountant.advanced_epsilon(1e-4), 1e-4);
  const sim::NetCounters net = alg.network().counters();
  std::printf("network: %zu messages, %.1f MB\n", net.messages,
              static_cast<double>(net.bytes) / 1e6);
  return 0;
}
