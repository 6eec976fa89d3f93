// Example: checkpointing a decentralized run. Trains PDSL for a few rounds,
// persists the whole fleet (every agent's model) with checksummed binary
// checkpoints, simulates a crash, restores the fleet into a *fresh*
// algorithm instance, and continues training. Demonstrates io::save_fleet /
// load_fleet plus warm-starting via Algorithm model state.

#include <cstdio>

#include "core/pdsl.hpp"
#include "data/partition.hpp"
#include "data/synthetic.hpp"
#include "io/checkpoint.hpp"
#include "nn/model_zoo.hpp"
#include "sim/evaluate.hpp"

using namespace pdsl;

namespace {

algos::Env make_env(const graph::Graph& topo, const graph::Metropolis& mixing,
                    const data::Dataset& train, const data::Dataset& validation,
                    const nn::Model& model,
                    const std::vector<std::vector<std::size_t>>& partition) {
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
  env.hp.sigma = 0.05;
  env.hp.batch = 16;
  env.hp.shapley_permutations = 6;
  env.hp.validation_batch = 32;
  env.seed = 9;
  return env;
}

double mean_accuracy(nn::Model ws, const std::vector<std::vector<float>>& models,
                     const data::Dataset& test) {
  double acc = 0.0;
  for (const auto& x : models) acc += sim::evaluate(ws, x, test, 200).accuracy;
  return acc / static_cast<double>(models.size());
}

}  // namespace

int main() {
  constexpr const char* kCheckpoint = "/tmp/pdsl_fleet_checkpoint.bin";

  Rng rng(4);
  auto pool = data::make_synthetic_images(data::mnist_like_spec(1200, 10, 5));
  auto [rest, test] = data::split_off(pool, 200, rng);
  auto [train, validation] = data::split_off(rest, 150, rng);
  const auto topo = graph::Graph::full(5);
  const auto mixing = graph::Metropolis(topo);
  const nn::Model model = nn::make_mlp(100, 32, 10);
  data::PartitionOptions popts;
  popts.mu = 0.25;
  const auto partition = data::dirichlet_partition(train, 5, popts, rng);
  const auto env = make_env(topo, mixing, train, validation, model, partition);

  // Phase 1: train 10 rounds, checkpoint the fleet.
  core::Pdsl first(env);
  for (std::size_t t = 1; t <= 10; ++t) first.run_round(t);
  io::save_fleet(kCheckpoint, first.models().dense());
  const double acc_at_checkpoint = mean_accuracy(model, first.models().dense(), test);
  std::printf("round 10 checkpointed: mean accuracy %.3f -> %s\n", acc_at_checkpoint,
              kCheckpoint);

  // Phase 2: "crash"; restore into a brand-new instance and keep going.
  core::Pdsl resumed(env);
  resumed.set_models(io::load_fleet(kCheckpoint));
  const double acc_restored = mean_accuracy(model, resumed.models().dense(), test);
  std::printf("restored fleet: mean accuracy %.3f (matches checkpoint: %s)\n", acc_restored,
              acc_restored == acc_at_checkpoint ? "yes" : "NO");

  for (std::size_t t = 11; t <= 20; ++t) resumed.run_round(t);
  std::printf("after resume to round 20: mean accuracy %.3f\n",
              mean_accuracy(model, resumed.models().dense(), test));
  return 0;
}
