#include "core/replicate.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>

namespace pdsl::core {

Aggregate Aggregate::of(const std::vector<double>& xs) {
  if (xs.empty()) throw std::invalid_argument("Aggregate::of: empty sample");
  Aggregate a;
  a.mean = std::accumulate(xs.begin(), xs.end(), 0.0) / static_cast<double>(xs.size());
  double var = 0.0;
  for (double x : xs) var += (x - a.mean) * (x - a.mean);
  a.stddev = xs.size() > 1 ? std::sqrt(var / static_cast<double>(xs.size() - 1)) : 0.0;
  const auto [mn, mx] = std::minmax_element(xs.begin(), xs.end());
  a.min = *mn;
  a.max = *mx;
  return a;
}

ReplicatedResult run_replicated(ExperimentConfig cfg,
                                const std::vector<std::uint64_t>& seeds) {
  if (seeds.empty()) throw std::invalid_argument("run_replicated: no seeds");
  // Every run would reopen these files: the ledger and the checkpoint would
  // keep only the last seed's run, and each seed would resume from one state.
  const std::pair<const char*, const std::string*> per_run_files[] = {
      {"ledger_out", &cfg.ledger_out},
      {"checkpoint_path", &cfg.checkpoint_path},
      {"resume_from", &cfg.resume_from}};
  for (const auto& [key, path] : per_run_files) {
    if (!path->empty()) {
      throw std::invalid_argument(std::string("run_replicated: \"") + key +
                                  "\" names one run's file and cannot be shared by several seeds");
    }
  }
  ReplicatedResult out;
  std::vector<double> losses, accs;
  for (const auto seed : seeds) {
    cfg.seed = seed;
    out.runs.push_back(run_experiment(cfg));
    losses.push_back(out.runs.back().final_loss);
    accs.push_back(out.runs.back().final_accuracy);
  }
  out.final_loss = Aggregate::of(losses);
  out.final_accuracy = Aggregate::of(accs);
  return out;
}

}  // namespace pdsl::core
