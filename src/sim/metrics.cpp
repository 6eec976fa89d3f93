#include "sim/metrics.hpp"

#include <stdexcept>

#include "common/vec_math.hpp"

namespace pdsl::sim {

double consensus_distance(const std::vector<std::vector<float>>& models) {
  if (models.empty()) return 0.0;
  const auto avg = average_model(models);
  double acc = 0.0;
  for (const auto& m : models) acc += l2_distance(m, avg);
  return acc / static_cast<double>(models.size());
}

std::vector<float> average_model(const std::vector<std::vector<float>>& models) {
  if (models.empty()) throw std::invalid_argument("average_model: no models");
  std::vector<const std::vector<float>*> ptrs;
  ptrs.reserve(models.size());
  for (const auto& m : models) ptrs.push_back(&m);
  return mean_of(ptrs);
}

double consensus_distance(const fleet::LazyMatrix& models) {
  if (models.empty()) return 0.0;
  const auto avg = average_model(models);
  double acc = 0.0;
  for (std::size_t i = 0; i < models.size(); ++i) acc += l2_distance(models[i], avg);
  return acc / static_cast<double>(models.size());
}

std::vector<float> average_model(const fleet::LazyMatrix& models) {
  if (models.empty()) throw std::invalid_argument("average_model: no models");
  std::vector<const std::vector<float>*> ptrs;
  ptrs.reserve(models.size());
  for (std::size_t i = 0; i < models.size(); ++i) ptrs.push_back(&models[i]);
  return mean_of(ptrs);
}

void write_metrics_csv(const std::string& path, const std::string& run_label,
                       const std::vector<RoundMetrics>& series) {
  CsvWriter csv(path, {"run", "round", "avg_loss", "test_accuracy", "consensus", "grad_norm",
                       "messages", "bytes", "dropped", "delayed", "offline", "stale_reused",
                       "fallbacks", "byz_active", "corrupted", "rejected", "reclipped",
                       "pi_attacker", "pi_honest", "epsilon_spent", "shapley_evals",
                       "shapley_early_stops", "retransmits", "corrupt_detected", "dup_dropped",
                       "reordered", "crashes", "resyncs", "elapsed_s", "round_s", "local_grad_s",
                       "crossgrad_s", "shapley_s", "aggregate_s", "gossip_s"});
  for (const auto& m : series) {
    csv.row(run_label, m.round, m.avg_loss, m.test_accuracy, m.consensus, m.grad_norm,
            m.messages, m.bytes, m.dropped, m.delayed, m.offline, m.stale_reused, m.fallbacks,
            m.byz_active, m.corrupted, m.rejected, m.reclipped, m.pi_attacker, m.pi_honest,
            m.epsilon_spent, m.shapley_evals, m.shapley_early_stops, m.retransmits,
            m.corrupt_detected, m.dup_dropped, m.reordered, m.crashes, m.resyncs, m.elapsed_s,
            m.round_s, m.phases.local_grad_s, m.phases.crossgrad_s, m.phases.shapley_s,
            m.phases.aggregate_s, m.phases.gossip_s);
  }
  csv.flush();
}

}  // namespace pdsl::sim
