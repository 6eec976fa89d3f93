#pragma once
// Per-round experiment metrics: the quantities the paper's figures and tables
// report (average training loss, test accuracy) plus diagnostics (consensus
// distance, communication volume).

#include <cstddef>
#include <string>
#include <vector>

#include "common/csv.hpp"
#include "fleet/lazy_matrix.hpp"
#include "obs/phase.hpp"

namespace pdsl::sim {

struct RoundMetrics {
  std::size_t round = 0;
  double avg_loss = 0.0;        ///< mean over agents of F_i(x_i) on local eval data
  double test_accuracy = 0.0;   ///< mean over agents of accuracy(x_i) on the test set
  double consensus = 0.0;       ///< mean over agents of ||x_i - x_bar||_2
  double grad_norm = 0.0;       ///< ||grad of F at x_bar|| proxy if recorded (else 0)
  std::size_t messages = 0;     ///< cumulative network messages so far
  std::size_t bytes = 0;        ///< cumulative network bytes so far
  double elapsed_s = 0.0;       ///< cumulative run wall time after this round
  double round_s = 0.0;         ///< wall time of this round's run_round alone
  obs::PhaseTimings phases;     ///< where round_s went (S-OBS breakdown)
  // S-FAULT: dropped/delayed are cumulative network totals (like
  // messages/bytes); the rest are this round's degradation events.
  std::size_t dropped = 0;      ///< cumulative messages lost (drops + churn)
  std::size_t delayed = 0;      ///< cumulative messages delayed in flight
  std::size_t offline = 0;      ///< agents churned out this round
  std::size_t stale_reused = 0; ///< cached cross-gradients substituted this round
  std::size_t fallbacks = 0;    ///< self-gradient fallbacks this round
  // S-BYZ: adversary activity + defense screening.
  std::size_t byz_active = 0;   ///< agents with an active Byzantine role this round
  std::size_t corrupted = 0;    ///< cumulative payloads corrupted on the wire
  std::size_t rejected = 0;     ///< non-finite payloads refused this round
  std::size_t reclipped = 0;    ///< received gradients re-clipped to C this round
  double pi_attacker = 0.0;     ///< mean defense weight on attacker-origin edges
  double pi_honest = 0.0;       ///< mean defense weight on honest-origin edges
  // S-BENCH360: cumulative privacy budget spent through this round — the RDP
  // accountant's (epsilon, delta)-DP conversion at the run's delta after
  // composing one Gaussian-mechanism release per agent per round. 0 when the
  // run is non-private (sigma = 0). Monotonically non-decreasing.
  double epsilon_spent = 0.0;
  // S-SHAP: this round's coalition scoring budget (all agents). Zero for
  // algorithms without a Shapley phase.
  std::size_t shapley_evals = 0;        ///< characteristic evaluations run
  std::size_t shapley_early_stops = 0;  ///< agents whose MC sampler CI-stopped early
  // S-RECOV: unreliable-channel transport + crash/recovery activity.
  // Transport counters are cumulative network totals (like messages/bytes);
  // crashes/resyncs are this round's events.
  std::size_t retransmits = 0;      ///< cumulative frames resent after a NACK
  std::size_t corrupt_detected = 0; ///< cumulative checksum-caught bit flips
  std::size_t dup_dropped = 0;      ///< cumulative duplicate copies deduped
  std::size_t reordered = 0;        ///< cumulative front-of-queue deliveries
  std::size_t crashes = 0;          ///< agents crashed and restarted this round
  std::size_t resyncs = 0;          ///< crashed agents that got a neighbor resync
};

/// Mean over agents of ||x_i - mean_j x_j||.
double consensus_distance(const std::vector<std::vector<float>>& models);
double consensus_distance(const fleet::LazyMatrix& models);

/// Average of per-agent flat models.
std::vector<float> average_model(const std::vector<std::vector<float>>& models);
std::vector<float> average_model(const fleet::LazyMatrix& models);

/// Write a metrics series to CSV (columns: round, avg_loss, test_accuracy,
/// consensus, grad_norm, messages, bytes, dropped, delayed, offline,
/// stale_reused, fallbacks, byz_active, corrupted, rejected, reclipped,
/// pi_attacker, pi_honest, epsilon_spent, shapley_evals, shapley_early_stops,
/// retransmits, corrupt_detected, dup_dropped, reordered, crashes, resyncs, elapsed_s,
/// round_s, then one <phase>_s column per obs::Phase).
void write_metrics_csv(const std::string& path, const std::string& run_label,
                       const std::vector<RoundMetrics>& series);

}  // namespace pdsl::sim
