#pragma once
// Per-round experiment metrics: the quantities the paper's figures and tables
// report (average training loss, test accuracy) plus diagnostics (consensus
// distance, communication volume).

#include <cstddef>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "fleet/lazy_matrix.hpp"
#include "obs/phase.hpp"

namespace pdsl::sim {

/// One round's record. A new field needs one row in the column table
/// (for_each_column below), which every column-wise consumer walks.
struct RoundMetrics {
  std::size_t round = 0;
  double avg_loss = 0.0;        ///< mean over agents of F_i(x_i) on local eval data
  double test_accuracy = 0.0;   ///< mean over agents of accuracy(x_i) on the test set
  double consensus = 0.0;       ///< mean over agents of ||x_i - x_bar||_2
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
double consensus_distance(const fleet::LazyMatrix& models);

/// Average of per-agent flat models.
std::vector<float> average_model(const fleet::LazyMatrix& models);

/// One column of the per-round record: its name (CSV header, ledger key) and
/// whether it is wall-clock time, which differs run to run and so stays out of
/// the golden fixtures, the ledger `round` event and every bit-identity check.
struct MetricColumn {
  std::string name;
  bool wall_clock = false;
};

/// The column table, in the struct's order: calls f(column, r.field...) per
/// column with that field of each record in `r` (none for a header, two to
/// compare). The CSV, the PDSLRUN1 round rows, deterministic_json (the ledger
/// `round` event and result_to_json's `series` rows) and deterministic_diff
/// all walk it, so a new column is a field plus one row.
template <class F, class... Records>
void for_each_column(F&& f, Records&... m) {
  constexpr bool kWallClock = true;
  f(MetricColumn{"round"}, m.round...);
  f(MetricColumn{"avg_loss"}, m.avg_loss...);
  f(MetricColumn{"test_accuracy"}, m.test_accuracy...);
  f(MetricColumn{"consensus"}, m.consensus...);
  f(MetricColumn{"messages"}, m.messages...);
  f(MetricColumn{"bytes"}, m.bytes...);
  f(MetricColumn{"elapsed_s", kWallClock}, m.elapsed_s...);
  f(MetricColumn{"round_s", kWallClock}, m.round_s...);
  for (const obs::Phase p : obs::kPhases) {
    f(MetricColumn{std::string(obs::phase_name(p)) + "_s", kWallClock}, m.phases.at(p)...);
  }
  f(MetricColumn{"dropped"}, m.dropped...);
  f(MetricColumn{"delayed"}, m.delayed...);
  f(MetricColumn{"offline"}, m.offline...);
  f(MetricColumn{"stale_reused"}, m.stale_reused...);
  f(MetricColumn{"fallbacks"}, m.fallbacks...);
  f(MetricColumn{"byz_active"}, m.byz_active...);
  f(MetricColumn{"corrupted"}, m.corrupted...);
  f(MetricColumn{"rejected"}, m.rejected...);
  f(MetricColumn{"reclipped"}, m.reclipped...);
  f(MetricColumn{"pi_attacker"}, m.pi_attacker...);
  f(MetricColumn{"pi_honest"}, m.pi_honest...);
  f(MetricColumn{"epsilon_spent"}, m.epsilon_spent...);
  f(MetricColumn{"shapley_evals"}, m.shapley_evals...);
  f(MetricColumn{"shapley_early_stops"}, m.shapley_early_stops...);
  f(MetricColumn{"retransmits"}, m.retransmits...);
  f(MetricColumn{"corrupt_detected"}, m.corrupt_detected...);
  f(MetricColumn{"dup_dropped"}, m.dup_dropped...);
  f(MetricColumn{"reordered"}, m.reordered...);
  f(MetricColumn{"crashes"}, m.crashes...);
  f(MetricColumn{"resyncs"}, m.resyncs...);
}

/// The deterministic columns in which `a` and `b` differ, comma-separated;
/// empty when they all match.
std::string deterministic_diff(const RoundMetrics& a, const RoundMetrics& b);

/// The deterministic columns of `m` as a JSON object keyed by column name:
/// one ledger `round` event, or one `series` row of result_to_json.
json::Object deterministic_json(const RoundMetrics& m);

/// Write a metrics series to CSV: `run`, the deterministic columns, then (with
/// `wall_clock`) the wall-clock ones, each group in table order.
void write_metrics_csv(const std::string& path, const std::string& run_label,
                       const std::vector<RoundMetrics>& series, bool wall_clock = true);

}  // namespace pdsl::sim
