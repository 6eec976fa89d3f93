#pragma once
// The five structural phases of one decentralized-learning round and their
// per-round wall-time breakdown (S-OBS). Every algorithm accounts its work to
// these buckets via PhaseScope; run_with_metrics snapshots the accumulator
// into sim::RoundMetrics so benches and the CLI can print where a round's
// time actually goes (the aggregate elapsed_s hid that entirely).

#include <cstddef>
#include <string>

#include "common/stopwatch.hpp"
#include "obs/trace.hpp"

namespace pdsl::obs {

enum class Phase : int {
  kLocalGrad = 0,  ///< local mini-batch gradient + DP clip/noise
  kCrossGrad,      ///< cross-gradient computation on neighbors' models
  kShapley,        ///< coalition scoring + Shapley weight estimation
  kAggregate,      ///< weighted gradient aggregation + momentum/model update
  kGossip,         ///< mixing-matrix averaging over the network
  kCount,
};

inline constexpr std::size_t kNumPhases = static_cast<std::size_t>(Phase::kCount);
/// Every phase, in order, for range-for.
inline constexpr Phase kPhases[kNumPhases] = {Phase::kLocalGrad, Phase::kCrossGrad,
                                              Phase::kShapley, Phase::kAggregate, Phase::kGossip};

/// Stable lowercase name ("local_grad", ...); also the trace span name.
const char* phase_name(Phase p);

/// Seconds spent per phase within one round (or summed over a run).
struct PhaseTimings {
  double local_grad_s = 0.0;
  double crossgrad_s = 0.0;
  double shapley_s = 0.0;
  double aggregate_s = 0.0;
  double gossip_s = 0.0;

  double& at(Phase p);
  [[nodiscard]] double at(Phase p) const;
  [[nodiscard]] double total() const {
    return local_grad_s + crossgrad_s + shapley_s + aggregate_s + gossip_s;
  }
  PhaseTimings& operator+=(const PhaseTimings& o);
};

/// Human-readable per-phase table (total seconds, ms/round, share of total).
std::string format_phase_table(const PhaseTimings& totals, std::size_t rounds);

/// RAII: adds the scope's wall time to `acc.at(p)` and emits a trace span
/// named after the phase. The stopwatch always runs (it feeds PhaseTimings,
/// which RoundMetrics reports unconditionally); only the span is gated on
/// tracing being enabled.
///
/// Thread-safety (S-RT): NOT safe to use concurrently — the destructor does a
/// plain (non-atomic) `+=` on the shared PhaseTimings. Phase timers must live
/// on the driver thread, wrapping a whole runtime::parallel_for region, never
/// inside a parallel body. (Per-item spans inside a body are fine: use
/// PDSL_SPAN, whose recorder is mutex-protected.)
class PhaseScope {
 public:
  PhaseScope(PhaseTimings& acc, Phase p, std::int64_t round = -1)
      : acc_(acc), p_(p), span_(phase_name(p)) {
    if (round >= 0) span_.set_arg("round", round);
  }
  ~PhaseScope() { acc_.at(p_) += watch_.elapsed_seconds(); }
  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

 private:
  PhaseTimings& acc_;
  Phase p_;
  ScopedSpan span_;
  Stopwatch watch_;
};

}  // namespace pdsl::obs
