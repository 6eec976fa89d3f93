#include "obs/phase.hpp"

#include <cstdio>
#include <stdexcept>

namespace pdsl::obs {

const char* phase_name(Phase p) {
  switch (p) {
    case Phase::kLocalGrad: return "local_grad";
    case Phase::kCrossGrad: return "crossgrad";
    case Phase::kShapley: return "shapley";
    case Phase::kAggregate: return "aggregate";
    case Phase::kGossip: return "gossip";
    default: return "unknown";
  }
}

double& PhaseTimings::at(Phase p) {
  switch (p) {
    case Phase::kLocalGrad: return local_grad_s;
    case Phase::kCrossGrad: return crossgrad_s;
    case Phase::kShapley: return shapley_s;
    case Phase::kAggregate: return aggregate_s;
    case Phase::kGossip: return gossip_s;
    default: throw std::out_of_range("PhaseTimings::at: bad phase");
  }
}

double PhaseTimings::at(Phase p) const { return const_cast<PhaseTimings*>(this)->at(p); }

PhaseTimings& PhaseTimings::operator+=(const PhaseTimings& o) {
  for (const Phase p : kPhases) at(p) += o.at(p);
  return *this;
}

std::string format_phase_table(const PhaseTimings& totals, std::size_t rounds) {
  const double denom = totals.total() > 0.0 ? totals.total() : 1.0;
  const double r = rounds > 0 ? static_cast<double>(rounds) : 1.0;
  char line[128];
  std::string out;
  std::snprintf(line, sizeof(line), "%-11s %10s %13s %7s\n", "phase", "total_s", "ms_per_round",
                "share");
  out += line;
  for (const Phase p : kPhases) {
    const double s = totals.at(p);
    std::snprintf(line, sizeof(line), "%-11s %10.4f %13.3f %6.1f%%\n", phase_name(p), s,
                  1e3 * s / r, 100.0 * s / denom);
    out += line;
  }
  std::snprintf(line, sizeof(line), "%-11s %10.4f %13.3f\n", "total", totals.total(),
                1e3 * totals.total() / r);
  out += line;
  return out;
}

}  // namespace pdsl::obs
