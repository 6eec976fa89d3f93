#include "fleet/options.hpp"

#include <cmath>
#include <stdexcept>

#include "common/schema.hpp"

namespace pdsl::fleet {

ParticipationMode participation_mode_from_string(const std::string& name) {
  if (name == "full") return ParticipationMode::kFull;
  if (name == "sampled") return ParticipationMode::kSampled;
  if (name == "walk") return ParticipationMode::kWalk;
  throw std::invalid_argument("unknown participation mode: " + name +
                              " (expected full|sampled|walk)");
}

std::string to_string(ParticipationMode mode) {
  switch (mode) {
    case ParticipationMode::kFull: return "full";
    case ParticipationMode::kSampled: return "sampled";
    case ParticipationMode::kWalk: return "walk";
  }
  return "full";
}

std::size_t ParticipationPlan::resolved_active(std::size_t n) const {
  if (active > 0) {
    if (active > n) {
      throw std::invalid_argument("participation.active (" + std::to_string(active) +
                                  ") exceeds the number of agents (" + std::to_string(n) + ")");
    }
    return active;
  }
  if (rate <= 0.0 || rate > 1.0) {
    throw std::invalid_argument("participation.rate must be in (0,1] when active is 0, got " +
                                std::to_string(rate));
  }
  const auto k = static_cast<std::size_t>(std::ceil(rate * static_cast<double>(n)));
  return k == 0 ? 1 : (k > n ? n : k);
}

void FleetOptions::validate(std::size_t agents) const {
  if (agents == 0) throw std::invalid_argument("fleet: zero-agent configs are invalid");
  if (participation.mode == ParticipationMode::kSampled) {
    (void)participation.resolved_active(agents);  // throws with the field name
  }
  if (participation.mode == ParticipationMode::kWalk && agents < 2) {
    throw std::invalid_argument("participation mode 'walk' needs at least 2 agents");
  }
  // degree/radius are only consumed by the "regular"/"geometric" generators,
  // which range-check against the fleet size themselves; the schema rejects
  // values that are invalid for every fleet size.
  schema::check(*this, "fleet");
}

void visit(schema::Visitor& v, ParticipationPlan& p) {
  v.field({"mode", "participation"}, p.mode,
          schema::Enum{to_string, participation_mode_from_string});
  v.field({"active", "active"}, p.active);
  v.field({"rate", "participation-rate"}, p.rate, schema::kUnit);
  v.field({"seed"}, p.seed, schema::kSeed);
}

void visit(schema::Visitor& v, FleetOptions& f) {
  v.object({"participation"}, f.participation);
  v.field({"lazy_state", "lazy-state"}, f.lazy_state);
  v.field({"worker_cache", "worker-cache"}, f.worker_cache);
  v.field({"wire_roundtrip", "wire-roundtrip"}, f.wire_roundtrip);
  v.field({"sparse", "sparse"}, f.sparse);
  v.field({"degree", "degree"}, f.degree, schema::kPositiveCount);
  v.field({"radius", "radius"}, f.radius, schema::kPositive);
}

}  // namespace pdsl::fleet
