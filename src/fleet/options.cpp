#include "fleet/options.hpp"

#include <cmath>
#include <set>
#include <stdexcept>

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
  // which range-check against the fleet size themselves; here we only reject
  // values that are invalid for every fleet size.
  if (degree == 0) throw std::invalid_argument("fleet.degree must be positive");
  if (!(radius > 0.0)) {
    throw std::invalid_argument("fleet.radius must be positive, got " + std::to_string(radius));
  }
}

json::Value fleet_options_to_json(const FleetOptions& f) {
  json::Object p;
  p["mode"] = to_string(f.participation.mode);
  p["active"] = f.participation.active;
  p["rate"] = f.participation.rate;
  p["seed"] = static_cast<double>(f.participation.seed);
  json::Object o;
  o["participation"] = json::Value(std::move(p));
  o["lazy_state"] = f.lazy_state;
  o["worker_cache"] = f.worker_cache;
  o["wire_roundtrip"] = f.wire_roundtrip;
  o["sparse"] = f.sparse;
  o["degree"] = f.degree;
  o["radius"] = f.radius;
  return json::Value(std::move(o));
}

FleetOptions fleet_options_from_json(const json::Value& v) {
  static const std::set<std::string> known = {"participation", "lazy_state", "worker_cache",
                                             "wire_roundtrip", "sparse", "degree", "radius"};
  static const std::set<std::string> known_part = {"mode", "active", "rate", "seed"};
  for (const auto& [key, _] : v.as_object()) {
    if (known.find(key) == known.end()) {
      throw std::invalid_argument("fleet config: unknown key \"" + key + "\"");
    }
  }
  FleetOptions f;
  if (v.contains("participation")) {
    const auto& p = v.at("participation");
    for (const auto& [key, _] : p.as_object()) {
      if (known_part.find(key) == known_part.end()) {
        throw std::invalid_argument("fleet.participation: unknown key \"" + key + "\"");
      }
    }
    f.participation.mode = participation_mode_from_string(p.string_or("mode", "full"));
    f.participation.active = p.size_or("active", 0);
    f.participation.rate = p.number_or("rate", 0.0);
    f.participation.seed = static_cast<std::uint64_t>(p.number_or("seed", 0));
  }
  f.lazy_state = v.bool_or("lazy_state", false);
  f.worker_cache = v.size_or("worker_cache", 0);
  f.wire_roundtrip = v.bool_or("wire_roundtrip", false);
  f.sparse = v.bool_or("sparse", false);
  f.degree = v.size_or("degree", 4);
  f.radius = v.number_or("radius", 0.25);
  return f;
}

}  // namespace pdsl::fleet
