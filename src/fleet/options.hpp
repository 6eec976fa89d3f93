#pragma once
// S-SCALE fleet configuration: sampled/random-walk participation, lazy agent
// state, the wire-format round-trip mode and the fleet-scale graph
// generators' parameters. All defaults are "off", in which case every
// algorithm behaves bit-identically to the pre-fleet code paths (the golden
// fixtures enforce this).

#include <cstddef>
#include <cstdint>
#include <string>

namespace pdsl::schema {
class Visitor;
}

namespace pdsl::fleet {

enum class ParticipationMode {
  kFull,     ///< every agent active every round (historical behavior)
  kSampled,  ///< exactly k of N active, deterministic hash of (seed, agent, round)
  kWalk,     ///< random-walk: one walker; the walker and its previous position
             ///< are active so the model hands off along graph edges
};

ParticipationMode participation_mode_from_string(const std::string& name);
std::string to_string(ParticipationMode mode);

struct ParticipationPlan {
  ParticipationMode mode = ParticipationMode::kFull;
  /// Sampled mode: number of active agents per round. 0 = derive from rate.
  std::size_t active = 0;
  /// Sampled mode alternative: fraction of agents active per round, in (0, 1].
  /// Used only when `active` is 0; k = ceil(rate * N), at least 1.
  double rate = 0.0;
  /// Hash seed for participation decisions; 0 = derive from the experiment
  /// seed (splitmix64(seed ^ 0xF1EE7A6E)).
  std::uint64_t seed = 0;

  [[nodiscard]] bool enabled() const { return mode != ParticipationMode::kFull; }
  /// Resolve k for a fleet of n agents (sampled mode). Throws on invalid.
  [[nodiscard]] std::size_t resolved_active(std::size_t n) const;
};

struct FleetOptions {
  ParticipationPlan participation;
  /// Materialize per-agent workers (model workspace + eval cache) only for
  /// active agents, with LRU eviction of dormant ones.
  bool lazy_state = false;
  /// Max simultaneously materialized workers in lazy mode. 0 = auto
  /// (4x the active set, floor 32).
  std::size_t worker_cache = 0;
  /// Encode + decode + verify every sim::Network message through the
  /// versioned wire format (proves bit-identical serialization on every send).
  bool wire_roundtrip = false;
  /// Skip the O(M^3) spectral report (ExperimentResult::spectral stays zero),
  /// which would dominate setup at fleet sizes. The trajectory is unchanged.
  bool sparse = false;
  /// Degree for the "regular" (circulant) topology generator.
  std::size_t degree = 4;
  /// Connection radius for the "geometric" topology generator.
  double radius = 0.25;

  /// Any fleet machinery engaged at all?
  [[nodiscard]] bool enabled() const {
    return participation.enabled() || lazy_state || wire_roundtrip;
  }
  /// Stateless (round-keyed) mini-batch draws are required whenever workers
  /// can be evicted or skipped, so a re-materialized worker draws exactly the
  /// batches it would have drawn had it stayed resident.
  [[nodiscard]] bool stateless_batches() const {
    return participation.enabled() || lazy_state;
  }

  /// Range-check against a fleet of `agents`; throws std::invalid_argument
  /// naming the offending field.
  void validate(std::size_t agents) const;
};

/// The config schema (common/schema.hpp): JSON keys, `pdsl_cli run` flags
/// and single-field ranges, declared once.
void visit(schema::Visitor& v, ParticipationPlan& p);
void visit(schema::Visitor& v, FleetOptions& f);

}  // namespace pdsl::fleet
