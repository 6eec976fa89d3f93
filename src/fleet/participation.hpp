#pragma once
// Deterministic per-round participation sampling (S-SCALE pillar 1). The
// active set for round t is a pure function of (seed, round) — the same
// stateless-hash discipline as the S-FAULT plans — so reruns and different
// --threads widths see identical participation, and a schedule can be
// queried for any round without stepping through earlier ones (walk mode
// replays its hash chain from round 1, which is O(t) and trivially cheap).

#include <cstddef>
#include <cstdint>
#include <vector>

#include "fleet/options.hpp"
#include "graph/graph.hpp"

namespace pdsl::fleet {

/// Active-agent mask for round `round` (1-based, matching run_round).
/// - kFull: all ones.
/// - kSampled: exactly k agents — the k smallest (hash, id) pairs where
///   hash = splitmix64 of (seed, agent, round).
/// - kWalk: the walker position p_t and its previous position p_{t-1}
///   (p_0 := p_1), so each step is a handoff along a graph edge.
/// `seed` must already be resolved (non-zero); use resolve_participation_seed.
std::vector<unsigned char> participation_mask(const ParticipationPlan& plan,
                                              const graph::Graph& topo, std::size_t round,
                                              std::uint64_t seed);

/// Resolve the plan's hash seed: plan.seed when non-zero, else derived from
/// the experiment seed.
[[nodiscard]] std::uint64_t resolve_participation_seed(const ParticipationPlan& plan,
                                                       std::uint64_t experiment_seed);

/// Walker position at round t (exposed for tests; round >= 1).
[[nodiscard]] std::size_t walk_position(const graph::Graph& topo, std::size_t round,
                                        std::uint64_t seed);

}  // namespace pdsl::fleet
