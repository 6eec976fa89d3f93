#include "fleet/participation.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "common/rng.hpp"

namespace pdsl::fleet {

namespace {

std::uint64_t score(std::uint64_t seed, std::size_t agent, std::size_t round) {
  return splitmix64(seed ^ splitmix64(0x5CA1EDB0ULL ^ round) ^
                    splitmix64(0xA6E2717BULL ^ agent));
}

}  // namespace

std::uint64_t resolve_participation_seed(const ParticipationPlan& plan,
                                         std::uint64_t experiment_seed) {
  return plan.seed != 0 ? plan.seed : splitmix64(experiment_seed ^ 0xF1EE7A6EULL);
}

std::size_t walk_position(const graph::Graph& topo, std::size_t round,
                          std::uint64_t seed) {
  if (round == 0) throw std::invalid_argument("walk_position: rounds are 1-based");
  std::size_t pos = static_cast<std::size_t>(splitmix64(seed ^ 0x57A2757EULL) % topo.size());
  for (std::size_t r = 2; r <= round; ++r) {
    const auto nbrs = topo.neighbors(pos);
    if (nbrs.empty()) break;  // isolated node: walker stays put
    pos = nbrs[static_cast<std::size_t>(splitmix64(seed ^ splitmix64(0x57E90B1DULL ^ r)) %
                                        nbrs.size())];
  }
  return pos;
}

std::vector<unsigned char> participation_mask(const ParticipationPlan& plan,
                                              const graph::Graph& topo,
                                              std::size_t round, std::uint64_t seed) {
  const std::size_t n = topo.size();
  switch (plan.mode) {
    case ParticipationMode::kFull:
      return std::vector<unsigned char>(n, 1);
    case ParticipationMode::kSampled: {
      const std::size_t k = plan.resolved_active(n);
      std::vector<std::pair<std::uint64_t, std::size_t>> ranked(n);
      for (std::size_t i = 0; i < n; ++i) ranked[i] = {score(seed, i, round), i};
      std::nth_element(ranked.begin(), ranked.begin() + static_cast<std::ptrdiff_t>(k - 1),
                       ranked.end());
      std::vector<unsigned char> mask(n, 0);
      for (std::size_t r = 0; r < k; ++r) mask[ranked[r].second] = 1;
      return mask;
    }
    case ParticipationMode::kWalk: {
      std::vector<unsigned char> mask(n, 0);
      const std::size_t now = walk_position(topo, round, seed);
      const std::size_t prev = round > 1 ? walk_position(topo, round - 1, seed) : now;
      mask[now] = 1;
      mask[prev] = 1;
      return mask;
    }
  }
  return std::vector<unsigned char>(n, 1);
}

}  // namespace pdsl::fleet
