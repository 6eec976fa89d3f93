#include "shapley/game.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_set>

namespace pdsl::shapley {

Game::Game(std::size_t num_players, BatchCharacteristicFn batch_v)
    : n_(num_players), batch_v_(std::move(batch_v)) {
  if (n_ == 0) throw std::invalid_argument("shapley::Game: need at least one player");
  if (n_ > 63) {
    throw std::invalid_argument(
        "shapley::Game: at most 63 players — coalitions are uint64_t bitmasks. "
        "Dense neighborhoods of a large fleet exceed this; use a bounded-degree "
        "topology (--topology regular) so every closed neighborhood stays <= 63.");
  }
  if (!batch_v_) throw std::invalid_argument("shapley::Game: null characteristic function");
}

std::vector<std::size_t> Game::members(std::uint64_t mask) {
  std::vector<std::size_t> out;
  for (std::size_t j = 0; mask != 0; ++j, mask >>= 1) {
    if (mask & 1ULL) out.push_back(j);
  }
  return out;
}

std::uint64_t Game::full_mask() const {
  return n_ == 63 ? ~0ULL >> 1 : (1ULL << n_) - 1;
}

void Game::check_range(std::uint64_t mask) const {
  if (mask >= (1ULL << n_)) throw std::out_of_range("shapley::Game: mask out of range");
}

void Game::score(const std::vector<std::uint64_t>& masks) {
  const std::vector<double> vals = batch_v_(masks);
  if (vals.size() != masks.size()) {
    throw std::logic_error("shapley::Game: characteristic returned the wrong value count");
  }
  for (std::size_t k = 0; k < masks.size(); ++k) memo_.emplace(masks[k], vals[k]);
}

double Game::value(std::uint64_t mask) {
  if (mask == 0) return 0.0;  // v(emptyset) = 0 by Definition 3
  check_range(mask);
  auto it = memo_.find(mask);
  if (it == memo_.end()) {
    score({mask});
    it = memo_.find(mask);
  }
  return it->second;
}

void Game::prefetch(const std::vector<std::uint64_t>& masks) {
  // Pending = first occurrence of each non-empty, unknown mask, in
  // announcement order (so the chunk composition is deterministic).
  std::vector<std::uint64_t> pending;
  std::unordered_set<std::uint64_t> seen;
  for (const std::uint64_t mask : masks) {
    if (mask == 0) continue;
    check_range(mask);
    if (memo_.count(mask) == 0 && seen.insert(mask).second) pending.push_back(mask);
  }
  // Chunk so a stacked evaluator's weight/activation buffers stay bounded
  // even when an exact enumeration announces 2^n coalitions at once.
  constexpr std::size_t kMaxBatch = 512;
  std::vector<std::uint64_t> chunk;
  for (std::size_t start = 0; start < pending.size(); start += kMaxBatch) {
    const std::size_t count = std::min(kMaxBatch, pending.size() - start);
    chunk.assign(pending.begin() + static_cast<std::ptrdiff_t>(start),
                 pending.begin() + static_cast<std::ptrdiff_t>(start + count));
    score(chunk);
  }
}

}  // namespace pdsl::shapley
