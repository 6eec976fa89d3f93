#include "data/sampler.hpp"

#include <stdexcept>

namespace pdsl::data {

BatchSampler::BatchSampler(const Dataset& ds, std::vector<std::size_t> indices,
                           std::size_t batch_size, Rng rng)
    : ds_(&ds), indices_(std::move(indices)), batch_(batch_size), rng_(rng) {
  if (indices_.empty()) throw std::invalid_argument("BatchSampler: empty index set");
  if (batch_ == 0) throw std::invalid_argument("BatchSampler: zero batch size");
}

std::pair<Tensor, std::vector<int>> BatchSampler::sample() {
  return sample_with(rng_);
}

std::pair<Tensor, std::vector<int>> BatchSampler::sample_with(Rng& rng) const {
  std::vector<std::size_t> pick(batch_);
  for (auto& p : pick) {
    p = indices_[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(indices_.size()) - 1))];
  }
  return {ds_->batch_features(pick), ds_->batch_labels(pick)};
}

}  // namespace pdsl::data
