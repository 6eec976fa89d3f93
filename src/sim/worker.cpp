#include "sim/worker.hpp"

#include <algorithm>
#include <stdexcept>

namespace pdsl::sim {

namespace {
constexpr std::size_t kEvalSubset = 96;  // fixed local subset for stable metrics
}

LocalWorker::LocalWorker(const nn::Model& model, const data::Dataset& ds,
                         std::vector<std::size_t> indices, std::size_t batch_size, Rng rng)
    : model_(model),
      ds_(&ds),
      sampler_(ds, indices, batch_size, rng.split(0xBA7C)),
      stateless_seed_(splitmix64(rng.seed() ^ 0x57A7E1E5ULL)),
      dim_(model.num_params()) {
  // Deterministic eval subset: first min(kEvalSubset, n) indices of the
  // agent's shard (shard order is already randomized by the partitioner).
  const std::size_t n = std::min(kEvalSubset, indices.size());
  std::vector<std::size_t> eval_idx(indices.begin(),
                                    indices.begin() + static_cast<std::ptrdiff_t>(n));
  eval_x_ = ds.batch_features(eval_idx);
  eval_y_ = ds.batch_labels(eval_idx);
}

void LocalWorker::draw_batch() {
  auto [x, y] = sampler_.sample();
  batch_x_ = std::move(x);
  batch_y_ = std::move(y);
  has_batch_ = true;
}

void LocalWorker::draw_batch(std::uint64_t salt) {
  Rng rng(splitmix64(stateless_seed_ ^ splitmix64(salt)));
  auto [x, y] = sampler_.sample_with(rng);
  batch_x_ = std::move(x);
  batch_y_ = std::move(y);
  has_batch_ = true;
}

void LocalWorker::ensure_batch() const {
  if (!has_batch_) throw std::logic_error("LocalWorker: draw_batch() before gradient");
}

std::vector<float> LocalWorker::gradient(const std::vector<float>& params) {
  ensure_batch();
  model_.set_flat_params(params);
  model_.loss_and_backward(batch_x_, batch_y_);
  return model_.flat_grad();
}

double LocalWorker::local_eval_loss(const std::vector<float>& params) {
  model_.set_flat_params(params);
  return model_.loss(eval_x_, eval_y_);
}

}  // namespace pdsl::sim
