#pragma once
// Per-agent local computation: holds the agent's slice of the data and a
// model workspace, and answers "gradient of my loss F_i at parameters x on
// my current mini-batch" — the primitive every algorithm in the paper is
// built from (local gradients, Eq. 9, and cross-gradients, Eq. 12, are the
// same call at different parameter vectors).

#include <vector>

#include "common/rng.hpp"
#include "data/dataset.hpp"
#include "data/sampler.hpp"
#include "nn/model.hpp"

namespace pdsl::sim {

class LocalWorker {
 public:
  /// `model` is cloned as this worker's workspace. `indices` are the sample
  /// indices of D_i within `ds` (which must outlive the worker).
  LocalWorker(const nn::Model& model, const data::Dataset& ds, std::vector<std::size_t> indices,
              std::size_t batch_size, Rng rng);

  /// Draw the round's mini-batch xi_{i,t} (uniform with replacement).
  void draw_batch();

  /// S-SCALE stateless draw: the mini-batch is a pure function of the
  /// worker's construction seed and `salt` (the algorithm's draw counter),
  /// so an evicted-and-rematerialized worker draws identical batches.
  void draw_batch(std::uint64_t salt);

  /// grad F_i(x; xi_{i,t}) on the batch drawn by the last draw_batch().
  std::vector<float> gradient(const std::vector<float>& params);

  /// Loss of x on a fixed, deterministic subset of the local data (for the
  /// per-round "average loss" metric; stable across rounds).
  double local_eval_loss(const std::vector<float>& params);

  [[nodiscard]] std::size_t dim() const { return dim_; }
  [[nodiscard]] std::size_t local_size() const { return sampler_.local_size(); }
  [[nodiscard]] nn::Model& workspace() { return model_; }
  /// Sampler access for S-RECOV checkpoint/resume of the stateful draw stream.
  [[nodiscard]] data::BatchSampler& sampler() { return sampler_; }

 private:
  void ensure_batch() const;

  nn::Model model_;
  const data::Dataset* ds_;
  data::BatchSampler sampler_;
  std::uint64_t stateless_seed_;  ///< base for round-keyed draw_batch(salt)
  std::size_t dim_;
  Tensor batch_x_;
  std::vector<int> batch_y_;
  bool has_batch_ = false;
  Tensor eval_x_;
  std::vector<int> eval_y_;
};

}  // namespace pdsl::sim
