#pragma once
// In-memory labeled dataset (S3). Samples are stored contiguously; batches
// are materialized as (B, C, H, W) tensors for the NN substrate.

#include <cstddef>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "tensor/tensor.hpp"

namespace pdsl::data {

class Dataset {
 public:
  Dataset() = default;

  /// sample_shape is (C, H, W); features has size n * numel(sample_shape).
  Dataset(Shape sample_shape, std::vector<float> features, std::vector<int> labels);

  [[nodiscard]] std::size_t size() const { return labels_.size(); }
  [[nodiscard]] bool empty() const { return labels_.empty(); }
  [[nodiscard]] const Shape& sample_shape() const { return sample_shape_; }
  [[nodiscard]] std::size_t sample_numel() const;
  [[nodiscard]] std::size_t num_classes() const;

  [[nodiscard]] int label(std::size_t i) const { return labels_[i]; }

  /// Overwrite one label. Exists for corruption/poisoning experiments (e.g.
  /// the Shapley-robustness ablation) — not used by the training paths.
  void set_label(std::size_t i, int label);
  [[nodiscard]] const std::vector<int>& labels() const { return labels_; }
  [[nodiscard]] const float* sample(std::size_t i) const;

  /// Materialize a batch from indices as a (B, C, H, W) tensor + labels.
  [[nodiscard]] Tensor batch_features(const std::vector<std::size_t>& idx) const;
  [[nodiscard]] std::vector<int> batch_labels(const std::vector<std::size_t>& idx) const;

  /// Copy a subset.
  [[nodiscard]] Dataset subset(const std::vector<std::size_t>& idx) const;

 private:
  Shape sample_shape_;
  std::vector<float> features_;
  std::vector<int> labels_;
};

/// Split `ds` into (remainder, held_out) with `held_out_count` samples chosen
/// uniformly at random — used to carve out the global validation set Q.
std::pair<Dataset, Dataset> split_off(const Dataset& ds, std::size_t held_out_count, Rng& rng);

}  // namespace pdsl::data
