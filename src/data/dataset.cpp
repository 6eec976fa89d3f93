#include "data/dataset.hpp"

#include <algorithm>
#include <stdexcept>

namespace pdsl::data {

Dataset::Dataset(Shape sample_shape, std::vector<float> features, std::vector<int> labels)
    : sample_shape_(std::move(sample_shape)),
      features_(std::move(features)),
      labels_(std::move(labels)) {
  const std::size_t per = shape_numel(sample_shape_);
  if (per == 0) throw std::invalid_argument("Dataset: empty sample shape");
  if (features_.size() != per * labels_.size()) {
    throw std::invalid_argument("Dataset: feature/label size mismatch");
  }
}

std::size_t Dataset::sample_numel() const { return shape_numel(sample_shape_); }

std::size_t Dataset::num_classes() const {
  int mx = -1;
  for (int y : labels_) mx = std::max(mx, y);
  return static_cast<std::size_t>(mx + 1);
}

void Dataset::set_label(std::size_t i, int label) {
  if (i >= size()) throw std::out_of_range("Dataset::set_label");
  if (label < 0) throw std::invalid_argument("Dataset::set_label: negative label");
  labels_[i] = label;
}

const float* Dataset::sample(std::size_t i) const {
  if (i >= size()) throw std::out_of_range("Dataset::sample");
  return features_.data() + i * sample_numel();
}

Tensor Dataset::batch_features(const std::vector<std::size_t>& idx) const {
  const std::size_t per = sample_numel();
  Shape bshape;
  bshape.push_back(idx.size());
  for (std::size_t d : sample_shape_) bshape.push_back(d);
  Tensor batch(bshape);
  float* out = batch.data();
  for (std::size_t b = 0; b < idx.size(); ++b) {
    const float* src = sample(idx[b]);
    std::copy(src, src + per, out + b * per);
  }
  return batch;
}

std::vector<int> Dataset::batch_labels(const std::vector<std::size_t>& idx) const {
  std::vector<int> out(idx.size());
  for (std::size_t b = 0; b < idx.size(); ++b) {
    if (idx[b] >= size()) throw std::out_of_range("Dataset::batch_labels");
    out[b] = labels_[idx[b]];
  }
  return out;
}

Dataset Dataset::subset(const std::vector<std::size_t>& idx) const {
  const std::size_t per = sample_numel();
  std::vector<float> feats(idx.size() * per);
  std::vector<int> labs(idx.size());
  for (std::size_t b = 0; b < idx.size(); ++b) {
    const float* src = sample(idx[b]);
    std::copy(src, src + per, feats.begin() + static_cast<std::ptrdiff_t>(b * per));
    labs[b] = labels_[idx[b]];
  }
  return Dataset(sample_shape_, std::move(feats), std::move(labs));
}

std::pair<Dataset, Dataset> split_off(const Dataset& ds, std::size_t held_out_count, Rng& rng) {
  if (held_out_count > ds.size()) {
    throw std::invalid_argument("split_off: held_out_count exceeds dataset size");
  }
  auto perm = rng.permutation(ds.size());
  std::vector<std::size_t> held(perm.begin(),
                                perm.begin() + static_cast<std::ptrdiff_t>(held_out_count));
  std::vector<std::size_t> rest(perm.begin() + static_cast<std::ptrdiff_t>(held_out_count),
                                perm.end());
  return {ds.subset(rest), ds.subset(held)};
}

}  // namespace pdsl::data
