#pragma once
// Softmax cross-entropy loss over integer class labels. Fused: backward
// computes (softmax - onehot)/N directly, which is both faster and more
// numerically stable than chaining separate softmax and NLL layers.

#include <vector>

#include "tensor/tensor.hpp"

namespace pdsl::nn {

class SoftmaxCrossEntropy {
 public:
  /// Mean cross-entropy of logits (N, classes) against labels (N).
  double forward(const Tensor& logits, const std::vector<int>& labels);

  /// Gradient of the mean loss w.r.t. the logits of the last forward().
  [[nodiscard]] Tensor backward() const;

  /// Fraction of rows whose argmax equals the label (uses last forward()).
  [[nodiscard]] double accuracy() const;

  /// Per-sample cross-entropy of the last forward() (membership-inference
  /// attacks threshold these).
  [[nodiscard]] const std::vector<double>& per_sample_losses() const { return sample_losses_; }

 private:
  Tensor probs_;
  std::vector<int> labels_;
  std::vector<bool> correct_;
  std::vector<double> sample_losses_;
};

}  // namespace pdsl::nn
