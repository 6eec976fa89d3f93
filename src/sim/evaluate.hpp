#pragma once
// Shared evaluation helpers: accuracy/loss of a flat parameter vector on a
// dataset (optionally subsampled), used for test metrics and for the Shapley
// characteristic function's validation scoring.

#include <cstdint>
#include <optional>
#include <vector>

#include "data/dataset.hpp"
#include "nn/model.hpp"

namespace pdsl::sim {

struct EvalResult {
  double loss = 0.0;
  double accuracy = 0.0;
  std::size_t samples = 0;
};

/// Evaluate `params` (loaded into `workspace`) on up to `max_samples` of `ds`
/// (0 = all), in batches of `batch`.
EvalResult evaluate(nn::Model& workspace, const std::vector<float>& params,
                    const data::Dataset& ds, std::size_t max_samples = 0,
                    std::size_t batch = 128);

/// A fixed evaluation batch: materialized once, reused many times. This is
/// what PDSL's per-round characteristic function evaluates coalitions on.
struct FixedBatch {
  Tensor x;
  std::vector<int> y;

  static FixedBatch from(const data::Dataset& ds, const std::vector<std::size_t>& idx);
};

/// Accuracy of `params` on a fixed batch.
double accuracy_on(nn::Model& workspace, const std::vector<float>& params, const FixedBatch& b);

/// Loss of `params` on a fixed batch.
double loss_on(nn::Model& workspace, const std::vector<float>& params, const FixedBatch& b);

/// S-SHAP coalition scorer, in two modes.
///
/// Batched (accuracies()/losses()): scores K flat parameter vectors (the
/// coalition-average virtual models of one agent) on a FixedBatch in one
/// pass: the dominant first Linear layer runs as a SINGLE blocked GEMM over
/// the K models' vertically stacked weight matrices — C(N, K·out) =
/// X(N, in) · Wcat(K·out, in)^T — and later (small) layers run per-model with
/// weights read in place from each flat vector. Because every output element
/// of kernels::sgemm_transpose_b is an independent double-accumulated dot
/// product, the stacked call is bit-identical to K separate Linear::forward
/// calls; activations and the loss replicate the nn:: implementations
/// elementwise, so accuracies()/losses() equal accuracy_on()/loss_on()
/// exactly, not approximately. Only stackable() models — chains of
/// {Flatten, Linear, ReLU}, the zoo's mlp and logistic — have this mode.
///
/// Linear (set_members()/coalition_*()): see set_members(). It covers every
/// linear_scorable() model: the stackable chains and the models whose first
/// layer is a Conv2D (the zoo's mnist_cnn and cifar_cnn). For anything else
/// callers fall back to sequential scoring.
class CoalitionBatchEvaluator {
 public:
  /// True iff `model` is a {Flatten, Linear, ReLU} chain with a Linear before
  /// any ReLU: the layer plans both modes can replicate without nn::Model.
  [[nodiscard]] static bool stackable(const nn::Model& model);

  /// True iff linear mode can score `model`: it is stackable() or its first
  /// layer is a Conv2D.
  [[nodiscard]] static bool linear_scorable(const nn::Model& model);

  /// `model` provides the layer plan (architecture only; its parameter
  /// values are never read) and must be linear_scorable(). `val` must
  /// outlive the evaluator. `weight_budget_bytes` caps the stacked
  /// first-Linear weight block per GEMM call: oversized batches are split
  /// into cache-resident chunks (splitting along the model axis touches no
  /// reduction, so results are unchanged). A first Conv2D's stacked weights
  /// (members × out_ch rows of in_ch·k² floats) are not split.
  CoalitionBatchEvaluator(const nn::Model& model, const FixedBatch& val,
                          std::size_t weight_budget_bytes = 256 * 1024);

  /// Validation accuracy of each flat parameter vector, in order.
  /// Stackable models only (std::logic_error otherwise).
  std::vector<double> accuracies(const std::vector<const std::vector<float>*>& params);

  /// Mean validation loss of each flat parameter vector, in order.
  /// Stackable models only (std::logic_error otherwise).
  std::vector<double> losses(const std::vector<const std::vector<float>*>& params);

  /// S-SHAP "linear" mode. The first layer (Linear or Conv2D) is linear in
  /// its weight and bias, so a coalition-average model's first-layer
  /// pre-activation equals the mean of the members' pre-activations:
  /// X·mean(W_j)^T + mean(b_j) = mean(X·W_j^T + b_j), and likewise for the
  /// convolution. set_members() runs the first layer ONCE per member (a
  /// first Linear as stacked GEMMs; a first Conv2D as one convolution with
  /// the members' output channels stacked, which pads each validation image
  /// once) and keeps the members' pre-activations.
  /// coalition_accuracies()/losses() then fold, per coalition mask, the
  /// members' pre-activations and their parameters after layer 0, and run
  /// only the later layers: the MLP chains through this evaluator's own
  /// lane-parallel tail, conv-first models through the evaluator's clone of
  /// the model (nn::Model::infer_from(1, ...)).
  /// Mathematically identical to averaging weights first, but float addition
  /// does not distribute, so scores differ from accuracies()/losses() and
  /// accuracy_on()/loss_on() at rounding level — callers opt in via
  /// --shapley-eval linear. Deterministic: members fold in ascending index
  /// order with weight 1/|S|. `members` must outlive the scoring calls;
  /// masks are bitmasks over the member indices (bit k = members[k]).
  void set_members(const std::vector<const std::vector<float>*>& members);
  std::vector<double> coalition_accuracies(const std::vector<std::uint64_t>& masks);
  std::vector<double> coalition_losses(const std::vector<std::uint64_t>& masks);

 private:
  enum class Op { kLinear, kRelu };
  struct Step {
    Op op;
    std::size_t linear = 0;  ///< index into linears_ when op == kLinear
  };
  struct Lin {
    std::size_t in = 0, out = 0;
    std::size_t w_off = 0, b_off = 0;  ///< offsets into the flat param vector
  };

  std::vector<double> scores(const std::vector<const std::vector<float>*>& params,
                             bool want_loss);
  std::vector<double> coalition_scores(const std::vector<std::uint64_t>& masks,
                                       bool want_loss);
  /// First Linear over all of `params` via cache-budgeted stacked GEMMs,
  /// leaving per-model contiguous (K, N, out) pre-activations in `dst`.
  void first_layer_into(const std::vector<const std::vector<float>*>& params,
                        std::vector<float>& dst);
  /// Run the stackable chain after its first Linear on the single model
  /// whose activations start in buf_a_ (rows_, first-out) and whose
  /// later-layer parameters come from `flat` (offset-addressed like a full
  /// flat vector); returns the (rows_, classes_) logits, in buf_a_ or buf_b_.
  const float* chain_tail(const float* flat);
  /// Mean loss or accuracy of (rows_, classes_) logits against val_->y.
  [[nodiscard]] double score_logits(const float* logits, bool want_loss) const;

  const FixedBatch* val_;
  std::size_t rows_ = 0;         ///< validation samples N
  std::size_t in_features_ = 0;  ///< features per sample
  std::size_t num_params_ = 0;   ///< expected flat vector length
  std::size_t classes_ = 0;      ///< width of the final activations
  std::size_t head_params_ = 0;  ///< layer 0's weight + bias: the flat prefix
  /// Layout of the member pre-activations in member_z_: fold_groups_ groups
  /// (1 for a first Linear, N images for a first Conv2D), each holding the
  /// p members' blocks of fold_block_ floats in member order. A coalition's
  /// pre-activation is fold_groups_ × fold_block_ floats.
  std::size_t fold_groups_ = 0, fold_block_ = 0;
  std::vector<Step> steps_;      ///< stackable models only
  std::vector<Lin> linears_;     ///< stackable models only
  std::size_t weight_budget_bytes_ = 0;
  /// Conv-first models: the clone that runs layers 1.., and the shape
  /// (N, out_ch, oh, ow) its layer 1 takes.
  std::optional<nn::Model> tail_model_;
  Shape z_shape_;

  // Scratch reused across calls: stacked first-layer weights, the mixed
  // (N, K·out) GEMM output, and per-model ping-pong activation buffers.
  std::vector<float> wcat_, mixed_, buf_a_, buf_b_;
  // Linear mode: member pointers, their precomputed first-layer
  // pre-activations (see fold_groups_), and the coalition-mean tail
  // parameters.
  std::vector<const std::vector<float>*> members_;
  std::vector<float> member_z_, tail_buf_;
  Tensor logits_;
  nn::SoftmaxCrossEntropy loss_;
};

}  // namespace pdsl::sim
