#pragma once
// Shared evaluation helpers: accuracy/loss of a flat parameter vector on a
// dataset (optionally subsampled), used for test metrics and for the Shapley
// characteristic function's validation scoring.

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

/// S-SHAP batched coalition scorer. Scores K flat parameter vectors (the
/// coalition-average virtual models of one agent) on a FixedBatch in one
/// pass: the dominant first Linear layer runs as a SINGLE blocked GEMM over
/// the K models' vertically stacked weight matrices — C(N, K·out) =
/// X(N, in) · Wcat(K·out, in)^T — and later (small) layers run per-model with
/// weights read in place from each flat vector. Because every output element
/// of kernels::sgemm_transpose_b is an independent double-accumulated dot
/// product, the stacked call is bit-identical to K separate Linear::forward
/// calls; activations and the loss replicate the nn:: implementations
/// elementwise, so accuracies()/losses() equal accuracy_on()/loss_on()
/// exactly, not approximately.
///
/// Supports models that are a chain of {Flatten, Linear, ReLU}
/// (the zoo's mlp and logistic). For anything else — the CNNs —
/// batchable() is false and callers fall back to sequential scoring.
class CoalitionBatchEvaluator {
 public:
  /// True iff `model` is a layer chain this evaluator can replicate.
  [[nodiscard]] static bool batchable(const nn::Model& model);

  /// `model` provides the layer plan (architecture only; its parameter
  /// values are never read). `val` must outlive the evaluator.
  /// `weight_budget_bytes` caps the stacked first-layer weight block per GEMM
  /// call: oversized batches are split into cache-resident chunks (splitting
  /// along the model axis touches no reduction, so results are unchanged).
  CoalitionBatchEvaluator(const nn::Model& model, const FixedBatch& val,
                          std::size_t weight_budget_bytes = 256 * 1024);

  /// Validation accuracy of each flat parameter vector, in order.
  std::vector<double> accuracies(const std::vector<const std::vector<float>*>& params);

  /// Mean validation loss of each flat parameter vector, in order.
  std::vector<double> losses(const std::vector<const std::vector<float>*>& params);

  /// S-SHAP "linear" mode. The first Linear layer is linear in its weights,
  /// so a coalition-average model's first-layer pre-activation equals the
  /// mean of the members' pre-activations: X·mean(W_j)^T + mean(b_j) =
  /// mean(X·W_j^T + b_j). set_members() runs the first layer ONCE per member
  /// (p stacked GEMMs); coalition_accuracies()/losses() then score each
  /// coalition mask with a cheap (N, out) average + the small later layers,
  /// skipping the dominant first-layer GEMM and the full-parameter mean_of
  /// per coalition entirely. Mathematically identical to averaging weights
  /// first, but float addition does not distribute, so scores differ from
  /// accuracies()/losses() at ulp level — callers opt in via
  /// --shapley-eval linear, and the bit-identity contract stays with the
  /// "batched" mode. Deterministic: members fold in ascending index order.
  /// `members` must outlive the scoring calls; masks are bitmasks over the
  /// member indices (bit k = members[k]).
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
  /// Run the post-first-Linear layer chain on the single model whose
  /// activations start in buf_a_ (rows_, first-out) and whose later-layer
  /// parameters come from `flat` (offset-addressed like a full flat vector).
  double score_single(const float* flat, bool want_loss);

  const FixedBatch* val_;
  std::size_t rows_ = 0;         ///< validation samples N
  std::size_t in_features_ = 0;  ///< features per sample
  std::size_t num_params_ = 0;   ///< expected flat vector length
  std::size_t classes_ = 0;      ///< width of the final activations
  std::vector<Step> steps_;
  std::vector<Lin> linears_;
  std::size_t weight_budget_bytes_ = 0;

  // Scratch reused across calls: stacked first-layer weights, the mixed
  // (N, K·out) GEMM output, and per-model ping-pong activation buffers.
  std::vector<float> wcat_, mixed_, buf_a_, buf_b_;
  // Linear mode: member pointers, their precomputed first-layer
  // pre-activations (p, N, out), and the coalition-mean tail parameters.
  std::vector<const std::vector<float>*> members_;
  std::vector<float> member_z_, tail_buf_;
  Tensor logits_;
  nn::SoftmaxCrossEntropy loss_;
};

}  // namespace pdsl::sim
