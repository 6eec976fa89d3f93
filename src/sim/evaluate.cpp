#include "sim/evaluate.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "kernels/gemm.hpp"
#include "nn/conv2d.hpp"
#include "nn/linear.hpp"

namespace pdsl::sim {

EvalResult evaluate(nn::Model& workspace, const std::vector<float>& params,
                    const data::Dataset& ds, std::size_t max_samples, std::size_t batch) {
  workspace.set_flat_params(params);
  const std::size_t n = max_samples == 0 ? ds.size() : std::min(max_samples, ds.size());
  EvalResult res;
  res.samples = n;
  if (n == 0) return res;
  double loss_acc = 0.0;
  double hits = 0.0;
  nn::SoftmaxCrossEntropy scorer;
  for (std::size_t off = 0; off < n; off += batch) {
    const std::size_t take = std::min(batch, n - off);
    std::vector<std::size_t> idx(take);
    for (std::size_t k = 0; k < take; ++k) idx[k] = off + k;
    const Tensor x = ds.batch_features(idx);
    const auto y = ds.batch_labels(idx);
    // One forward pass scores both: the same logits Model::loss and
    // Model::accuracy would each recompute.
    loss_acc += scorer.forward(workspace.forward(x), y) * static_cast<double>(take);
    hits += scorer.accuracy() * static_cast<double>(take);
  }
  res.loss = loss_acc / static_cast<double>(n);
  res.accuracy = hits / static_cast<double>(n);
  return res;
}

FixedBatch FixedBatch::from(const data::Dataset& ds, const std::vector<std::size_t>& idx) {
  return FixedBatch{ds.batch_features(idx), ds.batch_labels(idx)};
}

double accuracy_on(nn::Model& workspace, const std::vector<float>& params, const FixedBatch& b) {
  workspace.set_flat_params(params);
  return workspace.accuracy(b.x, b.y);
}

double loss_on(nn::Model& workspace, const std::vector<float>& params, const FixedBatch& b) {
  workspace.set_flat_params(params);
  return workspace.loss(b.x, b.y);
}

namespace {

/// Lane-parallel float GEMM for the linear coalition path's small later
/// layers: out(rows, n) = a(rows, k) * b(n, k)^T + bias(n). Eight fixed
/// partial-sum lanes with a fixed-order final reduction — deterministic
/// (identical result every run), auto-vectorizable by the compiler, and
/// ~an order of magnitude faster here than the double-accumulated kernel,
/// which serializes the reduction. Only the tolerance-banded linear mode
/// uses this; the bit-identity contract paths keep kernels::.
void tail_linear_lanes(std::size_t rows, std::size_t k, std::size_t n, const float* a,
                       const float* b, const float* bias, float* out) {
  constexpr std::size_t kLanes = 8;
  for (std::size_t r = 0; r < rows; ++r) {
    const float* ar = a + r * k;
    float* or_ = out + r * n;
    for (std::size_t o = 0; o < n; ++o) {
      const float* br = b + o * k;
      float acc[kLanes] = {0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f};
      const std::size_t whole = k - k % kLanes;
      for (std::size_t c = 0; c < whole; c += kLanes) {
        for (std::size_t l = 0; l < kLanes; ++l) acc[l] += ar[c + l] * br[c + l];
      }
      for (std::size_t c = whole; c < k; ++c) acc[c - whole] += ar[c] * br[c];
      // Fixed pairwise reduction tree: ((0+4)+(2+6)) + ((1+5)+(3+7)).
      for (std::size_t l = 0; l < kLanes / 2; ++l) acc[l] += acc[l + kLanes / 2];
      acc[0] += acc[2];
      acc[1] += acc[3];
      or_[o] = bias[o] + (acc[0] + acc[1]);
    }
  }
}

}  // namespace

bool CoalitionBatchEvaluator::stackable(const nn::Model& model) {
  bool has_linear = false;
  for (std::size_t i = 0; i < model.num_layers(); ++i) {
    const std::string name = model.layer(i).name();
    if (name == "Linear") {
      has_linear = true;
    } else if (name == "ReLU") {
      // The stacked-GEMM plan applies the first Linear directly to the raw
      // input, so an activation BEFORE the first Linear is unsupported.
      if (!has_linear) return false;
    } else if (name != "Flatten") {
      return false;  // Conv2D / MaxPool2D
    }
  }
  return has_linear;
}

bool CoalitionBatchEvaluator::linear_scorable(const nn::Model& model) {
  return stackable(model) || (model.num_layers() > 0 && model.layer(0).name() == "Conv2D");
}

CoalitionBatchEvaluator::CoalitionBatchEvaluator(const nn::Model& model, const FixedBatch& val,
                                                 std::size_t weight_budget_bytes)
    : val_(&val), weight_budget_bytes_(weight_budget_bytes) {
  if (weight_budget_bytes == 0) {
    throw std::invalid_argument("CoalitionBatchEvaluator: zero weight budget");
  }
  if (!linear_scorable(model)) {
    throw std::invalid_argument(
        "CoalitionBatchEvaluator: model is neither a {Flatten, Linear, ReLU} chain nor "
        "Conv2D-first");
  }
  if (val.x.rank() == 0 || val.x.dim(0) == 0) {
    throw std::invalid_argument("CoalitionBatchEvaluator: empty validation batch");
  }
  rows_ = val.x.dim(0);
  in_features_ = val.x.numel() / rows_;
  num_params_ = model.num_params();
  if (!stackable(model)) {
    // Conv-first: set_members runs layer 0 for every member, layers 1.. run
    // in a private clone. Walking output_shape over the whole chain checks
    // the validation batch against every layer up front.
    Shape shape = val.x.shape();
    for (std::size_t i = 0; i < model.num_layers(); ++i) {
      shape = model.layer(i).output_shape(shape);
      if (i == 0) z_shape_ = shape;
    }
    if (shape.size() != 2) {
      throw std::invalid_argument("CoalitionBatchEvaluator: model output is not (N, classes)");
    }
    classes_ = shape[1];
    const auto& conv = dynamic_cast<const nn::Conv2D&>(model.layer(0));
    head_params_ = conv.out_channels() * (conv.in_channels() * conv.kernel() * conv.kernel() + 1);
    fold_groups_ = rows_;
    fold_block_ = shape_numel(z_shape_) / rows_;
    tail_model_.emplace(model);
    return;
  }
  // Build the layer plan. Flatten is a pure reshape of contiguous row-major
  // data, invisible at the raw-buffer level, so it is dropped from the plan.
  std::size_t width = in_features_;
  std::size_t off = 0;
  for (std::size_t i = 0; i < model.num_layers(); ++i) {
    const std::string name = model.layer(i).name();
    if (name == "Flatten") continue;
    if (name == "Linear") {
      const auto* lin = dynamic_cast<const nn::Linear*>(&model.layer(i));
      if (lin == nullptr) throw std::logic_error("CoalitionBatchEvaluator: Linear cast failed");
      if (lin->in_features() != width) {
        throw std::invalid_argument("CoalitionBatchEvaluator: layer width mismatch");
      }
      Lin l;
      l.in = lin->in_features();
      l.out = lin->out_features();
      l.w_off = off;
      l.b_off = off + l.out * l.in;
      off += l.out * l.in + l.out;  // flat layout: weight then bias (all_params order)
      steps_.push_back(Step{Op::kLinear, linears_.size()});
      linears_.push_back(l);
      width = l.out;
    } else {  // ReLU
      steps_.push_back(Step{Op::kRelu, 0});
    }
  }
  classes_ = width;
  head_params_ = linears_[0].b_off + linears_[0].out;
  fold_groups_ = 1;
  fold_block_ = rows_ * linears_[0].out;
  logits_ = Tensor(Shape{rows_, classes_});
}

std::vector<double> CoalitionBatchEvaluator::accuracies(
    const std::vector<const std::vector<float>*>& params) {
  return scores(params, /*want_loss=*/false);
}

std::vector<double> CoalitionBatchEvaluator::losses(
    const std::vector<const std::vector<float>*>& params) {
  return scores(params, /*want_loss=*/true);
}

std::vector<double> CoalitionBatchEvaluator::scores(
    const std::vector<const std::vector<float>*>& params, bool want_loss) {
  if (tail_model_) {
    throw std::logic_error("CoalitionBatchEvaluator: batched scoring needs a stackable model");
  }
  const std::size_t count = params.size();
  if (count == 0) return {};
  for (const auto* p : params) {
    if (p == nullptr || p->size() != num_params_) {
      throw std::invalid_argument("CoalitionBatchEvaluator: bad flat param vector");
    }
  }

  first_layer_into(params, buf_a_);

  std::vector<float>* cur = &buf_a_;
  std::vector<float>* nxt = &buf_b_;
  bool first_linear_seen = false;
  for (const Step& step : steps_) {
    if (step.op == Op::kLinear && !first_linear_seen) {
      first_linear_seen = true;  // already applied above
      continue;
    }
    switch (step.op) {
      case Op::kRelu:
        // nn::ReLU::forward zeroes every element with out[i] <= 0.
        for (float& v : *cur) {
          if (!(v > 0.0f)) v = 0.0f;
        }
        break;
      case Op::kLinear: {
        const Lin& l = linears_[step.linear];
        nxt->resize(count * rows_ * l.out);
        for (std::size_t k = 0; k < count; ++k) {
          float* out = nxt->data() + k * rows_ * l.out;
          for (std::size_t r = 0; r < rows_; ++r) {
            std::memcpy(out + r * l.out, params[k]->data() + l.b_off, l.out * sizeof(float));
          }
          kernels::sgemm_transpose_b(rows_, l.in, l.out, cur->data() + k * rows_ * l.in,
                                     params[k]->data() + l.w_off, out, /*accumulate=*/true);
        }
        std::swap(cur, nxt);
        break;
      }
    }
  }

  // Per-model logits -> the same SoftmaxCrossEntropy the sequential path runs.
  std::vector<double> out(count, 0.0);
  for (std::size_t k = 0; k < count; ++k) {
    const float* src = cur->data() + k * rows_ * classes_;
    std::copy(src, src + rows_ * classes_, logits_.vec().begin());
    const double loss_value = loss_.forward(logits_, val_->y);
    out[k] = want_loss ? loss_value : loss_.accuracy();
  }
  return out;
}

void CoalitionBatchEvaluator::first_layer_into(
    const std::vector<const std::vector<float>*>& params, std::vector<float>& dst) {
  // First Linear: stacked GEMMs. Stack (out, in) weight matrices vertically
  // into Wcat(C·out, in); every element of the (N, C·out) product is an
  // independent double-accumulated dot, so this is bit-identical to separate
  // per-model GEMMs. The stack is chunked so Wcat stays within the cache
  // budget: an unchunked stack of hundreds of models is streamed from memory
  // once per output-row tile, which is SLOWER than the sequential path whose
  // single weight block is L1-resident.
  const std::size_t count = params.size();
  const Lin& l0 = linears_[0];
  const std::size_t weight_bytes = l0.out * l0.in * sizeof(float);
  const std::size_t chunk_models =
      std::max<std::size_t>(1, weight_budget_bytes_ / weight_bytes);
  const std::size_t width = l0.out;
  dst.resize(count * rows_ * width);
  for (std::size_t base = 0; base < count; base += chunk_models) {
    const std::size_t cnt = std::min(chunk_models, count - base);
    wcat_.resize(cnt * l0.out * l0.in);
    for (std::size_t k = 0; k < cnt; ++k) {
      std::memcpy(wcat_.data() + k * l0.out * l0.in, params[base + k]->data() + l0.w_off,
                  l0.out * l0.in * sizeof(float));
    }
    mixed_.resize(rows_ * cnt * l0.out);
    for (std::size_t r = 0; r < rows_; ++r) {
      float* row = mixed_.data() + r * cnt * l0.out;
      for (std::size_t k = 0; k < cnt; ++k) {
        std::memcpy(row + k * l0.out, params[base + k]->data() + l0.b_off,
                    l0.out * sizeof(float));
      }
    }
    kernels::sgemm_transpose_b(rows_, in_features_, cnt * l0.out, val_->x.data(),
                               wcat_.data(), mixed_.data(), /*accumulate=*/true);

    // De-interleave (N, C·out) into per-model contiguous (K, N, out) blocks
    // so later layers can run plain per-model GEMMs.
    for (std::size_t r = 0; r < rows_; ++r) {
      const float* row = mixed_.data() + r * cnt * width;
      for (std::size_t k = 0; k < cnt; ++k) {
        std::memcpy(dst.data() + ((base + k) * rows_ + r) * width, row + k * width,
                    width * sizeof(float));
      }
    }
  }
}

void CoalitionBatchEvaluator::set_members(
    const std::vector<const std::vector<float>*>& members) {
  if (members.empty() || members.size() > 63) {
    throw std::invalid_argument("CoalitionBatchEvaluator: need 1..63 members");
  }
  for (const auto* p : members) {
    if (p == nullptr || p->size() != num_params_) {
      throw std::invalid_argument("CoalitionBatchEvaluator: bad member param vector");
    }
  }
  members_ = members;
  if (!tail_model_) {
    first_layer_into(members_, member_z_);  // (p, N, out)
    return;
  }
  // Conv1 for every member is one convolution with the members' output
  // channels stacked: weights (p·out_ch, in_ch, k, k), biases (p·out_ch).
  // It pads each validation image once, and each output element keeps its
  // own reduction chain, so member k's channels are bit-identical to its
  // own Conv2D forward. Output (N, p·out_ch, oh, ow): per image, the
  // members' (out_ch, oh, ow) blocks in member order.
  const auto& conv = dynamic_cast<const nn::Conv2D&>(tail_model_->layer(0));
  const std::size_t p = members_.size();
  const std::size_t oc = conv.out_channels();
  const std::size_t w_size = head_params_ - oc;
  nn::Conv2D stacked(conv.in_channels(), p * oc, conv.kernel(), conv.pad());
  const std::vector<nn::Param*> wb = stacked.params();
  for (std::size_t k = 0; k < p; ++k) {
    const float* flat = members_[k]->data();
    std::copy(flat, flat + w_size, wb[0]->value.data() + k * w_size);
    std::copy(flat + w_size, flat + head_params_, wb[1]->value.data() + k * oc);
  }
  member_z_ = std::move(stacked.forward(val_->x).vec());
}

std::vector<double> CoalitionBatchEvaluator::coalition_accuracies(
    const std::vector<std::uint64_t>& masks) {
  return coalition_scores(masks, /*want_loss=*/false);
}

std::vector<double> CoalitionBatchEvaluator::coalition_losses(
    const std::vector<std::uint64_t>& masks) {
  return coalition_scores(masks, /*want_loss=*/true);
}

std::vector<double> CoalitionBatchEvaluator::coalition_scores(
    const std::vector<std::uint64_t>& masks, bool want_loss) {
  if (members_.empty()) {
    throw std::logic_error("CoalitionBatchEvaluator: set_members() before coalition scoring");
  }
  const std::size_t p = members_.size();
  tail_buf_.resize(num_params_);
  std::vector<double> out(masks.size(), 0.0);
  for (std::size_t q = 0; q < masks.size(); ++q) {
    const std::uint64_t mask = masks[q];
    if (mask == 0 || (p < 64 && (mask >> p) != 0)) {
      throw std::out_of_range("CoalitionBatchEvaluator: coalition mask out of range");
    }
    const auto size = static_cast<std::size_t>(__builtin_popcountll(mask));
    // Mirror mean_of/weighted_sum: zero-init, then += (1/|S|) * member, in
    // ascending member order, so the fold order matches the batched path's
    // parameter averaging exactly (the only numeric delta is first-layer
    // distribution, documented in the header).
    const auto wf = static_cast<float>(1.0 / static_cast<double>(size));
    buf_a_.assign(fold_groups_ * fold_block_, 0.0f);
    std::fill(tail_buf_.begin() + static_cast<std::ptrdiff_t>(head_params_), tail_buf_.end(),
              0.0f);
    for (std::size_t k = 0; k < p; ++k) {
      if (!(mask & (1ULL << k))) continue;
      for (std::size_t g = 0; g < fold_groups_; ++g) {
        const float* zk = member_z_.data() + (g * p + k) * fold_block_;
        float* zg = buf_a_.data() + g * fold_block_;
        for (std::size_t i = 0; i < fold_block_; ++i) zg[i] += wf * zk[i];
      }
      const float* flat = members_[k]->data();
      for (std::size_t i = head_params_; i < num_params_; ++i) tail_buf_[i] += wf * flat[i];
    }
    if (tail_model_) {
      tail_model_->set_flat_params(tail_buf_);
      const Tensor logits = tail_model_->infer_from(1, Tensor(z_shape_, std::move(buf_a_)));
      out[q] = score_logits(logits.data(), want_loss);
    } else {
      out[q] = score_logits(chain_tail(tail_buf_.data()), want_loss);
    }
  }
  return out;
}

const float* CoalitionBatchEvaluator::chain_tail(const float* flat) {
  std::vector<float>* cur = &buf_a_;
  std::vector<float>* nxt = &buf_b_;
  bool first_linear_seen = false;
  for (const Step& step : steps_) {
    if (step.op == Op::kLinear && !first_linear_seen) {
      first_linear_seen = true;  // pre-activations already in buf_a_
      continue;
    }
    switch (step.op) {
      case Op::kRelu:
        for (float& v : *cur) v = std::max(v, 0.0f);
        break;
      case Op::kLinear: {
        const Lin& l = linears_[step.linear];
        nxt->resize(rows_ * l.out);
        tail_linear_lanes(rows_, l.in, l.out, cur->data(), flat + l.w_off, flat + l.b_off,
                          nxt->data());
        std::swap(cur, nxt);
        break;
      }
    }
  }
  return cur->data();
}

double CoalitionBatchEvaluator::score_logits(const float* logits, bool want_loss) const {
  // Lean scoring straight off the logits buffer — this runs once per
  // coalition, so the full SoftmaxCrossEntropy machinery (tensor allocation,
  // per-sample vectors, 320 exp calls for a 32x10 batch) would dominate the
  // whole MLP evaluation. Accuracy needs only the argmax (softmax is
  // monotonic); loss is the standard stabilized log-sum-exp, algebraically
  // equal to -log(softmax_y) and within float rounding of SoftmaxCrossEntropy.
  const std::vector<int>& y = val_->y;
  if (!want_loss) {
    std::size_t hits = 0;
    for (std::size_t r = 0; r < rows_; ++r) {
      const float* row = logits + r * classes_;
      const std::size_t pred = static_cast<std::size_t>(
          std::max_element(row, row + classes_) - row);
      hits += pred == static_cast<std::size_t>(y[r]) ? 1 : 0;
    }
    return static_cast<double>(hits) / static_cast<double>(rows_);
  }
  double loss = 0.0;
  for (std::size_t r = 0; r < rows_; ++r) {
    const float* row = logits + r * classes_;
    const float mx = *std::max_element(row, row + classes_);
    double total = 0.0;
    for (std::size_t c = 0; c < classes_; ++c) total += std::exp(row[c] - mx);
    loss += std::log(total) - static_cast<double>(row[static_cast<std::size_t>(y[r])] - mx);
  }
  return loss / static_cast<double>(rows_);
}

}  // namespace pdsl::sim
