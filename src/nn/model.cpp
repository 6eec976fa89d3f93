#include "nn/model.hpp"

#include <stdexcept>
#include <string>
#include <utility>

#include "nn/activations.hpp"
#include "nn/pooling.hpp"

namespace pdsl::nn {

Model::Model(const Model& other) {
  layers_.reserve(other.layers_.size());
  for (const auto& l : other.layers_) layers_.push_back(l->clone());
}

Model& Model::operator=(const Model& other) {
  if (this == &other) return *this;
  layers_.clear();
  layers_.reserve(other.layers_.size());
  for (const auto& l : other.layers_) layers_.push_back(l->clone());
  return *this;
}

Model& Model::add(std::unique_ptr<Layer> layer) {
  layers_.push_back(std::move(layer));
  return *this;
}

void Model::init(Rng& rng) {
  for (auto& l : layers_) l->init(rng);
}

Tensor Model::forward(const Tensor& input) {
  Tensor x = input;
  for (auto& l : layers_) x = l->forward(std::move(x));
  return x;
}

Tensor Model::infer_from(std::size_t first, Tensor input) {
  if (first > layers_.size()) {
    throw std::out_of_range("Model::infer_from: layer " + std::to_string(first) + " of " +
                            std::to_string(layers_.size()));
  }
  for (std::size_t i = first; i < layers_.size(); ++i) {
    auto* pool = i + 1 < layers_.size() ? dynamic_cast<MaxPool2D*>(layers_[i + 1].get())
                                        : nullptr;
    if (pool != nullptr && dynamic_cast<const ReLU*>(layers_[i].get()) != nullptr) {
      input = pool->infer_after_relu(std::move(input));
      ++i;
    } else {
      input = layers_[i]->infer(std::move(input));
    }
  }
  return input;
}

void Model::backward(Tensor grad_output) {
  // The model's input gradient is never read, so backward stops at the
  // lowest layer with parameters and skips its input gradient; the
  // parameter-free layers below it (e.g. a leading Flatten) never run.
  auto lowest = layers_.begin();
  while (lowest != layers_.end() && (*lowest)->params().empty()) ++lowest;
  if (lowest == layers_.end()) return;
  for (auto it = layers_.end() - 1; it != lowest; --it) {
    grad_output = (*it)->backward(std::move(grad_output));
  }
  (*lowest)->backward_params(grad_output);
}

void Model::zero_grad() {
  for (auto* p : all_params()) p->grad.zero();
}

std::vector<Param*> Model::all_params() {
  std::vector<Param*> out;
  for (auto& l : layers_) {
    for (auto* p : l->params()) out.push_back(p);
  }
  return out;
}

std::vector<const Param*> Model::all_params() const {
  std::vector<const Param*> out;
  for (const auto& l : layers_) {
    for (auto* p : const_cast<Layer&>(*l).params()) out.push_back(p);
  }
  return out;
}

std::size_t Model::num_params() const {
  std::size_t n = 0;
  for (const auto* p : all_params()) n += p->value.numel();
  return n;
}

std::vector<float> Model::flat_params() const {
  std::vector<float> flat;
  flat.reserve(num_params());
  for (const auto* p : all_params()) {
    flat.insert(flat.end(), p->value.vec().begin(), p->value.vec().end());
  }
  return flat;
}

void Model::set_flat_params(const std::vector<float>& flat) {
  if (flat.size() != num_params()) {
    throw std::invalid_argument("Model::set_flat_params: expected " +
                                std::to_string(num_params()) + " values, got " +
                                std::to_string(flat.size()));
  }
  std::size_t off = 0;
  for (auto* p : all_params()) {
    std::copy(flat.begin() + static_cast<std::ptrdiff_t>(off),
              flat.begin() + static_cast<std::ptrdiff_t>(off + p->value.numel()),
              p->value.vec().begin());
    off += p->value.numel();
  }
}

std::vector<float> Model::flat_grad() const {
  std::vector<float> flat;
  flat.reserve(num_params());
  for (const auto* p : all_params()) {
    flat.insert(flat.end(), p->grad.vec().begin(), p->grad.vec().end());
  }
  return flat;
}

double Model::loss_and_backward(const Tensor& batch_x, const std::vector<int>& batch_y) {
  zero_grad();
  const Tensor logits = forward(batch_x);
  const double value = loss_.forward(logits, batch_y);
  backward(loss_.backward());
  return value;
}

double Model::loss(const Tensor& batch_x, const std::vector<int>& batch_y) {
  const Tensor logits = infer_from(0, batch_x);
  return loss_.forward(logits, batch_y);
}

double Model::accuracy(const Tensor& batch_x, const std::vector<int>& batch_y) {
  const Tensor logits = infer_from(0, batch_x);
  loss_.forward(logits, batch_y);
  return loss_.accuracy();
}

std::vector<double> Model::per_sample_losses(const Tensor& batch_x,
                                             const std::vector<int>& batch_y) {
  const Tensor logits = infer_from(0, batch_x);
  loss_.forward(logits, batch_y);
  return loss_.per_sample_losses();
}

}  // namespace pdsl::nn
