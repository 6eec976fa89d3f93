#include "nn/model_zoo.hpp"

#include <stdexcept>

#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/flatten.hpp"
#include "nn/linear.hpp"
#include "nn/pooling.hpp"

namespace pdsl::nn {

namespace {
std::size_t conv_out(std::size_t in, std::size_t kernel, std::size_t pad) {
  return in + 2 * pad - kernel + 1;
}
}  // namespace

Model make_mnist_cnn(std::size_t image, std::size_t channels, std::size_t classes) {
  // conv3x3(pad 1, "same") -> relu -> pool2 -> conv3x3(pad 1) -> relu -> pool2 -> fc
  Model m;
  m.emplace<Conv2D>(channels, 8, 3, 1);
  m.emplace<ReLU>();
  m.emplace<MaxPool2D>();
  const std::size_t s1 = conv_out(image, 3, 1) / 2;
  m.emplace<Conv2D>(8, 16, 3, 1);
  m.emplace<ReLU>();
  m.emplace<MaxPool2D>();
  const std::size_t s2 = conv_out(s1, 3, 1) / 2;
  m.emplace<Flatten>();
  m.emplace<Linear>(16 * s2 * s2, classes);
  return m;
}

Model make_cifar_cnn(std::size_t image, std::size_t channels, std::size_t classes) {
  // conv5x5(pad 2) -> relu -> pool2 -> conv5x5(pad 2) -> relu -> pool2 -> fc -> relu -> fc
  Model m;
  m.emplace<Conv2D>(channels, 8, 5, 2);
  m.emplace<ReLU>();
  m.emplace<MaxPool2D>();
  const std::size_t s1 = conv_out(image, 5, 2) / 2;
  m.emplace<Conv2D>(8, 16, 5, 2);
  m.emplace<ReLU>();
  m.emplace<MaxPool2D>();
  const std::size_t s2 = conv_out(s1, 5, 2) / 2;
  m.emplace<Flatten>();
  m.emplace<Linear>(16 * s2 * s2, 64);
  m.emplace<ReLU>();
  m.emplace<Linear>(64, classes);
  return m;
}

Model make_mlp(std::size_t input_dim, std::size_t hidden, std::size_t classes) {
  Model m;
  m.emplace<Flatten>();
  m.emplace<Linear>(input_dim, hidden);
  m.emplace<ReLU>();
  m.emplace<Linear>(hidden, classes);
  return m;
}

Model make_logistic(std::size_t input_dim, std::size_t classes) {
  Model m;
  m.emplace<Flatten>();
  m.emplace<Linear>(input_dim, classes);
  return m;
}

Model make_model(const std::string& name, std::size_t image, std::size_t channels,
                 std::size_t classes, std::size_t hidden) {
  const std::size_t input_dim = image * image * channels;
  if (name == "mnist_cnn") return make_mnist_cnn(image, channels, classes);
  if (name == "cifar_cnn") return make_cifar_cnn(image, channels, classes);
  if (name == "mlp") return make_mlp(input_dim, hidden, classes);
  if (name == "logistic") return make_logistic(input_dim, classes);
  throw std::invalid_argument("make_model: unknown model '" + name + "'");
}

}  // namespace pdsl::nn
