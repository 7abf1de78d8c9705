#include "nn/sequential.hpp"

#include <sstream>

namespace fleda {

Sequential& Sequential::add(ModulePtr layer) {
  layers_.push_back(std::move(layer));
  return *this;
}

Tensor Sequential::forward(const Tensor& input, bool training) {
  Tensor x = input;
  for (auto& layer : layers_) x = layer->forward(x, training);
  return x;
}

// A first layer built without an input gradient returns an empty
// Tensor, which passes out unchanged.
Tensor Sequential::backward(const Tensor& grad_output) {
  Tensor g = grad_output;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
    g = (*it)->backward(g);
  }
  return g;
}

std::vector<Parameter*> Sequential::parameters() {
  std::vector<Parameter*> params;
  for (auto& layer : layers_) {
    for (Parameter* p : layer->parameters()) params.push_back(p);
  }
  return params;
}

std::vector<NamedBuffer> Sequential::buffers() {
  std::vector<NamedBuffer> bufs;
  for (auto& layer : layers_) {
    for (NamedBuffer b : layer->buffers()) bufs.push_back(b);
  }
  return bufs;
}

std::string Sequential::describe() const {
  std::ostringstream out;
  out << "Sequential(" << name_ << ") {\n";
  for (const auto& layer : layers_) out << "  " << layer->describe() << "\n";
  out << "}";
  return out.str();
}

}  // namespace fleda
