#include "models/flnet.hpp"

namespace fleda {
namespace {

Conv2dOptions input_conv_opts(const FLNetOptions& o) {
  Conv2dOptions c;
  c.in_channels = o.in_channels;
  c.out_channels = o.hidden_filters;
  c.kernel = o.kernel;
  c.input_grad = false;  // the raw features need no gradient
  return c.same_padding();
}

Conv2dOptions output_conv_opts(const FLNetOptions& o) {
  Conv2dOptions c;
  c.in_channels = o.hidden_filters;
  c.out_channels = 1;
  c.kernel = o.kernel;
  return c.same_padding();
}

}  // namespace

FLNet::FLNet(const FLNetOptions& opts, Rng& rng)
    : opts_(opts),
      input_conv_("input_conv", input_conv_opts(opts), rng),
      relu_("relu"),
      output_conv_("output_conv", output_conv_opts(opts), rng) {}

Tensor FLNet::forward(const Tensor& input, bool training) {
  Tensor x = input_conv_.forward(input, training);
  x = relu_.forward(x, training);
  return output_conv_.forward(x, training);
}

Tensor FLNet::backward(const Tensor& grad_output) {
  Tensor g = output_conv_.backward(grad_output);
  g = relu_.backward(g);
  return input_conv_.backward(g);
}

std::vector<Parameter*> FLNet::parameters() {
  std::vector<Parameter*> params = input_conv_.parameters();
  for (Parameter* p : output_conv_.parameters()) params.push_back(p);
  return params;
}

std::string FLNet::describe() const {
  return "FLNet { " + input_conv_.describe() + ", ReLU, " +
         output_conv_.describe() + " }";
}

}  // namespace fleda
