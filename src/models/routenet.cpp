#include "models/routenet.hpp"

#include "tensor/ops.hpp"

namespace fleda {
namespace {

Conv2dOptions conv_opts(std::int64_t cin, std::int64_t cout,
                        std::int64_t kernel) {
  Conv2dOptions c;
  c.in_channels = cin;
  c.out_channels = cout;
  c.kernel = kernel;
  return c.same_padding();
}

Conv2dOptions first_conv_opts(std::int64_t cin, std::int64_t cout,
                              std::int64_t kernel) {
  Conv2dOptions c = conv_opts(cin, cout, kernel);
  c.input_grad = false;  // the raw features need no gradient
  return c;
}

ConvTranspose2dOptions deconv_opts(std::int64_t cin, std::int64_t cout) {
  ConvTranspose2dOptions o;
  o.in_channels = cin;
  o.out_channels = cout;
  o.kernel = 4;
  o.stride = 2;
  o.padding = 1;  // exactly doubles H and W
  return o;
}

}  // namespace

RouteNet::RouteNet(const RouteNetOptions& opts, Rng& rng)
    : opts_(opts),
      conv1_("conv1", first_conv_opts(opts.in_channels, opts.base_filters, 9),
             rng),
      relu1_("relu1"),
      conv2_("conv2", conv_opts(opts.base_filters, 2 * opts.base_filters, 7),
             rng),
      relu2_("relu2"),
      pool_("pool", MaxPool2dOptions{2, 2}),
      conv3_("conv3", conv_opts(2 * opts.base_filters, opts.base_filters, 9),
             rng),
      relu3_("relu3"),
      conv4_("conv4", conv_opts(opts.base_filters, opts.base_filters, 7), rng),
      relu4_("relu4"),
      deconv_("deconv", deconv_opts(opts.base_filters, opts.base_filters),
              rng),
      relu5_("relu5"),
      output_conv_("output_conv", conv_opts(opts.base_filters, 1, 5), rng) {}

Tensor RouteNet::forward(const Tensor& input, bool training) {
  // Encoder with a full-resolution skip from the first activation.
  Tensor a = relu1_.forward(conv1_.forward(input, training), training);
  Tensor b = relu2_.forward(conv2_.forward(a, training), training);
  Tensor p = pool_.forward(b, training);
  Tensor c = relu3_.forward(conv3_.forward(p, training), training);
  Tensor d = relu4_.forward(conv4_.forward(c, training), training);
  Tensor u = relu5_.forward(deconv_.forward(d, training), training);
  // Additive shortcut: decoder output + first-block features.
  Tensor s = add(u, a);
  return output_conv_.forward(s, training);
}

Tensor RouteNet::backward(const Tensor& grad_output) {
  Tensor gs = output_conv_.backward(grad_output);
  // gs flows into both the decoder path (u) and the shortcut (a).
  Tensor gu = relu5_.backward(gs);
  gu = deconv_.backward(gu);
  gu = relu4_.backward(gu);
  gu = conv4_.backward(gu);
  gu = relu3_.backward(gu);
  gu = conv3_.backward(gu);
  gu = pool_.backward(gu);
  gu = relu2_.backward(gu);
  Tensor ga = conv2_.backward(gu);
  add_inplace(ga, gs);  // shortcut gradient joins at conv1's activation
  ga = relu1_.backward(ga);
  return conv1_.backward(ga);
}

std::vector<Parameter*> RouteNet::parameters() {
  std::vector<Parameter*> params;
  for (Conv2d* conv : {&conv1_, &conv2_, &conv3_, &conv4_, &output_conv_}) {
    for (Parameter* p : conv->parameters()) params.push_back(p);
  }
  for (Parameter* p : deconv_.parameters()) params.push_back(p);
  return params;
}

std::string RouteNet::describe() const {
  return "RouteNet { conv(9)->conv(7)->pool->conv(9)->conv(7)->deconv(x2)"
         "+shortcut->conv(5), F=" +
         std::to_string(opts_.base_filters) + " }";
}

}  // namespace fleda
