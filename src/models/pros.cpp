#include "models/pros.hpp"

#include "nn/activations.hpp"
#include "nn/batchnorm2d.hpp"
#include "nn/conv2d.hpp"
#include "nn/pixel_shuffle.hpp"

namespace fleda {
namespace {

Conv2dOptions conv_opts(std::int64_t cin, std::int64_t cout,
                        std::int64_t kernel, std::int64_t stride = 1,
                        std::int64_t dilation = 1) {
  Conv2dOptions c;
  c.in_channels = cin;
  c.out_channels = cout;
  c.kernel = kernel;
  c.stride = stride;
  c.dilation = dilation;
  c.same_padding();
  return c;
}

void add_conv_bn_relu(Sequential& net, const std::string& name,
                      const Conv2dOptions& copts, Rng& rng) {
  net.emplace<Conv2d>(name, copts, rng);
  net.emplace<BatchNorm2d>(name + "_bn",
                           BatchNorm2dOptions{copts.out_channels});
  net.emplace<ReLU>(name + "_relu");
}

}  // namespace

PROS::PROS(const PROSOptions& opts, Rng& rng) : opts_(opts), net_("pros") {
  const std::int64_t F = opts.base_filters;

  // Encoder: two stride-2 conv blocks, H -> H/4. enc1 sees the raw
  // features, whose gradient nobody needs.
  Conv2dOptions enc1 = conv_opts(opts.in_channels, F, 3, 2);
  enc1.input_grad = false;
  add_conv_bn_relu(net_, "enc1", enc1, rng);
  add_conv_bn_relu(net_, "enc2", conv_opts(F, 2 * F, 3, 2), rng);

  // Dilated context aggregation blocks at H/4.
  for (std::size_t i = 0; i < opts.dilations.size(); ++i) {
    add_conv_bn_relu(
        net_, "dil" + std::to_string(i + 1),
        conv_opts(2 * F, 2 * F, 3, 1, opts.dilations[i]), rng);
  }

  // Sub-pixel upsampling block 1: H/4 -> H/2 with F channels.
  net_.emplace<Conv2d>("up1", conv_opts(2 * F, F * 4, 3), rng);
  net_.emplace<PixelShuffle>("up1_shuffle", 2);
  net_.emplace<BatchNorm2d>("up1_bn", BatchNorm2dOptions{F});
  net_.emplace<ReLU>("up1_relu");
  // Refinement block 1.
  add_conv_bn_relu(net_, "refine1", conv_opts(F, F, 3), rng);

  // Sub-pixel upsampling block 2: H/2 -> H with F/2 channels.
  net_.emplace<Conv2d>("up2", conv_opts(F, (F / 2) * 4, 3), rng);
  net_.emplace<PixelShuffle>("up2_shuffle", 2);
  net_.emplace<BatchNorm2d>("up2_bn", BatchNorm2dOptions{F / 2});
  net_.emplace<ReLU>("up2_relu");
  // Refinement block 2.
  add_conv_bn_relu(net_, "refine2", conv_opts(F / 2, F / 2, 3), rng);

  // Prediction head (kept Conv-only so FedProx-LG's "output layer"
  // split has a well-defined local part).
  net_.emplace<Conv2d>("output_conv", conv_opts(F / 2, 1, 3), rng);
}

Tensor PROS::forward(const Tensor& input, bool training) {
  return net_.forward(input, training);
}

Tensor PROS::backward(const Tensor& grad_output) {
  return net_.backward(grad_output);
}

std::vector<Parameter*> PROS::parameters() { return net_.parameters(); }

std::vector<NamedBuffer> PROS::buffers() { return net_.buffers(); }

std::string PROS::describe() const {
  return "PROS { stride-2 encoder, " +
         std::to_string(opts_.dilations.size()) +
         " dilated blocks, 2x sub-pixel upsampling + refinement, BN "
         "throughout, F=" +
         std::to_string(opts_.base_filters) + " }";
}

}  // namespace fleda
