// 2D convolution with stride, zero padding, and dilation — the
// workhorse of FLNet / RouteNet / PROS. Weight layout is
// [Cout, Cin*kh*kw] (a GEMM-ready matrix), bias is [Cout].
//
// Three lowerings, chosen by the layer's own shape and the GEMM plan:
//   - stride 1 with one output channel (every model's prediction head)
//     runs the direct kernels of tensor/conv_direct.hpp on a padded copy
//     of each sample; no column matrix is built;
//   - when the planner packs a GEMM whose B is the column matrix (the
//     forward and dW), its B panels are packed straight from a padded
//     copy of the sample (ImplicitCols); no column matrix is built;
//   - everything else runs im2col + the planner's GEMM; dX always forms
//     W^T dy as columns and scatters them with col2im.
// All produce the bits the im2col lowering with the same GEMM plans
// would.
#pragma once

#include "nn/module.hpp"
#include "tensor/im2col.hpp"
#include "util/rng.hpp"

namespace fleda {

struct Conv2dOptions {
  std::int64_t in_channels = 0;
  std::int64_t out_channels = 0;
  std::int64_t kernel = 3;   // square kernel
  std::int64_t stride = 1;
  std::int64_t padding = 0;  // use `same_padding()` for odd kernels
  std::int64_t dilation = 1;
  bool bias = true;
  // Whether backward computes dL/d(input). A model's first layer sees
  // the raw features, whose gradient nobody reads: with false, backward
  // skips that GEMM and col2im and returns an empty Tensor.
  bool input_grad = true;

  // Padding that preserves H/W at stride 1 for odd kernels.
  Conv2dOptions& same_padding() {
    padding = dilation * (kernel - 1) / 2;
    return *this;
  }
};

class Conv2d : public Module {
 public:
  // `name` prefixes the parameter names ("<name>.weight").
  Conv2d(std::string name, const Conv2dOptions& opts, Rng& rng);

  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<Parameter*> parameters() override;
  std::string describe() const override;

  const Conv2dOptions& options() const { return opts_; }
  Parameter& weight() { return weight_; }
  Parameter& bias() { return bias_; }

  // Output spatial size for an input of h x w.
  std::pair<std::int64_t, std::int64_t> output_hw(std::int64_t h,
                                                  std::int64_t w) const;

 private:
  ConvGeometry geometry(std::int64_t h, std::int64_t w) const;
  bool direct() const { return opts_.out_channels == 1 && opts_.stride == 1; }

  std::string name_;
  Conv2dOptions opts_;
  Parameter weight_;  // [Cout, Cin*k*k]
  Parameter bias_;    // [Cout] (unused when !opts_.bias)
  Tensor cached_input_;
};

}  // namespace fleda
