// 2D convolution with stride, zero padding, and dilation — the
// workhorse of FLNet / RouteNet / PROS. Weight layout is
// [Cout, Cin*kh*kw] (a GEMM-ready matrix), bias is [Cout].
//
// Lowerings, chosen by the layer's own shape alone (no plan lookup;
// every GEMM here packs):
//   - forward: the stride-1, single-output-channel conv (every model's
//     prediction head) runs the direct kernels of tensor/conv_direct.hpp
//     on a padded copy of each sample; every other conv runs ConvGemm
//     (tensor/conv_gemm.hpp), which packs B panels straight from a
//     padded copy of the sample;
//   - dX at stride 1 (not the head): the forward conv of dy, padded by
//     d(k-1)-p, with the flipped, channel-transposed weight
//     W'[ci, (co, kh, kw)] = W[co, (ci, k-1-kh, k-1-kw)], through the
//     same ConvGemm; the head's dX is its direct gather kernel; at any
//     other stride, W^T dy is formed as columns by the packed kAT GEMM
//     (the weight packed once per call) and scattered by col2im;
//   - dW: the head's direct kernel, or conv_gemm_weight_grad (the
//     column matrix read in place from the padded sample as its A
//     operand, dy packed as its B).
// dW and db add into the gradients one sample at a time in sample
// order, so they keep their bits at any pool size and whether or not
// the layer runs inside a parallel region; dW is split across the pool
// by blocks of weight columns, (channel, tap) (channel blocks for the
// head).
//
// Forward and dW give the bits of im2col + matmul. dX at
// stride 1 sums each element over channels x taps in KC slices, not
// per tap as col2im does, so it matches the col2im adjoint only to
// rounding. Non-finite values: that dX multiplies every weight by dy's
// zero padding, so an Inf or NaN weight puts NaN at border pixels of
// dX that col2im never multiplied by it. The head keeps the col2im
// contract (its gather masks taps that fall outside dy), as does dX at
// stride != 1.
#pragma once

#include <vector>

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
  // skips the dX work and returns an empty Tensor.
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
  // W' of the stride-1 dX conv, [Cin, Cout*k*k].
  std::vector<float> flipped_weight() const;
  bool direct() const { return opts_.out_channels == 1 && opts_.stride == 1; }

  std::string name_;
  Conv2dOptions opts_;
  Parameter weight_;  // [Cout, Cin*k*k]
  Parameter bias_;    // [Cout] (unused when !opts_.bias)
  Tensor cached_input_;
};

}  // namespace fleda
