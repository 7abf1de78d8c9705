// 2D convolution with stride, zero padding, and dilation — the
// workhorse of FLNet / RouteNet / PROS. Weight layout is
// [Cout, Cin*kh*kw] (a GEMM-ready matrix), bias is [Cout].
//
// Every pass is one call into the conv lowering of
// tensor/conv_gemm.hpp, which picks its form from the layer's shape
// alone (no plan lookup):
//   - forward: ConvGemm, which packs B panels straight from a padded
//     copy of each sample, or, for the stride-1, single-output-channel
//     conv (every model's prediction head), runs the direct kernels of
//     tensor/conv_direct.hpp; then conv_add_bias;
//   - dX: ConvGemmAdjoint, the forward's adjoint, as stride x stride
//     stride-1 phase convs of dy, each over the taps that reach its
//     pixels with the flipped, channel-transposed weight, interleaved
//     into dX. At stride 1, the head included, the one phase is the
//     forward conv of dy, padded by d(k-1)-p, with
//     W'[ci, (co, kh, kw)] = W[co, (ci, k-1-kh, k-1-kw)];
//   - dW: conv_gemm_weight_grad (the column matrix read in place from
//     the padded sample as its A operand, dy packed as its B; the
//     head's direct kernel at m = 1), and db: conv_bias_grad.
// dW and db add into the gradients one sample at a time in sample
// order, so they keep their bits at any pool size and whether or not
// the layer runs inside a parallel region; dW is split across the pool
// by blocks of weight columns, (channel, tap) (channel blocks for the
// head).
//
// Forward and dW give the bits of im2col + matmul. dX sums each element
// over Cout x taps in KC slices, not per tap as a column scatter would,
// so it matches the transposed conv's definition only to rounding.
// Non-finite values: dX multiplies every weight by dy's zero padding,
// so an Inf or NaN weight puts NaN at the border pixels of dX whose
// taps fall outside dy, at every stride, where a scatter never
// multiplied it. The head is no exception.
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

  std::string name_;
  Conv2dOptions opts_;
  Parameter weight_;  // [Cout, Cin*k*k]
  Parameter bias_;    // [Cout] (unused when !opts_.bias)
  Tensor cached_input_;
};

}  // namespace fleda
