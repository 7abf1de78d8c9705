// Transposed 2D convolution (a.k.a. deconvolution), the upsampling
// operator in RouteNet's decoder. Implemented as the exact adjoint of
// Conv2d. Weight layout is [Cin, Cout*kh*kw]. Lowerings:
//   - forward (conv-backward-data): cols = W^T x through the planner's
//     kAT GEMM, scattered into the output with col2im;
//   - dX: the conv of dy at this layer's stride, W * cols(dy), and
//   - dW: x * cols(dy)^T, added sample by sample in sample order,
// both through tensor/conv_gemm.hpp, which reads cols(dy) from a
// padded copy of dy through the stride-s ConvIndex: the panels, and
// bits, im2col(dy) would give, without building it.
#pragma once

#include "nn/module.hpp"
#include "tensor/im2col.hpp"
#include "util/rng.hpp"

namespace fleda {

struct ConvTranspose2dOptions {
  std::int64_t in_channels = 0;
  std::int64_t out_channels = 0;
  std::int64_t kernel = 2;
  std::int64_t stride = 2;
  std::int64_t padding = 0;
  bool bias = true;

  std::int64_t out_size(std::int64_t in) const {
    return (in - 1) * stride - 2 * padding + kernel;
  }
};

class ConvTranspose2d : public Module {
 public:
  ConvTranspose2d(std::string name, const ConvTranspose2dOptions& opts,
                  Rng& rng);

  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<Parameter*> parameters() override;
  std::string describe() const override;

  const ConvTranspose2dOptions& options() const { return opts_; }

 private:
  // Geometry of the *output* image viewed as a conv input, which makes
  // col2im/im2col exact adjoints of the corresponding Conv2d.
  ConvGeometry out_geometry(std::int64_t out_h, std::int64_t out_w) const;

  std::string name_;
  ConvTranspose2dOptions opts_;
  Parameter weight_;  // [Cin, Cout*k*k]
  Parameter bias_;    // [Cout]
  Tensor cached_input_;
};

}  // namespace fleda
