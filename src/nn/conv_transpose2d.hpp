// Transposed 2D convolution (a.k.a. deconvolution), the upsampling
// operator in RouteNet's decoder. Implemented as the adjoint of
// Conv2d. Weight layout is [Cin, Cout*kh*kw]. Every pass is one call
// into tensor/conv_gemm.hpp:
//   - forward (conv-backward-data): ConvGemmAdjoint, exactly what
//     Conv2d's dX computes with this weight: stride x stride stride-1
//     phase convs of x (RouteNet's k = 4, s = 2 deconv: four 2x2
//     convs, each writing every other pixel of every other row), the
//     weight gathered and packed once per call, no plan lookup; then
//     conv_add_bias. It matches the transposed conv's definition to
//     rounding, and, as Conv2d's dX does, puts NaN at the output pixels
//     whose taps fall outside x when a weight is Inf or NaN;
//   - dX: ConvGemm, the conv of dy at this layer's stride,
//     W * cols(dy), and
//   - dW: conv_gemm_weight_grad, x * cols(dy)^T, added sample by
//     sample in sample order,
// both reading cols(dy) from a padded copy of dy through the stride-s
// ConvIndex: the panels, and bits, im2col(dy) would give, without
// building it.
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
  // Geometry of the *output* image viewed as a conv input: the Conv2d
  // whose dX this layer's forward is, and whose forward its dX is.
  ConvGeometry out_geometry(std::int64_t out_h, std::int64_t out_w) const;

  std::string name_;
  ConvTranspose2dOptions opts_;
  Parameter weight_;  // [Cin, Cout*k*k]
  Parameter bias_;    // [Cout]
  Tensor cached_input_;
};

}  // namespace fleda
