// Property-based gradient verification: every layer's backward pass is
// checked against central finite differences of its forward pass, for
// both parameter gradients and input gradients, across a parameterized
// sweep of layer geometries. This is the load-bearing correctness
// suite for the NN substrate — if these pass, training dynamics are
// trustworthy.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <memory>

#include "nn/activations.hpp"
#include "nn/batchnorm2d.hpp"
#include "nn/conv2d.hpp"
#include "nn/conv_transpose2d.hpp"
#include "nn/pixel_shuffle.hpp"
#include "nn/pooling.hpp"
#include "nn/sequential.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"

namespace fleda {
namespace {

Tensor random_tensor(const Shape& shape, Rng& rng, double scale = 1.0) {
  Tensor t(shape);
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    t[i] = static_cast<float>(rng.uniform(-scale, scale));
  }
  return t;
}

// Scalar objective L = <forward(x), G> with fixed random G, so that
// dL/d(output) = G and backward(G) yields analytic gradients.
struct GradCheck {
  Module& layer;
  Tensor input;
  Tensor g;  // dL/d(output)
  bool training = true;

  double loss() {
    Tensor out = layer.forward(input, training);
    return dot(out, g);
  }

  // Runs backward once and returns dL/d(input); parameter grads are
  // accumulated into the layer's Parameter::grad.
  Tensor analytic_input_grad() {
    layer.zero_grad();
    layer.forward(input, training);
    return layer.backward(g);
  }

  static constexpr double kEps = 1e-3;
  static constexpr double kTol = 2e-2;  // relative, float32 forward

  void check_input_grad() {
    Tensor analytic = analytic_input_grad();
    double max_err = 0.0, max_ref = 1e-8;
    for (std::int64_t i = 0; i < input.numel(); ++i) {
      const float orig = input[i];
      input[i] = orig + static_cast<float>(kEps);
      const double lp = loss();
      input[i] = orig - static_cast<float>(kEps);
      const double lm = loss();
      input[i] = orig;
      const double numeric = (lp - lm) / (2.0 * kEps);
      max_err = std::max(max_err, std::fabs(numeric - analytic[i]));
      max_ref = std::max(max_ref, std::fabs(numeric));
    }
    EXPECT_LT(max_err / max_ref, kTol) << "input gradient mismatch";
  }

  void check_param_grads() {
    analytic_input_grad();  // fills Parameter::grad
    for (Parameter* p : layer.parameters()) {
      // Copy since backward reruns will overwrite.
      Tensor analytic = p->grad;
      double max_err = 0.0, max_ref = 1e-8;
      for (std::int64_t i = 0; i < p->value.numel(); ++i) {
        const float orig = p->value[i];
        p->value[i] = orig + static_cast<float>(kEps);
        const double lp = loss();
        p->value[i] = orig - static_cast<float>(kEps);
        const double lm = loss();
        p->value[i] = orig;
        const double numeric = (lp - lm) / (2.0 * kEps);
        max_err = std::max(max_err, std::fabs(numeric - analytic[i]));
        max_ref = std::max(max_ref, std::fabs(numeric));
      }
      EXPECT_LT(max_err / max_ref, kTol)
          << "parameter gradient mismatch in " << p->name;
    }
  }
};

// ---- Conv2d over geometry sweep ----

struct ConvCase {
  int cin, cout, k, stride, pad, dilation, h, w, n;
  bool bias;
};

class Conv2dGrad : public ::testing::TestWithParam<ConvCase> {};

TEST_P(Conv2dGrad, InputAndParamGradients) {
  const ConvCase& cc = GetParam();
  Rng rng(42);
  Conv2dOptions opts;
  opts.in_channels = cc.cin;
  opts.out_channels = cc.cout;
  opts.kernel = cc.k;
  opts.stride = cc.stride;
  opts.padding = cc.pad;
  opts.dilation = cc.dilation;
  opts.bias = cc.bias;
  Conv2d conv("conv", opts, rng);

  Tensor input = random_tensor(Shape::of(cc.n, cc.cin, cc.h, cc.w), rng);
  auto [oh, ow] = conv.output_hw(cc.h, cc.w);
  Tensor g = random_tensor(Shape::of(cc.n, cc.cout, oh, ow), rng);

  GradCheck check{conv, input, g};
  check.check_input_grad();
  check.check_param_grads();
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, Conv2dGrad,
    ::testing::Values(ConvCase{1, 1, 3, 1, 1, 1, 6, 6, 1, true},
                      ConvCase{2, 3, 3, 1, 1, 1, 5, 7, 2, true},
                      ConvCase{3, 2, 5, 1, 2, 1, 8, 8, 1, true},
                      ConvCase{2, 2, 3, 2, 1, 1, 8, 8, 2, true},
                      ConvCase{2, 2, 3, 1, 2, 2, 9, 9, 1, true},
                      ConvCase{1, 4, 9, 1, 4, 1, 12, 12, 1, true},
                      ConvCase{2, 3, 3, 1, 1, 1, 6, 6, 1, false},
                      // Stride-1 dX conv of dy cropped (padding past the
                      // kernel's reach) and padded unevenly (dilation 2,
                      // no padding), at H != W.
                      ConvCase{2, 3, 3, 1, 3, 1, 5, 6, 2, true},
                      ConvCase{3, 2, 3, 1, 0, 2, 9, 8, 1, true}));

// ---- ConvTranspose2d ----

struct DeconvCase {
  int cin, cout, k, stride, pad, h, w, n;
};

class ConvTranspose2dGrad : public ::testing::TestWithParam<DeconvCase> {};

TEST_P(ConvTranspose2dGrad, InputAndParamGradients) {
  const DeconvCase& dc = GetParam();
  Rng rng(43);
  ConvTranspose2dOptions opts;
  opts.in_channels = dc.cin;
  opts.out_channels = dc.cout;
  opts.kernel = dc.k;
  opts.stride = dc.stride;
  opts.padding = dc.pad;
  ConvTranspose2d deconv("deconv", opts, rng);

  Tensor input = random_tensor(Shape::of(dc.n, dc.cin, dc.h, dc.w), rng);
  const std::int64_t oh = opts.out_size(dc.h);
  const std::int64_t ow = opts.out_size(dc.w);
  Tensor g = random_tensor(Shape::of(dc.n, dc.cout, oh, ow), rng);

  GradCheck check{deconv, input, g};
  check.check_input_grad();
  check.check_param_grads();
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, ConvTranspose2dGrad,
    ::testing::Values(DeconvCase{1, 1, 2, 2, 0, 4, 4, 1},
                      DeconvCase{2, 3, 4, 2, 1, 4, 4, 2},
                      DeconvCase{3, 2, 3, 1, 1, 5, 5, 1},
                      DeconvCase{2, 2, 4, 2, 1, 5, 6, 1}));

// ---- BatchNorm2d (train and eval modes) ----

class BatchNorm2dGrad : public ::testing::TestWithParam<bool> {};

TEST_P(BatchNorm2dGrad, InputAndParamGradients) {
  const bool training = GetParam();
  Rng rng(44);
  BatchNorm2d bn("bn", BatchNorm2dOptions{3});
  Tensor input = random_tensor(Shape::of(2, 3, 4, 4), rng, 2.0);
  Tensor g = random_tensor(Shape::of(2, 3, 4, 4), rng);
  if (!training) {
    // Populate running stats with something non-trivial first.
    bn.forward(input, /*training=*/true);
  }
  GradCheck check{bn, input, g, training};
  check.check_input_grad();
  check.check_param_grads();
}

INSTANTIATE_TEST_SUITE_P(Modes, BatchNorm2dGrad, ::testing::Bool());

// ---- activations / pooling / pixel shuffle ----

TEST(ActivationGrad, ReLU) {
  Rng rng(45);
  ReLU relu;
  // Keep inputs away from the kink at 0 for finite differences.
  Tensor input = random_tensor(Shape::of(2, 3, 4, 4), rng);
  for (std::int64_t i = 0; i < input.numel(); ++i) {
    if (std::fabs(input[i]) < 0.05f) input[i] = 0.1f;
  }
  Tensor g = random_tensor(input.shape(), rng);
  GradCheck check{relu, input, g};
  check.check_input_grad();
}

TEST(ActivationGrad, LeakyReLU) {
  Rng rng(46);
  LeakyReLU lrelu("l", 0.1f);
  Tensor input = random_tensor(Shape::of(1, 2, 5, 5), rng);
  for (std::int64_t i = 0; i < input.numel(); ++i) {
    if (std::fabs(input[i]) < 0.05f) input[i] = -0.1f;
  }
  Tensor g = random_tensor(input.shape(), rng);
  GradCheck check{lrelu, input, g};
  check.check_input_grad();
}

TEST(ActivationGrad, Sigmoid) {
  Rng rng(47);
  Sigmoid sig;
  Tensor input = random_tensor(Shape::of(1, 2, 4, 4), rng, 2.0);
  Tensor g = random_tensor(input.shape(), rng);
  GradCheck check{sig, input, g};
  check.check_input_grad();
}

TEST(ActivationGrad, Tanh) {
  Rng rng(48);
  Tanh tanh_layer;
  Tensor input = random_tensor(Shape::of(1, 2, 4, 4), rng, 2.0);
  Tensor g = random_tensor(input.shape(), rng);
  GradCheck check{tanh_layer, input, g};
  check.check_input_grad();
}

TEST(PoolingGrad, MaxPool2x2) {
  Rng rng(49);
  MaxPool2d pool("pool", MaxPool2dOptions{2, 2});
  // Well-separated values so argmax does not flip under perturbation.
  Tensor input(Shape::of(1, 2, 6, 6));
  for (std::int64_t i = 0; i < input.numel(); ++i) {
    input[i] = static_cast<float>(rng.uniform(-4.0, 4.0));
  }
  Tensor g = random_tensor(Shape::of(1, 2, 3, 3), rng);
  GradCheck check{pool, input, g};
  check.check_input_grad();
}

TEST(PixelShuffleGrad, Factor2) {
  Rng rng(50);
  PixelShuffle ps("ps", 2);
  Tensor input = random_tensor(Shape::of(2, 8, 3, 3), rng);
  Tensor g = random_tensor(Shape::of(2, 2, 6, 6), rng);
  GradCheck check{ps, input, g};
  check.check_input_grad();
}

TEST(SequentialGrad, ConvBnReluStack) {
  Rng rng(51);
  Sequential seq("stack");
  Conv2dOptions copts;
  copts.in_channels = 2;
  copts.out_channels = 3;
  copts.kernel = 3;
  copts.same_padding();
  // No conv bias before BatchNorm: BN cancels any channel-wise shift,
  // so a bias there has exactly zero gradient (and FD would be noise).
  copts.bias = false;
  seq.emplace<Conv2d>("c1", copts, rng);
  seq.emplace<BatchNorm2d>("b1", BatchNorm2dOptions{3});
  seq.emplace<Sigmoid>("s1");  // smooth activation for clean numerics
  Conv2dOptions copts2;
  copts2.in_channels = 3;
  copts2.out_channels = 1;
  copts2.kernel = 3;
  copts2.same_padding();
  seq.emplace<Conv2d>("c2", copts2, rng);

  Tensor input = random_tensor(Shape::of(2, 2, 5, 5), rng);
  Tensor g = random_tensor(Shape::of(2, 1, 5, 5), rng);
  GradCheck check{seq, input, g};
  check.check_input_grad();
  check.check_param_grads();
}

}  // namespace
}  // namespace fleda
