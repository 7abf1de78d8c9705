// Unit tests for layer forward semantics: shapes, known-value outputs,
// BatchNorm statistics, pooling selection, pixel-shuffle permutation,
// parameter registration and naming.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "nn/activations.hpp"
#include "nn/batchnorm2d.hpp"
#include "nn/conv2d.hpp"
#include "nn/conv_transpose2d.hpp"
#include "nn/init.hpp"
#include "nn/pixel_shuffle.hpp"
#include "nn/pooling.hpp"
#include "nn/sequential.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"

namespace fleda {
namespace {

Tensor random_tensor(const Shape& shape, Rng& rng) {
  Tensor t(shape);
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    t[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  return t;
}

TEST(Conv2d, SamePaddingPreservesSpatialDims) {
  Rng rng(1);
  for (int k : {3, 5, 7, 9}) {
    Conv2dOptions opts;
    opts.in_channels = 2;
    opts.out_channels = 4;
    opts.kernel = k;
    opts.same_padding();
    Conv2d conv("c", opts, rng);
    Tensor out = conv.forward(random_tensor(Shape::of(1, 2, 16, 16), rng), true);
    EXPECT_EQ(out.shape(), (Shape{1, 4, 16, 16})) << "k=" << k;
  }
}

TEST(Conv2d, StrideHalvesOutput) {
  Rng rng(2);
  Conv2dOptions opts;
  opts.in_channels = 1;
  opts.out_channels = 1;
  opts.kernel = 3;
  opts.stride = 2;
  opts.padding = 1;
  Conv2d conv("c", opts, rng);
  Tensor out = conv.forward(Tensor(Shape{1, 1, 8, 8}), true);
  EXPECT_EQ(out.shape(), (Shape{1, 1, 4, 4}));
}

TEST(Conv2d, IdentityKernelReproducesInput) {
  Rng rng(3);
  Conv2dOptions opts;
  opts.in_channels = 1;
  opts.out_channels = 1;
  opts.kernel = 3;
  opts.same_padding();
  Conv2d conv("c", opts, rng);
  // Set kernel to the delta at center, bias 0.
  conv.weight().value.fill(0.0f);
  conv.weight().value[4] = 1.0f;  // center of 3x3
  conv.bias().value.fill(0.0f);
  Tensor input = random_tensor(Shape::of(1, 1, 6, 6), rng);
  Tensor out = conv.forward(input, true);
  EXPECT_TRUE(allclose(out, input, 1e-5f, 1e-6f));
}

TEST(Conv2d, BiasShiftsOutputUniformly) {
  Rng rng(4);
  Conv2dOptions opts;
  opts.in_channels = 1;
  opts.out_channels = 2;
  opts.kernel = 1;
  Conv2d conv("c", opts, rng);
  conv.weight().value.fill(0.0f);
  conv.bias().value[0] = 1.5f;
  conv.bias().value[1] = -2.0f;
  Tensor out = conv.forward(Tensor(Shape{1, 1, 3, 3}), true);
  for (int i = 0; i < 9; ++i) {
    EXPECT_FLOAT_EQ(out[i], 1.5f);
    EXPECT_FLOAT_EQ(out[9 + i], -2.0f);
  }
}

TEST(Conv2d, RejectsBadInputShape) {
  Rng rng(5);
  Conv2dOptions opts;
  opts.in_channels = 3;
  opts.out_channels = 1;
  opts.kernel = 3;
  opts.same_padding();
  Conv2d conv("c", opts, rng);
  EXPECT_THROW(conv.forward(Tensor(Shape{1, 2, 8, 8}), true),
               std::invalid_argument);
  EXPECT_THROW(conv.forward(Tensor(Shape{8, 8}), true), std::invalid_argument);
}

// Constructing with `opts` throws std::invalid_argument naming `name`.
template <typename Layer, typename Options>
void expect_rejected(const std::string& name, const Options& opts) {
  Rng rng(0);
  try {
    Layer layer(name, opts, rng);
    ADD_FAILURE() << name << ": accepted bad options";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(name), std::string::npos)
        << e.what();
  }
}

TEST(Conv2d, RejectsNonPositiveStrideOrDilationAndNegativePadding) {
  // stride 0 used to reach an integer division by zero in ConvGeometry.
  Conv2dOptions good;
  good.in_channels = 2;
  good.out_channels = 1;
  good.kernel = 3;
  for (std::int64_t bad : {0, -1}) {
    Conv2dOptions o = good;
    o.stride = bad;
    expect_rejected<Conv2d>("head_stride", o);
    o = good;
    o.dilation = bad;
    expect_rejected<Conv2d>("head_dilation", o);
  }
  Conv2dOptions o = good;
  o.padding = -1;
  expect_rejected<Conv2d>("head_padding", o);
  Rng rng(34);
  EXPECT_NO_THROW(Conv2d("head", good, rng));
}

TEST(ConvTranspose2d, RejectsNonPositiveStrideAndNegativePadding) {
  ConvTranspose2dOptions good;
  good.in_channels = 2;
  good.out_channels = 1;
  good.kernel = 4;
  for (std::int64_t bad : {0, -2}) {
    ConvTranspose2dOptions o = good;
    o.stride = bad;
    expect_rejected<ConvTranspose2d>("up_stride", o);
  }
  ConvTranspose2dOptions o = good;
  o.padding = -1;
  expect_rejected<ConvTranspose2d>("up_padding", o);
  Rng rng(35);
  EXPECT_NO_THROW(ConvTranspose2d("up", good, rng));
}

TEST(Conv2d, BackwardBeforeForwardThrows) {
  Rng rng(6);
  Conv2dOptions opts;
  opts.in_channels = 1;
  opts.out_channels = 1;
  opts.kernel = 3;
  Conv2d conv("c", opts, rng);
  EXPECT_THROW(conv.backward(Tensor(Shape{1, 1, 3, 3})), std::logic_error);
}

TEST(Conv2d, EvalForwardDoesNotRetainActivation) {
  // An evaluation pass must not pin the batch-sized input on the layer
  // (at K = 1000 every client evaluates each round): after an eval
  // forward there is nothing cached, so backward refuses to run — and
  // an eval pass wipes whatever an earlier training pass cached.
  Rng rng(31);
  Conv2dOptions opts;
  opts.in_channels = 1;
  opts.out_channels = 2;
  opts.kernel = 3;
  opts.same_padding();
  Conv2d conv("c", opts, rng);
  Tensor x = random_tensor(Shape::of(1, 1, 6, 6), rng);
  conv.forward(x, /*training=*/false);
  EXPECT_THROW(conv.backward(Tensor(Shape{1, 2, 6, 6})), std::logic_error);
  conv.forward(x, /*training=*/true);
  conv.forward(x, /*training=*/false);
  EXPECT_THROW(conv.backward(Tensor(Shape{1, 2, 6, 6})), std::logic_error);
  // A training forward restores the invariant.
  Tensor y = conv.forward(x, /*training=*/true);
  EXPECT_NO_THROW(conv.backward(y));
}

TEST(ReLU, EvalForwardDoesNotRetainActivation) {
  // The same contract as Conv2d's, for the pointwise layer: an eval
  // forward caches nothing and wipes an earlier training cache.
  Rng rng(33);
  Tensor x = random_tensor(Shape::of(1, 2, 4, 4), rng);
  ReLU relu;
  relu.forward(x, /*training=*/false);
  EXPECT_THROW(relu.backward(x), std::logic_error);
  relu.forward(x, /*training=*/true);
  relu.forward(x, /*training=*/false);
  EXPECT_THROW(relu.backward(x), std::logic_error);
  relu.forward(x, /*training=*/true);
  EXPECT_NO_THROW(relu.backward(x));
}

TEST(ConvTranspose2d, EvalForwardDoesNotRetainActivation) {
  Rng rng(32);
  ConvTranspose2dOptions opts;
  opts.in_channels = 2;
  opts.out_channels = 1;
  opts.kernel = 4;
  opts.stride = 2;
  opts.padding = 1;
  ConvTranspose2d deconv("d", opts, rng);
  Tensor x = random_tensor(Shape::of(1, 2, 4, 4), rng);
  deconv.forward(x, /*training=*/false);
  EXPECT_THROW(deconv.backward(Tensor(Shape{1, 1, 8, 8})), std::logic_error);
  Tensor y = deconv.forward(x, /*training=*/true);
  EXPECT_NO_THROW(deconv.backward(y));
}

TEST(Conv2d, ParameterNamesAndShapes) {
  Rng rng(7);
  Conv2dOptions opts;
  opts.in_channels = 3;
  opts.out_channels = 8;
  opts.kernel = 5;
  Conv2d conv("input_conv", opts, rng);
  auto params = conv.parameters();
  ASSERT_EQ(params.size(), 2u);
  EXPECT_EQ(params[0]->name, "input_conv.weight");
  EXPECT_EQ(params[1]->name, "input_conv.bias");
  EXPECT_EQ(params[0]->value.shape(), (Shape{8, 3 * 25}));
  EXPECT_EQ(params[1]->value.shape(), (Shape{8}));
  EXPECT_EQ(conv.num_parameters(), 8 * 75 + 8);
}

TEST(ConvTranspose2d, DoublesSpatialDims) {
  Rng rng(8);
  ConvTranspose2dOptions opts;
  opts.in_channels = 4;
  opts.out_channels = 2;
  opts.kernel = 4;
  opts.stride = 2;
  opts.padding = 1;
  ConvTranspose2d deconv("d", opts, rng);
  Tensor out = deconv.forward(Tensor(Shape{2, 4, 8, 8}), true);
  EXPECT_EQ(out.shape(), (Shape{2, 2, 16, 16}));
}

TEST(ConvTranspose2d, IsAdjointOfConv) {
  // <conv(x), y> == <x, deconv(y)> when deconv's weight equals conv's
  // weight (transposed layout) and biases are zero.
  Rng rng(9);
  const int cin = 2, cout = 3, k = 3, stride = 2, pad = 1;
  Conv2dOptions copts;
  copts.in_channels = cin;
  copts.out_channels = cout;
  copts.kernel = k;
  copts.stride = stride;
  copts.padding = pad;
  copts.bias = false;
  Conv2d conv("c", copts, rng);

  ConvTranspose2dOptions dopts;
  dopts.in_channels = cout;
  dopts.out_channels = cin;
  dopts.kernel = k;
  dopts.stride = stride;
  dopts.padding = pad;
  dopts.bias = false;
  ConvTranspose2d deconv("d", dopts, rng);
  // deconv.weight [cout, cin*k*k] must equal conv.weight [cout, cin*k*k].
  for (Parameter* p : deconv.parameters()) {
    p->value = conv.parameters()[0]->value;
  }

  Tensor x = random_tensor(Shape::of(1, cin, 9, 9), rng);
  Tensor cx = conv.forward(x, true);
  Tensor y = random_tensor(cx.shape(), rng);
  Tensor dy = deconv.forward(y, true);
  ASSERT_EQ(dy.shape(), x.shape());
  EXPECT_NEAR(dot(cx, y), dot(x, dy), 1e-2);
}

TEST(BatchNorm2d, NormalizesBatchStatistics) {
  Rng rng(10);
  BatchNorm2d bn("bn", BatchNorm2dOptions{2});
  Tensor input = random_tensor(Shape::of(4, 2, 8, 8), rng);
  // Shift channel 1 to mean 5.
  for (std::int64_t n = 0; n < 4; ++n) {
    for (std::int64_t i = 0; i < 64; ++i) {
      input.at(n, 1, i / 8, i % 8) += 5.0f;
    }
  }
  Tensor out = bn.forward(input, /*training=*/true);
  // Per-channel output mean ~0, var ~1.
  for (int c = 0; c < 2; ++c) {
    double mean = 0.0, var = 0.0;
    for (std::int64_t n = 0; n < 4; ++n) {
      for (std::int64_t i = 0; i < 64; ++i) {
        mean += out.at(n, c, i / 8, i % 8);
      }
    }
    mean /= 4 * 64;
    for (std::int64_t n = 0; n < 4; ++n) {
      for (std::int64_t i = 0; i < 64; ++i) {
        const double d = out.at(n, c, i / 8, i % 8) - mean;
        var += d * d;
      }
    }
    var /= 4 * 64;
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(var, 1.0, 1e-2);
  }
}

TEST(BatchNorm2d, RunningStatsConvergeToDataStats) {
  Rng rng(11);
  BatchNorm2d bn("bn", BatchNorm2dOptions{1});
  // Feed the same distribution many times: running mean -> 3, var -> 4.
  for (int it = 0; it < 200; ++it) {
    Tensor input(Shape{8, 1, 4, 4});
    for (std::int64_t i = 0; i < input.numel(); ++i) {
      input[i] = static_cast<float>(rng.normal(3.0, 2.0));
    }
    bn.forward(input, /*training=*/true);
  }
  EXPECT_NEAR(bn.running_mean()[0], 3.0f, 0.2f);
  EXPECT_NEAR(bn.running_var()[0], 4.0f, 0.6f);
}

TEST(BatchNorm2d, EvalModeUsesRunningStats) {
  BatchNorm2d bn("bn", BatchNorm2dOptions{1});
  // Fresh BN: running mean 0, var 1 -> eval is near-identity.
  Tensor input(Shape{1, 1, 2, 2}, {1.0f, -1.0f, 0.5f, 2.0f});
  Tensor out = bn.forward(input, /*training=*/false);
  EXPECT_TRUE(allclose(out, input, 1e-3f, 1e-4f));
}

TEST(BatchNorm2d, ExposesBuffers) {
  BatchNorm2d bn("stage1_bn", BatchNorm2dOptions{4});
  auto buffers = bn.buffers();
  ASSERT_EQ(buffers.size(), 2u);
  EXPECT_EQ(buffers[0].name, "stage1_bn.running_mean");
  EXPECT_EQ(buffers[1].name, "stage1_bn.running_var");
  EXPECT_EQ(buffers[0].tensor->shape(), (Shape{4}));
}

TEST(ReLUForward, ClampsNegatives) {
  ReLU relu;
  Tensor input(Shape{1, 1, 1, 4}, {-2.0f, -0.1f, 0.0f, 3.0f});
  Tensor out = relu.forward(input, true);
  EXPECT_FLOAT_EQ(out[0], 0.0f);
  EXPECT_FLOAT_EQ(out[1], 0.0f);
  EXPECT_FLOAT_EQ(out[2], 0.0f);
  EXPECT_FLOAT_EQ(out[3], 3.0f);
}

TEST(ReLUBackward, PassesGradientOnlyWherePositiveAndNeverItsNaN) {
  // Where the input is <= 0 or NaN, dx is +0 whatever dy holds (NaN and
  // infinities included); where it is positive, dy passes bit for bit.
  const float nan = std::nanf("");
  const float inf = std::numeric_limits<float>::infinity();
  const std::vector<float> in = {-2.0f, -0.0f, 0.0f, nan, -nan, -inf,
                                 -1.0f, 0.0f,  nan,  3.0f, 0.5f, inf,
                                 1e-30f, 2.0f, -3.0f, -0.0f, 7.0f};
  const std::vector<float> dy = {nan,  inf,   -inf, nan,  -inf, inf,
                                 -nan, nan,   inf,  nan,  -inf, -2.5f,
                                 4.0f, -0.0f, nan,  -inf, inf};
  const auto n = static_cast<std::int64_t>(in.size());
  Tensor x(Shape{n}, in);
  Tensor g(Shape{n}, dy);
  ReLU relu;
  relu.forward(x, /*training=*/true);
  const Tensor dx = relu.backward(g);
  const auto bits = [](float f) {
    std::uint32_t u;
    std::memcpy(&u, &f, sizeof u);
    return u;
  };
  for (std::int64_t i = 0; i < n; ++i) {
    const auto j = static_cast<std::size_t>(i);
    if (in[j] > 0.0f) {
      EXPECT_EQ(bits(dx[i]), bits(dy[j])) << "at " << i;
    } else {
      EXPECT_EQ(dx[i], 0.0f) << "at " << i;
      EXPECT_FALSE(std::signbit(dx[i])) << "at " << i;
    }
  }
}

TEST(MaxPool2d, SelectsWindowMaxima) {
  MaxPool2d pool("p", MaxPool2dOptions{2, 2});
  Tensor input(Shape{1, 1, 2, 4}, {1.0f, 5.0f, 2.0f, 0.0f,  //
                                   3.0f, -1.0f, 8.0f, 4.0f});
  Tensor out = pool.forward(input, true);
  ASSERT_EQ(out.shape(), (Shape{1, 1, 1, 2}));
  EXPECT_FLOAT_EQ(out[0], 5.0f);
  EXPECT_FLOAT_EQ(out[1], 8.0f);
}

TEST(MaxPool2d, BackwardRoutesToArgmax) {
  MaxPool2d pool("p", MaxPool2dOptions{2, 2});
  Tensor input(Shape{1, 1, 2, 2}, {1.0f, 9.0f, 2.0f, 3.0f});
  pool.forward(input, true);
  Tensor g(Shape{1, 1, 1, 1}, {7.0f});
  Tensor dx = pool.backward(g);
  EXPECT_FLOAT_EQ(dx[0], 0.0f);
  EXPECT_FLOAT_EQ(dx[1], 7.0f);
  EXPECT_FLOAT_EQ(dx[2], 0.0f);
  EXPECT_FLOAT_EQ(dx[3], 0.0f);
}

TEST(MaxPool2d, EvalForwardComputesMaximaOnly) {
  // An evaluation pass gives the training pass's bits (odd sizes, a
  // stride below the window, ties, -0 and -Inf) and records no argmax,
  // so a backward after it throws; a training pass arms it again.
  MaxPool2d pool("p", MaxPool2dOptions{3, 2});
  Rng rng(7);
  Tensor input(Shape{2, 3, 9, 7});
  for (std::int64_t i = 0; i < input.numel(); ++i) {
    input[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  input[5] = input[6] = 2.0f;
  input[20] = -0.0f;
  input[40] = -std::numeric_limits<float>::infinity();
  const Tensor trained = pool.forward(input, /*training=*/true);
  const Tensor grad_in = pool.backward(trained);
  const Tensor evaluated = pool.forward(input, /*training=*/false);
  ASSERT_EQ(evaluated.shape(), trained.shape());
  EXPECT_EQ(0, std::memcmp(evaluated.data(), trained.data(),
                           sizeof(float) * trained.numel()));
  EXPECT_THROW(
      {
        try {
          pool.backward(trained);
        } catch (const std::logic_error& e) {
          EXPECT_NE(std::string(e.what()).find("backward before forward"),
                    std::string::npos);
          throw;
        }
      },
      std::logic_error);
  pool.forward(input, /*training=*/true);
  const Tensor again = pool.backward(trained);
  EXPECT_EQ(0, std::memcmp(again.data(), grad_in.data(),
                           sizeof(float) * grad_in.numel()));
}

TEST(PixelShuffle, PermutationIsExact) {
  PixelShuffle ps("ps", 2);
  // C_in = 4 -> C_out = 1, H,W = 1 -> 2x2 output laid out from the 4
  // input channels in (dy, dx) order.
  Tensor input(Shape{1, 4, 1, 1}, {10.0f, 11.0f, 12.0f, 13.0f});
  Tensor out = ps.forward(input, true);
  ASSERT_EQ(out.shape(), (Shape{1, 1, 2, 2}));
  EXPECT_FLOAT_EQ(out.at(0, 0, 0, 0), 10.0f);
  EXPECT_FLOAT_EQ(out.at(0, 0, 0, 1), 11.0f);
  EXPECT_FLOAT_EQ(out.at(0, 0, 1, 0), 12.0f);
  EXPECT_FLOAT_EQ(out.at(0, 0, 1, 1), 13.0f);
}

TEST(PixelShuffle, BackwardInvertsForward) {
  Rng rng(12);
  PixelShuffle ps("ps", 2);
  Tensor input = random_tensor(Shape::of(2, 8, 3, 3), rng);
  Tensor out = ps.forward(input, true);
  Tensor back = ps.backward(out);
  EXPECT_TRUE(input.equals(back));
}

TEST(PixelShuffle, RejectsIndivisibleChannels) {
  PixelShuffle ps("ps", 2);
  EXPECT_THROW(ps.forward(Tensor(Shape{1, 3, 2, 2}), true),
               std::invalid_argument);
}

TEST(Sequential, ChainsAndCollectsParameters) {
  Rng rng(13);
  Sequential seq("s");
  Conv2dOptions c1;
  c1.in_channels = 1;
  c1.out_channels = 2;
  c1.kernel = 3;
  c1.same_padding();
  seq.emplace<Conv2d>("a", c1, rng);
  seq.emplace<ReLU>("r");
  Conv2dOptions c2;
  c2.in_channels = 2;
  c2.out_channels = 1;
  c2.kernel = 3;
  c2.same_padding();
  seq.emplace<Conv2d>("b", c2, rng);

  EXPECT_EQ(seq.size(), 3u);
  auto params = seq.parameters();
  ASSERT_EQ(params.size(), 4u);
  EXPECT_EQ(params[0]->name, "a.weight");
  EXPECT_EQ(params[2]->name, "b.weight");

  Tensor out = seq.forward(Tensor(Shape{1, 1, 5, 5}), true);
  EXPECT_EQ(out.shape(), (Shape{1, 1, 5, 5}));
}

TEST(Init, KaimingBoundsRespected) {
  Rng rng(14);
  Tensor w(Shape{1000});
  kaiming_uniform(w, 50, rng);
  const float bound = std::sqrt(6.0f / 50.0f);
  EXPECT_LE(max_value(w), bound);
  EXPECT_GE(min_value(w), -bound);
  // Should actually use the range.
  EXPECT_GT(max_value(w), 0.5f * bound);
}

TEST(Init, XavierAndNormal) {
  Rng rng(15);
  Tensor w(Shape{2000});
  xavier_uniform(w, 30, 70, rng);
  const float bound = std::sqrt(6.0f / 100.0f);
  EXPECT_LE(max_value(w), bound);
  EXPECT_GE(min_value(w), -bound);
  normal_init(w, 0.5f, rng);
  double var = 0.0;
  for (std::int64_t i = 0; i < w.numel(); ++i) var += w[i] * w[i];
  EXPECT_NEAR(var / w.numel(), 0.25, 0.03);
}

TEST(ModuleBase, ZeroGradClearsAccumulation) {
  Rng rng(16);
  Conv2dOptions opts;
  opts.in_channels = 1;
  opts.out_channels = 1;
  opts.kernel = 3;
  opts.same_padding();
  Conv2d conv("c", opts, rng);
  Tensor x = random_tensor(Shape::of(1, 1, 5, 5), rng);
  conv.forward(x, true);
  conv.backward(Tensor::ones(Shape{1, 1, 5, 5}));
  EXPECT_GT(squared_norm(conv.weight().grad), 0.0);
  conv.zero_grad();
  EXPECT_EQ(squared_norm(conv.weight().grad), 0.0);
}

}  // namespace
}  // namespace fleda
