// Tests for losses and optimizers, including end-to-end "can it learn"
// checks: a small conv net fit on a synthetic target must drive the
// loss down, Adam must beat its starting loss on a quadratic, L2 decay
// must shrink weights.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "nn/sequential.hpp"
#include "tensor/ops.hpp"
#include "tensor/plan.hpp"
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

TEST(MseLoss, ZeroWhenEqual) {
  Tensor a(Shape{4}, {1, 2, 3, 4});
  LossResult r = mse_loss(a, a);
  EXPECT_FLOAT_EQ(r.value, 0.0f);
  EXPECT_FLOAT_EQ(sum(r.grad), 0.0f);
}

TEST(MseLoss, KnownValueAndGradient) {
  Tensor pred(Shape{2}, {1.0f, 3.0f});
  Tensor target(Shape{2}, {0.0f, 0.0f});
  LossResult r = mse_loss(pred, target);
  EXPECT_FLOAT_EQ(r.value, 5.0f);  // (1 + 9) / 2
  EXPECT_FLOAT_EQ(r.grad[0], 1.0f);   // 2*1/2
  EXPECT_FLOAT_EQ(r.grad[1], 3.0f);   // 2*3/2
}

TEST(MseLoss, GradMatchesFiniteDifference) {
  Rng rng(1);
  Tensor pred = random_tensor(Shape::of(3, 4), rng);
  Tensor target = random_tensor(Shape::of(3, 4), rng);
  LossResult r = mse_loss(pred, target);
  const double eps = 1e-3;
  for (std::int64_t i = 0; i < pred.numel(); ++i) {
    const float orig = pred[i];
    pred[i] = orig + static_cast<float>(eps);
    const double lp = mse_loss(pred, target).value;
    pred[i] = orig - static_cast<float>(eps);
    const double lm = mse_loss(pred, target).value;
    pred[i] = orig;
    EXPECT_NEAR((lp - lm) / (2 * eps), r.grad[i], 1e-3);
  }
}

TEST(BceWithLogits, MatchesClosedForm) {
  Tensor logits(Shape{2}, {0.0f, 2.0f});
  Tensor target(Shape{2}, {1.0f, 0.0f});
  LossResult r = bce_with_logits_loss(logits, target);
  const double l0 = std::log(2.0);                 // -log(sigmoid(0))
  const double l1 = 2.0 + std::log1p(std::exp(-2.0));  // -log(1-sigmoid(2))
  EXPECT_NEAR(r.value, (l0 + l1) / 2.0, 1e-5);
  EXPECT_NEAR(r.grad[0], (0.5 - 1.0) / 2.0, 1e-5);
}

TEST(BceWithLogits, StableAtExtremeLogits) {
  Tensor logits(Shape{2}, {80.0f, -80.0f});
  Tensor target(Shape{2}, {1.0f, 0.0f});
  LossResult r = bce_with_logits_loss(logits, target);
  EXPECT_TRUE(std::isfinite(r.value));
  EXPECT_NEAR(r.value, 0.0, 1e-5);
}

TEST(WeightedMse, UpweightsPositives) {
  Tensor pred(Shape{2}, {0.0f, 0.0f});
  Tensor target(Shape{2}, {0.5f, 1.0f});  // second is "positive"
  LossResult plain = mse_loss(pred, target);
  LossResult weighted = weighted_mse_loss(pred, target, 4.0f);
  EXPECT_GT(weighted.value, plain.value);
  // Positive-pixel grad scaled 4x.
  EXPECT_NEAR(weighted.grad[1] / plain.grad[1], 4.0f, 1e-5f);
  EXPECT_NEAR(weighted.grad[0] / plain.grad[0], 1.0f, 1e-5f);
  EXPECT_THROW(weighted_mse_loss(pred, target, 0.0f), std::invalid_argument);
}

TEST(Losses, ShapeMismatchThrows) {
  Tensor a(Shape{2});
  Tensor b(Shape{3});
  EXPECT_THROW(mse_loss(a, b), std::invalid_argument);
  EXPECT_THROW(bce_with_logits_loss(a, b), std::invalid_argument);
}

// Minimizing f(w) = sum (w - c)^2 directly through Parameter plumbing.
class QuadraticProblem {
 public:
  explicit QuadraticProblem(std::vector<float> target)
      : target_(std::move(target)), param_("w", Shape::of(static_cast<std::int64_t>(target_.size()))) {}

  double loss_and_grad() {
    double l = 0.0;
    for (std::int64_t i = 0; i < param_.value.numel(); ++i) {
      const float d = param_.value[i] - target_[static_cast<std::size_t>(i)];
      l += static_cast<double>(d) * d;
      param_.grad[i] = 2.0f * d;
    }
    return l;
  }

  Parameter& param() { return param_; }

 private:
  std::vector<float> target_;
  Parameter param_;
};

TEST(SGDOptimizer, ConvergesOnQuadratic) {
  QuadraticProblem problem({1.0f, -2.0f, 3.0f});
  SGDOptions opts;
  opts.lr = 0.1;
  SGD sgd({&problem.param()}, opts);
  for (int i = 0; i < 200; ++i) {
    sgd.zero_grad();
    problem.loss_and_grad();
    sgd.step();
  }
  EXPECT_LT(problem.loss_and_grad(), 1e-8);
}

TEST(SGDOptimizer, MomentumAcceleratesDescent) {
  QuadraticProblem slow({5.0f});
  QuadraticProblem fast({5.0f});
  SGDOptions base;
  base.lr = 0.01;
  SGD plain({&slow.param()}, base);
  SGDOptions mom = base;
  mom.momentum = 0.9;
  SGD with_momentum({&fast.param()}, mom);
  for (int i = 0; i < 30; ++i) {
    plain.zero_grad();
    slow.loss_and_grad();
    plain.step();
    with_momentum.zero_grad();
    fast.loss_and_grad();
    with_momentum.step();
  }
  EXPECT_LT(fast.loss_and_grad(), slow.loss_and_grad());
}

TEST(AdamOptimizer, ConvergesOnQuadratic) {
  QuadraticProblem problem({-1.0f, 0.5f});
  AdamOptions opts;
  opts.lr = 0.05;
  opts.weight_decay = 0.0;
  Adam adam({&problem.param()}, opts);
  for (int i = 0; i < 400; ++i) {
    adam.zero_grad();
    problem.loss_and_grad();
    adam.step();
  }
  EXPECT_LT(problem.loss_and_grad(), 1e-6);
}

TEST(AdamOptimizer, WeightDecayShrinksWeights) {
  Parameter p("w", Shape{1});
  p.value[0] = 1.0f;
  AdamOptions opts;
  opts.lr = 0.01;
  opts.weight_decay = 0.5;
  Adam adam({&p}, opts);
  for (int i = 0; i < 100; ++i) {
    adam.zero_grad();  // zero task gradient: only decay acts
    adam.step();
  }
  EXPECT_LT(std::fabs(p.value[0]), 0.5f);
}

std::uint32_t bits(float f) {
  std::uint32_t u;
  std::memcpy(&u, &f, sizeof u);
  return u;
}

// Pins the kernel ISA for one scope, then restores the host default.
struct IsaGuard {
  explicit IsaGuard(KernelIsa isa) : saved(kernel_isa()) {
    set_kernel_isa(isa);
  }
  ~IsaGuard() { set_kernel_isa(saved); }
  KernelIsa saved;
};

// Adam's update as a plain scalar loop, one float operation at a time:
// the vector body must reproduce it bit for bit.
void scalar_adam_step(const AdamOptions& o, std::int64_t t,
                      std::vector<float>& w, const std::vector<float>& g,
                      std::vector<float>& m, std::vector<float>& v) {
  const double bc1 = 1.0 - std::pow(o.beta1, static_cast<double>(t));
  const double bc2 = 1.0 - std::pow(o.beta2, static_cast<double>(t));
  const float lr = static_cast<float>(o.lr);
  const float b1 = static_cast<float>(o.beta1);
  const float b2 = static_cast<float>(o.beta2);
  const float eps = static_cast<float>(o.eps);
  const float wd = static_cast<float>(o.weight_decay);
  const float inv_bc1 = static_cast<float>(1.0 / bc1);
  const float inv_bc2 = static_cast<float>(1.0 / bc2);
  for (std::size_t j = 0; j < w.size(); ++j) {
    const float grad = g[j] + wd * w[j];
    m[j] = b1 * m[j] + (1.0f - b1) * grad;
    v[j] = b2 * v[j] + (1.0f - b2) * grad * grad;
    const float mhat = m[j] * inv_bc1;
    const float vhat = v[j] * inv_bc2;
    w[j] -= lr * mhat / (std::sqrt(vhat) + eps);
  }
}

TEST(AdamOptimizer, EveryIsaMatchesTheScalarLoopBitForBit) {
  AdamOptions opts;
  opts.lr = 0.01;
  opts.weight_decay = 0.05;
  for (const std::int64_t n : {1, 3, 17, 1001}) {
    for (const KernelIsa isa : supported_isas()) {
      const IsaGuard pin(isa);
      Rng rng(static_cast<std::uint64_t>(n));
      Parameter p("w", Shape{n});
      std::vector<float> w(static_cast<std::size_t>(n));
      for (std::int64_t j = 0; j < n; ++j) {
        w[static_cast<std::size_t>(j)] = p.value[j] =
            static_cast<float>(rng.uniform(-1.0, 1.0));
      }
      std::vector<float> m(w.size(), 0.0f), v(w.size(), 0.0f);
      Adam adam({&p}, opts);
      for (std::int64_t t = 1; t <= 5; ++t) {
        std::vector<float> g(w.size());
        for (std::int64_t j = 0; j < n; ++j) {
          g[static_cast<std::size_t>(j)] = p.grad[j] =
              static_cast<float>(rng.uniform(-2.0, 2.0));
        }
        adam.step();
        scalar_adam_step(opts, t, w, g, m, v);
      }
      const AdamMoments moments = adam.export_moments();
      for (std::int64_t j = 0; j < n; ++j) {
        const auto i = static_cast<std::size_t>(j);
        ASSERT_EQ(bits(p.value[j]), bits(w[i]))
            << to_string(isa) << ", n " << n << ", w[" << j << "]";
        ASSERT_EQ(bits(moments.m[0][j]), bits(m[i]))
            << to_string(isa) << ", n " << n << ", m[" << j << "]";
        ASSERT_EQ(bits(moments.v[0][j]), bits(v[i]))
            << to_string(isa) << ", n " << n << ", v[" << j << "]";
      }
    }
  }
}

TEST(AdamOptimizer, ResetStateRestartsMoments) {
  QuadraticProblem problem({2.0f});
  AdamOptions opts;
  opts.lr = 0.1;
  opts.weight_decay = 0.0;
  Adam adam({&problem.param()}, opts);
  for (int i = 0; i < 5; ++i) {
    adam.zero_grad();
    problem.loss_and_grad();
    adam.step();
  }
  adam.reset_state();
  // After reset the next step has the bias-corrected first-step size,
  // i.e. approximately lr in the gradient direction.
  adam.zero_grad();
  problem.loss_and_grad();
  const float before = problem.param().value[0];
  adam.step();
  const float after = problem.param().value[0];
  EXPECT_NEAR(std::fabs(after - before), 0.1f, 0.02f);
}

TEST(EndToEnd, TinyConvNetFitsLinearTarget) {
  // Target function: y = 2*x smoothed by a known 3x3 mean filter; a
  // 1-layer conv should fit it almost exactly.
  Rng rng(77);
  Conv2dOptions opts;
  opts.in_channels = 1;
  opts.out_channels = 1;
  opts.kernel = 3;
  opts.same_padding();
  Conv2d conv("c", opts, rng);

  Conv2d target_conv("t", opts, rng);
  target_conv.weight().value.fill(2.0f / 9.0f);
  target_conv.bias().value.fill(0.3f);

  AdamOptions aopts;
  aopts.lr = 0.02;
  aopts.weight_decay = 0.0;
  Adam adam(conv.parameters(), aopts);

  float final_loss = 1e9f;
  for (int step = 0; step < 300; ++step) {
    Tensor x = random_tensor(Shape::of(4, 1, 8, 8), rng);
    Tensor y = target_conv.forward(x, false);
    adam.zero_grad();
    Tensor pred = conv.forward(x, true);
    LossResult loss = mse_loss(pred, y);
    conv.backward(loss.grad);
    adam.step();
    final_loss = loss.value;
  }
  EXPECT_LT(final_loss, 1e-3f);
}

TEST(EndToEnd, DeeperNetReducesLossOnFixedBatch) {
  Rng rng(88);
  Sequential net("net");
  Conv2dOptions c1;
  c1.in_channels = 2;
  c1.out_channels = 8;
  c1.kernel = 3;
  c1.same_padding();
  net.emplace<Conv2d>("c1", c1, rng);
  net.emplace<ReLU>("r1");
  Conv2dOptions c2;
  c2.in_channels = 8;
  c2.out_channels = 1;
  c2.kernel = 3;
  c2.same_padding();
  net.emplace<Conv2d>("c2", c2, rng);

  Tensor x = random_tensor(Shape::of(4, 2, 8, 8), rng);
  Tensor y = random_tensor(Shape::of(4, 1, 8, 8), rng);

  AdamOptions aopts;
  aopts.lr = 0.01;
  aopts.weight_decay = 0.0;
  Adam adam(net.parameters(), aopts);
  float first = -1.0f, last = -1.0f;
  for (int step = 0; step < 200; ++step) {
    adam.zero_grad();
    Tensor pred = net.forward(x, true);
    LossResult loss = mse_loss(pred, y);
    if (step == 0) first = loss.value;
    last = loss.value;
    net.backward(loss.grad);
    adam.step();
  }
  EXPECT_LT(last, 0.25f * first);
}

}  // namespace
}  // namespace fleda
