// Tests for the three routability models: Table 1 conformance for
// FLNet, shape contracts, gradient flow, parameter-count ordering
// (FLNet << RouteNet < PROS per the paper's robustness argument), the
// registry, and shortcut gradient correctness in RouteNet.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "models/flnet.hpp"
#include "models/pros.hpp"
#include "models/registry.hpp"
#include "models/routenet.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
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

TEST(FLNetTable1, ArchitectureMatchesPaper) {
  Rng rng(1);
  FLNetOptions opts;
  opts.in_channels = 6;
  FLNet net(opts, rng);
  auto params = net.parameters();
  ASSERT_EQ(params.size(), 4u);  // 2 conv layers x (weight, bias)
  // input_conv: 9x9, 64 filters.
  EXPECT_EQ(params[0]->name, "input_conv.weight");
  EXPECT_EQ(params[0]->value.shape(), (Shape{64, 6 * 81}));
  EXPECT_EQ(params[1]->value.shape(), (Shape{64}));
  // output_conv: 9x9, 1 filter, no activation after it.
  EXPECT_EQ(params[2]->name, "output_conv.weight");
  EXPECT_EQ(params[2]->value.shape(), (Shape{1, 64 * 81}));
  // No BatchNorm -> no buffers.
  EXPECT_TRUE(net.buffers().empty());
}

TEST(FLNetTable1, OutputIsUnactivated) {
  // With a negative output bias, predictions must go negative — no
  // output activation (Table 1: Activation "None").
  Rng rng(2);
  FLNetOptions opts;
  opts.in_channels = 2;
  FLNet net(opts, rng);
  net.parameters()[3]->value.fill(-5.0f);  // output bias
  Tensor out = net.forward(Tensor(Shape{1, 2, 12, 12}), false);
  EXPECT_LT(min_value(out), 0.0f);
}

class AllModels : public ::testing::TestWithParam<ModelKind> {};

TEST_P(AllModels, PreservesSpatialShape) {
  Rng rng(3);
  RoutabilityModelPtr model = make_model(GetParam(), 6, rng);
  Tensor x = random_tensor(Shape::of(2, 6, 16, 16), rng);
  Tensor y = model->forward(x, true);
  EXPECT_EQ(y.shape(), (Shape{2, 1, 16, 16})) << model->model_name();
}

TEST_P(AllModels, BackwardReturnsNoInputGradient) {
  // Nothing reads the gradient of the raw placement features, so each
  // model's first conv is built without one and backward returns an
  // empty tensor. AllParametersReceiveGradient guards the parameters.
  Rng rng(4);
  RoutabilityModelPtr model = make_model(GetParam(), 6, rng);
  Tensor x = random_tensor(Shape::of(1, 6, 16, 16), rng);
  Tensor y = model->forward(x, true);
  Tensor dx = model->backward(Tensor::ones(y.shape()));
  EXPECT_TRUE(dx.empty()) << model->model_name();
}

TEST_P(AllModels, AllParametersReceiveGradient) {
  Rng rng(5);
  RoutabilityModelPtr model = make_model(GetParam(), 6, rng);
  model->zero_grad();
  Tensor x = random_tensor(Shape::of(2, 6, 16, 16), rng);
  Tensor y = model->forward(x, true);
  Tensor g = random_tensor(y.shape(), rng);
  model->backward(g);
  for (Parameter* p : model->parameters()) {
    EXPECT_GT(squared_norm(p->grad), 0.0)
        << model->model_name() << ": dead parameter " << p->name;
  }
}

TEST_P(AllModels, ParameterNamesAreUnique) {
  Rng rng(6);
  RoutabilityModelPtr model = make_model(GetParam(), 6, rng);
  std::set<std::string> names;
  for (Parameter* p : model->parameters()) {
    EXPECT_TRUE(names.insert(p->name).second)
        << "duplicate parameter name " << p->name;
  }
  for (NamedBuffer b : model->buffers()) {
    EXPECT_TRUE(names.insert(b.name).second)
        << "duplicate buffer name " << b.name;
  }
}

TEST_P(AllModels, HasOutputConvForLGSplit) {
  Rng rng(7);
  RoutabilityModelPtr model = make_model(GetParam(), 6, rng);
  int output_params = 0;
  for (Parameter* p : model->parameters()) {
    if (p->name.rfind("output_conv", 0) == 0) ++output_params;
  }
  EXPECT_EQ(output_params, 2) << model->model_name();
}

TEST_P(AllModels, TrainingStepReducesLossOnFixedBatch) {
  Rng rng(8);
  RoutabilityModelPtr model = make_model(GetParam(), 6, rng);
  Tensor x = random_tensor(Shape::of(2, 6, 16, 16), rng);
  // Smooth learnable target: mean of two input channels.
  Tensor y(Shape{2, 1, 16, 16});
  for (std::int64_t n = 0; n < 2; ++n) {
    for (std::int64_t i = 0; i < 256; ++i) {
      y[n * 256 + i] = 0.5f * (x[(n * 6) * 256 + i] + x[(n * 6 + 1) * 256 + i]);
    }
  }
  AdamOptions aopts;
  aopts.lr = 1e-3;
  aopts.weight_decay = 0.0;
  Adam adam(model->parameters(), aopts);
  float first = -1, last = -1;
  for (int step = 0; step < 60; ++step) {
    adam.zero_grad();
    Tensor pred = model->forward(x, true);
    LossResult loss = mse_loss(pred, y);
    if (step == 0) first = loss.value;
    last = loss.value;
    model->backward(loss.grad);
    adam.step();
  }
  EXPECT_LT(last, first) << model->model_name();
}

INSTANTIATE_TEST_SUITE_P(Kinds, AllModels,
                         ::testing::Values(ModelKind::kFLNet,
                                           ModelKind::kRouteNet,
                                           ModelKind::kPROS),
                         [](const auto& info) {
                           return to_string(info.param);
                         });

TEST(ModelComplexity, FLNetIsSmallestRouteNetBiggerProsHasBN) {
  Rng rng(9);
  RoutabilityModelPtr flnet = make_model(ModelKind::kFLNet, 6, rng);
  RoutabilityModelPtr routenet = make_model(ModelKind::kRouteNet, 6, rng);
  RoutabilityModelPtr pros = make_model(ModelKind::kPROS, 6, rng);

  // The paper's §4.2 premise: FLNet has much fewer parameters.
  EXPECT_LT(flnet->num_parameters(), routenet->num_parameters() / 5);
  EXPECT_LT(flnet->num_parameters(), pros->num_parameters());

  // PROS is the only model with BatchNorm state.
  EXPECT_TRUE(flnet->buffers().empty());
  EXPECT_TRUE(routenet->buffers().empty());
  EXPECT_FALSE(pros->buffers().empty());
}

TEST(RouteNetShortcut, GradientMatchesFiniteDifference) {
  // Spot finite-difference check through the shortcut junction: pick a
  // few weights of conv1 (feeding both branches) and compare.
  Rng rng(10);
  RouteNetOptions opts;
  opts.in_channels = 2;
  opts.base_filters = 4;
  RouteNet net(opts, rng);

  Tensor x = random_tensor(Shape::of(1, 2, 8, 8), rng);
  Tensor g = random_tensor(Shape::of(1, 1, 8, 8), rng);

  auto loss = [&]() {
    Tensor out = net.forward(x, true);
    return dot(out, g);
  };
  net.zero_grad();
  net.forward(x, true);
  net.backward(g);
  Parameter* conv1_w = net.parameters()[0];
  ASSERT_EQ(conv1_w->name, "conv1.weight");
  Tensor analytic = conv1_w->grad;

  const double eps = 1e-2;
  double max_err = 0.0, max_ref = 1e-6;
  for (std::int64_t i = 0; i < std::min<std::int64_t>(20, conv1_w->value.numel());
       ++i) {
    const float orig = conv1_w->value[i];
    conv1_w->value[i] = orig + static_cast<float>(eps);
    const double lp = loss();
    conv1_w->value[i] = orig - static_cast<float>(eps);
    const double lm = loss();
    conv1_w->value[i] = orig;
    const double numeric = (lp - lm) / (2 * eps);
    max_err = std::max(max_err, std::fabs(numeric - analytic[i]));
    max_ref = std::max(max_ref, std::fabs(numeric));
  }
  EXPECT_LT(max_err / max_ref, 5e-2);
}

TEST(PROSStructure, UsesDilatedConvsAndPixelShuffle) {
  Rng rng(11);
  PROSOptions opts;
  opts.in_channels = 6;
  PROS net(opts, rng);
  const std::string desc = net.describe();
  EXPECT_NE(desc.find("dilated"), std::string::npos);
  EXPECT_NE(desc.find("sub-pixel"), std::string::npos);
  // Input must be divisible by 4 (two stride-2 encoders); 16 works.
  Tensor out = net.forward(Tensor(Shape{1, 6, 16, 16}), true);
  EXPECT_EQ(out.shape(), (Shape{1, 1, 16, 16}));
}

TEST(Registry, ParseAndToStringRoundTrip) {
  for (ModelKind kind :
       {ModelKind::kFLNet, ModelKind::kRouteNet, ModelKind::kPROS}) {
    EXPECT_EQ(parse_model_kind(to_string(kind)), kind);
  }
  EXPECT_THROW(parse_model_kind("resnet"), std::invalid_argument);
}

TEST(Registry, FactoryProducesIndependentInstances) {
  Rng rng(12);
  ModelFactory factory = make_model_factory(ModelKind::kFLNet, 6);
  RoutabilityModelPtr a = factory(rng);
  RoutabilityModelPtr b = factory(rng);
  // Different random init (rng advanced between calls).
  EXPECT_GT(max_abs_diff(a->parameters()[0]->value,
                         b->parameters()[0]->value),
            0.0f);
  // Mutating one must not affect the other.
  a->parameters()[0]->value.fill(0.0f);
  EXPECT_GT(squared_norm(b->parameters()[0]->value), 0.0);
}

}  // namespace
}  // namespace fleda
