// Tests for the FL extensions: the differential-privacy Gaussian
// mechanism (clip norm semantics, noise calibration, end-to-end
// compatibility with apply_to).
#include <gtest/gtest.h>

#include <cmath>

#include "fl/privacy.hpp"
#include "models/registry.hpp"
#include "tensor/ops.hpp"

namespace fleda {
namespace {

ModelParameters snapshot(ModelKind kind, std::uint64_t seed) {
  Rng rng(seed);
  RoutabilityModelPtr m = make_model(kind, 4, rng);
  return ModelParameters::from_model(*m);
}

TEST(Privacy, UpdateNormMatchesSquaredDistance) {
  ModelParameters ref = snapshot(ModelKind::kFLNet, 5);
  ModelParameters update = ref;
  update.scale(1.5);  // delta = 0.5 * ref
  const double expected = std::sqrt(ref.squared_distance(update));
  EXPECT_NEAR(update_norm(update, ref), expected, 1e-9);
}

TEST(Privacy, ClipLeavesSmallUpdatesAlone) {
  ModelParameters ref = snapshot(ModelKind::kFLNet, 6);
  ModelParameters update = ref;
  ModelParameters before = update;
  const double norm = clip_update(update, ref, /*clip_norm=*/10.0);
  EXPECT_DOUBLE_EQ(norm, 0.0);  // update == ref
  EXPECT_NEAR(update.squared_distance(before), 0.0, 1e-12);
}

TEST(Privacy, ClipScalesLargeUpdatesToClipNorm) {
  ModelParameters ref = snapshot(ModelKind::kFLNet, 7);
  ModelParameters update = ref;
  update.scale(3.0);  // large delta
  const double pre_norm = update_norm(update, ref);
  ASSERT_GT(pre_norm, 0.5);
  const double reported = clip_update(update, ref, 0.5);
  EXPECT_NEAR(reported, pre_norm, 1e-6 * pre_norm);
  EXPECT_NEAR(update_norm(update, ref), 0.5, 1e-3);
  EXPECT_THROW(clip_update(update, ref, 0.0), std::invalid_argument);
}

TEST(Privacy, ClipPreservesDeltaDirection) {
  ModelParameters ref = snapshot(ModelKind::kFLNet, 8);
  ModelParameters update = ref;
  update.scale(2.0);  // delta = ref, direction known
  clip_update(update, ref, 0.1);
  // update = ref + 0.1 * ref/||ref||: entrywise proportional to ref.
  const Tensor& r0 = ref.entries()[0].value;
  const Tensor& u0 = update.entries()[0].value;
  // u0 - r0 should be a positive multiple of r0.
  const double k0 = (u0[0] - r0[0]) / r0[0];
  for (std::int64_t i = 1; i < std::min<std::int64_t>(r0.numel(), 64); ++i) {
    if (std::fabs(r0[i]) < 1e-4f) continue;
    EXPECT_NEAR((u0[i] - r0[i]) / r0[i], k0, 1e-3);
  }
}

TEST(Privacy, GaussianNoiseHasCalibratedMagnitude) {
  ModelParameters params = snapshot(ModelKind::kFLNet, 9);
  ModelParameters before = params;
  Rng rng(10);
  const double sigma = 0.05;
  add_gaussian_noise(params, sigma, rng);
  // Mean squared perturbation over ~36k parameters ~ sigma^2.
  const double msd =
      params.squared_distance(before) / static_cast<double>(params.numel());
  EXPECT_NEAR(std::sqrt(msd), sigma, 0.2 * sigma);
  EXPECT_THROW(add_gaussian_noise(params, -1.0, rng), std::invalid_argument);
}

TEST(Privacy, ZeroNoiseIsIdentity) {
  ModelParameters params = snapshot(ModelKind::kFLNet, 11);
  ModelParameters before = params;
  Rng rng(12);
  add_gaussian_noise(params, 0.0, rng);
  EXPECT_NEAR(params.squared_distance(before), 0.0, 1e-12);
}

TEST(Privacy, PrivatizeUpdateBoundsDeltaNorm) {
  ModelParameters ref = snapshot(ModelKind::kFLNet, 13);
  ModelParameters update = ref;
  update.scale(4.0);
  DpOptions opts;
  opts.clip_norm = 1.0;
  opts.noise_multiplier = 0.01;
  Rng rng(14);
  privatize_update(update, ref, opts, rng);
  // Post-mechanism norm ~ clip + small noise contribution.
  const double n = update_norm(update, ref);
  EXPECT_LT(n, 1.0 + 0.01 * std::sqrt(static_cast<double>(ref.numel())) * 3);
  EXPECT_GT(n, 0.5);
}

TEST(Privacy, NoisedUpdateStillAppliesToModel) {
  ModelParameters update = snapshot(ModelKind::kPROS, 15);
  ModelParameters ref = update;
  DpOptions opts;
  opts.clip_norm = 0.5;
  opts.noise_multiplier = 0.1;
  Rng rng(16);
  privatize_update(update, ref, opts, rng);
  Rng model_rng(17);
  RoutabilityModelPtr model = make_model(ModelKind::kPROS, 4, model_rng);
  EXPECT_NO_THROW(update.apply_to(*model));
}

}  // namespace
}  // namespace fleda
