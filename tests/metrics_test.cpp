// Tests for metrics: exact ROC AUC values on hand-computed cases,
// property tests (monotone-transform invariance, complement symmetry,
// tie handling), and summary statistics.
#include <gtest/gtest.h>

#include <cmath>

#include "metrics/roc_auc.hpp"
#include "metrics/stats.hpp"
#include "util/rng.hpp"

namespace fleda {
namespace {

TEST(RocAuc, PerfectSeparation) {
  EXPECT_DOUBLE_EQ(roc_auc({0.1f, 0.2f, 0.8f, 0.9f}, {0, 0, 1, 1}), 1.0);
}

TEST(RocAuc, PerfectlyWrong) {
  EXPECT_DOUBLE_EQ(roc_auc({0.9f, 0.8f, 0.2f, 0.1f}, {0, 0, 1, 1}), 0.0);
}

TEST(RocAuc, HandComputedMixedCase) {
  // scores: pos {0.8, 0.3}, neg {0.5, 0.1}
  // pairs: (0.8>0.5)=1, (0.8>0.1)=1, (0.3<0.5)=0, (0.3>0.1)=1 -> 3/4.
  EXPECT_DOUBLE_EQ(roc_auc({0.8f, 0.3f, 0.5f, 0.1f}, {1, 1, 0, 0}), 0.75);
}

TEST(RocAuc, TiesCountHalf) {
  // One positive and one negative with identical scores -> 0.5.
  EXPECT_DOUBLE_EQ(roc_auc({0.5f, 0.5f}, {1, 0}), 0.5);
  // pos {0.7, 0.5}, neg {0.5, 0.2}: pairs 1, 1, 0.5, 1 -> 3.5/4.
  EXPECT_DOUBLE_EQ(roc_auc({0.7f, 0.5f, 0.5f, 0.2f}, {1, 1, 0, 0}), 0.875);
}

TEST(RocAuc, DegenerateClassesReturnHalf) {
  EXPECT_DOUBLE_EQ(roc_auc({0.1f, 0.9f}, {1, 1}), 0.5);
  EXPECT_DOUBLE_EQ(roc_auc({0.1f, 0.9f}, {0, 0}), 0.5);
  EXPECT_DOUBLE_EQ(roc_auc({}, {}), 0.5);
}

TEST(RocAuc, SizeMismatchThrows) {
  EXPECT_THROW(roc_auc({0.1f}, {0, 1}), std::invalid_argument);
}

TEST(RocAucProperty, InvariantUnderMonotoneTransform) {
  Rng rng(5);
  std::vector<float> scores, labels;
  for (int i = 0; i < 500; ++i) {
    scores.push_back(static_cast<float>(rng.uniform(-3.0, 3.0)));
    labels.push_back(rng.bernoulli(0.3) ? 1.0f : 0.0f);
  }
  const double base = roc_auc(scores, labels);
  std::vector<float> transformed;
  for (float s : scores) {
    transformed.push_back(std::tanh(0.5f * s) * 10.0f + 2.0f);
  }
  EXPECT_NEAR(roc_auc(transformed, labels), base, 1e-12);
}

TEST(RocAucProperty, ComplementSymmetry) {
  // AUC(-scores, labels) == 1 - AUC(scores, labels) without ties.
  Rng rng(7);
  std::vector<float> scores, labels, negated;
  for (int i = 0; i < 300; ++i) {
    scores.push_back(static_cast<float>(rng.uniform(0.0, 1.0)));
    negated.push_back(-scores.back());
    labels.push_back(rng.bernoulli(0.4) ? 1.0f : 0.0f);
  }
  EXPECT_NEAR(roc_auc(negated, labels), 1.0 - roc_auc(scores, labels), 1e-9);
}

TEST(RocAucProperty, RandomScoresNearHalf) {
  Rng rng(9);
  std::vector<float> scores, labels;
  for (int i = 0; i < 20000; ++i) {
    scores.push_back(static_cast<float>(rng.uniform()));
    labels.push_back(rng.bernoulli(0.2) ? 1.0f : 0.0f);
  }
  EXPECT_NEAR(roc_auc(scores, labels), 0.5, 0.02);
}

TEST(RocAucProperty, MatchesBruteForcePairCount) {
  Rng rng(11);
  std::vector<float> scores, labels;
  for (int i = 0; i < 120; ++i) {
    // Quantized scores force plenty of ties.
    scores.push_back(static_cast<float>(rng.uniform_int(8)) / 8.0f);
    labels.push_back(rng.bernoulli(0.5) ? 1.0f : 0.0f);
  }
  double wins = 0.0;
  std::int64_t pairs = 0;
  for (std::size_t i = 0; i < scores.size(); ++i) {
    if (labels[i] < 0.5f) continue;
    for (std::size_t j = 0; j < scores.size(); ++j) {
      if (labels[j] > 0.5f) continue;
      ++pairs;
      if (scores[i] > scores[j]) {
        wins += 1.0;
      } else if (scores[i] == scores[j]) {
        wins += 0.5;
      }
    }
  }
  ASSERT_GT(pairs, 0);
  EXPECT_NEAR(roc_auc(scores, labels), wins / static_cast<double>(pairs),
              1e-9);
}

TEST(AucAccumulator, MatchesDirectComputation) {
  AucAccumulator acc;
  Tensor s1(Shape{4}, {0.9f, 0.1f, 0.6f, 0.4f});
  Tensor l1(Shape{4}, {1.0f, 0.0f, 1.0f, 0.0f});
  acc.add(s1, l1);
  acc.add(0.2f, 1.0f);
  EXPECT_EQ(acc.count(), 5u);
  EXPECT_DOUBLE_EQ(acc.auc(),
                   roc_auc({0.9f, 0.1f, 0.6f, 0.4f, 0.2f},
                           {1, 0, 1, 0, 1}));
  acc.reset();
  EXPECT_EQ(acc.count(), 0u);
  EXPECT_DOUBLE_EQ(acc.auc(), 0.5);
}

TEST(Stats, SummaryOnKnownValues) {
  SummaryStats s = summarize({1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
  EXPECT_NEAR(s.stddev, std::sqrt(5.0 / 3.0), 1e-12);
  EXPECT_EQ(s.count, 4u);
  EXPECT_EQ(summarize({}).count, 0u);
}

TEST(Stats, PearsonKnownCases) {
  EXPECT_NEAR(pearson({1, 2, 3}, {2, 4, 6}), 1.0, 1e-12);
  EXPECT_NEAR(pearson({1, 2, 3}, {6, 4, 2}), -1.0, 1e-12);
  EXPECT_DOUBLE_EQ(pearson({1, 1, 1}, {2, 4, 6}), 0.0);  // degenerate
  EXPECT_THROW(pearson({1.0}, {1.0, 2.0}), std::invalid_argument);
}

}  // namespace
}  // namespace fleda
