#include "tensor/ops.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace fleda {
namespace {

void check_same_shape(const Tensor& a, const Tensor& b, const char* op) {
  if (a.shape() != b.shape()) {
    throw std::invalid_argument(std::string(op) + ": shape mismatch " +
                                a.shape().to_string() + " vs " +
                                b.shape().to_string());
  }
}

template <typename F>
Tensor map_unary(const Tensor& a, F f) {
  Tensor out(a.shape());
  const float* pa = a.data();
  float* po = out.data();
  const std::int64_t n = a.numel();
  for (std::int64_t i = 0; i < n; ++i) po[i] = f(pa[i]);
  return out;
}

template <typename F>
Tensor map_binary(const Tensor& a, const Tensor& b, F f, const char* op) {
  check_same_shape(a, b, op);
  Tensor out(a.shape());
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  const std::int64_t n = a.numel();
  for (std::int64_t i = 0; i < n; ++i) po[i] = f(pa[i], pb[i]);
  return out;
}

}  // namespace

Tensor add(const Tensor& a, const Tensor& b) {
  return map_binary(a, b, [](float x, float y) { return x + y; }, "add");
}
Tensor sub(const Tensor& a, const Tensor& b) {
  return map_binary(a, b, [](float x, float y) { return x - y; }, "sub");
}
Tensor mul(const Tensor& a, const Tensor& b) {
  return map_binary(a, b, [](float x, float y) { return x * y; }, "mul");
}

void add_inplace(Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "add_inplace");
  float* pa = a.data();
  const float* pb = b.data();
  const std::int64_t n = a.numel();
  for (std::int64_t i = 0; i < n; ++i) pa[i] += pb[i];
}

void scale_inplace(Tensor& a, float s) {
  float* pa = a.data();
  const std::int64_t n = a.numel();
  for (std::int64_t i = 0; i < n; ++i) pa[i] *= s;
}

void axpy(Tensor& y, float alpha, const Tensor& x) {
  check_same_shape(y, x, "axpy");
  float* py = y.data();
  const float* px = x.data();
  const std::int64_t n = y.numel();
  for (std::int64_t i = 0; i < n; ++i) py[i] += alpha * px[i];
}

Tensor scale(const Tensor& a, float s) {
  return map_unary(a, [s](float x) { return x * s; });
}

Tensor relu(const Tensor& a) {
  return map_unary(a, [](float x) { return x > 0.0f ? x : 0.0f; });
}

Tensor sigmoid(const Tensor& a) {
  return map_unary(a, [](float x) { return 1.0f / (1.0f + std::exp(-x)); });
}

Tensor clamp(const Tensor& a, float lo, float hi) {
  return map_unary(a, [lo, hi](float x) { return std::clamp(x, lo, hi); });
}

Tensor abs(const Tensor& a) {
  return map_unary(a, [](float x) { return std::fabs(x); });
}

float sum(const Tensor& a) {
  double acc = 0.0;
  const float* p = a.data();
  const std::int64_t n = a.numel();
  for (std::int64_t i = 0; i < n; ++i) acc += p[i];
  return static_cast<float>(acc);
}

float mean(const Tensor& a) {
  if (a.numel() == 0) return 0.0f;
  return sum(a) / static_cast<float>(a.numel());
}

float min_value(const Tensor& a) {
  if (a.numel() == 0) throw std::invalid_argument("min_value: empty tensor");
  return *std::min_element(a.data(), a.data() + a.numel());
}

float max_value(const Tensor& a) {
  if (a.numel() == 0) throw std::invalid_argument("max_value: empty tensor");
  return *std::max_element(a.data(), a.data() + a.numel());
}

double squared_norm(const Tensor& a) {
  double acc = 0.0;
  const float* p = a.data();
  const std::int64_t n = a.numel();
  for (std::int64_t i = 0; i < n; ++i) acc += static_cast<double>(p[i]) * p[i];
  return acc;
}

double dot(const Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "dot");
  double acc = 0.0;
  const float* pa = a.data();
  const float* pb = b.data();
  const std::int64_t n = a.numel();
  for (std::int64_t i = 0; i < n; ++i) {
    acc += static_cast<double>(pa[i]) * pb[i];
  }
  return acc;
}

float max_abs_diff(const Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "max_abs_diff");
  float m = 0.0f;
  const float* pa = a.data();
  const float* pb = b.data();
  const std::int64_t n = a.numel();
  for (std::int64_t i = 0; i < n; ++i) {
    m = std::max(m, std::fabs(pa[i] - pb[i]));
  }
  return m;
}

bool allclose(const Tensor& a, const Tensor& b, float rtol, float atol) {
  if (a.shape() != b.shape()) return false;
  const float* pa = a.data();
  const float* pb = b.data();
  const std::int64_t n = a.numel();
  for (std::int64_t i = 0; i < n; ++i) {
    if (std::fabs(pa[i] - pb[i]) > atol + rtol * std::fabs(pb[i])) {
      return false;
    }
  }
  return true;
}

Tensor normalize01(const Tensor& a) {
  if (a.numel() == 0) return a;
  float lo = min_value(a);
  float hi = max_value(a);
  if (hi - lo < 1e-12f) return Tensor::zeros(a.shape());
  float inv = 1.0f / (hi - lo);
  return map_unary(a, [lo, inv](float x) { return (x - lo) * inv; });
}

}  // namespace fleda
