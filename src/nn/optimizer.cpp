#include "nn/optimizer.hpp"

#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "tensor/plan.hpp"

#if FLEDA_X86_KERNELS
#include <immintrin.h>
#endif

namespace fleda {
namespace {

struct AdamCoeffs {
  float lr, b1, b2, eps, wd, inv_bc1, inv_bc2;
};

// Adam's update of elements [begin, n), one IEEE float operation at a
// time in this order. std::sqrt keeps a call to sqrtf for errno (the
// default -fmath-errno), so the compiler leaves this loop scalar; the
// vector body below runs the same operations in the same order with
// the vector square root (correctly rounded, no errno) and returns how
// many leading elements it did.
void adam_scalar(const AdamCoeffs& k, float* w, const float* g, float* m,
                 float* v, std::int64_t begin, std::int64_t n) {
  for (std::int64_t j = begin; j < n; ++j) {
    const float grad = g[j] + k.wd * w[j];
    m[j] = k.b1 * m[j] + (1.0f - k.b1) * grad;
    v[j] = k.b2 * v[j] + (1.0f - k.b2) * grad * grad;
    const float mhat = m[j] * k.inv_bc1;
    const float vhat = v[j] * k.inv_bc2;
    w[j] -= k.lr * mhat / (std::sqrt(vhat) + k.eps);
  }
}

#if FLEDA_X86_KERNELS

// AVX-512 hosts run this body too: a 16-lane one timed the same
// (paired runs of Adam::step over ~230k parameters, AVX-512 Xeon), the
// loop being bound by its seven streams of memory.
FLEDA_TARGET_AVX2 std::int64_t adam_avx2(const AdamCoeffs& k, float* w,
                                         const float* g, float* m, float* v,
                                         std::int64_t n) {
  const __m256 lr = _mm256_set1_ps(k.lr);
  const __m256 b1 = _mm256_set1_ps(k.b1);
  const __m256 b2 = _mm256_set1_ps(k.b2);
  const __m256 c1 = _mm256_set1_ps(1.0f - k.b1);
  const __m256 c2 = _mm256_set1_ps(1.0f - k.b2);
  const __m256 eps = _mm256_set1_ps(k.eps);
  const __m256 wd = _mm256_set1_ps(k.wd);
  const __m256 inv_bc1 = _mm256_set1_ps(k.inv_bc1);
  const __m256 inv_bc2 = _mm256_set1_ps(k.inv_bc2);
  std::int64_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m256 wj = _mm256_loadu_ps(w + j);
    const __m256 grad =
        _mm256_add_ps(_mm256_loadu_ps(g + j), _mm256_mul_ps(wd, wj));
    const __m256 mj = _mm256_add_ps(_mm256_mul_ps(b1, _mm256_loadu_ps(m + j)),
                                    _mm256_mul_ps(c1, grad));
    const __m256 vj = _mm256_add_ps(
        _mm256_mul_ps(b2, _mm256_loadu_ps(v + j)),
        _mm256_mul_ps(_mm256_mul_ps(c2, grad), grad));
    _mm256_storeu_ps(m + j, mj);
    _mm256_storeu_ps(v + j, vj);
    const __m256 mhat = _mm256_mul_ps(mj, inv_bc1);
    const __m256 vhat = _mm256_mul_ps(vj, inv_bc2);
    const __m256 step = _mm256_div_ps(
        _mm256_mul_ps(lr, mhat), _mm256_add_ps(_mm256_sqrt_ps(vhat), eps));
    _mm256_storeu_ps(w + j, _mm256_sub_ps(wj, step));
  }
  return j;
}

#endif  // FLEDA_X86_KERNELS

}  // namespace

SGD::SGD(std::vector<Parameter*> params, const SGDOptions& opts)
    : Optimizer(std::move(params)), opts_(opts) {
  if (opts_.momentum != 0.0) {
    velocity_.reserve(params_.size());
    for (Parameter* p : params_) velocity_.emplace_back(p->value.shape());
  }
}

void SGD::step() {
  for (std::size_t i = 0; i < params_.size(); ++i) {
    Parameter* p = params_[i];
    float* w = p->value.data();
    const float* g = p->grad.data();
    const std::int64_t n = p->value.numel();
    const float lr = static_cast<float>(opts_.lr);
    const float wd = static_cast<float>(opts_.weight_decay);
    if (opts_.momentum == 0.0) {
      for (std::int64_t j = 0; j < n; ++j) {
        w[j] -= lr * (g[j] + wd * w[j]);
      }
    } else {
      const float mom = static_cast<float>(opts_.momentum);
      float* v = velocity_[i].data();
      for (std::int64_t j = 0; j < n; ++j) {
        v[j] = mom * v[j] + g[j] + wd * w[j];
        w[j] -= lr * v[j];
      }
    }
  }
}

Adam::Adam(std::vector<Parameter*> params, const AdamOptions& opts)
    : Optimizer(std::move(params)), opts_(opts) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (Parameter* p : params_) {
    m_.emplace_back(p->value.shape());
    v_.emplace_back(p->value.shape());
  }
}

void Adam::reset_state() {
  for (auto& t : m_) t.fill(0.0f);
  for (auto& t : v_) t.fill(0.0f);
  t_ = 0;
}

AdamMoments Adam::export_moments() const {
  AdamMoments moments;
  moments.m = m_;
  moments.v = v_;
  moments.t = t_;
  return moments;
}

void Adam::import_moments(const AdamMoments& moments) {
  if (moments.m.size() != m_.size() || moments.v.size() != v_.size()) {
    throw std::invalid_argument("Adam::import_moments: parameter count "
                                "mismatch");
  }
  for (std::size_t i = 0; i < m_.size(); ++i) {
    if (moments.m[i].shape() != m_[i].shape() ||
        moments.v[i].shape() != v_[i].shape()) {
      throw std::invalid_argument("Adam::import_moments: shape mismatch at "
                                  "parameter " + std::to_string(i));
    }
  }
  m_ = moments.m;
  v_ = moments.v;
  t_ = moments.t;
}

void Adam::step() {
  ++t_;
  const double bc1 = 1.0 - std::pow(opts_.beta1, static_cast<double>(t_));
  const double bc2 = 1.0 - std::pow(opts_.beta2, static_cast<double>(t_));
  AdamCoeffs k;
  k.lr = static_cast<float>(opts_.lr);
  k.b1 = static_cast<float>(opts_.beta1);
  k.b2 = static_cast<float>(opts_.beta2);
  k.eps = static_cast<float>(opts_.eps);
  k.wd = static_cast<float>(opts_.weight_decay);
  k.inv_bc1 = static_cast<float>(1.0 / bc1);
  k.inv_bc2 = static_cast<float>(1.0 / bc2);
  const KernelIsa isa = kernel_isa();

  for (std::size_t i = 0; i < params_.size(); ++i) {
    Parameter* p = params_[i];
    float* w = p->value.data();
    const float* g = p->grad.data();
    float* m = m_[i].data();
    float* v = v_[i].data();
    const std::int64_t n = p->value.numel();
    std::int64_t done = 0;
#if FLEDA_X86_KERNELS
    if (isa != KernelIsa::kPortable) done = adam_avx2(k, w, g, m, v, n);
#else
    (void)isa;
#endif
    adam_scalar(k, w, g, m, v, done, n);
  }
}

}  // namespace fleda
