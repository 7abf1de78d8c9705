// Elementwise and reduction operations on Tensor. All functions are
// shape-checked and either return a new tensor or mutate an explicit
// output parameter (suffix _inplace / axpy-style names).
#pragma once

#include "tensor/tensor.hpp"

namespace fleda {

// ---- elementwise (shapes must match) ----
Tensor add(const Tensor& a, const Tensor& b);
Tensor sub(const Tensor& a, const Tensor& b);
Tensor mul(const Tensor& a, const Tensor& b);

void add_inplace(Tensor& a, const Tensor& b);        // a += b
void scale_inplace(Tensor& a, float s);              // a *= s
void axpy(Tensor& y, float alpha, const Tensor& x);  // y += alpha * x

Tensor scale(const Tensor& a, float s);

// ---- nonlinearities used outside nn layers (feature post-processing) ----
Tensor relu(const Tensor& a);
Tensor sigmoid(const Tensor& a);
Tensor clamp(const Tensor& a, float lo, float hi);
Tensor abs(const Tensor& a);

// ---- reductions ----
float sum(const Tensor& a);
float mean(const Tensor& a);
float min_value(const Tensor& a);
float max_value(const Tensor& a);
// Squared L2 norm of all elements.
double squared_norm(const Tensor& a);
// Dot product of equally-shaped tensors.
double dot(const Tensor& a, const Tensor& b);

// ---- comparisons ----
// max |a_i - b_i|; shapes must match.
float max_abs_diff(const Tensor& a, const Tensor& b);
// true iff all |a_i - b_i| <= atol + rtol * |b_i|.
bool allclose(const Tensor& a, const Tensor& b, float rtol = 1e-5f,
              float atol = 1e-7f);

// ---- normalization helpers for feature maps ----
// Linearly rescales to [0, 1]; constant tensors map to all-zeros.
Tensor normalize01(const Tensor& a);

}  // namespace fleda
