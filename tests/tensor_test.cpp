// Unit tests for the tensor substrate: Shape, Tensor storage, element
// ops, matmul kernels (vs naive reference), im2col against a direct
// gather,
// and binary serialization round-trips.
#include <gtest/gtest.h>

#include <cmath>
#include <streambuf>
#include <string>
#include <vector>
#include <sstream>

#include "tensor/im2col.hpp"
#include "tensor/matmul.hpp"
#include "tensor/ops.hpp"
#include "tensor/serialize.hpp"
#include "tensor/tensor.hpp"
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

TEST(Shape, BasicProperties) {
  Shape s{2, 3, 4};
  EXPECT_EQ(s.rank(), 3);
  EXPECT_EQ(s.dim(0), 2);
  EXPECT_EQ(s.dim(1), 3);
  EXPECT_EQ(s.dim(2), 4);
  EXPECT_EQ(s.numel(), 24);
  EXPECT_EQ(s.to_string(), "[2, 3, 4]");
}

TEST(Shape, EqualityAndRank0) {
  EXPECT_EQ(Shape{}.numel(), 1);
  EXPECT_EQ((Shape{2, 3}), (Shape{2, 3}));
  EXPECT_NE((Shape{2, 3}), (Shape{3, 2}));
  EXPECT_NE((Shape{2}), (Shape{2, 1}));
}

TEST(Shape, RejectsNegativeAndOverRank) {
  EXPECT_THROW((Shape{-1}), std::invalid_argument);
  EXPECT_THROW(Shape({1, 1, 1, 1, 1}), std::invalid_argument);
  EXPECT_THROW(Shape{2}.dim(1), std::out_of_range);
}

TEST(Tensor, ZeroInitialized) {
  Tensor t(Shape{3, 3});
  for (std::int64_t i = 0; i < t.numel(); ++i) EXPECT_EQ(t[i], 0.0f);
}

TEST(Tensor, FillAndFull) {
  Tensor t = Tensor::full(Shape{4}, 2.5f);
  for (std::int64_t i = 0; i < 4; ++i) EXPECT_EQ(t[i], 2.5f);
  t.fill(-1.0f);
  for (std::int64_t i = 0; i < 4; ++i) EXPECT_EQ(t[i], -1.0f);
}

TEST(Tensor, NchwAccessorMatchesFlatIndex) {
  Tensor t(Shape{2, 3, 4, 5});
  t.at(1, 2, 3, 4) = 7.0f;
  EXPECT_EQ(t[((1 * 3 + 2) * 4 + 3) * 5 + 4], 7.0f);
}

TEST(Tensor, ReshapedPreservesData) {
  Tensor t(Shape{2, 6});
  for (std::int64_t i = 0; i < 12; ++i) t[i] = static_cast<float>(i);
  Tensor r = t.reshaped(Shape{3, 4});
  EXPECT_EQ(r.shape(), (Shape{3, 4}));
  for (std::int64_t i = 0; i < 12; ++i) EXPECT_EQ(r[i], static_cast<float>(i));
  EXPECT_THROW(t.reshaped(Shape{5, 5}), std::invalid_argument);
}

TEST(Tensor, DataSizeMismatchThrows) {
  EXPECT_THROW(Tensor(Shape{3}, std::vector<float>{1.0f}),
               std::invalid_argument);
}

TEST(Ops, AddSubMul) {
  Tensor a(Shape{3}, {1, 2, 3});
  Tensor b(Shape{3}, {4, 5, 6});
  Tensor s = add(a, b);
  Tensor d = sub(b, a);
  Tensor m = mul(a, b);
  EXPECT_EQ(s[0], 5.0f);
  EXPECT_EQ(d[2], 3.0f);
  EXPECT_EQ(m[1], 10.0f);
}

TEST(Ops, ShapeMismatchThrows) {
  Tensor a(Shape{3});
  Tensor b(Shape{4});
  EXPECT_THROW(add(a, b), std::invalid_argument);
  EXPECT_THROW(dot(a, b), std::invalid_argument);
}

TEST(Ops, AxpyAndScale) {
  Tensor y(Shape{3}, {1, 1, 1});
  Tensor x(Shape{3}, {1, 2, 3});
  axpy(y, 2.0f, x);
  EXPECT_EQ(y[2], 7.0f);
  scale_inplace(y, 0.5f);
  EXPECT_EQ(y[0], 1.5f);
}

TEST(Ops, Reductions) {
  Tensor a(Shape{4}, {1, -2, 3, -4});
  EXPECT_FLOAT_EQ(sum(a), -2.0f);
  EXPECT_FLOAT_EQ(mean(a), -0.5f);
  EXPECT_FLOAT_EQ(min_value(a), -4.0f);
  EXPECT_FLOAT_EQ(max_value(a), 3.0f);
  EXPECT_DOUBLE_EQ(squared_norm(a), 30.0);
}

TEST(Ops, DotProduct) {
  Tensor a(Shape{3}, {1, 2, 3});
  Tensor b(Shape{3}, {4, 5, 6});
  EXPECT_DOUBLE_EQ(dot(a, b), 32.0);
}

TEST(Ops, ReluSigmoidClamp) {
  Tensor a(Shape{3}, {-1.0f, 0.0f, 2.0f});
  Tensor r = relu(a);
  EXPECT_EQ(r[0], 0.0f);
  EXPECT_EQ(r[2], 2.0f);
  Tensor s = sigmoid(a);
  EXPECT_NEAR(s[1], 0.5f, 1e-6f);
  Tensor c = clamp(a, -0.5f, 1.0f);
  EXPECT_EQ(c[0], -0.5f);
  EXPECT_EQ(c[2], 1.0f);
}

TEST(Ops, Normalize01) {
  Tensor a(Shape{3}, {2.0f, 4.0f, 6.0f});
  Tensor n = normalize01(a);
  EXPECT_FLOAT_EQ(n[0], 0.0f);
  EXPECT_FLOAT_EQ(n[1], 0.5f);
  EXPECT_FLOAT_EQ(n[2], 1.0f);
  Tensor constant = Tensor::full(Shape{3}, 5.0f);
  Tensor z = normalize01(constant);
  EXPECT_FLOAT_EQ(max_value(z), 0.0f);
}

TEST(Ops, AllcloseAndMaxAbsDiff) {
  Tensor a(Shape{2}, {1.0f, 2.0f});
  Tensor b(Shape{2}, {1.0f, 2.0f + 1e-6f});
  EXPECT_TRUE(allclose(a, b, 1e-4f, 1e-5f));
  // 2.0f + 1e-6f rounds to the nearest representable float.
  EXPECT_NEAR(max_abs_diff(a, b), 1e-6f, 1e-7f);
  Tensor c(Shape{2}, {1.0f, 3.0f});
  EXPECT_FALSE(allclose(a, c));
}

// ---- matmul kernels vs naive reference ----

void naive_matmul(const Tensor& a, const Tensor& b, Tensor& c) {
  const std::int64_t m = a.shape().dim(0);
  const std::int64_t k = a.shape().dim(1);
  const std::int64_t n = b.shape().dim(1);
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::int64_t p = 0; p < k; ++p) {
        acc += static_cast<double>(a[i * k + p]) * b[p * n + j];
      }
      c[i * n + j] = static_cast<float>(acc);
    }
  }
}

class MatmulSizes
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(MatmulSizes, MatchesNaive) {
  auto [m, k, n] = GetParam();
  Rng rng(1234);
  Tensor a = random_tensor(Shape::of(m, k), rng);
  Tensor b = random_tensor(Shape::of(k, n), rng);
  Tensor expected(Shape::of(m, n));
  naive_matmul(a, b, expected);
  Tensor c(Shape::of(m, n));
  matmul(a.data(), b.data(), c.data(), m, k, n);
  EXPECT_TRUE(allclose(c, expected, 1e-4f, 1e-5f))
      << "m=" << m << " k=" << k << " n=" << n;
}

TEST_P(MatmulSizes, TransposedVariantsMatchNaive) {
  auto [m, k, n] = GetParam();
  Rng rng(99);
  Tensor a = random_tensor(Shape::of(m, k), rng);
  Tensor b = random_tensor(Shape::of(k, n), rng);
  Tensor expected(Shape::of(m, n));
  naive_matmul(a, b, expected);

  // matmul_at: A stored transposed [k, m].
  Tensor at(Shape::of(k, m));
  for (int i = 0; i < m; ++i) {
    for (int p = 0; p < k; ++p) at[p * m + i] = a[i * k + p];
  }
  Tensor c1(Shape::of(m, n));
  matmul_at(at.data(), b.data(), c1.data(), m, k, n);
  EXPECT_TRUE(allclose(c1, expected, 1e-4f, 1e-5f));

  // matmul_bt: B stored transposed [n, k].
  Tensor bt(Shape::of(n, k));
  for (int p = 0; p < k; ++p) {
    for (int j = 0; j < n; ++j) bt[j * k + p] = b[p * n + j];
  }
  Tensor c2(Shape::of(m, n));
  matmul_bt(a.data(), bt.data(), c2.data(), m, k, n);
  EXPECT_TRUE(allclose(c2, expected, 1e-4f, 1e-5f));
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, MatmulSizes,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(2, 3, 4),
                      std::make_tuple(7, 5, 3), std::make_tuple(16, 16, 16),
                      std::make_tuple(33, 17, 29),
                      std::make_tuple(64, 81, 100),
                      std::make_tuple(3, 0, 5)));

TEST(Matmul, EmptyInnerDimGivesPositiveZeros) {
  // A [3, 0] x [0, 5] product sums nothing: every entry is +0, and
  // accumulating leaves C as it was.
  Tensor c(Shape::of(3, 5));
  c.fill(-1.0f);
  matmul(nullptr, nullptr, c.data(), 3, 0, 5);
  for (std::int64_t i = 0; i < c.numel(); ++i) {
    EXPECT_TRUE(c[i] == 0.0f && !std::signbit(c[i])) << i;
  }
  Tensor acc(Shape::of(3, 5));
  acc.fill(-2.0f);
  matmul(nullptr, nullptr, acc.data(), 3, 0, 5, /*accumulate=*/true);
  for (std::int64_t i = 0; i < acc.numel(); ++i) EXPECT_EQ(acc[i], -2.0f) << i;
}

TEST(Matmul, AccumulateAddsIntoOutput) {
  Rng rng(5);
  Tensor a = random_tensor(Shape::of(3, 4), rng);
  Tensor b = random_tensor(Shape::of(4, 5), rng);
  Tensor c0(Shape::of(3, 5));
  matmul(a.data(), b.data(), c0.data(), 3, 4, 5);
  Tensor c = c0;
  matmul(a.data(), b.data(), c.data(), 3, 4, 5, /*accumulate=*/true);
  Tensor twice = scale(c0, 2.0f);
  EXPECT_TRUE(allclose(c, twice, 1e-4f, 1e-5f));
}

TEST(Matmul, ZeroTimesNaNPropagates) {
  // IEEE: 0 * NaN = NaN. The kernels must not shortcut zero rows of A
  // — a poisoned B has to poison C, or a NaN client update could slip
  // through a zero-weighted mix unnoticed.
  const std::int64_t m = 3, k = 5, n = 4;  // k=5: axpy4 body + axpy1 tail
  Tensor a(Shape::of(m, k));               // all zeros
  Tensor b(Shape::of(k, n));
  b.fill(1.0f);
  b[4 * n + 2] = std::nanf("");  // in the k tail, column 2
  Tensor c(Shape::of(m, n));
  matmul(a.data(), b.data(), c.data(), m, k, n);
  for (std::int64_t i = 0; i < m; ++i) {
    EXPECT_TRUE(std::isnan(c[i * n + 2])) << "row " << i;
    EXPECT_FLOAT_EQ(c[i * n + 0], 0.0f) << "row " << i;
  }
  // Same contract through the transposed-A variant (A stored [k, m]).
  Tensor at(Shape::of(k, m));  // all zeros
  Tensor c_at(Shape::of(m, n));
  matmul_at(at.data(), b.data(), c_at.data(), m, k, n);
  for (std::int64_t i = 0; i < m; ++i) {
    EXPECT_TRUE(std::isnan(c_at[i * n + 2])) << "row " << i;
  }
}

// ---- im2col ----

struct ConvGeomParam {
  int c, h, w, k, pad, stride, dilation;
};

class Im2colGeometry : public ::testing::TestWithParam<ConvGeomParam> {};

ConvGeometry make_geom(const ConvGeomParam& p) {
  ConvGeometry g;
  g.channels = p.c;
  g.height = p.h;
  g.width = p.w;
  g.kernel_h = g.kernel_w = p.k;
  g.pad_h = g.pad_w = p.pad;
  g.stride_h = g.stride_w = p.stride;
  g.dilation_h = g.dilation_w = p.dilation;
  return g;
}

TEST_P(Im2colGeometry, MatchesDirectGather) {
  ConvGeometry g = make_geom(GetParam());
  Rng rng(3);
  Tensor img = random_tensor(Shape::of(g.channels, g.height, g.width), rng);
  Tensor cols(Shape::of(g.col_rows(), g.col_cols()));
  im2col(img.data(), g, cols.data());

  const std::int64_t OH = g.out_height();
  const std::int64_t OW = g.out_width();
  for (std::int64_t c = 0; c < g.channels; ++c) {
    for (std::int64_t kh = 0; kh < g.kernel_h; ++kh) {
      for (std::int64_t kw = 0; kw < g.kernel_w; ++kw) {
        const std::int64_t row = (c * g.kernel_h + kh) * g.kernel_w + kw;
        for (std::int64_t oh = 0; oh < OH; ++oh) {
          for (std::int64_t ow = 0; ow < OW; ++ow) {
            const std::int64_t ih = oh * g.stride_h + kh * g.dilation_h - g.pad_h;
            const std::int64_t iw = ow * g.stride_w + kw * g.dilation_w - g.pad_w;
            float expected = 0.0f;
            if (ih >= 0 && ih < g.height && iw >= 0 && iw < g.width) {
              expected = img[(c * g.height + ih) * g.width + iw];
            }
            EXPECT_EQ(cols[row * OH * OW + oh * OW + ow], expected);
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, Im2colGeometry,
    ::testing::Values(ConvGeomParam{1, 5, 5, 3, 1, 1, 1},
                      ConvGeomParam{3, 8, 8, 3, 1, 1, 1},
                      ConvGeomParam{2, 9, 7, 5, 2, 1, 1},
                      ConvGeomParam{2, 8, 8, 3, 1, 2, 1},
                      ConvGeomParam{2, 12, 12, 3, 2, 1, 2},
                      ConvGeomParam{1, 16, 16, 9, 4, 1, 1},
                      ConvGeomParam{4, 10, 10, 4, 1, 2, 1}));

TEST(Serialize, TensorRoundTripStream) {
  Rng rng(21);
  Tensor t = random_tensor(Shape{2, 3, 4, 5}, rng);
  std::stringstream ss;
  write_tensor(ss, t);
  Tensor u = read_tensor(ss);
  EXPECT_TRUE(t.equals(u));
}

TEST(Serialize, BadMagicThrows) {
  std::stringstream ss;
  ss << "NOPExxxxxxxxxxxx";
  EXPECT_THROW(read_tensor(ss), std::runtime_error);
}

TEST(Serialize, TruncatedPayloadThrows) {
  Rng rng(23);
  Tensor t = random_tensor(Shape{100}, rng);
  std::stringstream ss;
  write_tensor(ss, t);
  std::string s = ss.str();
  std::stringstream truncated(s.substr(0, s.size() / 2));
  EXPECT_THROW(read_tensor(truncated), std::runtime_error);
}

// ---- hostile FLT1 headers: a runtime_error before any allocation ----

std::string flt1_header(const std::vector<std::int64_t>& dims) {
  std::string bytes = "FLT1";
  const auto rank = static_cast<std::uint32_t>(dims.size());
  bytes.append(reinterpret_cast<const char*>(&rank), sizeof(rank));
  for (std::int64_t d : dims) {
    bytes.append(reinterpret_cast<const char*>(&d), sizeof(d));
  }
  return bytes;
}

// Fails the test on bad_alloc (or anything else but runtime_error).
void expect_rejected(std::istream& in, const std::string& what) {
  try {
    read_tensor(in);
    ADD_FAILURE() << what << ": accepted";
  } catch (const std::runtime_error&) {
  } catch (const std::exception& e) {
    ADD_FAILURE() << what << ": threw " << e.what() << " instead";
  }
}

// A stream that cannot seek, like a pipe: tellg() reports -1.
class PipeBuf : public std::streambuf {
 public:
  explicit PipeBuf(std::string bytes) : bytes_(std::move(bytes)) {
    setg(bytes_.data(), bytes_.data(), bytes_.data() + bytes_.size());
  }

 private:
  std::string bytes_;
};

TEST(Serialize, HostileHeadersThrowBeforeAllocating) {
  const std::string payload(40, '\0');  // ten floats
  const struct {
    const char* what;
    std::string bytes;
  } cases[] = {
      {"2^62 dim", flt1_header({std::int64_t{1} << 62}) + payload},
      {"overflowing product",
       flt1_header({std::int64_t{1} << 32, std::int64_t{1} << 32}) + payload},
      {"count beyond payload", flt1_header({1000}) + payload},
      {"truncated payload", flt1_header({11}) + payload},
  };
  for (const auto& c : cases) {
    std::stringstream seekable(c.bytes);
    expect_rejected(seekable, std::string(c.what) + " (seekable)");
    PipeBuf buf(c.bytes);
    std::istream pipe(&buf);
    expect_rejected(pipe, std::string(c.what) + " (pipe)");
  }
  // The same ten floats with an honest header read back from a pipe.
  PipeBuf buf(flt1_header({10}) + payload);
  std::istream pipe(&buf);
  EXPECT_EQ(read_tensor(pipe).numel(), 10);
}

}  // namespace
}  // namespace fleda
