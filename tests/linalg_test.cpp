#include <gtest/gtest.h>

#include "linalg/gauss.h"
#include "linalg/matrix.h"
#include "test_matrices.h"
#include "util/rng.h"

namespace bagdet {
namespace {

Rational Q(std::int64_t n, std::int64_t d = 1) {
  return Rational(BigInt(n), BigInt(d));
}

TEST(VecTest, ArithmeticAndPredicates) {
  Vec a{Q(1), Q(2), Q(3)};
  Vec b{Q(4), Q(-2), Q(0)};
  EXPECT_EQ(a + b, (Vec{Q(5), Q(0), Q(3)}));
  EXPECT_EQ(a - b, (Vec{Q(-3), Q(4), Q(3)}));
  EXPECT_EQ(a * Q(2), (Vec{Q(2), Q(4), Q(6)}));
  EXPECT_EQ(Vec::Dot(a, b), Q(0));
  EXPECT_TRUE(a.IsNonNegative());
  EXPECT_FALSE(b.IsNonNegative());
  EXPECT_TRUE((Vec{Q(0), Q(0)}).IsZero());
}

TEST(VecTest, CommonDenominatorIsLcm) {
  Vec v{Q(1, 2), Q(1, 3), Q(5)};
  EXPECT_EQ(v.CommonDenominator(), BigInt(6));
  EXPECT_TRUE((v * Rational(BigInt(6))).IsIntegral());
  EXPECT_EQ((Vec{Q(2), Q(3)}).CommonDenominator(), BigInt(1));
}

TEST(VecTest, SizeMismatchThrows) {
  Vec a{Q(1)};
  Vec b{Q(1), Q(2)};
  EXPECT_THROW(a + b, std::invalid_argument);
  EXPECT_THROW(Vec::Dot(a, b), std::invalid_argument);
}

TEST(MatTest, IdentityAndMultiply) {
  Mat id = Mat::Identity(3);
  Mat m{{Q(1), Q(2), Q(0)}, {Q(0), Q(1), Q(4)}, {Q(5), Q(0), Q(1)}};
  EXPECT_EQ(id.Multiply(m), m);
  EXPECT_EQ(m.Multiply(id), m);
  Vec v{Q(1), Q(1), Q(1)};
  EXPECT_EQ(m.Apply(v), (Vec{Q(3), Q(5), Q(6)}));
}

TEST(MatTest, TransposeAndRowsCols) {
  Mat m{{Q(1), Q(2)}, {Q(3), Q(4)}, {Q(5), Q(6)}};
  Mat t = m.Transposed();
  EXPECT_EQ(t.rows(), 2u);
  EXPECT_EQ(t.cols(), 3u);
  EXPECT_EQ(m.Row(1), (Vec{Q(3), Q(4)}));
  EXPECT_EQ(m.Col(1), (Vec{Q(2), Q(4), Q(6)}));
  EXPECT_EQ(t.At(0, 2), Q(5));
}

TEST(MatTest, FromColumnsAndRows) {
  std::vector<Vec> cols = {{Q(1), Q(2)}, {Q(3), Q(4)}};
  Mat m = Mat::FromColumns(cols);
  EXPECT_EQ(m.At(0, 1), Q(3));
  EXPECT_EQ(Mat::FromRows(cols).At(0, 1), Q(2));
}

TEST(GaussTest, RrefRankAndPivots) {
  Mat m{{Q(1), Q(2), Q(3)}, {Q(2), Q(4), Q(6)}, {Q(1), Q(0), Q(1)}};
  Rref rref = ReduceToRref(m);
  EXPECT_EQ(rref.rank, 2u);
  EXPECT_EQ(rref.pivots, (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(Rank(m), 2u);
}

TEST(GaussTest, DeterminantAndNonsingularity) {
  Mat m{{Q(2), Q(4)}, {Q(1), Q(2)}};  // The paper's Example 39 matrix M_W.
  EXPECT_EQ(Determinant(m), Q(0));
  EXPECT_FALSE(IsNonsingular(m));
  Mat n{{Q(1), Q(4)}, {Q(1), Q(2)}};  // Example 54's M_S.
  EXPECT_EQ(Determinant(n), Q(-2));
  EXPECT_TRUE(IsNonsingular(n));
}

TEST(GaussTest, DeterminantRequiresSquare) {
  Mat m(2, 3);
  EXPECT_THROW(Determinant(m), std::invalid_argument);
}

TEST(GaussTest, InverseRoundTrip) {
  // The reference inverse the cone and property suites check against.
  Mat m{{Q(1), Q(4)}, {Q(1), Q(2)}};
  std::optional<Mat> inv = testmat::GaussJordanInverse(m);
  ASSERT_TRUE(inv.has_value());
  EXPECT_EQ(m.Multiply(*inv), Mat::Identity(2));
  EXPECT_EQ(inv->Multiply(m), Mat::Identity(2));
  EXPECT_FALSE(
      testmat::GaussJordanInverse(Mat{{Q(2), Q(4)}, {Q(1), Q(2)}}).has_value());
}

TEST(GaussTest, SolveConsistentSystem) {
  Mat a{{Q(1), Q(1)}, {Q(1), Q(-1)}};
  Vec b{Q(3), Q(1)};
  std::optional<Vec> x = SolveLinearSystem(a, b);
  ASSERT_TRUE(x.has_value());
  EXPECT_EQ(a.Apply(*x), b);
  EXPECT_EQ(*x, (Vec{Q(2), Q(1)}));
}

TEST(GaussTest, SolveInconsistentReturnsNullopt) {
  Mat a{{Q(1), Q(2)}, {Q(2), Q(4)}};
  Vec b{Q(1), Q(3)};
  EXPECT_FALSE(SolveLinearSystem(a, b).has_value());
}

TEST(GaussTest, SolveUnderdeterminedPicksParticular) {
  Mat a{{Q(1), Q(2), Q(3)}};
  Vec b{Q(6)};
  std::optional<Vec> x = SolveLinearSystem(a, b);
  ASSERT_TRUE(x.has_value());
  EXPECT_EQ(a.Apply(*x), b);
}

TEST(GaussTest, NullspaceBasisSpansKernel) {
  Mat a{{Q(1), Q(2), Q(3)}, {Q(2), Q(4), Q(6)}};
  std::vector<Vec> basis = NullspaceBasis(a);
  EXPECT_EQ(basis.size(), 2u);
  for (const Vec& v : basis) {
    EXPECT_TRUE(a.Apply(v).IsZero());
    EXPECT_FALSE(v.IsZero());
  }
  EXPECT_TRUE(NullspaceBasis(Mat::Identity(3)).empty());
}

TEST(GaussTest, SpanMembershipWithWitness) {
  std::vector<Vec> basis = {{Q(2), Q(1), Q(3)}, {Q(5), Q(2), Q(7)}};
  Vec target{Q(1), Q(1), Q(2)};  // Example 32: q⃗ = 3·v⃗1 − v⃗2.
  SpanMembership result = TestSpanMembership(basis, target);
  ASSERT_TRUE(result.in_span);
  EXPECT_EQ(result.coefficients, (Vec{Q(3), Q(-1)}));
  Vec outside{Q(1), Q(0), Q(0)};
  EXPECT_FALSE(TestSpanMembership(basis, outside).in_span);
}

TEST(GaussTest, SpanMembershipEdgeCases) {
  // Zero target is in any span, even the empty one.
  EXPECT_TRUE(TestSpanMembership({}, Vec{Q(0), Q(0)}).in_span);
  EXPECT_FALSE(TestSpanMembership({}, Vec{Q(1)}).in_span);
  // Dependent basis still yields a witness.
  std::vector<Vec> dependent = {{Q(1), Q(0)}, {Q(2), Q(0)}, {Q(0), Q(1)}};
  SpanMembership r = TestSpanMembership(dependent, Vec{Q(4), Q(5)});
  ASSERT_TRUE(r.in_span);
  Vec reconstructed(2);
  for (std::size_t i = 0; i < dependent.size(); ++i) {
    reconstructed += dependent[i] * r.coefficients[i];
  }
  EXPECT_EQ(reconstructed, (Vec{Q(4), Q(5)}));
}

TEST(GaussTest, OrthogonalWitnessFact5) {
  std::vector<Vec> basis = {{Q(1), Q(0), Q(1)}, {Q(0), Q(1), Q(1)}};
  Vec target{Q(0), Q(0), Q(1)};  // Not in the span.
  std::optional<Vec> z = OrthogonalWitness(basis, target);
  ASSERT_TRUE(z.has_value());
  for (const Vec& u : basis) EXPECT_EQ(Vec::Dot(*z, u), Q(0));
  EXPECT_NE(Vec::Dot(*z, target), Q(0));
  EXPECT_TRUE(z->IsIntegral()) << "Lemma 56 needs z ∈ Z^k";
}

TEST(GaussTest, OrthogonalWitnessAbsentWhenInSpan) {
  std::vector<Vec> basis = {{Q(1), Q(0)}, {Q(0), Q(1)}};
  EXPECT_FALSE(OrthogonalWitness(basis, Vec{Q(2), Q(3)}).has_value());
}

TEST(GaussTest, OrthogonalWitnessEmptyBasis) {
  std::optional<Vec> z = OrthogonalWitness({}, Vec{Q(0), Q(7)});
  ASSERT_TRUE(z.has_value());
  EXPECT_NE(Vec::Dot(*z, Vec{Q(0), Q(7)}), Q(0));
}

TEST(GaussTest, VandermondeNonsingularLemma46) {
  // Lemma 46: pairwise distinct nodes => nonsingular.
  Mat v = Vandermonde({Q(1), Q(2), Q(3), Q(5)});
  EXPECT_TRUE(IsNonsingular(v));
  EXPECT_EQ(v.At(2, 3), Q(27));
  // Repeated nodes => singular.
  EXPECT_FALSE(IsNonsingular(Vandermonde({Q(1), Q(2), Q(2)})));
  // 0^0 = 1 convention puts a 1 in the first column even for node 0.
  Mat with_zero = Vandermonde({Q(0), Q(1)});
  EXPECT_EQ(with_zero.At(0, 0), Q(1));
  EXPECT_TRUE(IsNonsingular(with_zero));
}

class GaussRandomTest : public ::testing::TestWithParam<std::uint64_t> {};

/// The reference inverse on one square matrix: nullopt exactly when the
/// matrix is singular (cross-checked against the Bareiss determinant and
/// the modular nonsingularity probe), otherwise a two-sided inverse that
/// also agrees with SolveLinearSystem.
void ExpectInverseConsistent(const Mat& m, Rng* rng) {
  const std::size_t n = m.rows();
  std::optional<Mat> inv = testmat::GaussJordanInverse(m);
  EXPECT_EQ(inv.has_value(), IsNonsingular(m));
  EXPECT_EQ(inv.has_value(), !Determinant(m).IsZero());
  if (!inv.has_value()) return;
  EXPECT_EQ(m.Multiply(*inv), Mat::Identity(n));
  EXPECT_EQ(inv->Multiply(m), Mat::Identity(n));
  Vec b(n);
  for (std::size_t i = 0; i < n; ++i) b[i] = Q(rng->Range(-9, 9));
  std::optional<Vec> x = SolveLinearSystem(m, b);
  ASSERT_TRUE(x.has_value());
  EXPECT_EQ(*x, inv->Apply(b));
}

TEST_P(GaussRandomTest, InverseAndSolveConsistency) {
  Rng rng(GetParam());
  for (int iter = 0; iter < 30; ++iter) {
    std::size_t n = 1 + rng.Below(5);
    Mat m(n, n);
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t c = 0; c < n; ++c) {
        m.At(r, c) = Q(rng.Range(-5, 5));
      }
    }
    ExpectInverseConsistent(m, &rng);
  }
  // Wide entries and structured shapes up to n = 12: dense 128- and
  // 256-bit integers (the cone matrices of the negative certificate carry
  // 55–182-bit entries), ill-conditioned Hilbert-like rationals, sparse
  // integers, and exactly low-rank wide matrices that must be rejected.
  // The dense n = 12 case uses 32-bit entries: the exact products that
  // check a 12×12 inverse with 128-bit entries take seconds.
  for (const std::size_t n : {std::size_t{3}, std::size_t{5},
                              std::size_t{12}}) {
    SCOPED_TRACE(n);
    if (n < 12) {
      ExpectInverseConsistent(testmat::RandomBigMatrix(&rng, n, n, 4), &rng);
      ExpectInverseConsistent(testmat::RandomBigMatrix(&rng, n, n, 8), &rng);
    } else {
      ExpectInverseConsistent(testmat::RandomBigMatrix(&rng, n, n, 1), &rng);
    }
    ExpectInverseConsistent(testmat::HilbertLikeMatrix(n, rng.Below(4)), &rng);
    ExpectInverseConsistent(
        testmat::RandomSparseMatrix(&rng, n, n, 1, 3, -9, 9), &rng);
    const Mat low_rank =
        testmat::RandomBigLowRankMatrix(&rng, n, 1 + rng.Below(n - 1), 4);
    EXPECT_FALSE(testmat::GaussJordanInverse(low_rank).has_value());
    ExpectInverseConsistent(low_rank, &rng);
  }
}

TEST_P(GaussRandomTest, RankNullityTheorem) {
  Rng rng(GetParam() + 1000);
  for (int iter = 0; iter < 30; ++iter) {
    std::size_t rows = 1 + rng.Below(4);
    std::size_t cols = 1 + rng.Below(5);
    Mat m(rows, cols);
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t c = 0; c < cols; ++c) {
        m.At(r, c) = Q(rng.Range(-3, 3));
      }
    }
    EXPECT_EQ(Rank(m) + NullspaceBasis(m).size(), cols);
    EXPECT_EQ(Rank(m), Rank(m.Transposed()));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GaussRandomTest,
                         ::testing::Values(21, 22, 23, 24));

}  // namespace
}  // namespace bagdet
