#include "linalg/cone.h"

#include <gtest/gtest.h>

#include "linalg/gauss.h"
#include "test_matrices.h"
#include "util/rng.h"

namespace bagdet {
namespace {

Rational Q(std::int64_t n, std::int64_t d = 1) {
  return Rational(BigInt(n), BigInt(d));
}

TEST(ConeTest, RejectsSingularMatrices) {
  EXPECT_THROW(SimplicialCone(Mat{{Q(2), Q(4)}, {Q(1), Q(2)}}),
               std::invalid_argument);
  EXPECT_THROW(SimplicialCone(Mat(2, 3)), std::invalid_argument);
}

TEST(ConeTest, MembershipExample54) {
  // The Example-54 matrix [[1,1],[1,2]].
  SimplicialCone cone(Mat{{Q(1), Q(1)}, {Q(1), Q(2)}});
  // Columns and their nonnegative combinations are inside.
  EXPECT_TRUE(cone.Contains(Vec{Q(1), Q(1)}));
  EXPECT_TRUE(cone.Contains(Vec{Q(1), Q(2)}));
  EXPECT_TRUE(cone.Contains(Vec{Q(2), Q(3)}));
  EXPECT_TRUE(cone.Contains(Vec{Q(0), Q(0)}));
  // Below the first generator's ray: outside.
  EXPECT_FALSE(cone.Contains(Vec{Q(1), Q(0)}));
  EXPECT_FALSE(cone.Contains(Vec{Q(-1), Q(-1)}));
  // Boundary points are contained but not strictly.
  EXPECT_TRUE(cone.Contains(Vec{Q(1), Q(1)}));
  EXPECT_FALSE(cone.StrictlyContains(Vec{Q(1), Q(1)}));
  EXPECT_TRUE(cone.StrictlyContains(Vec{Q(2), Q(3)}));
}

TEST(ConeTest, InteriorPointIsStrictlyInside) {
  SimplicialCone cone(Mat{{Q(1), Q(1)}, {Q(1), Q(2)}});
  Vec p = cone.InteriorPoint();
  EXPECT_EQ(p, (Vec{Q(2), Q(3)}));
  EXPECT_TRUE(cone.StrictlyContains(p));
}

TEST(ConeTest, ScaleIntoLatticeLemma55) {
  SimplicialCone cone(Mat{{Q(1), Q(1)}, {Q(1), Q(2)}});
  // p = M · (1/2, 1/3): coordinates have denominators 2 and 3 -> c = 6.
  Vec p = cone.matrix().Apply(Vec{Q(1, 2), Q(1, 3)});
  std::optional<BigInt> c = cone.ScaleIntoLattice(p);
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(*c, BigInt(6));
  // c·p has natural coordinates.
  Vec scaled_coords = cone.Coordinates(p * Rational(*c));
  EXPECT_TRUE(scaled_coords.IsIntegral());
  EXPECT_TRUE(scaled_coords.IsNonNegative());
  // Points outside the cone cannot be scaled in.
  EXPECT_FALSE(cone.ScaleIntoLattice(Vec{Q(1), Q(0)}).has_value());
}

TEST(ConeTest, RandomizedMembershipConsistency) {
  Rng rng(99);
  for (int iter = 0; iter < 20; ++iter) {
    std::size_t n = 2 + rng.Below(3);
    Mat m(n, n);
    do {
      for (std::size_t r = 0; r < n; ++r) {
        for (std::size_t c = 0; c < n; ++c) {
          m.At(r, c) = Q(rng.Range(0, 6));
        }
      }
    } while (!IsNonsingular(m));
    SimplicialCone cone(m);
    // Nonnegative combinations are members; their coordinates round-trip.
    Vec x(n);
    for (std::size_t i = 0; i < n; ++i) x[i] = Q(rng.Range(0, 5));
    Vec p = m.Apply(x);
    EXPECT_TRUE(cone.Contains(p));
    EXPECT_EQ(cone.Coordinates(p), x);
    // A combination with a negative coefficient is outside (coordinates
    // are unique for simplicial cones).
    Vec y = x;
    y[rng.Below(n)] = Q(-1 - static_cast<std::int64_t>(rng.Below(3)));
    EXPECT_FALSE(cone.Contains(m.Apply(y)));
  }
}

// --- Fraction-free inverse vs the rational Gauss–Jordan reference --------

/// Inverse equals the reference entry for entry and is std::nullopt
/// exactly when the reference is; the scaled form satisfies its contract
/// (D·M)·R = d·I with d > 0.
void ExpectSameInverse(const Mat& m) {
  const std::optional<Mat> want = testmat::GaussJordanInverse(m);
  const std::optional<Mat> got = Inverse(m);
  ASSERT_EQ(got.has_value(), want.has_value()) << m;
  if (!got.has_value()) return;
  EXPECT_EQ(*got, *want) << m;

  const std::optional<ScaledInverse> scaled = InverseFractionFree(m);
  ASSERT_TRUE(scaled.has_value());
  const std::size_t n = m.rows();
  EXPECT_EQ(scaled->d.Sign(), 1);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      Rational entry;
      for (std::size_t i = 0; i < n; ++i) {
        entry += m.At(r, i) * Rational(scaled->row_scales[r]) *
                 Rational(scaled->R(i, c));
      }
      EXPECT_EQ(entry, r == c ? Rational(scaled->d) : Rational(0));
    }
  }
}

TEST(FractionFreeInverseTest, MatchesRationalGaussJordan) {
  Rng rng(4242);
  for (std::size_t n = 1; n <= 12; ++n) {
    SCOPED_TRACE("n=" + std::to_string(n));
    Mat m = testmat::RandomIntMatrix(&rng, n, n, -9, 9);
    ExpectSameInverse(m);
    // Swapping two rows flips the sign of the determinant, so both signs
    // of d are exercised before the kernel normalizes it.
    if (n >= 2) {
      m.SwapRows(0, 1);
      ExpectSameInverse(m);
    }
    ExpectSameInverse(testmat::RandomRationalMatrix(&rng, n, n, 9, 7));
  }
  // 128-bit and 256-bit entries (the reference takes seconds beyond these
  // sizes).
  for (std::size_t n = 2; n <= 8; ++n) {
    SCOPED_TRACE("128-bit n=" + std::to_string(n));
    ExpectSameInverse(testmat::RandomBigMatrix(&rng, n, n, 4));
  }
  for (std::size_t n = 2; n <= 6; ++n) {
    SCOPED_TRACE("256-bit n=" + std::to_string(n));
    ExpectSameInverse(testmat::RandomBigMatrix(&rng, n, n, 8));
  }
  ExpectSameInverse(testmat::HilbertLikeMatrix(7, 2));
}

TEST(FractionFreeInverseTest, NulloptExactlyOnSingularInput) {
  Rng rng(4343);
  EXPECT_FALSE(Inverse(Mat(2, 3)).has_value());
  EXPECT_FALSE(InverseFractionFree(Mat(3, 2)).has_value());
  ASSERT_TRUE(Inverse(Mat(0, 0)).has_value());
  EXPECT_EQ(Inverse(Mat(0, 0))->rows(), 0u);
  for (std::size_t n = 1; n <= 12; ++n) {
    SCOPED_TRACE("n=" + std::to_string(n));
    ExpectSameInverse(Mat(n, n));  // Zero matrix.
    if (n < 2) continue;
    // Exact low rank: integer and big-integer rows combined from others.
    ExpectSameInverse(testmat::RandomBigLowRankMatrix(
        &rng, n, 1 + rng.Below(n - 1), n <= 8 ? 4 : 1));
    // A rational row that is half of another.
    Mat m = testmat::RandomRationalMatrix(&rng, n, n, 9, 5);
    for (std::size_t c = 0; c < n; ++c) {
      m.At(n - 1, c) = m.At(0, c) * Q(1, 2);
    }
    EXPECT_FALSE(Inverse(m).has_value());
    ExpectSameInverse(m);
  }
}

TEST(ConeTest, IntegerMembershipMatchesReferenceInverse) {
  // Rational matrices make the row scales D nontrivial.
  Rng rng(4444);
  for (int iter = 0; iter < 40; ++iter) {
    const std::size_t n = 2 + rng.Below(5);
    Mat m = testmat::RandomRationalMatrix(&rng, n, n, 6, 4);
    const std::optional<Mat> inverse = testmat::GaussJordanInverse(m);
    if (!inverse.has_value()) continue;
    SimplicialCone cone(m);
    Vec p(n);
    for (std::size_t i = 0; i < n; ++i) {
      p[i] = Rational(BigInt(rng.Range(-6, 6)), BigInt(rng.Range(1, 5)));
    }
    // Points with nonnegative coordinates, with zero coordinates, and
    // arbitrary ones.
    Vec x(n);
    for (std::size_t i = 0; i < n; ++i) x[i] = Q(rng.Range(0, 2), 3);
    for (const Vec& point : {p, m.Apply(x)}) {
      const Vec coords = inverse->Apply(point);
      EXPECT_EQ(cone.Coordinates(point), coords);
      EXPECT_EQ(cone.Contains(point), coords.IsNonNegative());
      bool strictly = true;
      for (std::size_t i = 0; i < n; ++i) strictly &= coords[i].Sign() > 0;
      EXPECT_EQ(cone.StrictlyContains(point), strictly);
      const std::optional<BigInt> c = cone.ScaleIntoLattice(point);
      ASSERT_EQ(c.has_value(), coords.IsNonNegative());
      if (c.has_value()) EXPECT_EQ(*c, coords.CommonDenominator());
      // The integer form of the same test: u = L·p is p scaled by L > 0.
      const BigInt scale = point.CommonDenominator();
      std::vector<BigInt> u;
      for (std::size_t i = 0; i < n; ++i) {
        u.push_back((point[i] * Rational(scale)).numerator());
      }
      const std::optional<Vec> integer_coords =
          cone.NonNegativeCoordinates(u);
      ASSERT_EQ(integer_coords.has_value(), coords.IsNonNegative());
      if (integer_coords.has_value()) {
        EXPECT_EQ(*integer_coords, coords * Rational(scale));
      }
    }
  }
}

}  // namespace
}  // namespace bagdet
