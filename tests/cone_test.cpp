#include "linalg/cone.h"

#include <gtest/gtest.h>

#include "core/counterexample.h"
#include "test_matrices.h"
#include "util/rng.h"

namespace bagdet {
namespace {

Rational Q(std::int64_t n, std::int64_t d = 1) {
  return Rational(BigInt(n), BigInt(d));
}

TEST(ConeTest, RejectsEveryMatrixButAScaledVandermonde) {
  const auto rejects = [](const Mat& m) {
    SCOPED_TRACE(m.ToString());
    EXPECT_THROW(SimplicialCone{m}, std::invalid_argument);
  };
  // Nonsingular, but not diag(q)·V(b): a zero q_2, a wrong last entry
  // (q = 1, b = (1, 2, 3) would put 4 there), a non-integer node 1/2.
  rejects(Mat{{Q(1), Q(1)}, {Q(0), Q(1)}});
  rejects(Mat{{Q(1), Q(1), Q(1)}, {Q(1), Q(2), Q(5)}, {Q(1), Q(3), Q(9)}});
  rejects(Mat{{Q(2), Q(1)}, {Q(1), Q(1)}});
  // A zero q_i, repeated nodes (singular), a non-integer entry, a
  // non-square shape.
  rejects(Mat{{Q(0), Q(0)}, {Q(1), Q(2)}});
  rejects(Mat{{Q(2), Q(4)}, {Q(1), Q(2)}});
  rejects(Mat{{Q(1), Q(3), Q(9)}, {Q(2), Q(2), Q(2)}, {Q(-1), Q(-3), Q(-9)}});
  rejects(Mat{{Q(1, 2), Q(1)}, {Q(1), Q(2)}});
  rejects(Mat(2, 3));
  // The accepted shapes, with negative q_i and negative or zero nodes, and
  // the empty and 1 × 1 cases.
  EXPECT_NO_THROW(SimplicialCone(Mat{{Q(-3), Q(0)}, {Q(2), Q(-4)}}));
  EXPECT_NO_THROW(SimplicialCone(Mat{{Q(-7)}}));
  EXPECT_NO_THROW(SimplicialCone(Mat(0, 0)));
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

/// diag(q)·V(b) with small nodes for k = 1..12 and 128-bit nodes for
/// k = 2..6 (the reference inverse takes seconds beyond these sizes).
std::vector<Mat> RandomCones(Rng* rng) {
  std::vector<Mat> out;
  for (std::size_t k = 1; k <= 12; ++k) {
    out.push_back(testmat::RandomScaledVandermonde(rng, k, 0));
  }
  for (std::size_t k = 2; k <= 6; ++k) {
    out.push_back(testmat::RandomScaledVandermonde(rng, k, 4));
  }
  return out;
}

TEST(ConeTest, RandomizedMembershipConsistency) {
  Rng rng(99);
  for (int round = 0; round < 2; ++round) {
    for (const Mat& m : RandomCones(&rng)) {
      const std::size_t n = m.rows();
      SCOPED_TRACE("k=" + std::to_string(n));
      SimplicialCone cone(m);
      // Nonnegative combinations are members; their coordinates
      // round-trip.
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
}

TEST(ConeTest, IntegerMembershipMatchesReferenceInverse) {
  Rng rng(4444);
  for (int round = 0; round < 3; ++round) {
    for (const Mat& m : RandomCones(&rng)) {
      const std::size_t n = m.rows();
      SCOPED_TRACE("k=" + std::to_string(n));
      const std::optional<Mat> inverse = testmat::GaussJordanInverse(m);
      ASSERT_TRUE(inverse.has_value());
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
        // The integer form: u = D·p split into random groups, reweighted.
        const BigInt scale = point.CommonDenominator();
        std::vector<BigInt> u;
        for (std::size_t i = 0; i < n; ++i) {
          u.push_back((point[i] * Rational(scale)).numerator());
        }
        const std::size_t groups = 1 + rng.Below(n);
        std::vector<std::size_t> group_of(n);
        for (std::size_t i = 0; i < n; ++i) group_of[i] = rng.Below(groups);
        std::vector<BigInt> weights(groups);
        for (BigInt& w : weights) w = BigInt(rng.Range(-1, 4));
        Vec combination(n);
        for (std::size_t i = 0; i < n; ++i) {
          combination[i] = Rational(u[i] * weights[group_of[i]]);
        }
        const Rational factor(BigInt(rng.Range(1, 6)), BigInt(rng.Range(1, 6)));
        const Vec want = inverse->Apply(combination);
        const std::optional<Vec> got = cone.NonNegativeCombination(
            cone.Group(u, group_of, groups), weights, factor);
        ASSERT_EQ(got.has_value(), want.IsNonNegative());
        if (got.has_value()) EXPECT_EQ(*got, want * factor);
      }
    }
  }
}

// --- The exponent-class walk vs perturbing and a full mat-vec ------------

/// The Lemma-57 walk as it reads in the paper: perturb p to t^z ∘ p, then
/// apply M⁻¹ (the reference inverse), for t = (2^j + 1)/2^j, j = 1, 2, ...
/// Returns the first j with nonnegative coordinates, or 0 after `limit`.
std::int64_t ReferenceWalk(const Mat& inverse, const Vec& p, const Vec& z,
                           std::int64_t limit, Rational* t, Vec* coords) {
  for (std::int64_t j = 1; j <= limit; ++j) {
    const BigInt b = BigInt::Pow(BigInt(2), static_cast<std::uint64_t>(j));
    *t = Rational(b + BigInt(1), b);
    Vec perturbed(p.size());
    for (std::size_t i = 0; i < p.size(); ++i) {
      perturbed[i] = p[i] * Rational::Pow(*t, z[i].numerator().ToInt64());
    }
    *coords = inverse.Apply(perturbed);
    if (coords->IsNonNegative()) return j;
  }
  return 0;
}

TEST(WalkTest, ExponentClassWalkMatchesPerturbedMatVec) {
  Rng rng(5757);
  int long_walks = 0;
  for (int iter = 0; iter < 60; ++iter) {
    const std::size_t n = 1 + rng.Below(8);
    // 32-bit nodes only for k ≤ 4: wide nodes make the cone thin, so the
    // walk takes hundreds of steps, and the reference pays a rational
    // mat-vec for each.
    const int limbs = iter % 4 == 0 && n <= 4 ? 1 : 0;
    const Mat m = testmat::RandomScaledVandermonde(&rng, n, limbs);
    SCOPED_TRACE("iter=" + std::to_string(iter) + " k=" + std::to_string(n));
    const std::optional<Mat> inverse = testmat::GaussJordanInverse(m);
    ASSERT_TRUE(inverse.has_value());
    const SimplicialCone cone(m);
    // An interior point M·x, x > 0 with some coordinates small so that the
    // walk needs several steps, and integer exponents with few classes
    // (ramp-like) or many.
    Vec x(n);
    for (std::size_t i = 0; i < n; ++i) {
      x[i] = Rational(BigInt(rng.Range(1, 9)),
                      BigInt(rng.Chance(1, 3) ? rng.Range(16, 512) : 1));
    }
    const Vec p = m.Apply(x);
    const std::int64_t spread = iter % 3 == 0 ? 1 : 4;
    Vec z(n);
    for (std::size_t i = 0; i < n; ++i) z[i] = Q(rng.Range(-spread, spread));

    const PerturbationWalk walk = WalkIntoCone(cone, p, z);
    ASSERT_TRUE(walk.status.ok()) << walk.status.ToString();
    const std::int64_t j = walk.t.denominator().BitLength() - 1;
    Rational want_t;
    Vec want_coords;
    EXPECT_EQ(ReferenceWalk(*inverse, p, z, j + 1, &want_t, &want_coords), j);
    EXPECT_EQ(walk.t, want_t);
    EXPECT_EQ(walk.coordinates, want_coords);
    long_walks += j > 1;
  }
  // The sweep does exercise rejected steps.
  EXPECT_GT(long_walks, 10);
}

}  // namespace
}  // namespace bagdet
