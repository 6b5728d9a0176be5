// Suite for the modular layer (linalg/modular_solve.h, linalg/modmat.h):
// the single-prime rank and nonsingularity probes never claim more than
// the exact answer, decline when fed only bad primes (so Rank and
// IsNonsingular fall back to exact elimination), and skip primes that
// divide a denominator; the Bareiss determinant matches plain elimination;
// Zp's Montgomery arithmetic matches naive arithmetic. The RREF property
// suite is tests/modular_verify_test.cpp.

#include <gtest/gtest.h>

#include <vector>

#include "linalg/gauss.h"
#include "linalg/matrix.h"
#include "linalg/modmat.h"
#include "linalg/modular_solve.h"
#include "test_matrices.h"
#include "util/bigint.h"
#include "util/rng.h"

namespace bagdet {
namespace {

using testmat::RandomBig;

Rational Q(std::int64_t n, std::int64_t d = 1) {
  return Rational(BigInt(n), BigInt(d));
}

// The head of the probes' built-in prime table.
constexpr std::uint64_t kFirstPrime = 4611686018427387847ull;

using testmat::Regime;

TEST(ModularDifferentialTest, RankAndNonsingularAgreeWithExact) {
  const Regime regimes[] = {Regime::kSmallInt, Regime::kLowRank,
                            Regime::kHugeInt, Regime::kHugeLowRank,
                            Regime::kUnluckyPrime};
  Rng rng(42);
  for (const Regime regime : regimes) {
    for (int i = 0; i < 25; ++i) {
      Mat m = testmat::RandomRegimeMatrix(regime, &rng);
      const std::size_t exact_rank = ReduceToRref(m).rank;
      EXPECT_EQ(Rank(m), exact_rank);
      if (m.rows() == m.cols()) {
        EXPECT_EQ(IsNonsingular(m), exact_rank == m.rows());
      }
      std::optional<std::size_t> probe = ModularRankLowerBound(m);
      if (probe.has_value()) EXPECT_LE(*probe, exact_rank);
    }
  }
}

/// Plain exact elimination determinant — the seed implementation, kept
/// here as the differential reference for the Bareiss path.
Rational ReferenceDeterminant(Mat m) {
  const std::size_t n = m.rows();
  Rational det(1);
  for (std::size_t col = 0; col < n; ++col) {
    std::size_t found = n;
    for (std::size_t r = col; r < n; ++r) {
      if (!m.At(r, col).IsZero()) {
        found = r;
        break;
      }
    }
    if (found == n) return Rational(0);
    if (found != col) {
      m.SwapRows(found, col);
      det = -det;
    }
    det *= m.At(col, col);
    Rational inv = m.At(col, col).Inverse();
    for (std::size_t r = col + 1; r < n; ++r) {
      Rational factor = m.At(r, col) * inv;
      if (factor.IsZero()) continue;
      for (std::size_t c = col; c < n; ++c) {
        m.At(r, c) -= factor * m.At(col, c);
      }
    }
  }
  return det;
}

TEST(ModularDifferentialTest, BareissDeterminantMatchesExact) {
  Rng rng(7);
  for (int i = 0; i < 60; ++i) {
    const std::size_t n = 1 + rng.Below(6);
    Mat m(n, n);
    const bool rational_entries = rng.Chance(1, 3);
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t c = 0; c < n; ++c) {
        if (rational_entries) {
          m.At(r, c) = Q(rng.Range(-8, 8), rng.Range(1, 8));
        } else if (rng.Chance(1, 4)) {
          m.At(r, c) = Rational(RandomBig(&rng, 4));
        } else {
          m.At(r, c) = Q(rng.Range(-8, 8));
        }
      }
    }
    EXPECT_EQ(DeterminantBareiss(m), ReferenceDeterminant(m));
    EXPECT_EQ(Determinant(m), ReferenceDeterminant(m));
  }
}

TEST(ModularFallbackTest, DeclinesWhenFedOnlyBadPrimesAndExactPathServes) {
  // Every entry is a multiple of the injected prime: mod p the matrix is
  // zero, so neither probe can certify anything.
  Rng rng(99);
  Mat m = testmat::RandomRegimeMatrix(Regime::kUnluckyPrime, &rng);
  const std::size_t exact_rank = ReduceToRref(m).rank;
  ASSERT_GT(exact_rank, 0u);

  const std::vector<std::uint64_t> bad = {kFirstPrime};
  EXPECT_EQ(ModularRankLowerBound(m, bad), std::optional<std::size_t>(0));
  EXPECT_FALSE(ModularNonsingularProbe(m, bad).has_value());

  // The first table prime is the bad one too, so the default rank probe
  // is inconclusive and Rank serves the exact rank through its fallback.
  EXPECT_EQ(Rank(m), exact_rank);
  if (m.rows() == m.cols()) {
    EXPECT_EQ(IsNonsingular(m), exact_rank == m.rows());
  }
}

TEST(ModularFallbackTest, SkipsPrimesDividingDenominators) {
  // Entries with denominator equal to the first prime: that prime cannot
  // reduce the matrix (FromRationalMat declines), so the probes move on to
  // the next prime.
  Mat m(3, 3);
  const BigInt p(static_cast<std::int64_t>(kFirstPrime));
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 3; ++c) {
      m.At(r, c) = Rational(BigInt(static_cast<std::int64_t>(1 + r + 2 * c)),
                            (r + c) % 2 == 0 ? p : BigInt(1));
    }
  }
  Zp zp(kFirstPrime);
  EXPECT_FALSE(ModMat::FromRationalMat(&zp, m).has_value());
  const std::size_t exact_rank = ReduceToRref(m).rank;
  EXPECT_EQ(ModularRankLowerBound(m), std::optional<std::size_t>(exact_rank));
  EXPECT_EQ(ModularNonsingularProbe(m).has_value(), exact_rank == 3);
  EXPECT_EQ(Rank(m), exact_rank);

  // An injected list holding only the bad prime leaves nothing usable.
  const std::vector<std::uint64_t> bad = {kFirstPrime};
  EXPECT_FALSE(ModularRankLowerBound(m, bad).has_value());
  EXPECT_FALSE(ModularNonsingularProbe(m, bad).has_value());
}

TEST(ModularPrimesTest, FixedTableOfDescending62BitPrimes) {
  const std::vector<std::uint64_t>& primes = ModularPrimes();
  ASSERT_EQ(primes.size(), 40u);
  EXPECT_EQ(primes[0], kFirstPrime);
  for (std::size_t i = 0; i < primes.size(); ++i) {
    EXPECT_LT(primes[i], 1ull << 62);
    EXPECT_GT(primes[i], 1ull << 61);
    if (i > 0) EXPECT_LT(primes[i], primes[i - 1]);
    // Fermat witnesses: a^(p-1) = 1 mod p for a prime p.
    Zp zp(primes[i]);
    for (std::uint64_t a : {2ull, 3ull, 5ull, 7ull}) {
      EXPECT_EQ(zp.From(zp.Pow(zp.To(a), primes[i] - 1)), 1u) << primes[i];
    }
  }
}

TEST(ZpTest, MontgomeryArithmeticMatchesNaive) {
  Zp zp(kFirstPrime);
  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t a = rng.Below(kFirstPrime);
    const std::uint64_t b = rng.Below(kFirstPrime);
    const std::uint64_t ma = zp.To(a);
    const std::uint64_t mb = zp.To(b);
    EXPECT_EQ(zp.From(ma), a);
    EXPECT_EQ(zp.From(zp.Add(ma, mb)), (a + b) % kFirstPrime);
    const std::uint64_t naive_mul = static_cast<std::uint64_t>(
        static_cast<unsigned __int128>(a) * b % kFirstPrime);
    EXPECT_EQ(zp.From(zp.Mul(ma, mb)), naive_mul);
    if (a != 0) {
      EXPECT_EQ(zp.From(zp.Mul(ma, zp.Inv(ma))), 1u);
    }
  }
}

TEST(BigIntModTest, MatchesDivModOnLargeAndNegativeValues) {
  Rng rng(5);
  const BigInt modulus(static_cast<std::int64_t>(kFirstPrime));
  for (int i = 0; i < 100; ++i) {
    BigInt v = RandomBig(&rng, 1 + static_cast<int>(rng.Below(8)));
    if (rng.Chance(1, 2)) v = -v;
    const BigInt reference = ((v % modulus) + modulus) % modulus;
    EXPECT_EQ(BigInt(static_cast<std::int64_t>(v.Mod(kFirstPrime))),
              reference);
  }
  EXPECT_EQ(BigInt(-3).Mod(7), 4u);
  EXPECT_EQ(BigInt(0).Mod(7), 0u);
  EXPECT_THROW(BigInt(1).Mod(0), std::domain_error);
}

TEST(MatStorageTest, SwapRowsAndReserve) {
  Mat m{{Q(1), Q(2)}, {Q(3), Q(4)}, {Q(5), Q(6)}};
  m.SwapRows(0, 2);
  EXPECT_EQ(m.Row(0), (Vec{Q(5), Q(6)}));
  EXPECT_EQ(m.Row(2), (Vec{Q(1), Q(2)}));
  m.SwapRows(1, 1);  // No-op.
  EXPECT_EQ(m.Row(1), (Vec{Q(3), Q(4)}));
  Mat n;
  n.Reserve(4, 4);  // Shape unchanged; just capacity.
  EXPECT_EQ(n.rows(), 0u);
  EXPECT_EQ(n.cols(), 0u);
}

TEST(ModularConsumersTest, SolveNullspaceSpanAndWitnessStayExact) {
  // End to end through the RREF consumers on a huge-entry system.
  Rng rng(11);
  Mat a(4, 4);
  for (std::size_t r = 0; r < 4; ++r) {
    for (std::size_t c = 0; c < 4; ++c) {
      a.At(r, c) = Rational(RandomBig(&rng, 5));
    }
  }
  Vec b(4);
  for (std::size_t i = 0; i < 4; ++i) b[i] = Rational(RandomBig(&rng, 5));

  std::optional<Vec> x = SolveLinearSystem(a, b);
  ASSERT_TRUE(x.has_value());
  EXPECT_EQ(a.Apply(*x), b);

  // Rank-2 matrix: nullspace vectors must be genuine exact kernel vectors.
  Mat low(4, 4);
  for (std::size_t c = 0; c < 4; ++c) {
    low.At(0, c) = a.At(0, c);
    low.At(1, c) = a.At(1, c);
    low.At(2, c) = a.At(0, c) + a.At(1, c);
    low.At(3, c) = a.At(0, c) - a.At(1, c);
  }
  std::vector<Vec> kernel = NullspaceBasis(low);
  EXPECT_EQ(kernel.size(), 2u);
  for (const Vec& v : kernel) {
    EXPECT_TRUE(low.Apply(v).IsZero());
  }

  std::vector<Vec> basis = {low.Row(0), low.Row(1)};
  SpanMembership in = TestSpanMembership(basis, low.Row(2));
  ASSERT_TRUE(in.in_span);
  EXPECT_EQ(basis[0] * in.coefficients[0] + basis[1] * in.coefficients[1],
            low.Row(2));

  std::optional<Vec> witness = OrthogonalWitness(basis, a.Row(2));
  if (witness.has_value()) {
    EXPECT_TRUE(witness->IsIntegral());
    EXPECT_TRUE(Vec::Dot(*witness, basis[0]).IsZero());
    EXPECT_TRUE(Vec::Dot(*witness, basis[1]).IsZero());
    EXPECT_FALSE(Vec::Dot(*witness, a.Row(2)).IsZero());
  }
}

}  // namespace
}  // namespace bagdet
