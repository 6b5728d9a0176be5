// Property suite for the one exact RREF (linalg/gauss.h). Over the 420
// seeded matrices of tests/test_matrices.h and a set of big low-rank ones,
// ReduceToRref must return a matrix in reduced row echelon form with the
// row space of its input, and Rank and IsNonsingular must agree with it.
//
// The row-space check verifies a certificate instead of comparing against
// a second implementation. Every row of A must equal the combination of
// the RREF's pivot rows weighted by A's own pivot-column entries, so
// rowspace(A) ⊆ rowspace(R) and rank(A) <= rank(R). A prime p with
// rank_p(A) = rank(R) gives rank(A) >= rank(R); the word-size rank mod p
// is test-local (testmat::RankModPrime), so the certificate shares no
// code with the elimination it checks. Equal dimensions make the row
// spaces equal, and a row space has exactly one RREF.
//
// BAGDET_DIFF_ITERS scales the big low-rank case count (the nightly CI job
// runs ~10×).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "linalg/gauss.h"
#include "linalg/matrix.h"
#include "test_matrices.h"
#include "util/rng.h"

namespace bagdet {
namespace {

/// `rref` is in reduced row echelon form with the pivots and rank it
/// reports.
::testing::AssertionResult IsRrefForm(const Rref& rref) {
  const Mat& r = rref.matrix;
  if (rref.pivots.size() != rref.rank || rref.rank > r.rows()) {
    return ::testing::AssertionFailure() << "rank/pivot count mismatch";
  }
  for (std::size_t i = 0; i < rref.rank; ++i) {
    const std::size_t pivot = rref.pivots[i];
    if (pivot >= r.cols() || (i > 0 && pivot <= rref.pivots[i - 1])) {
      return ::testing::AssertionFailure() << "pivots not increasing";
    }
    if (r.At(i, pivot) != Rational(1)) {
      return ::testing::AssertionFailure() << "pivot " << i << " is not 1";
    }
    for (std::size_t c = 0; c < pivot; ++c) {
      if (!r.At(i, c).IsZero()) {
        return ::testing::AssertionFailure()
               << "nonzero left of pivot in row " << i;
      }
    }
    for (std::size_t row = 0; row < r.rows(); ++row) {
      if (row != i && !r.At(row, pivot).IsZero()) {
        return ::testing::AssertionFailure()
               << "pivot column " << pivot << " not cleared";
      }
    }
  }
  for (std::size_t row = rref.rank; row < r.rows(); ++row) {
    if (!r.Row(row).IsZero()) {
      return ::testing::AssertionFailure() << "row " << row << " past rank";
    }
  }
  return ::testing::AssertionSuccess();
}

/// The residual identity: every row of `a` equals the combination of the
/// pivot rows of `rref` weighted by its own pivot-column entries.
bool RowsSpannedByPivotRows(const Mat& a, const Rref& rref) {
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t c = 0; c < a.cols(); ++c) {
      Rational sum;
      for (std::size_t i = 0; i < rref.rank; ++i) {
        sum += a.At(r, rref.pivots[i]) * rref.matrix.At(i, c);
      }
      if (sum != a.At(r, c)) return false;
    }
  }
  return true;
}

/// The largest rank of `m` modulo each of the four certificate primes: a
/// certified lower bound on its rank over Q.
std::size_t BestRankModPrimes(const Mat& m) {
  std::size_t best = 0;
  for (const std::uint64_t p : testmat::kCertificatePrimes) {
    if (std::optional<std::size_t> rank = testmat::RankModPrime(m, p)) {
      best = std::max(best, *rank);
    }
  }
  return best;
}

/// Checks that `rref` is THE reduced row echelon form of `m`.
void ExpectIsRrefOf(const Mat& m, const Rref& rref) {
  ASSERT_EQ(rref.matrix.rows(), m.rows());
  ASSERT_EQ(rref.matrix.cols(), m.cols());
  EXPECT_TRUE(IsRrefForm(rref));
  EXPECT_TRUE(RowsSpannedByPivotRows(m, rref));
  EXPECT_EQ(BestRankModPrimes(m), rref.rank);
}

TEST(RrefPropertyTest, ReducesThe420SeededMatricesToTheirRref) {
  Rng rng(20260729);
  int checked = 0;
  for (const testmat::Regime regime : testmat::kAllRegimes) {
    for (int i = 0; i < 60; ++i) {
      SCOPED_TRACE(::testing::Message() << "regime "
                                        << static_cast<int>(regime)
                                        << " case " << i);
      const Mat m = testmat::RandomRegimeMatrix(regime, &rng);
      const Rref rref = ReduceToRref(m);
      ExpectIsRrefOf(m, rref);
      EXPECT_EQ(Rank(m), rref.rank);
      if (m.rows() == m.cols()) {
        EXPECT_EQ(IsNonsingular(m), rref.rank == m.rows());
      }
      ++checked;
    }
  }
  EXPECT_EQ(checked, 420);
}

TEST(RrefPropertyTest, ReducesBigLowRankMatrices) {
  const int cases = 3 * testmat::DiffIterScale();
  for (int i = 0; i < cases; ++i) {
    const std::uint64_t seed = 56000 + static_cast<std::uint64_t>(i);
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    Rng rng(seed);
    const std::size_t n = 8 + 4 * static_cast<std::size_t>(i % 3);
    const std::size_t rank = 1 + rng.Below(4);
    const Mat m = testmat::RandomBigLowRankMatrix(&rng, n, rank, 8);
    const Rref rref = ReduceToRref(m);
    ExpectIsRrefOf(m, rref);
    EXPECT_EQ(rref.rank, rank);
    EXPECT_EQ(Rank(m), rank);
  }
}

TEST(RrefPropertyTest, ResidualCheckRejectsAPerturbedRref) {
  // The checker has power: adding 1 to a free-column entry of pivot row i
  // shifts the residual of every input row by its entry in pivot column i,
  // and that column of the input is not all zero.
  Rng rng(52000);
  int perturbed = 0;
  for (int i = 0; i < 60; ++i) {
    const Mat m = testmat::RandomIntMatrix(&rng, 2 + rng.Below(5),
                                           3 + rng.Below(5), -9, 9);
    Rref bad = ReduceToRref(m);
    ASSERT_TRUE(RowsSpannedByPivotRows(m, bad));
    std::size_t free_col = 0;
    while (free_col < m.cols() &&
           std::find(bad.pivots.begin(), bad.pivots.end(), free_col) !=
               bad.pivots.end()) {
      ++free_col;
    }
    if (bad.rank == 0 || free_col == m.cols()) continue;
    bad.matrix.At(rng.Below(bad.rank), free_col) += Rational(1);
    EXPECT_FALSE(RowsSpannedByPivotRows(m, bad)) << "case " << i;
    ++perturbed;
  }
  EXPECT_GT(perturbed, 20);
}

}  // namespace
}  // namespace bagdet
