#include "linalg/modular_solve.h"

#include <algorithm>

#include "linalg/modmat.h"
#include "util/bigint.h"
#include "util/exec_context.h"

namespace bagdet {

namespace {

/// Folds `d` into a running denominator lcm (the Bareiss determinant's
/// row clearing).
void FoldLcm(BigInt* lcm, const BigInt& d) {
  if (d.IsOne()) return;
  // lcm <- lcm / gcd(lcm, d) * d, divided in place (exact).
  BigInt::DivMod(*lcm, BigInt::Gcd(*lcm, d), lcm, nullptr);
  *lcm *= d;
}

}  // namespace

const std::vector<std::uint64_t>& ModularPrimes() {
  static const std::vector<std::uint64_t> primes = {
      4611686018427387847ull, 4611686018427387817ull, 4611686018427387787ull,
      4611686018427387761ull, 4611686018427387751ull, 4611686018427387737ull,
      4611686018427387733ull, 4611686018427387709ull, 4611686018427387701ull,
      4611686018427387631ull, 4611686018427387617ull, 4611686018427387587ull,
      4611686018427387461ull, 4611686018427387421ull, 4611686018427387409ull,
      4611686018427387329ull, 4611686018427387323ull, 4611686018427387301ull,
      4611686018427387271ull, 4611686018427387241ull, 4611686018427387139ull,
      4611686018427387131ull, 4611686018427387127ull, 4611686018427387113ull,
      4611686018427387091ull, 4611686018427387073ull, 4611686018427386981ull,
      4611686018427386923ull, 4611686018427386911ull, 4611686018427386903ull,
      4611686018427386897ull, 4611686018427386887ull, 4611686018427386707ull,
      4611686018427386663ull, 4611686018427386611ull, 4611686018427386551ull,
      4611686018427386471ull, 4611686018427386389ull, 4611686018427386351ull,
      4611686018427386329ull};
  return primes;
}

std::optional<std::size_t> ModularRankLowerBound(
    const Mat& m, const std::vector<std::uint64_t>& primes) {
  if (m.rows() == 0 || m.cols() == 0) return 0;
  for (std::size_t i = 0; i < std::min<std::size_t>(4, primes.size()); ++i) {
    Zp zp(primes[i]);
    std::optional<ModMat> mm = ModMat::FromRationalMat(&zp, m);
    if (!mm.has_value()) continue;
    return mm->RankDestructive();
  }
  return std::nullopt;
}

std::optional<bool> ModularNonsingularProbe(
    const Mat& m, const std::vector<std::uint64_t>& primes) {
  if (m.rows() != m.cols() || m.rows() == 0) return std::nullopt;
  for (std::size_t i = 0; i < std::min<std::size_t>(2, primes.size()); ++i) {
    Zp zp(primes[i]);
    std::optional<ModMat> mm = ModMat::FromRationalMat(&zp, m);
    if (!mm.has_value()) continue;
    if (mm->DeterminantDestructive() != 0) return true;
  }
  return std::nullopt;  // Singular, or every probed prime was unlucky.
}

Rational DeterminantBareiss(const Mat& m) {
  const std::size_t n = m.rows();
  if (n == 0) return Rational(1);

  // Clear each row's denominators; det(A) = det(cleared) / Π row_lcm.
  std::vector<BigInt> a(n * n);
  BigInt denominator_product(1);
  for (std::size_t r = 0; r < n; ++r) {
    BigInt lcm(1);
    for (std::size_t c = 0; c < n; ++c) {
      FoldLcm(&lcm, m.At(r, c).denominator());
    }
    for (std::size_t c = 0; c < n; ++c) {
      const Rational& q = m.At(r, c);
      a[r * n + c] = q.numerator() * (lcm / q.denominator());
    }
    denominator_product *= lcm;
  }

  // One-step Bareiss: every division is exact, and intermediates are
  // bounded by minors of the cleared matrix.
  BigInt prev(1);
  bool negate = false;
  for (std::size_t k = 0; k + 1 < n; ++k) {
    // One forced clock read per pivot row, like the other exact kernels.
    if (ExecContext* ctx = CurrentExecContext()) ctx->CheckNow("linalg.exact");
    std::size_t pivot = n;
    for (std::size_t r = k; r < n; ++r) {
      if (!a[r * n + k].IsZero()) {
        pivot = r;
        break;
      }
    }
    if (pivot == n) return Rational(0);
    if (pivot != k) {
      std::swap_ranges(a.begin() + pivot * n, a.begin() + (pivot + 1) * n,
                       a.begin() + k * n);
      negate = !negate;
    }
    for (std::size_t i = k + 1; i < n; ++i) {
      for (std::size_t j = k + 1; j < n; ++j) {
        // a[i][j]·a[k][k] - a[i][k]·a[k][j], fused, divided exactly by the
        // previous pivot in place (the entry's capacity is recycled).
        a[i * n + j] *= a[k * n + k];
        a[i * n + j].MulSub(a[i * n + k], a[k * n + j]);
        BigInt::DivMod(a[i * n + j], prev, &a[i * n + j], nullptr);
      }
      a[i * n + k] = BigInt(0);
    }
    prev = a[k * n + k];
  }
  BigInt det = std::move(a[n * n - 1]);
  if (negate) det = -det;
  return Rational(std::move(det), std::move(denominator_product));
}

}  // namespace bagdet
