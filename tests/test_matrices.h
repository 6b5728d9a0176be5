// Shared deterministic random-matrix generators for the linear-algebra
// property suites and benchmarks. One copy, so the suites and the benches
// cannot drift apart (an earlier bench copy drew low-rank combination
// coefficients per *entry*, which silently destroys the linear dependence
// the benchmark claims to measure). Header-only, no gtest dependency, so
// bench/ can include it too.

#ifndef BAGDET_TESTS_TEST_MATRICES_H_
#define BAGDET_TESTS_TEST_MATRICES_H_

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <utility>
#include <vector>

#include "linalg/gauss.h"
#include "linalg/matrix.h"
#include "linalg/modular_solve.h"
#include "util/bigint.h"
#include "util/rational.h"
#include "util/rng.h"

namespace bagdet {
namespace testmat {

/// Uniform random nonnegative integer of `limbs` base-2^32 digits, i.e.
/// ~32·limbs bits — limbs=8 is the 256-bit scale of the radix-T hom
/// counts the determinacy pipeline feeds its evaluation matrices.
inline BigInt RandomBig(Rng* rng, int limbs) {
  BigInt x(0);
  const BigInt base(static_cast<std::int64_t>(1) << 32);
  for (int i = 0; i < limbs; ++i) {
    x = x * base + BigInt(static_cast<std::int64_t>(rng->Below(1ull << 32)));
  }
  return x;
}

/// RandomBig with a fair coin on the sign.
inline BigInt RandomBigSigned(Rng* rng, int limbs) {
  BigInt x = RandomBig(rng, limbs);
  if (rng->Chance(1, 2)) x = -x;
  return x;
}

/// Dense matrix with integer entries uniform in [lo, hi].
inline Mat RandomIntMatrix(Rng* rng, std::size_t rows, std::size_t cols,
                           std::int64_t lo, std::int64_t hi) {
  Mat m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      m.At(r, c) = Rational(rng->Range(lo, hi));
    }
  }
  return m;
}

/// Dense matrix of small rationals a/b, a in [-num_range, num_range],
/// b in [1, den_range].
inline Mat RandomRationalMatrix(Rng* rng, std::size_t rows, std::size_t cols,
                                std::int64_t num_range,
                                std::int64_t den_range) {
  Mat m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      m.At(r, c) = Rational(BigInt(rng->Range(-num_range, num_range)),
                            BigInt(rng->Range(1, den_range)));
    }
  }
  return m;
}

/// Dense matrix of signed ~32·limbs-bit integer entries.
inline Mat RandomBigMatrix(Rng* rng, std::size_t rows, std::size_t cols,
                           int limbs) {
  Mat m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      m.At(r, c) = Rational(RandomBigSigned(rng, limbs));
    }
  }
  return m;
}

/// n×n matrix of exact rank `rank` with ~32·limbs-bit entries: the first
/// `rank` rows are random, every later row is a small positive integer
/// combination of them with ONE coefficient per basis row (a per-entry
/// draw would destroy the linear dependence and collapse the RREF to the
/// identity). The RREF of such a matrix holds genuinely large rationals.
inline Mat RandomBigLowRankMatrix(Rng* rng, std::size_t n, std::size_t rank,
                                  int limbs) {
  Mat m(n, n);
  for (std::size_t r = 0; r < rank && r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      m.At(r, c) = Rational(RandomBigSigned(rng, limbs));
    }
  }
  for (std::size_t r = rank; r < n; ++r) {
    std::vector<Rational> coeff(rank);
    for (std::size_t base = 0; base < rank; ++base) {
      coeff[base] = Rational(rng->Range(1, 3));
    }
    for (std::size_t c = 0; c < n; ++c) {
      Rational sum;
      for (std::size_t base = 0; base < rank; ++base) {
        sum += m.At(base, c) * coeff[base];
      }
      m.At(r, c) = std::move(sum);
    }
  }
  return m;
}

/// Hilbert-like ill-conditioned matrix: At(i, j) = 1 / (i + j + 1 +
/// offset). Nonsingular for every n (Cauchy structure) with inverse
/// entries that blow up combinatorially — the classic stress case for
/// exact elimination.
inline Mat HilbertLikeMatrix(std::size_t n, std::size_t offset = 0) {
  Mat m(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      m.At(i, j) =
          Rational(BigInt(1), BigInt(static_cast<std::int64_t>(i + j + 1 +
                                                               offset)));
    }
  }
  return m;
}

/// The scaled Vandermonde matrix diag(q)·V(b), At(i, j) = q_i·b_i^j: the
/// shape of a good basis' evaluation matrix (Lemma 40, Steps 3–4).
inline Mat ScaledVandermonde(const std::vector<BigInt>& q,
                             const std::vector<BigInt>& b) {
  const std::size_t n = q.size();
  Mat m(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    BigInt entry = q[i];
    for (std::size_t j = 0; j < n; ++j) {
      m.At(i, j) = Rational(entry);
      entry *= b[i];
    }
  }
  return m;
}

/// diag(q)·V(b) with n random signed q_i in [-5, 5] \ {0} and n pairwise
/// distinct signed nodes: in [-12, 12] (zero included) when limbs == 0,
/// which needs n ≤ 25, else of ~32·limbs bits.
inline Mat RandomScaledVandermonde(Rng* rng, std::size_t n, int limbs) {
  std::vector<BigInt> q;
  std::vector<BigInt> b;
  while (b.size() < n) {
    BigInt node = limbs == 0 ? BigInt(rng->Range(-12, 12))
                             : RandomBigSigned(rng, limbs);
    bool fresh = true;
    for (const BigInt& other : b) fresh = fresh && other != node;
    if (!fresh) continue;
    b.push_back(std::move(node));
    std::int64_t factor = rng->Range(1, 5);
    q.emplace_back(rng->Chance(1, 2) ? -factor : factor);
  }
  return ScaledVandermonde(q, b);
}

/// Sparse matrix: each entry is nonzero (uniform in [lo, hi] \ {0}) with
/// probability density_num/density_den.
inline Mat RandomSparseMatrix(Rng* rng, std::size_t rows, std::size_t cols,
                              std::uint64_t density_num,
                              std::uint64_t density_den, std::int64_t lo,
                              std::int64_t hi) {
  Mat m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      if (!rng->Chance(density_num, density_den)) continue;
      std::int64_t v = rng->Range(lo, hi);
      if (v == 0) v = 1;
      m.At(r, c) = Rational(v);
    }
  }
  return m;
}

/// Reference inverse: rational Gauss–Jordan elimination on [A | I] over
/// ReduceToRref — the body Inverse had before it became fraction-free,
/// kept as the differential oracle. std::nullopt when singular.
inline std::optional<Mat> GaussJordanInverse(const Mat& m) {
  if (m.rows() != m.cols()) return std::nullopt;
  const std::size_t n = m.rows();
  if (n == 0) return Mat(0, 0);
  Mat aug(n, 2 * n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) aug.At(r, c) = m.At(r, c);
    aug.At(r, n + r) = Rational(1);
  }
  Rref rref = ReduceToRref(std::move(aug));
  if (rref.rank < n || rref.pivots[n - 1] >= n) return std::nullopt;
  Mat inverse(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      inverse.At(r, c) = rref.matrix.At(r, n + c);
    }
  }
  return inverse;
}

/// The seven entry/shape regimes the RREF property suites sweep (60
/// matrices each: 420 in all). Every regime includes rank-deficient
/// shapes (wide/tall dims) by construction.
enum class Regime {
  kSmallInt,        // Dense entries in [-9, 9].
  kSmallRational,   // Entries a/b with small a, b.
  kHugeInt,         // 128–256 bit hom-count-sized integer entries.
  kLowRank,         // Product of thin factors: provably singular.
  kHugeLowRank,     // Rank-deficient AND huge: the RREF holds genuinely
                    // large rationals (not just an identity).
  kDuplicatedRows,  // Underdetermined: repeated/scaled rows.
  kUnluckyPrime,    // Every entry divisible by ModularPrimes()[0].
};

inline constexpr Regime kAllRegimes[] = {
    Regime::kSmallInt,    Regime::kSmallRational, Regime::kHugeInt,
    Regime::kLowRank,     Regime::kHugeLowRank,   Regime::kDuplicatedRows,
    Regime::kUnluckyPrime};

/// A random matrix of 1..7 rows and columns from `regime`.
inline Mat RandomRegimeMatrix(Regime regime, Rng* rng) {
  const std::size_t rows = 1 + rng->Below(7);
  const std::size_t cols = 1 + rng->Below(7);
  Mat m(rows, cols);
  switch (regime) {
    case Regime::kSmallInt:
      m = RandomIntMatrix(rng, rows, cols, -9, 9);
      break;
    case Regime::kSmallRational:
      m = RandomRationalMatrix(rng, rows, cols, 12, 12);
      break;
    case Regime::kHugeInt:
      for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t c = 0; c < cols; ++c) {
          m.At(r, c) = Rational(
              RandomBigSigned(rng, 4 + static_cast<int>(rng->Below(5))));
        }
      }
      break;
    case Regime::kLowRank: {
      const std::size_t inner = 1 + rng->Below(3);  // rank <= inner.
      const Mat left = RandomIntMatrix(rng, rows, inner, -5, 5);
      const Mat right = RandomIntMatrix(rng, inner, cols, -5, 5);
      m = left.Multiply(right);
      break;
    }
    case Regime::kHugeLowRank: {
      const std::size_t inner = 1 + rng->Below(2);
      for (std::size_t r = 0; r < rows; ++r) {
        if (r < inner) {
          for (std::size_t c = 0; c < cols; ++c) {
            m.At(r, c) = Rational(
                RandomBigSigned(rng, 4 + static_cast<int>(rng->Below(4))));
          }
        } else {
          for (std::size_t c = 0; c < cols; ++c) {
            Rational sum;
            for (std::size_t i = 0; i < inner; ++i) {
              sum += m.At(i, c) * Rational(rng->Range(-3, 3));
            }
            m.At(r, c) = sum;
          }
        }
      }
      break;
    }
    case Regime::kDuplicatedRows:
      for (std::size_t r = 0; r < rows; ++r) {
        if (r > 0 && rng->Chance(1, 2)) {
          const std::size_t src = rng->Below(r);
          const Rational scale(rng->Range(-3, 3));
          for (std::size_t c = 0; c < cols; ++c) {
            m.At(r, c) = m.At(src, c) * scale;
          }
        } else {
          for (std::size_t c = 0; c < cols; ++c) {
            m.At(r, c) = Rational(rng->Range(-6, 6));
          }
        }
      }
      break;
    case Regime::kUnluckyPrime: {
      // Identically zero mod the probes' first prime.
      const Rational p(
          BigInt(static_cast<std::int64_t>(ModularPrimes()[0])));
      for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t c = 0; c < cols; ++c) {
          m.At(r, c) = p * Rational(rng->Range(-4, 4));
        }
      }
      break;
    }
  }
  return m;
}

// --- Differential-harness knobs (the nightly CI job drives these) --------

/// Iteration multiplier for the randomized differential suites: the
/// BAGDET_DIFF_ITERS environment variable when set to a positive integer,
/// else 1. The nightly CI job sets it to run the same suites at ~10× the
/// per-commit case count.
inline int DiffIterScale() {
  const char* value = std::getenv("BAGDET_DIFF_ITERS");
  if (value == nullptr) return 1;
  const int scale = std::atoi(value);
  return scale > 0 ? scale : 1;
}

/// Appends a failing seed to the file named by BAGDET_FAIL_SEED_FILE (no-
/// op when unset). CI uploads the file as an artifact so a nightly
/// failure is reproducible locally: rerun the suite with the recorded
/// seed.
inline void RecordFailureSeed(std::uint64_t seed) {
  const char* path = std::getenv("BAGDET_FAIL_SEED_FILE");
  if (path == nullptr) return;
  std::ofstream out(path, std::ios::app);
  out << seed << "\n";
}

}  // namespace testmat
}  // namespace bagdet

#endif  // BAGDET_TESTS_TEST_MATRICES_H_
