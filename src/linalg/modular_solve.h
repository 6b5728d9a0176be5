// bagdet: single-prime modular probes and the fraction-free Bareiss
// determinant.
//
// Exact elimination over Q (linalg/gauss.h) is the only path that returns
// an RREF, a rank that is not already saturated, or an inverse. The probes
// here answer the two questions one word-size elimination over Z/p can
// settle outright: rank_p(A) <= rank_Q(A) for every prime p that divides no
// denominator, so a probe rank reaching min(rows, cols) certifies full
// rank, and det(A) mod p != 0 certifies det(A) != 0. An inconclusive probe
// (A is rank-deficient, or the prime is unlucky) hands the question to the
// exact path, so no answer ever depends on the choice of prime. The one
// big-entry matrix of the pipeline, the good-basis evaluation matrix of
// radix-sized hom counts, is checked this way. See README.md ("Modular
// linear algebra").

#ifndef BAGDET_LINALG_MODULAR_SOLVE_H_
#define BAGDET_LINALG_MODULAR_SOLVE_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "linalg/matrix.h"

namespace bagdet {

/// The built-in prime table: the 40 largest primes below 2^62, descending.
/// The probes below draw from it unless a test injects its own list
/// (entries must be odd primes < 2^62).
const std::vector<std::uint64_t>& ModularPrimes();

/// Single-prime rank probe. rank_p(A) <= rank_Q(A) for every prime that
/// does not divide a denominator, so the returned value is a *certified
/// lower bound* on the exact rank — and when it reaches min(rows, cols)
/// the exact rank is known without any exact arithmetic. Tries the first 4
/// primes of `primes` and returns the rank mod the first usable one;
/// std::nullopt when every tried prime divides a denominator.
std::optional<std::size_t> ModularRankLowerBound(
    const Mat& m,
    const std::vector<std::uint64_t>& primes = ModularPrimes());

/// Single-prime nonsingularity probe for a square matrix: det(A) mod p
/// being nonzero certifies det(A) != 0. Tries the first 2 primes of
/// `primes`. Returns true on certificate, std::nullopt when inconclusive
/// (det vanishes mod the probed primes — either A is singular or the
/// primes are unlucky).
std::optional<bool> ModularNonsingularProbe(
    const Mat& m,
    const std::vector<std::uint64_t>& primes = ModularPrimes());

/// Fraction-free Bareiss determinant: clears row denominators, runs
/// elimination over Z with exact divisions by the previous pivot, and
/// rescales. Intermediate values are bounded by minors of the cleared
/// matrix — no rational normalization churn. Exact for every input; the preferred path for the
/// dense-integer matrices the pipeline produces. Forces a deadline check
/// on the current ExecContext once per pivot row ("linalg.exact").
Rational DeterminantBareiss(const Mat& m);

}  // namespace bagdet

#endif  // BAGDET_LINALG_MODULAR_SOLVE_H_
