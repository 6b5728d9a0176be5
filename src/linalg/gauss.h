// bagdet: exact Gaussian elimination and the linear-algebra facts the paper
// relies on (Fact 5: orthogonal witnesses; Lemma 46: Vandermonde
// nonsingularity; span tests behind the Main Lemma 31).
//
// Modular dispatch: ReduceToRref, Rank, and IsNonsingular route through
// the certified multi-modular driver (linalg/modular_solve.h) whenever the
// matrix is big enough to benefit, falling back to plain exact elimination
// when the driver declines (unlucky primes, exhausted prime budget).
// Results are bit-for-bit identical either way — the driver verifies every
// lifted answer exactly before returning it, with a fresh-prime residual
// pre-check screening bad candidates in word-size arithmetic first.
// SolveLinearSystem, NullspaceBasis, TestSpanMembership, and
// OrthogonalWitness inherit the fast path through ReduceToRref;
// Determinant uses fraction-free Bareiss elimination for the dense-integer
// case. ReduceToRrefExact is the always-exact reference implementation
// (also the differential-test and benchmarking baseline).
//
// Inverse has one exact path, with no rational arithmetic until its last
// step: InverseFractionFree clears each row's denominators (N = D·M) and
// runs a fraction-free Gauss–Jordan elimination on [N | I] whose every
// division by the previous pivot is exact (Bareiss), giving integers R and
// d with N·R = d·I. Inverse then normalizes M⁻¹ = R·D / d once per entry.
// Its one pipeline caller, the SimplicialCone of the negative certificate,
// keeps R, D and d and never builds the rational inverse at all.
//
// Governance: the exact eliminations (ReduceToRrefExact,
// InverseFractionFree, hence Inverse, and DeterminantBareiss) force a
// deadline check on the current ExecContext once per pivot row, so a
// governed caller trips within one row of its deadline.

#ifndef BAGDET_LINALG_GAUSS_H_
#define BAGDET_LINALG_GAUSS_H_

#include <optional>
#include <vector>

#include "linalg/matrix.h"

namespace bagdet {

/// Result of reducing a matrix to reduced row echelon form.
struct Rref {
  Mat matrix;                      ///< The RREF itself.
  std::vector<std::size_t> pivots; ///< Pivot column per pivot row.
  std::size_t rank = 0;
};

/// Reduced row echelon form (modular fast path + exact fallback; see the
/// file comment).
Rref ReduceToRref(Mat m);

/// Reduced row echelon form via exact fraction arithmetic only — the
/// reference path every modular result is pinned against.
Rref ReduceToRrefExact(Mat m);

/// Rank of a matrix.
std::size_t Rank(const Mat& m);

/// True iff the square matrix is nonsingular.
bool IsNonsingular(const Mat& m);

/// Determinant of a square matrix. Dispatches to fraction-free Bareiss
/// elimination (linalg/modular_solve.h) for integer matrices; plain exact
/// elimination over Q otherwise.
Rational Determinant(Mat m);

/// The fraction-free inverse of a square nonsingular matrix M. With D the
/// diagonal of row denominator lcms, N = D·M is integral, and N·R = d·I for
/// the integer matrix R and the integer d > 0 held here (R = ±adj(N) and
/// d = |det N|). Hence M⁻¹ = R·D / d.
struct ScaledInverse {
  std::size_t n = 0;
  std::vector<BigInt> row_scales;  ///< D: lcm of each row's denominators.
  std::vector<BigInt> r;           ///< R, row-major n × n.
  BigInt d{1};                     ///< d > 0.

  const BigInt& R(std::size_t row, std::size_t col) const {
    return r[row * n + col];
  }
};

/// Fraction-free Gauss–Jordan elimination on [D·M | I] with Bareiss' exact
/// divisions by the previous pivot; std::nullopt when M is singular or not
/// square.
std::optional<ScaledInverse> InverseFractionFree(const Mat& m);

/// Inverse of a square nonsingular matrix: R·D / d from
/// InverseFractionFree; std::nullopt when singular or not square.
std::optional<Mat> Inverse(const Mat& m);

/// One solution x of A x = b, or std::nullopt when inconsistent. When the
/// system is underdetermined the free variables are set to zero.
std::optional<Vec> SolveLinearSystem(const Mat& a, const Vec& b);

/// Basis of the (right) nullspace { x : A x = 0 }.
std::vector<Vec> NullspaceBasis(const Mat& a);

/// Result of a span-membership test.
struct SpanMembership {
  bool in_span = false;
  /// When in_span: coefficients c with target = sum_i c[i] * basis[i].
  Vec coefficients;
};

/// Tests whether `target` lies in span_Q(basis) and returns witness
/// coefficients when it does. The basis may be linearly dependent.
SpanMembership TestSpanMembership(const std::vector<Vec>& basis,
                                  const Vec& target);

/// Fact 5 made effective: given vectors u_1..u_n and u with
/// u ∉ span{u_i}, returns an *integer* vector z orthogonal to every u_i
/// but not to u. Returns std::nullopt when u ∈ span{u_i} (no such z).
std::optional<Vec> OrthogonalWitness(const std::vector<Vec>& basis,
                                     const Vec& target);

/// Builds the Vandermonde matrix A(i,j) = nodes[i]^j (j = 0..n-1). By
/// Lemma 46 it is nonsingular whenever the nodes are pairwise distinct.
Mat Vandermonde(const std::vector<Rational>& nodes);

}  // namespace bagdet

#endif  // BAGDET_LINALG_GAUSS_H_
