// bagdet: the convex cone 𝒞 = M(R^k_{≥0}) of Definition 52 and the
// rational-interior-point machinery of Corollary 8 — the geometric stage
// on which the counterexample of Lemma 56 is built.
//
// The cone is spanned by the columns of a good basis' evaluation matrix,
// which Lemma 40 (Steps 3–4) builds as a scaled Vandermonde matrix
// M = diag(q)·V(b): M(i,j) = q_i·b_i^j with integers q_i ≠ 0 and pairwise
// distinct integer nodes b_i, nonsingular by Lemma 46. Solving M x = u is
// then polynomial interpolation: x holds the coefficients of the polynomial
// of degree < k taking the value u_i / q_i at b_i. With
//   P(X) = Π_m (X − b_m),   Q_i = P / (X − b_i)   (synthetic division),
//   s_i = q_i·Π_{m≠i}(b_i − b_m),   L = lcm_i |s_i|,
// Lagrange's formula gives L·M⁻¹u = C·diag(L/s_i)·u, where C(j,i) is the
// coefficient of X^j in Q_i. The cone keeps C, the column scales L/s_i and
// L > 0 — all integers, built in O(k²) operations with no elimination — so
// L·M⁻¹u is an integer mat-vec for an integer vector u. Coordinates clears
// a rational point's denominators, runs that mat-vec, and normalizes to
// Rational once, at the end. A GroupedPoint precomputes the mat-vec per
// group of input entries, so that the coordinates of a reweighted point
// (NonNegativeCombination, the Lemma-57 walk's step) cost one product per
// row and group. Only this class knows the format.
//
// Governance: the constructor's structure check and Lagrange build, and
// the coordinate mat-vecs (Coordinates, Group), force a deadline check on
// the current ExecContext once per row, kernel "linalg.cone".

#ifndef BAGDET_LINALG_CONE_H_
#define BAGDET_LINALG_CONE_H_

#include <optional>
#include <vector>

#include "linalg/matrix.h"

namespace bagdet {

/// The simplicial cone spanned by the columns of a scaled Vandermonde
/// matrix M = diag(q)·V(b): 𝒞 = { M x : x ≥ 0 }. Nonsingularity makes
/// membership a single linear solve (and gives the cone nonempty interior,
/// Corollary 8).
class SimplicialCone {
 public:
  /// An integer point u = Σ_g f_g·u_g split into fixed parts u_g — u_g
  /// holds the entries of u in group g and zeros elsewhere — whose scaled
  /// coordinates L·M⁻¹u_g are computed once (SimplicialCone::Group).
  struct GroupedPoint {
    std::size_t groups = 0;
    std::vector<BigInt> columns;  ///< L·M⁻¹u_g, row-major k × groups.
  };

  /// Reads q_i = M(i,0) and b_i = M(i,1) / q_i and checks every entry:
  /// M(i,j) = q_i·b_i^j exactly, with integers q_i ≠ 0 and b_i, the b_i
  /// pairwise distinct. Throws std::invalid_argument for any other matrix
  /// (not square, non-integer, singular or not of that shape).
  explicit SimplicialCone(Mat m);

  const Mat& matrix() const { return matrix_; }
  std::size_t Dimension() const { return matrix_.rows(); }

  /// Preimage coordinates M⁻¹ p.
  Vec Coordinates(const Vec& point) const;

  /// Splits the integer vector `point` by `group_of[i]` < `groups` and
  /// computes each part's scaled coordinates.
  GroupedPoint Group(const std::vector<BigInt>& point,
                     const std::vector<std::size_t>& group_of,
                     std::size_t groups) const;

  /// scale·M⁻¹u for u = Σ_g weights[g]·u_g when M⁻¹u ≥ 0 (u ∈ 𝒞),
  /// std::nullopt otherwise; `scale` must be positive. Integer arithmetic
  /// only until u is accepted, and a rejected u costs the rows up to the
  /// first negative one. An accepted u normalizes each coordinate once.
  std::optional<Vec> NonNegativeCombination(const GroupedPoint& point,
                                            const std::vector<BigInt>& weights,
                                            const Rational& scale) const;

  /// p ∈ 𝒞 ⇔ M⁻¹ p ≥ 0.
  bool Contains(const Vec& point) const {
    return Coordinates(point).IsNonNegative();
  }

  /// p ∈ int 𝒞 ⇔ M⁻¹ p > 0 componentwise.
  bool StrictlyContains(const Vec& point) const;

  /// A rational point in the interior: M·𝟙 (Corollary 8 — the image of the
  /// strictly positive vector 𝟙 under a nonsingular map lies in the
  /// interior of the image of R^k_{≥0}).
  Vec InteriorPoint() const;

  /// Lemma 55 made explicit: for p ∈ 𝒞 ∩ Q^k, the least c ∈ N+ with
  /// c·p ∈ 𝒫 = { M u : u ∈ N^k } — the common denominator of M⁻¹ p.
  /// Returns std::nullopt when p ∉ 𝒞.
  std::optional<BigInt> ScaleIntoLattice(const Vec& point) const;

 private:
  /// C(j,i) = [X^j] Q_i.
  const BigInt& Lagrange(std::size_t j, std::size_t i) const {
    return lagrange_[j * Dimension() + i];
  }

  Mat matrix_;
  std::vector<BigInt> lagrange_;       ///< C, row-major k × k.
  std::vector<BigInt> column_scales_;  ///< L / s_i.
  BigInt lcm_{1};                      ///< L > 0.
};

}  // namespace bagdet

#endif  // BAGDET_LINALG_CONE_H_
