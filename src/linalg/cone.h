// bagdet: the convex cone 𝒞 = M(R^k_{≥0}) of Definition 52 and the
// rational-interior-point machinery of Corollary 8 — the geometric stage
// on which the counterexample of Lemma 56 is built.
//
// The cone keeps M⁻¹ in fraction-free form (linalg/gauss.h): integers R,
// D and d > 0 with M⁻¹ = R·D / d, so d·M⁻¹u = R·D·u is an integer mat-vec
// for an integer vector u. Coordinates clears a rational point's
// denominators, runs that mat-vec, and normalizes to Rational once, at the
// end; NonNegativeCoordinates is the same test on an integer vector,
// stopping at the first negative row. Only this class knows the format.

#ifndef BAGDET_LINALG_CONE_H_
#define BAGDET_LINALG_CONE_H_

#include <optional>
#include <vector>

#include "linalg/gauss.h"
#include "linalg/matrix.h"

namespace bagdet {

/// The simplicial cone spanned by the columns of a *nonsingular* square
/// matrix M: 𝒞 = { M x : x ≥ 0 }. Nonsingularity makes membership a
/// single linear solve (and gives the cone nonempty interior, Corollary 8).
class SimplicialCone {
 public:
  /// Throws std::invalid_argument when `m` is singular or not square.
  explicit SimplicialCone(Mat m);

  const Mat& matrix() const { return matrix_; }
  std::size_t Dimension() const { return matrix_.rows(); }

  /// Preimage coordinates M⁻¹ p.
  Vec Coordinates(const Vec& point) const;

  /// M⁻¹ u for an integer vector u when it is ≥ 0 (u ∈ 𝒞), std::nullopt
  /// otherwise. Integer arithmetic only until u is accepted; a rejected u
  /// costs the mat-vec rows up to the first negative one.
  std::optional<Vec> NonNegativeCoordinates(
      const std::vector<BigInt>& point) const;

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
  /// R·D·u = d·M⁻¹u for an integer vector u. With `nonnegative_only`,
  /// std::nullopt at the first negative row.
  std::optional<std::vector<BigInt>> ScaledCoordinates(
      const std::vector<BigInt>& point, bool nonnegative_only) const;

  Mat matrix_;
  ScaledInverse inverse_;
};

}  // namespace bagdet

#endif  // BAGDET_LINALG_CONE_H_
