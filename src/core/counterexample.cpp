#include "core/counterexample.h"

#include <stdexcept>

#include "linalg/cone.h"
#include "linalg/gauss.h"
#include "util/exec_context.h"

namespace bagdet {

namespace {

/// Entrywise t^z(i) for an integer vector z (Definition 48(3), restricted
/// to the integer exponents the proof of Lemma 56 needs for rationality).
Vec PowVector(const Rational& t, const Vec& z) {
  Vec result(z.size());
  for (std::size_t i = 0; i < z.size(); ++i) {
    if (!z[i].IsInteger()) {
      throw std::logic_error("PowVector: non-integer exponent");
    }
    result[i] = Rational::Pow(t, z[i].numerator().ToInt64());
  }
  return result;
}

}  // namespace

BagCounterexample SynthesizeCounterexample(const InstanceAnalysis& analysis,
                                           const GoodBasis& basis) {
  const std::size_t k = analysis.basis_queries.size();
  BagCounterexample result;
  result.basis_structures = basis.structures;
  result.evaluation_matrix = basis.evaluation;

  // Fact 5: integer z with ⟨z, v⃗⟩ = 0 for all v ∈ V and ⟨z, q⃗⟩ ≠ 0.
  std::optional<Vec> z =
      OrthogonalWitness(analysis.view_vectors, analysis.query_vector);
  if (!z.has_value()) {
    throw std::logic_error(
        "SynthesizeCounterexample: query vector lies in the view span");
  }
  result.z = std::move(*z);

  // The cone C = M(R^k_{>=0}) of Definition 52; nonsingularity of the good
  // basis makes it simplicial with nonempty interior (Corollary 8).
  SimplicialCone cone(basis.evaluation);

  // Interior point p = M·𝟙.
  Vec ones(k);
  for (std::size_t i = 0; i < k; ++i) ones[i] = Rational(1);
  Vec p = cone.InteriorPoint();

  // Lemma 57: walk t toward 1 until p′ = t^z ∘ p falls back inside C.
  // Continuity at t = 1 (coordinates (𝟙) are strictly positive)
  // guarantees termination.
  Vec alpha_prime;
  Rational t;
  for (std::int64_t j = 1;; ++j) {
    // One forced deadline check per step: each step is a full exact
    // mat-vec over ever-longer rationals, far costlier than a clock read.
    if (ExecContext* ctx = CurrentExecContext()) ctx->CheckNow("core.walk");
    t = Rational(1) + Rational(BigInt(1), BigInt::Pow(BigInt(2), j));
    Vec p_prime = Vec::Hadamard(PowVector(t, result.z), p);
    alpha_prime = cone.Coordinates(p_prime);
    if (alpha_prime.IsNonNegative()) break;
    if (j > 4096) {
      throw std::logic_error(
          "SynthesizeCounterexample: perturbation search failed to converge");
    }
  }
  result.t = t;

  // Lemma 55: clear denominators so both coordinate vectors are natural.
  Rational c_prime{alpha_prime.CommonDenominator()};
  result.coeffs_d = ones * c_prime;
  result.coeffs_d_prime = alpha_prime * c_prime;

  auto build = [&](const Vec& coeffs) {
    std::vector<StructureExpr> terms;
    for (std::size_t i = 0; i < k; ++i) {
      terms.push_back(
          StructureExpr::Scalar(coeffs[i].numerator(), basis.structures[i]));
    }
    return StructureExpr::Sum(std::move(terms),
                              analysis.query.schema_ptr());
  };
  result.d = build(result.coeffs_d);
  result.d_prime = build(result.coeffs_d_prime);
  return result;
}

}  // namespace bagdet
