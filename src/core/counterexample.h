// bagdet: counterexample synthesis (Lemmas 41, 55–57).
//
// Given q⃗ ∉ span{v⃗ : v ∈ V} and a good basis S, produces structures
// D, D′ ∈ span_ℕ(S) with equal view answers and different q-answers:
//   z  — an integer vector orthogonal to every v⃗ but not to q⃗ (Fact 5);
//   p  = M·𝟙, a rational point in the interior of the cone 𝒞 = M(R^k_{≥0})
//        (Corollary 8; interior because M is nonsingular and 𝟙 > 0);
//   t  — a rational ≠ 1 close enough to 1 that p′ = t^z ∘ p stays in 𝒞
//        (Lemma 57, found by halving t−1);
//   c′ — a denominator-clearing factor (Lemma 55), giving natural
//        coordinate vectors c′·M⁻¹p = c′·𝟙 and c′·M⁻¹p′.
// Then every v ∈ V satisfies v(D) = v(D′) because ⟨z, v⃗⟩ = 0 makes the
// answers differ by the factor t^⟨z,v⃗⟩ = 1, while q picks up t^⟨z,q⃗⟩ ≠ 1
// (Observation 49).
//
// The Lemma-57 walk runs on integers. With t = a/b, a = 2^j + 1, b = 2^j,
// and p = y / L for an integer vector y, the vector
// P′_i = a^(z_i − z_min) · b^(z_max − z_i) · y_i is a positive integer
// multiple of p′ = t^z ∘ p, so p′ ∈ 𝒞 ⇔ P′ ∈ 𝒞. Entries with equal z_i
// share their factor, so the walk groups y by the distinct values of z
// (three classes on the cycle ramps) and the cone precomputes the
// coordinates of each class once (SimplicialCone::Group, linalg/cone.h). A
// step then weighs those per-class coordinates by the class factors — k
// products per class instead of a perturbation plus a k × k mat-vec — and
// stops at the first negative row. The walk takes the first j whose
// coordinates are all ≥ 0; α′ = M⁻¹p′ becomes a Rational once, for that j.

#ifndef BAGDET_CORE_COUNTEREXAMPLE_H_
#define BAGDET_CORE_COUNTEREXAMPLE_H_

#include <cstdint>
#include <optional>

#include "core/basis.h"
#include "core/determinacy.h"
#include "linalg/cone.h"
#include "util/exec_context.h"

namespace bagdet {

/// Outcome of the Lemma-57 walk. When `status.ok()`, `t` = (2^j + 1)/2^j
/// for the least j ≥ 1 with t^z ∘ p ∈ 𝒞, and `coordinates` = M⁻¹(t^z ∘ p).
/// When no j ≤ kMaxWalkSteps qualifies (p on the boundary of 𝒞, pushed out
/// by every perturbation), `status` is kResourceExhausted in "core.walk".
struct PerturbationWalk {
  /// The last j tried. 4097 = 2^12 + 1 is the reach of the original
  /// rational walk, which gave up only after testing j = 4097.
  static constexpr std::int64_t kMaxWalkSteps = 4097;

  ExecStatus status;
  Rational t;
  Vec coordinates;
};

/// Walks t = (2^j + 1)/2^j toward 1 until t^z ∘ p falls inside `cone`.
/// `z` must be integral (throws std::logic_error otherwise). Forces a
/// deadline check on the current ExecContext before grouping and once per
/// step ("core.walk").
PerturbationWalk WalkIntoCone(const SimplicialCone& cone, const Vec& p,
                              const Vec& z);

/// Outcome of TrySynthesizeCounterexample: `counterexample` is engaged iff
/// `status.ok()`. The only non-ok status is the walk's kResourceExhausted
/// in "core.walk".
struct CounterexampleOutcome {
  std::optional<BagCounterexample> counterexample;
  ExecStatus status;
};

/// Synthesizes the counterexample. Preconditions: the analysis's query
/// vector is outside the span of the view vectors, and `basis` is good.
/// Throws std::logic_error when preconditions do not hold.
CounterexampleOutcome TrySynthesizeCounterexample(
    const InstanceAnalysis& analysis, const GoodBasis& basis);

/// TrySynthesizeCounterexample, throwing std::logic_error on a non-ok
/// status as well.
BagCounterexample SynthesizeCounterexample(const InstanceAnalysis& analysis,
                                           const GoodBasis& basis);

}  // namespace bagdet

#endif  // BAGDET_CORE_COUNTEREXAMPLE_H_
