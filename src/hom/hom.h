// bagdet: homomorphism counting and existence.
//
// |hom(A, D)| is the central quantity of the paper: boolean CQ answers are
// hom counts (Section 2.1), the evaluation matrix of Definition 37 is a
// hom-count matrix, and set-semantics containment is hom existence. The
// engine decomposes A into connected components (Lemma 4(5)) and counts
// each component by backtracking joins over the facts of D.

#ifndef BAGDET_HOM_HOM_H_
#define BAGDET_HOM_HOM_H_

#include <cstddef>
#include <functional>
#include <vector>

#include "structs/structure.h"
#include "util/bigint.h"
#include "util/tuning.h"

namespace bagdet {

/// Knobs for the counting engine, which counts each connected component
/// with one serial DP. The defaults are the production configuration; the
/// ablation baselines in bench_hom flip them off to measure each layer
/// (use_domains=false + order_search_max_atoms=0 is the PR-1 engine).
/// Every machine-dependent threshold defaults from the active
/// TuningProfile (util/tuning.h) — a calibration profile moves the
/// crossovers, an explicitly assigned field overrides the profile for that
/// call, and every setting is dispatch-only (counts are bit-identical
/// under any combination).
struct DpOptions {
  /// Per-variable candidate domains (hom/domain.h): SVOBitsets seeded from
  /// the positional index's occupancy masks, pre-pruned to an atom-support
  /// fixpoint, and consulted on every candidate fact so infeasible
  /// subtrees die before table insertion. The Matcher additionally
  /// propagates domains as variables bind.
  bool use_domains = true;

  /// The domain layer has a fixed cost (model construction + the
  /// atom-support fixpoint) that tiny instances never amortize, so it only
  /// engages when the uniform-weight work estimate of the plan (sum over
  /// steps of the domain-product table bound) reaches this many units AND
  /// at least 4× the fixpoint's own bucket-scan cost. The default is the
  /// measured crossover on the small-structure fast path
  /// (BM_SmallStructureFastPath). 0 always builds domains.
  double domain_min_work = static_cast<double>(Tuning().domain_min_work);

  /// The exact subset-DP elimination-order search (scored by the
  /// induced-width/domain-product table bound) runs during the
  /// pruned-domain re-plan when a component has 3..this many atoms, at
  /// most 64 variables, and the plan's estimated work is at least 8× the
  /// search's own 2^atoms·atoms cost — the search never spends more than
  /// it can save, and without pruned domains its score degenerates to
  /// induced width where the greedy min-new-live-vars order is already
  /// near-optimal. 0 disables the search entirely. The hard cap is 16
  /// atoms (the subset table stays a few MB; see ROADMAP for the
  /// measured crossover).
  std::size_t order_search_max_atoms = Tuning().order_search_max_atoms;
};

/// Number of homomorphisms from `from` to `to`. Exact (BigInt); note
/// |hom(∅, D)| = 1.
BigInt CountHoms(const Structure& from, const Structure& to);

/// Same, with explicit engine knobs.
BigInt CountHoms(const Structure& from, const Structure& to,
                 const DpOptions& options);

/// True iff at least one homomorphism exists (early-exit search).
bool ExistsHom(const Structure& from, const Structure& to);

/// Number of injective homomorphisms from `from` to `to`.
BigInt CountInjectiveHoms(const Structure& from, const Structure& to);

/// Reference implementation that enumerates all |dom(to)|^|dom(from)|
/// mappings. For cross-validation in tests only.
BigInt CountHomsNaive(const Structure& from, const Structure& to);

/// Counting by backtracking enumeration (one visit per homomorphism).
/// Exponential in the *count* — kept as the ablation baseline against the
/// default variable-elimination counter (see bench_ablation) and for
/// cross-validation when counts are small.
BigInt CountHomsByEnumeration(const Structure& from, const Structure& to);

/// Enumerates homomorphisms, invoking `visit` with the image of every
/// domain element of `from` (indexed by element). Stops early when `visit`
/// returns false. Intended for answer-multiset construction (queries with
/// free variables). Returns false iff stopped early.
bool EnumerateHoms(const Structure& from, const Structure& to,
                   const std::function<bool(const std::vector<Element>&)>& visit);

}  // namespace bagdet

#endif  // BAGDET_HOM_HOM_H_
