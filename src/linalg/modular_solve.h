// bagdet: certified multi-modular linear algebra driver.
//
// The exact elimination in linalg/gauss.cpp stays the semantic ground
// truth, but its intermediate rationals blow up super-linearly when the
// matrix entries are the pipeline's astronomically large hom counts. The
// driver here computes the same answers the fast way computer-algebra
// systems do:
//
//   1. eliminate over Z/p for one or more 62-bit primes (linalg/modmat.h)
//      — batched across the global ThreadPool (util/thread_pool.h), since
//      the per-prime eliminations are independent; the CRT fold below
//      always runs in prime order, keeping results bit-identical to the
//      serial path at any thread count,
//   2. combine residues by CRT and lift to Q by rational reconstruction
//      (Wang's algorithm),
//   3. **screen the lifted candidate mod fresh primes** — primes disjoint
//      from the reconstruction modulus, Freivalds-style, so a candidate
//      the reconstruction converged on wrongly is rejected in word-size
//      arithmetic (the reconstruction primes themselves satisfy the
//      residual identities by CRT construction and would never reject),
//   4. **verify the surviving answer exactly** — a per-row residual check
//      plus the mod-p rank lower bound pins the unique rational RREF —
//   5. and report failure (unlucky primes, prime budget exhausted) so the
//      caller can fall back to plain exact elimination.
//
// Every result returned here is therefore bit-for-bit identical to the
// exact path; speed never trades against the paper's correctness
// guarantees. See README.md ("Modular linear algebra") for the design.

#ifndef BAGDET_LINALG_MODULAR_SOLVE_H_
#define BAGDET_LINALG_MODULAR_SOLVE_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "linalg/gauss.h"
#include "linalg/matrix.h"
#include "util/exec_context.h"
#include "util/tuning.h"

namespace bagdet {

/// Counters the driver fills in when ModularOptions::stats is set — the
/// observable record of how much work stayed in word-size arithmetic.
/// Written only by the calling (fold) thread; fan-out workers never touch
/// it, so a stack-local instance needs no synchronization.
struct ModularStats {
  /// Rational-reconstruction attempts (most fail early with "not enough
  /// primes yet" before any candidate exists).
  std::uint64_t lift_attempts = 0;
  /// Lifted candidates killed by the fresh-prime residual pre-check —
  /// rejections that cost word-size arithmetic instead of an exact pass.
  std::uint64_t precheck_rejects = 0;
  /// Full exact residual certificates run. With the pre-check on, this is
  /// at most one per accepted result on any non-adversarial input.
  std::uint64_t exact_verifies = 0;
  /// Primes folded into the CRT modulus.
  std::uint64_t primes_used = 0;
  /// The driver exhausted its prime budget (or the built-in prime table's
  /// capacity, or an injected prime list) without a verified lift and
  /// declined, handing the call to the exact fallback. Never loops, never
  /// asserts — this counter is the observable record of the exhaustion.
  std::uint64_t budget_exhausted = 0;
};

/// Tuning knobs for the modular driver. Defaults are production settings;
/// the prime-injection seam exists for tests (forcing unlucky primes) and
/// benchmarks (pinning prime counts).
struct ModularOptions {
  /// Hard cap on the number of primes tried; 0 means "auto": enough
  /// primes that the CRT modulus provably covers the worst-case RREF
  /// entry size for the given matrix (then reconstruction failure implies
  /// a logic error, and the exact fallback still guards the result).
  std::size_t max_primes = 0;
  /// When set, primes are drawn from this list (in order) instead of the
  /// built-in 62-bit prime sequence. Entries must be odd primes < 2^62.
  const std::vector<std::uint64_t>* primes = nullptr;
  /// Parallelism for TryModularRref's fan-out stages — the per-prime
  /// eliminations, the lift's per-entry rational reconstructions, and the
  /// rows of the exact verification certificate (which dominates the cost
  /// on large matrices): 0 uses the global ThreadPool's full width, 1
  /// forces the serial path, other values cap the worker fan-out. An
  /// explicit value is always honored; auto mode (0) keeps matrices under
  /// 64 cells serial, where the fan-out handshake costs more than it
  /// saves. The
  /// result is bit-identical at every setting — primes are eliminated in
  /// batches but *folded* (consensus signature, CRT accumulation, lift
  /// attempts) strictly in prime order, exactly the sequence the serial
  /// path executes, and the lift/verify stages are pure per-entry/per-row
  /// functions of that fold's state. The default comes from the active
  /// TuningProfile (stock profile: 0 = auto); assigning the field
  /// overrides the profile for this call.
  std::size_t num_threads = Tuning().modular_num_threads;
  /// Number of *fresh* primes — disjoint from every prime folded into the
  /// reconstruction modulus — that the verification stage screens a lifted
  /// candidate against before the exact rational pass runs (0 disables the
  /// screen). A nonzero residual mod any usable fresh prime certifies the
  /// candidate wrong in word-size arithmetic; the exact pass runs only
  /// when every screen passes, turning it into a last-mile confirmation
  /// instead of the rejection workhorse. Freshness is what gives the
  /// screen power: the reconstruction primes satisfy the residual
  /// identities by CRT construction, so screening against them is vacuous.
  std::size_t verify_precheck_primes = 2;
  /// When set, pre-check primes are drawn from this list (in order)
  /// instead of the built-in sequence, with NO disjointness filtering —
  /// the test seam for forcing adversarial screens (e.g. re-using a
  /// reconstruction prime so a bad candidate sails through the pre-check
  /// and only the exact pass can reject it). Entries that divide a
  /// denominator are skipped either way.
  const std::vector<std::uint64_t>* verify_primes = nullptr;
  /// When non-null, the driver accumulates work counters here (see
  /// ModularStats). Not reset on entry; callers zero it themselves.
  ModularStats* stats = nullptr;
};

/// First `count` primes of the built-in sequence (largest primes below
/// 2^62, descending), extending the table on demand.
const std::vector<std::uint64_t>& ModularPrimes(std::size_t count);

/// Multi-modular RREF with certified rational reconstruction. Returns the
/// exact reduced row echelon form (identical to ReduceToRrefExact) or
/// std::nullopt when verification never succeeds within the prime budget.
std::optional<Rref> TryModularRref(const Mat& m,
                                   const ModularOptions& options = {});

/// Outcome of a governed driver run. `rref` can be disengaged with an ok
/// status (the driver declined within budget — callers fall back to the
/// exact path exactly as with TryModularRref) or because a limit tripped
/// (status carries the kernel/bytes/elapsed of the trip).
struct GovernedRref {
  ExecStatus status;
  std::optional<Rref> rref;
};

/// TryModularRref under `exec`: the per-prime fan-out, CRT fold, lift and
/// verification stages all checkpoint against the context's deadline,
/// cancellation token, and memory budget, and a trip is returned as a
/// typed status instead of escaping as an exception. Bit-identical to
/// TryModularRref whenever no limit trips.
GovernedRref TryModularRrefGoverned(const Mat& m, ExecContext& exec,
                                    const ModularOptions& options = {});

/// Freivalds-style modular screen of an RREF candidate: evaluates the
/// residual identities of the exact certificate — every row of `a` equals
/// the combination of candidate pivot rows weighted by its own
/// pivot-column entries — mod each prime in `primes`. Returns false only
/// on a *certified* mismatch (some residual is nonzero mod a usable
/// prime, hence nonzero over Q). Primes dividing any denominator of `a`
/// or the candidate are unusable and skipped. `true` means "consistent
/// mod every usable prime", which is NOT a proof: callers must still run
/// the exact pass before returning the candidate, and must draw `primes`
/// disjoint from the reconstruction modulus for the screen to have any
/// rejection power (see ModularOptions::verify_precheck_primes).
bool ModularResidualPreCheck(const Mat& a, const Rref& cand,
                             const std::vector<std::uint64_t>& primes);

/// Single-prime rank probe. rank_p(A) <= rank_Q(A) for every prime that
/// does not divide a denominator, so the returned value is a *certified
/// lower bound* on the exact rank — and when it reaches min(rows, cols)
/// the exact rank is known without any exact arithmetic. Returns
/// std::nullopt when no usable prime is found (denominators vanish).
std::optional<std::size_t> ModularRankLowerBound(
    const Mat& m, const ModularOptions& options = {});

/// Single-prime nonsingularity probe for a square matrix: det(A) mod p
/// being nonzero certifies det(A) != 0. Returns true on certificate,
/// std::nullopt when inconclusive (det vanishes mod the probed primes —
/// either A is singular or the primes are unlucky).
std::optional<bool> ModularNonsingularProbe(const Mat& m,
                                            const ModularOptions& options = {});

/// Fraction-free Bareiss determinant: clears row denominators, runs
/// two-step-exact-division elimination over Z, and rescales. Intermediate
/// values are bounded by minors of the cleared matrix — no rational
/// normalization churn. Exact for every input; the preferred path for the
/// dense-integer matrices the pipeline produces. Forces a deadline check
/// on the current ExecContext once per pivot row ("linalg.exact").
Rational DeterminantBareiss(const Mat& m);

}  // namespace bagdet

#endif  // BAGDET_LINALG_MODULAR_SOLVE_H_
