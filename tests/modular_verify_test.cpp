// Randomized differential suite for the verification fast path of the
// certified multi-modular driver (linalg/modular_solve.h):
//
//  * the fresh-prime residual pre-check must reject every perturbed RREF
//    candidate in word-size arithmetic, must accept the true RREF, and —
//    crucially — an adversarial candidate built to vanish mod the
//    screening primes must sail through the pre-check and be caught by
//    the exact pass (the soundness argument for why the exact last mile
//    can never be dropped).
//
// The suite is seeded; BAGDET_DIFF_ITERS scales the case counts (the
// nightly CI job runs ~10×) and failing seeds are appended to
// BAGDET_FAIL_SEED_FILE for artifact upload (tests/test_matrices.h).

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "linalg/gauss.h"
#include "linalg/matrix.h"
#include "linalg/modular_solve.h"
#include "test_matrices.h"
#include "util/bigint.h"
#include "util/rng.h"

namespace bagdet {
namespace {

/// Scope-exit seed recorder for the nightly artifact: appends `seed` to
/// BAGDET_FAIL_SEED_FILE when the enclosing test newly failed inside this
/// recorder's scope. A destructor (rather than a trailing statement)
/// catches ASSERT_* early returns as well as EXPECT_* fall-through — the
/// most severe failures are exactly the ones that abort the test body.
class SeedRecorder {
 public:
  explicit SeedRecorder(std::uint64_t seed)
      : seed_(seed), failed_before_(::testing::Test::HasFailure()) {}
  ~SeedRecorder() {
    if (::testing::Test::HasFailure() && !failed_before_) {
      testmat::RecordFailureSeed(seed_);
    }
  }
  SeedRecorder(const SeedRecorder&) = delete;
  SeedRecorder& operator=(const SeedRecorder&) = delete;

 private:
  std::uint64_t seed_;
  bool failed_before_;
};

/// A random matrix drawn from one of the shapes the pre-check suite
/// sweeps (dense small-int, small-rational, big-entry, exact-low-rank).
Mat RandomPreCheckMatrix(Rng* rng) {
  const std::size_t rows = 2 + rng->Below(6);
  const std::size_t cols = 2 + rng->Below(6);
  switch (rng->Below(4)) {
    case 0:
      return testmat::RandomIntMatrix(rng, rows, cols, -9, 9);
    case 1:
      return testmat::RandomRationalMatrix(rng, rows, cols, 9, 9);
    case 2:
      return testmat::RandomBigMatrix(rng, rows, cols, 3);
    default: {
      const std::size_t n = std::max(rows, static_cast<std::size_t>(3));
      return testmat::RandomBigLowRankMatrix(rng, n, 1 + rng->Below(2), 2);
    }
  }
}

TEST(ResidualPreCheckTest, AcceptsTrueRrefAndRejectsPerturbedCandidates) {
  const int cases = 120 * testmat::DiffIterScale();
  int perturbed_checked = 0;
  for (int i = 0; i < cases; ++i) {
    const std::uint64_t seed = 52000 + static_cast<std::uint64_t>(i);
    SeedRecorder recorder(seed);
    Rng rng(seed);
    Mat m = RandomPreCheckMatrix(&rng);
    Rref exact = ReduceToRrefExact(m);
    const std::vector<std::uint64_t> screen = {ModularPrimes(2)[0],
                                               ModularPrimes(2)[1]};
    // The true RREF always passes the screen.
    EXPECT_TRUE(ModularResidualPreCheck(m, exact, screen)) << "seed " << seed;

    // Any perturbation of the nontrivial block is a certified mismatch:
    // adding 1 to an entry changes the residual by a pivot-column
    // coefficient that is nonzero for some row, and 1 is nonzero mod
    // every 62-bit prime.
    if (exact.rank > 0 && exact.rank < m.cols()) {
      Rref bad = exact;
      std::size_t free_col = m.cols();
      std::size_t next_pivot = 0;
      for (std::size_t c = 0; c < m.cols(); ++c) {
        if (next_pivot < bad.pivots.size() && bad.pivots[next_pivot] == c) {
          ++next_pivot;
        } else {
          free_col = c;
          break;
        }
      }
      ASSERT_LT(free_col, m.cols());
      const std::size_t row = rng.Below(bad.rank);
      bad.matrix.At(row, free_col) += Rational(1);
      EXPECT_FALSE(ModularResidualPreCheck(m, bad, screen)) << "seed " << seed;
      ++perturbed_checked;
    }
  }
  EXPECT_GT(perturbed_checked, cases / 3);
}

TEST(ResidualPreCheckTest, AdversarialCandidatePassesCollidingPrimesOnly) {
  // A candidate perturbed by a multiple of q1·q2 has residuals that
  // vanish mod q1 and q2 — the screen with exactly those primes is blind
  // to it, and only genuinely fresh primes (or the exact pass) can
  // reject. This is why the driver (a) draws screening primes disjoint
  // from the reconstruction modulus, whose primes are "colliding" by CRT
  // construction, and (b) never returns a candidate on the screen's word
  // alone.
  const int cases = 10 * testmat::DiffIterScale();
  const std::vector<std::uint64_t>& primes = ModularPrimes(4);
  const BigInt collision =
      BigInt(static_cast<std::int64_t>(primes[0])) *
      BigInt(static_cast<std::int64_t>(primes[1]));
  for (int i = 0; i < cases; ++i) {
    const std::uint64_t seed = 53000 + static_cast<std::uint64_t>(i);
    SeedRecorder recorder(seed);
    Rng rng(seed);
    Mat m = testmat::RandomIntMatrix(&rng, 3 + rng.Below(3), 4 + rng.Below(3),
                                     -9, 9);
    Rref exact = ReduceToRrefExact(m);
    if (exact.rank == 0 || exact.rank == m.cols()) continue;
    Rref bad = exact;
    std::size_t free_col = m.cols();
    std::size_t next_pivot = 0;
    for (std::size_t c = 0; c < m.cols(); ++c) {
      if (next_pivot < bad.pivots.size() && bad.pivots[next_pivot] == c) {
        ++next_pivot;
      } else {
        free_col = c;
        break;
      }
    }
    ASSERT_LT(free_col, m.cols());
    bad.matrix.At(0, free_col) += Rational(collision);

    const std::vector<std::uint64_t> colliding = {primes[0], primes[1]};
    const std::vector<std::uint64_t> fresh = {primes[2], primes[3]};
    EXPECT_TRUE(ModularResidualPreCheck(m, bad, colliding))
        << "seed " << seed << ": screen with colliding primes must be blind";
    EXPECT_FALSE(ModularResidualPreCheck(m, bad, fresh))
        << "seed " << seed << ": fresh primes must certify the mismatch";
  }
}

TEST(ResidualPreCheckTest, SabotagedScreenNeverLetsAWrongResultThrough) {
  // End to end: reconstruction primes injected too few to cover the huge
  // entries AND the screening primes forced to collide with them (so the
  // pre-check is vacuous by CRT construction). Whatever happens — a
  // declined lift or a served result — the driver must never return
  // anything but the exact RREF: the exact pass is the final arbiter.
  const int cases = 30 * testmat::DiffIterScale();
  const std::vector<std::uint64_t>& table = ModularPrimes(8);
  const std::vector<std::uint64_t> few(table.begin(), table.begin() + 3);
  for (int i = 0; i < cases; ++i) {
    const std::uint64_t seed = 54000 + static_cast<std::uint64_t>(i);
    SeedRecorder recorder(seed);
    Rng rng(seed);
    Mat m = testmat::RandomBigMatrix(&rng, 3 + rng.Below(3), 3 + rng.Below(3),
                                     4 + static_cast<int>(rng.Below(3)));
    ModularOptions sabotage;
    sabotage.primes = &few;
    sabotage.max_primes = few.size();
    sabotage.verify_primes = &few;  // Screen collides: vacuous.
    std::optional<Rref> got = TryModularRref(m, sabotage);
    Rref exact = ReduceToRrefExact(m);
    if (got.has_value()) {
      EXPECT_EQ(got->rank, exact.rank) << "seed " << seed;
      EXPECT_EQ(got->pivots, exact.pivots) << "seed " << seed;
      EXPECT_EQ(got->matrix, exact.matrix) << "seed " << seed;
    }
    // The dispatching entry point (driver + exact fallback) always serves
    // the exact answer.
    Rref served = ReduceToRref(m);
    EXPECT_EQ(served.matrix, exact.matrix) << "seed " << seed;
  }
}

TEST(ResidualPreCheckTest, PreCheckOnAndOffAreBitIdentical) {
  const int cases = 40 * testmat::DiffIterScale();
  for (int i = 0; i < cases; ++i) {
    const std::uint64_t seed = 55000 + static_cast<std::uint64_t>(i);
    SeedRecorder recorder(seed);
    Rng rng(seed);
    Mat m = RandomPreCheckMatrix(&rng);
    ModularOptions off;
    off.verify_precheck_primes = 0;
    ModularOptions on;
    on.verify_precheck_primes = 3;
    std::optional<Rref> without = TryModularRref(m, off);
    std::optional<Rref> with = TryModularRref(m, on);
    ASSERT_EQ(without.has_value(), with.has_value()) << "seed " << seed;
    if (with.has_value()) {
      EXPECT_EQ(without->matrix, with->matrix) << "seed " << seed;
      EXPECT_EQ(without->pivots, with->pivots) << "seed " << seed;
      Rref exact = ReduceToRrefExact(m);
      EXPECT_EQ(with->matrix, exact.matrix) << "seed " << seed;
    }
  }
}

TEST(ResidualPreCheckTest, HugeLowRankRunsExactlyOneExactPassPerAccept) {
  // The acceptance regime: n=24, rank 4, 256-bit entries — the workload
  // where PR 4's profiling showed the exact verification certificate
  // dominating TryModularRref. With the pre-check on, every rejection is
  // handled modularly (reconstruction failure or word-size screen) and
  // the exact rational pass runs exactly once: for the accepted result.
  Rng rng(20260729);
  Mat m = testmat::RandomBigLowRankMatrix(&rng, 24, 4, 8);
  ModularStats stats;
  ModularOptions options;
  options.stats = &stats;
  std::optional<Rref> got = TryModularRref(m, options);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->rank, 4u);
  EXPECT_EQ(stats.exact_verifies, 1u)
      << "the exact pass must be a last-mile confirmation, not a filter";
  EXPECT_GE(stats.lift_attempts, 1u);
  EXPECT_GT(stats.primes_used, 1u);

  // Poisoned variant: scaling the entries by the product of the driver's
  // first two primes makes those primes see a zero matrix, so the early
  // rank-0 consensus *reconstructs* trivially and produces genuinely
  // wrong candidates. Every one of them must die in the word-size screen
  // — the exact pass still runs exactly once, for the accepted result.
  const std::vector<std::uint64_t>& primes = ModularPrimes(2);
  const Rational poison(BigInt(static_cast<std::int64_t>(primes[0])) *
                        BigInt(static_cast<std::int64_t>(primes[1])));
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (std::size_t c = 0; c < m.cols(); ++c) m.At(r, c) *= poison;
  }
  ModularStats poisoned;
  options.stats = &poisoned;
  got = TryModularRref(m, options);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->rank, 4u);
  EXPECT_GT(poisoned.precheck_rejects, 0u)
      << "spurious rank-0 candidates must be rejected modularly";
  EXPECT_EQ(poisoned.exact_verifies, 1u);
  EXPECT_EQ(got->matrix, ReduceToRrefExact(m).matrix);
}

}  // namespace
}  // namespace bagdet
