// Benchmarks for the exact arithmetic / linear algebra substrate: BigInt
// multiplication and division, Gaussian elimination, span tests and
// orthogonal witnesses (the Main Lemma's inner loop). The *BigEntries
// pairs pit the certified multi-modular driver (the production dispatch)
// against the always-exact reference on hom-count-sized integer entries —
// the workload BENCH_linalg.json tracks.

#include <benchmark/benchmark.h>

#include "linalg/gauss.h"
#include "linalg/modular_solve.h"
#include "tests/test_matrices.h"
#include "util/bigint.h"
#include "util/limb_kernels.h"
#include "util/rng.h"

namespace bagdet {
namespace {

using testmat::RandomBig;

// Reports limb::HeapAllocCount() growth across the timed loop as a
// per-iteration counter — the allocation-freeness metric of the span
// kernel layer (steady-state reconstruct loops should report ~0). The
// counter is thread-local, so multi-threaded sweeps see only the
// calling thread's share.
class ScopedAllocCounter {
 public:
  explicit ScopedAllocCounter(benchmark::State& state)
      : state_(state), before_(limb::HeapAllocCount()) {}
  ~ScopedAllocCounter() {
    const double iters = static_cast<double>(state_.iterations());
    state_.counters["heap_allocs"] =
        iters != 0
            ? static_cast<double>(limb::HeapAllocCount() - before_) / iters
            : 0.0;
  }

 private:
  benchmark::State& state_;
  std::uint64_t before_;
};

void BM_BigIntMultiply(benchmark::State& state) {
  Rng rng(7);
  BigInt a = RandomBig(&rng, static_cast<int>(state.range(0)));
  BigInt b = RandomBig(&rng, static_cast<int>(state.range(0)));
  ScopedAllocCounter allocs(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a * b);
  }
  state.SetLabel(std::to_string(32 * state.range(0)) + " bits");
}
BENCHMARK(BM_BigIntMultiply)->Arg(2)->Arg(8)->Arg(32)->Arg(128)->Arg(512);

void BM_BigIntDivMod(benchmark::State& state) {
  Rng rng(11);
  BigInt a = RandomBig(&rng, static_cast<int>(state.range(0)));
  BigInt b = RandomBig(&rng, static_cast<int>(state.range(0) / 2 + 1));
  ScopedAllocCounter allocs(state);
  for (auto _ : state) {
    BigInt q, r;
    BigInt::DivMod(a, b, &q, &r);
    benchmark::DoNotOptimize(q);
  }
}
BENCHMARK(BM_BigIntDivMod)->Arg(4)->Arg(16)->Arg(64)->Arg(256);

void BM_BigIntPow(benchmark::State& state) {
  BigInt base(12345);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        BigInt::Pow(base, static_cast<std::uint64_t>(state.range(0))));
  }
}
BENCHMARK(BM_BigIntPow)->Arg(16)->Arg(256)->Arg(4096);

Mat RandomMatrix(Rng* rng, std::size_t n, std::int64_t lo, std::int64_t hi) {
  return testmat::RandomIntMatrix(rng, n, n, lo, hi);
}

void BM_GaussianElimination(benchmark::State& state) {
  Rng rng(13);
  Mat m = RandomMatrix(&rng, static_cast<std::size_t>(state.range(0)), -9, 9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ReduceToRref(m));
  }
}
BENCHMARK(BM_GaussianElimination)->Arg(4)->Arg(8)->Arg(16)->Arg(32);

void BM_MatrixInverse(benchmark::State& state) {
  Rng rng(17);
  std::size_t n = static_cast<std::size_t>(state.range(0));
  Mat m = RandomMatrix(&rng, n, -9, 9);
  while (!IsNonsingular(m)) m = RandomMatrix(&rng, n, -9, 9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Inverse(m));
  }
}
BENCHMARK(BM_MatrixInverse)->Arg(4)->Arg(8)->Arg(16);

void BM_SpanMembership(benchmark::State& state) {
  Rng rng(19);
  std::size_t k = static_cast<std::size_t>(state.range(0));
  std::vector<Vec> basis;
  for (std::size_t i = 0; i < k; ++i) {
    Vec v(k);
    for (std::size_t j = 0; j < k; ++j) v[j] = Rational(rng.Range(0, 5));
    basis.push_back(std::move(v));
  }
  Vec target(k);
  for (std::size_t j = 0; j < k; ++j) target[j] = Rational(rng.Range(0, 5));
  for (auto _ : state) {
    benchmark::DoNotOptimize(TestSpanMembership(basis, target));
  }
}
BENCHMARK(BM_SpanMembership)->Arg(4)->Arg(8)->Arg(16)->Arg(32);

void BM_OrthogonalWitness(benchmark::State& state) {
  Rng rng(23);
  std::size_t k = static_cast<std::size_t>(state.range(0));
  std::vector<Vec> basis;
  for (std::size_t i = 0; i + 2 < k; ++i) {  // Leave room outside the span.
    Vec v(k);
    for (std::size_t j = 0; j < k; ++j) v[j] = Rational(rng.Range(0, 5));
    basis.push_back(std::move(v));
  }
  Vec target(k);
  for (std::size_t j = 0; j < k; ++j) target[j] = Rational(rng.Range(1, 6));
  for (auto _ : state) {
    benchmark::DoNotOptimize(OrthogonalWitness(basis, target));
  }
}
BENCHMARK(BM_OrthogonalWitness)->Arg(4)->Arg(8)->Arg(16);

// --- Modular fast path vs exact reference on large-integer entries ------
//
// Entries are random integers of 32*limbs bits (limbs fixed at 8, i.e.
// 256-bit — the scale of the radix-T hom counts BuildGoodBasis feeds the
// evaluation matrix); the Arg is the matrix dimension.

constexpr int kBigLimbs = 8;

Mat RandomBigMatrix(Rng* rng, std::size_t rows, std::size_t cols) {
  return testmat::RandomBigMatrix(rng, rows, cols, kBigLimbs);
}

/// Rank-2 variant: the last rows are genuine combinations of the first
/// two (the shared generator draws one coefficient per basis row — the
/// local copy this replaces drew per-entry coefficients, which silently
/// restored full rank and made the "rank-2 kernel" label a lie).
Mat RandomBigLowRankMatrix(Rng* rng, std::size_t n) {
  return testmat::RandomBigLowRankMatrix(rng, n, 2, kBigLimbs);
}

void BM_RrefBigEntries(benchmark::State& state) {
  Rng rng(29);
  Mat m = RandomBigMatrix(&rng, static_cast<std::size_t>(state.range(0)),
                          static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ReduceToRref(m));
  }
  state.SetLabel("modular dispatch, 256-bit entries");
}
BENCHMARK(BM_RrefBigEntries)->Arg(4)->Arg(6)->Arg(8);

void BM_RrefBigEntriesExact(benchmark::State& state) {
  Rng rng(29);
  Mat m = RandomBigMatrix(&rng, static_cast<std::size_t>(state.range(0)),
                          static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ReduceToRrefExact(m));
  }
  state.SetLabel("exact reference, 256-bit entries");
}
BENCHMARK(BM_RrefBigEntriesExact)->Arg(4)->Arg(6)->Arg(8);

void BM_RankBigEntries(benchmark::State& state) {
  Rng rng(31);
  Mat m = RandomBigMatrix(&rng, static_cast<std::size_t>(state.range(0)),
                          static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Rank(m));
  }
  state.SetLabel("single-prime probe saturates");
}
BENCHMARK(BM_RankBigEntries)->Arg(4)->Arg(8)->Arg(12);

void BM_RankBigEntriesExact(benchmark::State& state) {
  Rng rng(31);
  Mat m = RandomBigMatrix(&rng, static_cast<std::size_t>(state.range(0)),
                          static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ReduceToRrefExact(m).rank);
  }
}
BENCHMARK(BM_RankBigEntriesExact)->Arg(4)->Arg(8)->Arg(12);

void BM_NullspaceBigEntries(benchmark::State& state) {
  Rng rng(37);
  Mat m = RandomBigLowRankMatrix(&rng, static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(NullspaceBasis(m));
  }
  state.SetLabel("rank-2 kernel, 256-bit entries");
}
BENCHMARK(BM_NullspaceBigEntries)->Arg(4)->Arg(6)->Arg(8);

void BM_NullspaceBigEntriesExact(benchmark::State& state) {
  Rng rng(37);
  Mat m = RandomBigLowRankMatrix(&rng, static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    // NullspaceBasis body over the exact reference RREF.
    Rref rref = ReduceToRrefExact(m);
    std::vector<bool> is_pivot(m.cols(), false);
    for (std::size_t p : rref.pivots) is_pivot[p] = true;
    std::vector<Vec> basis;
    for (std::size_t free_col = 0; free_col < m.cols(); ++free_col) {
      if (is_pivot[free_col]) continue;
      Vec v(m.cols());
      v[free_col] = Rational(1);
      for (std::size_t i = 0; i < rref.pivots.size(); ++i) {
        v[rref.pivots[i]] = -rref.matrix.At(i, free_col);
      }
      basis.push_back(std::move(v));
    }
    benchmark::DoNotOptimize(basis);
  }
}
BENCHMARK(BM_NullspaceBigEntriesExact)->Arg(4)->Arg(6)->Arg(8);

void BM_SpanMembershipBigEntries(benchmark::State& state) {
  Rng rng(41);
  const std::size_t k = static_cast<std::size_t>(state.range(0));
  std::vector<Vec> basis;
  for (std::size_t i = 0; i + 2 < k; ++i) {
    Vec v(k);
    for (std::size_t j = 0; j < k; ++j) v[j] = Rational(RandomBig(&rng, kBigLimbs));
    basis.push_back(std::move(v));
  }
  Vec target = basis[0] + basis[1];  // Inside the span.
  for (auto _ : state) {
    benchmark::DoNotOptimize(TestSpanMembership(basis, target));
  }
  state.SetLabel("in-span target, 256-bit entries");
}
BENCHMARK(BM_SpanMembershipBigEntries)->Arg(4)->Arg(6)->Arg(8);

void BM_SpanMembershipBigEntriesExact(benchmark::State& state) {
  Rng rng(41);
  const std::size_t k = static_cast<std::size_t>(state.range(0));
  std::vector<Vec> basis;
  for (std::size_t i = 0; i + 2 < k; ++i) {
    Vec v(k);
    for (std::size_t j = 0; j < k; ++j) v[j] = Rational(RandomBig(&rng, kBigLimbs));
    basis.push_back(std::move(v));
  }
  Vec target = basis[0] + basis[1];
  for (auto _ : state) {
    // TestSpanMembership body over the exact reference RREF.
    Mat columns = Mat::FromColumns(basis);
    Mat aug(columns.rows(), columns.cols() + 1);
    for (std::size_t r = 0; r < columns.rows(); ++r) {
      for (std::size_t c = 0; c < columns.cols(); ++c) {
        aug.At(r, c) = columns.At(r, c);
      }
      aug.At(r, columns.cols()) = target[r];
    }
    benchmark::DoNotOptimize(ReduceToRrefExact(std::move(aug)));
  }
}
BENCHMARK(BM_SpanMembershipBigEntriesExact)->Arg(4)->Arg(6)->Arg(8);

void BM_DeterminantBigEntries(benchmark::State& state) {
  Rng rng(43);
  Mat m = RandomBigMatrix(&rng, static_cast<std::size_t>(state.range(0)),
                          static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Determinant(m));
  }
  state.SetLabel("fraction-free Bareiss");
}
BENCHMARK(BM_DeterminantBigEntries)->Arg(4)->Arg(6)->Arg(8);

void BM_DeterminantBigEntriesExact(benchmark::State& state) {
  Rng rng(43);
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Mat m = RandomBigMatrix(&rng, n, n);
  for (auto _ : state) {
    // The seed's plain elimination over Q.
    Mat a = m;
    Rational det(1);
    for (std::size_t col = 0; col < n; ++col) {
      std::size_t found = n;
      for (std::size_t r = col; r < n; ++r) {
        if (!a.At(r, col).IsZero()) {
          found = r;
          break;
        }
      }
      if (found == n) {
        det = Rational(0);
        break;
      }
      if (found != col) {
        a.SwapRows(found, col);
        det = -det;
      }
      det *= a.At(col, col);
      Rational inv = a.At(col, col).Inverse();
      for (std::size_t r = col + 1; r < n; ++r) {
        Rational factor = a.At(r, col) * inv;
        if (factor.IsZero()) continue;
        for (std::size_t c = col; c < n; ++c) {
          a.At(r, c) -= factor * a.At(col, c);
        }
      }
    }
    benchmark::DoNotOptimize(det);
  }
  state.SetLabel("plain elimination over Q");
}
BENCHMARK(BM_DeterminantBigEntriesExact)->Arg(4)->Arg(6)->Arg(8);

// --- Parallel multi-modular driver ---------------------------------------
//
// A rank-4 matrix with 256-bit entries makes the lifted RREF a dense
// block of genuinely large rationals, so the driver accumulates a few
// dozen primes and — the dominant cost at these dimensions — verifies the
// lift with exact rational arithmetic row by row; eliminations,
// reconstructions, and verification rows all fan out across the thread
// pool. (A random *nonsingular* matrix would be useless here: its RREF is
// the identity and one prime suffices.) Args are {dimension, num_threads}: num_threads=1 is the
// serial fold (the bit-identical reference), larger values cap the worker
// fan-out. On a multi-core runner the thread sweep is the parallel-speedup
// trajectory; the CI bench artifacts record it per commit.

void BM_ModularRrefManyPrimes(benchmark::State& state) {
  Rng rng(53);
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Mat m = testmat::RandomBigLowRankMatrix(&rng, n, 4, kBigLimbs);  // 256-bit.
  ModularOptions options;
  options.num_threads = static_cast<std::size_t>(state.range(1));
  ScopedAllocCounter allocs(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(TryModularRref(m, options));
  }
  state.SetLabel(std::to_string(state.range(1)) +
                 " thread(s), rank 4, 256-bit entries");
}
BENCHMARK(BM_ModularRrefManyPrimes)
    ->Args({12, 1})->Args({12, 2})->Args({12, 4})
    ->Args({24, 1})->Args({24, 2})->Args({24, 4})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// --- Exact inverse -------------------------------------------------------
//
// Args are {dimension, limbs}: entries are random 32·limbs-bit integers,
// so the pair sweeps both the dimension and the bit-size axis. Inverse is
// the exact Gauss–Jordan elimination on [A|I]; the bench keeps the name
// it had when it was the reference for a modular inverse, so its perf-gate
// pins carry over.

Mat RandomNonsingularBigMatrix(Rng* rng, std::size_t n, int limbs) {
  Mat m = testmat::RandomBigMatrix(rng, n, n, limbs);
  while (!IsNonsingular(m)) m = testmat::RandomBigMatrix(rng, n, n, limbs);
  return m;
}

void BM_ModularInverseExact(benchmark::State& state) {
  Rng rng(59);
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Mat m = RandomNonsingularBigMatrix(&rng, n, static_cast<int>(state.range(1)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Inverse(m));
  }
  state.SetLabel(std::to_string(32 * state.range(1)) + "-bit entries");
}
BENCHMARK(BM_ModularInverseExact)
    ->Args({4, 1})->Args({8, 1})->Args({12, 1})->Args({16, 1})
    ->Args({4, 8})->Args({8, 8})->Args({12, 8})->Args({16, 8})
    ->Unit(benchmark::kMicrosecond);

// --- Verification pre-check before/after ---------------------------------
//
// The huge-low-rank regime where the exact verification certificate
// dominates TryModularRref, with the entries additionally scaled by the
// product of the driver's first two primes: those primes see a zero
// matrix, the early rank-0 consensus reconstructs trivially, and the
// driver must *reject* spurious candidates before the true signature
// appears — the workload the residual pre-check exists for. Arg is the
// number of fresh screening primes: 0 reproduces the pre-PR behavior
// (every reconstructed candidate runs the exact rational pass), 2 is the
// production default (bad candidates die in word-size arithmetic; the
// exact pass runs exactly once, for the accepted result). The exported
// per-call counters make the before/after visible per commit:
// exact_verifies vs precheck_rejects out of lift_attempts.

void BM_VerifyRref(benchmark::State& state) {
  Rng rng(61);
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Mat m = testmat::RandomBigLowRankMatrix(&rng, n, 4, kBigLimbs);  // 256-bit.
  const std::vector<std::uint64_t>& primes = ModularPrimes(2);
  const Rational poison(BigInt(static_cast<std::int64_t>(primes[0])) *
                        BigInt(static_cast<std::int64_t>(primes[1])));
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) m.At(r, c) *= poison;
  }
  ModularStats stats;
  ModularOptions options;
  options.verify_precheck_primes = static_cast<std::size_t>(state.range(1));
  options.stats = &stats;
  std::size_t iterations = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(TryModularRref(m, options));
    ++iterations;
  }
  const double scale = iterations != 0 ? 1.0 / iterations : 0.0;
  state.counters["lift_attempts"] = stats.lift_attempts * scale;
  state.counters["precheck_rejects"] = stats.precheck_rejects * scale;
  state.counters["exact_verifies"] = stats.exact_verifies * scale;
  state.SetLabel(state.range(1) == 0 ? "pre-check off (before)"
                                     : "pre-check on (after)");
}
BENCHMARK(BM_VerifyRref)
    ->Args({16, 0})->Args({16, 2})
    ->Args({24, 0})->Args({24, 2})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_IsNonsingularBigEntries(benchmark::State& state) {
  Rng rng(47);
  Mat m = RandomBigMatrix(&rng, static_cast<std::size_t>(state.range(0)),
                          static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(IsNonsingular(m));
  }
  state.SetLabel("single-prime det probe");
}
BENCHMARK(BM_IsNonsingularBigEntries)->Arg(4)->Arg(8)->Arg(12);

}  // namespace
}  // namespace bagdet

BENCHMARK_MAIN();
