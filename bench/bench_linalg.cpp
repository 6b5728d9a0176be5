// Benchmarks for the exact arithmetic / linear algebra substrate: BigInt
// multiplication and division, Gaussian elimination, span tests and
// orthogonal witnesses (the Main Lemma's inner loop). The *BigEntries
// benches run on hom-count-sized integer entries — the workload
// BENCH_linalg.json tracks. Rank, IsNonsingular and Determinant have no
// bench of their own: the first two are one-liners over ReduceToRref, which
// BM_RrefBigEntries times, and the pipeline calls none of them.

#include <benchmark/benchmark.h>

#include "linalg/cone.h"
#include "linalg/gauss.h"
#include "tests/test_matrices.h"
#include "util/bigint.h"
#include "util/limb_kernels.h"
#include "util/rng.h"

namespace bagdet {
namespace {

using testmat::RandomBig;

// Reports limb::HeapAllocCount() growth across the timed loop as a
// per-iteration counter — the allocation-freeness metric of the span
// kernel layer (steady-state arithmetic loops should report ~0). The
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

// --- Large-integer entries ----------------------------------------------
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
  state.SetLabel("exact elimination, 256-bit entries");
}
BENCHMARK(BM_RrefBigEntries)->Arg(4)->Arg(6)->Arg(8);

void BM_NullspaceBigEntries(benchmark::State& state) {
  Rng rng(37);
  Mat m = RandomBigLowRankMatrix(&rng, static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(NullspaceBasis(m));
  }
  state.SetLabel("rank-2 kernel, 256-bit entries");
}
BENCHMARK(BM_NullspaceBigEntries)->Arg(4)->Arg(6)->Arg(8);

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

// --- Scaled Vandermonde cone ---------------------------------------------
//
// Args are {k, limbs}: SimplicialCone construction (structure check plus
// the Lagrange build) on diag(q)·V(b) with k random 32·limbs-bit nodes —
// the shape of the good basis' evaluation matrix, whose nodes are
// radix-sized hom counts.

void BM_ScaledVandermondeCone(benchmark::State& state) {
  Rng rng(59);
  const Mat m = testmat::RandomScaledVandermonde(
      &rng, static_cast<std::size_t>(state.range(0)),
      static_cast<int>(state.range(1)));
  for (auto _ : state) {
    SimplicialCone cone(m);
    benchmark::DoNotOptimize(cone);
  }
  state.SetLabel(std::to_string(32 * state.range(1)) + "-bit nodes");
}
BENCHMARK(BM_ScaledVandermondeCone)
    ->Args({4, 1})->Args({8, 1})->Args({12, 1})
    ->Args({4, 8})->Args({8, 8})->Args({12, 8})
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace bagdet

BENCHMARK_MAIN();
