#include "linalg/modular_solve.h"

#include <algorithm>
#include <atomic>
#include <mutex>

#include "linalg/modmat.h"
#include "util/bigint.h"
#include "util/exec_context.h"
#include "util/failpoint.h"
#include "util/thread_pool.h"

namespace bagdet {

namespace {

/// Hard capacity of the built-in prime table (ModularPrimes). 64× the
/// driver's hardest prime-budget clamp; PrimeAt treats the boundary as
/// "sequence exhausted" so callers decline cleanly (exact fallback +
/// ModularStats::budget_exhausted) instead of throwing mid-drive.
constexpr std::size_t kPrimeTableCapacity = 65536;

std::uint64_t MulModU64(std::uint64_t a, std::uint64_t b, std::uint64_t m) {
  return static_cast<std::uint64_t>(static_cast<unsigned __int128>(a) * b % m);
}

std::uint64_t PowModU64(std::uint64_t a, std::uint64_t e, std::uint64_t m) {
  std::uint64_t result = 1 % m;
  a %= m;
  while (e != 0) {
    if (e & 1) result = MulModU64(result, a, m);
    a = MulModU64(a, a, m);
    e >>= 1;
  }
  return result;
}

/// Deterministic Miller–Rabin for 64-bit inputs (the 12-base witness set
/// is exact for every n < 3.3·10^24).
bool IsPrimeU64(std::uint64_t n) {
  if (n < 2) return false;
  for (std::uint64_t p : {2ull, 3ull, 5ull, 7ull, 11ull, 13ull, 17ull, 19ull,
                          23ull, 29ull, 31ull, 37ull}) {
    if (n % p == 0) return n == p;
  }
  std::uint64_t d = n - 1;
  int r = 0;
  while ((d & 1) == 0) {
    d >>= 1;
    ++r;
  }
  for (std::uint64_t a : {2ull, 3ull, 5ull, 7ull, 11ull, 13ull, 17ull, 19ull,
                          23ull, 29ull, 31ull, 37ull}) {
    std::uint64_t x = PowModU64(a, d, n);
    if (x == 1 || x == n - 1) continue;
    bool witness = true;
    for (int i = 0; i + 1 < r; ++i) {
      x = MulModU64(x, x, n);
      if (x == n - 1) {
        witness = false;
        break;
      }
    }
    if (witness) return false;
  }
  return true;
}

std::uint64_t PrimeAt(const ModularOptions& options, std::size_t i) {
  if (options.primes != nullptr) {
    return i < options.primes->size() ? (*options.primes)[i] : 0;
  }
  // Past the table's capacity the built-in sequence reports exhaustion (0)
  // like a drained injected list — an absurd caller-supplied max_primes
  // must not turn into a length_error from deep inside the fold loop.
  if (i >= kPrimeTableCapacity) return 0;
  return ModularPrimes(i + 1)[i];
}

/// Folds `d` into a running denominator lcm (the Bareiss determinant's
/// row clearing).
void FoldLcm(BigInt* lcm, const BigInt& d) {
  if (d.IsOne()) return;
  // lcm <- lcm / gcd(lcm, d) * d, divided in place (exact).
  BigInt::DivMod(*lcm, BigInt::Gcd(*lcm, d), lcm, nullptr);
  *lcm *= d;
}

/// ceil(log2(cols + 1)), floored at 1 — the per-row sqrt factor of the
/// Hadamard bounds below.
std::size_t LogColsBound(std::size_t cols) {
  std::size_t log_cols = 1;
  while ((1ull << log_cols) < cols + 1) ++log_cols;
  return log_cols;
}

/// Hadamard contribution of one matrix row after clearing its
/// denominators: largest numerator bit length, plus the cleared
/// denominators (the row lcm divides their product), plus the sqrt(cols)
/// factor. AutoPrimeBudget builds its prime budget on this shape.
std::size_t RowEntryBitBound(const Mat& m, std::size_t row,
                             std::size_t log_cols) {
  std::size_t num_bits = 1;
  std::size_t den_bits = 0;
  for (std::size_t c = 0; c < m.cols(); ++c) {
    const Rational& q = m.At(row, c);
    num_bits = std::max(num_bits, q.numerator().BitLength());
    if (!q.denominator().IsOne()) den_bits += q.denominator().BitLength();
  }
  return num_bits + den_bits + log_cols;
}

/// Prime budget covering the worst-case (Hadamard-bounded) RREF entry
/// size: every RREF entry is a ratio of r×r minors of the
/// denominator-cleared matrix, so a modulus of twice the minor bit bound
/// guarantees the rational lift exists. Hitting the budget without a
/// verified lift then indicates a pathological input rather than normal
/// operation — and the exact fallback guards correctness regardless, which
/// is why the budget is also clamped.
std::size_t AutoPrimeBudget(const Mat& m) {
  const std::size_t r = std::min(m.rows(), m.cols());
  const std::size_t log_cols = LogColsBound(m.cols());
  std::vector<std::size_t> row_bits(m.rows(), 0);
  for (std::size_t row = 0; row < m.rows(); ++row) {
    row_bits[row] = RowEntryBitBound(m, row, log_cols);
  }
  // A minor uses r rows; bound by the r largest row contributions.
  std::sort(row_bits.begin(), row_bits.end(), std::greater<std::size_t>());
  std::size_t minor_bits = 64;
  for (std::size_t i = 0; i < r; ++i) minor_bits += row_bits[i];
  const std::size_t budget = (2 * minor_bits) / 61 + 4;
  return std::min<std::size_t>(std::max<std::size_t>(budget, 8), 1024);
}

/// Wang's rational reconstruction: the unique n/d with |n|, d <= bound,
/// gcd(n, d) = 1 and n = residue·d (mod modulus), when one exists.
std::optional<Rational> ReconstructRational(const BigInt& residue,
                                            const BigInt& modulus,
                                            const BigInt& bound) {
  BigInt a0 = modulus;
  BigInt a1 = residue;
  BigInt t0(0);
  BigInt t1(1);
  BigInt q;  // Hoisted: the loop recycles its limb capacity per step.
  while (a1 > bound) {
    // (a0, a1) <- (a1, a0 mod a1); the remainder lands in a0's buffer.
    BigInt::DivMod(a0, a1, &q, &a0);
    std::swap(a0, a1);
    // (t0, t1) <- (t1, t0 - q*t1), fused so the q*t1 product never
    // materializes as a temporary.
    t0.MulSub(q, t1);
    std::swap(t0, t1);
  }
  BigInt num = std::move(a1);
  BigInt den = std::move(t1);
  if (den.IsZero()) return std::nullopt;
  if (den.IsNegative()) {
    num = -num;
    den = -den;
  }
  if (den > bound) return std::nullopt;
  if (!BigInt::Gcd(num, den).IsOne()) return std::nullopt;
  return Rational(std::move(num), std::move(den));
}

/// Up to `count` screening primes for the residual pre-check: drawn from
/// options.verify_primes verbatim when injected (the adversarial test
/// seam — deliberately no disjointness filter), otherwise from the
/// built-in sequence skipping every prime in `used` (each prime the
/// driver has drawn for the reconstruction side). Disjointness is what
/// gives the screen power: a candidate assembled by CRT over the used
/// primes satisfies the residual identities mod each of them by
/// construction, so screening against them can never reject.
std::vector<std::uint64_t> FreshVerifyPrimes(
    const ModularOptions& options, const std::vector<std::uint64_t>& used,
    std::size_t count) {
  std::vector<std::uint64_t> fresh;
  if (count == 0) return fresh;
  if (options.verify_primes != nullptr) {
    for (std::uint64_t p : *options.verify_primes) {
      fresh.push_back(p);
      if (fresh.size() == count) break;
    }
    return fresh;
  }
  for (std::size_t i = 0; fresh.size() < count; ++i) {
    const std::uint64_t p = ModularPrimes(i + 1)[i];
    if (std::find(used.begin(), used.end(), p) == used.end()) {
      fresh.push_back(p);
    }
  }
  return fresh;
}

/// Exact certificate that `cand` is THE reduced row echelon form of `a`:
/// with pivots P = cand.pivots, every row of `a` must equal the
/// combination of candidate pivot rows weighted by its own P-coordinates
/// (rowspace(a) ⊆ rowspace(cand), hence rank_Q(a) <= rank(cand); the
/// accumulated primes already certify rank_Q(a) >= rank(cand) via a
/// nonvanishing minor, and RREF is unique per row space). Pivot columns of
/// the combination match automatically, so only free columns are checked.
///
/// Rows are independent read-only checks over exact rationals — on large
/// matrices this certificate, not the word-size eliminations, dominates
/// the driver's cost — so they fan out across the thread pool. The result
/// is a conjunction over rows: bit-identical at any parallelism.
bool VerifyRrefCandidate(const Mat& a, const Rref& cand,
                         const std::vector<std::size_t>& free_cols,
                         std::size_t parallelism) {
  const std::size_t rank = cand.rank;
  std::atomic<bool> ok{true};
  auto check_row = [&](std::size_t r) {
    ExecCheckPoint("linalg.modular");
    if (!ok.load(std::memory_order_relaxed)) return;  // Another row failed.
    std::vector<Rational> coeff(rank);
    for (std::size_t i = 0; i < rank; ++i) coeff[i] = a.At(r, cand.pivots[i]);
    for (std::size_t c : free_cols) {
      Rational sum;
      for (std::size_t i = 0; i < rank; ++i) {
        if (coeff[i].IsZero()) continue;
        const Rational& entry = cand.matrix.At(i, c);
        if (entry.IsZero()) continue;
        sum += coeff[i] * entry;
      }
      if (sum != a.At(r, c)) {
        ok.store(false, std::memory_order_relaxed);
        return;
      }
    }
  };
  if (parallelism <= 1 || a.rows() < 2) {
    for (std::size_t r = 0; r < a.rows(); ++r) {
      check_row(r);
      if (!ok.load(std::memory_order_relaxed)) return false;
    }
    return true;
  }
  GlobalThreadPool().ParallelFor(a.rows(), check_row, parallelism);
  return ok.load(std::memory_order_relaxed);
}

}  // namespace

const std::vector<std::uint64_t>& ModularPrimes(std::size_t count) {
  // Seeded with the 40 largest primes below 2^62 and extended downward on
  // demand. Extension is mutex-guarded, and the backing vector's capacity
  // is reserved once up front so growth never reallocates: references
  // returned earlier stay valid while another thread extends the table —
  // required now that concurrent TryModularRref calls (and its worker
  // batches) share this sequence. Exceeding the capacity throws rather
  // than invalidating published references — the drivers never get here
  // (PrimeAt reports exhaustion at the boundary), so the throw only guards
  // direct misuse of this function.
  static constexpr std::size_t kCapacity = kPrimeTableCapacity;
  static std::mutex mu;
  static std::vector<std::uint64_t> primes = {
      4611686018427387847ull, 4611686018427387817ull, 4611686018427387787ull,
      4611686018427387761ull, 4611686018427387751ull, 4611686018427387737ull,
      4611686018427387733ull, 4611686018427387709ull, 4611686018427387701ull,
      4611686018427387631ull, 4611686018427387617ull, 4611686018427387587ull,
      4611686018427387461ull, 4611686018427387421ull, 4611686018427387409ull,
      4611686018427387329ull, 4611686018427387323ull, 4611686018427387301ull,
      4611686018427387271ull, 4611686018427387241ull, 4611686018427387139ull,
      4611686018427387131ull, 4611686018427387127ull, 4611686018427387113ull,
      4611686018427387091ull, 4611686018427387073ull, 4611686018427386981ull,
      4611686018427386923ull, 4611686018427386911ull, 4611686018427386903ull,
      4611686018427386897ull, 4611686018427386887ull, 4611686018427386707ull,
      4611686018427386663ull, 4611686018427386611ull, 4611686018427386551ull,
      4611686018427386471ull, 4611686018427386389ull, 4611686018427386351ull,
      4611686018427386329ull};
  std::lock_guard<std::mutex> lock(mu);
  if (primes.capacity() < kCapacity) primes.reserve(kCapacity);
  if (count > kCapacity) {
    throw std::length_error("ModularPrimes: prime table capacity exceeded");
  }
  std::uint64_t candidate = primes.back() - 2;
  while (primes.size() < count) {
    while (!IsPrimeU64(candidate)) candidate -= 2;
    primes.push_back(candidate);
    candidate -= 2;
  }
  return primes;
}

std::optional<Rref> TryModularRref(const Mat& m, const ModularOptions& options) {
  const std::size_t rows = m.rows();
  const std::size_t cols = m.cols();
  if (rows == 0 || cols == 0) {
    Rref trivial;
    trivial.matrix = m;
    return trivial;
  }
  std::size_t budget =
      options.max_primes != 0 ? options.max_primes : AutoPrimeBudget(m);
  if (options.primes != nullptr) {
    budget = std::min(budget, options.primes->size());
  }

  // Consensus across primes: (rank, pivots) signature plus CRT-combined
  // residues of the nontrivial RREF block (pivot rows × free columns).
  // Unlucky primes can only lose rank or push pivots later, so "max rank,
  // then lexicographically smallest pivots" keeps the true signature as
  // soon as one good prime appears; the exact verification below is the
  // final arbiter either way.
  bool have_consensus = false;
  std::vector<std::size_t> pivots;
  std::size_t rank = 0;
  std::vector<std::size_t> free_cols;
  BigInt modulus(1);
  std::vector<BigInt> residues;
  // rank × free BigInt residues of |modulus| bits each — the transient
  // footprint a governed request is accounted for.
  ScopedCharge residue_mem("linalg.modular");
  std::size_t used = 0;
  std::size_t next_attempt = 1;
  std::size_t last_attempt_used = 0;
  std::vector<std::uint64_t> drawn;  // Every prime examined, for freshness.

  // Parallelism for the fan-out stages (per-prime eliminations, the
  // lift's per-entry reconstructions, and the verification rows). An
  // explicit num_threads is always honored (tests rely on forcing the
  // parallel path on small inputs); in auto mode tiny problems stay
  // serial and never touch — or lazily construct — the global pool.
  std::size_t parallelism = 1;
  if (options.num_threads != 0) {
    parallelism = options.num_threads;
  } else if (rows * cols >= 64) {
    parallelism = GlobalThreadPool().num_workers() + 1;
  }

  // Lift: rational reconstruction of every nontrivial entry, then the
  // fresh-prime residual screen, then the exact residual certificate. A
  // failed lift just means "not enough primes yet"; a screen rejection
  // means the reconstruction converged on a wrong candidate, which costs
  // only word-size arithmetic to discover. Reconstructions are
  // independent per entry and the certificate is independent per row, so
  // both stages fan out; each is a pure function of the accumulated
  // residues, so the outcome is bit-identical at any thread count.
  auto attempt_lift = [&]() -> std::optional<Rref> {
    last_attempt_used = used;
    if (options.stats != nullptr) ++options.stats->lift_attempts;
    const BigInt bound =
        BigInt::FloorKthRoot((modulus - BigInt(1)) / BigInt(2), 2);
    std::vector<Rational> values(residues.size());
    if (parallelism <= 1 || residues.size() < 8) {
      for (std::size_t i = 0; i < residues.size(); ++i) {
        ExecCheckPoint("linalg.modular");
        std::optional<Rational> q =
            ReconstructRational(residues[i], modulus, bound);
        if (!q.has_value()) return std::nullopt;
        values[i] = std::move(*q);
      }
    } else {
      std::atomic<bool> all_ok{true};
      GlobalThreadPool().ParallelFor(
          residues.size(),
          [&](std::size_t i) {
            ExecCheckPoint("linalg.modular");
            if (!all_ok.load(std::memory_order_relaxed)) return;
            std::optional<Rational> q =
                ReconstructRational(residues[i], modulus, bound);
            if (!q.has_value()) {
              all_ok.store(false, std::memory_order_relaxed);
              return;
            }
            values[i] = std::move(*q);
          },
          parallelism);
      if (!all_ok.load(std::memory_order_relaxed)) return std::nullopt;
    }
    Rref cand;
    cand.matrix = Mat(rows, cols);
    cand.pivots = pivots;
    cand.rank = rank;
    for (std::size_t i = 0; i < rank; ++i) {
      cand.matrix.At(i, pivots[i]) = Rational(1);
      for (std::size_t j = 0; j < free_cols.size(); ++j) {
        cand.matrix.At(i, free_cols[j]) =
            std::move(values[i * free_cols.size() + j]);
      }
    }
    const std::vector<std::uint64_t> screen =
        FreshVerifyPrimes(options, drawn, options.verify_precheck_primes);
    if (!screen.empty() && !ModularResidualPreCheck(m, cand, screen)) {
      if (options.stats != nullptr) ++options.stats->precheck_rejects;
      return std::nullopt;
    }
    if (options.stats != nullptr) ++options.stats->exact_verifies;
    if (!VerifyRrefCandidate(m, cand, free_cols, parallelism)) {
      return std::nullopt;
    }
    if (options.stats != nullptr) options.stats->primes_used = used;
    return cand;
  };

  // The per-prime eliminations are embarrassingly parallel: batches of up
  // to `parallelism` primes fan out across the global ThreadPool, and the
  // finished batch is *folded* (consensus signature, CRT accumulation,
  // lift attempts) strictly in prime order on this thread — exactly the
  // sequence the serial loop executes, so the result is bit-identical for
  // every thread count. The only cost of batching is that a lift that
  // succeeds mid-batch discards the later eliminations of that batch.
  struct PrimeElim {
    std::uint64_t p = 0;
    std::optional<Zp> zp;   // Owned here; mm points into it (never moved).
    std::optional<ModMat> mm;
    ModRref mr;
  };
  bool primes_exhausted = false;
  for (std::size_t pi = 0; pi < budget && !primes_exhausted;) {
    const std::size_t batch_cap =
        std::min(std::max<std::size_t>(parallelism, 1), budget - pi);
    std::vector<PrimeElim> batch(batch_cap);
    std::size_t n = 0;
    for (; n < batch_cap; ++n) {
      const std::uint64_t p = PrimeAt(options, pi + n);
      if (p == 0) {  // Injected prime list exhausted.
        primes_exhausted = true;
        break;
      }
      batch[n].p = p;
      drawn.push_back(p);
    }
    if (n == 0) break;
    auto eliminate = [&batch, &m](std::size_t i) {
      ExecCheckPoint("linalg.modular");
      PrimeElim& e = batch[i];
      e.zp.emplace(e.p);
      e.mm = ModMat::FromRationalMat(&*e.zp, m);
      if (e.mm.has_value()) e.mr = e.mm->RrefInPlace();
    };
    if (n == 1 || parallelism <= 1) {
      for (std::size_t i = 0; i < n; ++i) eliminate(i);
    } else {
      GlobalThreadPool().ParallelFor(n, eliminate, parallelism);
    }

    for (std::size_t i = 0; i < n; ++i) {
      // Per-prime fold boundary: residues grow by ~62 bits each per fold,
      // so a forced clock read here is noise next to the BigInt work and
      // keeps deadline overshoot tight on huge moduli. Also the
      // mid-CRT-fold injection site.
      if (ExecContext* ctx = CurrentExecContext()) {
        ctx->CheckNow("linalg.modular");
      }
      BAGDET_FAILPOINT("modular/crt_fold");
      const std::size_t prime_index = pi + i;
      PrimeElim& e = batch[i];
      if (!e.mm.has_value()) continue;  // p divides a denominator.
      const std::uint64_t p = e.p;
      const Zp& zp = *e.zp;
      const ModMat& mm = *e.mm;
      const ModRref& mr = e.mr;

      const bool adopt =
          !have_consensus || mr.rank > rank ||
          (mr.rank == rank && mr.pivots < pivots);
      if (adopt) {
        have_consensus = true;
        rank = mr.rank;
        pivots = mr.pivots;
        free_cols.clear();
        std::size_t next_pivot = 0;
        for (std::size_t c = 0; c < cols; ++c) {
          if (next_pivot < pivots.size() && pivots[next_pivot] == c) {
            ++next_pivot;
          } else {
            free_cols.push_back(c);
          }
        }
        modulus = BigInt(static_cast<std::int64_t>(p));
        residues.assign(rank * free_cols.size(), BigInt(0));
        for (std::size_t r = 0; r < rank; ++r) {
          for (std::size_t j = 0; j < free_cols.size(); ++j) {
            residues[r * free_cols.size() + j] = BigInt(
                static_cast<std::int64_t>(zp.From(mm.At(r, free_cols[j]))));
          }
        }
        used = 1;
        next_attempt = 1;
      } else if (mr.rank == rank && mr.pivots == pivots) {
        // CRT-combine this prime into the accumulated residues.
        const std::uint64_t m_mod_p = modulus.Mod(p);
        const std::uint64_t inv_m = zp.From(zp.Inv(zp.To(m_mod_p)));
        for (std::size_t r = 0; r < rank; ++r) {
          for (std::size_t j = 0; j < free_cols.size(); ++j) {
            BigInt& x = residues[r * free_cols.size() + j];
            const std::uint64_t v = zp.From(mm.At(r, free_cols[j]));
            const std::uint64_t x_mod_p = x.Mod(p);
            const std::uint64_t delta = v >= x_mod_p ? v - x_mod_p
                                                     : v + p - x_mod_p;
            const std::uint64_t t = MulModU64(delta, inv_m, p);
            // Fused fold: no modulus·t temporary, and x's limb capacity is
            // reused across primes.
            x.MulAdd(modulus, BigInt(static_cast<std::int64_t>(t)));
          }
        }
        modulus *= BigInt(static_cast<std::int64_t>(p));
        ++used;
      } else {
        continue;  // Strictly worse signature: provably unlucky prime.
      }
      residue_mem.Update(static_cast<std::uint64_t>(residues.size()) *
                         (sizeof(BigInt) + modulus.BitLength() / 8));

      // Geometric attempt schedule (the Euclid passes stay a small fraction
      // of the total work) — but always attempt on the last prime of the
      // budget, so a modulus that only just got large enough is not wasted.
      if (used < next_attempt && prime_index + 1 < budget) continue;
      if (std::optional<Rref> cand = attempt_lift()) return cand;
      next_attempt = used + 1 + used / 2;
    }
    pi += n;
  }
  // The loop can end without a lift at the final accumulated modulus: the
  // last primes of the budget may all have been skipped (vanished
  // denominator, worse signature) or an injected list may have run dry.
  // One closing attempt salvages whatever the consensus already holds.
  if (have_consensus && used > last_attempt_used) {
    if (std::optional<Rref> cand = attempt_lift()) return cand;
  }
  if (options.stats != nullptr) ++options.stats->budget_exhausted;
  return std::nullopt;
}

GovernedRref TryModularRrefGoverned(const Mat& m, ExecContext& exec,
                                    const ModularOptions& options) {
  GovernedRref out;
  std::optional<std::optional<Rref>> result = RunGoverned(
      exec, &out.status, [&] { return TryModularRref(m, options); });
  if (result.has_value()) out.rref = std::move(*result);
  return out;
}

bool ModularResidualPreCheck(const Mat& a, const Rref& cand,
                             const std::vector<std::uint64_t>& primes) {
  std::vector<std::size_t> free_cols;
  std::size_t next_pivot = 0;
  for (std::size_t c = 0; c < a.cols(); ++c) {
    if (next_pivot < cand.pivots.size() && cand.pivots[next_pivot] == c) {
      ++next_pivot;
    } else {
      free_cols.push_back(c);
    }
  }
  for (std::uint64_t p : primes) {
    Zp zp(p);
    std::optional<ModMat> am = ModMat::FromRationalMat(&zp, a);
    if (!am.has_value()) continue;  // p divides a denominator: unusable.
    std::optional<ModMat> cm = ModMat::FromRationalMat(&zp, cand.matrix);
    if (!cm.has_value()) continue;
    std::vector<std::uint64_t> coeff(cand.rank);
    for (std::size_t r = 0; r < a.rows(); ++r) {
      for (std::size_t i = 0; i < cand.rank; ++i) {
        coeff[i] = am->At(r, cand.pivots[i]);
      }
      // Pivot columns of the combination match automatically (the
      // candidate carries a unit block there), exactly as in the exact
      // certificate — only free columns can disagree.
      for (std::size_t c : free_cols) {
        std::uint64_t sum = 0;
        for (std::size_t i = 0; i < cand.rank; ++i) {
          sum = zp.Add(sum, zp.Mul(coeff[i], cm->At(i, c)));
        }
        if (sum != am->At(r, c)) return false;  // Certified mismatch.
      }
    }
  }
  return true;
}

std::optional<std::size_t> ModularRankLowerBound(const Mat& m,
                                                const ModularOptions& options) {
  if (m.rows() == 0 || m.cols() == 0) return 0;
  const std::size_t attempts =
      options.max_primes != 0 ? options.max_primes : 4;
  for (std::size_t pi = 0; pi < attempts; ++pi) {
    const std::uint64_t p = PrimeAt(options, pi);
    if (p == 0) break;
    Zp zp(p);
    std::optional<ModMat> mm = ModMat::FromRationalMat(&zp, m);
    if (!mm.has_value()) continue;
    return mm->RankDestructive();
  }
  return std::nullopt;
}

std::optional<bool> ModularNonsingularProbe(const Mat& m,
                                            const ModularOptions& options) {
  if (m.rows() != m.cols() || m.rows() == 0) return std::nullopt;
  const std::size_t attempts =
      options.max_primes != 0 ? options.max_primes : 2;
  for (std::size_t pi = 0; pi < attempts; ++pi) {
    const std::uint64_t p = PrimeAt(options, pi);
    if (p == 0) break;
    Zp zp(p);
    std::optional<ModMat> mm = ModMat::FromRationalMat(&zp, m);
    if (!mm.has_value()) continue;
    if (mm->DeterminantDestructive() != 0) return true;
  }
  return std::nullopt;  // Singular, or every probed prime was unlucky.
}

Rational DeterminantBareiss(const Mat& m) {
  const std::size_t n = m.rows();
  if (n == 0) return Rational(1);

  // Clear each row's denominators; det(A) = det(cleared) / Π row_lcm.
  std::vector<BigInt> a(n * n);
  BigInt denominator_product(1);
  for (std::size_t r = 0; r < n; ++r) {
    BigInt lcm(1);
    for (std::size_t c = 0; c < n; ++c) {
      FoldLcm(&lcm, m.At(r, c).denominator());
    }
    for (std::size_t c = 0; c < n; ++c) {
      const Rational& q = m.At(r, c);
      a[r * n + c] = q.numerator() * (lcm / q.denominator());
    }
    denominator_product *= lcm;
  }

  // One-step Bareiss: every division is exact, and intermediates are
  // bounded by minors of the cleared matrix.
  BigInt prev(1);
  bool negate = false;
  for (std::size_t k = 0; k + 1 < n; ++k) {
    // One forced clock read per pivot row, like the other exact kernels.
    if (ExecContext* ctx = CurrentExecContext()) ctx->CheckNow("linalg.exact");
    std::size_t pivot = n;
    for (std::size_t r = k; r < n; ++r) {
      if (!a[r * n + k].IsZero()) {
        pivot = r;
        break;
      }
    }
    if (pivot == n) return Rational(0);
    if (pivot != k) {
      std::swap_ranges(a.begin() + pivot * n, a.begin() + (pivot + 1) * n,
                       a.begin() + k * n);
      negate = !negate;
    }
    for (std::size_t i = k + 1; i < n; ++i) {
      for (std::size_t j = k + 1; j < n; ++j) {
        // a[i][j]·a[k][k] - a[i][k]·a[k][j], fused, divided exactly by the
        // previous pivot in place (the entry's capacity is recycled).
        a[i * n + j] *= a[k * n + k];
        a[i * n + j].MulSub(a[i * n + k], a[k * n + j]);
        BigInt::DivMod(a[i * n + j], prev, &a[i * n + j], nullptr);
      }
      a[i * n + k] = BigInt(0);
    }
    prev = a[k * n + k];
  }
  BigInt det = std::move(a[n * n - 1]);
  if (negate) det = -det;
  return Rational(std::move(det), std::move(denominator_product));
}

}  // namespace bagdet
