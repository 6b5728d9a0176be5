// Governed execution and fault injection (util/exec_context.h,
// util/failpoint.h): deadlines, cooperative cancellation, memory budgets,
// and injected faults across the determinacy pipeline.
//
// The contract under test, end to end:
//   * a tripped limit surfaces as a typed ExecStatus (never an escaping
//     exception) naming the kernel that hit it;
//   * the unwind is clean — shared StructurePool/HomCache state stays
//     consistent and subsequent requests are unaffected;
//   * with no limits, governed runs are bit-identical to ungoverned ones;
//   * deadline overshoot is bounded by the checkpoint sampling interval,
//     not by the kernel's total runtime;
//   * the Theorem-2 refutation search obeys the same contract.
//
// Fault-injection cases need a -DBAGDET_FAILPOINTS=ON build and GTEST_SKIP
// otherwise. BAGDET_DIFF_ITERS scales the rerun-identical loops (nightly
// runs it at 10).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "core/basis.h"
#include "core/counterexample.h"
#include "core/determinacy.h"
#include "core/distinguisher.h"
#include "hilbert/search.h"
#include "hom/hom.h"
#include "hom/hom_cache.h"
#include "linalg/cone.h"
#include "linalg/gauss.h"
#include "query/cq.h"
#include "structs/structure.h"
#include "test_instances.h"
#include "util/bigint.h"
#include "util/exec_context.h"
#include "util/failpoint.h"

namespace bagdet {
namespace {

int DiffIters() {
  const char* env = std::getenv("BAGDET_DIFF_ITERS");
  if (env == nullptr) return 1;
  int iters = std::atoi(env);
  return iters > 0 ? iters : 1;
}

std::shared_ptr<Schema> GraphSchema() {
  auto schema = std::make_shared<Schema>();
  schema->AddRelation("E", 2);
  return schema;
}

/// Cycle with both edge directions — bipartite iff n is even.
Structure SymmetricCycle(const std::shared_ptr<Schema>& schema,
                         std::size_t n) {
  Structure s(schema);
  for (Element i = 0; i < n; ++i) {
    const Element j = static_cast<Element>((i + 1) % n);
    s.AddFact(0, {i, j});
    s.AddFact(0, {j, i});
  }
  return s;
}

/// Complete digraph with loops on n elements.
Structure FullDigraph(const std::shared_ptr<Schema>& schema, std::size_t n) {
  Structure s(schema);
  for (Element i = 0; i < n; ++i) {
    for (Element j = 0; j < n; ++j) s.AddFact(0, {i, j});
  }
  return s;
}

/// Adversarial instance: deciding view relevance runs
/// ExistsHom(C_odd_sym, C4_sym) — a no-instance whose backtracking proof
/// is exponential in the odd cycle's length (~2^n nodes; minutes-long
/// ungoverned at n = 35). Only ever run governed.
struct AdversarialInstance {
  ConjunctiveQuery query;
  std::vector<ConjunctiveQuery> views;
};

AdversarialInstance MakeAdversarial(std::size_t odd_len) {
  auto schema = GraphSchema();
  AdversarialInstance inst{
      BooleanQueryFromStructure("q", SymmetricCycle(schema, 4)), {}};
  inst.views.push_back(
      BooleanQueryFromStructure("v", SymmetricCycle(schema, odd_len)));
  return inst;
}

/// Small pipeline instance (same shape as bench_determinacy's): directed
/// cycles of lengths 1..k as components; the ramp view makes it
/// undetermined so the whole counterexample path runs.
struct SmallInstance {
  ConjunctiveQuery query;
  std::vector<ConjunctiveQuery> views;
};

SmallInstance MakeUndetermined(std::size_t k) {
  auto schema = GraphSchema();
  std::vector<Structure> comps;
  for (std::size_t len = 1; len <= k; ++len) {
    Structure c(schema);
    for (Element i = 0; i < len; ++i) {
      c.AddFact(0, {i, static_cast<Element>((i + 1) % len)});
    }
    comps.push_back(std::move(c));
  }
  auto combine = [&](const std::vector<int>& mult) {
    Structure s(schema);
    for (std::size_t i = 0; i < comps.size(); ++i) {
      for (int m = 0; m < mult[i]; ++m) s = DisjointUnion(s, comps[i]);
    }
    return s;
  };
  SmallInstance inst{
      BooleanQueryFromStructure("q", combine(std::vector<int>(k, 1))), {}};
  std::vector<int> ramp(k);
  for (std::size_t i = 0; i < k; ++i) ramp[i] = static_cast<int>(i + 1);
  inst.views.push_back(BooleanQueryFromStructure("v", combine(ramp)));
  return inst;
}

class GovernedTest : public ::testing::Test {
 protected:
  void TearDown() override { failpoint::DisarmAll(); }
};

// --- ExecContext unit behavior ---------------------------------------------

TEST_F(GovernedTest, UnlimitedContextNeverTrips) {
  ExecContext exec{ExecLimits{}};
  ExecStatus status;
  auto value = RunGoverned(exec, &status, [] {
    for (int i = 0; i < 100000; ++i) ExecCheckPoint("test.loop");
    return 42;
  });
  ASSERT_TRUE(value.has_value());
  EXPECT_EQ(*value, 42);
  EXPECT_TRUE(status.ok());
  EXPECT_FALSE(exec.tripped());
}

TEST_F(GovernedTest, DeadlineTripsBusyLoop) {
  ExecContext exec{ExecLimits{/*deadline_ms=*/20, /*max_memory_bytes=*/0}};
  ExecStatus status;
  auto value = RunGoverned(exec, &status, [] {
    for (;;) ExecCheckPoint("test.spin");
    return 0;  // Unreachable.
  });
  EXPECT_FALSE(value.has_value());
  EXPECT_EQ(status.code, ExecCode::kDeadlineExceeded);
  EXPECT_EQ(status.kernel, "test.spin");
  EXPECT_GE(status.elapsed_ms, 20.0);
}

TEST_F(GovernedTest, CheckpointFreeRunPastItsDeadlineIsNotOk) {
  // A step with no checkpoint that ends past the deadline: the forced check
  // after fn() returns reports the overrun instead of kOk.
  ExecContext exec{ExecLimits{/*deadline_ms=*/5, /*max_memory_bytes=*/0}};
  ExecStatus status;
  auto value = RunGoverned(exec, &status, [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    return 7;
  });
  EXPECT_FALSE(value.has_value());
  EXPECT_EQ(status.code, ExecCode::kDeadlineExceeded);
  EXPECT_EQ(status.kernel, "governed.return");
  EXPECT_GE(status.elapsed_ms, 5.0);
}

TEST_F(GovernedTest, CancellationFromAnotherThread) {
  ExecContext exec{ExecLimits{}};
  std::atomic<bool> started{false};
  ExecStatus status;
  std::thread worker([&] {
    RunGoverned(exec, &status, [&] {
      started.store(true);
      for (;;) ExecCheckPoint("test.spin");
      return 0;
    });
  });
  while (!started.load()) std::this_thread::yield();
  exec.RequestCancel();
  worker.join();
  EXPECT_EQ(status.code, ExecCode::kCancelled);
  EXPECT_EQ(status.kernel, "test.spin");
}

TEST_F(GovernedTest, MemoryBudgetTripsOnCharge) {
  ExecContext exec{ExecLimits{/*deadline_ms=*/0, /*max_memory_bytes=*/1024}};
  ExecStatus status;
  auto value = RunGoverned(exec, &status, [&] {
    ScopedCharge mem("test.table");
    mem.Update(512);   // Within budget.
    mem.Update(256);   // Shrink: releases 256.
    mem.Update(2048);  // Past budget: trips.
    return 0;
  });
  EXPECT_FALSE(value.has_value());
  EXPECT_EQ(status.code, ExecCode::kResourceExhausted);
  EXPECT_EQ(status.kernel, "test.table");
  EXPECT_GT(status.bytes, 1024u);
  // ScopedCharge released its held bytes during the unwind: the context is
  // back to a zero balance and usable for accounting queries.
  EXPECT_EQ(exec.bytes_charged(), 0u);
}

TEST_F(GovernedTest, BadAllocFoldsIntoResourceExhausted) {
  ExecContext exec{ExecLimits{}};
  ExecStatus status;
  auto value = RunGoverned(exec, &status, []() -> int {
    throw std::bad_alloc();
  });
  EXPECT_FALSE(value.has_value());
  EXPECT_EQ(status.code, ExecCode::kResourceExhausted);
  EXPECT_EQ(status.kernel, "alloc");
}

TEST_F(GovernedTest, StatusToStringNamesEverything) {
  ExecContext exec{ExecLimits{/*deadline_ms=*/1, /*max_memory_bytes=*/0}};
  ExecStatus status;
  RunGoverned(exec, &status, [] {
    for (;;) ExecCheckPoint("hom.dp");
    return 0;
  });
  const std::string text = status.ToString();
  EXPECT_NE(text.find("deadline_exceeded"), std::string::npos) << text;
  EXPECT_NE(text.find("hom.dp"), std::string::npos) << text;
}

// --- Governed pipeline entry points ----------------------------------------

TEST_F(GovernedTest, DeadlineTripsAdversarialAnalyze) {
  // Ungoverned this instance takes minutes (the ExistsHom proof tree is
  // ~2^35 nodes); governed it must stop within the deadline plus the
  // checkpoint sampling slack, reporting the tripping kernel.
  AdversarialInstance inst = MakeAdversarial(35);
  ExecContext exec{ExecLimits{/*deadline_ms=*/50, /*max_memory_bytes=*/0}};
  GovernedAnalysis out = AnalyzeInstanceGoverned(inst.views, inst.query, exec);
  ASSERT_FALSE(out.analysis.has_value());
  EXPECT_EQ(out.status.code, ExecCode::kDeadlineExceeded);
  // The backtracking search checkpoints both at its nodes (hom.matcher)
  // and inside per-binding domain propagation (hom.domains) — either may
  // observe the deadline first.
  EXPECT_TRUE(out.status.kernel == "hom.matcher" ||
              out.status.kernel == "hom.domains")
      << out.status.kernel;
  // Overshoot bound: the sampler targets ~1ms between clock reads, so even
  // on a loaded CI host the trip lands well under 10x the deadline.
  EXPECT_LT(out.status.elapsed_ms, 500.0);
}

TEST_F(GovernedTest, CancellationStopsAdversarialAnalyze) {
  AdversarialInstance inst = MakeAdversarial(35);
  ExecContext exec{ExecLimits{}};
  GovernedAnalysis out;
  std::thread worker([&] {
    out = AnalyzeInstanceGoverned(inst.views, inst.query, exec);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  exec.RequestCancel();
  worker.join();
  ASSERT_FALSE(out.analysis.has_value());
  EXPECT_EQ(out.status.code, ExecCode::kCancelled);
}

TEST_F(GovernedTest, MemoryBudgetRejectsPoolAdmission) {
  // A budget below the smallest projected pool footprint: the first intern
  // is rejected before any shard state exists, and the typed status names
  // the admission-control kernel.
  SmallInstance inst = MakeUndetermined(3);
  ExecContext exec{ExecLimits{/*deadline_ms=*/0, /*max_memory_bytes=*/64}};
  GovernedAnalysis out = AnalyzeInstanceGoverned(inst.views, inst.query, exec);
  ASSERT_FALSE(out.analysis.has_value());
  EXPECT_EQ(out.status.code, ExecCode::kResourceExhausted);
  EXPECT_EQ(out.status.kernel, "pool.intern");
  EXPECT_GT(out.status.bytes, 64u);
}

TEST_F(GovernedTest, GovernedUnlimitedBitIdenticalToUngoverned) {
  SmallInstance inst = MakeUndetermined(3);
  DeterminacyResult baseline = DecideBagDeterminacy(inst.views, inst.query);
  ASSERT_FALSE(baseline.determined);
  ASSERT_TRUE(baseline.counterexample.has_value());
  const std::string baseline_summary = baseline.Summary();
  for (int iter = 0; iter < DiffIters(); ++iter) {
    ExecContext exec{ExecLimits{}};
    GovernedDecision governed = DecideBagDeterminacyGoverned(
        inst.views, inst.query, DeterminacyOptions(), exec);
    ASSERT_TRUE(governed.status.ok());
    ASSERT_TRUE(governed.result.has_value());
    EXPECT_EQ(governed.result->Summary(), baseline_summary);
    EXPECT_TRUE(governed.result->exec_status.ok());
  }
}

TEST_F(GovernedTest, TrippedRequestLeavesNextRequestUnaffected) {
  // A deadline trip on one request must not poison the process for the
  // next (fresh context, fresh analysis): the follow-up decision on a
  // normal instance matches its ungoverned baseline exactly.
  AdversarialInstance bad = MakeAdversarial(35);
  ExecContext doomed{ExecLimits{/*deadline_ms=*/30, /*max_memory_bytes=*/0}};
  GovernedAnalysis tripped =
      AnalyzeInstanceGoverned(bad.views, bad.query, doomed);
  ASSERT_FALSE(tripped.analysis.has_value());

  SmallInstance good = MakeUndetermined(3);
  DeterminacyResult baseline = DecideBagDeterminacy(good.views, good.query);
  ExecContext fresh{ExecLimits{}};
  GovernedDecision after = DecideBagDeterminacyGoverned(
      good.views, good.query, DeterminacyOptions(), fresh);
  ASSERT_TRUE(after.result.has_value());
  EXPECT_EQ(after.result->Summary(), baseline.Summary());
}

// --- Deadline contract on the certificate path ------------------------------
//
// On the cycle ramps k = 8, 9 nearly all the time goes to counterexample
// synthesis: the exact inverse of the cone matrix and the Lemma-57
// perturbation walk. Under any deadline a run must either trip with a typed
// status naming its kernel, or return kOk close to its deadline with the
// ungoverned decision. A run that misses its deadline and still reports kOk
// breaks the contract.

/// Full-certificate equality: verdict, Summary(), and every coordinate of
/// the counterexample.
void ExpectSameDecision(const DeterminacyResult& got,
                        const DeterminacyResult& want) {
  EXPECT_EQ(got.determined, want.determined);
  EXPECT_EQ(got.Summary(), want.Summary());
  ASSERT_EQ(got.counterexample.has_value(), want.counterexample.has_value());
  if (!want.counterexample.has_value()) return;
  const BagCounterexample& a = *got.counterexample;
  const BagCounterexample& b = *want.counterexample;
  EXPECT_EQ(a.evaluation_matrix, b.evaluation_matrix);
  EXPECT_EQ(a.z, b.z);
  EXPECT_EQ(a.t, b.t);
  EXPECT_EQ(a.coeffs_d, b.coeffs_d);
  EXPECT_EQ(a.coeffs_d_prime, b.coeffs_d_prime);
}

/// Decides `views`/`query` with the certificate under deadlines of 1–20 ms.
/// A run either trips with a typed deadline outcome that names its kernel,
/// or returns kOk within deadline + 20 ms with the ungoverned `baseline`'s
/// decision.
void ExpectCertificateDeadlineContract(
    const std::vector<ConjunctiveQuery>& views, const ConjunctiveQuery& query,
    const DeterminacyResult& baseline) {
  constexpr double kOkSlackMs = 20.0;
  for (const std::uint64_t deadline_ms : {1, 2, 5, 10, 20}) {
    SCOPED_TRACE("deadline_ms=" + std::to_string(deadline_ms));
    const auto start = std::chrono::steady_clock::now();
    ExecContext exec{ExecLimits{deadline_ms, /*max_memory_bytes=*/0}};
    GovernedDecision governed =
        DecideBagDeterminacyGoverned(views, query, DeterminacyOptions(), exec);
    const double elapsed_ms = std::chrono::duration<double, std::milli>(
                                  std::chrono::steady_clock::now() - start)
                                  .count();
    if (governed.status.code == ExecCode::kDeadlineExceeded) {
      EXPECT_FALSE(governed.status.kernel.empty());
      EXPECT_FALSE(governed.result.has_value());
      continue;
    }
    ASSERT_EQ(governed.status.code, ExecCode::kOk)
        << governed.status.ToString();
    EXPECT_LE(elapsed_ms, static_cast<double>(deadline_ms) + kOkSlackMs);
    ASSERT_TRUE(governed.result.has_value());
    ExpectSameDecision(*governed.result, baseline);
  }
}

TEST_F(GovernedTest, CertificatePathNeverReturnsOkPastItsDeadline) {
  // k = 10 and 11 keep a synthesis trip in reach: the fraction-free
  // certificate path finishes k = 8 and 9 within a few milliseconds.
  for (const std::size_t k : {std::size_t{8}, std::size_t{9}, std::size_t{10},
                              std::size_t{11}}) {
    SCOPED_TRACE("k=" + std::to_string(k));
    const SmallInstance inst = MakeUndetermined(k);
    const DeterminacyResult baseline =
        DecideBagDeterminacy(inst.views, inst.query);
    ASSERT_TRUE(baseline.counterexample.has_value());
    ExpectCertificateDeadlineContract(inst.views, inst.query, baseline);
  }
}

TEST_F(GovernedTest,
       CertificatePathNeverReturnsOkPastItsDeadlineOnRandomInstances) {
  // The undetermined instances of CertificateDifferentialTest's random
  // family (same generator, same seed): one or two small random components
  // per query and one to three views, instead of one cycle ramp.
  auto schema = GraphSchema();
  Rng rng(55001);
  int undetermined = 0;
  for (int iter = 0; iter < 60 && undetermined < 16; ++iter) {
    const ConjunctiveQuery query = BooleanQueryFromStructure(
        "q", testinst::RandomQueryBody(schema, &rng));
    std::vector<ConjunctiveQuery> views;
    const std::size_t num_views = 1 + rng.Below(3);
    for (std::size_t i = 0; i < num_views; ++i) {
      views.push_back(BooleanQueryFromStructure(
          "v" + std::to_string(i), testinst::RandomQueryBody(schema, &rng)));
    }
    const DeterminacyResult baseline = DecideBagDeterminacy(views, query);
    if (baseline.determined) continue;
    ++undetermined;
    SCOPED_TRACE("iter " + std::to_string(iter) + " q=" + query.ToString());
    ASSERT_TRUE(baseline.counterexample.has_value());
    ExpectCertificateDeadlineContract(views, query, baseline);
  }
  EXPECT_GE(undetermined, 8);
}

TEST_F(GovernedTest, RelevanceNeverReturnsOkPastItsDeadline) {
  // Relevance runs one ExistsHom per foreign class, so an adversarial class
  // repeated across 16 views is one search, and that search must still
  // observe the deadline. The decide_views-shaped instance finishes well
  // inside every deadline; if it ever trips, the trip must be typed.
  constexpr double kOkSlackMs = 20.0;
  const AdversarialInstance adversarial = MakeAdversarial(35);
  std::vector<ConjunctiveQuery> repeated;
  for (int v = 0; v < 16; ++v) {
    repeated.push_back(BooleanQueryFromStructure(
        "v" + std::to_string(v),
        DisjointUnion(adversarial.query.FrozenBody(),
                      adversarial.views[0].FrozenBody())));
  }
  const testinst::ViewsShapedInstance views_shaped =
      testinst::MakeViewsShaped(/*num_views=*/48, /*num_markers=*/2, 11);
  DeterminacyOptions verdict_only;
  verdict_only.want_counterexample = false;
  const DeterminacyResult baseline = DecideBagDeterminacy(
      views_shaped.views, views_shaped.query, verdict_only);
  for (const std::uint64_t deadline_ms : {1, 2, 5, 10, 20}) {
    SCOPED_TRACE("deadline_ms=" + std::to_string(deadline_ms));
    {
      ExecContext exec{ExecLimits{deadline_ms, /*max_memory_bytes=*/0}};
      GovernedDecision governed = DecideBagDeterminacyGoverned(
          repeated, adversarial.query, verdict_only, exec);
      ASSERT_EQ(governed.status.code, ExecCode::kDeadlineExceeded)
          << governed.status.ToString();
      EXPECT_FALSE(governed.status.kernel.empty());
      EXPECT_FALSE(governed.result.has_value());
      EXPECT_LT(governed.status.elapsed_ms, 500.0);
    }
    const auto start = std::chrono::steady_clock::now();
    ExecContext exec{ExecLimits{deadline_ms, /*max_memory_bytes=*/0}};
    GovernedDecision governed = DecideBagDeterminacyGoverned(
        views_shaped.views, views_shaped.query, verdict_only, exec);
    const double elapsed_ms = std::chrono::duration<double, std::milli>(
                                  std::chrono::steady_clock::now() - start)
                                  .count();
    if (governed.status.code == ExecCode::kDeadlineExceeded) {
      EXPECT_FALSE(governed.status.kernel.empty());
      EXPECT_FALSE(governed.result.has_value());
      continue;
    }
    ASSERT_EQ(governed.status.code, ExecCode::kOk)
        << governed.status.ToString();
    EXPECT_LE(elapsed_ms, static_cast<double>(deadline_ms) + kOkSlackMs);
    ASSERT_TRUE(governed.result.has_value());
    EXPECT_EQ(governed.result->determined, baseline.determined);
    EXPECT_EQ(governed.result->analysis.relevant_views, views_shaped.relevant);
  }
}

// --- Typed distinguisher/basis outcomes (no exceptions on bound
// exhaustion) ----------------------------------------------------------------

/// A "tier-0 blind" pair: weakly connected, non-isomorphic digraphs on 4
/// elements whose cheap candidate counts coincide —
///   hom(a,a) = hom(b,a) = 8  and  hom(a,b) = hom(b,b) = 20
/// (found by exhaustive search over all 4-vertex digraphs), so neither
/// input distinguishes the pair and only the subset sweep or the random
/// tier can. Crippling those bounds makes kBoundsExhausted genuinely
/// reachable; default bounds sweep the complete induced-substructure
/// family, which is guaranteed to separate them.
Structure TierZeroBlindA(const std::shared_ptr<Schema>& schema) {
  Structure s(schema);
  const std::pair<Element, Element> edges[] = {{0, 0}, {0, 1}, {0, 3},
                                               {1, 1}, {1, 2}, {2, 0}};
  for (const auto& [u, v] : edges) s.AddFact(0, {u, v});
  return s;
}

Structure TierZeroBlindB(const std::shared_ptr<Schema>& schema) {
  Structure s(schema);
  const std::pair<Element, Element> edges[] = {{0, 0}, {0, 2}, {0, 3},
                                               {1, 3}, {2, 0}, {2, 2}};
  for (const auto& [u, v] : edges) s.AddFact(0, {u, v});
  return s;
}

DistinguisherOptions CrippledDistinguisher() {
  DistinguisherOptions tight;
  tight.max_subset_domain = 2;  // Both inputs (domain 4) skip the sweep.
  tight.random_attempts = 1;
  // Domain-1 candidates (a loop or an empty point) count 1/1 resp. 0/0
  // against both inputs — the random tier cannot separate the pair either.
  tight.max_random_domain = 1;
  return tight;
}

TEST_F(GovernedTest, DistinguisherBoundsExhaustionIsTyped) {
  // Tier-0 blind pair + crippled sweep/random tiers: SearchDistinguisher
  // reports kBoundsExhausted; the legacy wrapper still throws.
  auto schema = GraphSchema();
  Structure a = TierZeroBlindA(schema);
  Structure b = TierZeroBlindB(schema);
  ASSERT_EQ(CountHoms(a, a), CountHoms(b, a));  // Tier 0 really is blind.
  ASSERT_EQ(CountHoms(a, b), CountHoms(b, b));
  DistinguisherOptions tight = CrippledDistinguisher();
  DistinguisherSearch search = SearchDistinguisher(a, b, tight);
  EXPECT_EQ(search.outcome, DistinguisherOutcome::kBoundsExhausted);
  EXPECT_FALSE(search.distinguisher.has_value());
  EXPECT_THROW(FindDistinguisher(a, b, tight), std::runtime_error);
  // Default bounds admit the complete sweep and succeed on the same pair.
  DistinguisherSearch wide = SearchDistinguisher(a, b, DistinguisherOptions());
  EXPECT_EQ(wide.outcome, DistinguisherOutcome::kFound);
  ASSERT_TRUE(wide.distinguisher.has_value());
  EXPECT_NE(CountHoms(a, *wide.distinguisher),
            CountHoms(b, *wide.distinguisher));
}

TEST_F(GovernedTest, DecideSurvivesDistinguisherExhaustion) {
  // The tier-0 blind pair as the two basis components of an undetermined
  // instance, under a crippled distinguisher: the verdict (NOT determined)
  // still comes back, no exception escapes, and the missing certificate is
  // explained by exec_status.
  auto schema = GraphSchema();
  Structure a = TierZeroBlindA(schema);
  Structure b = TierZeroBlindB(schema);
  ConjunctiveQuery query = BooleanQueryFromStructure("q", DisjointUnion(a, b));
  std::vector<ConjunctiveQuery> views;
  views.push_back(BooleanQueryFromStructure(
      "v", DisjointUnion(DisjointUnion(a, b), b)));  // Vector (1,2) vs (1,1).
  DeterminacyOptions options;
  options.distinguisher = CrippledDistinguisher();
  DeterminacyResult result = DecideBagDeterminacy(views, query, options);
  EXPECT_FALSE(result.determined);
  EXPECT_FALSE(result.counterexample.has_value());
  EXPECT_EQ(result.exec_status.code, ExecCode::kResourceExhausted);
  EXPECT_EQ(result.exec_status.kernel, "distinguisher");
  EXPECT_NE(result.Summary().find("Counterexample unavailable"),
            std::string::npos);
  // TryBuildGoodBasis reports the same typed outcome directly.
  GoodBasisOutcome basis =
      TryBuildGoodBasis(result.analysis, options.distinguisher);
  EXPECT_FALSE(basis.basis.has_value());
  EXPECT_EQ(basis.status.code, ExecCode::kResourceExhausted);
  // With default bounds the same instance yields a verified certificate.
  DeterminacyResult healthy = DecideBagDeterminacy(views, query);
  EXPECT_FALSE(healthy.determined);
  ASSERT_TRUE(healthy.counterexample.has_value());
  EXPECT_TRUE(healthy.exec_status.ok());
}

TEST_F(GovernedTest, WalkExhaustionIsTyped) {
  // p = M·(0,1) = (1, 2) lies on the boundary of the cone of
  // M = [[1,1],[1,2]], and t^z ∘ p = (1, 2t) has coordinates
  // (2 − 2t, 2t − 1): the first is negative for every t > 1, so no step of
  // the walk re-enters the cone.
  const Mat m{{Rational(1), Rational(1)}, {Rational(1), Rational(2)}};
  const SimplicialCone cone(m);
  const Vec p = m.Apply(Vec{Rational(0), Rational(1)});
  const Vec z{Rational(0), Rational(1)};
  ExecContext exec{ExecLimits{}};
  ExecStatus status;
  std::optional<PerturbationWalk> walk =
      RunGoverned(exec, &status, [&] { return WalkIntoCone(cone, p, z); });
  ASSERT_TRUE(status.ok()) << status.ToString();
  ASSERT_TRUE(walk.has_value());
  EXPECT_EQ(walk->status.code, ExecCode::kResourceExhausted);
  EXPECT_EQ(walk->status.kernel, "core.walk");
  EXPECT_TRUE(walk->coordinates.empty());
  // From the interior point M·𝟙 = (2, 3) the same walk converges: the
  // coordinates (4 − 3t, 3t − 2) are first nonnegative at t = 5/4.
  const PerturbationWalk inside = WalkIntoCone(cone, cone.InteriorPoint(), z);
  ASSERT_TRUE(inside.status.ok());
  EXPECT_EQ(inside.t, Rational(BigInt(5), BigInt(4)));
  EXPECT_EQ(inside.coordinates, (Vec{Rational(BigInt(1), BigInt(4)),
                                     Rational(BigInt(7), BigInt(4))}));
}

TEST_F(GovernedTest, WalkGivesUpAfterItsLastStep) {
  // With M = [[1,1],[1,2]] and z = (0,1), the point p = (1 + ε, 2) walks
  // to (1 + ε, 2t), whose coordinates (2(1 + ε − t), 2t − 1 − ε) are
  // nonnegative iff t = 1 + 2^-j ≤ 1 + ε. So ε = 2^-j0 is first accepted
  // at step j0.
  const Mat m{{Rational(1), Rational(1)}, {Rational(1), Rational(2)}};
  const SimplicialCone cone(m);
  const Vec z{Rational(0), Rational(1)};
  const auto walk_with = [&](std::int64_t j0) {
    const Rational eps(BigInt(1),
                       BigInt::Pow(BigInt(2), static_cast<std::uint64_t>(j0)));
    return WalkIntoCone(cone, Vec{Rational(1) + eps, Rational(2)}, z);
  };
  const std::int64_t last = PerturbationWalk::kMaxWalkSteps;
  EXPECT_EQ(last, 4097);
  const PerturbationWalk reached = walk_with(last);
  ASSERT_TRUE(reached.status.ok());
  const BigInt b = BigInt::Pow(BigInt(2), static_cast<std::uint64_t>(last));
  EXPECT_EQ(reached.t, Rational(b + BigInt(1), b));
  const PerturbationWalk beyond = walk_with(last + 1);
  EXPECT_EQ(beyond.status.code, ExecCode::kResourceExhausted);
  EXPECT_EQ(beyond.status.kernel, "core.walk");
}

TEST_F(GovernedTest, ExactKernelsAndWalkTripOnCancellation) {
  // A context cancelled up front trips at the first forced checkpoint of
  // each kernel, which names it.
  const Mat m{{Rational(1), Rational(1)}, {Rational(1), Rational(2)}};
  const Mat wide{{Rational(1), Rational(2), Rational(3), Rational(4)},
                 {Rational(2), Rational(0), Rational(1), Rational(5)},
                 {Rational(0), Rational(3), Rational(1), Rational(1)}};
  const std::vector<Vec> basis = {wide.Row(0), wide.Row(1)};
  const SimplicialCone cone(m);
  const Vec interior = cone.InteriorPoint();
  const auto expect_trip = [&](const char* kernel, auto&& fn) {
    SCOPED_TRACE(kernel);
    ExecContext exec{ExecLimits{}};
    exec.RequestCancel();
    ExecStatus status;
    EXPECT_FALSE(RunGoverned(exec, &status, fn).has_value());
    EXPECT_EQ(status.code, ExecCode::kCancelled);
    EXPECT_EQ(status.kernel, kernel);
  };
  expect_trip("linalg.cone", [&] { return SimplicialCone(m); });
  expect_trip("linalg.cone", [&] { return cone.Coordinates(interior); });
  expect_trip("linalg.cone", [&] { return cone.InteriorPoint(); });
  expect_trip("linalg.exact", [&] { return ReduceToRref(wide); });
  expect_trip("linalg.exact",
              [&] { return TestSpanMembership(basis, wide.Row(2)); });
  expect_trip("core.walk", [&] {
    return WalkIntoCone(cone, interior, Vec{Rational(1), Rational(-1)});
  });
}

// --- The Theorem-2 refutation search ----------------------------------------

/// The Lemma-63 instance x0^2 - 4 = 0: a witness exists within bound 4.
Theorem2Reduction HilbertReduction() {
  return ReduceToDeterminacy(DiophantineInstance::Parse("x0^2 - 4"));
}

void ExpectSameWitness(const NonDeterminacyWitness& a,
                       const NonDeterminacyWitness& b) {
  EXPECT_EQ(a.d, b.d);
  EXPECT_EQ(a.d_prime, b.d_prime);
  EXPECT_EQ(a.view_counts, b.view_counts);
  EXPECT_EQ(a.query_count_d, b.query_count_d);
  EXPECT_EQ(a.query_count_d_prime, b.query_count_d_prime);
}

TEST_F(GovernedTest, HilbertSearchGridTripsAMemoryBudget) {
  const Theorem2Reduction red = HilbertReduction();
  ExecContext exec{ExecLimits{/*deadline_ms=*/0, /*max_memory_bytes=*/1}};
  ExecStatus status;
  auto value =
      RunGoverned(exec, &status, [&] { return SearchNonDeterminacy(red, 4); });
  EXPECT_FALSE(value.has_value());
  EXPECT_EQ(status.code, ExecCode::kResourceExhausted);
  EXPECT_EQ(status.kernel, "hilbert.search");
  // The grid's ScopedCharge released its bytes during the unwind.
  EXPECT_EQ(exec.bytes_charged(), 0u);
}

TEST_F(GovernedTest, HilbertSearchStopsWhenCancelledUpFront) {
  const Theorem2Reduction red = HilbertReduction();
  ExecContext exec{ExecLimits{}};
  exec.RequestCancel();
  ExecStatus status;
  auto value =
      RunGoverned(exec, &status, [&] { return SearchNonDeterminacy(red, 4); });
  EXPECT_FALSE(value.has_value());
  EXPECT_EQ(status.code, ExecCode::kCancelled);
  EXPECT_EQ(status.kernel, "hilbert.search");
}

TEST_F(GovernedTest, HilbertSearchGovernedWitnessMatchesUngoverned) {
  const Theorem2Reduction red = HilbertReduction();
  const std::optional<NonDeterminacyWitness> baseline =
      SearchNonDeterminacy(red, 4);
  ASSERT_TRUE(baseline.has_value());
  ExecContext exec{ExecLimits{/*deadline_ms=*/60000,
                              /*max_memory_bytes=*/std::uint64_t{1} << 30}};
  ExecStatus status;
  auto value =
      RunGoverned(exec, &status, [&] { return SearchNonDeterminacy(red, 4); });
  ASSERT_TRUE(status.ok()) << status.ToString();
  ASSERT_TRUE(value.has_value() && value->has_value());
  ExpectSameWitness(**value, *baseline);
  EXPECT_EQ(exec.bytes_charged(), 0u);
}

// --- Failpoint registry ------------------------------------------------------

TEST_F(GovernedTest, RegistryCountsAndDisarms) {
  // The registry itself is always compiled; only the in-kernel hooks are
  // build-gated. Direct Evaluate calls exercise trigger logic everywhere.
  failpoint::Config off;
  off.action = failpoint::Action::kOff;
  failpoint::Arm("test/site", off);
  for (int i = 0; i < 5; ++i) failpoint::Evaluate("test/site");
  EXPECT_EQ(failpoint::HitCount("test/site"), 5u);
  EXPECT_EQ(failpoint::ArmedNames(), std::vector<std::string>{"test/site"});
  failpoint::Evaluate("test/unarmed");  // No-op.
  EXPECT_EQ(failpoint::HitCount("test/unarmed"), 0u);
  failpoint::Disarm("test/site");
  EXPECT_TRUE(failpoint::ArmedNames().empty());
  failpoint::Evaluate("test/site");
  EXPECT_EQ(failpoint::HitCount("test/site"), 0u);
}

TEST_F(GovernedTest, RegistryNthHitTrigger) {
  failpoint::Config cfg;
  cfg.action = failpoint::Action::kBadAlloc;
  cfg.hit_on = 3;
  failpoint::Arm("test/nth", cfg);
  EXPECT_NO_THROW(failpoint::Evaluate("test/nth"));
  EXPECT_NO_THROW(failpoint::Evaluate("test/nth"));
  EXPECT_THROW(failpoint::Evaluate("test/nth"), std::bad_alloc);
  EXPECT_NO_THROW(failpoint::Evaluate("test/nth"));  // Exactly once.
  // Re-arming resets the hit counter.
  failpoint::Arm("test/nth", cfg);
  EXPECT_NO_THROW(failpoint::Evaluate("test/nth"));
  EXPECT_EQ(failpoint::HitCount("test/nth"), 1u);
}

TEST_F(GovernedTest, RegistryProbabilisticTriggerIsSeeded) {
  failpoint::Config cfg;
  cfg.action = failpoint::Action::kBadAlloc;
  cfg.probability = 0.5;
  cfg.seed = 7;
  auto fire_pattern = [&] {
    failpoint::Arm("test/coin", cfg);
    std::string pattern;
    for (int i = 0; i < 32; ++i) {
      try {
        failpoint::Evaluate("test/coin");
        pattern += '.';
      } catch (const std::bad_alloc&) {
        pattern += 'X';
      }
    }
    return pattern;
  };
  const std::string first = fire_pattern();
  EXPECT_EQ(fire_pattern(), first);  // Deterministic for a fixed seed.
  EXPECT_NE(first.find('X'), std::string::npos);
  EXPECT_NE(first.find('.'), std::string::npos);
  // Cancel without a governing context is a no-op by design.
  failpoint::Config cancel;
  cancel.action = failpoint::Action::kCancel;
  failpoint::Arm("test/cancel", cancel);
  EXPECT_NO_THROW(failpoint::Evaluate("test/cancel"));
}

// --- Injected faults across the pipeline (BAGDET_FAILPOINTS builds) ---------

TEST_F(GovernedTest, InjectedCancelMidDp) {
  if (!failpoint::Enabled()) {
    GTEST_SKIP() << "requires -DBAGDET_FAILPOINTS=ON";
  }
  auto schema = GraphSchema();
  Structure from = SymmetricCycle(schema, 5);
  const Structure to = FullDigraph(schema, 5);
  const BigInt baseline = CountHoms(from, to);
  for (int iter = 0; iter < DiffIters(); ++iter) {
    failpoint::Config cfg;
    cfg.action = failpoint::Action::kCancel;
    cfg.hit_on = 1;
    failpoint::Arm("hom/dp_step", cfg);
    ExecContext exec{ExecLimits{}};
    ExecStatus status;
    auto value =
        RunGoverned(exec, &status, [&] { return CountHoms(from, to); });
    EXPECT_FALSE(value.has_value());
    EXPECT_EQ(status.code, ExecCode::kCancelled);
    failpoint::DisarmAll();
    // Clean unwind: the disarmed rerun is bit-identical.
    EXPECT_EQ(CountHoms(from, to), baseline);
  }
}

TEST_F(GovernedTest, InjectedCancelMidHilbertFill) {
  if (!failpoint::Enabled()) {
    GTEST_SKIP() << "requires -DBAGDET_FAILPOINTS=ON";
  }
  const Theorem2Reduction red = HilbertReduction();
  const std::optional<NonDeterminacyWitness> baseline =
      SearchNonDeterminacy(red, 4);
  ASSERT_TRUE(baseline.has_value());
  failpoint::Config cfg;
  cfg.action = failpoint::Action::kCancel;
  cfg.hit_on = 3;
  failpoint::Arm("hilbert/entry", cfg);
  ExecContext exec{ExecLimits{}};
  ExecStatus status;
  auto value =
      RunGoverned(exec, &status, [&] { return SearchNonDeterminacy(red, 4); });
  EXPECT_FALSE(value.has_value());
  EXPECT_EQ(status.code, ExecCode::kCancelled);
  EXPECT_EQ(failpoint::HitCount("hilbert/entry"), 3u);
  EXPECT_EQ(exec.bytes_charged(), 0u);
  failpoint::DisarmAll();
  // Clean unwind: the disarmed rerun finds the same witness.
  const std::optional<NonDeterminacyWitness> rerun =
      SearchNonDeterminacy(red, 4);
  ASSERT_TRUE(rerun.has_value());
  ExpectSameWitness(*rerun, *baseline);
}

TEST_F(GovernedTest, InjectedCancelMidCanonicalSearch) {
  if (!failpoint::Enabled()) {
    GTEST_SKIP() << "requires -DBAGDET_FAILPOINTS=ON";
  }
  // Query bodies memoize their canonical data at construction (structure.h:
  // canonical_) and component interning reuses those certificates, so the
  // only canonical searches under the governed scope are for *fresh*
  // structures — the distinguisher's sweep candidates. The tier-0 blind
  // pair forces that sweep: its candidates (domain <= 4, under the caching
  // cutoff) are canonicalized mid-decide, which is where the injected
  // cancel lands.
  auto schema = GraphSchema();
  Structure a = TierZeroBlindA(schema);
  Structure b = TierZeroBlindB(schema);
  ConjunctiveQuery query = BooleanQueryFromStructure("q", DisjointUnion(a, b));
  std::vector<ConjunctiveQuery> views;
  views.push_back(
      BooleanQueryFromStructure("v", DisjointUnion(DisjointUnion(a, b), b)));
  DeterminacyResult baseline = DecideBagDeterminacy(views, query);
  ASSERT_TRUE(baseline.counterexample.has_value());
  failpoint::Config cfg;
  cfg.action = failpoint::Action::kCancel;
  cfg.hit_on = 1;
  failpoint::Arm("canonical/branch", cfg);
  ExecContext exec{ExecLimits{}};
  GovernedDecision out =
      DecideBagDeterminacyGoverned(views, query, DeterminacyOptions(), exec);
  ASSERT_FALSE(out.result.has_value());
  EXPECT_EQ(out.status.code, ExecCode::kCancelled);
  EXPECT_GE(failpoint::HitCount("canonical/branch"), 1u);
  failpoint::DisarmAll();
  ExecContext fresh{ExecLimits{}};
  GovernedDecision rerun =
      DecideBagDeterminacyGoverned(views, query, DeterminacyOptions(), fresh);
  ASSERT_TRUE(rerun.result.has_value());
  EXPECT_EQ(rerun.result->Summary(), baseline.Summary());
}

TEST_F(GovernedTest, InjectedAllocFailureInDpTable) {
  if (!failpoint::Enabled()) {
    GTEST_SKIP() << "requires -DBAGDET_FAILPOINTS=ON";
  }
  auto schema = GraphSchema();
  // C5 -> K5 keeps two live variables, so the DP table reaches 25 entries
  // and must grow past the initial 16 slots — the injection site.
  Structure from = SymmetricCycle(schema, 5);
  const Structure to = FullDigraph(schema, 5);
  const BigInt baseline = CountHoms(from, to);
  failpoint::Config cfg;
  cfg.action = failpoint::Action::kBadAlloc;
  cfg.hit_on = 1;
  failpoint::Arm("hom/dp_table_grow", cfg);
  ExecContext exec{ExecLimits{}};
  ExecStatus status;
  auto value =
      RunGoverned(exec, &status, [&] { return CountHoms(from, to); });
  EXPECT_FALSE(value.has_value());
  EXPECT_EQ(status.code, ExecCode::kResourceExhausted);
  failpoint::DisarmAll();
  EXPECT_EQ(CountHoms(from, to), baseline);
}

TEST_F(GovernedTest, InjectedAllocFailureInBigInt) {
  if (!failpoint::Enabled()) {
    GTEST_SKIP() << "requires -DBAGDET_FAILPOINTS=ON";
  }
  failpoint::Config cfg;
  cfg.action = failpoint::Action::kBadAlloc;
  cfg.hit_on = 1;
  failpoint::Arm("bigint/alloc", cfg);
  ExecContext exec{ExecLimits{}};
  ExecStatus status;
  auto value = RunGoverned(exec, &status, [] {
    // Forces a limb spill (> 2 limbs) — the injection site.
    return BigInt::Pow(BigInt(2), 300);
  });
  EXPECT_FALSE(value.has_value());
  EXPECT_EQ(status.code, ExecCode::kResourceExhausted);
  failpoint::DisarmAll();
  EXPECT_EQ(BigInt::Pow(BigInt(2), 300),
            BigInt::Pow(BigInt(2), 150) * BigInt::Pow(BigInt(2), 150));
}

TEST_F(GovernedTest, InjectedAllocFailureLeavesHomCacheConsistent) {
  if (!failpoint::Enabled()) {
    GTEST_SKIP() << "requires -DBAGDET_FAILPOINTS=ON";
  }
  auto schema = GraphSchema();
  Structure from = SymmetricCycle(schema, 3);
  Structure to = FullDigraph(schema, 3);
  const BigInt expected = CountHoms(from, to);
  HomCache cache;
  failpoint::Config cfg;
  cfg.action = failpoint::Action::kBadAlloc;
  cfg.hit_on = 1;
  failpoint::Arm("homcache/insert", cfg);
  EXPECT_THROW(cache.Count(from, to), std::bad_alloc);
  failpoint::DisarmAll();
  // The aborted insert left the shard untouched: the same cache serves the
  // same pair correctly (recomputed, then memoized).
  EXPECT_EQ(cache.Count(from, to), expected);
  EXPECT_EQ(cache.Count(from, to), expected);  // Now a cache hit.
  EXPECT_GE(cache.stats().hits, 1u);
}

TEST_F(GovernedTest, InjectedCancelMidDecidePipeline) {
  if (!failpoint::Enabled()) {
    GTEST_SKIP() << "requires -DBAGDET_FAILPOINTS=ON";
  }
  SmallInstance inst = MakeUndetermined(3);
  DeterminacyResult baseline = DecideBagDeterminacy(inst.views, inst.query);
  const std::string baseline_summary = baseline.Summary();
  for (int iter = 0; iter < DiffIters(); ++iter) {
    failpoint::Config cfg;
    cfg.action = failpoint::Action::kCancel;
    cfg.hit_on = 5;  // Deep enough that real pipeline work is in flight.
    failpoint::Arm("hom/dp_step", cfg);
    ExecContext exec{ExecLimits{}};
    GovernedDecision tripped = DecideBagDeterminacyGoverned(
        inst.views, inst.query, DeterminacyOptions(), exec);
    // The pipeline reached the site: a site it no longer reaches would let
    // the decision finish kOk and this test go dead.
    EXPECT_GE(failpoint::HitCount("hom/dp_step"), cfg.hit_on);
    EXPECT_FALSE(tripped.result.has_value());
    EXPECT_EQ(tripped.status.code, ExecCode::kCancelled);
    failpoint::DisarmAll();
    ExecContext fresh{ExecLimits{}};
    GovernedDecision rerun = DecideBagDeterminacyGoverned(
        inst.views, inst.query, DeterminacyOptions(), fresh);
    ASSERT_TRUE(rerun.result.has_value());
    EXPECT_EQ(rerun.result->Summary(), baseline_summary);
  }
}

}  // namespace
}  // namespace bagdet
