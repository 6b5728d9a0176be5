// Expected verdicts computed without the library, and the answer checker.
//
// The expected verdict is a rank test over the generator's multiplicity
// vectors (Main Lemma 31: determined iff q⃗ ∈ span{v⃗ : v relevant}), done
// in the benchmark's own fraction-free __int128 arithmetic. A determined
// answer's witness is checked as Σ_j α_j · m(view_j) = m(q) in the same
// arithmetic; an undetermined answer's certificate is rebuilt from its
// coefficients and checked with VerifyCounterexample against a fresh
// analysis of the instance.

#ifndef PERFBENCH_REFERENCE_H_
#define PERFBENCH_REFERENCE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/determinacy.h"
#include "workloads.h"

namespace perfbench {

/// q⃗ ∈ span{v⃗ : v relevant}, from the generator's vectors alone.
bool ReferenceDetermined(const Instance& instance);

/// Digest of the verdict and the whole certificate (witness exponents, or
/// z, t, both coefficient vectors and the evaluation matrix). Equal digests
/// mean bit-identical answers.
std::uint64_t AnswerDigest(const bagdet::DeterminacyResult& result);

/// Checks answers against the reference. A certificate is verified in full
/// the first time its digest is seen for an instance, against a fresh
/// analysis of the instance (its own hom cache, so the check never reads
/// back counts the decision memoized); later answers with the same digest
/// are accepted as the same, already verified, certificate.
class Checker {
 public:
  /// Returns a fresh analysis of instance `instance_id`.
  using Analyze = std::function<bagdet::InstanceAnalysis(std::size_t)>;

  /// `defer_certificates`: queue unseen certificates instead of verifying
  /// them inside Check (the serving section verifies after its timed phase,
  /// so verification does not delay the generator).
  explicit Checker(Analyze analyze, bool defer_certificates = false)
      : analyze_(std::move(analyze)), defer_(defer_certificates) {}

  /// Returns the empty string for a correct answer, otherwise why not.
  /// `want_counterexample` false skips the certificate requirement (a
  /// verdict-only request or a degraded serving answer).
  std::string Check(const Instance& instance, std::size_t instance_id,
                    bool expected_determined,
                    const bagdet::DeterminacyResult& result,
                    bool want_counterexample);

  /// Verifies the queued certificates. Returns (instance id, why) per
  /// failure.
  std::vector<std::pair<std::size_t, std::string>> VerifyQueued();

 private:
  struct Queued {
    std::size_t instance_id;
    std::uint64_t digest;
    bagdet::BagCounterexample cx;
  };
  /// VerifyCertificate against a fresh analysis; exceptions become reasons.
  std::string Verify(std::size_t instance_id, const bagdet::BagCounterexample& cx);

  Analyze analyze_;
  bool defer_;
  std::map<std::pair<std::size_t, std::uint64_t>, bool> verified_;
  std::vector<Queued> queued_;
};

/// Verifies a counterexample in coefficient form: both coordinate vectors
/// natural, D and D′ rebuilt from them agree in domain size with the
/// returned terms, and VerifyCounterexample accepts the rebuilt pair.
std::string VerifyCertificate(const bagdet::InstanceAnalysis& analysis,
                              const bagdet::BagCounterexample& cx);

}  // namespace perfbench

#endif  // PERFBENCH_REFERENCE_H_
