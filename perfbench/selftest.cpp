// Checker self-test: answers the library got right are corrupted in three
// ways, and each corrupted answer must be counted as failed.
//   1. flipped verdict    — the expected verdict is inverted;
//   2. witness exponent   — one exponent of a positive witness moves by 1;
//   3. certificate        — one coordinate of D′ moves by 1, once with the
//                           term left as it was and once rebuilt to match.

#include "runs.h"

#include <iostream>
#include <thread>

#include "util/thread_pool.h"

namespace perfbench {

namespace {

struct FaultCount {
  explicit FaultCount(const char* fault_name) : name(fault_name) {}
  const char* name;
  std::size_t injected = 0;
  std::size_t counted = 0;
  std::string first_reason;
};

}  // namespace

int RunSelfTest(std::uint64_t seed) {
  bagdet::SetGlobalThreadPoolSize(
      std::max<std::size_t>(1, std::thread::hardware_concurrency()));
  std::vector<Instance> set;
  const std::vector<Instance> certify = CertifySet(seed);
  set.push_back(certify[0]);  // Cycle ramp k = 5.
  set.push_back(certify[4]);  // Two random certify instances.
  set.push_back(certify[5]);
  std::size_t determined = 0;
  std::size_t undetermined = 0;
  for (const Instance& inst : DecideViewsSet(seed)) {
    const bool d = ReferenceDetermined(inst);
    if ((d && determined < 2) || (!d && undetermined < 2)) {
      set.push_back(inst);
      ++(d ? determined : undetermined);
    }
  }
  const Prepared prep = Prepare(std::move(set));

  Checker checker(FreshAnalysis(prep));
  std::vector<bagdet::DeterminacyResult> results;
  std::size_t clean_failures = 0;
  for (std::size_t i = 0; i < prep.instances.size(); ++i) {
    results.push_back(Decide(prep.parsed[i], prep.instances[i].want_counterexample));
    const std::string why = checker.Check(prep.instances[i], i, prep.expected[i],
                                          results[i],
                                          prep.instances[i].want_counterexample);
    if (!why.empty()) {
      ++clean_failures;
      std::cout << "selftest: correct answer rejected: " << prep.instances[i].name
                << ": " << why << "\n";
    }
  }

  FaultCount flipped{"flipped_verdict"};
  FaultCount witness{"witness_exponent"};
  FaultCount coordinate{"certificate_coordinate"};
  FaultCount rebuilt{"certificate_coordinate_rebuilt"};
  auto count = [&](FaultCount& fault, std::size_t i,
                   const bagdet::DeterminacyResult& answer, bool expected) {
    ++fault.injected;
    const std::string why = checker.Check(prep.instances[i], i, expected, answer,
                                          prep.instances[i].want_counterexample);
    if (!why.empty()) {
      ++fault.counted;
      if (fault.first_reason.empty()) fault.first_reason = why.substr(0, 160);
    }
  };
  for (std::size_t i = 0; i < prep.instances.size(); ++i) {
    const bagdet::DeterminacyResult& r = results[i];
    count(flipped, i, r, !prep.expected[i]);
    if (r.witness.has_value() && r.witness->exponents.size() > 0) {
      bagdet::DeterminacyResult bad = r;
      bad.witness->exponents[0] = bad.witness->exponents[0] + bagdet::Rational(1);
      count(witness, i, bad, prep.expected[i]);
    }
    if (r.counterexample.has_value()) {
      bagdet::DeterminacyResult bad = r;
      bagdet::BagCounterexample& cx = *bad.counterexample;
      cx.coeffs_d_prime[0] = cx.coeffs_d_prime[0] + bagdet::Rational(1);
      count(coordinate, i, bad, prep.expected[i]);

      std::vector<bagdet::StructureExpr> terms;
      for (std::size_t j = 0; j < cx.basis_structures.size(); ++j) {
        terms.push_back(bagdet::StructureExpr::Scalar(
            cx.coeffs_d_prime[j].numerator(), cx.basis_structures[j]));
      }
      cx.d_prime = bagdet::StructureExpr::Sum(
          std::move(terms), r.analysis.query.schema_ptr());
      cx.t = cx.t + bagdet::Rational(1);  // A digest the checker has not seen.
      count(rebuilt, i, bad, prep.expected[i]);
    }
  }

  bool pass = clean_failures == 0;
  std::size_t injected = 0;
  std::size_t counted = 0;
  for (const FaultCount* f : {&flipped, &witness, &coordinate, &rebuilt}) {
    std::cout << "selftest: " << f->name << " injected=" << f->injected
              << " counted=" << f->counted << " (" << f->first_reason << ")\n";
    pass = pass && f->injected > 0 && f->counted == f->injected;
    injected += f->injected;
    counted += f->counted;
  }
  const std::size_t attempted = prep.instances.size() + injected;
  const std::size_t failed = clean_failures + counted;
  std::cout << "selftest: " << (pass ? "PASS" : "FAIL") << "\n";
  std::cout << "{\"correct\": " << (pass ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {\"failed_share\": {\"value\": "
            << Num(static_cast<double>(failed) / static_cast<double>(attempted))
            << ", \"unit\": \"ratio\"}}}" << std::endl;
  return pass ? 0 : 1;
}

}  // namespace perfbench
