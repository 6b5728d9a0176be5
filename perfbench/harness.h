// Shared pieces of the pipeline benchmark: timing and percentile helpers,
// the result report, prepared (parsed + referenced) instance sets, and the
// traced stage-by-stage replay of one decision.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/determinacy.h"
#include "hom/hom_cache.h"
#include "reference.h"
#include "workloads.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double MsBetween(Clock::time_point from, Clock::time_point to);

/// CPU time used so far by every thread of this process, ms. Unlike wall
/// time it leaves out time spent waiting for a CPU that other work on a
/// shared host holds.
double ProcessCpuMs();

/// Median; 0 for an empty sample.
double Median(std::vector<double> values);

/// Linear-interpolation quantile, `q` in [0, 1]; 0 for an empty sample.
double Quantile(std::vector<double> values, double q);

/// The highest percentile with at least ten samples beyond it: the 11th
/// largest value, at percentile 100·(n−10)/n. With fewer than 11 samples
/// it is the maximum and `beyond` says how many samples lie past it.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
  std::size_t n = 0;
  std::size_t beyond = 0;
};
Tail TailOf(std::vector<double> values);

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run prints: the result line plus a detail object and notes.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> failures;  ///< First few failure reasons.
  std::string detail;                 ///< JSON members, comma-separated.
  std::string invalid;  ///< Nonempty: the run is invalid, print no numbers.
  std::vector<std::string> notes;     ///< Human-readable lines.

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back(Metric{name, value, unit});
  }
  /// Counts a failed request; the first few reasons are kept.
  void Fail(const std::string& why);
};

/// JSON number with all measured digits.
std::string Num(double value);
/// JSON string literal.
std::string Str(const std::string& text);

/// Instances with their parsed form and the reference verdict.
struct Prepared {
  std::vector<Instance> instances;
  std::vector<ParsedInstance> parsed;
  std::vector<bool> expected;   ///< ReferenceDetermined, per instance.
  std::vector<double> parse_ms;
};
Prepared Prepare(std::vector<Instance> instances);

/// The checker's fresh analysis: AnalyzeInstance on `prep.parsed[id]`.
/// `prep` must outlive the returned function.
Checker::Analyze FreshAnalysis(const Prepared& prep);

/// Relevant views ÷ |V0| over the whole set.
double RelevantShare(const Prepared& prep);

/// Peak resident set of this process, MiB.
double PeakRssMb();

/// Host and build fingerprint as JSON members.
std::string FingerprintJson();

/// In-memory spans, written out at exit.
class Trace {
 public:
  struct Span {
    std::string name;
    std::uint64_t request = 0;
    int parent = -1;
    double start_ms = 0.0;
    double end_ms = 0.0;
  };

  int Open(const std::string& name, std::uint64_t request, int parent);
  void Close(int id);
  double Duration(int id) const;
  /// Writes every span as a JSON array; returns false on I/O failure.
  bool Write(const std::string& path) const;

 private:
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

/// Per-stage numbers of one replayed decision. A stage that did not run
/// has a negative time.
struct StageSample {
  std::size_t instance = 0;
  double decide_ms = 0.0;  ///< Untraced DecideBagDeterminacy, same input.
  double analyze_ms = -1.0;
  double span_ms = -1.0;
  double good_basis_ms = -1.0;
  double cone_ms = -1.0;
  double synthesize_ms = -1.0;
  std::int64_t walk_steps = 0;  ///< j of t = (2^j+1)/2^j; 0 without a walk.
  std::uint64_t heap_allocs = 0;
  bagdet::HomCache::Stats hom;
  std::uint64_t pool_classes = 0;
  std::uint64_t pool_bytes = 0;
  bool identical = true;  ///< Replay digest equals the untraced digest.
};

/// Runs the decision untraced (timed), then replays it stage by stage
/// through AnalyzeInstance → TestSpanMembership → TryBuildGoodBasis →
/// SimplicialCone → SynthesizeCounterexample under spans of `trace`, and
/// compares the two answers. `untraced` receives the untraced result.
StageSample ReplayDecision(const ParsedInstance& parsed, bool want_cx,
                           std::uint64_t request, Trace& trace,
                           bagdet::DeterminacyResult* untraced);

/// Adds the per-stage metrics computed from replays: stage medians, the
/// tracing residual, heap allocations, and the mean walk steps of the first
/// `first_pass` samples (one pass over a fixed instance set, so the count
/// repeats exactly).
void AddStageMetrics(const std::vector<StageSample>& samples,
                     std::size_t first_pass, Report& report);

/// Hom-cache and pool figures, per decision; the hit ratio is derived from
/// hits and misses.
struct CacheFigures {
  double hits = 0.0;
  double misses = 0.0;
  double evictions = 0.0;
  double bytes = 0.0;
  double pool_classes = 0.0;
  double pool_bytes = 0.0;
};
/// Means over the replays' private caches.
CacheFigures CacheFiguresOf(const std::vector<StageSample>& samples);
void AddCacheMetrics(const CacheFigures& figures, Report& report);

/// "stages_by_group" JSON member: stage medians and median walk steps per
/// cycle ramp and per family of the other instances.
std::string StagesByGroupJson(const Prepared& prep,
                              const std::vector<StageSample>& samples);

/// Adds the serving-layer per-layer metrics as zeros, for workloads that do
/// not run the service.
void AddZeroServeMetrics(Report& report);

/// Decides one prepared instance through the public API.
bagdet::DeterminacyResult Decide(const ParsedInstance& parsed, bool want_cx);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
