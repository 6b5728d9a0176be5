// Closed-loop workloads (`certify`, `decide_views`): one caller sends the
// next decision when the previous one returns, pass after pass over the
// seeded instance set, until the measuring time is used up.

#include "runs.h"

#include <algorithm>
#include <map>
#include <numeric>
#include <sstream>
#include <thread>

#include "util/thread_pool.h"

namespace perfbench {

namespace {

/// Set-ups per run, spread evenly over the measuring time; setup_s is the
/// fast quantile of their CPU times.
constexpr std::size_t kSetupRepeats = 7;
/// Fewest decisions per measuring window. A window is a whole number of
/// cycles through the instance set, so every window does the same work.
constexpr std::size_t kWindowDecisions = 300;
/// The timing metrics are taken per window and reported at this quantile
/// on the fast side: the 10th percentile of times, the 90th of rates. On a
/// shared host, periods in which other work slows the CPU (by 30 to 50 %
/// for seconds at a time on the reference host) only add time, so the fast
/// side follows the program and moves little with how much of a run such
/// periods cover.
constexpr double kFastQuantile = 0.1;
/// Seed of the calibration work, fixed so that every run does the same.
constexpr std::uint64_t kCalibrationSeed = 0xca1;
/// CPU time of one calibration on the reference host in its fast periods.
/// The bounded timing metrics are scaled by this ÷ the run's calibration
/// time, i.e. to the speed at which the calibration takes this long.
constexpr double kReferenceCalibrationMs = 7.0;
/// Share of a traced decide_views run spent on the serving layer.
constexpr double kServeShare = 0.25;

/// Instances per pass that are not cycle ramps (ramps run every pass).
constexpr std::size_t kPerPass = 16;

/// Ramps and the other instances of the set, by index.
struct Split {
  std::vector<std::size_t> fixed;
  std::vector<std::size_t> rest;
};
Split SplitSet(const Prepared& prep) {
  Split split;
  for (std::size_t id = 0; id < prep.instances.size(); ++id) {
    (prep.instances[id].family == "ramp" ? split.fixed : split.rest).push_back(id);
  }
  return split;
}

/// The instances of pass `p`, in a seeded order: every cycle ramp plus the
/// next kPerPass of the others, so each pass draws fresh random instances
/// while the ramps, the heaviest fixed instances, recur every pass. Both
/// sets hold a multiple of kPerPass others, so a cycle through them is
/// rest.size() / kPerPass whole passes.
std::vector<std::size_t> PassOrder(const Split& split, std::size_t p,
                                   std::uint64_t seed) {
  std::vector<std::size_t> order = split.fixed;
  for (std::size_t i = 0; i < kPerPass && !split.rest.empty(); ++i) {
    order.push_back(split.rest[(p * kPerPass + i) % split.rest.size()]);
  }
  SplitMix rng(seed ^ (0x6a09e667f3bcc909ull * (p + 1)));
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[static_cast<std::size_t>(rng.Range(0, i - 1))]);
  }
  return order;
}

/// Passes per measuring window: the fewest whole cycles through the set
/// that hold at least kWindowDecisions decisions.
std::size_t WindowPasses(const Split& split) {
  const std::size_t cycle = std::max<std::size_t>(1, split.rest.size() / kPerPass);
  const std::size_t per_cycle = cycle * (split.fixed.size() + kPerPass);
  return cycle * ((kWindowDecisions + per_cycle - 1) / per_cycle);
}

/// One calibration: generates the fixed serving catalog and runs the
/// reference rank test on each instance. This is the benchmark's own code
/// only, so its time follows the host's speed and never the library's.
/// Returns its process CPU time in ms.
double CalibrationMs() {
  const double cpu0 = ProcessCpuMs();
  std::size_t determined = 0;
  for (const Instance& inst : ServeCatalog(kCalibrationSeed)) {
    determined += ReferenceDetermined(inst) ? 1 : 0;
  }
  const double ms = ProcessCpuMs() - cpu0;
  static volatile std::size_t sink;
  sink = determined;
  return ms;
}

/// Generate + parse + reference + one warm-up decision; returns its
/// process CPU time in seconds.
double SetUp(const std::string& workload, std::uint64_t seed, Prepared& prep) {
  const double cpu0 = ProcessCpuMs();
  prep = Prepare(workload == "certify" ? CertifySet(seed) : DecideViewsSet(seed));
  Decide(prep.parsed[0], prep.instances[0].want_counterexample);
  return (ProcessCpuMs() - cpu0) / 1000.0;
}

/// Medians of the replayed stages of each cycle ramp: ROADMAP item 3's
/// stage table, one line per k.
void AddStageTable(const Prepared& prep, const std::vector<StageSample>& samples,
                   Report& report) {
  std::ostringstream json;
  json << "\"stage_table\": [";
  bool dominant = true;
  for (int k = 5; k <= 8; ++k) {
    std::vector<double> analyze, basis, cone, walk, synth, e2e;
    for (const StageSample& s : samples) {
      if (prep.instances[s.instance].name != "ramp-k" + std::to_string(k)) continue;
      if (s.synthesize_ms < 0.0) continue;
      analyze.push_back(s.analyze_ms);
      basis.push_back(s.good_basis_ms);
      cone.push_back(s.cone_ms);
      walk.push_back(std::max(0.0, s.synthesize_ms - s.cone_ms));
      synth.push_back(s.synthesize_ms);
      e2e.push_back(s.decide_ms);
    }
    if (e2e.empty()) continue;
    const double share = Median(synth) / Median(e2e);
    if (k >= 6 && (Median(synth) < Median(analyze) || Median(synth) < Median(basis))) {
      dominant = false;
    }
    std::ostringstream line;
    line << "stage_table k=" << k << " n=" << e2e.size()
         << " analyze_ms=" << Num(Median(analyze))
         << " good_basis_ms=" << Num(Median(basis))
         << " cone_ms=" << Num(Median(cone)) << " walk_ms=" << Num(Median(walk))
         << " synthesize_ms=" << Num(Median(synth))
         << " end_to_end_ms=" << Num(Median(e2e)) << " synthesis_share=" << Num(share);
    report.notes.push_back(line.str());
    json << (k == 5 ? "" : ", ") << "{\"k\": " << k << ", \"n\": " << e2e.size()
         << ", \"analyze_ms\": " << Num(Median(analyze))
         << ", \"good_basis_ms\": " << Num(Median(basis))
         << ", \"cone_ms\": " << Num(Median(cone))
         << ", \"walk_ms\": " << Num(Median(walk))
         << ", \"synthesize_ms\": " << Num(Median(synth))
         << ", \"end_to_end_ms\": " << Num(Median(e2e))
         << ", \"synthesis_share\": " << Num(share) << "}";
  }
  json << "], \"synthesis_dominant_k_ge_6\": " << (dominant ? "true" : "false");
  report.notes.push_back(std::string("synthesis (cone + walk) dominant for k >= 6: ") +
                         (dominant ? "yes" : "no"));
  report.detail += (report.detail.empty() ? "" : ", ") + json.str();
}

}  // namespace

Report RunClosedLoop(const std::string& workload, std::uint64_t seed,
                     double seconds, Trace* trace) {
  bagdet::SetGlobalThreadPoolSize(
      std::max<std::size_t>(1, std::thread::hardware_concurrency()));
  Report report;

  Prepared prep;
  std::vector<double> setup_s = {SetUp(workload, seed, prep)};
  const Split split = SplitSet(prep);

  Checker checker(FreshAnalysis(prep));
  auto check = [&](std::size_t id, const bagdet::DeterminacyResult& result) {
    const Instance& inst = prep.instances[id];
    const std::string why = checker.Check(inst, id, prep.expected[id], result,
                                          inst.want_counterexample);
    if (!why.empty()) {
      report.correct = false;
      report.Fail(inst.name + ": " + why);
    }
  };
  const Clock::time_point start = Clock::now();
  auto elapsed_ms = [&] { return MsBetween(start, Clock::now()); };
  auto time_left = [&] { return elapsed_ms() < seconds * 1000.0; };

  if (trace == nullptr) {
    // Every decision is timed twice: by the process's CPU time, which the
    // bounded metrics use because it does not move when other work on a
    // shared host takes the CPU, and by the wall clock, which the detail
    // line reports.
    std::vector<double> cpu_ms;
    std::vector<double> wall_ms;
    // Cycle ramps by name, the other instances by family.
    std::map<std::string, std::vector<double>> per_group;
    // Samples of the current window; figures of each complete window.
    const std::size_t window_passes = WindowPasses(split);
    // Calibrations: one after every window, and two before the first (the
    // first of them, cold, is not kept).
    CalibrationMs();
    std::vector<double> calibration_ms = {CalibrationMs()};
    std::vector<double> window_cpu;
    std::vector<double> window_wall;
    std::vector<double> p50s, tails, rates, wall_p50s, wall_tails, wall_rates;
    Tail tail;
    auto close_window = [&] {
      tail = TailOf(window_cpu);
      p50s.push_back(Median(window_cpu));
      tails.push_back(tail.value);
      wall_p50s.push_back(Median(window_wall));
      wall_tails.push_back(TailOf(window_wall).value);
      auto rate = [](const std::vector<double>& ms) {
        return static_cast<double>(ms.size()) /
               (std::accumulate(ms.begin(), ms.end(), 0.0) / 1000.0);
      };
      rates.push_back(rate(window_cpu));
      wall_rates.push_back(rate(window_wall));
      window_cpu.clear();
      window_wall.clear();
    };
    for (std::size_t p = 0; time_left(); ++p) {
      if (p % window_passes == 0) {
        // Between windows: the next evenly spaced set-up, into a throwaway
        // set, so set-up time samples the whole run as the decisions do.
        const double due = seconds * 1000.0 * static_cast<double>(setup_s.size()) /
                           kSetupRepeats;
        if (setup_s.size() < kSetupRepeats && elapsed_ms() >= due) {
          Prepared again;
          setup_s.push_back(SetUp(workload, seed, again));
        }
        window_cpu.clear();
        window_wall.clear();
      }
      const std::vector<std::size_t> order = PassOrder(split, p, seed);
      for (std::size_t id : order) {
        if (!time_left()) break;
        ++report.attempted;
        try {
          const double cpu0 = ProcessCpuMs();
          const Clock::time_point t0 = Clock::now();
          bagdet::DeterminacyResult result =
              Decide(prep.parsed[id], prep.instances[id].want_counterexample);
          const double wall = MsBetween(t0, Clock::now());
          const double ms = ProcessCpuMs() - cpu0;
          cpu_ms.push_back(ms);
          wall_ms.push_back(wall);
          window_cpu.push_back(ms);
          window_wall.push_back(wall);
          const Instance& inst = prep.instances[id];
          per_group[inst.family == "ramp" ? inst.name : inst.family].push_back(ms);
          check(id, result);
        } catch (const std::exception& e) {
          report.correct = false;
          report.Fail(prep.instances[id].name + ": exception: " + e.what());
        }
      }
      const bool window_done = (p + 1) % window_passes == 0;
      if (window_done && window_cpu.size() == window_passes * order.size()) {
        close_window();
        calibration_ms.push_back(CalibrationMs());
      }
    }
    // A run too short for one complete window reports all of its samples
    // as one window.
    const bool whole_run = rates.empty();
    if (whole_run) {
      window_cpu = cpu_ms;
      window_wall = wall_ms;
      close_window();
    }
    tail.n = cpu_ms.size();
    const double low = kFastQuantile;
    const double high = 1.0 - kFastQuantile;
    const double calibration = Quantile(calibration_ms, low);
    const double scale = kReferenceCalibrationMs / calibration;
    const double p50 = Quantile(p50s, low);
    const double tail_ms = Quantile(tails, low);
    const double throughput = Quantile(rates, high);
    const double setup = Quantile(setup_s, low);
    report.Add("norm_cpu_p50_ms", p50 * scale, "ms");
    report.Add("norm_cpu_tail_ms", tail_ms * scale, "ms");
    report.Add("norm_throughput_per_cpu_s", throughput / scale, "1/s");
    report.Add("setup_s", setup * scale, "s");
    report.Add("peak_rss_mb", PeakRssMb(), "MiB");

    std::ostringstream json;
    json << "\"calibration_ms\": " << Num(calibration)
         << ", \"calibrations\": " << calibration_ms.size()
         << ", \"scale\": " << Num(scale) << ", \"cpu_p50_ms\": " << Num(p50)
         << ", \"cpu_tail_ms\": " << Num(tail_ms)
         << ", \"throughput_per_cpu_s\": " << Num(throughput)
         << ", \"setup_cpu_s\": " << Num(setup)
         << ", \"tail_percentile\": " << Num(tail.percentile)
         << ", \"tail_beyond\": " << tail.beyond << ", \"samples\": " << tail.n
         << ", \"window_passes\": " << window_passes
         << ", \"windows\": " << (whole_run ? 0 : rates.size())
         << ", \"setups\": " << setup_s.size()
         << ", \"median_window\": {\"cpu_p50_ms\": " << Num(Median(p50s))
         << ", \"cpu_tail_ms\": " << Num(Median(tails))
         << ", \"throughput_per_cpu_s\": " << Num(Median(rates))
         << ", \"calibration_ms\": " << Num(Median(calibration_ms))
         << "}, \"wall_p50_ms\": " << Num(Quantile(wall_p50s, low))
         << ", \"wall_tail_ms\": " << Num(Quantile(wall_tails, low))
         << ", \"wall_throughput_per_s\": " << Num(Quantile(wall_rates, high))
         << ", \"degraded_share\": 0, \"cpu_p50_ms_by_group\": {";
    bool first = true;
    for (const auto& [group, values] : per_group) {
      json << (first ? "" : ", ") << Str(group) << ": " << Num(Median(values));
      first = false;
    }
    json << "}";
    report.detail = json.str();
    return report;
  }

  // decide_views also runs open-loop serving traffic for the last quarter of
  // the time: the serving layer is measured on this workload.
  const bool serve_layer = workload == "decide_views";
  const double replay_ms = seconds * 1000.0 * (serve_layer ? 1.0 - kServeShare : 1.0);
  std::vector<StageSample> samples;
  std::uint64_t request = 0;
  std::size_t first_pass = 0;
  for (std::size_t p = 0; p == 0 || MsBetween(start, Clock::now()) < replay_ms; ++p) {
    const std::vector<std::size_t> order = PassOrder(split, p, seed);
    if (p == 0) first_pass = order.size();
    for (std::size_t id : order) {
      ++report.attempted;
      try {
        bagdet::DeterminacyResult untraced;
        StageSample sample = ReplayDecision(prep.parsed[id],
                                            prep.instances[id].want_counterexample,
                                            request++, *trace, &untraced);
        sample.instance = id;
        check(id, untraced);
        if (!sample.identical) {
          report.correct = false;
          report.Fail(prep.instances[id].name + ": replay differs from the decision");
        }
        samples.push_back(std::move(sample));
      } catch (const std::exception& e) {
        report.correct = false;
        report.Fail(prep.instances[id].name + ": exception: " + e.what());
      }
    }
  }

  AddStageMetrics(samples, first_pass, report);
  AddCacheMetrics(CacheFiguresOf(samples), report);
  report.detail = StagesByGroupJson(prep, samples);
  report.Add("query.parse_ms", Median(prep.parse_ms), "ms");
  report.Add("query.relevant_share", RelevantShare(prep), "ratio");
  if (serve_layer) {
    AddServeLayerMetrics(seed, seconds * kServeShare, report);
  } else {
    AddZeroServeMetrics(report);
  }
  if (workload == "certify") AddStageTable(prep, samples, report);
  return report;
}

}  // namespace perfbench
