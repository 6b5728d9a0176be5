#include "harness.h"

#include <sys/resource.h>
#include <time.h>
#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>

#include "core/basis.h"
#include "core/counterexample.h"
#include "linalg/cone.h"
#include "linalg/gauss.h"
#include "util/limb_kernels.h"

namespace perfbench {

double MsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

double ProcessCpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 + static_cast<double>(ts.tv_nsec) / 1e6;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  if (values.size() % 2 == 1) return values[mid];
  const double upper = values[mid];
  return (upper + *std::max_element(values.begin(), values.begin() + mid)) / 2;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  if (lo + 1 >= values.size()) return values.back();
  return values[lo] + (pos - static_cast<double>(lo)) * (values[lo + 1] - values[lo]);
}

Tail TailOf(std::vector<double> values) {
  Tail tail;
  tail.n = values.size();
  if (values.empty()) return tail;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  tail.beyond = std::min<std::size_t>(10, n - 1);
  tail.value = values[n - 1 - tail.beyond];
  tail.percentile = 100.0 * static_cast<double>(n - tail.beyond) /
                    static_cast<double>(n);
  return tail;
}

void Report::Fail(const std::string& why) {
  ++failed;
  if (failures.size() < 8) failures.push_back(why.substr(0, 240));
}

std::string Num(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", value);
  return buf;
}

std::string Str(const std::string& text) {
  std::string out = "\"";
  for (char ch : text) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

Prepared Prepare(std::vector<Instance> instances) {
  Prepared prep;
  for (const Instance& inst : instances) {
    const Clock::time_point t0 = Clock::now();
    prep.parsed.push_back(Parse(inst));
    prep.parse_ms.push_back(MsBetween(t0, Clock::now()));
    prep.expected.push_back(ReferenceDetermined(inst));
  }
  prep.instances = std::move(instances);
  return prep;
}

Checker::Analyze FreshAnalysis(const Prepared& prep) {
  return [&prep](std::size_t id) {
    return bagdet::AnalyzeInstance(prep.parsed[id].views, prep.parsed[id].query);
  };
}

double RelevantShare(const Prepared& prep) {
  std::size_t relevant = 0;
  std::size_t total = 0;
  for (const Instance& inst : prep.instances) {
    total += inst.relevant.size();
    relevant += static_cast<std::size_t>(
        std::count(inst.relevant.begin(), inst.relevant.end(), true));
  }
  return total == 0 ? 0.0 : static_cast<double>(relevant) / static_cast<double>(total);
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

namespace {

/// CPU brand string from CPUID (no file outside the checkout is read).
std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    for (unsigned leaf = 0; leaf < 3; ++leaf) {
      __get_cpuid(0x80000002u + leaf, &regs[4 * leaf], &regs[4 * leaf + 1],
                  &regs[4 * leaf + 2], &regs[4 * leaf + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, sizeof(regs));
    std::string model(brand);
    const auto first = model.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : model.substr(first);
  }
#endif
  return "unknown";
}

}  // namespace

std::string FingerprintJson() {
  const std::string cpu = CpuModel();
  std::ostringstream os;
  os << "\"nproc\": " << std::thread::hardware_concurrency()
     << ", \"cpu\": " << Str(cpu)
     << ", \"compiler\": " << Str(std::string(PERFBENCH_CXX_COMPILER))
     << ", \"build_type\": " << Str(PERFBENCH_BUILD_TYPE)
     << ", \"ndebug\": true";
  return os.str();
}

int Trace::Open(const std::string& name, std::uint64_t request, int parent) {
  spans_.push_back(Span{name, request, parent,
                        MsBetween(origin_, Clock::now()), 0.0});
  return static_cast<int>(spans_.size() - 1);
}

void Trace::Close(int id) { spans_[id].end_ms = MsBetween(origin_, Clock::now()); }

double Trace::Duration(int id) const {
  return spans_[id].end_ms - spans_[id].start_ms;
}

bool Trace::Write(const std::string& path) const {
  std::ofstream out(path);
  out << "[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\": " << i << ", \"name\": " << Str(s.name)
        << ", \"request\": " << s.request << ", \"parent\": " << s.parent
        << ", \"start_ms\": " << Num(s.start_ms)
        << ", \"end_ms\": " << Num(s.end_ms) << "}"
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]\n";
  return static_cast<bool>(out);
}

bagdet::DeterminacyResult Decide(const ParsedInstance& parsed, bool want_cx) {
  bagdet::DeterminacyOptions options;
  options.want_counterexample = want_cx;
  return bagdet::DecideBagDeterminacy(parsed.views, parsed.query, options);
}

StageSample ReplayDecision(const ParsedInstance& parsed, bool want_cx,
                           std::uint64_t request, Trace& trace,
                           bagdet::DeterminacyResult* untraced) {
  StageSample sample;
  bagdet::DeterminacyOptions options;
  options.want_counterexample = want_cx;
  const Clock::time_point t0 = Clock::now();
  *untraced = bagdet::DecideBagDeterminacy(parsed.views, parsed.query, options);
  sample.decide_ms = MsBetween(t0, Clock::now());

  const std::uint64_t allocs_before = bagdet::limb::HeapAllocCount();
  const int root = trace.Open("decision", request, -1);
  bagdet::DeterminacyResult replay;

  int span = trace.Open("core.analyze", request, root);
  replay.analysis = bagdet::AnalyzeInstance(parsed.views, parsed.query);
  trace.Close(span);
  sample.analyze_ms = trace.Duration(span);

  span = trace.Open("linalg.span", request, root);
  bagdet::SpanMembership membership = bagdet::TestSpanMembership(
      replay.analysis.view_vectors, replay.analysis.query_vector);
  trace.Close(span);
  sample.span_ms = trace.Duration(span);

  replay.determined = membership.in_span;
  if (membership.in_span) {
    replay.witness = bagdet::DeterminacyWitness{
        replay.analysis.relevant_views, std::move(membership.coefficients)};
  } else if (want_cx) {
    span = trace.Open("core.good_basis", request, root);
    bagdet::GoodBasisOutcome basis =
        bagdet::TryBuildGoodBasis(replay.analysis, options.distinguisher);
    trace.Close(span);
    sample.good_basis_ms = trace.Duration(span);
    if (basis.basis.has_value()) {
      // The cone SynthesizeCounterexample builds internally, built once more
      // on its own so its share of synthesis can be told apart.
      span = trace.Open("linalg.cone", request, root);
      { bagdet::SimplicialCone cone(basis.basis->evaluation); }
      trace.Close(span);
      sample.cone_ms = trace.Duration(span);

      span = trace.Open("core.synthesize", request, root);
      replay.counterexample =
          bagdet::SynthesizeCounterexample(replay.analysis, *basis.basis);
      trace.Close(span);
      sample.synthesize_ms = trace.Duration(span);
      sample.walk_steps = static_cast<std::int64_t>(
          replay.counterexample->t.denominator().BitLength()) - 1;
    } else {
      replay.exec_status = basis.status;
    }
  }
  trace.Close(root);
  sample.heap_allocs = bagdet::limb::HeapAllocCount() - allocs_before;
  sample.hom = replay.analysis.hom_cache->stats();
  sample.pool_classes = replay.analysis.pool->size();
  sample.pool_bytes = replay.analysis.pool->ApproxBytes();
  sample.identical = AnswerDigest(replay) == AnswerDigest(*untraced) &&
                     replay.exec_status.code == untraced->exec_status.code;
  return sample;
}

namespace {

/// Median of `field` over the samples where the stage ran (>= 0).
template <typename F>
double StageMedian(const std::vector<StageSample>& samples, F field) {
  std::vector<double> values;
  for (const StageSample& s : samples) {
    const double v = field(s);
    if (v >= 0.0) values.push_back(v);
  }
  return Median(std::move(values));
}

}  // namespace

void AddStageMetrics(const std::vector<StageSample>& samples,
                     std::size_t first_pass, Report& report) {
  report.Add("core.decide_ms",
             StageMedian(samples, [](const StageSample& s) { return s.decide_ms; }),
             "ms");
  report.Add("core.analyze_ms",
             StageMedian(samples, [](const StageSample& s) { return s.analyze_ms; }),
             "ms");
  report.Add("linalg.span_ms",
             StageMedian(samples, [](const StageSample& s) { return s.span_ms; }),
             "ms");
  report.Add("core.good_basis_ms",
             StageMedian(samples, [](const StageSample& s) { return s.good_basis_ms; }),
             "ms");
  report.Add("linalg.cone_ms",
             StageMedian(samples, [](const StageSample& s) { return s.cone_ms; }),
             "ms");
  report.Add("core.synthesize_ms",
             StageMedian(samples, [](const StageSample& s) { return s.synthesize_ms; }),
             "ms");
  report.Add("core.walk_ms", StageMedian(samples, [](const StageSample& s) {
               return s.synthesize_ms < 0.0 ? -1.0
                                            : std::max(0.0, s.synthesize_ms - s.cone_ms);
             }),
             "ms");
  std::int64_t steps = 0;
  std::size_t walks = 0;
  for (std::size_t i = 0; i < std::min(first_pass, samples.size()); ++i) {
    if (samples[i].synthesize_ms < 0.0) continue;
    steps += samples[i].walk_steps;
    ++walks;
  }
  report.Add("core.walk_steps",
             walks == 0 ? 0.0 : static_cast<double>(steps) / static_cast<double>(walks),
             "count");
  std::vector<double> residual;
  std::vector<double> allocs;
  for (const StageSample& s : samples) {
    double stages = s.analyze_ms + s.span_ms;
    if (s.good_basis_ms >= 0.0) stages += s.good_basis_ms;
    if (s.synthesize_ms >= 0.0) stages += s.synthesize_ms;
    residual.push_back(s.decide_ms - stages);
    allocs.push_back(static_cast<double>(s.heap_allocs));
  }
  report.Add("core.stage_residual_ms", Median(residual), "ms");
  report.Add("util.heap_allocs", Median(allocs), "count");
}

CacheFigures CacheFiguresOf(const std::vector<StageSample>& samples) {
  CacheFigures f;
  if (samples.empty()) return f;
  for (const StageSample& s : samples) {
    f.hits += static_cast<double>(s.hom.hits);
    f.misses += static_cast<double>(s.hom.misses);
    f.evictions += static_cast<double>(s.hom.evictions);
    f.bytes += static_cast<double>(s.hom.bytes);
    f.pool_classes += static_cast<double>(s.pool_classes);
    f.pool_bytes += static_cast<double>(s.pool_bytes);
  }
  const double n = static_cast<double>(samples.size());
  f.hits /= n;
  f.misses /= n;
  f.evictions /= n;
  f.bytes /= n;
  f.pool_classes /= n;
  f.pool_bytes /= n;
  return f;
}

void AddCacheMetrics(const CacheFigures& f, Report& report) {
  report.Add("hom_cache.hits", f.hits, "count");
  report.Add("hom_cache.misses", f.misses, "count");
  report.Add("hom_cache.hit_ratio",
             f.hits + f.misses > 0.0 ? f.hits / (f.hits + f.misses) : 0.0, "ratio");
  report.Add("hom_cache.evictions", f.evictions, "count");
  report.Add("hom_cache.bytes", f.bytes, "bytes");
  report.Add("structs.pool_classes", f.pool_classes, "count");
  report.Add("structs.pool_bytes", f.pool_bytes, "bytes");
}

std::string StagesByGroupJson(const Prepared& prep,
                              const std::vector<StageSample>& samples) {
  std::map<std::string, std::vector<StageSample>> groups;
  for (const StageSample& s : samples) {
    const Instance& inst = prep.instances[s.instance];
    groups[inst.family == "ramp" ? inst.name : inst.family].push_back(s);
  }
  std::ostringstream os;
  os << "\"stages_by_group\": {";
  bool first = true;
  for (const auto& [group, mine] : groups) {
    std::vector<double> steps;
    for (const StageSample& s : mine) {
      if (s.synthesize_ms >= 0.0) steps.push_back(static_cast<double>(s.walk_steps));
    }
    os << (first ? "" : ", ") << Str(group) << ": {\"n\": " << mine.size()
       << ", \"decide_ms\": "
       << Num(StageMedian(mine, [](const StageSample& s) { return s.decide_ms; }))
       << ", \"analyze_ms\": "
       << Num(StageMedian(mine, [](const StageSample& s) { return s.analyze_ms; }))
       << ", \"good_basis_ms\": "
       << Num(StageMedian(mine, [](const StageSample& s) { return s.good_basis_ms; }))
       << ", \"cone_ms\": "
       << Num(StageMedian(mine, [](const StageSample& s) { return s.cone_ms; }))
       << ", \"synthesize_ms\": "
       << Num(StageMedian(mine, [](const StageSample& s) { return s.synthesize_ms; }))
       << ", \"walk_steps_p50\": " << Num(Median(steps)) << "}";
    first = false;
  }
  os << "}";
  return os.str();
}

void AddZeroServeMetrics(Report& report) {
  for (const char* name : {"serve.queue_p50_ms", "serve.queue_tail_ms",
                           "serve.exec_p50_ms", "serve.exec_tail_ms",
                           "serve.generator_lag_ms"}) {
    report.Add(name, 0.0, "ms");
  }
  report.Add("serve.cache_hit_ratio", 0.0, "ratio");
  for (const char* name : {"serve.shed", "serve.declined", "serve.degraded",
                           "serve.retries", "serve.rotations",
                           "serve.queue_depth_max"}) {
    report.Add(name, 0.0, "count");
  }
}

}  // namespace perfbench
