// The serving section of the traced `decide_views` run: an open loop
// through DeterminacyService.
//
// Arrivals follow a seeded Poisson process (a fixed count at uniformly
// random times, which is a Poisson process conditioned on its count) at one
// fixed rate. Keys are zipf-distributed over a catalog of small instances
// sharing one component library, plus a never-repeated cold tail that makes
// the service's shared StructurePool and HomCache take inserts and
// generation rotations beside the cache hits. Every request carries a
// deadline; a request's latency runs from when it was due to be sent.

#include "runs.h"

#include <algorithm>
#include <cmath>
#include <future>
#include <list>
#include <memory>
#include <sstream>
#include <thread>

#include "serve/service.h"
#include "util/thread_pool.h"

namespace perfbench {

namespace {

/// Offered rate, requests per second.
constexpr double kRps = 200.0;
constexpr std::uint64_t kDeadlineMs = 200;
/// Latency limit: shed, declined and later answers miss it.
constexpr double kLimitMs = 50.0;
/// The generator fell behind, and did not offer the rate, when its median
/// lateness exceeds kMaxLagP50Ms or its tail lateness eats more than half of
/// the latency limit. (Single late wake-ups of a few ms are host scheduling
/// and count against the request's latency, which runs from its due time.)
constexpr double kMaxLagP50Ms = 1.0;
constexpr double kMaxLagTailMs = kLimitMs / 2;
/// The generator checks a response only with this much time to spare.
constexpr auto kReapSlack = std::chrono::microseconds(500);
constexpr double kColdShare = 0.1;
constexpr double kZipfExponent = 0.8;
/// Pool generation budget. The warm catalog holds about 40 classes and each
/// cold instance adds three or four, so the cold tail rotates the generation
/// every 30 or so cold requests.
constexpr std::size_t kPoolMaxClasses = 150;
/// The catalog is the deployment's fixed working set; the seed varies the
/// traffic over it (arrival times, key draws) and the cold tail.
constexpr std::uint64_t kCatalogSeed = 1;

struct Arrival {
  double offset_ms = 0.0;
  std::size_t id = 0;  ///< Index into the prepared set (catalog, then cold).
};

/// What happened to one request.
struct Outcome {
  double latency_ms = 0.0;  ///< Due time to response; infinite if unanswered.
  double lag_ms = 0.0;      ///< Due time to send.
  double queue_ms = 0.0;
  double exec_ms = 0.0;
  std::size_t depth = 0;    ///< Queue depth right after the send.
  bool in_limit = false;    ///< Answered (possibly degraded) within kLimitMs.
};

/// Everything the section holds. Not movable: the checker's fresh analyses
/// read `prep` in place.
struct Stream {
  explicit Stream(Prepared prepared)
      : prep(std::move(prepared)), checker(FreshAnalysis(prep), /*defer=*/true) {}
  Stream(const Stream&) = delete;
  Stream& operator=(const Stream&) = delete;

  Prepared prep;  ///< Catalog first, then the cold instances.
  std::size_t catalog_size = 0;
  std::vector<Arrival> arrivals;
  std::unique_ptr<bagdet::DeterminacyService> service;
  Checker checker;
};

std::vector<double> ZipfCdf(std::size_t n) {
  std::vector<double> cdf(n);
  double total = 0.0;
  for (std::size_t r = 0; r < n; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), kZipfExponent);
    cdf[r] = total;
  }
  for (double& c : cdf) c /= total;
  return cdf;
}

/// Arrival times and keys; the `cold` cold keys are numbered from
/// `catalog_size` on.
std::vector<Arrival> PlanArrivals(double seconds, std::size_t catalog_size,
                                  std::uint64_t seed, std::size_t& cold) {
  SplitMix rng(seed ^ 0xbb67ae8584caa73bull);
  const std::vector<double> cdf = ZipfCdf(catalog_size);
  std::vector<Arrival> arrivals;
  cold = 0;
  const auto n = static_cast<std::size_t>(std::llround(kRps * seconds));
  for (std::size_t i = 0; i < n; ++i) {
    Arrival a;
    a.offset_ms = rng.Uniform() * seconds * 1000.0;
    if (rng.Uniform() < kColdShare) {
      a.id = catalog_size + cold++;
    } else {
      a.id = static_cast<std::size_t>(
          std::lower_bound(cdf.begin(), cdf.end(), rng.Uniform()) - cdf.begin());
      a.id = std::min(a.id, catalog_size - 1);
    }
    arrivals.push_back(a);
  }
  std::sort(arrivals.begin(), arrivals.end(),
            [](const Arrival& x, const Arrival& y) { return x.offset_ms < y.offset_ms; });
  return arrivals;
}

bagdet::ServeRequest MakeRequest(const Prepared& prep, std::size_t id) {
  bagdet::ServeRequest request;
  request.views = prep.parsed[id].views;
  request.query = prep.parsed[id].query;
  request.limits.deadline_ms = kDeadlineMs;
  request.options.want_counterexample = prep.instances[id].want_counterexample;
  return request;
}

/// Checks one response; a wrong answer counts as failed.
void Record(Stream& s, std::size_t id, const bagdet::ServeResponse& resp,
            Outcome& out, Report& report) {
  out.queue_ms = resp.queue_ms;
  out.exec_ms = resp.exec_ms;
  if (resp.outcome == bagdet::ServeOutcome::kShed ||
      resp.outcome == bagdet::ServeOutcome::kDeclined) {
    out.latency_ms = INFINITY;
    return;
  }
  out.latency_ms = out.lag_ms + resp.queue_ms + resp.exec_ms;
  out.in_limit = out.latency_ms <= kLimitMs;
  const Instance& inst = s.prep.instances[id];
  const bool full = inst.want_counterexample && !resp.degraded;
  const std::string why =
      s.checker.Check(inst, id, s.prep.expected[id], *resp.result, full);
  if (!why.empty()) {
    report.correct = false;
    report.Fail(inst.name + ": " + why);
  }
}

/// The catalog, the arrivals, the cold instances they draw, and a service
/// warmed on every catalog key (warm-up answers are checked too).
std::unique_ptr<Stream> SetUp(std::uint64_t seed, double seconds, std::size_t runners,
                              Report& report) {
  std::vector<Instance> instances = ServeCatalog(kCatalogSeed);
  const std::size_t catalog_size = instances.size();
  std::size_t cold = 0;
  std::vector<Arrival> arrivals = PlanArrivals(seconds, catalog_size, seed, cold);
  for (std::size_t i = 0; i < cold; ++i) instances.push_back(ColdInstance(seed, i));

  auto s = std::make_unique<Stream>(Prepare(std::move(instances)));
  s->catalog_size = catalog_size;
  s->arrivals = std::move(arrivals);
  bagdet::ServiceOptions options;
  options.max_concurrent = runners;
  options.pool_max_classes = kPoolMaxClasses;
  s->service = std::make_unique<bagdet::DeterminacyService>(options);
  for (std::size_t id = 0; id < catalog_size; ++id) {
    Outcome out;
    ++report.attempted;
    Record(*s, id, s->service->Call(MakeRequest(s->prep, id)), out, report);
  }
  return s;
}

/// Sends every arrival on time and records every response.
std::vector<Outcome> RunArrivals(Stream& s, Report& report) {
  struct InFlight {
    std::size_t index;
    std::future<bagdet::ServeResponse> response;
  };
  std::vector<Outcome> outcomes(s.arrivals.size());
  std::list<InFlight> in_flight;
  // Records one response: the first ready one, or with `wait` the oldest.
  auto reap_one = [&](bool wait) {
    for (auto it = in_flight.begin(); it != in_flight.end(); ++it) {
      if (!wait && it->response.wait_for(std::chrono::seconds(0)) !=
                       std::future_status::ready) {
        continue;
      }
      const std::size_t i = it->index;
      Record(s, s.arrivals[i].id, it->response.get(), outcomes[i], report);
      in_flight.erase(it);
      return true;
    }
    return false;
  };

  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(1);
  for (std::size_t i = 0; i < s.arrivals.size(); ++i) {
    const Arrival& a = s.arrivals[i];
    bagdet::ServeRequest request = MakeRequest(s.prep, a.id);
    const Clock::time_point due =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double, std::milli>(a.offset_ms));
    // Checking responses only fills the slack before the next send.
    while (Clock::now() + kReapSlack < due && reap_one(false)) {
    }
    // Spin rather than sleep: wake-ups from a sleep run late by
    // milliseconds often enough to dominate the tail. Yielding keeps the
    // runners going on a host with fewer cores than threads.
    while (Clock::now() < due) std::this_thread::yield();
    Outcome& out = outcomes[i];
    out.lag_ms = MsBetween(due, Clock::now());
    ++report.attempted;
    in_flight.push_back(InFlight{i, s.service->Submit(std::move(request))});
    out.depth = s.service->stats().queue_depth;
  }
  while (reap_one(true)) {
  }
  return outcomes;
}

std::vector<double> Field(const std::vector<Outcome>& outcomes, double Outcome::*field,
                          bool answered_only) {
  std::vector<double> values;
  for (const Outcome& o : outcomes) {
    if (answered_only && !std::isfinite(o.latency_ms)) continue;
    values.push_back(o.*field);
  }
  return values;
}

std::size_t Runners() {
  const std::size_t nproc = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  return std::max<std::size_t>(1, nproc - 1);
}

}  // namespace

void AddServeLayerMetrics(std::uint64_t seed, double seconds, Report& report) {
  // The generator thread plus nproc−1 runners; decisions run single-lane.
  bagdet::SetGlobalThreadPoolSize(1);
  const std::size_t runners = Runners();
  std::unique_ptr<Stream> s = SetUp(seed, seconds, runners, report);

  const bagdet::ServiceStats b = s->service->stats();
  const std::vector<Outcome> outcomes = RunArrivals(*s, report);
  const bagdet::ServiceStats a = s->service->stats();
  s->service->Shutdown();

  const double lag_p50 = Median(Field(outcomes, &Outcome::lag_ms, false));
  const double lag_tail = TailOf(Field(outcomes, &Outcome::lag_ms, false)).value;
  if (lag_p50 > kMaxLagP50Ms || lag_tail > kMaxLagTailMs) {
    report.invalid = "the serving generator fell behind its schedule (lag p50 " +
                     Num(lag_p50) + " ms, tail " + Num(lag_tail) + " ms)";
  }

  report.Add("serve.queue_p50_ms", Median(Field(outcomes, &Outcome::queue_ms, true)), "ms");
  report.Add("serve.queue_tail_ms", TailOf(Field(outcomes, &Outcome::queue_ms, true)).value,
             "ms");
  report.Add("serve.exec_p50_ms", Median(Field(outcomes, &Outcome::exec_ms, true)), "ms");
  report.Add("serve.exec_tail_ms", TailOf(Field(outcomes, &Outcome::exec_ms, true)).value,
             "ms");
  report.Add("serve.generator_lag_ms", lag_tail, "ms");
  const double hits = static_cast<double>(a.cache_hits - b.cache_hits);
  const double lookups = hits + static_cast<double>(a.cache_misses - b.cache_misses);
  report.Add("serve.cache_hit_ratio", lookups > 0.0 ? hits / lookups : 0.0, "ratio");
  report.Add("serve.shed", static_cast<double>(a.shed - b.shed), "count");
  report.Add("serve.declined", static_cast<double>(a.declined - b.declined), "count");
  report.Add("serve.degraded", static_cast<double>(a.degraded - b.degraded), "count");
  report.Add("serve.retries", static_cast<double>(a.retries - b.retries), "count");
  report.Add("serve.rotations", static_cast<double>(a.rotations - b.rotations), "count");
  std::size_t depth_max = 0;
  for (const Outcome& o : outcomes) depth_max = std::max(depth_max, o.depth);
  report.Add("serve.queue_depth_max", static_cast<double>(depth_max), "count");

  // Untimed: every certificate the section saw, verified against a fresh
  // analysis. A rejected certificate counts as failed once.
  for (const auto& [id, why] : s->checker.VerifyQueued()) {
    report.correct = false;
    report.Fail(s->prep.instances[id].name + ": " + why);
  }

  const auto missed = std::count_if(outcomes.begin(), outcomes.end(),
                                    [](const Outcome& o) { return !o.in_limit; });
  std::ostringstream detail;
  detail << "\"serving\": {\"rps\": " << Num(kRps) << ", \"requests\": " << outcomes.size()
         << ", \"cold\": " << s->prep.instances.size() - s->catalog_size
         << ", \"runners\": " << runners << ", \"deadline_ms\": " << kDeadlineMs
         << ", \"limit_ms\": " << Num(kLimitMs) << ", \"missed_limit\": " << missed
         << ", \"latency_p50_ms\": "
         << Num(Median(Field(outcomes, &Outcome::latency_ms, true)))
         << ", \"generator_lag_p50_ms\": " << Num(lag_p50)
         << ", \"pool_classes_warm\": " << b.pool_classes
         << ", \"pool_classes_end\": " << a.pool_classes << "}";
  report.detail += (report.detail.empty() ? "" : ", ") + detail.str();
}

}  // namespace perfbench
