// The benchmark's runs: closed-loop workloads, the serving section of the
// traced `decide_views` run, and the checker self-test.

#ifndef PERFBENCH_RUNS_H_
#define PERFBENCH_RUNS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {

/// `certify` or `decide_views`. With `trace` null, measures end to end;
/// otherwise replays every decision stage by stage into `trace`.
Report RunClosedLoop(const std::string& workload, std::uint64_t seed,
                     double seconds, Trace* trace);

/// Sends seeded open-loop traffic (zipf over a fixed catalog plus a
/// never-repeated cold tail) through a DeterminacyService for `seconds`,
/// checks every answer, and adds the serving layer's per-layer metrics.
/// Sets `report.invalid` when the generator fell behind its schedule.
void AddServeLayerMetrics(std::uint64_t seed, double seconds, Report& report);

/// Injects three kinds of wrong answers into the checker and confirms each
/// is counted as failed. Returns the process exit code.
int RunSelfTest(std::uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_RUNS_H_
