// Pipeline benchmark for bagdet: seeded workloads run in one process
// against the public API, every answer checked against the benchmark's own
// reference. End-to-end metrics come from an untraced run; per-layer
// metrics from a separate traced run that replays each decision stage by
// stage under spans opened here, around the library's public functions.
//
//   pipeline_bench --workload certify|decide_views --seed N --seconds S
//                  --trace 0|1 [--trace-out FILE]
//   pipeline_bench --selftest --seed N
//
// The last line of standard output is the result object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}};
// the line before it holds the details (host and build fingerprint, tail
// percentile and sample count, failure reasons, per-stage figures).

#include <cstdlib>
#include <iostream>
#include <string>

#include "runs.h"

namespace {

int Usage(const std::string& why) {
  std::cerr << "pipeline_bench: " << why << "\n"
            << "usage: pipeline_bench --workload certify|decide_views --seed N"
               " --seconds S --trace 0|1 [--trace-out FILE]\n"
               "       pipeline_bench --selftest --seed N\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string trace_out;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--selftest") {
      selftest = true;
      continue;
    }
    if (i + 1 >= argc) return Usage("missing value for " + arg);
    const std::string value = argv[++i];
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      traced = value == "1";
    } else if (arg == "--trace-out") {
      trace_out = value;
    } else {
      return Usage("unknown argument " + arg);
    }
  }

#ifndef NDEBUG
  std::cerr << "pipeline_bench: refusing to report numbers from a build with "
               "assertions on (NDEBUG is not defined)\n";
  return 3;
#endif

  try {
    if (selftest) return perfbench::RunSelfTest(seed);
    if (workload != "certify" && workload != "decide_views") {
      return Usage("unknown workload '" + workload + "'");
    }
    if (!(seconds > 0.0)) return Usage("--seconds must be positive");

    perfbench::Trace trace;
    perfbench::Trace* trace_ptr = traced ? &trace : nullptr;
    perfbench::Report report =
        perfbench::RunClosedLoop(workload, seed, seconds, trace_ptr);
    if (!report.invalid.empty()) {
      std::cerr << "pipeline_bench: invalid run, no numbers reported: "
                << report.invalid << "\n";
      return 4;
    }
    if (traced && !trace_out.empty() && !trace.Write(trace_out)) {
      std::cerr << "pipeline_bench: cannot write spans to " << trace_out << "\n";
      return 1;
    }

    using perfbench::Num;
    using perfbench::Str;
    for (const std::string& note : report.notes) std::cout << note << "\n";
    std::cout << "{\"detail\": {\"workload\": " << Str(workload)
              << ", \"seed\": " << seed << ", \"seconds\": " << Num(seconds)
              << ", \"trace\": " << (traced ? 1 : 0) << ", \"fingerprint\": {"
              << perfbench::FingerprintJson() << "}, \"failed_share\": "
              << Num(report.attempted == 0
                         ? 0.0
                         : static_cast<double>(report.failed) /
                               static_cast<double>(report.attempted))
              << ", \"failures\": [";
    for (std::size_t i = 0; i < report.failures.size(); ++i) {
      std::cout << (i == 0 ? "" : ", ") << Str(report.failures[i]);
    }
    std::cout << "]" << (report.detail.empty() ? "" : ", ") << report.detail
              << "}}\n";

    std::cout << "{\"correct\": " << (report.correct ? "true" : "false")
              << ", \"attempted\": " << report.attempted
              << ", \"failed\": " << report.failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < report.metrics.size(); ++i) {
      const perfbench::Metric& m = report.metrics[i];
      std::cout << (i == 0 ? "" : ", ") << Str(m.name) << ": {\"value\": "
                << Num(m.value) << ", \"unit\": " << Str(m.unit) << "}";
    }
    std::cout << "}}" << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "pipeline_bench: " << e.what() << "\n";
    return 1;
  }
}
