// perfbench: the end-to-end benchmark of the rlplanner serving stack.
//
// Usage:
//   perfbench --workload wire_univ1|wire_synth10k|retrain_nyc --seed N
//             --seconds S --trace 0|1 [--stall-ms MS] [--spans-out FILE]
//
// Prints a context line (host fingerprint, seed, request counts) and, as the
// last line of stdout, one JSON object with the keys correct, attempted,
// failed and metrics (name → value): the end-to-end metrics with --trace 0,
// the per-layer metrics of the traced run with --trace 1. perfbench/run.py
// attaches the units from BENCHMARK.json. With --trace 1 and --spans-out,
// the benchmark's own spans are written there as Chrome trace-event JSON.
// See perfbench/README.md.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"
#include "obs/export.h"

namespace {

int Usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "wire_univ1|wire_synth10k|retrain_nyc --seed N --seconds S "
               "--trace 0|1 [--stall-ms MS] [--spans-out FILE]\n",
               message);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--stall-ms") {
      options.stall_ms = std::atof(value);
    } else if (flag == "--spans-out") {
      options.spans_out = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) return Usage("--workload is required");
  if (!(options.seconds > 0.0)) return Usage("--seconds must be positive");

  // Room for two spans each of about 65k requests on each client thread
  // (retrain_nyc's traced window of 20 s sends about that many), plus the
  // writer's and the replay's; drops beyond it are counted and reported.
  rlplanner::obs::TraceCollectorConfig trace_config;
  trace_config.memory_budget_bytes = std::size_t{128} << 20;
  trace_config.events_per_thread = std::size_t{1} << 17;
  rlplanner::obs::TraceCollector tracer(trace_config);
  if (options.trace) options.tracer = &tracer;

  perfbench::RunReport report;
  if (!perfbench::RunWorkload(options, &report)) {
    return Usage(("unknown workload " + options.workload).c_str());
  }
  for (const std::string& error : report.errors) {
    std::fprintf(stderr, "perfbench: failure: %s\n", error.c_str());
  }
  std::string spans;
  if (options.trace && !options.spans_out.empty()) {
    FILE* out = std::fopen(options.spans_out.c_str(), "w");
    const std::string trace = tracer.ToChromeTrace();
    if (out == nullptr ||
        std::fwrite(trace.data(), 1, trace.size(), out) != trace.size() ||
        std::fclose(out) != 0) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   options.spans_out.c_str());
      return 1;
    }
    spans = ", \"spans\": " + std::to_string(tracer.emitted_total()) +
            ", \"spans_dropped\": " + std::to_string(tracer.dropped_total()) +
            ", \"spans_out\": \"" +
            rlplanner::obs::JsonEscape(options.spans_out) + "\"";
  }
  std::printf(
      "context: {\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
      "\"stall_ms\": %g, \"host\": %s, \"requests\": {\"sent\": %llu, "
      "\"succeeded\": %llu, \"failed\": %llu}, %s%s}\n",
      options.workload.c_str(), static_cast<unsigned long long>(options.seed),
      options.trace ? 1 : 0, options.stall_ms,
      perfbench::HostFingerprintJson().c_str(),
      static_cast<unsigned long long>(report.attempted),
      static_cast<unsigned long long>(report.attempted - report.failed),
      static_cast<unsigned long long>(report.failed),
      report.context_json.c_str(), spans.c_str());

  std::string metrics;
  for (const auto& [name, value] : report.metrics) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s\"%s\": %.17g",
                  metrics.empty() ? "" : ", ", name.c_str(), value);
    metrics += buf;
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              report.correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed), metrics.c_str());
  return 0;
}
