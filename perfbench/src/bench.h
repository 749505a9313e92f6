// Shared declarations of the end-to-end benchmark (see perfbench/README.md).
//
// The benchmark stands up the same serving stack `rlplanner_cli serve
// --listen` builds (one shared obs::Registry behind PlanService, PlanHandler
// and HttpServer; profiler and flight recorder off), drives it over loopback
// from this process, checks every response, and prints one JSON result line.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "fleet/gate.h"
#include "model/constraints.h"
#include "net/plan_handler.h"
#include "net/server.h"
#include "obs/debugz.h"
#include "obs/registry.h"
#include "obs/span.h"
#include "obs/trace.h"
#include "serve/plan_service.h"
#include "serve/policy_registry.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double SecondsBetween(Clock::time_point from, Clock::time_point to);
double MicrosBetween(Clock::time_point from, Clock::time_point to);

/// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// Peak resident set size of this process (VmHWM), in MiB.
double PeakRssMb();

/// Moves the calling thread onto the next, in turn, of the CPUs it may run
/// on, then lets it run anywhere again (so threads it starts later get
/// every CPU). Repeated measurements taken after each move sample every CPU
/// alike, whichever one the process happened to start on.
void MoveToNextCpu();

/// The median, over each run of consecutive samples taken after
/// MoveToNextCpu() that visits every CPU once, of the run's mean. An
/// incomplete run at the end is left out.
double MedianOfRotationMeans(const std::vector<double>& samples);

/// CPU model, nproc, active util::simd level and build type as JSON.
std::string HostFingerprintJson();

// ---------------------------------------------------------------------------
// Spans of the benchmark's own code (the traced run).

/// Where Span emits: an obs::TraceCollector during the traced window and
/// the replay, null (a Span then costs one branch) otherwise.
void SetTracer(rlplanner::obs::TraceCollector* tracer);

/// An obs::ScopedSpan on the SetTracer() collector alone (no metrics registry), tagged with
/// the request it belongs to and the name of its enclosing span.
class Span : public rlplanner::obs::ScopedSpan {
 public:
  explicit Span(const char* name, std::uint64_t request_id = 0);
};

// ---------------------------------------------------------------------------
// The serving stack.

struct StackConfig {
  std::size_t workers = 2;
  std::size_t shards = 2;
};

/// PlanService → PlanHandler → HttpServer on an ephemeral loopback port,
/// sharing `metrics` the way the CLI's serve --listen does. Tears down in
/// the CLI's drain order.
class WireStack {
 public:
  WireStack(const rlplanner::model::TaskInstance& instance,
            const rlplanner::mdp::RewardWeights& weights,
            const rlplanner::serve::PolicyRegistry& registry,
            rlplanner::obs::Registry* metrics, StackConfig config);
  ~WireStack();
  WireStack(const WireStack&) = delete;
  WireStack& operator=(const WireStack&) = delete;

  std::uint16_t port() const { return server_->port(); }
  rlplanner::serve::PlanService& service() { return *service_; }

 private:
  rlplanner::obs::FlightRecorder recorder_;  // slo_ms 0: disabled
  std::unique_ptr<rlplanner::serve::PlanService> service_;
  std::unique_ptr<rlplanner::net::PlanHandler> handler_;
  std::unique_ptr<rlplanner::net::HttpServer> server_;
};

// ---------------------------------------------------------------------------
// Requests and response checking.

/// One prepared request: its wire body plus what the checker needs.
struct PreparedRequest {
  std::string body;
  rlplanner::serve::PlanRequest request;
  /// Index into the checker's instance list: 0 = the dataset default,
  /// 1 + k = ideal-topic override set k.
  int instance_index = 0;
};

/// The instances a response may be judged against.
struct CheckContext {
  /// [0] the dataset instance, [1 + k] the instance with override set k as
  /// its ideal topics.
  std::vector<rlplanner::model::TaskInstance> instances;
  std::vector<std::vector<std::string>> topic_sets;
};

/// The POST /v1/plan body of `request` (policy, start item, ideal topics and
/// debug_stall_ms when set).
std::string RequestBody(const rlplanner::serve::PlanRequest& request);

/// What one checked response said.
struct CheckedResponse {
  double score = 0.0;
  bool valid = false;
  std::uint64_t version = 0;
  double queue_ms = 0.0;
  double exec_ms = 0.0;
};

/// Verifies a response: a 200 whose `valid` and `score` match this
/// benchmark's own core::ValidatePlan and core::ScorePlan on the returned
/// plan. A byte-identical response (ignoring the timing fields) already
/// verified is accepted from a per-thread memo.
class ResponseChecker {
 public:
  explicit ResponseChecker(const CheckContext* context) : context_(context) {}
  bool Check(int http_status, const std::string& body, int instance_index,
             CheckedResponse* out, std::string* error);
  const std::set<std::uint64_t>& versions_seen() const { return versions_; }

 private:
  const CheckContext* context_;
  std::unordered_map<std::string, CheckedResponse> memo_;
  std::set<std::uint64_t> versions_;
};

// ---------------------------------------------------------------------------
// Load generation.

struct LoadConfig {
  /// Each connection sends its next request when the last one returns.
  std::size_t connections = 2;
  double seconds = 1.0;
  /// When set, the loop also ends once this flag turns true.
  const std::atomic<bool>* stop = nullptr;
  /// Index of the first request each connection sends (keeps the stream
  /// moving across successive windows).
  std::size_t offset = 0;
};

struct LoadResult {
  double window_s = 0.0;
  std::uint64_t sent = 0;
  std::uint64_t succeeded = 0;
  std::uint64_t failed = 0;
  /// Over every request of the window: completions per second, and the
  /// client-observed latency percentiles.
  double throughput_rps = 0.0;
  double latency_p50_ms = 0.0;
  double latency_p90_ms = 0.0;
  /// Over the whole window. Late: the gap between a response and the
  /// connection's next send (the client's own checking). Overhead: round
  /// trip minus the response's queue_ms + exec_ms.
  double late_p99_ms = 0.0;
  double overhead_p50_us = 0.0;
  double queue_p50_us = 0.0;
  double queue_p99_us = 0.0;
  double exec_p50_us = 0.0;
  std::set<std::uint64_t> versions;
  std::vector<std::string> errors;  // first few failure descriptions
};

LoadResult RunLoad(std::uint16_t port,
                   const std::vector<PreparedRequest>& requests,
                   const CheckContext& context, const LoadConfig& config);

/// The fixed quality pass: `requests` sent once, in order, on one
/// connection; mean checked score and valid fraction.
struct PassResult {
  double mean_score = 0.0;
  double valid_frac = 0.0;
  std::uint64_t sent = 0;
  std::uint64_t failed = 0;
  std::set<std::uint64_t> versions;
  std::vector<std::string> errors;
};
PassResult RunFixedPass(std::uint16_t port,
                        const std::vector<PreparedRequest>& requests,
                        const CheckContext& context);

// ---------------------------------------------------------------------------
// Per-layer replay (the traced run).

/// Per-cycle times of republishing a policy: snapshot (make → Serialize →
/// Deserialize), install, and the whole cycle; and the versions installed.
struct PublishSamples {
  std::vector<double> snapshot_us, install_us, cycle_us;
  std::vector<std::uint64_t> versions;
};

/// Republishes `policy` into `slot` of `registry`: snapshot → Serialize →
/// Deserialize, then install (dense: as a canary promoted at once; sparse:
/// a direct hot swap; the slot's first install is direct). One cycle starts
/// every `period_s` (back to back when 0) until `seconds` pass or `stop`
/// turns true, and at least three run. Appends each cycle to `out`.
void Republish(const rlplanner::serve::ServablePolicy& policy,
               rlplanner::serve::PolicyRegistry& registry,
               const std::string& slot, double seconds, double period_s,
               const std::atomic<bool>* stop, PublishSamples* out);

struct ReplayInputs {
  const rlplanner::model::TaskInstance* instance = nullptr;
  const rlplanner::mdp::RewardWeights* weights = nullptr;
  const rlplanner::serve::PolicyRegistry* registry = nullptr;
  rlplanner::serve::PlanService* service = nullptr;
  rlplanner::obs::Registry* metrics = nullptr;
  /// Requests of each class to replay (plain: instance_index 0).
  std::vector<const PreparedRequest*> plain, override_requests;
  double seconds_per_class = 0.5;
};

/// Replays the public calls each request class makes into serve, rl, mdp
/// and core, plus the net codec and obs span costs; returns per-layer
/// metrics by name.
std::map<std::string, double> ReplayLayers(const ReplayInputs& inputs);

/// Median time of fleet::EvaluateGate judging `policy` against itself.
double ReplayGateMs(const rlplanner::model::TaskInstance& instance,
                    const rlplanner::mdp::RewardWeights& weights,
                    const rlplanner::serve::ServablePolicy& policy,
                    const rlplanner::fleet::ProbeSet& probes,
                    double reward_band);

/// Times fleet::FleetOrchestrator::Tick and fleet::EvaluateGate on a
/// scratch fleet of `specs` policies over the Univ-1 CS catalog (the wire
/// workloads have no fleet of their own; a 10k-item catalog has no dense
/// gate). Returns fleet.tick_ms_p50, fleet.gate_ms, fleet.gate_pass_frac.
std::map<std::string, double> ReplayScratchFleet(int specs, int ticks);

// ---------------------------------------------------------------------------
// Workloads.

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  double stall_ms = 0.0;
  std::string spans_out;
  /// The traced run's span sink (null with --trace 0).
  rlplanner::obs::TraceCollector* tracer = nullptr;
};

/// Everything a workload reports.
struct RunReport {
  std::map<std::string, double> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  std::vector<std::string> errors;
  std::string context_json;  // workload-specific details for the log line
};

/// Runs `options.workload`; false for an unknown workload name.
bool RunWorkload(const Options& options, RunReport* report);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
