// The serving stack, request bodies, the response checker and the load
// generators.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <thread>

#include "bench.h"
#include "core/scoring.h"
#include "core/validation.h"
#include "net/client.h"
#include "obs/export.h"
#include "util/json.h"

namespace perfbench {

using rlplanner::net::BlockingHttpClient;

namespace {
constexpr std::size_t kMemoEntries = 4096;  // per client thread
}  // namespace

WireStack::WireStack(const rlplanner::model::TaskInstance& instance,
                     const rlplanner::mdp::RewardWeights& weights,
                     const rlplanner::serve::PolicyRegistry& registry,
                     rlplanner::obs::Registry* metrics, StackConfig config)
    : recorder_(rlplanner::obs::FlightRecorderConfig{}) {
  rlplanner::serve::PlanServiceConfig service_config;
  service_config.num_workers = config.workers;
  service_config.metrics = metrics;
  service_config.recorder = &recorder_;
  service_ = std::make_unique<rlplanner::serve::PlanService>(
      instance, weights, registry, service_config);
  service_->Start();
  rlplanner::net::PlanHandler::Options options;
  options.metrics = metrics;
  options.recorder = &recorder_;
  options.slots = &registry;
  handler_ = std::make_unique<rlplanner::net::PlanHandler>(service_.get(),
                                                           std::move(options));
  rlplanner::net::HttpServerConfig server_config;
  server_config.host = "127.0.0.1";
  server_config.port = 0;
  server_config.num_shards = config.shards;
  server_config.metrics = metrics;
  server_ = std::make_unique<rlplanner::net::HttpServer>(
      server_config, handler_->AsHandler());
  if (const auto status = server_->Start(); !status.ok()) {
    std::fprintf(stderr, "wire server start failed: %s\n",
                 status.ToString().c_str());
    std::exit(1);
  }
}

WireStack::~WireStack() {
  (void)service_->Drain(std::chrono::milliseconds(5000));
  server_->Shutdown();
  service_->Stop();
}

std::string RequestBody(const rlplanner::serve::PlanRequest& request) {
  std::string body = "{\"policy\":\"" +
                     rlplanner::obs::JsonEscape(request.policy_name) +
                     "\",\"start_item\":" + std::to_string(request.start_item);
  if (request.ideal_topics.has_value()) {
    body += ",\"ideal_topics\":[";
    for (std::size_t i = 0; i < request.ideal_topics->size(); ++i) {
      if (i != 0) body += ',';
      body += '"' + rlplanner::obs::JsonEscape((*request.ideal_topics)[i]) +
              '"';
    }
    body += ']';
  }
  if (request.debug_stall_ms > 0.0) {
    body += ",\"debug_stall_ms\":" + std::to_string(request.debug_stall_ms);
  }
  body += '}';
  return body;
}

// ---------------------------------------------------------------------------

namespace {

bool NumberAfter(const std::string& body, const char* key, std::size_t from,
                 double* out) {
  const std::size_t pos = body.find(key, from);
  if (pos == std::string::npos) return false;
  const char* begin = body.c_str() + pos + std::strlen(key);
  char* end = nullptr;
  *out = std::strtod(begin, &end);
  return end != begin;
}

}  // namespace

bool ResponseChecker::Check(int http_status, const std::string& body,
                            int instance_index, CheckedResponse* out,
                            std::string* error) {
  if (http_status != 200) {
    *error = "HTTP " + std::to_string(http_status) + ": " + body.substr(0, 160);
    return false;
  }
  const std::size_t timings = body.find(",\"queue_ms\":");
  if (timings == std::string::npos ||
      !NumberAfter(body, ",\"queue_ms\":", timings, &out->queue_ms) ||
      !NumberAfter(body, ",\"exec_ms\":", timings, &out->exec_ms)) {
    *error = "response without timings: " + body.substr(0, 160);
    return false;
  }
  // Everything before the timing fields identifies the answer.
  std::string key = std::to_string(instance_index);
  key += '|';
  key.append(body, 0, timings);
  if (const auto hit = memo_.find(key); hit != memo_.end()) {
    out->score = hit->second.score;
    out->valid = hit->second.valid;
    out->version = hit->second.version;
    return true;
  }

  auto document = rlplanner::util::json::Parse(body);
  if (!document.ok()) {
    *error = "unparseable response: " + body.substr(0, 160);
    return false;
  }
  const auto* plan_field = document.value().Find("plan");
  const auto* score_field = document.value().Find("score");
  const auto* valid_field = document.value().Find("valid");
  const auto* version_field = document.value().Find("policy_version");
  if (plan_field == nullptr || !plan_field->is_array() ||
      score_field == nullptr || !score_field->is_number() ||
      valid_field == nullptr || !valid_field->is_bool() ||
      version_field == nullptr || !version_field->is_number()) {
    *error = "response missing fields: " + body.substr(0, 160);
    return false;
  }
  const rlplanner::model::TaskInstance& instance =
      context_->instances.at(static_cast<std::size_t>(instance_index));
  std::vector<rlplanner::model::ItemId> items;
  for (const auto& element : plan_field->AsArray()) {
    const double id = element.is_number() ? element.AsNumber() : -1.0;
    if (id < 0.0 || id >= static_cast<double>(instance.catalog->size())) {
      *error = "plan item out of range: " + body.substr(0, 160);
      return false;
    }
    items.push_back(static_cast<rlplanner::model::ItemId>(id));
  }
  const rlplanner::model::Plan plan(std::move(items));
  const bool valid = rlplanner::core::ValidatePlan(instance, plan).valid;
  const double score = rlplanner::core::ScorePlan(instance, plan);
  const double reported = score_field->AsNumber();
  // The wire renders scores with 6 significant digits.
  if (valid != valid_field->AsBool() ||
      std::abs(reported - score) > 1e-5 * std::max(1.0, std::abs(score))) {
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "response says valid=%d score=%.6g, check says valid=%d "
                  "score=%.6g: ",
                  valid_field->AsBool() ? 1 : 0, reported, valid ? 1 : 0,
                  score);
    *error = buf + body.substr(0, 160);
    return false;
  }
  out->score = score;
  out->valid = valid;
  out->version = static_cast<std::uint64_t>(version_field->AsNumber());
  versions_.insert(out->version);
  // Bounded, so the client's share of peak_rss_mb does not grow with the
  // number of distinct responses a run sees.
  if (memo_.size() >= kMemoEntries) memo_.clear();
  memo_.emplace(std::move(key), *out);
  return true;
}

// ---------------------------------------------------------------------------

namespace {

void NoteError(std::vector<std::string>* errors, std::string error) {
  if (errors->size() < 5) errors->push_back(std::move(error));
}

/// One request's measurements, kept as floats in storage allocated (and
/// touched) once per process, so the client's footprint in peak_rss_mb does
/// not vary with throughput.
struct Sample {
  float latency_ms;
  float late_ms;
  float overhead_us;  // traced only
  float queue_us;
  float exec_us;
};

constexpr std::size_t kMaxConnections = 4;  // no more than nproc on 4 cores
constexpr std::size_t kSamplesPerConnection = std::size_t{1} << 18;

std::vector<Sample>& SampleStore(std::size_t connection) {
  static std::vector<std::vector<Sample>> store(
      kMaxConnections, std::vector<Sample>(kSamplesPerConnection));
  return store.at(connection);
}

std::vector<double>& Scratch() {
  static std::vector<double> scratch(kMaxConnections *
                                     kSamplesPerConnection);
  return scratch;
}

struct ConnectionTotals {
  std::uint64_t sent = 0, succeeded = 0, failed = 0;
  std::size_t samples = 0;
  std::set<std::uint64_t> versions;
  std::vector<std::string> errors;
};

// One connection's share of a load window.
void ConnectionLoop(std::uint16_t port,
                    const std::vector<PreparedRequest>& requests,
                    const CheckContext& context, const LoadConfig& config,
                    std::size_t c, Clock::time_point begin,
                    ConnectionTotals* totals) {
  BlockingHttpClient client;
  ResponseChecker checker(&context);
  std::vector<Sample>& samples = SampleStore(c);
  const std::size_t stride = config.connections;
  const auto deadline =
      begin + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(config.seconds));
  Clock::time_point last_response = begin;
  for (std::size_t k = 0;; ++k) {
    const std::size_t index = config.offset + k * stride + c;
    if (Clock::now() >= deadline ||
        (config.stop != nullptr && config.stop->load())) {
      break;
    }
    if (!client.connected() && !client.Connect("127.0.0.1", port).ok()) {
      ++totals->sent;
      ++totals->failed;
      NoteError(&totals->errors, "connect failed");
      continue;
    }
    const PreparedRequest& prepared = requests[index % requests.size()];
    Span request_span("client.request", index + 1);
    const auto sent = Clock::now();
    auto response = client.Request("POST", "/v1/plan", prepared.body);
    const auto received = Clock::now();
    ++totals->sent;
    if (!response.ok()) {
      ++totals->failed;
      NoteError(&totals->errors, response.status().ToString());
      client.Close();
      last_response = Clock::now();
      continue;
    }
    CheckedResponse checked;
    std::string error;
    bool ok = false;
    {
      Span check_span("client.check", index + 1);
      ok = checker.Check(response.value().status, response.value().body,
                         prepared.instance_index, &checked, &error);
    }
    if (!ok) {
      ++totals->failed;
      NoteError(&totals->errors, std::move(error));
    } else {
      ++totals->succeeded;
      if (totals->samples < samples.size()) {
        Sample& sample = samples[totals->samples++];
        sample.latency_ms = static_cast<float>(
            MicrosBetween(sent, received) / 1000.0);
        sample.late_ms = static_cast<float>(
            MicrosBetween(last_response, sent) / 1000.0);
        const double rtt_us = MicrosBetween(sent, received);
        sample.overhead_us = static_cast<float>(
            rtt_us - (checked.queue_ms + checked.exec_ms) * 1000.0);
        sample.queue_us = static_cast<float>(checked.queue_ms * 1000.0);
        sample.exec_us = static_cast<float>(checked.exec_ms * 1000.0);
      }
    }
    last_response = Clock::now();
  }
  totals->versions = checker.versions_seen();
}

// Quantile `q` of field `field` over the samples of every connection.
double SampleQuantile(const std::vector<ConnectionTotals>& totals,
                      float Sample::*field, double q) {
  std::vector<double>& scratch = Scratch();
  std::size_t n = 0;
  for (std::size_t c = 0; c < totals.size(); ++c) {
    const std::vector<Sample>& samples = SampleStore(c);
    for (std::size_t i = 0; i < totals[c].samples; ++i) {
      scratch[n++] = samples[i].*field;
    }
  }
  if (n == 0) return 0.0;
  const double rank = q * static_cast<double>(n - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  std::nth_element(scratch.begin(), scratch.begin() + lo,
                   scratch.begin() + n);
  const double low = scratch[lo];
  if (lo + 1 >= n) return low;
  const double high = *std::min_element(scratch.begin() + lo + 1,
                                        scratch.begin() + n);
  return low + (high - low) * (rank - static_cast<double>(lo));
}

}  // namespace

LoadResult RunLoad(std::uint16_t port,
                   const std::vector<PreparedRequest>& requests,
                   const CheckContext& context, const LoadConfig& config) {
  if (config.connections > kMaxConnections) std::abort();
  std::vector<ConnectionTotals> totals(config.connections);
  const auto begin = Clock::now();
  std::vector<std::thread> threads;
  threads.reserve(config.connections);
  for (std::size_t c = 0; c < config.connections; ++c) {
    threads.emplace_back(ConnectionLoop, port, std::cref(requests),
                         std::cref(context), std::cref(config), c, begin,
                         &totals[c]);
  }
  for (auto& thread : threads) thread.join();
  LoadResult result;
  result.window_s = SecondsBetween(begin, Clock::now());
  for (ConnectionTotals& t : totals) {
    result.sent += t.sent;
    result.succeeded += t.succeeded;
    result.failed += t.failed;
    result.versions.insert(t.versions.begin(), t.versions.end());
    for (auto& e : t.errors) NoteError(&result.errors, std::move(e));
  }

  // Over every request of the window: completions per second, and the
  // client-observed latency percentiles.
  result.throughput_rps =
      static_cast<double>(result.succeeded) / result.window_s;
  result.latency_p50_ms =
      SampleQuantile(totals, &Sample::latency_ms, 0.50);
  result.latency_p90_ms =
      SampleQuantile(totals, &Sample::latency_ms, 0.90);
  result.late_p99_ms = SampleQuantile(totals, &Sample::late_ms, 0.99);
  result.overhead_p50_us =
      SampleQuantile(totals, &Sample::overhead_us, 0.50);
  result.queue_p50_us = SampleQuantile(totals, &Sample::queue_us, 0.50);
  result.queue_p99_us = SampleQuantile(totals, &Sample::queue_us, 0.99);
  result.exec_p50_us = SampleQuantile(totals, &Sample::exec_us, 0.50);
  return result;
}

PassResult RunFixedPass(std::uint16_t port,
                        const std::vector<PreparedRequest>& requests,
                        const CheckContext& context) {
  PassResult result;
  BlockingHttpClient client;
  ResponseChecker checker(&context);
  double score_sum = 0.0;
  std::uint64_t valid = 0, ok = 0;
  for (const PreparedRequest& prepared : requests) {
    ++result.sent;
    if (!client.connected() && !client.Connect("127.0.0.1", port).ok()) {
      ++result.failed;
      if (result.errors.size() < 5) result.errors.push_back("connect failed");
      continue;
    }
    auto response = client.Request("POST", "/v1/plan", prepared.body);
    CheckedResponse checked;
    std::string error = response.ok() ? "" : response.status().ToString();
    if (!response.ok() ||
        !checker.Check(response.value().status, response.value().body,
                       prepared.instance_index, &checked, &error)) {
      ++result.failed;
      if (result.errors.size() < 5) result.errors.push_back(error);
      if (!response.ok()) client.Close();
      continue;
    }
    ++ok;
    score_sum += checked.score;
    if (checked.valid) ++valid;
  }
  if (ok > 0) {
    result.mean_score = score_sum / static_cast<double>(ok);
    result.valid_frac = static_cast<double>(valid) / static_cast<double>(ok);
  }
  result.versions = checker.versions_seen();
  return result;
}

}  // namespace perfbench
