// The traced run's per-layer replay: each public call a request makes into
// serve, rl, mdp and core, timed on its own, plus the net codec, the publish
// path, the fleet and the obs span cost.
#include <algorithm>
#include <optional>
#include <thread>

#include "bench.h"
#include "core/config.h"
#include "core/scoring.h"
#include "core/validation.h"
#include "datagen/course_data.h"
#include "fleet/fleet.h"
#include "fleet/gate.h"
#include "mdp/reward.h"
#include "obs/span.h"
#include "rl/action_mask.h"
#include "rl/recommender.h"
#include "serve/policy_snapshot.h"
#include "util/json.h"
#include "util/thread_pool.h"

namespace perfbench {

namespace rp = rlplanner;

void Republish(const rp::serve::ServablePolicy& policy,
               rp::serve::PolicyRegistry& registry, const std::string& slot,
               double seconds, double period_s,
               const std::atomic<bool>* stop, PublishSamples* out) {
  const std::uint64_t fingerprint = registry.catalog_fingerprint();
  const std::size_t first = out->cycle_us.size();
  const auto begin = Clock::now();
  for (int k = 0;; ++k) {
    const std::size_t done = out->cycle_us.size() - first;
    if (done >= 3 && (SecondsBetween(begin, Clock::now()) >= seconds ||
                      (stop != nullptr && stop->load()))) {
      break;
    }
    if (period_s > 0.0) {
      std::this_thread::sleep_until(
          begin + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(k * period_s)));
    }
    const bool first_install = registry.Current(slot) == nullptr;
    const auto t0 = Clock::now();
    rp::util::Result<std::uint64_t> version = 0;
    if (policy.dense.has_value()) {
      std::optional<rp::serve::PolicySnapshot> parsed;
      {
        Span span("serve.snapshot");
        rp::serve::PolicySnapshot snapshot;
        snapshot.catalog_fingerprint = fingerprint;
        snapshot.provenance = policy.provenance;
        snapshot.seed = policy.seed;
        snapshot.table = *policy.dense;
        auto result = rp::serve::PolicySnapshot::Deserialize(
            snapshot.Serialize());
        if (!result.ok()) std::abort();
        parsed = std::move(result).value();
      }
      const auto t1 = Clock::now();
      {
        Span span("serve.install");
        if (first_install) {
          version = registry.InstallSnapshot(slot, *parsed);
        } else {
          version = registry.InstallCanarySnapshot(slot, *parsed, 200);
          if (!version.ok() || !registry.PromoteCanary(slot).ok()) {
            std::abort();
          }
        }
      }
      out->snapshot_us.push_back(MicrosBetween(t0, t1));
      out->install_us.push_back(MicrosBetween(t1, Clock::now()));
    } else {
      std::optional<rp::serve::SparsePolicySnapshotV2> parsed;
      {
        Span span("serve.snapshot");
        rp::serve::SparsePolicySnapshotV2 snapshot;
        snapshot.catalog_fingerprint = fingerprint;
        snapshot.provenance = policy.provenance;
        snapshot.seed = policy.seed;
        snapshot.table = *policy.sparse;
        auto result = rp::serve::SparsePolicySnapshotV2::Deserialize(
            snapshot.Serialize());
        if (!result.ok()) std::abort();
        parsed = std::move(result).value();
      }
      const auto t1 = Clock::now();
      {
        // Sparse tables have no canary flavor; a direct hot swap is their
        // publish step.
        Span span("serve.install");
        version = registry.InstallSnapshotV2(slot, *parsed);
      }
      out->snapshot_us.push_back(MicrosBetween(t0, t1));
      out->install_us.push_back(MicrosBetween(t1, Clock::now()));
    }
    if (!version.ok()) std::abort();
    out->cycle_us.push_back(MicrosBetween(t0, Clock::now()));
    out->versions.push_back(version.value());
  }
}

namespace {

struct ClassTimes {
  std::vector<double> execute_us, route_us, build_us, reward_us, mask_us,
      recommend_us, score_validate_us;
  double execute_sum = 0.0, parts_sum = 0.0;
};

ClassTimes ReplayClass(const ReplayInputs& in,
                       const std::vector<const PreparedRequest*>& requests,
                       std::uint64_t* next_request_id) {
  ClassTimes t;
  if (requests.empty()) return t;
  const rp::model::TaskInstance& instance = *in.instance;
  const rp::mdp::RewardFunction default_reward(instance, *in.weights);
  const int horizon = instance.catalog->domain() == rp::model::Domain::kTrip
                          ? static_cast<int>(instance.catalog->size())
                          : instance.hard.TotalItems();
  const auto begin = Clock::now();
  for (std::size_t i = 0; SecondsBetween(begin, Clock::now()) <
                              in.seconds_per_class ||
                          i < 20;
       ++i) {
    rp::serve::PlanRequest request = requests[i % requests.size()]->request;
    request.debug_stall_ms = 0.0;
    request.route_key = i + 1;
    const std::uint64_t rid = (*next_request_id)++;
    Span root("replay.request", rid);

    // One untimed call first: the timed calls below then all run with the
    // request's policy and reward tables in cache, so the parts compare
    // like for like with the whole.
    if (!in.service->Execute(request).ok()) std::abort();
    auto t0 = Clock::now();
    {
      Span span("serve.execute", rid);
      if (!in.service->Execute(request).ok()) std::abort();
    }
    auto t1 = Clock::now();
    const double execute = MicrosBetween(t0, t1);

    std::shared_ptr<const rp::serve::ServablePolicy> policy;
    t0 = Clock::now();
    {
      Span span("serve.route", rid);
      policy = in.registry->Route(request.policy_name, request.route_key);
    }
    t1 = Clock::now();
    const double route = MicrosBetween(t0, t1);

    // The override class rebuilds the instance and its reward function.
    std::optional<rp::model::TaskInstance> local;
    std::optional<rp::mdp::RewardFunction> local_reward;
    double build = 0.0, reward = 0.0;
    if (request.ideal_topics.has_value()) {
      t0 = Clock::now();
      auto ideal = instance.catalog->MakeTopicVector(*request.ideal_topics);
      if (!ideal.ok()) std::abort();
      local = instance;
      local->soft.ideal_topics = std::move(ideal).value();
      t1 = Clock::now();
      {
        Span span("mdp.reward_build", rid);
        local_reward.emplace(*local, *in.weights);
      }
      const auto t2 = Clock::now();
      build = MicrosBetween(t0, t1);
      reward = MicrosBetween(t1, t2);
    }
    const rp::model::TaskInstance& served = local ? *local : instance;
    const rp::mdp::RewardFunction& served_reward =
        local_reward ? *local_reward : default_reward;

    t0 = Clock::now();
    {
      Span span("rl.mask_build", rid);
      const rp::rl::ActionMask mask(served_reward, horizon,
                                    policy->provenance.mask_type_overflow);
    }
    t1 = Clock::now();
    const double mask = MicrosBetween(t0, t1);

    rp::rl::RecommendConfig recommend;
    recommend.start_item = request.start_item;
    recommend.excluded = request.excluded;
    recommend.gamma = policy->provenance.gamma;
    recommend.mask_type_overflow = policy->provenance.mask_type_overflow;
    rp::model::Plan plan;
    t0 = Clock::now();
    {
      Span span("rl.recommend", rid);
      plan = policy->VisitQ([&](const auto& q) {
        return rp::rl::RecommendPlan(q, served, served_reward, recommend);
      });
    }
    t1 = Clock::now();
    const double recommend_us = MicrosBetween(t0, t1);

    t0 = Clock::now();
    {
      Span span("core.score_validate", rid);
      volatile double score = rp::core::ScorePlan(served, plan);
      volatile bool valid = rp::core::ValidatePlan(served, plan).valid;
      (void)score;
      (void)valid;
    }
    t1 = Clock::now();
    const double score_validate = MicrosBetween(t0, t1);

    t.execute_us.push_back(execute);
    t.route_us.push_back(route);
    t.build_us.push_back(build);
    t.reward_us.push_back(reward);
    t.mask_us.push_back(mask);
    t.recommend_us.push_back(recommend_us);
    t.score_validate_us.push_back(score_validate);
    t.execute_sum += execute;
    t.parts_sum += route + build + reward + recommend_us + score_validate;
  }
  return t;
}

// Nanoseconds per obs::ScopedSpan on `metrics` from `threads` threads at
// once (median over threads).
double SpanCostNs(rp::obs::Registry* metrics, std::size_t threads) {
  constexpr int kSpans = 100000;
  std::vector<double> per_thread(threads);
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      const auto begin = Clock::now();
      for (int i = 0; i < kSpans; ++i) {
        rp::obs::ScopedSpan span(metrics, "perfbench_span_probe");
      }
      per_thread[t] = MicrosBetween(begin, Clock::now()) * 1000.0 / kSpans;
    });
  }
  for (auto& w : workers) w.join();
  return Median(per_thread);
}

}  // namespace

std::map<std::string, double> ReplayLayers(const ReplayInputs& in) {
  std::map<std::string, double> m;
  std::uint64_t next_request_id = 1u << 30;  // apart from client request ids
  const ClassTimes plain = ReplayClass(in, in.plain, &next_request_id);
  const ClassTimes over =
      ReplayClass(in, in.override_requests, &next_request_id);
  m["serve.execute_us.plain"] = Median(plain.execute_us);
  m["serve.execute_us.override"] = Median(over.execute_us);
  m["serve.route_ns"] = Median(plain.route_us) * 1000.0;
  m["rl.recommend_us"] = Median(plain.recommend_us);
  m["rl.mask_build_us"] = Median(plain.mask_us);
  m["mdp.reward_build_us"] = Median(over.reward_us);
  m["core.score_validate_us"] = Median(plain.score_validate_us);
  m["replay.coverage.plain"] =
      plain.execute_sum > 0.0 ? plain.parts_sum / plain.execute_sum : 0.0;
  m["replay.coverage.override"] =
      over.execute_sum > 0.0 ? over.parts_sum / over.execute_sum : 0.0;

  // The wire codec on this workload's own request and response bodies.
  std::vector<double> decode_us, encode_us;
  const auto codec_begin = Clock::now();
  for (std::size_t i = 0;
       i < 20000 && SecondsBetween(codec_begin, Clock::now()) < 0.2; ++i) {
    const PreparedRequest& prepared =
        i % 2 == 0 || in.override_requests.empty()
            ? *in.plain[i / 2 % in.plain.size()]
            : *in.override_requests[i / 2 % in.override_requests.size()];
    auto t0 = Clock::now();
    {
      Span span("net.decode");
      auto document = rp::util::json::Parse(prepared.body);
      if (!document.ok() ||
          !rp::net::PlanRequestFromJson(document.value()).ok()) {
        std::abort();
      }
    }
    decode_us.push_back(MicrosBetween(t0, Clock::now()));
    if (i % 64 == 0) {
      rp::serve::PlanRequest request = prepared.request;
      request.debug_stall_ms = 0.0;
      auto response = in.service->Execute(request);
      if (!response.ok()) std::abort();
      for (int r = 0; r < 64; ++r) {
        t0 = Clock::now();
        Span span("net.encode");
        volatile std::size_t size =
            rp::net::PlanResponseToJson(response.value()).size();
        (void)size;
        encode_us.push_back(MicrosBetween(t0, Clock::now()));
      }
    }
  }
  m["net.decode_us"] = Median(decode_us);
  m["net.encode_us"] = Median(encode_us);

  const std::size_t nproc =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  m["obs.span_ns.1t"] = SpanCostNs(in.metrics, 1);
  m["obs.span_ns.contended"] = SpanCostNs(in.metrics, nproc);
  return m;
}

double ReplayGateMs(const rp::model::TaskInstance& instance,
                    const rp::mdp::RewardWeights& weights,
                    const rp::serve::ServablePolicy& policy,
                    const rp::fleet::ProbeSet& probes, double reward_band) {
  const rp::mdp::RewardFunction reward(instance, weights);
  rp::fleet::GateConfig config;
  config.reward_band = reward_band;
  std::vector<double> ms;
  for (int i = 0; i < 7; ++i) {
    const auto t0 = Clock::now();
    Span span("fleet.gate");
    const rp::fleet::GateReport report =
        rp::fleet::EvaluateGate(instance, reward, *policy.dense,
                                policy.provenance, &policy, probes, config);
    (void)report;
    ms.push_back(MicrosBetween(t0, Clock::now()) / 1000.0);
  }
  return Median(ms);
}

std::map<std::string, double> ReplayScratchFleet(int specs, int ticks) {
  const rp::datagen::Dataset dataset = rp::datagen::MakeUniv1Cs();
  const rp::model::TaskInstance instance = dataset.Instance();
  rp::core::PlannerConfig config = rp::core::DefaultUniv1Config();
  config.sarsa.start_item = dataset.default_start;
  const std::uint64_t fingerprint =
      rp::serve::CatalogFingerprint(dataset.catalog);
  rp::serve::PolicyRegistry registry(fingerprint, dataset.catalog.size());
  rp::util::ThreadPool pool;
  rp::fleet::FleetConfig fleet_config;
  fleet_config.canary_hold_ticks = 0;
  fleet_config.reward_band = 0.5;
  rp::fleet::FleetOrchestrator fleet(instance, config.reward, registry, pool,
                                     fleet_config);
  for (int i = 0; i < specs; ++i) {
    rp::fleet::PolicySpec spec;
    spec.slot = "policy-" + std::to_string(i);
    spec.segment_id = spec.slot;
    spec.catalog_fingerprint = fingerprint;
    spec.sarsa = config.sarsa;
    spec.seed = config.seed + static_cast<std::uint64_t>(i);
    spec.freshness_ticks = 1;
    if (!fleet.AddSpec(std::move(spec)).ok()) std::abort();
  }
  std::vector<double> tick_ms;
  for (int t = 0; t < ticks; ++t) {
    const auto t0 = Clock::now();
    Span span("fleet.tick");
    fleet.Tick();
    tick_ms.push_back(MicrosBetween(t0, Clock::now()) / 1000.0);
  }
  std::uint64_t retrains = 0, publishes = 0;
  for (const auto& status : fleet.Statuses()) {  // the ticking thread
    retrains += status.generation;
    publishes += status.publishes;
  }
  std::map<std::string, double> m;
  m["fleet.tick_ms_p50"] = Median(tick_ms);
  m["fleet.gate_ms"] =
      ReplayGateMs(instance, config.reward, *registry.Current("policy-0"),
                   fleet.probe_set(), fleet_config.reward_band);
  m["fleet.gate_pass_frac"] =
      retrains > 0 ? static_cast<double>(publishes) / retrains : 0.0;
  return m;
}

}  // namespace perfbench
