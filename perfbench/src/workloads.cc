// The three workloads: set-up, warm-up, the timed window, the fixed quality
// pass and (traced run) the per-layer replay.
#include <algorithm>
#include <cstdio>
#include <mutex>
#include <thread>

#include "bench.h"
#include "core/config.h"
#include "core/planner.h"
#include "datagen/course_data.h"
#include "datagen/synthetic.h"
#include "datagen/trip_data.h"
#include "fleet/fleet.h"
#include "serve/policy_snapshot.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace perfbench {

namespace rp = rlplanner;

namespace {

// Untimed serving before any window: on a 4-vCPU VM the first seconds of a
// fresh process ran 20-40% slow.
constexpr double kWarmupSeconds = 3.0;
// Requests in the seeded request stream (cycled).
constexpr std::size_t kStreamLength = 4096;
constexpr int kTopicSets = 16;
// wire_synth10k: catalog shape and training recipe.
constexpr int kSynthItems = 10000;
constexpr int kSynthVocab = 512;
constexpr std::uint64_t kSynthCatalogSeed = 7;
constexpr int kSynthEpisodes = 100;
constexpr std::size_t kSynthPassStarts = 256;
// retrain_nyc: fleet size and the fleet's pace. The fleet retrains its
// policies one after another on one thread (SerialTick). Spread over a
// 2-thread pool and its caller, 4 retrains made a tick's time depend on which
// thread claimed which retrain: ticks fell into two modes, about 30 and 40 ms,
// whose mix moved with the host's pace, and the median tick jumped between
// them (publishes_per_s spread 0.20-0.28 over ten runs on a shared host).
// Run in turn, a tick is the sum of its retrains, and its median follows the
// host's pace alone. The pool keeps the one worker a ThreadPool must have.
constexpr int kFleetPolicies = 4;
constexpr std::size_t kFleetThreads = 1;
// A serial tick takes 70-80 ms on a 4-core host, and a timed training
// follows it, so a tick starts every kTickPeriodS: the fleet holds about
// two thirds of one core beside the serving.
constexpr double kTickPeriodS = 0.15;
// Without a fleet, the window's writer republishes the served policy every
// kWriterPeriodS.
constexpr double kWriterPeriodS = 0.1;
constexpr std::uint64_t kFeedbackSeed = 0xfeed;
constexpr double kRewardBand = 0.5;  // the CLI's --reward-band default
constexpr double kRepublishSeconds = 1.0;

struct WorkloadSpec {
  const char* name;
  int setup_batch;         // set-ups per batch (four batches per run)
  StackConfig stack;
  std::size_t connections;
  double override_share;   // fraction of requests with ideal_topics
  int topics_per_set;      // size of one override topic set
};

const WorkloadSpec kWorkloads[] = {
    {"wire_univ1", 30, {2, 2}, 4, 0.0, 0},
    {"wire_synth10k", 8, {2, 1}, 2, 0.5, 32},
    // A trip override costs about 6x a plain request. At a 50/50 mix the
    // median falls in the gap between the two modes and swings by a third
    // from run to run; at 30% it sits inside the plain mode and p90 inside
    // the override mode. Two connections on one shard and two workers
    // leave the fleet's ticks their share of a 4-core host. (An open loop
    // at 1000 req/s over 4 connections spread 0.14 on p50 and 0.22 on p90
    // over five 10 s runs; this closed loop 0.03 on both.)
    {"retrain_nyc", 20, {2, 1}, 2, 0.3, 4},
};

/// One stood-up stack and everything it serves.
struct Env {
  rp::datagen::Dataset dataset;
  rp::model::TaskInstance instance;
  rp::core::PlannerConfig config;
  rp::obs::Registry metrics;
  std::unique_ptr<rp::serve::PolicyRegistry> registry;
  std::unique_ptr<rp::util::ThreadPool> fleet_pool;
  std::unique_ptr<rp::fleet::FleetOrchestrator> fleet;
  std::unique_ptr<WireStack> stack;
  std::vector<std::string> slots;
  double train_s = 0.0;  // the set-up's training (none with a fleet)
  std::mutex versions_mutex;
  std::set<std::uint64_t> installed_versions;  // every version published
  std::uint64_t publishes = 0;                 // fleet publish observer
};

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(1);
}

rp::core::PlannerConfig ConfigFor(const rp::datagen::Dataset& dataset,
                                  rp::core::PlannerConfig config) {
  // As the CLI's BuildConfig: equal category weights when the preset's do
  // not fit, and the dataset's default start item.
  const std::size_t categories = dataset.catalog.category_names().size();
  if (categories != config.reward.category_weights.size()) {
    config.reward.category_weights.assign(categories, 1.0 / categories);
  }
  config.sarsa.start_item = dataset.default_start;
  return config;
}

void TrainAndInstall(Env& env) {
  const auto t0 = Clock::now();
  rp::core::RlPlanner planner(env.instance, env.config);
  if (const auto status = planner.Train(); !status.ok()) {
    Die("training failed: " + status.ToString());
  }
  env.train_s = SecondsBetween(t0, Clock::now());
  auto installed =
      planner.uses_sparse()
          ? env.registry->Install("default", planner.sparse_q_table(),
                                  env.config.sarsa, env.config.seed)
          : env.registry->Install("default", planner.q_table(),
                                  env.config.sarsa, env.config.seed);
  if (!installed.ok()) Die(installed.status().ToString());
  env.installed_versions.insert(installed.value());
  env.slots = {"default"};
}

// One fleet tick, its retrains run in turn on one thread: the tick runs
// inside a task of the fleet's own pool, and a ParallelFor issued from a
// running task runs inline (util::ThreadPool's nesting rule).
void SerialTick(Env& env) {
  env.fleet_pool->ParallelFor(2, [&](std::size_t i) {
    if (i == 0) env.fleet->Tick();
  });
}

void SetUpFleet(Env& env) {
  env.fleet_pool = std::make_unique<rp::util::ThreadPool>(kFleetThreads);
  rp::fleet::FleetConfig fleet_config;
  fleet_config.canary_permille = 200;
  // Promote in the staging tick: every tick runs gate → canary → promote and
  // no canary is left staged when the ticks end.
  fleet_config.canary_hold_ticks = 0;
  fleet_config.reward_band = kRewardBand;
  fleet_config.metrics = &env.metrics;
  env.fleet = std::make_unique<rp::fleet::FleetOrchestrator>(
      env.instance, env.config.reward, *env.registry, *env.fleet_pool,
      fleet_config);
  env.fleet->set_publish_observer(
      [&env](const rp::fleet::PolicySpec&, std::uint64_t version,
             const std::string&) {
        std::lock_guard<std::mutex> lock(env.versions_mutex);
        env.installed_versions.insert(version);
        ++env.publishes;
      });
  for (int i = 0; i < kFleetPolicies; ++i) {
    rp::fleet::PolicySpec spec;
    spec.slot = "policy-" + std::to_string(i);
    spec.segment_id = "segment-" + std::to_string(i);
    spec.catalog_fingerprint = env.registry->catalog_fingerprint();
    spec.sarsa = env.config.sarsa;
    spec.seed = env.config.seed + static_cast<std::uint64_t>(i);
    spec.freshness_ticks = 1;  // due every tick
    if (const auto status = env.fleet->AddSpec(spec); !status.ok()) {
      Die(status.ToString());
    }
    env.slots.push_back(spec.slot);
  }
  // The first tick trains and publishes every policy from scratch.
  SerialTick(env);
}

std::unique_ptr<Env> SetUp(const WorkloadSpec& spec) {
  auto env = std::make_unique<Env>();
  const std::string name = spec.name;
  if (name == "wire_univ1") {
    env->dataset = rp::datagen::MakeUniv1Cs();
    env->config = ConfigFor(env->dataset, rp::core::DefaultUniv1Config());
  } else if (name == "wire_synth10k") {
    rp::datagen::SyntheticSpec synthetic;
    synthetic.num_items = kSynthItems;
    synthetic.vocab_size = kSynthVocab;
    synthetic.seed = kSynthCatalogSeed;
    env->dataset = rp::datagen::GenerateSynthetic(synthetic);
    rp::core::PlannerConfig config;
    config.sarsa.q_representation = rp::rl::QRepresentation::kSparse;
    // A restart round's AddNoise touches all |I|^2 cells; scale configs
    // pin one round.
    config.sarsa.policy_rounds = 1;
    config.sarsa.num_episodes = kSynthEpisodes;
    config.sarsa.parallel_mode = rp::rl::ParallelMode::kDeterministic;
    config.sarsa.num_workers = 2;
    env->config = ConfigFor(env->dataset, config);
  } else {
    env->dataset = rp::datagen::MakeNycTrip();
    env->config = ConfigFor(env->dataset, rp::core::DefaultTripConfig());
  }
  env->instance = env->dataset.Instance();
  env->registry = std::make_unique<rp::serve::PolicyRegistry>(
      rp::serve::CatalogFingerprint(env->dataset.catalog),
      env->dataset.catalog.size());
  if (name == "retrain_nyc") {
    SetUpFleet(*env);
  } else {
    TrainAndInstall(*env);
  }
  env->stack = std::make_unique<WireStack>(env->instance, env->config.reward,
                                           *env->registry, &env->metrics,
                                           spec.stack);
  return env;
}

// ---------------------------------------------------------------------------
// Requests.

// The dataset instance plus kTopicSets seeded ideal-topic overrides of
// `topics_per_set` topics each (none when 0).
CheckContext MakeContext(const Env& env, int topics_per_set,
                         std::uint64_t seed) {
  CheckContext context;
  context.instances.push_back(env.instance);
  if (topics_per_set <= 0) return context;
  const std::vector<std::string>& vocabulary =
      env.dataset.catalog.vocabulary();
  rp::util::Rng rng(seed * 0x9e3779b97f4a7c15ull + 0x70f1c5);
  for (int k = 0; k < kTopicSets; ++k) {
    std::vector<std::string> topics;
    std::set<std::size_t> picked;
    while (static_cast<int>(picked.size()) <
           std::min<int>(topics_per_set,
                         static_cast<int>(vocabulary.size()))) {
      picked.insert(rng.NextBounded(vocabulary.size()));
    }
    for (const std::size_t t : picked) topics.push_back(vocabulary[t]);
    auto ideal = env.dataset.catalog.MakeTopicVector(topics);
    if (!ideal.ok()) Die(ideal.status().ToString());
    rp::model::TaskInstance instance = env.instance;
    instance.soft.ideal_topics = std::move(ideal).value();
    context.instances.push_back(std::move(instance));
    context.topic_sets.push_back(std::move(topics));
  }
  return context;
}

std::vector<PreparedRequest> MakeStream(const Env& env,
                                        const WorkloadSpec& spec,
                                        const CheckContext& context,
                                        std::uint64_t seed, double stall_ms) {
  rp::util::Rng rng(seed * 0x2545f4914f6cdd1dull + 0x5eed);
  const std::size_t items = env.dataset.catalog.size();
  std::vector<PreparedRequest> stream(kStreamLength);
  for (PreparedRequest& prepared : stream) {
    prepared.request.policy_name = env.slots[rng.NextBounded(env.slots.size())];
    prepared.request.start_item =
        static_cast<rp::model::ItemId>(rng.NextBounded(items));
    if (!context.topic_sets.empty() &&
        rng.NextDouble() < spec.override_share) {
      const std::size_t k = rng.NextBounded(context.topic_sets.size());
      prepared.request.ideal_topics = context.topic_sets[k];
      prepared.instance_index = static_cast<int>(k) + 1;
    }
    prepared.request.debug_stall_ms = stall_ms;
    prepared.body = RequestBody(prepared.request);
  }
  return stream;
}

// The fixed quality pass: plain requests from fixed start items on every
// slot, independent of the seed.
std::vector<PreparedRequest> MakePass(const Env& env) {
  const std::size_t items = env.dataset.catalog.size();
  std::vector<std::size_t> starts;
  if (items > kSynthPassStarts) {
    for (std::size_t i = 0; i < kSynthPassStarts; ++i) {
      starts.push_back(i * items / kSynthPassStarts);
    }
  } else {
    for (std::size_t i = 0; i < items; ++i) starts.push_back(i);
  }
  std::vector<PreparedRequest> pass;
  for (const std::string& slot : env.slots) {
    for (const std::size_t start : starts) {
      PreparedRequest prepared;
      prepared.request.policy_name = slot;
      prepared.request.start_item = static_cast<rp::model::ItemId>(start);
      prepared.body = RequestBody(prepared.request);
      pass.push_back(std::move(prepared));
    }
  }
  return pass;
}

// ---------------------------------------------------------------------------
// The timed window.

/// What a window's writer did beside the serving: the fleet's ticks or,
/// without a fleet, the served policy's republishing.
struct WriterWindow {
  PublishSamples republish;
  int ticks = 0;
  std::uint64_t publishes = 0;
  std::uint64_t retrains = 0;
  std::vector<double> tick_ms;
  std::vector<double> train_s;  // one training per tick, beside the fleet
};

/// Serves one window, with the benchmark's spans going to `tracer` (none
/// when null). Meanwhile a writer publishes. On retrain_nyc that is the
/// fleet, ticking a fixed count every kTickPeriodS with feedback before every
/// tick, and the window lasts until the last tick ends. Without a fleet, the
/// served policy is republished into its own slot every kWriterPeriodS.
LoadResult ServeWindow(Env& env, const WorkloadSpec& spec,
                       const std::vector<PreparedRequest>& stream,
                       const CheckContext& context, double seconds,
                       rp::obs::TraceCollector* tracer, std::size_t offset,
                       rp::util::Rng* rng, WriterWindow* writer) {
  LoadConfig load;
  load.connections = spec.connections;
  load.seconds = seconds;
  SetTracer(tracer);
  load.offset = offset;
  if (env.fleet == nullptr) {
    std::atomic<bool> done{false};
    std::thread publisher([&] {
      const auto policy = env.registry->Current(env.slots.front());
      Republish(*policy, *env.registry, env.slots.front(), 1e9,
                kWriterPeriodS, &done, &writer->republish);
    });
    LoadResult result = RunLoad(env.stack->port(), stream, context, load);
    done = true;
    publisher.join();
    std::lock_guard<std::mutex> lock(env.versions_mutex);
    env.installed_versions.insert(writer->republish.versions.begin(),
                                  writer->republish.versions.end());
    return result;
  }
  const int ticks =
      std::max(1, static_cast<int>(seconds / kTickPeriodS + 0.5));
  std::atomic<bool> done{false};
  load.stop = &done;
  load.seconds = 10.0 * seconds + 60.0;  // bounded by the ticks
  std::uint64_t publishes_before = 0;
  {
    std::lock_guard<std::mutex> lock(env.versions_mutex);
    publishes_before = env.publishes;
  }
  std::thread ticker([&] {
    const auto begin = Clock::now();
    const std::size_t items = env.dataset.catalog.size();
    for (int t = 0; t < ticks; ++t) {
      std::this_thread::sleep_until(
          begin + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(t * kTickPeriodS)));
      for (const std::string& slot : env.slots) {
        rp::adaptive::FeedbackEvent event;
        event.item = static_cast<rp::model::ItemId>(rng->NextBounded(items));
        event.kind = rp::adaptive::FeedbackKind::kBinary;
        event.value = rng->NextBernoulli(0.5) ? 1.0 : 0.0;
        (void)env.fleet->EnqueueFeedback(slot, event);
      }
      const auto t0 = Clock::now();
      {
        Span span("fleet.tick");
        SerialTick(env);
      }
      writer->tick_ms.push_back(MicrosBetween(t0, Clock::now()) /
                                      1000.0);
      // Between ticks, one training with the specs' recipe, timed while
      // the stack serves. (Trainings timed at set-up, a few seconds at one
      // end of the run, drifted with the host by 15% from run to run; these
      // span the whole window.)
      const auto t1 = Clock::now();
      rp::core::RlPlanner planner(env.instance, env.config);
      if (!planner.Train().ok()) Die("training failed");
      writer->train_s.push_back(SecondsBetween(t1, Clock::now()));
    }
    done = true;
    // Statuses() is read only here, on the ticking thread: Tick() holds the
    // fleet mutex through every retrain, so a reader on another thread can
    // starve behind ticks that follow each other closely.
    for (const auto& status : env.fleet->Statuses()) {
      writer->retrains += status.generation;
    }
  });
  LoadResult result = RunLoad(env.stack->port(), stream, context, load);
  ticker.join();
  writer->ticks = ticks;
  std::lock_guard<std::mutex> lock(env.versions_mutex);
  writer->publishes = env.publishes - publishes_before;
  return result;
}

void Account(const LoadResult& load, RunReport* report) {
  report->attempted += load.sent;
  report->failed += load.failed;
  for (const std::string& e : load.errors) {
    if (report->errors.size() < 8) report->errors.push_back(e);
  }
}

bool VersionsInstalled(Env& env, const std::set<std::uint64_t>& seen,
                       RunReport* report) {
  std::lock_guard<std::mutex> lock(env.versions_mutex);
  for (const std::uint64_t v : seen) {
    if (env.installed_versions.count(v) == 0) {
      report->errors.push_back("response from policy_version " +
                               std::to_string(v) +
                               " the registry never installed");
      return false;
    }
  }
  return true;
}

}  // namespace

/// The traced run's replayed layers: the request classes through
/// ReplayLayers, then the fleet and training figures.
std::map<std::string, double> LayerMetrics(
    Env& env, const std::vector<PreparedRequest>& stream,
    const WriterWindow& traced_writer, const std::vector<double>& train_s,
    std::uint64_t seed) {
  std::map<std::string, double> m;
  ReplayInputs replay;
  replay.instance = &env.instance;
  replay.weights = &env.config.reward;
  replay.registry = env.registry.get();
  replay.service = &env.stack->service();
  replay.metrics = &env.metrics;
  for (const PreparedRequest& prepared : stream) {
    (prepared.instance_index == 0 ? replay.plain
                                  : replay.override_requests)
        .push_back(&prepared);
  }
  std::vector<PreparedRequest> overrides;
  if (replay.override_requests.empty()) {
    // wire_univ1 serves plain requests only; its override class is
    // replayed with seeded topic sets so every class has a figure.
    const CheckContext extra = MakeContext(env, 8, seed);
    for (std::size_t i = 0; i < 64; ++i) {
      PreparedRequest prepared = *replay.plain[i % replay.plain.size()];
      prepared.request.ideal_topics = extra.topic_sets[i % kTopicSets];
      prepared.body = RequestBody(prepared.request);
      overrides.push_back(std::move(prepared));
    }
    for (const PreparedRequest& p : overrides) {
      replay.override_requests.push_back(&p);
    }
  }
  for (const auto& [name, value] : ReplayLayers(replay)) m[name] = value;

  if (env.fleet != nullptr) {
    m["fleet.tick_ms_p50"] = Median(traced_writer.tick_ms);
    m["fleet.gate_ms"] =
        ReplayGateMs(env.instance, env.config.reward,
                     *env.registry->Current(env.slots.front()),
                     env.fleet->probe_set(), kRewardBand);
    m["fleet.gate_pass_frac"] =
        traced_writer.retrains > 0
            ? static_cast<double>(env.publishes) / traced_writer.retrains
            : 0.0;
    // Training alone, with the fleet specs' recipe.
    std::vector<double> retrain_ms;
    for (int i = 0; i < 3; ++i) {
      const auto t0 = Clock::now();
      Span span("rl.retrain");
      rp::core::RlPlanner planner(env.instance, env.config);
      if (!planner.Train().ok()) Die("retrain replay failed");
      retrain_ms.push_back(MicrosBetween(t0, Clock::now()) / 1000.0);
    }
    m["rl.retrain_ms"] = Median(retrain_ms);
  } else {
    for (const auto& [name, value] : ReplayScratchFleet(2, 4)) {
      m[name] = value;
    }
    m["rl.retrain_ms"] = Median(train_s) * 1000.0;
  }
  return m;
}

bool RunWorkload(const Options& options, RunReport* report) {
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& w : kWorkloads) {
    if (options.workload == w.name) spec = &w;
  }
  if (spec == nullptr) return false;

  // Set-up, repeated in batches: one before the warm-up, whose last stack
  // is the one served, and three more once that stack is gone, so no two
  // stacks are ever alive at once.
  std::vector<double> setup_s, train_s;
  auto set_up = [&] {
    std::unique_ptr<Env> last;
    for (int r = 0; r < spec->setup_batch; ++r) {
      last.reset();
      // Each set-up starts on the next CPU in turn. On a shared 4-vCPU VM
      // single CPUs trained this workload's recipe in 18 ms while others
      // took 11 ms, and which ones were slow changed within minutes: set-ups
      // left on the CPU the process started on read 11 or 17 ms from run to
      // run. Averaged over every CPU, like the serving threads, they do not.
      MoveToNextCpu();
      const auto t0 = Clock::now();
      last = SetUp(*spec);
      setup_s.push_back(SecondsBetween(t0, Clock::now()));
      train_s.push_back(last->train_s);
    }
    return last;
  };
  std::unique_ptr<Env> env = set_up();
  const CheckContext context =
      MakeContext(*env, spec->topics_per_set, options.seed);
  const std::vector<PreparedRequest> stream =
      MakeStream(*env, *spec, context, options.seed, options.stall_ms);
  // The fleet's feedback stream is fixed, not seeded: the final policies,
  // and so plan_score and plan_valid_frac, are then the same for every
  // seed.
  rp::util::Rng feedback_rng(kFeedbackSeed);

  {
    LoadConfig warmup;
    warmup.connections = spec->connections;
    warmup.seconds = kWarmupSeconds;
    Account(RunLoad(env->stack->port(), stream, context, warmup), report);
  }
  // The untraced window. The traced run halves it and adds a traced window
  // of the same length, to compare the two.
  const double window_s =
      options.trace ? options.seconds / 2.0 : options.seconds;
  WriterWindow writer;
  const LoadResult load =
      ServeWindow(*env, *spec, stream, context, window_s, nullptr, 0,
                  &feedback_rng, &writer);
  Account(load, report);
  std::set<std::uint64_t> seen = load.versions;

  std::map<std::string, double>& m = report->metrics;
  const PassResult pass =
      RunFixedPass(env->stack->port(), MakePass(*env), context);
  report->attempted += pass.sent;
  report->failed += pass.failed;
  for (const auto& e : pass.errors) report->errors.push_back(e);
  seen.insert(pass.versions.begin(), pass.versions.end());

  if (!options.trace) {
    m["peak_rss_mb"] = PeakRssMb();
    m["throughput_rps"] = load.throughput_rps;
    m["latency_p50_ms"] = load.latency_p50_ms;
    m["latency_p90_ms"] = load.latency_p90_ms;
    m["plan_score"] = pass.mean_score;
    m["plan_valid_frac"] = pass.valid_frac;
    // The fleet's publications per tick over its median tick time, under
    // serving: how fast it publishes when ticking back to back. Without a
    // fleet, the rate of the window's republishing of the served policy,
    // at the median cycle.
    m["publishes_per_s"] =
        env->fleet != nullptr
            ? static_cast<double>(writer.publishes) /
                  writer.ticks / (Median(writer.tick_ms) / 1000.0)
            : 1e6 / Median(writer.republish.cycle_us);

  } else {
    WriterWindow traced_writer;
    const LoadResult traced =
        ServeWindow(*env, *spec, stream, context, window_s, options.tracer,
                    kStreamLength / 2, &feedback_rng, &traced_writer);
    Account(traced, report);
    seen.insert(traced.versions.begin(), traced.versions.end());
    m["net.overhead_us_p50"] = traced.overhead_p50_us;
    m["serve.queue_wait_us_p50"] = traced.queue_p50_us;
    m["serve.queue_wait_us_p99"] = traced.queue_p99_us;
    m["serve.exec_us_p50"] = traced.exec_p50_us;
    m["loadgen.late_ms_p99"] = traced.late_p99_ms;
    m["trace.overhead_frac"] =
        1.0 - traced.throughput_rps / load.throughput_rps;
    // The publish path: the traced window's republishing or, beside a
    // fleet, the first slot's policy republished into a scratch registry.
    PublishSamples& publish = traced_writer.republish;
    if (env->fleet != nullptr) {
      rp::serve::PolicyRegistry scratch(env->registry->catalog_fingerprint(),
                                        env->dataset.catalog.size());
      Republish(*env->registry->Current(env->slots.front()), scratch,
                "republish", kRepublishSeconds, 0.0, nullptr, &publish);
    }
    m["serve.snapshot_us"] = Median(publish.snapshot_us);
    m["serve.install_us"] = Median(publish.install_us);

    for (const auto& [name, value] :
         LayerMetrics(*env, stream, traced_writer, train_s, options.seed)) {
      m[name] = value;
    }
  }

  report->correct =
      report->failed == 0 && VersionsInstalled(*env, seen, report);
  if (!options.trace) {
    env.reset();
    for (int batch = 0; batch < 3; ++batch) set_up();
    m["setup_s"] = MedianOfRotationMeans(setup_s);
    m["train_s"] = writer.train_s.empty()
                       ? MedianOfRotationMeans(train_s)
                       : Median(writer.train_s);
  }
  char context_json[512];
  std::snprintf(context_json, sizeof context_json,
                "\"window_s\": %.3f, \"setups\": %d, \"requests_in_window\": "
                "%llu, \"fleet_ticks\": %d, \"fleet_publishes\": %llu, "
                "\"republishes\": %zu, \"pass_requests\": %llu",
                load.window_s, static_cast<int>(setup_s.size()),
                static_cast<unsigned long long>(load.sent), writer.ticks,
                static_cast<unsigned long long>(writer.publishes),
                writer.republish.cycle_us.size(),
                static_cast<unsigned long long>(pass.sent));
  report->context_json = context_json;
  return true;
}

}  // namespace perfbench
