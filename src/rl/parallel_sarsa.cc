#include "rl/parallel_sarsa.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <utility>

#include "mdp/cmdp.h"
#include "obs/span.h"
#include "rl/episode_runner.h"
#include "rl/recommender.h"
#include "util/rng.h"

namespace rlplanner::rl {

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// The episode horizon, mirroring EpisodeRunner::Horizon().
int HorizonOf(const model::TaskInstance& instance) {
  if (instance.catalog->domain() == model::Domain::kTrip) {
    return static_cast<int>(instance.catalog->size());
  }
  return instance.hard.TotalItems();
}

// The serial learner's per-episode start pick, for the coordinator's
// rollout configuration.
model::ItemId PickStart(const model::TaskInstance& instance, util::Rng& rng) {
  const auto primaries =
      instance.catalog->ItemsOfType(model::ItemType::kPrimary);
  if (!primaries.empty()) {
    return primaries[rng.NextIndex(primaries.size())];
  }
  return static_cast<model::ItemId>(rng.NextIndex(instance.catalog->size()));
}

}  // namespace

template <typename QModel>
ParallelSarsaLearnerT<QModel>::ParallelSarsaLearnerT(
    const model::TaskInstance& instance, const mdp::RewardFunction& reward,
    const SarsaConfig& config, std::uint64_t seed, util::ThreadPool* pool)
    : instance_(&instance),
      reward_(&reward),
      config_(config),
      seed_(seed),
      pool_(pool) {}

template <typename QModel>
int ParallelSarsaLearnerT<QModel>::num_workers() const {
  return std::max(1, config_.num_workers);
}

template <typename QModel>
std::uint64_t ParallelSarsaLearnerT<QModel>::WorkerSeed(std::uint64_t seed,
                                                        int round,
                                                        int worker) {
  // SplitMix64 finalizer over the run seed offset by the (round, worker)
  // coordinates: decorrelated shard streams, reproducible from (seed, K)
  // alone. The +1 keeps (round 0, worker 0) distinct from the raw seed.
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL *
                               (static_cast<std::uint64_t>(round) * 0x10001ULL +
                                static_cast<std::uint64_t>(worker) + 1ULL);
  z ^= z >> 30;
  z *= 0xBF58476D1CE4E5B9ULL;
  z ^= z >> 27;
  z *= 0x94D049BB133111EBULL;
  z ^= z >> 31;
  return z;
}

template <typename QModel>
void ParallelSarsaLearnerT<QModel>::ForEachWorker(
    int num_workers, const std::function<void(std::size_t)>& fn) {
  util::ThreadPool* pool = pool_ != nullptr ? pool_ : owned_pool_.get();
  if (pool != nullptr && num_workers > 1) {
    pool->ParallelFor(static_cast<std::size_t>(num_workers), fn);
    return;
  }
  for (std::size_t w = 0; w < static_cast<std::size_t>(num_workers); ++w) {
    fn(w);
  }
}

template <typename QModel>
QModel ParallelSarsaLearnerT<QModel>::Learn() {
  episode_returns_.clear();
  time_to_safe_seconds_ = -1.0;
  const int k = num_workers();
  if (config_.parallel_mode == ParallelMode::kSerial || k <= 1) {
    return LearnSerialDelegate();
  }
  if (pool_ == nullptr && owned_pool_ == nullptr) {
    owned_pool_ =
        std::make_unique<util::ThreadPool>(static_cast<std::size_t>(k));
  }
  return LearnDeterministic();
}

template <typename QModel>
QModel ParallelSarsaLearnerT<QModel>::LearnSerialDelegate() {
  const auto start = Clock::now();
  SarsaLearnerT<QModel> learner(*instance_, *reward_, config_, seed_);
  // The inner learner records steps/episodes/rounds itself — the delegate
  // must not double-count.
  learner.set_metrics(metrics_);
  learner.set_trace(trace_);
  learner.set_round_observer([this, start](int /*round*/, bool safe) {
    if (safe && time_to_safe_seconds_ < 0.0) {
      time_to_safe_seconds_ = SecondsSince(start);
    }
  });
  QModel q = learner.Learn();
  episode_returns_ = learner.episode_returns();
  return q;
}

template <typename QModel>
QModel ParallelSarsaLearnerT<QModel>::LearnDeterministic() {
  const auto start = Clock::now();
  const std::size_t n = instance_->catalog->size();
  const int k = num_workers();
  const int horizon = HorizonOf(*instance_);
  QModel q(n);
  episode_returns_.reserve(static_cast<std::size_t>(config_.num_episodes));

  // The coordinator RNG drives everything the serial learner drew from its
  // single stream *outside* episodes: the rollout start pick and the
  // restart jitter. Worker streams are derived from (seed, round, worker)
  // instead, so they never depend on scheduling.
  util::Rng coordinator(seed_);

  // Each worker owns an ActionMask (mutable scratch makes sharing unsafe).
  std::vector<ActionMask> masks;
  masks.reserve(static_cast<std::size_t>(k));
  for (int w = 0; w < k; ++w) {
    masks.emplace_back(*reward_, horizon, config_.mask_type_overflow);
  }

  const int rounds = std::max(1, config_.policy_rounds);
  const int per_round = std::max(1, config_.num_episodes / rounds);
  const mdp::CmdpSpec spec = mdp::CmdpSpec::FromInstance(*instance_);
  double explore = config_.explore_epsilon;

  RecommendConfig rollout_config;
  rollout_config.start_item = config_.start_item >= 0
                                  ? config_.start_item
                                  : PickStart(*instance_, coordinator);
  rollout_config.mask_type_overflow = config_.mask_type_overflow;
  rollout_config.gamma = config_.gamma;
  auto policy_is_safe = [&](const QModel& table) {
    return spec.Satisfied(
        RecommendPlan(table, *instance_, *reward_, rollout_config));
  };

  obs::Registry* const span_registry =
      metrics_ != nullptr ? metrics_->registry() : nullptr;
  std::optional<QModel> last_safe;
  int episodes_done = 0;
  for (int round = 0; episodes_done < config_.num_episodes; ++round) {
    // Spans only read the clock: no RNG draws, no Q-table interaction, so
    // the learned table stays bit-exact with tracing on.
    obs::ScopedSpan round_span(span_registry, "train_round", trace_);
    round_span.AddArg("round", static_cast<std::uint64_t>(round));
    const auto round_start = Clock::now();
    const double round_epsilon = explore;
    const int target =
        round >= rounds - 1 ? config_.num_episodes
                            : std::min(config_.num_episodes,
                                       episodes_done + per_round);
    const int count = target - episodes_done;

    // Deterministic shard sizes: floor(count / K) each, the remainder going
    // to the lowest-index workers.
    std::vector<int> shard(static_cast<std::size_t>(k), count / k);
    for (int w = 0; w < count % k; ++w) shard[static_cast<std::size_t>(w)]++;

    // Workers roll out against private copies of the round snapshot; the
    // shared table stays untouched until the barrier.
    const QModel snapshot = q;
    std::vector<QModel> locals(static_cast<std::size_t>(k), snapshot);
    std::vector<std::vector<double>> returns(static_cast<std::size_t>(k));
    std::vector<Clock::time_point> worker_done(static_cast<std::size_t>(k));
    ForEachWorker(k, [&](std::size_t w) {
      // One span per shard on the emitting thread's own timeline — the
      // per-worker straggler picture the merge-wait histogram can't show.
      obs::ScopedSpan shard_span(span_registry, "train_shard", trace_);
      shard_span.AddArg("round", static_cast<std::uint64_t>(round));
      shard_span.AddArg("worker", static_cast<std::uint64_t>(w));
      shard_span.AddArg("episodes", static_cast<std::uint64_t>(shard[w]));
      util::Rng rng(WorkerSeed(seed_, round, static_cast<int>(w)));
      EpisodeRunner<QModel> runner(*instance_, *reward_, config_, rng);
      runner.set_metrics(metrics_);
      for (int e = 0; e < shard[w]; ++e) {
        runner.RunEpisode(locals[w], masks[w], explore);
      }
      returns[w] = std::move(runner.mutable_episode_returns());
      if (metrics_ != nullptr) worker_done[w] = Clock::now();
    });
    if (metrics_ != nullptr) {
      // How long each worker's shard result sat waiting for the slowest
      // worker — the price of the deterministic merge barrier.
      const auto barrier = Clock::now();
      for (int w = 0; w < k; ++w) {
        const auto waited = barrier - worker_done[static_cast<std::size_t>(w)];
        metrics_->RecordMergeBarrierWait(static_cast<std::uint64_t>(
            std::max<std::int64_t>(
                0, std::chrono::duration_cast<std::chrono::microseconds>(
                       waited)
                       .count())));
      }
    }

    {
      // Round barrier: fold worker deltas in ascending worker order. Fixed
      // iteration and FP-evaluation order make the merged table — and thus
      // the whole run — bit-reproducible for a given (seed, K).
      obs::ScopedSpan merge_span(span_registry, "train_merge", trace_);
      merge_span.AddArg("round", static_cast<std::uint64_t>(round));
      for (int w = 0; w < k; ++w) {
        q.AccumulateDelta(locals[static_cast<std::size_t>(w)], snapshot);
        episode_returns_.insert(episode_returns_.end(),
                                returns[static_cast<std::size_t>(w)].begin(),
                                returns[static_cast<std::size_t>(w)].end());
      }
    }
    episodes_done = target;

    bool safe = true;  // single-round runs never roll out
    if (rounds > 1) {
      obs::ScopedSpan rollout_span(span_registry, "train_safety_rollout",
                                   trace_);
      rollout_span.AddArg("round", static_cast<std::uint64_t>(round));
      safe = policy_is_safe(q);
    }
    round_span.AddArg("episodes", static_cast<std::uint64_t>(count));
    round_span.AddArg("safe", safe ? "true" : "false");
    if (metrics_ != nullptr) {
      obs::TrainingRoundSample sample;
      sample.round = round;
      sample.episodes = static_cast<std::uint64_t>(count);
      sample.seconds = SecondsSince(round_start);
      sample.episodes_per_sec =
          sample.seconds > 0.0
              ? static_cast<double>(sample.episodes) / sample.seconds
              : 0.0;
      sample.epsilon = round_epsilon;
      sample.safe = safe;
      metrics_->RecordRound(sample);
    }
    if (rounds == 1) continue;
    if (safe) {
      if (time_to_safe_seconds_ < 0.0) {
        time_to_safe_seconds_ = SecondsSince(start);
      }
      last_safe = q;
      explore = config_.explore_epsilon;
    } else {
      // Same restart as the serial learner: decay the locked-in tie order
      // and jitter from the coordinator stream.
      q.Scale(config_.restart_decay);
      q.AddNoise(coordinator, 0.05);
      explore = std::min(0.5, explore + 0.1);
    }
  }
  if (rounds > 1 && last_safe.has_value() && !policy_is_safe(q)) {
    return *std::move(last_safe);
  }
  return q;
}

template class ParallelSarsaLearnerT<mdp::QTable>;
template class ParallelSarsaLearnerT<mdp::SparseQTable>;

}  // namespace rlplanner::rl
