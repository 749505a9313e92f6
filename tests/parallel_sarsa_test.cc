// Tests for the intra-run parallel SARSA learner: bit-determinism of the
// sharded merge mode, bit-exact K=1 delegation to the serial learner, and
// bit-exact training with metrics recording on.

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "datagen/course_data.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "obs/training_metrics.h"
#include "rl/parallel_sarsa.h"
#include "rl/sarsa.h"
#include "util/thread_pool.h"

namespace rlplanner::rl {
namespace {

SarsaConfig ParallelConfig(ParallelMode mode, int workers, int episodes,
                           model::ItemId start) {
  SarsaConfig config;
  config.num_episodes = episodes;
  config.start_item = start;
  config.parallel_mode = mode;
  config.num_workers = workers;
  return config;
}

// ------------------------------------------------- deterministic mode --

TEST(ParallelSarsaTest, SameSeedSameWorkersIsBitIdentical) {
  datagen::Dataset dataset = datagen::MakeUniv1DsCt();
  const model::TaskInstance instance = dataset.Instance();
  const mdp::RewardWeights weights;
  const mdp::RewardFunction reward(instance, weights);
  const SarsaConfig config = ParallelConfig(ParallelMode::kDeterministic, 4,
                                            100, dataset.default_start);

  ParallelSarsaLearner first(instance, reward, config, /*seed=*/123);
  ParallelSarsaLearner second(instance, reward, config, /*seed=*/123);
  const mdp::QTable q1 = first.Learn();
  const mdp::QTable q2 = second.Learn();
  EXPECT_TRUE(q1 == q2);
  EXPECT_EQ(first.episode_returns(), second.episode_returns());
}

TEST(ParallelSarsaTest, TracingDoesNotPerturbDeterministicTraining) {
  // Spans only read the clock — attaching a trace collector (and a metrics
  // registry) must leave the learned table and the per-episode returns
  // bit-identical to an untraced run with the same (seed, K).
  datagen::Dataset dataset = datagen::MakeUniv1DsCt();
  const model::TaskInstance instance = dataset.Instance();
  const mdp::RewardWeights weights;
  const mdp::RewardFunction reward(instance, weights);
  const SarsaConfig config = ParallelConfig(ParallelMode::kDeterministic, 4,
                                            100, dataset.default_start);

  ParallelSarsaLearner untraced(instance, reward, config, /*seed=*/123);
  const mdp::QTable q1 = untraced.Learn();

  obs::Registry registry;
  obs::TrainingMetrics metrics(&registry);
  obs::TraceCollector trace;
  ParallelSarsaLearner traced(instance, reward, config, /*seed=*/123);
  traced.set_metrics(&metrics);
  traced.set_trace(&trace);
  const mdp::QTable q2 = traced.Learn();

  EXPECT_TRUE(q1 == q2);
  EXPECT_EQ(untraced.episode_returns(), traced.episode_returns());
  // The run actually produced a timeline: round, shard, and merge spans.
  EXPECT_GT(trace.emitted_total(), 0u);
  const std::string json = trace.ToChromeTrace();
  EXPECT_NE(json.find("\"name\": \"train_round\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"train_shard\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"train_merge\""), std::string::npos);
  EXPECT_EQ(trace.dropped_total(), 0u);
}

TEST(ParallelSarsaTest, DeterministicResultIndependentOfThreadCount) {
  // The same (seed, K) must learn the same table whether the shards run on
  // an external 2-thread pool or the learner's own K-thread pool — physical
  // threading is a wall-clock concern only.
  datagen::Dataset dataset = datagen::MakeUniv1DsCt();
  const model::TaskInstance instance = dataset.Instance();
  const mdp::RewardWeights weights;
  const mdp::RewardFunction reward(instance, weights);
  const SarsaConfig config = ParallelConfig(ParallelMode::kDeterministic, 4,
                                            100, dataset.default_start);

  util::ThreadPool small_pool(2);
  ParallelSarsaLearner pooled(instance, reward, config, /*seed=*/9,
                              &small_pool);
  ParallelSarsaLearner owned(instance, reward, config, /*seed=*/9);
  const mdp::QTable q1 = pooled.Learn();
  const mdp::QTable q2 = owned.Learn();
  EXPECT_TRUE(q1 == q2);
  EXPECT_EQ(pooled.episode_returns(), owned.episode_returns());
}

TEST(ParallelSarsaTest, SingleWorkerIsBitIdenticalToSerialLearner) {
  datagen::Dataset dataset = datagen::MakeUniv1DsCt();
  const model::TaskInstance instance = dataset.Instance();
  const mdp::RewardWeights weights;
  const mdp::RewardFunction reward(instance, weights);
  const SarsaConfig parallel_config = ParallelConfig(
      ParallelMode::kDeterministic, 1, 100, dataset.default_start);

  ParallelSarsaLearner parallel(instance, reward, parallel_config,
                                /*seed=*/77);
  const mdp::QTable q_parallel = parallel.Learn();

  SarsaConfig serial_config = parallel_config;
  serial_config.parallel_mode = ParallelMode::kSerial;
  serial_config.num_workers = 1;
  SarsaLearner serial(instance, reward, serial_config, /*seed=*/77);
  const mdp::QTable q_serial = serial.Learn();

  EXPECT_TRUE(q_parallel == q_serial);
  EXPECT_EQ(parallel.episode_returns(), serial.episode_returns());
}

TEST(ParallelSarsaTest, RunsExactlyTheConfiguredEpisodeBudget) {
  datagen::Dataset dataset = datagen::MakeTableIIToy();
  const model::TaskInstance instance = dataset.Instance();
  const mdp::RewardWeights weights;
  const mdp::RewardFunction reward(instance, weights);
  // 103 episodes over 4 workers and 5 rounds exercises both the uneven
  // shard remainder and the uneven round remainder.
  const SarsaConfig config =
      ParallelConfig(ParallelMode::kDeterministic, 4, 103, 0);

  ParallelSarsaLearner learner(instance, reward, config, /*seed=*/5);
  const mdp::QTable q = learner.Learn();
  EXPECT_EQ(q.num_items(), dataset.catalog.size());
  EXPECT_EQ(learner.episode_returns().size(), 103u);
}

TEST(ParallelSarsaTest, WorkerSeedsAreDistinctAcrossRoundsAndWorkers) {
  std::set<std::uint64_t> seen;
  for (int round = 0; round < 8; ++round) {
    for (int worker = 0; worker < 16; ++worker) {
      seen.insert(ParallelSarsaLearner::WorkerSeed(17, round, worker));
    }
  }
  EXPECT_EQ(seen.size(), 8u * 16u);
  // Different run seeds decorrelate every shard stream.
  EXPECT_NE(ParallelSarsaLearner::WorkerSeed(17, 0, 0),
            ParallelSarsaLearner::WorkerSeed(18, 0, 0));
}

// ------------------------------------------------ metrics equivalence --

// Trains once with a live metrics registry and once with none, and requires
// bit-identical results.
void ExpectMetricsDoNotPerturbTraining(const model::TaskInstance& instance,
                                       const mdp::RewardFunction& reward,
                                       const SarsaConfig& config,
                                       std::uint64_t seed) {
  obs::Registry registry;
  obs::TrainingMetrics metrics(&registry);
  ParallelSarsaLearner instrumented(instance, reward, config, seed);
  instrumented.set_metrics(&metrics);
  const mdp::QTable q_instrumented = instrumented.Learn();

  ParallelSarsaLearner plain(instance, reward, config, seed);
  const mdp::QTable q_plain = plain.Learn();

  EXPECT_TRUE(q_instrumented == q_plain) << "seed " << seed;
  EXPECT_EQ(instrumented.episode_returns(), plain.episode_returns())
      << "seed " << seed;
  // The instrumented run really recorded: one step counter bump per update.
  std::uint64_t steps = 0;
  for (const auto& m : registry.Collect().metrics) {
    if (m.name == "train_steps_total") steps = static_cast<std::uint64_t>(m.value);
  }
  EXPECT_GT(steps, 0u) << "seed " << seed;
}

TEST(ParallelSarsaTest, MetricsRecordingIsBitExactAcrossSeedsAndModes) {
  // The observability contract: enabling the registry must not change a
  // single bit of what is learned, in any execution mode. TD errors are
  // computed from Q reads only, and no metrics call draws randomness.
  datagen::Dataset dataset = datagen::MakeUniv1DsCt();
  const model::TaskInstance instance = dataset.Instance();
  const mdp::RewardWeights weights;
  const mdp::RewardFunction reward(instance, weights);

  for (std::uint64_t seed = 200; seed < 205; ++seed) {
    ExpectMetricsDoNotPerturbTraining(
        instance, reward,
        ParallelConfig(ParallelMode::kSerial, 1, 100, dataset.default_start),
        seed);
    ExpectMetricsDoNotPerturbTraining(
        instance, reward,
        ParallelConfig(ParallelMode::kDeterministic, 4, 100,
                       dataset.default_start),
        seed);
  }
}

}  // namespace
}  // namespace rlplanner::rl
