#ifndef RLPLANNER_RL_PARALLEL_SARSA_H_
#define RLPLANNER_RL_PARALLEL_SARSA_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "mdp/q_table.h"
#include "mdp/reward.h"
#include "mdp/sparse_q_table.h"
#include "obs/training_metrics.h"
#include "rl/sarsa.h"
#include "rl/sarsa_config.h"
#include "util/thread_pool.h"

namespace rlplanner::obs {
class TraceCollector;
}  // namespace rlplanner::obs

namespace rlplanner::rl {

/// Intra-run parallel SARSA: one training run's episode budget spread over
/// K episode workers (SarsaConfig::num_workers).
///
/// kDeterministic — at each policy-iteration round the coordinator
/// snapshots the Q-table; every worker rolls out its episode shard against
/// a private copy of the snapshot with a private RNG seeded from
/// (seed, round, worker); at the round barrier the coordinator folds the
/// workers' TD deltas back in *fixed worker order*
/// (Q += local_w - snapshot, w ascending), runs the greedy safety rollout,
/// and applies the same decay/jitter restart as the serial learner. Every
/// stochastic choice derives from (seed, round, worker) and every
/// floating-point reduction has a fixed order, so the learned table is
/// bit-identical across runs and across physical thread counts — only
/// (seed, K) matter. K = 1 delegates wholesale to SarsaLearner and is
/// bit-identical to it.
///
/// kSerial (or num_workers <= 1) — delegates to SarsaLearnerT unchanged.
///
/// Templated over the Q representation like SarsaLearnerT: dense
/// `mdp::QTable` or `mdp::SparseQTable`. The deterministic merge contract is
/// representation-independent — both tables fold worker deltas over a fixed
/// iteration order with identical FP operation order, so dense and sparse
/// runs of the same (seed, K) learn bit-identical tables (pinned by test).
template <typename QModel>
class ParallelSarsaLearnerT {
 public:
  /// `instance` and `reward` must outlive the learner. `pool` optionally
  /// supplies the threads; when null, Learn() spins up a private pool
  /// sized to num_workers for its own duration. Shard results never depend
  /// on which thread runs them, so a too-small pool (or the serial
  /// degradation inside an outer ParallelFor) changes wall-clock only.
  ParallelSarsaLearnerT(const model::TaskInstance& instance,
                        const mdp::RewardFunction& reward,
                        const SarsaConfig& config, std::uint64_t seed = 17,
                        util::ThreadPool* pool = nullptr);

  /// Runs `config.num_episodes` episodes across the workers and returns the
  /// learned Q-table.
  QModel Learn();

  /// Total Eq. 2 return of each episode, concatenated in (round, worker)
  /// order.
  const std::vector<double>& episode_returns() const {
    return episode_returns_;
  }

  /// Wall-clock seconds from the start of Learn() until the first round
  /// whose greedy rollout satisfied every hard constraint; -1 when no safe
  /// round was observed (or policy_rounds <= 1, which never rolls out).
  /// The bench reports this as time-to-constraint-satisfaction.
  double time_to_safe_seconds() const { return time_to_safe_seconds_; }

  /// The effective worker count K (>= 1).
  int num_workers() const;

  /// The per-worker RNG seed: SplitMix64-style mix of the run seed with the
  /// (round, worker) coordinates, so shards are decorrelated but fully
  /// reproducible. Exposed for tests.
  static std::uint64_t WorkerSeed(std::uint64_t seed, int round, int worker);

  /// Attaches the metrics facade (null detaches). Worker threads record
  /// per-step/per-episode counts through the sharded cells; the coordinator
  /// records round samples and the per-worker merge-barrier wait. Recording
  /// uses Q reads only, so deterministic-mode output stays bit-exact.
  void set_metrics(obs::TrainingMetrics* metrics) { metrics_ = metrics; }

  /// Attaches a trace collector (null detaches): the coordinator emits
  /// `train_round`, `train_merge`, and `train_safety_rollout` spans; each
  /// worker emits a `train_shard` span on its own thread's timeline, making
  /// the sharded-merge timeline (and any straggler) visible per worker.
  /// Spans only read the clock — no RNG draws, no Q-table touches — so
  /// deterministic-mode output stays bit-exact with tracing on.
  void set_trace(obs::TraceCollector* trace) { trace_ = trace; }

 private:
  QModel LearnSerialDelegate();
  QModel LearnDeterministic();

  // Runs `fn(w)` for w in [0, K) on the external pool, a private pool, or
  // inline, in that order of availability.
  void ForEachWorker(int num_workers,
                     const std::function<void(std::size_t)>& fn);

  const model::TaskInstance* instance_;
  const mdp::RewardFunction* reward_;
  SarsaConfig config_;
  std::uint64_t seed_;
  util::ThreadPool* pool_;
  // Lazily created when no external pool was supplied; reused across
  // Learn() calls on the same learner.
  std::unique_ptr<util::ThreadPool> owned_pool_;
  obs::TrainingMetrics* metrics_ = nullptr;
  obs::TraceCollector* trace_ = nullptr;
  std::vector<double> episode_returns_;
  double time_to_safe_seconds_ = -1.0;
};

extern template class ParallelSarsaLearnerT<mdp::QTable>;
extern template class ParallelSarsaLearnerT<mdp::SparseQTable>;

/// The historical dense learner — every pre-existing call site compiles
/// unchanged.
using ParallelSarsaLearner = ParallelSarsaLearnerT<mdp::QTable>;
/// The sparse learner for catalogs past kSparseAutoThreshold.
using SparseParallelSarsaLearner = ParallelSarsaLearnerT<mdp::SparseQTable>;

}  // namespace rlplanner::rl

#endif  // RLPLANNER_RL_PARALLEL_SARSA_H_
