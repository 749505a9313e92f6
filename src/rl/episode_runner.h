#ifndef RLPLANNER_RL_EPISODE_RUNNER_H_
#define RLPLANNER_RL_EPISODE_RUNNER_H_

#include <algorithm>
#include <cstddef>
#include <vector>

#include "mdp/episode_state.h"
#include "mdp/reward.h"
#include "model/item.h"
#include "obs/training_metrics.h"
#include "rl/action_mask.h"
#include "rl/sarsa_config.h"
#include "util/bitset.h"
#include "util/rng.h"

namespace rlplanner::rl {

/// The episode generator of Algorithm 1, factored out of SarsaLearner so
/// one implementation serves every training mode. `QModel` is the value
/// table the TD updates land in — mdp::QTable or mdp::SparseQTable, for the
/// serial and deterministic-sharded learners alike — and must provide
/// Get/Set/SarsaUpdate with QTable's signatures.
///
/// The runner holds *references* to its config and RNG: the serial learner
/// shares its own RNG so the refactor preserves the historical draw
/// sequence bit-exactly, while each parallel worker passes a private RNG
/// reseeded per (seed, round, worker). Not thread-safe across calls on the
/// same instance — give each worker its own runner (and its own ActionMask,
/// whose scratch buffers are also per-thread).
template <typename QModel>
class EpisodeRunner {
 public:
  /// All referents must outlive the runner.
  EpisodeRunner(const model::TaskInstance& instance,
                const mdp::RewardFunction& reward, const SarsaConfig& config,
                util::Rng& rng)
      : instance_(&instance),
        reward_(&reward),
        config_(&config),
        rng_(&rng),
        allowed_bits_(instance.catalog->size()) {}

  /// The horizon H used for episodes (courses: #primary + #secondary;
  /// trips: unbounded-by-count, terminated by the time budget — this then
  /// returns the catalog size as a safety cap).
  int Horizon() const {
    if (instance_->catalog->domain() == model::Domain::kTrip) {
      // Trip episodes end when the time budget is exhausted; the item count
      // is only capped by the catalog size.
      return static_cast<int>(instance_->catalog->size());
    }
    return instance_->hard.TotalItems();
  }

  /// The episode's starting item (Algorithm 1 line 3): the configured
  /// fixed item, or a random primary drawn from this runner's RNG.
  model::ItemId PickStart() {
    if (config_->start_item >= 0) return config_->start_item;
    const auto primaries =
        instance_->catalog->ItemsOfType(model::ItemType::kPrimary);
    if (!primaries.empty()) {
      return primaries[rng_->NextIndex(primaries.size())];
    }
    return static_cast<model::ItemId>(
        rng_->NextIndex(instance_->catalog->size()));
  }

  /// Generates one episode against `q`, applying the configured TD update
  /// at every step, and appends the episode's total Eq. 2 return to
  /// `episode_returns()`.
  void RunEpisode(QModel& q, const ActionMask& mask, double explore_epsilon) {
    const int horizon = Horizon();
    mdp::EpisodeState state(*instance_);
    double episode_return = 0.0;

    // Seed the episode with the starting item (Algorithm 1 line 3).
    const model::ItemId start = PickStart();
    state.Add(start);

    // Choose the first action from the start state.
    ComputeAllowed(state, mask);
    model::ItemId action = SelectAction(state, q, explore_epsilon);
    model::ItemId current = start;
    while (action >= 0 && static_cast<int>(state.Length()) < horizon) {
      const double reward = reward_->Reward(state, action);
      episode_return += reward;
      state.Add(action);

      // Choose e' from s' (on-policy), then apply the TD update (Eq. 9 for
      // SARSA; Q-learning/Expected-SARSA substitute their own targets). The
      // admissible set of s' is derived once into `allowed_` and shared by
      // the selection and the continuation target.
      model::ItemId next_action = -1;
      if (static_cast<int>(state.Length()) < horizon) {
        ComputeAllowed(state, mask);
        next_action = SelectAction(state, q, explore_epsilon);
      }
      if (config_->update_rule == UpdateRule::kSarsa) {
        if (metrics_ != nullptr) {
          // TD error from Q reads only, taken before the update lands —
          // recording never draws RNG or perturbs the training math, which
          // is what keeps deterministic runs bit-exact with metrics on.
          const double next_q =
              next_action >= 0 ? q.Get(action, next_action) : 0.0;
          metrics_->RecordStep(reward + config_->gamma * next_q -
                               q.Get(current, action));
        }
        q.SarsaUpdate(current, action, reward, action, next_action,
                      config_->alpha, config_->gamma);
      } else {
        const double continuation =
            ContinuationValue(q, state, next_action, explore_epsilon);
        const double old_value = q.Get(current, action);
        if (metrics_ != nullptr) {
          metrics_->RecordStep(reward + config_->gamma * continuation -
                               old_value);
        }
        q.Set(current, action,
              old_value + config_->alpha *
                              (reward + config_->gamma * continuation -
                               old_value));
      }

      current = action;
      action = next_action;
    }
    if (metrics_ != nullptr) metrics_->RecordEpisode();
    episode_returns_.push_back(episode_return);
  }

  /// Attaches the hot-path metrics facade (null detaches). Recording uses
  /// Q-value reads only, so attaching one changes no training output.
  void set_metrics(obs::TrainingMetrics* metrics) { metrics_ = metrics; }

  /// Total Eq. 2 return of each episode run so far, in order.
  const std::vector<double>& episode_returns() const {
    return episode_returns_;
  }
  std::vector<double>& mutable_episode_returns() { return episode_returns_; }

 private:
  // Derives the admissible-action set of `state` into the shared `allowed_`
  // buffer (one mask scan per step; SelectAction and ContinuationValue both
  // read the same buffer instead of re-deriving the mask). Goes through the
  // word-level ActionMask::AllowedSet, then unpacks ascending set bits —
  // the same ascending-id vector the historical per-id loop produced, so
  // downstream RNG consumption is unchanged.
  void ComputeAllowed(const mdp::EpisodeState& state, const ActionMask& mask) {
    mask.AllowedSet(state, &allowed_bits_);
    allowed_.clear();
    allowed_bits_.ForEachSetBit([this](std::size_t i) {
      allowed_.push_back(static_cast<model::ItemId>(i));
    });
  }

  // Behavior-policy action selection among the actions in `allowed_`;
  // -1 = none.
  model::ItemId SelectAction(const mdp::EpisodeState& state, const QModel& q,
                             double explore_epsilon) {
    if (allowed_.empty()) return -1;

    // Exploration applies to both behavior policies: a pure argmax-R policy
    // only ever visits one trajectory, leaving the Q-table empty everywhere
    // else (the paper's Python implementation gets its exploration from the
    // abundant exact-tie random picks; our reward has fewer exact ties, so
    // a small epsilon restores the same coverage).
    if (rng_->NextBernoulli(explore_epsilon)) {
      return allowed_[rng_->NextIndex(allowed_.size())];
    }

    // Greedy on immediate reward (Algorithm 1) or on Q, random tie-break.
    best_.clear();
    double best_value = 0.0;
    const model::ItemId current = state.CurrentItem();
    for (model::ItemId item : allowed_) {
      double value;
      if (config_->exploration == ExplorationMode::kRewardGreedy) {
        value = reward_->Reward(state, item);
      } else {
        value = current >= 0 ? q.Get(current, item) : 0.0;
      }
      if (best_.empty() || value > best_value + 1e-12) {
        best_.assign(1, item);
        best_value = value;
      } else if (value >= best_value - 1e-12) {
        best_.push_back(item);
      }
    }
    return best_[rng_->NextIndex(best_.size())];
  }

  // The continuation value of (state after `action`, `next_action`) under
  // the configured update rule, over the actions in `allowed_` (which must
  // hold the admissible set of `next_state`).
  double ContinuationValue(const QModel& q,
                           const mdp::EpisodeState& next_state,
                           model::ItemId next_action,
                           double explore_epsilon) const {
    if (next_action < 0) return 0.0;  // terminal
    const model::ItemId next_item = next_state.CurrentItem();
    if (next_item < 0) return 0.0;
    if (allowed_.empty()) return 0.0;

    double max_q = q.Get(next_item, allowed_.front());
    double sum_q = 0.0;
    for (model::ItemId item : allowed_) {
      const double value = q.Get(next_item, item);
      max_q = std::max(max_q, value);
      sum_q += value;
    }
    if (config_->update_rule == UpdateRule::kQLearning) return max_q;
    // Expected SARSA under the epsilon-greedy mixture: with probability
    // epsilon a uniform action, otherwise the greedy one.
    const double uniform = sum_q / static_cast<double>(allowed_.size());
    return explore_epsilon * uniform + (1.0 - explore_epsilon) * max_q;
  }

  const model::TaskInstance* instance_;
  const mdp::RewardFunction* reward_;
  const SarsaConfig* config_;
  util::Rng* rng_;
  obs::TrainingMetrics* metrics_ = nullptr;
  std::vector<double> episode_returns_;
  // Reusable per-step scratch: the admissible-action bitset and its
  // unpacked id vector, plus the reward/Q-tied best set (avoids heap
  // allocations per step).
  util::DynamicBitset allowed_bits_;
  std::vector<model::ItemId> allowed_;
  std::vector<model::ItemId> best_;
};

}  // namespace rlplanner::rl

#endif  // RLPLANNER_RL_EPISODE_RUNNER_H_
