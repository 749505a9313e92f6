#ifndef RLPLANNER_MDP_REWARD_H_
#define RLPLANNER_MDP_REWARD_H_

#include <vector>

#include "mdp/episode_state.h"
#include "mdp/similarity.h"
#include "util/status.h"

namespace rlplanner::mdp {

/// The tunable parameters of the weighted reward (Eq. 2):
///   R = theta * [delta * AggSim(s', IT) + beta * weight_{type^m}]
/// with theta = r1 * r2 and delta + beta = 1.
struct RewardWeights {
  /// Weight of the interleaving-similarity term.
  double delta = 0.8;
  /// Weight of the item-type term (delta + beta should be 1).
  double beta = 0.2;
  /// Per-category weights `w_1..w_C`, indexed by `Item::category`. The
  /// two-category default is the paper's best Univ-1 setting; Univ-2 uses
  /// six sub-discipline weights (Table III). Should sum to 1.
  std::vector<double> category_weights = {0.6, 0.4};
  /// Topic-coverage threshold `epsilon` (Eq. 3). Values >= 1 are an absolute
  /// count of newly covered ideal topics; values in (0, 1) are a fraction of
  /// the vocabulary size (the paper sweeps 0.0025..0.02 on vocabularies of
  /// 60..100 topics, i.e. ~1..2 topics).
  double epsilon = 0.0025;
  /// AvgSim (Eq. 7) vs MinSim aggregation.
  SimilarityMode similarity = SimilarityMode::kAverage;

  /// Checks the simplex conditions (delta+beta=1, weights sum to 1, all
  /// non-negative) up to a small tolerance.
  util::Status Validate() const;
};

/// The reward function `R(s_i, e_i, s_{i+1})` of Section III-B, bound to one
/// task instance. All components are exposed individually so tests and the
/// EDA baseline can exercise them.
///
/// Construction snapshots per-item caches derived from the instance and the
/// weights: each item's `topics & T_ideal` and its popcount (so the Eq. 3
/// topic gain is one IntersectCount per candidate), each item's category
/// weight, and in the trip domain the pairwise haversine matrix (catalogs up
/// to 1024 items). Mutate the instance or the weights only before building
/// the function, never after.
class RewardFunction {
 public:
  /// Neither argument is copied; both must outlive the function.
  RewardFunction(const model::TaskInstance& instance,
                 const RewardWeights& weights);

  /// r1 (Eq. 3): 1 iff adding `next` increases coverage of `T^ideal` by at
  /// least the epsilon threshold.
  int TopicCoverageReward(const EpisodeState& state, model::ItemId next) const;

  /// r2 (Eq. 4): 1 iff the antecedents of `next` are present with the
  /// required gap. In the trip domain this additionally enforces the
  /// "no two consecutive POIs of the same theme" gap rule (Section IV-A1).
  int PrerequisiteReward(const EpisodeState& state, model::ItemId next) const;

  /// theta = r1 * r2 (Eq. 5).
  int Theta(const EpisodeState& state, model::ItemId next) const;

  /// The interleaving term: AggSim of the type sequence extended by `next`.
  double InterleavingSimilarity(const EpisodeState& state,
                                model::ItemId next) const;

  /// The type-weight term `weight_{type^m}` = category weight of `next`.
  double TypeWeight(model::ItemId next) const;

  /// Full Eq. 2 reward of taking the action that appends `next`.
  double Reward(const EpisodeState& state, model::ItemId next) const;

  /// True when appending `next` keeps the episode within the hard budget
  /// constraints that terminate trajectories: item not already chosen, and
  /// (trip domain) time and distance thresholds not exceeded.
  bool IsFeasible(const EpisodeState& state, model::ItemId next) const;

  /// The number of newly covered ideal topics required by epsilon for this
  /// instance's vocabulary.
  std::size_t RequiredNewIdealTopics() const { return required_new_topics_; }

  /// Haversine distance between two items' locations in km, served from the
  /// precomputed pairwise matrix when available (trip domain, catalogs up to
  /// 1024 items). Bit-identical to geo::HaversineKm on the same locations.
  double DistanceKm(model::ItemId a, model::ItemId b) const {
    if (!distance_matrix_.empty()) {
      return distance_matrix_[static_cast<std::size_t>(a) * num_items_ +
                              static_cast<std::size_t>(b)];
    }
    return ComputeDistanceKm(a, b);
  }

  const RewardWeights& weights() const { return *weights_; }
  const model::TaskInstance& instance() const { return *instance_; }

 private:
  double ComputeDistanceKm(model::ItemId a, model::ItemId b) const;
  std::size_t ComputeRequiredNewIdealTopics() const;

  const model::TaskInstance* instance_;
  const RewardWeights* weights_;
  std::size_t num_items_ = 0;
  std::size_t required_new_topics_ = 0;
  // Per-item `topics & T_ideal` and its popcount.
  std::vector<model::TopicVector> ideal_topics_of_item_;
  std::vector<std::size_t> ideal_topic_count_of_item_;
  // Per-item category weight (0 for out-of-range categories).
  std::vector<double> type_weight_of_item_;
  // Row-major pairwise haversine matrix (trip domain, up to 1024 items).
  std::vector<double> distance_matrix_;
};

}  // namespace rlplanner::mdp

#endif  // RLPLANNER_MDP_REWARD_H_
