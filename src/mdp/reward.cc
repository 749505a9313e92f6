#include "mdp/reward.h"

#include <cmath>

#include "geo/latlng.h"
#include "model/topic_vector.h"

namespace rlplanner::mdp {

util::Status RewardWeights::Validate() const {
  constexpr double kTolerance = 1e-9;
  if (delta < 0 || beta < 0) {
    return util::Status::InvalidArgument("delta and beta must be >= 0");
  }
  if (std::abs(delta + beta - 1.0) > kTolerance) {
    return util::Status::InvalidArgument("delta + beta must equal 1");
  }
  if (category_weights.empty()) {
    return util::Status::InvalidArgument("category_weights must be non-empty");
  }
  double sum = 0.0;
  for (double w : category_weights) {
    if (w < 0) {
      return util::Status::InvalidArgument("category weights must be >= 0");
    }
    sum += w;
  }
  if (std::abs(sum - 1.0) > 1e-6) {
    return util::Status::InvalidArgument("category weights must sum to 1");
  }
  if (epsilon < 0) {
    return util::Status::InvalidArgument("epsilon must be >= 0");
  }
  return util::Status::Ok();
}

namespace {

// Largest catalog for which the pairwise distance matrix is materialized
// (1024^2 doubles = 8 MiB); larger trip catalogs fall back to on-the-fly
// haversine.
constexpr std::size_t kMaxDistanceMatrixItems = 1024;

}  // namespace

RewardFunction::RewardFunction(const model::TaskInstance& instance,
                               const RewardWeights& weights)
    : instance_(&instance),
      weights_(&weights),
      num_items_(instance.catalog->size()),
      required_new_topics_(ComputeRequiredNewIdealTopics()) {
  ideal_topics_of_item_.reserve(num_items_);
  ideal_topic_count_of_item_.reserve(num_items_);
  for (const model::Item& item : instance_->catalog->items()) {
    model::TopicVector ideal = item.topics;
    ideal &= instance_->soft.ideal_topics;
    ideal_topic_count_of_item_.push_back(ideal.Count());
    ideal_topics_of_item_.push_back(std::move(ideal));
  }
  type_weight_of_item_.reserve(num_items_);
  for (const model::Item& item : instance_->catalog->items()) {
    const int category = item.category;
    const bool in_range =
        category >= 0 && static_cast<std::size_t>(category) <
                             weights_->category_weights.size();
    type_weight_of_item_.push_back(
        in_range ? weights_->category_weights[category] : 0.0);
  }
  if (instance_->catalog->domain() == model::Domain::kTrip &&
      num_items_ <= kMaxDistanceMatrixItems) {
    distance_matrix_.resize(num_items_ * num_items_);
    for (std::size_t a = 0; a < num_items_; ++a) {
      for (std::size_t b = 0; b < num_items_; ++b) {
        distance_matrix_[a * num_items_ + b] =
            ComputeDistanceKm(static_cast<model::ItemId>(a),
                              static_cast<model::ItemId>(b));
      }
    }
  }
}

double RewardFunction::ComputeDistanceKm(model::ItemId a,
                                         model::ItemId b) const {
  return geo::HaversineKm(instance_->catalog->item(a).location,
                          instance_->catalog->item(b).location);
}

std::size_t RewardFunction::ComputeRequiredNewIdealTopics() const {
  const double epsilon = weights_->epsilon;
  if (epsilon >= 1.0) return static_cast<std::size_t>(epsilon);
  const double scaled =
      epsilon * static_cast<double>(instance_->catalog->vocabulary_size());
  const std::size_t required = static_cast<std::size_t>(std::ceil(scaled));
  return required == 0 ? 1 : required;
}

int RewardFunction::TopicCoverageReward(const EpisodeState& state,
                                        model::ItemId next) const {
  // |T_ideal ∩ T_next \ T_current| via the precomputed per-item
  // intersection: its popcount minus the part already covered.
  const auto index = static_cast<std::size_t>(next);
  const std::size_t gained =
      ideal_topic_count_of_item_[index] -
      ideal_topics_of_item_[index].IntersectCount(state.covered_topics());
  return gained >= required_new_topics_ ? 1 : 0;
}

int RewardFunction::PrerequisiteReward(const EpisodeState& state,
                                       model::ItemId next) const {
  const model::Item& item = instance_->catalog->item(next);
  const int candidate_position = static_cast<int>(state.Length());
  if (!item.prereqs.SatisfiedAt(state.position_of(), candidate_position,
                                instance_->hard.gap)) {
    return 0;
  }
  if (instance_->hard.no_consecutive_same_theme && !state.Empty()) {
    const model::Item& previous =
        instance_->catalog->item(state.CurrentItem());
    if (item.primary_theme >= 0 &&
        item.primary_theme == previous.primary_theme) {
      return 0;
    }
  }
  return 1;
}

int RewardFunction::Theta(const EpisodeState& state,
                          model::ItemId next) const {
  const int r1 = TopicCoverageReward(state, next);
  if (r1 == 0) return 0;  // short-circuit; theta = r1 * r2
  return r1 * PrerequisiteReward(state, next);
}

double RewardFunction::InterleavingSimilarity(const EpisodeState& state,
                                              model::ItemId next) const {
  return state.similarity_tracker().ScoreAppend(
      instance_->catalog->item(next).type, weights_->similarity);
}

double RewardFunction::TypeWeight(model::ItemId next) const {
  return type_weight_of_item_[static_cast<std::size_t>(next)];
}

double RewardFunction::Reward(const EpisodeState& state,
                              model::ItemId next) const {
  const int theta = Theta(state, next);
  if (theta == 0) return 0.0;
  return weights_->delta * InterleavingSimilarity(state, next) +
         weights_->beta * TypeWeight(next);
}

bool RewardFunction::IsFeasible(const EpisodeState& state,
                                model::ItemId next) const {
  if (state.Contains(next)) return false;
  if (instance_->catalog->domain() != model::Domain::kTrip) return true;
  const model::Item& item = instance_->catalog->item(next);
  // Time budget: `H = #cr` terminates the itinerary once total visitation
  // time would exceed the budget (Section III-A).
  if (state.total_credits() + item.credits >
      instance_->hard.min_credits + 1e-9) {
    return false;
  }
  if (std::isfinite(instance_->hard.distance_threshold_km) && !state.Empty()) {
    const double leg = DistanceKm(state.CurrentItem(), next);
    if (state.total_distance_km() + leg >
        instance_->hard.distance_threshold_km + 1e-9) {
      return false;
    }
  }
  return true;
}

}  // namespace rlplanner::mdp
