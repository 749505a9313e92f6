#include "mdp/q_table.h"

#include <algorithm>
#include <cassert>

#include "util/simd.h"

namespace rlplanner::mdp {

QTable::QTable(std::size_t num_items)
    : num_items_(num_items), values_(num_items * num_items, 0.0) {}

double QTable::Get(model::ItemId state, model::ItemId action) const {
  assert(state >= 0 && static_cast<std::size_t>(state) < num_items_);
  assert(action >= 0 && static_cast<std::size_t>(action) < num_items_);
  return values_[static_cast<std::size_t>(state) * num_items_ +
                 static_cast<std::size_t>(action)];
}

void QTable::Set(model::ItemId state, model::ItemId action, double value) {
  assert(state >= 0 && static_cast<std::size_t>(state) < num_items_);
  assert(action >= 0 && static_cast<std::size_t>(action) < num_items_);
  values_[static_cast<std::size_t>(state) * num_items_ +
          static_cast<std::size_t>(action)] = value;
}

void QTable::SarsaUpdate(model::ItemId state, model::ItemId action,
                         double reward, model::ItemId next_state,
                         model::ItemId next_action, double alpha,
                         double gamma) {
  const double next_q = (next_state >= 0 && next_action >= 0)
                            ? Get(next_state, next_action)
                            : 0.0;
  const double current = Get(state, action);
  Set(state, action, current + alpha * (reward + gamma * next_q - current));
}

model::ItemId QTable::ArgmaxAction(model::ItemId state,
                                   const util::DynamicBitset& allowed) const {
  assert(allowed.size() == num_items_);
  const double* row =
      values_.data() + static_cast<std::size_t>(state) * num_items_;
  return static_cast<model::ItemId>(util::simd::Active().argmax_masked_f64(
      row, num_items_, allowed.word_data(), allowed.word_count()));
}

void QTable::AccumulateDelta(const QTable& local, const QTable& base) {
  assert(num_items_ == local.num_items_ && num_items_ == base.num_items_);
  // The elementwise kernel is bit-exact across dispatch levels, so the
  // deterministic shard merge stays bit-reproducible on any hardware.
  util::simd::Active().accumulate_delta_f64(
      values_.data(), local.values_.data(), base.values_.data(),
      values_.size());
}

void QTable::Scale(double factor) {
  util::simd::Active().scale_f64(values_.data(), factor, values_.size());
}

void QTable::AddNoise(util::Rng& rng, double magnitude) {
  // Sequential by construction: each entry consumes the next RNG draw.
  for (double& v : values_) v += rng.NextDouble() * magnitude;
}

double QTable::MaxAbsValue() const {
  return util::simd::Active().max_abs_f64(values_.data(), values_.size());
}

double QTable::NonZeroFraction() const {
  if (values_.empty()) return 0.0;
  const std::size_t non_zero =
      util::simd::Active().count_nonzero_f64(values_.data(), values_.size());
  return static_cast<double>(non_zero) / static_cast<double>(values_.size());
}

util::Result<QTable> QTable::FromValues(std::size_t num_items,
                                        std::vector<double> values) {
  if (values.size() != num_items * num_items) {
    return util::Status::InvalidArgument(
        "Q-table payload has " + std::to_string(values.size()) +
        " entries, expected " + std::to_string(num_items * num_items));
  }
  QTable table(num_items);
  table.values_ = std::move(values);
  return table;
}

bool operator==(const QTable& a, const QTable& b) {
  return a.num_items() == b.num_items() && a.values() == b.values();
}

}  // namespace rlplanner::mdp
