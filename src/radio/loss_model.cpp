#include "radio/loss_model.h"

#include <cmath>

#include "common/expect.h"

namespace cfds {
namespace {

/// Membership test for one sender's row of Bad receivers. A row holds a
/// handful of NIDs (about 7 at the stationary Bad fraction), so a scan
/// without early exit beats FlatSet::contains, whose data-dependent
/// branches mispredict on nearly every call (measured in docs/PERF.md,
/// "Per-link loss state").
bool row_contains(const FlatSet<NodeId>& row, NodeId id) {
  bool found = false;
  for (const NodeId r : row) found |= r == id;
  return found;
}

}  // namespace

BernoulliLoss::BernoulliLoss(double loss_probability) : p_(loss_probability) {
  CFDS_EXPECT(p_ >= 0.0 && p_ <= 1.0, "loss probability outside [0,1]");
}

bool BernoulliLoss::lost(NodeId, Vec2, NodeId, Vec2, Rng& rng) {
  return rng.bernoulli(p_);
}

GilbertElliottLoss::GilbertElliottLoss(Params params) : params_(params) {
  CFDS_EXPECT(params_.p_good >= 0.0 && params_.p_good <= 1.0 &&
                  params_.p_bad >= 0.0 && params_.p_bad <= 1.0,
              "Gilbert-Elliott loss probability outside [0,1]");
  CFDS_EXPECT(params_.p_gb > 0.0 && params_.p_gb <= 1.0 &&
                  params_.p_bg > 0.0 && params_.p_bg <= 1.0,
              "degenerate Gilbert-Elliott chain: transition outside (0,1]");
}

// LINT-ROUND-PATH: per-candidate on every transmission (see docs/PERF.md).
bool GilbertElliottLoss::lost(NodeId sender, Vec2, NodeId receiver, Vec2,
                              Rng& rng) {
  CFDS_EXPECT(sender.is_valid(), "Gilbert-Elliott sender id invalid");
  if (sender.value() >= bad_receivers_.size()) {
    bad_receivers_.resize(std::size_t(sender.value()) + 1);
  }
  FlatSet<NodeId>& bad_row = bad_receivers_[sender.value()];
  // Step the chain, then sample loss in the new state. The row changes only
  // when the link flips, and its buffer keeps its high-water capacity.
  const bool was_bad = row_contains(bad_row, receiver);
  const bool bad =
      was_bad ? !rng.bernoulli(params_.p_bg) : rng.bernoulli(params_.p_gb);
  if (bad != was_bad) {
    if (bad) {
      bad_row.insert(receiver);
    } else {
      bad_row.erase(receiver);
    }
  }
  return rng.bernoulli(bad ? params_.p_bad : params_.p_good);
}

double GilbertElliottLoss::stationary_loss() const {
  const double frac_bad = params_.p_gb / (params_.p_gb + params_.p_bg);
  return frac_bad * params_.p_bad + (1.0 - frac_bad) * params_.p_good;
}

DistanceLoss::DistanceLoss(double floor, double ceiling, double range,
                           double gamma)
    : floor_(floor), ceiling_(ceiling), range_(range), gamma_(gamma) {
  CFDS_EXPECT(floor_ >= 0.0 && ceiling_ <= 1.0 && floor_ <= ceiling_,
              "invalid distance-loss bounds");
  CFDS_EXPECT(range_ > 0.0, "range must be positive");
}

double DistanceLoss::probability_at(double dist) const {
  const double t = std::min(dist / range_, 1.0);
  return floor_ + (ceiling_ - floor_) * std::pow(t, gamma_);
}

bool DistanceLoss::lost(NodeId, Vec2 from, NodeId, Vec2 to, Rng& rng) {
  return rng.bernoulli(probability_at(distance(from, to)));
}

}  // namespace cfds
