// Message-loss models.
//
// The paper's analysis assumes each transmission reaches each in-range
// neighbour independently with probability 1-p (Section 5, with p in
// [0.05, 0.5]); BernoulliLoss implements exactly that. Gilbert-Elliott and
// distance-dependent variants are provided for robustness studies beyond the
// paper's model (bursty links and fading edges change the value of the
// redundancy the FDS exploits).

#pragma once

#include <memory>
#include <vector>

#include "common/flat.h"
#include "common/geometry.h"
#include "common/ids.h"
#include "common/rng.h"

namespace cfds {

/// Decides, per (transmission, receiver) pair, whether the frame is lost.
class LossModel {
 public:
  virtual ~LossModel() = default;

  /// Returns true if the frame from `sender` at `from` fails to reach
  /// `receiver` at `to`. Called once per in-range receiver per transmission;
  /// outcomes must be independent across calls for the iid model.
  [[nodiscard]] virtual bool lost(NodeId sender, Vec2 from, NodeId receiver,
                                  Vec2 to, Rng& rng) = 0;

  /// Non-null when this model is the paper's iid BernoulliLoss. The channel
  /// caches this once and inlines the single-uniform draw on its per-
  /// receiver hot path instead of a virtual call; the draw sequence is
  /// identical to calling lost().
  [[nodiscard]] virtual const class BernoulliLoss* as_bernoulli() const {
    return nullptr;
  }
};

/// The paper's model: iid loss with fixed probability p per receiver.
class BernoulliLoss final : public LossModel {
 public:
  explicit BernoulliLoss(double loss_probability);

  [[nodiscard]] bool lost(NodeId, Vec2, NodeId, Vec2, Rng& rng) override;

  [[nodiscard]] const BernoulliLoss* as_bernoulli() const override {
    return this;
  }

  [[nodiscard]] double probability() const { return p_; }

 private:
  double p_;
};

/// Two-state bursty link model. Each directed link is an independent
/// Gilbert-Elliott chain stepped once per transmission over that link:
/// in the Good state frames are lost with p_good, in the Bad state with
/// p_bad; transitions occur with p_gb / p_bg. Every link starts Good.
///
/// Link state is one flat row per sender, indexed by the sender's NID, that
/// holds the receivers whose link is currently Bad; a receiver not in the
/// row is Good. The channel asks about one sender's whole fan-out in a row,
/// so that short row stays cache-resident across it. Sender NIDs must be
/// valid and densely numbered (as FdsService and ForwarderService also
/// assume): the outer vector grows to the largest sender NID seen.
class GilbertElliottLoss final : public LossModel {
 public:
  struct Params {
    double p_good = 0.01;  ///< loss probability in the Good state
    double p_bad = 0.8;    ///< loss probability in the Bad state
    double p_gb = 0.05;    ///< Good -> Bad transition probability
    double p_bg = 0.3;     ///< Bad -> Good transition probability
  };

  /// Aborts unless p_good and p_bad are in [0,1] and p_gb and p_bg are in
  /// (0,1].
  explicit GilbertElliottLoss(Params params);

  [[nodiscard]] bool lost(NodeId sender, Vec2, NodeId receiver, Vec2,
                          Rng& rng) override;

  /// Stationary loss probability implied by the chain; used to pick
  /// parameters comparable to a Bernoulli p.
  [[nodiscard]] double stationary_loss() const;

 private:
  Params params_;
  std::vector<FlatSet<NodeId>> bad_receivers_;  // [sender NID] -> Bad links
};

/// Loss grows with distance: p(d) = floor + (ceiling-floor) * (d/range)^gamma.
/// Models the soft edge of real radios; the unit-disk range still caps reach.
class DistanceLoss final : public LossModel {
 public:
  DistanceLoss(double floor, double ceiling, double range, double gamma = 2.0);

  [[nodiscard]] bool lost(NodeId, Vec2 from, NodeId, Vec2 to, Rng& rng) override;

  /// Loss probability at the given distance (exposed for tests/analysis).
  [[nodiscard]] double probability_at(double dist) const;

 private:
  double floor_;
  double ceiling_;
  double range_;
  double gamma_;
};

/// Never loses anything. Used by invariant tests (p = 0 => deterministic
/// completeness and accuracy).
class PerfectLinks final : public LossModel {
 public:
  [[nodiscard]] bool lost(NodeId, Vec2, NodeId, Vec2, Rng&) override {
    return false;
  }
};

}  // namespace cfds
