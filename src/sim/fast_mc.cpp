#include "sim/fast_mc.h"

#include <cmath>

#include "common/expect.h"
#include "common/geometry.h"

namespace cfds {
namespace {

/// Uniform point in the disk of radius r around the origin.
Vec2 disk_point(double r, Rng& rng) {
  const double rad = r * std::sqrt(rng.uniform());
  const double theta = rng.uniform(0.0, 2.0 * M_PI);
  return {rad * std::cos(theta), rad * std::sin(theta)};
}

}  // namespace

ProportionEstimator mc_false_detection(const FastMcConfig& config, long trials,
                                       Rng& rng) {
  CFDS_EXPECT(config.n >= 2, "need a CH and the watched node");
  ProportionEstimator estimator;
  const double r = kPaperRange;
  const Vec2 v{r, 0.0};  // worst case: on the circumference
  for (long t = 0; t < trials; ++t) {
    // Rule condition C1: both direct indicators lost.
    if (!rng.bernoulli(config.p)) {  // heartbeat reached the CH
      estimator.add(false);
      continue;
    }
    if (config.rule_mode != RuleMode::kHeartbeatOnly &&
        !rng.bernoulli(config.p)) {  // digest reached the CH
      estimator.add(false);
      continue;
    }
    // Rule condition C2 (kFull only): no member digest mentions v.
    bool witnessed = false;
    if (config.rule_mode == RuleMode::kFull) {
      for (int u = 0; u < config.n - 2 && !witnessed; ++u) {
        const Vec2 pos = disk_point(r, rng);
        if (!within_range(pos, v, r)) continue;
        witnessed = rng.bernoulli(1.0 - config.p) &&  // overheard heartbeat
                    rng.bernoulli(1.0 - config.p);    // digest landed
      }
    }
    estimator.add(!witnessed);
  }
  return estimator;
}

ProportionEstimator mc_false_detection_on_ch(const FastMcConfig& config,
                                             long trials, Rng& rng) {
  CFDS_EXPECT(config.n >= 2, "need a CH and the DCH");
  ProportionEstimator estimator;
  for (long t = 0; t < trials; ++t) {
    // Conditions 1 and 3: heartbeat, digest AND R-3 update all lost to the
    // DCH (the digest leg drops out under kHeartbeatOnly).
    bool direct_silent = rng.bernoulli(config.p) &&  // heartbeat lost
                         rng.bernoulli(config.p);    // update lost
    if (config.rule_mode != RuleMode::kHeartbeatOnly) {
      direct_silent = direct_silent && rng.bernoulli(config.p);  // digest lost
    }
    if (!direct_silent) {
      estimator.add(false);
      continue;
    }
    // Condition 2 (kFull): no member digest reflects the CH's heartbeat.
    // The DCH sits at the centre, so every member's digest can reach it.
    bool witnessed = false;
    if (config.rule_mode == RuleMode::kFull) {
      for (int u = 0; u < config.n - 2 && !witnessed; ++u) {
        witnessed = rng.bernoulli(1.0 - config.p) &&  // member heard the CH
                    rng.bernoulli(1.0 - config.p);    // digest landed
      }
    }
    estimator.add(!witnessed);
  }
  return estimator;
}

ProportionEstimator mc_incompleteness(const FastMcConfig& config, long trials,
                                      Rng& rng) {
  CFDS_EXPECT(config.n >= 2, "need a CH and the watched node");
  ProportionEstimator estimator;
  const double r = kPaperRange;
  const Vec2 v{r, 0.0};
  for (long t = 0; t < trials; ++t) {
    if (!rng.bernoulli(config.p)) {  // update arrived directly
      estimator.add(false);
      continue;
    }
    bool rescued = false;
    if (config.peer_forwarding) {
      for (int u = 0; u < config.n - 2 && !rescued; ++u) {
        const Vec2 pos = disk_point(r, rng);
        if (!within_range(pos, v, r)) continue;
        rescued = rng.bernoulli(1.0 - config.p) &&  // peer holds the update
                  rng.bernoulli(1.0 - config.p) &&  // heard v's request
                  rng.bernoulli(1.0 - config.p);    // forward landed
      }
    }
    estimator.add(!rescued);
  }
  return estimator;
}

}  // namespace cfds
