// Semantic Monte-Carlo estimators for the paper's per-cluster measures.
//
// These sample exactly the random structure the protocol induces — member
// positions uniform in the cluster disk, iid per-receiver frame losses —
// and apply the detection/recovery rules from fds/detector.h semantics, but
// without running the event-driven stack. That makes millions of trials
// cheap, so the benches can put tight Monte-Carlo confidence intervals next
// to the analytic curves wherever the probabilities are large enough to
// sample. The full protocol stack is cross-validated separately (and more
// slowly) by sim/single_cluster.h.

#pragma once

#include "common/geometry.h"
#include "common/rng.h"
#include "common/statistics.h"
#include "fds/detector.h"

namespace cfds {

struct FastMcConfig {
  int n = 100;     ///< cluster population including the CH
  double p = 0.3;  ///< message-loss probability
  RuleMode rule_mode = RuleMode::kFull;
  bool peer_forwarding = true;  ///< incompleteness estimator only
};

/// P(the CH falsely detects an operational node v pinned to the cluster
/// circumference) over one FDS execution — the event of Figure 5.
[[nodiscard]] ProportionEstimator mc_false_detection(const FastMcConfig& config,
                                                     long trials, Rng& rng);

/// P(the central DCH falsely detects the operational CH) — Figure 6.
[[nodiscard]] ProportionEstimator mc_false_detection_on_ch(
    const FastMcConfig& config, long trials, Rng& rng);

/// P(a node v pinned to the circumference ends the execution without the
/// health-status update, peer forwarding included) — Figure 7.
[[nodiscard]] ProportionEstimator mc_incompleteness(const FastMcConfig& config,
                                                    long trials, Rng& rng);

}  // namespace cfds
