// Full-stack Monte-Carlo experiments on a single cluster.
//
// Reproduces the exact setting of the paper's Section 5 analysis — a cluster
// of N hosts uniform in a disk of radius R = 100 m around the CH, iid frame
// loss probability p — by running the real protocol stack (event queue,
// promiscuous channel, FdsAgent round machinery) one FDS execution per
// trial. The cluster organization is re-installed between trials so every
// execution is an independent sample.
//
// Topology knobs mirror the analysis's conditioning:
//   pin_edge_node     the highest-NID member sits exactly on the cluster
//                     circumference (the worst case of Figures 5 and 7);
//   pin_deputy_center the primary DCH (NID 1) sits at the cluster centre
//                     (the q = 1 assumption behind Figure 6).

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "cluster/directory.h"
#include "cluster/membership.h"
#include "common/rng.h"
#include "common/statistics.h"
#include "fds/agent.h"
#include "net/network.h"

namespace cfds {

struct SingleClusterConfig {
  int n = 75;
  double p = 0.3;
  /// Optional override of the loss model (defaults to BernoulliLoss(p),
  /// the paper's model). Used by the robustness bench to swap in bursty
  /// (Gilbert-Elliott) and distance-dependent models.
  std::function<std::unique_ptr<LossModel>()> loss_factory;
  std::uint64_t seed = 1;
  RuleMode rule_mode = RuleMode::kFull;
  bool peer_forwarding = true;
  bool pin_edge_node = true;
  bool pin_deputy_center = false;
  /// Deputies installed in the cluster. The Figure 7 experiment sets 0: a
  /// false DCH takeover (possible at high p) re-broadcasts the update and
  /// would rescue the watched node through a channel the paper's analysis
  /// does not model.
  std::size_t num_deputies = 1;
};

class SingleClusterExperiment {
 public:
  explicit SingleClusterExperiment(SingleClusterConfig config);
  ~SingleClusterExperiment();

  /// P(the CH falsely detects the pinned edge node) per execution (Fig. 5).
  [[nodiscard]] ProportionEstimator run_false_detection(int trials);

  /// P(the primary DCH falsely detects the operational CH) (Fig. 6).
  [[nodiscard]] ProportionEstimator run_false_detection_on_ch(int trials);

  /// P(the pinned edge node misses the health-status update) (Fig. 7).
  [[nodiscard]] ProportionEstimator run_incompleteness(int trials);

  [[nodiscard]] Network& network() { return *network_; }
  [[nodiscard]] FdsService& fds() { return *fds_; }
  [[nodiscard]] NodeId clusterhead() const { return NodeId{0}; }
  [[nodiscard]] NodeId deputy() const { return NodeId{1}; }
  [[nodiscard]] NodeId edge_node() const {
    return NodeId{std::uint32_t(config_.n - 1)};
  }

 private:
  /// Re-randomizes member positions and re-installs the cluster
  /// organization, then runs exactly one FDS execution.
  void run_one_trial();

  SingleClusterConfig config_;
  Rng rng_;
  std::unique_ptr<Network> network_;
  std::vector<std::unique_ptr<MembershipView>> views_;
  std::unique_ptr<FdsService> fds_;
  ClusterDirectory directory_;

  std::uint64_t trial_ = 0;
  // Per-trial detection outcome, filled by the on_detection hook.
  bool ch_detected_edge_ = false;
  bool deputy_detected_ch_ = false;
};

}  // namespace cfds
