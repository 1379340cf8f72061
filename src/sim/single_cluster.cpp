#include "sim/single_cluster.h"

#include <algorithm>
#include <cmath>

#include "common/expect.h"
#include "net/topology.h"

namespace cfds {

SingleClusterExperiment::SingleClusterExperiment(SingleClusterConfig config)
    : config_(config), rng_(config.seed) {
  CFDS_EXPECT(config_.n >= 4, "need CH, DCH, and at least two members");

  NetworkConfig net_config;
  net_config.channel.range = kPaperRange;
  net_config.seed = config_.seed ^ 0xA11CE;
  network_ = std::make_unique<Network>(
      net_config, config_.loss_factory
                      ? config_.loss_factory()
                      : std::make_unique<BernoulliLoss>(config_.p));

  // Node 0 (the CH) at the centre; members placed per-trial.
  for (int i = 0; i < config_.n; ++i) {
    network_->add_node(Vec2{0.0, 0.0});
  }

  views_.reserve(std::size_t(config_.n));
  for (int i = 0; i < config_.n; ++i) {
    views_.push_back(std::make_unique<MembershipView>(NodeId{std::uint32_t(i)}));
  }
  directory_ = ClusterDirectory::single_cluster(std::size_t(config_.n),
                                                config_.num_deputies);

  FdsConfig fds_config;
  fds_config.rule_mode = config_.rule_mode;
  fds_config.peer_forwarding = config_.peer_forwarding;
  fds_config.heartbeat_interval = 8 * network_->channel().config().t_hop;
  std::vector<MembershipView*> view_ptrs;
  for (auto& v : views_) view_ptrs.push_back(v.get());
  fds_ = std::make_unique<FdsService>(*network_, view_ptrs, fds_config);

  fds_->hooks().on_detection = [this](NodeId decider, std::uint64_t,
                                      const std::vector<NodeId>& failed,
                                      bool by_deputy) {
    if (!by_deputy && decider == clusterhead() &&
        std::find(failed.begin(), failed.end(), edge_node()) != failed.end()) {
      ch_detected_edge_ = true;
    }
    if (by_deputy && decider == deputy() &&
        std::find(failed.begin(), failed.end(), clusterhead()) !=
            failed.end()) {
      deputy_detected_ch_ = true;
    }
  };
}

SingleClusterExperiment::~SingleClusterExperiment() = default;

void SingleClusterExperiment::run_one_trial() {
  // Fresh geometry: CH at the centre, members uniform in the disk, with the
  // experiment's pinned positions applied on top.
  network_->node(clusterhead()).radio().set_position({0.0, 0.0});
  for (int i = 1; i < config_.n; ++i) {
    const double rad = kPaperRange * std::sqrt(rng_.uniform());
    const double theta = rng_.uniform(0.0, 2.0 * M_PI);
    network_->node(NodeId{std::uint32_t(i)})
        .radio()
        .set_position({rad * std::cos(theta), rad * std::sin(theta)});
  }
  if (config_.pin_deputy_center) {
    network_->node(deputy()).radio().set_position({0.0, 0.0});
  }
  if (config_.pin_edge_node) {
    // Nudged fractionally inside the circumference: at exactly R the
    // cos/sin round-trip rounds the node outside the CH's range in ~9% of
    // draws, which would disconnect it outright instead of modelling the
    // paper's worst-case *member*.
    const double rad = kPaperRange * (1.0 - 1e-9);
    const double theta = rng_.uniform(0.0, 2.0 * M_PI);
    network_->node(edge_node())
        .radio()
        .set_position({rad * std::cos(theta), rad * std::sin(theta)});
  }

  // Re-install the canonical organization (undoing removals, takeovers and
  // unmarkings from earlier trials) and run one execution.
  std::vector<MembershipView*> view_ptrs;
  for (auto& v : views_) view_ptrs.push_back(v.get());
  directory_.install(*network_, view_ptrs);

  ch_detected_edge_ = false;
  deputy_detected_ch_ = false;

  Simulator& sim = network_->simulator();
  const SimTime start = sim.now();
  fds_->schedule_epoch(trial_, start);
  sim.run_until(start + 7 * network_->channel().config().t_hop);
  ++trial_;
}

ProportionEstimator SingleClusterExperiment::run_false_detection(int trials) {
  ProportionEstimator estimator;
  for (int t = 0; t < trials; ++t) {
    run_one_trial();
    estimator.add(ch_detected_edge_);
  }
  return estimator;
}

ProportionEstimator SingleClusterExperiment::run_false_detection_on_ch(
    int trials) {
  ProportionEstimator estimator;
  for (int t = 0; t < trials; ++t) {
    run_one_trial();
    estimator.add(deputy_detected_ch_);
  }
  return estimator;
}

ProportionEstimator SingleClusterExperiment::run_incompleteness(int trials) {
  ProportionEstimator estimator;
  for (int t = 0; t < trials; ++t) {
    run_one_trial();
    estimator.add(!fds_->agent_for(edge_node()).got_scheduled_update());
  }
  return estimator;
}

}  // namespace cfds
