// End-to-end multi-cluster scenario harness.
//
// Stands up a full deployment — nodes scattered over a field, cluster
// formation (distributed protocol or centralized reference), the FDS, and
// inter-cluster forwarding — and drives FDS executions with crash injection.
// This is the entry point the examples, integration tests, and system-level
// benches build on.

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "cluster/directory.h"
#include "cluster/formation.h"
#include "cluster/membership.h"
#include "fds/agent.h"
#include "intercluster/forwarder.h"
#include "net/network.h"
#include "sim/metrics.h"

namespace cfds {

struct ScenarioConfig {
  double width = 1200.0;
  double height = 800.0;
  std::size_t node_count = 300;
  double range = 100.0;            ///< transmission range R
  double loss_p = 0.1;             ///< Bernoulli message-loss probability
  /// When set, overrides loss_p with a custom loss model (e.g. the chaos
  /// harness's SwitchableLoss, or a Gilbert-Elliott burst model).
  std::function<std::unique_ptr<LossModel>()> loss_factory;
  std::uint64_t seed = 1;

  /// true: run the distributed formation protocol over the lossy channel;
  /// false: install the centralized reference clustering.
  bool distributed_formation = false;

  /// The FDS; its heartbeat_interval (phi) is also the epoch spacing.
  /// Scenarios default phi to 2 s, not FdsConfig's 10 s.
  FdsConfig fds{.heartbeat_interval = SimTime::seconds(2)};
  bool enable_forwarder = true;
};

/// A world at the paper's density, ~50 nodes per transmission disk: 500
/// nodes on 700 x 450 m, the field's sides scaled by sqrt(n / 500). Sets
/// node_count, width and height; the rest keeps its defaults.
[[nodiscard]] ScenarioConfig paper_density(std::size_t n);

class Scenario {
 public:
  explicit Scenario(ScenarioConfig config);
  ~Scenario();

  /// Places nodes and forms clusters. Must be called exactly once, before
  /// run_epochs. Returns the simulated time when formation settled.
  SimTime setup();

  /// Runs `count` further FDS executions (continuing the epoch counter).
  /// Returns the simulated time after the last one.
  SimTime run_epochs(std::uint64_t count);

  /// Start time of the next FDS execution to be scheduled. The fault
  /// injector anchors its relative event times here.
  [[nodiscard]] SimTime next_epoch_time() const { return next_epoch_time_; }

  /// Deploys `count` replenishment nodes at uniform positions (the paper's
  /// Section 2.1: resources are added when the population drops). The
  /// newcomers arrive unmarked; their next heartbeat subscribes them to a
  /// reachable cluster (feature F5). Returns their NIDs. Only supported on
  /// the centralized-formation path.
  std::vector<NodeId> replenish(std::size_t count);

  [[nodiscard]] Network& network() { return *network_; }
  [[nodiscard]] FdsService& fds() { return *fds_; }
  [[nodiscard]] ForwarderService* forwarder() { return forwarder_.get(); }
  [[nodiscard]] MetricsCollector& metrics() { return metrics_; }
  /// Every node's view, indexed by NID (empty before setup).
  [[nodiscard]] const std::vector<MembershipView*>& views() const {
    return views_;
  }
  /// Alive nodes whose role is Role::kOrdinaryMember (no CH, deputy or
  /// gateway duty), in NID order: the candidates for an injected crash.
  [[nodiscard]] std::vector<NodeId> alive_ordinary_members();
  [[nodiscard]] const ScenarioConfig& config() const { return config_; }

  /// Clusters currently believed in by at least one node.
  [[nodiscard]] std::size_t cluster_count() const;
  /// Fraction of alive nodes affiliated with some cluster.
  [[nodiscard]] double affiliation_rate() const;
  [[nodiscard]] std::uint64_t epochs_run() const { return next_epoch_; }

 private:
  ScenarioConfig config_;
  std::unique_ptr<Network> network_;

  // Centralized path: the scenario owns the views.
  std::vector<std::unique_ptr<MembershipView>> owned_views_;
  // Distributed path: views live in the formation agents.
  std::unique_ptr<FormationProtocol> formation_;
  std::vector<MembershipView*> views_;  ///< either path's, by NID

  std::unique_ptr<FdsService> fds_;
  std::unique_ptr<ForwarderService> forwarder_;
  MetricsCollector metrics_;

  std::uint64_t next_epoch_ = 0;
  SimTime next_epoch_time_ = SimTime::zero();
};

}  // namespace cfds
