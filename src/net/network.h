// Network: the composition root for a simulated deployment.
//
// Owns the simulator, the loss model, the channel, and every node. Provides
// fail-stop crash injection and replenishment (the paper's application model,
// Section 2.1: new resources are deployed when the operational population
// drops), and exposes lookups used by protocol layers and metrics.

#pragma once

#include <deque>
#include <memory>
#include <vector>

#include "common/geometry.h"
#include "common/ids.h"
#include "common/rng.h"
#include "common/sim_time.h"
#include "event/simulator.h"
#include "net/node.h"
#include "net/node_store.h"
#include "radio/channel.h"
#include "radio/loss_model.h"

namespace cfds {

/// Everything needed to stand up a deployment.
struct NetworkConfig {
  ChannelConfig channel;
  std::uint64_t seed = 1;
};

class Network {
 public:
  /// The network takes ownership of the loss model.
  Network(NetworkConfig config, std::unique_ptr<LossModel> loss);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Creates a node at `position` with the next sequential NID.
  Node& add_node(Vec2 position);

  /// Creates one node per position, in order (NIDs are assigned in order, so
  /// generators that place special nodes first — e.g. analysis_cluster's CH —
  /// give them the lowest NIDs, matching the lowest-NID election).
  void add_nodes(const std::vector<Vec2>& positions);

  [[nodiscard]] Node& node(NodeId id);
  [[nodiscard]] const Node& node(NodeId id) const;
  [[nodiscard]] bool has_node(NodeId id) const;

  /// The loss model installed at construction (tests flip switchable models
  /// mid-run to stage interference bursts).
  [[nodiscard]] LossModel& loss_model() { return *loss_; }

  /// All nodes in NID order. Returns a reference to a cache maintained by
  /// add_node — callers in per-round loops pay nothing per call. The
  /// reference is invalidated by add_node.
  [[nodiscard]] const std::vector<Node*>& nodes() { return node_ptrs_; }
  [[nodiscard]] const std::vector<const Node*>& nodes() const {
    return const_node_ptrs_;
  }
  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }

  [[nodiscard]] std::size_t alive_count() const;

  /// Immediately crashes the node (fail-stop until recover()).
  void crash(NodeId id);

  /// Schedules a crash at an absolute simulated time.
  void schedule_crash(NodeId id, SimTime when);

  /// Immediately restarts a crashed node (see Node::recover).
  void recover(NodeId id);

  /// Schedules a recovery at an absolute simulated time.
  void schedule_recover(NodeId id, SimTime when);

  [[nodiscard]] Simulator& simulator() { return sim_; }
  [[nodiscard]] Channel& channel() { return channel_; }
  [[nodiscard]] const Channel& channel() const { return channel_; }
  [[nodiscard]] const NetworkConfig& config() const { return config_; }

  /// The struct-of-arrays node state backing every Node view. Slot i holds
  /// NodeId{i}'s state; whole-world scans (grid builds, alive counts,
  /// benches) read its dense arrays directly.
  [[nodiscard]] NodeStore& node_store() { return store_; }
  [[nodiscard]] const NodeStore& node_store() const { return store_; }

  /// Fork of the network-level RNG for components needing their own stream.
  [[nodiscard]] Rng fork_rng() { return rng_.fork(); }

 private:
  NetworkConfig config_;
  Simulator sim_;
  std::unique_ptr<LossModel> loss_;
  Rng rng_;
  Channel channel_;
  NodeStore store_;
  /// Node views in NID order. A deque so references stay stable as nodes
  /// are added (replenishment) without one heap object per node: storage is
  /// contiguous blocks, and NIDs are sequential so nodes_[id.value()] is
  /// the lookup — no hash index.
  std::deque<Node> nodes_;
  // Pointer caches backing nodes(); appended in lockstep by add_node.
  std::vector<Node*> node_ptrs_;
  std::vector<const Node*> const_node_ptrs_;
  std::uint32_t next_nid_ = 0;
};

}  // namespace cfds
