// Distributed cluster formation (reconstruction of the paper's [16]).
//
// The paper leaves its clustering algorithm to an internal technical report
// but pins down its observable features (Section 3, F1-F5):
//   F1 overlapping clusters, multiple gateway candidates per cluster pair;
//   F2 ranked deputy clusterheads and ranked backup gateways;
//   F3 every gateway affiliated with exactly one cluster;
//   F4 open-ended iteration (no explicit termination rule);
//   F5 the first formation round merges with fds.R-1.
//
// We reconstruct it as an iterative, round-synchronous lowest-NID protocol.
// Each iteration runs six rounds of duration Thop:
//   1 probe      every node broadcasts ProbePayload{nid, marked}
//   2 claim      an unmarked node that heard no unmarked NID lower than its
//                own broadcasts ChClaim (lowest-NID policy, Section 3)
//   3 join       an unmarked node joins the lowest claimant it heard
//                (a claimant that hears a lower claim withdraws and joins it
//                — the RCC-style conflict resolution of footnote 1);
//                the join carries the sender's observed one-hop degree
//   4 announce   surviving claimants broadcast the cluster organization:
//                members = joiners heard, deputies = top-k joiners by
//                observed degree (ties to the lower NID); hearing one's own
//                NID in an announcement marks the node
//   5 candidacy  marked nodes hearing foreign CHs report them to their CH
//   6 assign     each CH ranks candidates per neighbouring cluster (lowest
//                NID = GW, rest = BGWs in NID order; overheard candidacies
//                from the neighbour's members are included, so both CHs
//                compute the same ranking when no frames are lost) and
//                broadcasts the link table
//
// Iterations repeat from round 1; clusters already formed are inert (their
// probes carry marked=true), so an iteration with no unmarked probes
// degenerates to the steady-state heartbeat round, exactly as F4/F5 describe.

#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "cluster/membership.h"
#include "cluster/messages.h"
#include "common/flat.h"
#include "common/sim_time.h"
#include "net/network.h"
#include "transport/transport.h"

namespace cfds {

/// Per-node participant in the distributed formation protocol.
///
/// The agent owns the node's MembershipView; the FDS and forwarding layers
/// reference it after formation completes.
class FormationAgent {
 public:
  /// Frames flow only through `transport` (the node itself in simulation,
  /// a real transport in service mode); `node` supplies identity,
  /// liveness, and the marked flag.
  FormationAgent(Node& node, Transport& transport);

  [[nodiscard]] MembershipView& view() { return view_; }
  [[nodiscard]] const MembershipView& view() const { return view_; }
  [[nodiscard]] NodeId id() const { return node_.id(); }

  // --- Round actions, driven by FormationProtocol ----------------------
  void begin_iteration();
  void send_probe();
  void send_claim_if_eligible();
  void send_join_if_needed();
  void send_announcement_if_clusterhead();
  void send_gateway_candidacy_if_needed();
  void send_gateway_assignment_if_clusterhead();

 private:
  void on_frame(const Reception& reception);

  Node& node_;
  Transport& transport_;
  MembershipView view_;

  /// One (sender, home cluster) -> (foreign cluster, its CH) pair of a
  /// heard gateway candidacy.
  struct CandidacyRow {
    NodeId sender;
    ClusterId home;
    ClusterId cluster;
    NodeId clusterhead;
  };
  /// A join addressed to this node, with the joiner's observed degree.
  struct Join {
    NodeId sender;
    std::size_t degree;
  };

  // Per-iteration evidence (cleared each iteration with the buffers
  // retained, so steady-state iterations allocate nothing). Lowest-NID
  // clustering reads only the lowest ID heard, so that is all it keeps.
  NodeId lowest_unmarked_probe_ = NodeId::invalid();
  std::size_t probes_heard_ = 0;  // one-hop degree estimate (marked + unmarked)
  NodeId lowest_claimant_ = NodeId::invalid();
  bool claiming_ = false;
  std::vector<Join> joins_received_;

  // Cross-iteration evidence.
  FlatMap<ClusterId, NodeId> foreign_clusterheads_;  // heard announcements
  /// The latest candidacy of each sender, one row per reachable cluster:
  /// sorted by sender, each sender's rows in its frame's `reachable` order.
  std::vector<CandidacyRow> candidacies_heard_;
  FlatMap<NodeId, std::size_t> member_degrees_;  // CH only: joiner degrees
  std::size_t last_candidacy_size_ = 0;
};

/// Drives all agents through synchronized formation rounds.
class FormationProtocol {
 public:
  explicit FormationProtocol(Network& network);

  /// The per-node agents, in node order.
  [[nodiscard]] std::vector<FormationAgent*> agents();
  [[nodiscard]] FormationAgent& agent_for(NodeId id);

  /// Creates agents for nodes added to the network after construction
  /// (replenishment, Section 2.1); the next open-ended iterations admit
  /// them exactly like nodes that missed the initial formation (F4).
  void adopt_new_nodes();

  /// Schedules `iterations` full formation iterations starting at `start`,
  /// then runs the simulator past them. Returns the simulated time at which
  /// formation settled.
  SimTime run(std::size_t iterations = 3, SimTime start = SimTime::zero());

  /// Number of distinct clusters the agents currently believe in.
  [[nodiscard]] std::size_t cluster_count() const;

 private:
  Network& network_;
  std::vector<std::unique_ptr<FormationAgent>> agents_;
};

}  // namespace cfds
