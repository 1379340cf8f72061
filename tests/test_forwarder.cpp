// Behavioural tests for inter-cluster failure-report forwarding
// (Section 4.3): implicit acknowledgements, CH retransmission, ranked BGW
// assistance, flood damping, and the explicit-ack strawman.

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "fds/agent.h"
#include "intercluster/forwarder.h"
#include "net/network.h"

namespace cfds {
namespace {

/// Drops the first `count` frames on one directed (sender, receiver) pair;
/// everything else is delivered. Lets tests force specific retransmissions.
class DropFirstK final : public LossModel {
 public:
  DropFirstK(NodeId sender, NodeId receiver, int count)
      : sender_(sender), receiver_(receiver), remaining_(count) {}

  bool lost(NodeId sender, Vec2, NodeId receiver, Vec2, Rng&) override {
    if (sender == sender_ && receiver == receiver_ && remaining_ > 0) {
      --remaining_;
      return true;
    }
    return false;
  }

 private:
  NodeId sender_;
  NodeId receiver_;
  int remaining_;
};

/// Permanently drops every frame on one directed pair.
class DropAlways final : public LossModel {
 public:
  DropAlways(NodeId sender, NodeId receiver)
      : sender_(sender), receiver_(receiver) {}
  bool lost(NodeId sender, Vec2, NodeId receiver, Vec2, Rng&) override {
    return sender == sender_ && receiver == receiver_;
  }

 private:
  NodeId sender_;
  NodeId receiver_;
};

/// Drops the first `count` frames on each of several directed pairs.
class DropFirstKEach final : public LossModel {
 public:
  struct Rule {
    NodeId sender;
    NodeId receiver;
    int remaining;
  };
  explicit DropFirstKEach(std::vector<Rule> rules) : rules_(std::move(rules)) {}

  bool lost(NodeId sender, Vec2, NodeId receiver, Vec2, Rng&) override {
    for (Rule& rule : rules_) {
      if (rule.sender == sender && rule.receiver == receiver &&
          rule.remaining > 0) {
        --rule.remaining;
        return true;
      }
    }
    return false;
  }

 private:
  std::vector<Rule> rules_;
};

/// Two clusters bridged by one GW and (optionally) BGWs.
///
/// Layout (range 100):
///   CH A = node 0 at (0,0); A-members 2,3 near it; victim 4 near it.
///   CH B = node 1 at (160,0); B-members 5,6 near it.
///   GW   = node 7 at (80,0), member of A, hears both CHs.
///   BGWs = nodes 8,9 at (80,±15), members of A.
struct TwoClusters {
  explicit TwoClusters(std::unique_ptr<LossModel> loss,
                       ForwarderConfig fwd_config = {},
                       std::size_t num_backups = 2) {
    NetworkConfig net_config;
    net_config.seed = 17;
    network = std::make_unique<Network>(net_config, std::move(loss));
    network->add_node({0.0, 0.0});     // 0: CH A
    network->add_node({160.0, 0.0});   // 1: CH B
    network->add_node({-30.0, 10.0});  // 2: A member (primary deputy of A)
    network->add_node({20.0, -25.0});  // 3: A member
    network->add_node({10.0, 30.0});   // 4: A member (the victim)
    network->add_node({175.0, 15.0});  // 5: B member (primary deputy of B),
                                       //    within the GW's range
    network->add_node({140.0, -15.0}); // 6: B member
    network->add_node({80.0, 0.0});    // 7: GW
    network->add_node({80.0, 15.0});   // 8: BGW rank 1
    network->add_node({80.0, -15.0});  // 9: BGW rank 2

    ClusterView a;
    a.id = ClusterId{0};
    a.clusterhead = NodeId{0};
    a.members = {NodeId{2}, NodeId{3}, NodeId{4},
                 NodeId{7}, NodeId{8}, NodeId{9}};
    a.deputies = {NodeId{2}};
    ClusterView b;
    b.id = ClusterId{1};
    b.clusterhead = NodeId{1};
    b.members = {NodeId{5}, NodeId{6}};
    b.deputies = {NodeId{5}};

    GatewayLink ab;
    ab.neighbor_cluster = b.id;
    ab.neighbor_clusterhead = b.clusterhead;
    ab.gateway = NodeId{7};
    if (num_backups >= 1) ab.backups.push_back(NodeId{8});
    if (num_backups >= 2) ab.backups.push_back(NodeId{9});
    a.links.push_back(ab);
    GatewayLink ba = ab;
    ba.neighbor_cluster = a.id;
    ba.neighbor_clusterhead = a.clusterhead;
    b.links.push_back(ba);

    for (std::uint32_t i = 0; i < 10; ++i) {
      views.push_back(std::make_unique<MembershipView>(NodeId{i}));
      ptrs.push_back(views.back().get());
    }
    auto install = [&](const ClusterView& c) {
      ptrs[c.clusterhead.value()]->set_cluster(c);
      network->node(c.clusterhead).set_marked(true);
      for (NodeId m : c.members) {
        ptrs[m.value()]->set_cluster(c);
        network->node(m).set_marked(true);
      }
    };
    install(a);
    install(b);

    FdsConfig fds_config;
    fds_config.heartbeat_interval = SimTime::seconds(3);
    fds = std::make_unique<FdsService>(*network, ptrs, fds_config);
    forwarder = std::make_unique<ForwarderService>(*network, *fds, ptrs,
                                                   fwd_config);
  }

  void run_epochs(int count) {
    SimTime t = network->simulator().now();
    for (int k = 0; k < count; ++k) {
      fds->schedule_epoch(std::uint64_t(k), t);
      t = t + SimTime::seconds(3);
    }
    network->simulator().run_until(t);
  }

  std::unique_ptr<Network> network;
  std::vector<std::unique_ptr<MembershipView>> views;
  std::vector<MembershipView*> ptrs;
  std::unique_ptr<FdsService> fds;
  std::unique_ptr<ForwarderService> forwarder;
};

TEST(Forwarder, ReportCrossesTheLink) {
  TwoClusters tc(std::make_unique<PerfectLinks>());
  tc.network->crash(NodeId{4});
  tc.run_epochs(1);
  // CH B and its members know about A's casualty.
  EXPECT_TRUE(tc.fds->agent_for(NodeId{1}).log().knows(NodeId{4}));
  EXPECT_TRUE(tc.fds->agent_for(NodeId{5}).log().knows(NodeId{4}));
  EXPECT_TRUE(tc.fds->agent_for(NodeId{6}).log().knows(NodeId{4}));
  EXPECT_EQ(tc.forwarder->stats().reports_received, 1u);
}

TEST(Forwarder, NoLossMeansNoRetransmissionTraffic) {
  TwoClusters tc(std::make_unique<PerfectLinks>());
  tc.network->crash(NodeId{4});
  tc.run_epochs(2);
  const ForwarderStats& stats = tc.forwarder->stats();
  EXPECT_EQ(stats.reports_forwarded, 1u);  // one hop, one forward
  EXPECT_EQ(stats.gw_retries, 0u);
  EXPECT_EQ(stats.bgw_assists, 0u);
  EXPECT_EQ(stats.ch_retransmissions, 0u);
  EXPECT_EQ(stats.explicit_acks, 0u);
}

TEST(Forwarder, DampingSuppressesBackForwarding) {
  TwoClusters tc(std::make_unique<PerfectLinks>());
  tc.network->crash(NodeId{4});
  tc.run_epochs(2);
  // CH B's relay names cluster A as its source; the gateway must not carry
  // it straight back, so exactly one report ever crosses.
  EXPECT_EQ(tc.forwarder->stats().reports_received, 1u);
}

TEST(Forwarder, ChRetransmitsWhenGatewayMissedTheUpdate) {
  // The GW (node 7) misses CH A's update emission (the CH's first three
  // frames on that link: R-1 heartbeat, R-2 digest, R-3 update); the CH
  // notices the absence of the forward within 2*Thop (Figure 3) and
  // retransmits to the GW directly. Exclude BGWs so they cannot mask the
  // mechanism.
  ForwarderConfig config;
  config.bgw_assist = false;
  TwoClusters tc(std::make_unique<DropFirstK>(NodeId{0}, NodeId{7}, 3),
                 config, /*num_backups=*/0);
  tc.network->crash(NodeId{4});
  tc.run_epochs(2);
  EXPECT_GE(tc.forwarder->stats().ch_retransmissions, 1u);
  EXPECT_TRUE(tc.fds->agent_for(NodeId{1}).log().knows(NodeId{4}));
}

TEST(Forwarder, BackupGatewayAssistsWhenGatewayForwardIsLost) {
  // The GW's frames never reach CH B: the rank-1 BGW's k*2*Thop timer
  // expires without an implicit ack and it forwards in the GW's stead.
  TwoClusters tc(std::make_unique<DropAlways>(NodeId{7}, NodeId{1}));
  tc.network->crash(NodeId{4});
  tc.run_epochs(2);
  EXPECT_GE(tc.forwarder->stats().bgw_assists, 1u);
  EXPECT_TRUE(tc.fds->agent_for(NodeId{1}).log().knows(NodeId{4}));
}

TEST(Forwarder, BackupGatewaysStandDownOnImplicitAck) {
  TwoClusters tc(std::make_unique<PerfectLinks>());
  tc.network->crash(NodeId{4});
  tc.run_epochs(2);
  EXPECT_EQ(tc.forwarder->stats().bgw_assists, 0u);
}

TEST(Forwarder, BackupGatewayThatHeardTheAckFirstDoesNotForward) {
  // The rank-1 BGW (node 8) loses CH A's first three frames (R-1 heartbeat,
  // R-2 digest, R-3 update), so it hears CH B's relay — the implicit ack of
  // the GW's forward — before it ever hears the update. CH A loses the GW's
  // first three frames (heartbeat, digest, the forward itself), so it never
  // sees the forward and retransmits the update, which is how the BGW first
  // learns of the report. Its ack must already count: acks are kept whether
  // or not this node had armed for the report. Peer forwarding is off so the
  // retransmission is the BGW's only copy of the update.
  TwoClusters tc(std::make_unique<DropFirstKEach>(
      std::vector<DropFirstKEach::Rule>{{NodeId{0}, NodeId{8}, 3},
                                        {NodeId{7}, NodeId{0}, 3}}));
  tc.fds->config().peer_forwarding = false;
  tc.network->crash(NodeId{4});
  tc.run_epochs(2);
  const ForwarderStats& stats = tc.forwarder->stats();
  EXPECT_GE(stats.ch_retransmissions, 1u);
  EXPECT_EQ(stats.bgw_assists, 0u);
  EXPECT_EQ(stats.reports_received, 1u);
  EXPECT_TRUE(tc.fds->agent_for(NodeId{8}).log().knows(NodeId{4}));
}

TEST(Forwarder, GwRetriesWithoutImplicitAck) {
  // CH B never hears anyone (all its inbound frames from GW and BGWs are
  // fine, but its own relay emissions are silenced toward the GW), so the
  // GW re-forwards until its retry budget is spent.
  TwoClusters tc(std::make_unique<DropAlways>(NodeId{1}, NodeId{7}),
                 ForwarderConfig{}, /*num_backups=*/0);
  tc.network->crash(NodeId{4});
  tc.run_epochs(2);
  const ForwarderStats& stats = tc.forwarder->stats();
  EXPECT_EQ(stats.gw_retries, std::uint64_t(kMaxGwRetries));
  // The reports themselves all arrived (only the ack path was cut).
  EXPECT_TRUE(tc.fds->agent_for(NodeId{1}).log().knows(NodeId{4}));
}

TEST(Forwarder, TakeoverUpdateAlsoCrossesClusters) {
  TwoClusters tc(std::make_unique<PerfectLinks>());
  tc.network->crash(NodeId{0});  // CH A itself
  tc.run_epochs(2);
  // Deputy 2 took over and its takeover update reached cluster B.
  EXPECT_TRUE(tc.fds->agent_for(NodeId{1}).log().knows(NodeId{0}));
  EXPECT_EQ(tc.ptrs[5]->cluster()->id, ClusterId{1});
}

TEST(Forwarder, GatewayLearnsNewNeighborChFromTakeover) {
  TwoClusters tc(std::make_unique<PerfectLinks>());
  tc.network->crash(NodeId{1});  // CH B crashes; deputy 5 takes over
  tc.run_epochs(2);
  // The A-side link now targets the new CH of B.
  EXPECT_EQ(tc.ptrs[7]->cluster()->links.front().neighbor_clusterhead,
            NodeId{5});
  // A later failure in A still reaches cluster B via the new CH.
  tc.network->crash(NodeId{3});
  tc.run_epochs(3);
  EXPECT_TRUE(tc.fds->agent_for(NodeId{5}).log().knows(NodeId{3}));
}

TEST(Forwarder, ExplicitAckModeCostsExtraFrames) {
  ForwarderConfig explicit_config;
  explicit_config.ack_mode = AckMode::kExplicit;
  TwoClusters tc(std::make_unique<PerfectLinks>(), explicit_config);
  tc.network->crash(NodeId{4});
  tc.run_epochs(2);
  // One forward-ack (GW -> CH A) plus one receipt-ack (CH B -> GW).
  EXPECT_EQ(tc.forwarder->stats().explicit_acks, 2u);
  EXPECT_TRUE(tc.fds->agent_for(NodeId{1}).log().knows(NodeId{4}));
}

TEST(Forwarder, AggregatedReportsCarryHistory) {
  // First failure propagates; then a second one — its report also carries
  // the first NID, so a cluster that somehow missed report #1 catches up.
  TwoClusters tc(std::make_unique<PerfectLinks>());
  tc.network->crash(NodeId{4});
  tc.run_epochs(1);
  tc.network->crash(NodeId{3});
  tc.run_epochs(2);
  FdsAgent& ch_b = tc.fds->agent_for(NodeId{1});
  EXPECT_TRUE(ch_b.log().knows(NodeId{4}));
  EXPECT_TRUE(ch_b.log().knows(NodeId{3}));
}

/// Three clusters in a line: A - B - C; news from A must reach C via B.
TEST(Forwarder, MultiHopPropagation) {
  NetworkConfig net_config;
  net_config.seed = 23;
  Network network(net_config, std::make_unique<PerfectLinks>());
  network.add_node({0.0, 0.0});     // 0: CH A
  network.add_node({160.0, 0.0});   // 1: CH B
  network.add_node({320.0, 0.0});   // 2: CH C
  network.add_node({20.0, 20.0});   // 3: A member (victim)
  network.add_node({80.0, 0.0});    // 4: GW A-B
  network.add_node({240.0, 0.0});   // 5: GW B-C, member of B
  network.add_node({150.0, 20.0});  // 6: B member
  network.add_node({310.0, 20.0});  // 7: C member

  ClusterView a;
  a.id = ClusterId{0};
  a.clusterhead = NodeId{0};
  a.members = {NodeId{3}, NodeId{4}};
  ClusterView b;
  b.id = ClusterId{1};
  b.clusterhead = NodeId{1};
  b.members = {NodeId{5}, NodeId{6}};
  ClusterView c;
  c.id = ClusterId{2};
  c.clusterhead = NodeId{2};
  c.members = {NodeId{7}};

  auto link = [](const ClusterView& to, NodeId gw) {
    GatewayLink l;
    l.neighbor_cluster = to.id;
    l.neighbor_clusterhead = to.clusterhead;
    l.gateway = gw;
    return l;
  };
  a.links.push_back(link(b, NodeId{4}));
  b.links.push_back(link(a, NodeId{4}));
  b.links.push_back(link(c, NodeId{5}));
  c.links.push_back(link(b, NodeId{5}));

  std::vector<std::unique_ptr<MembershipView>> views;
  std::vector<MembershipView*> ptrs;
  for (std::uint32_t i = 0; i < 8; ++i) {
    views.push_back(std::make_unique<MembershipView>(NodeId{i}));
    ptrs.push_back(views.back().get());
  }
  for (const ClusterView* cv : {&a, &b, &c}) {
    ptrs[cv->clusterhead.value()]->set_cluster(*cv);
    network.node(cv->clusterhead).set_marked(true);
    for (NodeId m : cv->members) {
      ptrs[m.value()]->set_cluster(*cv);
      network.node(m).set_marked(true);
    }
  }

  FdsConfig fds_config;
  fds_config.heartbeat_interval = SimTime::seconds(3);
  FdsService fds(network, ptrs, fds_config);
  ForwarderService forwarder(network, fds, ptrs, ForwarderConfig{});

  network.crash(NodeId{3});
  fds.schedule_epoch(0, SimTime::zero());
  network.simulator().run_until(SimTime::seconds(3));

  EXPECT_TRUE(fds.agent_for(NodeId{2}).log().knows(NodeId{3}));
  EXPECT_TRUE(fds.agent_for(NodeId{7}).log().knows(NodeId{3}));
  EXPECT_EQ(forwarder.stats().reports_forwarded, 2u);  // A->B and B->C
}

/// A ForwarderAgent stands alone, as an FdsAgent does: a network node as
/// its transport, the simulator as its timer service, Thop, and a local
/// config and stats sink; no ForwarderService anywhere.
TEST(ForwarderAgent, ForwardsAnUpdateWithoutAService) {
  NetworkConfig net_config;
  net_config.seed = 5;
  Network network(net_config, std::make_unique<PerfectLinks>());
  Node& ch_a = network.add_node({0.0, 0.0});    // 0: CH A
  Node& ch_b = network.add_node({160.0, 0.0});  // 1: CH B
  Node& gw = network.add_node({80.0, 0.0});     // 2: A's GW, hears both

  ClusterView a;
  a.id = ClusterId{0};
  a.clusterhead = NodeId{0};
  a.members = {NodeId{2}};
  GatewayLink ab;
  ab.neighbor_cluster = ClusterId{1};
  ab.neighbor_clusterhead = NodeId{1};
  ab.gateway = NodeId{2};
  a.links.push_back(ab);
  MembershipView view(NodeId{2});
  view.set_cluster(a);
  gw.set_marked(true);

  Simulator& sim = network.simulator();
  const SimTime t_hop = network.channel().config().t_hop;
  const FdsConfig fds_config;
  FdsHooks hooks;
  FdsAgent fds(gw, view, gw, sim, t_hop, fds_config, hooks);
  const ForwarderConfig config;
  ForwarderStats stats;
  ForwarderAgent agent(gw, view, fds, gw, sim, t_hop, config, stats);

  std::vector<Reception> reports;  // what CH B hears
  ch_b.add_frame_handler(
      [](void* ctx, const Reception& reception) {
        if (payload_cast<FailureReportPayload>(reception.payload)) {
          static_cast<std::vector<Reception>*>(ctx)->push_back(reception);
        }
      },
      &reports);

  auto update = std::make_shared<HealthUpdatePayload>();
  update->cluster = ClusterId{0};
  update->sender = NodeId{0};
  update->newly_failed = {NodeId{7}};
  update->report = ReportId{42};
  ch_a.send(update);
  sim.run_until(SimTime::seconds(1));

  // CH B runs no agent, so no implicit acknowledgement ever comes: the GW
  // forwards once and re-forwards kMaxGwRetries times, 2 * Thop apart.
  EXPECT_EQ(stats.reports_forwarded, 1u);
  EXPECT_EQ(stats.gw_retries, std::uint64_t(kMaxGwRetries));
  ASSERT_EQ(reports.size(), std::size_t(1 + kMaxGwRetries));
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const auto* report = payload_cast<FailureReportPayload>(reports[i].payload);
    EXPECT_EQ(reports[i].sender, NodeId{2});
    EXPECT_EQ(reports[i].intended, NodeId{1});
    EXPECT_EQ(report->report, ReportId{42});
    EXPECT_EQ(report->from_cluster, ClusterId{0});
    EXPECT_EQ(report->to_ch, NodeId{1});
    EXPECT_EQ(report->failed, std::vector<NodeId>{NodeId{7}});
    if (i > 0) {
      EXPECT_EQ(reports[i].sent_at - reports[i - 1].sent_at, 2 * t_hop);
    }
  }
}

}  // namespace
}  // namespace cfds
