// SWIM-style failure detector baseline (Das, Gupta & Motivala, DSN 2002),
// adapted to a broadcast wireless medium.
//
// SWIM replaced all-to-all heartbeating in datacenter overlays with
// randomized ping / ping-req probing and infection-style dissemination. It
// postdates heartbeat-diffusion designs like the paper's and is the natural
// modern comparator. A faithful port to multihop ad hoc radio must restrict
// probe targets to one-hop neighbours (there is no routable overlay), which
// is the same adaptation the paper's reference [6] studies:
//
//   * each protocol period, every node pings one random one-hop neighbour
//     it believes alive; the target acks;
//   * on ack timeout, the node asks k other neighbours to ping the target
//     on its behalf (ping-req); any relayed ack clears the suspicion;
//   * a target that stays silent becomes *suspected*; after
//     `kSuspicionPeriods` with no sign of life it is declared failed;
//   * declared failures ride subsequent pings/acks as piggyback, spreading
//     infection-style.
//
// The CFDS paper's bet is that in a dense broadcast medium, *overhearing*
// (digests) buys far more evidence per frame than SWIM's point-to-point
// probes; the baseline bench quantifies exactly that.

#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "common/ids.h"
#include "common/rng.h"
#include "common/sim_time.h"
#include "net/network.h"
#include "radio/payload.h"

namespace cfds {

/// The probing constants (ack timeout, indirect helpers, suspicion periods,
/// piggyback limit) are fixed in swim.cpp; only the period varies.
struct SwimConfig {
  /// Protocol period T' (one probe per node per period).
  SimTime period = SimTime::seconds(1);
};

struct SwimPingPayload final : Payload {
  static constexpr PayloadKind kTag = PayloadKind::kSwimPing;
  static constexpr bool matches(PayloadKind k) { return k == kTag; }
  SwimPingPayload() : Payload(kTag) {}

  NodeId origin;
  NodeId target;
  std::uint64_t sequence = 0;
  /// Indirect probe: set when pinging on behalf of `requester`.
  NodeId requester;
  std::vector<NodeId> dead_piggyback;

  [[nodiscard]] std::string_view kind() const override { return "swim-ping"; }
  [[nodiscard]] std::size_t size_bytes() const override {
    return 17 + 4 * dead_piggyback.size();
  }
};

struct SwimAckPayload final : Payload {
  static constexpr PayloadKind kTag = PayloadKind::kSwimAck;
  static constexpr bool matches(PayloadKind k) { return k == kTag; }
  SwimAckPayload() : Payload(kTag) {}

  NodeId origin;  ///< the acking node
  NodeId target;  ///< who the ack is for (the pinger or the requester)
  std::uint64_t sequence = 0;
  std::vector<NodeId> dead_piggyback;

  [[nodiscard]] std::string_view kind() const override { return "swim-ack"; }
  [[nodiscard]] std::size_t size_bytes() const override {
    return 13 + 4 * dead_piggyback.size();
  }
};

struct SwimPingReqPayload final : Payload {
  static constexpr PayloadKind kTag = PayloadKind::kSwimPingReq;
  static constexpr bool matches(PayloadKind k) { return k == kTag; }
  SwimPingReqPayload() : Payload(kTag) {}

  NodeId origin;  ///< the suspicious node
  NodeId helper;  ///< neighbour asked to probe
  NodeId target;  ///< the silent node
  std::uint64_t sequence = 0;

  [[nodiscard]] std::string_view kind() const override { return "swim-preq"; }
  [[nodiscard]] std::size_t size_bytes() const override { return 17; }
};

class SwimService;

class SwimAgent {
 public:
  SwimAgent(Node& node, SwimService& service, Rng rng);

  [[nodiscard]] NodeId id() const { return node_.id(); }

  /// Runs one protocol period: probe a random live neighbour.
  void period();

  /// Nodes this agent has declared failed.
  [[nodiscard]] const std::set<NodeId>& declared_failed() const {
    return declared_failed_;
  }
  [[nodiscard]] bool considers_failed(NodeId v) const {
    return declared_failed_.contains(v);
  }
  /// Declarations of nodes that were actually alive at declaration time
  /// (filled by the service's ground-truth check).
  [[nodiscard]] std::uint64_t false_declarations() const {
    return false_declarations_;
  }

 private:
  friend class SwimService;

  void on_frame(const Reception& reception);
  void note_alive(NodeId n);
  void declare(NodeId n);
  void absorb_piggyback(const std::vector<NodeId>& dead);
  [[nodiscard]] std::vector<NodeId> piggyback();
  void send_ping(NodeId target, NodeId requester);

  Node& node_;
  SwimService& service_;
  Rng rng_;

  std::uint64_t next_sequence_ = 0;
  /// Known one-hop neighbours (learned from any overheard frame).
  std::set<NodeId> neighbors_;
  /// Suspected nodes -> periods remaining before declaration.
  std::map<NodeId, std::uint32_t> suspicion_;
  std::set<NodeId> declared_failed_;
  std::uint64_t false_declarations_ = 0;

  /// The probe in flight this period, if any.
  NodeId probing_ = NodeId::invalid();
  std::uint64_t probing_sequence_ = 0;
  bool got_ack_ = false;
};

class SwimService {
 public:
  SwimService(Network& network, SwimConfig config);

  [[nodiscard]] std::vector<SwimAgent*> agents();
  [[nodiscard]] SwimAgent& agent_for(NodeId id);
  [[nodiscard]] Network& network() { return network_; }

  /// Schedules `count` protocol periods from `start` and runs past them.
  SimTime run_periods(std::uint64_t count, SimTime start);

  /// Fraction of alive agents that have declared `victim` failed.
  [[nodiscard]] double declaration_coverage(NodeId victim);

 private:
  Network& network_;
  SwimConfig config_;
  std::vector<std::unique_ptr<SwimAgent>> agents_;
};

}  // namespace cfds
