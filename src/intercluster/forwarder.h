// Inter-cluster failure-report forwarding (Section 4.3).
//
// When a CH emits a health-status update carrying news (a valid report id),
// the report must cross the backbone to every cluster. Per gateway link
// between clusters A and B:
//
//   GW (rank 0)    forwards the update as a FailureReport to the other CH
//                  immediately, then listens (n+1)*2*Thop for the implicit
//                  acknowledgement — an emission by the destination CH whose
//                  `acks` list names the report — and re-forwards on silence;
//   BGW (rank k)   arms a timer k*2*Thop on overhearing the update; if no
//                  implicit ack has been overheard by expiry it forwards the
//                  report itself, then waits (n+1)*2*Thop and releases on ack;
//   sending CH     watches 2*Thop for *some* forward of its report on each
//                  link (the forward doubles as the GW-side implicit ack of
//                  Figure 3) and retransmits the update, addressed to the
//                  link's GW, on silence.
//
// A destination CH that receives a report answers by emitting a relay update
// (FdsAgent::broadcast_relay): if the report carried news the relay informs
// the local cluster and — carrying a fresh report id — triggers further
// forwarding on the CH's other links; either way its `acks` list names the
// incoming report, closing the loop without a dedicated acknowledgement
// frame. Relays record the cluster they learned from, and gateways on that
// link suppress forwarding straight back (flood damping).

#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "cluster/membership.h"
#include "common/flat.h"
#include "common/ids.h"
#include "event/simulator.h"
#include "fds/agent.h"
#include "intercluster/messages.h"
#include "net/network.h"
#include "transport/transport.h"

namespace cfds {

/// Acknowledgement scheme. kImplicit is the paper's contribution;
/// kExplicit is the two-acknowledgements-per-hop strawman it replaces
/// ("which is not acceptable due to energy limitations").
enum class AckMode { kImplicit, kExplicit };

/// Re-sends of the update by the CH toward an unresponsive gateway.
inline constexpr int kMaxChRetransmits = 2;
/// Re-forwards by a GW/BGW that never hears the implicit acknowledgement.
inline constexpr int kMaxGwRetries = 2;

struct ForwarderConfig {
  /// Backup-gateway assistance (ablation knob).
  bool bgw_assist = true;
  AckMode ack_mode = AckMode::kImplicit;
};

/// Aggregate traffic counters for the forwarding layer.
struct ForwarderStats {
  std::uint64_t reports_forwarded = 0;   ///< GW first attempts
  std::uint64_t gw_retries = 0;          ///< re-forwards after ack silence
  std::uint64_t bgw_assists = 0;         ///< forwards performed by BGWs
  std::uint64_t ch_retransmissions = 0;  ///< update re-sends by the CH
  std::uint64_t reports_received = 0;    ///< reports accepted by a CH
  std::uint64_t explicit_acks = 0;       ///< kExplicit mode only
};

/// Per-node participant in inter-cluster forwarding. Only nodes whose
/// current view gives them a CH, GW, or BGW role ever act.
class ForwarderAgent {
 public:
  /// Built the way FdsAgent is: frames flow only through `transport` and
  /// timers only through `timers`, acknowledgement watches are multiples of
  /// `t_hop`, and `node` supplies identity and liveness. `config` and
  /// `stats` are the layer's, shared by every agent.
  ForwarderAgent(Node& node, MembershipView& view, FdsAgent& fds,
                 Transport& transport, TimerService& timers, SimTime t_hop,
                 const ForwarderConfig& config, ForwarderStats& stats);

  [[nodiscard]] NodeId id() const { return node_.id(); }

  /// Invoked (via FdsHooks) when this node, as CH, emits an update.
  void on_own_update_sent(
      const std::shared_ptr<const HealthUpdatePayload>& update);

 private:
  void on_frame(const Reception& reception);
  void on_update_overheard(
      const std::shared_ptr<const HealthUpdatePayload>& update);
  void on_report(const FailureReportPayload& report);

  /// Considers acting on an update emitted by the cluster on one side of
  /// `link`, with this node holding `rank` on the link; `dest_cluster` /
  /// `dest_ch` name the other side.
  void consider_link(const std::shared_ptr<const HealthUpdatePayload>& update,
                     std::size_t rank, std::size_t n_backups,
                     ClusterId dest_cluster, NodeId dest_ch);

  /// Sends the report for `update` toward `dest_ch` and arms the ack watch.
  void forward_across(const std::shared_ptr<const HealthUpdatePayload>& update,
                      ClusterId dest_cluster, NodeId dest_ch,
                      std::size_t my_rank, std::size_t n_backups,
                      int attempts_left);
  void arm_ch_watch(const std::shared_ptr<const HealthUpdatePayload>& update,
                    ClusterId dest_cluster, int attempts_left);

  [[nodiscard]] bool acked(ReportId report, ClusterId by) const;

  Node& node_;
  MembershipView& view_;
  FdsAgent& fds_;
  Transport& transport_;
  TimerService& timers_;
  SimTime t_hop_;
  const ForwarderConfig& config_;
  ForwarderStats& stats_;

  // Membership queries only: no iteration order can reach a frame or event.
  /// (report, acking cluster) pairs collected from overheard emissions,
  /// whether or not this node ever armed for the report.
  FlatSet<std::pair<ReportId, ClusterId>> acks_seen_;
  /// (report, destination cluster) pairs for which some forward was seen —
  /// the CH-side implicit acknowledgement of Figure 3.
  FlatSet<std::pair<ReportId, ClusterId>> forwards_seen_;
  /// Reports this node already forwarded per destination (dedup for BGWs
  /// triggered by both the update and a retransmission).
  FlatSet<std::pair<ReportId, ClusterId>> armed_;
};

/// Owns the per-node forwarder agents, the layer's config and its counters.
class ForwarderService {
 public:
  /// Wires itself into `fds.hooks().on_update_sent` (chaining any hook that
  /// was installed before). `views` is indexed by NID value, as in FdsService.
  ForwarderService(Network& network, FdsService& fds,
                   std::vector<MembershipView*> views, ForwarderConfig config);

  /// Wires a node added after construction (must already have an FdsAgent).
  void adopt_node(Node& node, MembershipView& view, FdsAgent& fds);

  [[nodiscard]] const ForwarderStats& stats() const { return stats_; }
  [[nodiscard]] ForwarderStats& stats() { return stats_; }
  [[nodiscard]] const ForwarderConfig& config() const { return config_; }

 private:
  void install_hook(FdsService& fds);

  Network& network_;
  ForwarderConfig config_;
  ForwarderStats stats_;
  std::vector<std::unique_ptr<ForwarderAgent>> agents_;
};

}  // namespace cfds
