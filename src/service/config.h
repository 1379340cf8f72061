// Service-mode deployment parameters.
//
// Service mode runs the FDS against real time over a real transport (UDP
// loopback across processes, or in-process loopback queues across threads).
// The deployment is a single broadcast domain — every endpoint hears every
// frame, the degenerate dense case of the paper's radio model — and the
// cluster organization is installed from a directory (src/service/
// directory.h) instead of being negotiated by the formation protocol, so
// every process derives the identical organization without a handshake.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/sim_time.h"

namespace cfds {
class FlagSet;
}  // namespace cfds

namespace cfds::service {

struct ServiceConfig {
  /// Deployment size; NIDs are 0 .. node_count-1.
  std::uint32_t node_count = 16;
  /// Directory clustering: contiguous NID blocks of this size (the last
  /// block absorbs the remainder). CH = lowest NID of the block.
  std::uint32_t cluster_size = 8;

  /// One-hop bound Thop, real time. The FDS round offsets (T, T+Thop, ...,
  /// T+4Thop) and the phi >= 7*Thop constraint carry over unchanged.
  SimTime t_hop = SimTime::millis(50);
  /// Heartbeat interval phi.
  SimTime phi = SimTime::millis(500);

  /// FDS executions to run; the daemon exits after the last one.
  std::uint64_t epochs = 10;
  /// Executions before the fault plan's anchor: fault event at_us = 0 fires
  /// at the start of epoch `warmup_epochs`.
  std::uint64_t warmup_epochs = 2;

  /// Seed for per-endpoint Bernoulli loss streams (combined with the NID,
  /// so endpoints draw independently).
  std::uint64_t seed = 1;
  /// Independent per-frame receive loss probability.
  double loss_p = 0.0;

  /// Self-tuning (accrual) detection — see FdsConfig::adaptive_enabled.
  bool adaptive = false;
  /// Checkpointed CH/DCH recovery — see FdsConfig::checkpoint_enabled.
  bool checkpoint = false;

  [[nodiscard]] std::uint32_t cluster_count() const {
    if (node_count == 0 || cluster_size == 0) return 0;
    return (node_count + cluster_size - 1) / cluster_size;
  }

  bool operator==(const ServiceConfig&) const = default;
};

/// Registers the flags every service tool (cfds_serve, soak_harness) takes:
/// one per ServiceConfig field, plus --port-base, the UDP port of NID 0.
void add_service_flags(FlagSet& flags, ServiceConfig& config,
                       std::uint16_t& port_base);

/// The arguments that add_service_flags reads back as exactly `config` and
/// `port_base`: soak_harness --mode procs starts each cfds_serve with them.
[[nodiscard]] std::vector<std::string> service_argv(const ServiceConfig& config,
                                                    std::uint16_t port_base);

}  // namespace cfds::service
