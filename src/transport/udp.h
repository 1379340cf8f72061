// UDP-loopback transport (service mode, multi-process).
//
// Every agent process binds one nonblocking datagram socket on
// 127.0.0.1:(port_base + NID). A broadcast is a unicast fan-out: the frame
// is serialized once and sent to every peer port — on the loopback device
// this is the closest cheap analogue of a shared radio medium, and it
// preserves the promiscuous overhearing the protocol depends on (every
// process sees every frame, `intended` in the wire header distinguishes
// addressed traffic).
//
// The owning process's event loop is:
//
//   while (running) {
//     transport.wait(scheduler-bounded timeout);   // poll() on the socket
//     transport.drain(scheduler.now());            // recvfrom until empty
//     scheduler.run_due();
//   }
//
// This file (and the rest of src/transport/) is the only place in src/
// allowed to touch sockets or poll — the cfds-lint `raw-socket` rule
// enforces the boundary.

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/ids.h"
#include "common/sim_time.h"
#include "transport/transport.h"

namespace cfds {

/// One process's attachment to the UDP-loopback medium. Single-threaded:
/// all methods are owning-thread only.
class UdpTransport final : public Transport {
 public:
  /// Binds 127.0.0.1:(port_base + self). Peers are the other NIDs in
  /// [0, n_nodes) at their corresponding ports. Throws std::runtime_error
  /// if the socket cannot be created or bound (port collision is the one
  /// failure a soak run must surface loudly).
  UdpTransport(NodeId self, std::uint16_t port_base, std::uint32_t n_nodes);
  ~UdpTransport() override;

  // --- Transport --------------------------------------------------------
  void send(PayloadPtr payload, NodeId intended) override;
  void add_frame_handler(RawFrameHandler handler, void* ctx) override;
  void set_powered(bool on) override;
  [[nodiscard]] bool powered() const override { return powered_; }

  // --- Receive side -----------------------------------------------------
  /// Blocks up to `max_wait` for the socket to become readable. Returns
  /// true when data is waiting.
  bool wait(SimTime max_wait);

  /// Receives until the socket is empty, decoding and dispatching each
  /// frame stamped with `now`. Malformed datagrams are dropped silently
  /// (the port is open to the host). While unpowered, datagrams are read
  /// and discarded so the kernel buffer cannot fill with stale frames.
  std::size_t drain(SimTime now);

  [[nodiscard]] NodeId id() const { return self_; }
  [[nodiscard]] int fd() const { return fd_; }

 private:
  static constexpr std::size_t kMaxHandlers = 6;

  NodeId self_;
  int fd_ = -1;
  bool powered_ = true;

  struct Handler {
    RawFrameHandler fn = nullptr;
    void* ctx = nullptr;
  };
  Handler handlers_[kMaxHandlers];
  std::size_t handler_count_ = 0;

  /// Destination addresses of every peer, opaque to keep <netinet/in.h>
  /// out of this header (each entry holds a sockaddr_in).
  struct PeerAddr;
  std::vector<PeerAddr> peers_;

  std::vector<std::uint8_t> scratch_;  ///< send-side encode buffer
};

}  // namespace cfds
