// In-process loopback transport: threads instead of processes.
//
// One LoopbackNet is the shared broadcast medium; each agent thread owns one
// LoopbackTransport endpoint. send() serializes the payload once (the wire
// codec keeps the bytes honest — loopback exercises the same encoding UDP
// does) and appends the frame to every other endpoint's inbox; each owning
// thread alternates wait()/drain() with its RealTimeScheduler's run_due(),
// the same loop shape cfds_serve runs around a UDP socket.
//
// Threading contract (checked by tools/check_tsan.sh):
//   * send / set_powered / drain / wait — owning thread only;
//   * an endpoint's inbox is touched under its own mutex, so concurrent
//     senders and the draining owner never race;
//   * the endpoint set is fixed at LoopbackNet construction (no registry
//     locking on the frame path).

#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <vector>

#include "common/ids.h"
#include "common/sim_time.h"
#include "transport/transport.h"

namespace cfds {

class LoopbackTransport;

/// The shared medium: one inbox of serialized frames per endpoint.
class LoopbackNet {
 public:
  /// Creates one endpoint per id. The set is immutable afterwards.
  explicit LoopbackNet(const std::vector<NodeId>& ids);

  LoopbackNet(const LoopbackNet&) = delete;
  LoopbackNet& operator=(const LoopbackNet&) = delete;

  [[nodiscard]] std::size_t endpoint_count() const {
    return endpoints_.size();
  }

 private:
  friend class LoopbackTransport;

  struct Endpoint {
    NodeId id;
    std::mutex mu;
    std::condition_variable cv;
    /// Serialized frames awaiting the owner's drain(). Guarded by mu.
    std::deque<std::vector<std::uint8_t>> inbox;
    /// Radio power state; an unpowered endpoint receives nothing. Guarded
    /// by mu (read by senders, written by the owner).
    bool powered = true;
  };

  /// nullptr when `id` has no endpoint.
  [[nodiscard]] Endpoint* endpoint(NodeId id);

  std::vector<std::unique_ptr<Endpoint>> endpoints_;
};

/// One node's attachment to the loopback medium.
class LoopbackTransport final : public Transport {
 public:
  /// `net` must outlive the transport and already contain an endpoint for
  /// `self`.
  LoopbackTransport(LoopbackNet& net, NodeId self);

  // --- Transport (owning thread) ---------------------------------------
  void send(PayloadPtr payload, NodeId intended) override;
  void add_frame_handler(RawFrameHandler handler, void* ctx) override;
  void set_powered(bool on) override;
  [[nodiscard]] bool powered() const override;

  // --- Receive side (owning thread) ------------------------------------
  /// Sleeps until a frame is queued or `max_wait` elapses. Returns true
  /// when the inbox is non-empty.
  bool wait(SimTime max_wait);

  /// Decodes and dispatches every queued frame; receptions are stamped
  /// with `now` (the owner's clock reading). Malformed frames and frames
  /// queued before a power-down are discarded. Returns frames dispatched.
  std::size_t drain(SimTime now);

  [[nodiscard]] NodeId id() const { return self_.id; }

 private:
  static constexpr std::size_t kMaxHandlers = 6;

  LoopbackNet& net_;
  LoopbackNet::Endpoint& self_;

  struct Handler {
    RawFrameHandler fn = nullptr;
    void* ctx = nullptr;
  };
  Handler handlers_[kMaxHandlers];
  std::size_t handler_count_ = 0;

  /// Send-side encode buffer (owning thread only).
  std::vector<std::uint8_t> scratch_;
  /// Drain-side swap buffer (owning thread only): frames are moved out of
  /// the inbox under the lock, decoded and dispatched outside it.
  std::vector<std::vector<std::uint8_t>> pending_;
};

}  // namespace cfds
