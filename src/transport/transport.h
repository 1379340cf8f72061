// Transport and clock abstraction: the seam between the protocol agents
// and whatever carries their frames and fires their timers.
//
// The paper describes CFDS as a *service* for ad hoc network applications;
// the protocol core (FdsAgent, FormationAgent, ForwarderAgent) must not
// care whether it runs inside the discrete-event simulator or as a real
// process. These two interfaces are that seam:
//
//   Transport     async send/receive of FDS payloads with per-peer
//                 addressing and broadcast (intended = NodeId::invalid()),
//                 promiscuous delivery included — every implementation
//                 hands overheard frames to the handlers too, because the
//                 protocol's redundancy argument (Section 4) depends on it.
//   TimerService  the protocol's only clock and timer source, declared with
//                 Clock next to the kernel in src/event/simulator.h.
//
// Implementations:
//   Node                  the simulated host itself: send and power go to
//                         its Radio on the simulated Channel, handlers join
//                         its frame dispatch table (src/net/node.h)
//   Simulator             the discrete-event kernel is the simulation's
//                         TimerService (src/event/simulator.h)
//   LoopbackTransport     in-process queues between threads
//                         (src/transport/loopback.h)
//   UdpTransport          nonblocking UDP sockets on loopback
//                         (src/transport/udp.h)
//   RealTimeScheduler     TimerService over the monotonic clock, embedding
//                         a Simulator as its timer wheel
//                         (src/transport/real_time.h)
//   FilteredTransport     fault-injection decorator applying a DropFilter +
//                         seeded loss to any inner transport
//                         (src/transport/filtered_transport.h)
//   CheckTransport /      the model checker's in-flight pool and tracked
//   CheckTimerService     timers (src/check/world.h)

#pragma once

#include "common/ids.h"
#include "transport/reception.h"

namespace cfds {

/// Carries frames between agents. Handlers fire on every frame the local
/// endpoint hears — addressed or overheard — in registration order.
class Transport {
 public:
  /// Per-delivery handler: a raw function pointer plus an opaque context,
  /// the same trampoline in simulation and in service mode.
  using RawFrameHandler = void (*)(void* ctx, const Reception& reception);

  virtual ~Transport() = default;

  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  /// Emits a frame. `intended` marks the addressed recipient
  /// (invalid() = broadcast); it does not restrict who hears the frame,
  /// only what receivers see in Reception::intended.
  virtual void send(PayloadPtr payload, NodeId intended = NodeId::invalid()) = 0;

  /// Registers a receive handler. Handlers are permanent (agents live as
  /// long as their transport) and fire in registration order.
  virtual void add_frame_handler(RawFrameHandler handler, void* ctx) = 0;

  /// A powered-off endpoint neither sends nor receives (fail-stop crash,
  /// sleep mode). Mirrors Radio::set_powered.
  virtual void set_powered(bool on) = 0;
  [[nodiscard]] virtual bool powered() const = 0;

 protected:
  Transport() = default;
};

}  // namespace cfds
