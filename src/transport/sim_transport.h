// Simulation adapters for the transport/clock seam.
//
// SimTransport forwards straight to the node's Radio (and the node's frame
// dispatch table for receive registration); SimTimerService forwards to the
// discrete-event Simulator. Every method is a one-line delegation compiled
// in-line, so routing the protocol agents through these adapters leaves the
// simulated path's behaviour — RNG draw order, event sequence numbers,
// energy accounting — byte-identical to the pre-abstraction direct calls
// (verified against committed fig5/6/7 JSONL goldens).

#pragma once

#include <utility>

#include "event/simulator.h"
#include "net/node.h"
#include "transport/transport.h"

namespace cfds {

/// Transport over the simulated broadcast channel: one per node, owned by
/// the Network and shared by every layer on the node. Receive registration
/// lands in the node's ordered handler table, so layer dispatch order is
/// exactly what direct Node::add_frame_handler calls gave.
class SimTransport final : public Transport {
 public:
  explicit SimTransport(Node& node) : node_(node) {}

  void send(PayloadPtr payload, NodeId intended) override {
    node_.radio().send(std::move(payload), intended);
  }

  void add_receive_handler(RawReceiveHandler handler, void* ctx) override {
    node_.add_frame_handler(handler, ctx);
  }

  void set_powered(bool on) override { node_.radio().set_powered(on); }
  [[nodiscard]] bool powered() const override {
    return node_.radio().powered();
  }

 private:
  Node& node_;
};

/// TimerService over the discrete-event kernel. Handles and actions are the
/// simulator's own types, so this adapter adds nothing but the virtual hop.
class SimTimerService final : public TimerService {
 public:
  explicit SimTimerService(Simulator& sim) : sim_(sim) {}

  [[nodiscard]] SimTime now() const override { return sim_.now(); }

  TimerHandle schedule_at(SimTime when, EventFn action) override {
    return sim_.schedule_at(when, std::move(action));
  }

  TimerHandle schedule_after(SimTime delay, EventFn action) override {
    return sim_.schedule_after(delay, std::move(action));
  }

 private:
  Simulator& sim_;
};

}  // namespace cfds
