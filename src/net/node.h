// Node runtime.
//
// A node hosts a radio plus any number of protocol layers (cluster formation,
// the FDS, inter-cluster forwarding, baselines). The node fans incoming
// frames out to every registered layer, tracks crash state, and accounts
// radio energy — peer-forwarding waiting periods (Section 4.2, "Energy
// Considerations") are a function of remaining energy.
//
// Beyond the paper's fail-stop model the node supports crash-RECOVERY: a
// crashed node may be brought back with recover(), which bumps its
// incarnation number (the SWIM-style counter that lets the rest of the
// network distinguish "this node resurrected" from "a stale failure record")
// and notifies every registered lifecycle handler so protocol layers can
// cancel timers on crash and reset volatile state on recovery.

#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/geometry.h"
#include "common/ids.h"
#include "net/node_store.h"
#include "radio/channel.h"
#include "transport/transport.h"

namespace cfds {

/// A host in the ad hoc network. A thin view over the world's NodeStore:
/// the node's state (liveness, marking, incarnation) lives in the store's
/// dense arrays, next to the world's energy budget; the Node itself carries
/// only the radio view and the per-node handler tables. The energy model and RadioCounters are
/// defined in net/node_store.h alongside the arrays they meter.
///
/// The node is also its protocol layers' Transport: send and power go to
/// its Radio, and every registered frame handler hears every frame the
/// radio hears. Final, so calls through a Node& bind directly.
class Node final : public Transport {
 public:
  /// Appends a fresh slot to `store` and wraps it. For network-owned nodes
  /// the slot equals id.value(); standalone hosts may use any id.
  Node(NodeStore& store, NodeId id, Vec2 position);

  [[nodiscard]] NodeId id() const { return radio_.id(); }
  [[nodiscard]] Vec2 position() const { return radio_.position(); }

  [[nodiscard]] Radio& radio() { return radio_; }
  [[nodiscard]] const Radio& radio() const { return radio_; }

  void send(PayloadPtr payload, NodeId intended = NodeId::invalid()) override {
    radio_.send(std::move(payload), intended);
  }

  /// Registers a protocol layer's frame handler: one predictable indirect
  /// call per frame. Handlers run in registration order for every frame
  /// the radio hears.
  void add_frame_handler(RawFrameHandler handler, void* ctx) override;

  void set_powered(bool on) override { radio_.set_powered(on); }
  [[nodiscard]] bool powered() const override { return radio_.powered(); }

  /// Invoked with `true` on recover() and `false` on crash(), in
  /// registration order. Protocol layers use the crash edge to cancel
  /// pending timers (a dead node must never fire a round callback) and the
  /// recovery edge to discard stale volatile state.
  using LifecycleHandler = std::function<void(bool alive)>;
  void add_lifecycle_handler(LifecycleHandler handler);

  /// Crash: the node stops sending and receiving. Fail-stop unless a later
  /// recover() call resurrects it. Idempotent.
  void crash();

  /// Crash-recovery: restarts a crashed node with volatile state lost. The
  /// incarnation counter is bumped so the node's future heartbeats prove it
  /// outlived any recorded failure. No-op on a live node.
  void recover();

  [[nodiscard]] bool alive() const { return store_->alive(slot_); }

  /// Number of times this node has recovered from a crash. Carried in
  /// heartbeats; a heartbeat with an incarnation newer than a failure-log
  /// entry refutes that entry.
  [[nodiscard]] std::uint32_t incarnation() const {
    return store_->incarnation(slot_);
  }

  /// Remaining radio energy in microjoules (never negative).
  [[nodiscard]] double remaining_energy_uj() const;
  [[nodiscard]] double initial_energy_uj() const {
    return store_->initial_energy_uj();
  }

  /// Marked nodes have been admitted to a cluster (paper footnote 2).
  /// Maintained by the clustering layer; read by the FDS heartbeats.
  [[nodiscard]] bool marked() const { return store_->marked(slot_); }
  void set_marked(bool m) { store_->set_marked(slot_, m); }

 private:
  void dispatch(const Reception& reception);

  NodeStore* store_;
  std::uint32_t slot_;
  Radio radio_;
  /// One registered frame handler: raw callback plus opaque context.
  struct HandlerRef {
    RawFrameHandler fn;
    void* ctx;
  };
  /// Every protocol stack registers a handful of layers, so the handler
  /// table lives inline in the node — the per-delivery dispatch loop walks
  /// memory the delivery already touched instead of chasing a separate heap
  /// buffer. The overflow vector keeps registration unbounded (tests).
  static constexpr std::size_t kInlineHandlers = 6;
  /// All frame handlers in registration order: the first kInlineHandlers
  /// live in inline_handlers_, the rest in overflow_handlers_.
  std::array<HandlerRef, kInlineHandlers> inline_handlers_{};
  std::uint32_t handler_count_ = 0;
  std::vector<HandlerRef> overflow_handlers_;
  std::vector<LifecycleHandler> lifecycle_handlers_;
};

}  // namespace cfds
