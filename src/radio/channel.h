// Broadcast wireless channel with promiscuous delivery.
//
// Models the paper's medium (Sections 2.2-2.3): unit-disk connectivity with a
// common transmission range R; every frame a node emits is heard by each
// in-range, powered-on neighbour independently with probability 1-p
// (promiscuous receiving mode — "send" and "broadcast" coincide); frames are
// delivered within the one-hop bound Thop; frames are never created or
// altered in flight, only dropped. Collisions are not modelled (masked by
// CSMA per the paper's footnote 4).

#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/flat.h"
#include "common/geometry.h"
#include "common/ids.h"
#include "common/rng.h"
#include "common/sim_time.h"
#include "event/simulator.h"
#include "net/node_store.h"
#include "radio/loss_model.h"
#include "radio/payload.h"
#include "transport/drop_filter.h"
#include "transport/reception.h"

namespace cfds {

class Channel;

/// A node's attachment point to the channel. A thin view: the radio's state
/// (position, power, traffic counters) lives in the world's struct-of-arrays
/// NodeStore; the view holds the (store, slot) pair plus the delivery
/// handler. Registered with at most one Channel for the simulation's
/// lifetime.
class Radio {
 public:
  /// The delivery handler: a raw function pointer plus an opaque context,
  /// one predictable indirect call per delivery (the owning Node registers
  /// its dispatcher).
  using RawReceiveHandler = void (*)(void* ctx, const Reception& reception);

  Radio(NodeStore& store, std::uint32_t slot, NodeId id)
      : store_(&store), slot_(slot), id_(id) {}

  Radio(const Radio&) = delete;
  Radio& operator=(const Radio&) = delete;

  [[nodiscard]] NodeId id() const { return id_; }
  [[nodiscard]] Vec2 position() const { return store_->position(slot_); }
  /// Moves the radio; keeps the channel's spatial index in sync.
  void set_position(Vec2 p);

  /// A powered-off radio neither transmits nor receives (fail-stop crash).
  [[nodiscard]] bool powered() const { return store_->powered(slot_); }
  void set_powered(bool on) { store_->set_powered(slot_, on); }

  /// Handler invoked on every frame this radio hears (addressed or
  /// overheard). Replaces any previous handler.
  void set_receive_handler(RawReceiveHandler handler, void* ctx) {
    raw_receive_ = handler;
    raw_ctx_ = ctx;
  }

  /// Emits a frame. All in-range powered radios are candidates to hear it.
  /// `intended` marks the addressed recipient (invalid() = broadcast); it
  /// does not affect propagation, only what receivers see in Reception.
  void send(PayloadPtr payload, NodeId intended = NodeId::invalid());

  [[nodiscard]] const RadioCounters& counters() const {
    return store_->counters(slot_);
  }

  [[nodiscard]] NodeStore& store() { return *store_; }
  [[nodiscard]] std::uint32_t slot() const { return slot_; }

 private:
  friend class Channel;

  /// `payload_bytes` is reception.payload->size_bytes(), precomputed once
  /// per broadcast by the channel (see Transmission::payload_bytes).
  void deliver(const Reception& reception, std::uint64_t payload_bytes);

  NodeStore* store_;
  std::uint32_t slot_;
  NodeId id_;
  Channel* channel_ = nullptr;
  RawReceiveHandler raw_receive_ = nullptr;
  void* raw_ctx_ = nullptr;
};

/// Channel-wide totals for scalability/energy comparisons.
struct ChannelStats {
  std::uint64_t transmissions = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t losses = 0;  ///< in-range candidates that drew a loss
  /// Widest single-broadcast fan-out seen (receivers of one transmission);
  /// diagnostics for the batched-delivery path and the fan-out benches.
  std::uint64_t max_fanout = 0;
};

/// One broadcast in flight: the shared frame every receiver hears. The
/// channel builds one Transmission per transmit() — not one closure per
/// receiver — and every delivery event hands the same embedded Reception to
/// its receiver by const reference, so a fan-out of k costs one payload
/// refcount bump, not k. Each delivery's queue entry names its receiver by
/// store slot, so the record holds no receiver list. Records are recycled
/// through a slab pool, so a broadcast performs O(1) allocations regardless
/// of fan-out.
struct Transmission {
  Reception reception;
  /// Owning channel, for the batch-delivery callback (the simulator hands
  /// it back only this record as context).
  Channel* channel = nullptr;
  /// reception.payload->size_bytes(), computed once per broadcast so the
  /// per-receiver accounting skips the virtual call.
  std::uint64_t payload_bytes = 0;
  /// Deliveries scheduled but not yet fired; the record returns to the pool
  /// when it reaches zero.
  std::uint32_t remaining = 0;
};

/// Channel configuration.
struct ChannelConfig {
  /// Common transmission range R in metres (paper: 100 m).
  double range = 100.0;
  /// One-hop delivery bound Thop; frames arrive strictly within it, after
  /// a latency uniform in [0.1, 0.9]*Thop.
  SimTime t_hop = SimTime::millis(100);
};

/// The shared medium. Does not own radios; the Network keeps radios alive for
/// the channel's lifetime.
class Channel {
 public:
  /// Observer invoked once per transmission (not per delivery).
  using Tap = std::function<void(NodeId sender, NodeId intended,
                                 const Payload& payload, SimTime when)>;

  Channel(Simulator& sim, LossModel& loss, ChannelConfig config, Rng rng);

  /// Registers a radio. A radio may be attached to at most one channel, and
  /// radios attach in store-slot order (slot k is the k-th attached), so a
  /// delivery names its receiver by slot.
  void attach(Radio& radio);

  /// Installs a transmission observer (tracing/diagnostics). Replaces any
  /// previous tap; pass nullptr to remove.
  void set_tap(Tap tap) { tap_ = std::move(tap); }

  [[nodiscard]] const ChannelStats& stats() const { return stats_; }
  [[nodiscard]] const ChannelConfig& config() const { return config_; }

  /// Radios currently within range of `position` (excluding `self`),
  /// regardless of power state. Used by topology diagnostics.
  [[nodiscard]] std::vector<NodeId> neighbors_of(NodeId self) const;

  // --- Fault-injection hooks (src/fault/). The drop state lives in a
  // transport-agnostic DropFilter (src/transport/drop_filter.h) so the same
  // seeded FaultPlan drives simulated and service-mode runs. All state
  // defaults to empty and each kind costs one has_*()-branch on the
  // transmit path when unused, so the channel's RNG draw sequence is
  // untouched by a fault-free run. -----------------------------------------

  /// The embedded fault-drop state: muted radios, blocked links, jam disks.
  [[nodiscard]] DropFilter& drop_filter() { return drop_filter_; }

  /// Overrides the configured loss model's per-frame loss probability for
  /// every in-range candidate (time-varying interference: loss bursts /
  /// storms from FaultKind::kLoss plans). While active each candidate draws
  /// one uniform against `p` — the same single draw the normal path makes —
  /// so engaging or clearing the override never shifts the RNG sequence of
  /// subsequent draws, and a plan with no loss events is bit-identical to a
  /// fault-free run.
  void set_loss_override(double p) {
    loss_override_active_ = true;
    loss_override_p_ = p;
  }
  void clear_loss_override() {
    loss_override_active_ = false;
    loss_override_p_ = 0.0;
  }
  [[nodiscard]] bool loss_override_active() const {
    return loss_override_active_;
  }

 private:
  friend class Radio;

  void transmit(Radio& sender, PayloadPtr payload, NodeId intended);
  /// Fires one scheduled delivery of `tx` to `receiver`; releases the
  /// record back to the pool after its last delivery.
  void deliver_one(Transmission* tx, Radio* receiver);
  /// Simulator::BatchFn trampoline: `ctx` is the Transmission, `slot` the
  /// receiver's store slot.
  static void batch_deliver(void* ctx, std::uint32_t slot);
  /// Simulator::BatchPrefetchFn for the same batch: prefetches the first
  /// and last line of the receiver's Radio a few firings ahead.
  static void batch_prefetch(void* ctx, std::uint32_t slot);

  [[nodiscard]] Transmission* acquire_transmission();
  void release_transmission(Transmission* tx);

  // --- Spatial index: uniform grid with cell size = range. Reach from any
  // point spans at most the 3x3 cell block around it, so transmissions and
  // neighbour queries touch O(local density) radios instead of O(n). ------
  /// Grid coordinate of one axis value (cell size = range).
  [[nodiscard]] std::int64_t cell_coord(double v) const;
  /// Packs grid coordinates into one 64-bit key. The bias keeps negative
  /// coordinates well-defined; the single definition keeps cell_key and the
  /// 3x3 probe loop from drifting apart.
  [[nodiscard]] static std::int64_t pack_cell(std::int64_t cx, std::int64_t cy);
  [[nodiscard]] std::int64_t cell_key(Vec2 p) const;
  void index_insert(Radio* radio);
  void index_remove(Radio* radio);
  void reindex(Radio* radio, Vec2 old_position, Vec2 new_position);
  /// One indexed radio with its position cached inline. The range test per
  /// candidate reads 24 contiguous bytes instead of chasing the Radio
  /// object (most of a cell block is out of range, so the chase would be a
  /// cache miss that buys nothing). reindex() keeps `pos` in sync with
  /// every Radio::set_position call, including moves within one cell.
  struct CellEntry {
    Vec2 pos;
    Radio* radio;
  };

  /// Invokes fn(radio, pos) for every indexed radio within `range` of
  /// `center` (excluding `exclude`); `pos` is the radio's (cached) position.
  template <typename Fn>
  void for_each_in_range(Vec2 center, const Radio* exclude, Fn&& fn) const;

  /// Cached 3x3 cell block around one centre cell: pointers to the grid's
  /// cell vectors (stable — cells are never erased, and unordered_map
  /// mapped values don't move on rehash), so a broadcast resolves its
  /// neighbourhood with one cache lookup instead of nine hash probes. The
  /// pointers see cell contents live; only the APPEARANCE of a brand-new
  /// cell can stale a block, so grid_cells_version_ bumps exactly when
  /// grid_ gains a key.
  struct CellBlock {
    std::uint64_t version = 0;
    std::uint32_t count = 0;
    std::array<const std::vector<CellEntry>*, 9> cells{};
  };
  /// The grid cell vector for `key`, creating it (and bumping
  /// grid_cells_version_) on first use.
  [[nodiscard]] std::vector<CellEntry>& grid_cell(std::int64_t key);
  /// The up-to-date CellBlock for the cell containing `center`.
  [[nodiscard]] const CellBlock& cell_block(Vec2 center) const;

  Simulator& sim_;
  LossModel& loss_;
  /// Cached loss_.as_bernoulli(): non-null lets transmit() inline the
  /// single-uniform loss draw instead of a virtual call per candidate.
  const BernoulliLoss* bernoulli_loss_ = nullptr;
  ChannelConfig config_;
  Rng rng_;
  /// Attached radios, indexed by store slot (attach() enforces the order).
  std::vector<Radio*> radios_;
  /// id -> radio, maintained by attach(); makes neighbors_of O(log n)
  /// instead of a linear scan and enforces id uniqueness.
  FlatMap<NodeId, Radio*> radios_by_id_;
  std::unordered_map<std::int64_t, std::vector<CellEntry>> grid_;
  /// Bumped whenever grid_ gains a new cell key; stamps CellBlock caches.
  std::uint64_t grid_cells_version_ = 1;
  mutable std::unordered_map<std::int64_t, CellBlock> cell_blocks_;
  ChannelStats stats_;
  Tap tap_;
  /// Transmission slab + freelist. Records are raw-pointer-stable (the
  /// delivery events hold Transmission*) and owned by the slab for the
  /// channel's lifetime.
  std::vector<std::unique_ptr<Transmission>> transmission_slab_;
  std::vector<Transmission*> transmission_free_;
  /// Receiver slots and delivery delays of the broadcast being scheduled,
  /// index-aligned; reused scratch (both are consumed by the scheduling loop
  /// within transmit()).
  std::vector<std::uint32_t> scratch_slots_;
  std::vector<SimTime> scratch_delays_;
  // Fault-injection state (empty in fault-free runs; see the hooks above).
  DropFilter drop_filter_;
  bool loss_override_active_ = false;
  double loss_override_p_ = 0.0;
};

}  // namespace cfds
