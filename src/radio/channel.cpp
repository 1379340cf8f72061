#include "radio/channel.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/expect.h"

namespace cfds {

namespace {

/// Delivery latency is uniform in [kMinDelayFrac, kMaxDelayFrac]*Thop.
constexpr double kMinDelayFrac = 0.1;
constexpr double kMaxDelayFrac = 0.9;

}  // namespace

void Radio::send(PayloadPtr payload, NodeId intended) {
  CFDS_EXPECT(channel_ != nullptr, "radio not attached to a channel");
  if (!powered()) return;  // a crashed node emits nothing (fail-stop)
  RadioCounters& counters = store_->counters(slot_);
  counters.frames_sent++;
  counters.bytes_sent += payload->size_bytes();
  channel_->transmit(*this, std::move(payload), intended);
}

void Radio::set_position(Vec2 p) {
  const Vec2 old_position = store_->position(slot_);
  store_->set_position(slot_, p);
  if (channel_ != nullptr) channel_->reindex(this, old_position, p);
}

void Radio::deliver(const Reception& reception, std::uint64_t payload_bytes) {
  if (!powered()) return;  // crashed between emission and arrival
  RadioCounters& counters = store_->counters(slot_);
  counters.frames_received++;
  counters.bytes_received += payload_bytes;
  if (raw_receive_ != nullptr) raw_receive_(raw_ctx_, reception);
}

Channel::Channel(Simulator& sim, LossModel& loss, ChannelConfig config, Rng rng)
    : sim_(sim),
      loss_(loss),
      bernoulli_loss_(loss.as_bernoulli()),
      config_(config),
      rng_(rng) {
  CFDS_EXPECT(config_.range > 0.0, "range must be positive");
}

std::int64_t Channel::cell_coord(double v) const {
  return std::int64_t(std::floor(v / config_.range));
}

std::int64_t Channel::pack_cell(std::int64_t cx, std::int64_t cy) {
  return ((cx + 0x40000000) << 32) |
         std::int64_t(std::uint32_t(cy + 0x40000000));
}

std::int64_t Channel::cell_key(Vec2 p) const {
  // Cell size = transmission range: any receiver lies within the 3x3 cell
  // block around the sender. Coordinates are packed into one 64-bit key
  // (biased to keep negative positions well-defined).
  return pack_cell(cell_coord(p.x), cell_coord(p.y));
}

std::vector<Channel::CellEntry>& Channel::grid_cell(std::int64_t key) {
  const auto [it, inserted] = grid_.try_emplace(key);
  if (inserted) ++grid_cells_version_;  // stales every cached CellBlock
  return it->second;
}

void Channel::index_insert(Radio* radio) {
  grid_cell(cell_key(radio->position()))
      .push_back(CellEntry{radio->position(), radio});
}

void Channel::index_remove(Radio* radio) {
  auto& cell = grid_cell(cell_key(radio->position()));
  cell.erase(std::remove_if(cell.begin(), cell.end(),
                            [radio](const CellEntry& e) {
                              return e.radio == radio;
                            }),
             cell.end());
}

void Channel::reindex(Radio* radio, Vec2 old_position, Vec2 new_position) {
  const std::int64_t old_key = cell_key(old_position);
  const std::int64_t new_key = cell_key(new_position);
  if (old_key == new_key) {
    // Same cell: only the cached position needs refreshing.
    for (CellEntry& entry : grid_cell(old_key)) {
      if (entry.radio == radio) {
        entry.pos = new_position;
        return;
      }
    }
    return;
  }
  auto& old_cell = grid_cell(old_key);
  old_cell.erase(std::remove_if(old_cell.begin(), old_cell.end(),
                                [radio](const CellEntry& e) {
                                  return e.radio == radio;
                                }),
                 old_cell.end());
  grid_cell(new_key).push_back(CellEntry{new_position, radio});
}

const Channel::CellBlock& Channel::cell_block(Vec2 center) const {
  CellBlock& block = cell_blocks_[cell_key(center)];
  if (block.version != grid_cells_version_) {
    block.count = 0;
    const std::int64_t ccx = cell_coord(center.x);
    const std::int64_t ccy = cell_coord(center.y);
    for (std::int64_t cx = ccx - 1; cx <= ccx + 1; ++cx) {
      for (std::int64_t cy = ccy - 1; cy <= ccy + 1; ++cy) {
        const auto it = grid_.find(pack_cell(cx, cy));
        if (it == grid_.end()) continue;
        block.cells[block.count++] = &it->second;
      }
    }
    block.version = grid_cells_version_;
  }
  return block;
}

template <typename Fn>
void Channel::for_each_in_range(Vec2 center, const Radio* exclude,
                                Fn&& fn) const {
  const CellBlock& block = cell_block(center);
  for (std::uint32_t c = 0; c < block.count; ++c) {
    for (const CellEntry& entry : *block.cells[c]) {
      if (entry.radio == exclude) continue;
      if (!within_range(center, entry.pos, config_.range)) continue;
      fn(entry.radio, entry.pos);
    }
  }
}

void Channel::attach(Radio& radio) {
  CFDS_EXPECT(radio.channel_ == nullptr, "radio already attached");
  CFDS_EXPECT(radios_by_id_.find(radio.id()) == radios_by_id_.end(),
              "duplicate radio id attached to channel");
  CFDS_EXPECT(radio.slot() == radios_.size(),
              "radios must attach in store-slot order");
  radio.channel_ = this;
  radios_.push_back(&radio);
  radios_by_id_[radio.id()] = &radio;
  index_insert(&radio);
}

std::vector<NodeId> Channel::neighbors_of(NodeId self) const {
  const auto it = radios_by_id_.find(self);
  CFDS_EXPECT(it != radios_by_id_.end(), "unknown radio id");
  const Radio* me = it->second;
  std::vector<NodeId> out;
  for_each_in_range(me->position(), me,
                    [&](Radio* radio, Vec2) { out.push_back(radio->id()); });
  std::sort(out.begin(), out.end());
  return out;
}

// LINT-ROUND-PATH: per-broadcast hot path (see docs/PERF.md).
Transmission* Channel::acquire_transmission() {
  Transmission* tx = nullptr;
  if (!transmission_free_.empty()) {
    tx = transmission_free_.back();
    transmission_free_.pop_back();
  } else {
    transmission_slab_.push_back(std::make_unique<Transmission>());
    transmission_slab_.back()->channel = this;
    tx = transmission_slab_.back().get();
  }
  return tx;
}

void Channel::release_transmission(Transmission* tx) {
  tx->reception.payload.reset();  // drop the shared frame eagerly
  tx->remaining = 0;
  transmission_free_.push_back(tx);
}

// LINT-ROUND-PATH: per-broadcast hot path (see docs/PERF.md).
void Channel::deliver_one(Transmission* tx, Radio* receiver) {
  // Every receiver reads the one Reception embedded in the shared record;
  // no per-receiver payload refcount traffic.
  receiver->deliver(tx->reception, tx->payload_bytes);
  if (--tx->remaining == 0) release_transmission(tx);
}

// LINT-ROUND-PATH: per-broadcast hot path (see docs/PERF.md).
void Channel::batch_deliver(void* ctx, std::uint32_t slot) {
  auto* tx = static_cast<Transmission*>(ctx);
  tx->channel->deliver_one(tx, tx->channel->radios_[slot]);
}

// LINT-ROUND-PATH: per-broadcast hot path (see docs/PERF.md).
void Channel::batch_prefetch(void* ctx, std::uint32_t slot) {
  const auto* tx = static_cast<const Transmission*>(ctx);
  const char* receiver =
      reinterpret_cast<const char*>(tx->channel->radios_[slot]);
  __builtin_prefetch(receiver);
  __builtin_prefetch(receiver + sizeof(Radio) - 1);
}

// LINT-ROUND-PATH: per-broadcast hot path (see docs/PERF.md).
void Channel::transmit(Radio& sender, PayloadPtr payload, NodeId intended) {
  stats_.transmissions++;
  if (tap_) tap_(sender.id(), intended, *payload, sim_.now());
  // A muted (frozen) sender still pays tx energy and advances its protocol
  // state — the frame just never reaches the air (omission fault).
  if (drop_filter_.has_muted() && drop_filter_.is_muted(sender.id())) return;
  const Vec2 from = sender.position();
  const bool sender_jammed =
      drop_filter_.has_jam_regions() && drop_filter_.jammed(from);

  // One record per broadcast. Receivers and their delay draws are collected
  // in the grid's deterministic order, interleaved with the loss-model
  // draws, so the RNG sequence depends only on the geometry.
  Transmission* tx = acquire_transmission();
  tx->reception = Reception{sender.id(), intended, std::move(payload),
                            sim_.now()};
  tx->payload_bytes = tx->reception.payload->size_bytes();
  scratch_slots_.clear();
  scratch_delays_.clear();
  for_each_in_range(from, &sender, [&](Radio* receiver, Vec2 receiver_pos) {
    if (!receiver->powered()) return;
    // Deterministic fault drops happen before the loss/delay RNG draws: a
    // frame that cannot arrive must not consume channel randomness.
    if (drop_filter_.has_muted() && drop_filter_.is_muted(receiver->id())) {
      return;
    }
    if (drop_filter_.has_blocked_links() &&
        drop_filter_.link_blocked(sender.id(), receiver->id())) {
      stats_.losses++;
      return;
    }
    if (sender_jammed ||
        (drop_filter_.has_jam_regions() &&
         drop_filter_.jammed(receiver_pos))) {
      stats_.losses++;  // jam region: loss probability forced to 1
      return;
    }
    // Inlined draw for the common BernoulliLoss (bit-identical to calling
    // lost(): one uniform per candidate); other models go virtual. An
    // active loss override (kLoss fault burst) substitutes its probability
    // but still makes exactly one draw, so the RNG sequence seen by later
    // transmissions is independent of whether a burst was in effect.
    const bool frame_lost =
        loss_override_active_
            ? rng_.bernoulli(loss_override_p_)
        : bernoulli_loss_ != nullptr
            ? rng_.bernoulli(bernoulli_loss_->probability())
            : loss_.lost(sender.id(), from, receiver->id(), receiver_pos,
                         rng_);
    if (frame_lost) {
      stats_.losses++;
      return;
    }
    stats_.deliveries++;
    const double frac = rng_.uniform(kMinDelayFrac, kMaxDelayFrac);
    const auto delay =
        SimTime::micros(std::int64_t(frac * double(config_.t_hop.as_micros())));
    scratch_slots_.push_back(receiver->slot());
    scratch_delays_.push_back(delay);
  });

  if (scratch_slots_.empty()) {
    release_transmission(tx);
    return;
  }
  stats_.max_fanout =
      std::max<std::uint64_t>(stats_.max_fanout, scratch_slots_.size());
  // Scheduling after the fan-out loop assigns the same sequence numbers as
  // scheduling inside it (nothing else schedules during the loop), so the
  // firing order is bit-identical to the unbatched path. One batch = one
  // timer slot for the whole broadcast; each firing carries its receiver's
  // slot in the queue entry itself.
  tx->remaining = std::uint32_t(scratch_slots_.size());
  const Simulator::BatchRef batch =
      sim_.begin_batch(&Channel::batch_deliver, tx, &Channel::batch_prefetch);
  for (std::uint32_t i = 0; i < tx->remaining; ++i) {
    sim_.add_batch_event(batch, scratch_delays_[i], scratch_slots_[i]);
  }
}

}  // namespace cfds
