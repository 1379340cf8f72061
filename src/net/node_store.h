// Struct-of-arrays backing store for node/radio state.
//
// Per-object node state (position, power, liveness, marking, incarnation,
// traffic counters) lives in dense NodeId-indexed arrays owned by one
// NodeStore per world, next to the world's one initial energy budget. Node and Radio are thin views — a (store, slot)
// pair — so a million-node world is a handful of flat allocations instead of
// a million heap objects, and whole-world scans (grid rebuilds, alive counts,
// mobility sweeps) walk contiguous memory instead of chasing pointers.
//
// Slots are append-only and never reused; for network-owned nodes the slot
// equals the NodeId value (NIDs are assigned sequentially). Standalone hosts
// (tests, the service-mode single-node runtime, checker worlds) create their
// own small store. Accessors take the slot index, so the field vectors may
// reallocate as nodes are added without invalidating any view.
//
// This header is include-light by design: it sits below both src/radio/ and
// src/net/ (Radio state lives here, and cfds_radio must not link cfds_net).

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/expect.h"
#include "common/geometry.h"

namespace cfds {

/// Per-radio traffic counters (basis of the energy model).
struct RadioCounters {
  std::uint64_t frames_sent = 0;
  std::uint64_t frames_received = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
};

// Linear radio energy model: cost = base + per_byte * bytes, per frame.
inline constexpr double kTxBaseUj = 50.0;  ///< microjoules per sent frame
inline constexpr double kTxPerByteUj = 2.0;
inline constexpr double kRxBaseUj = 20.0;  ///< microjoules per heard frame
inline constexpr double kRxPerByteUj = 1.0;

/// Total energy implied by the given traffic counters, in microjoules.
[[nodiscard]] inline double energy_spent_uj(const RadioCounters& counters) {
  return kTxBaseUj * double(counters.frames_sent) +
         kTxPerByteUj * double(counters.bytes_sent) +
         kRxBaseUj * double(counters.frames_received) +
         kRxPerByteUj * double(counters.bytes_received);
}

/// Per-node radio energy budget of a simulated world, microjoules.
inline constexpr double kInitialEnergyUj = 1e9;

/// Dense struct-of-arrays node state. One per world; indexed by slot.
class NodeStore {
 public:
  /// Every node of the store starts with `initial_energy_uj` of radio
  /// energy.
  explicit NodeStore(double initial_energy_uj = kInitialEnergyUj)
      : initial_energy_uj_(initial_energy_uj) {}

  NodeStore(const NodeStore&) = delete;
  NodeStore& operator=(const NodeStore&) = delete;

  /// Pre-sizes every array for `n` nodes, so a world of known size is
  /// built without regrowing them.
  void reserve(std::size_t n) {
    positions_.reserve(n);
    powered_.reserve(n);
    alive_.reserve(n);
    marked_.reserve(n);
    incarnations_.reserve(n);
    counters_.reserve(n);
  }

  /// Appends one node's state; returns its slot. Nodes start alive and
  /// powered, unmarked, at incarnation 0.
  std::uint32_t add(Vec2 position) {
    const auto slot = std::uint32_t(positions_.size());
    positions_.push_back(position);
    powered_.push_back(1);
    alive_.push_back(1);
    marked_.push_back(0);
    incarnations_.push_back(0);
    counters_.emplace_back();
    return slot;
  }

  [[nodiscard]] std::size_t size() const { return positions_.size(); }

  [[nodiscard]] Vec2 position(std::uint32_t slot) const {
    return positions_[slot];
  }
  void set_position(std::uint32_t slot, Vec2 p) { positions_[slot] = p; }

  [[nodiscard]] bool powered(std::uint32_t slot) const {
    return powered_[slot] != 0;
  }
  void set_powered(std::uint32_t slot, bool on) { powered_[slot] = on ? 1 : 0; }

  [[nodiscard]] bool alive(std::uint32_t slot) const {
    return alive_[slot] != 0;
  }
  void set_alive(std::uint32_t slot, bool alive) {
    alive_[slot] = alive ? 1 : 0;
  }

  [[nodiscard]] bool marked(std::uint32_t slot) const {
    return marked_[slot] != 0;
  }
  void set_marked(std::uint32_t slot, bool marked) {
    marked_[slot] = marked ? 1 : 0;
  }

  [[nodiscard]] std::uint32_t incarnation(std::uint32_t slot) const {
    return incarnations_[slot];
  }
  void bump_incarnation(std::uint32_t slot) { ++incarnations_[slot]; }

  [[nodiscard]] RadioCounters& counters(std::uint32_t slot) {
    return counters_[slot];
  }
  [[nodiscard]] const RadioCounters& counters(std::uint32_t slot) const {
    return counters_[slot];
  }

  [[nodiscard]] double initial_energy_uj() const { return initial_energy_uj_; }

  /// Dense views for whole-world scans (grid builds, benches).
  [[nodiscard]] const std::vector<Vec2>& positions() const {
    return positions_;
  }
  [[nodiscard]] const std::vector<std::uint8_t>& alive_flags() const {
    return alive_;
  }

  [[nodiscard]] std::size_t alive_count() const {
    std::size_t n = 0;
    for (const std::uint8_t a : alive_) n += a;
    return n;
  }

  /// Resident bytes of the store itself (capacity, not size) — the "world
  /// bytes per node" numerator reported by bench_megascale.
  [[nodiscard]] std::size_t resident_bytes() const {
    return positions_.capacity() * sizeof(Vec2) +
           (powered_.capacity() + alive_.capacity() + marked_.capacity()) *
               sizeof(std::uint8_t) +
           incarnations_.capacity() * sizeof(std::uint32_t) +
           counters_.capacity() * sizeof(RadioCounters);
  }

 private:
  double initial_energy_uj_;
  std::vector<Vec2> positions_;
  std::vector<std::uint8_t> powered_;
  std::vector<std::uint8_t> alive_;
  std::vector<std::uint8_t> marked_;
  std::vector<std::uint32_t> incarnations_;
  std::vector<RadioCounters> counters_;
};

}  // namespace cfds
