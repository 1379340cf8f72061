// In-memory trace of the traced run.
//
// Spans (name, start, end, parent) are recorded at the benchmark's own
// calls into each layer: set-up phases, epochs, explorations. Frame
// deliveries are too many to keep one span each (about 10^5 per epoch at
// n = 2000), so every delivery is added to a per-PayloadKind aggregate and
// only every kFrameSampleEvery-th one is kept as a span, parented to the
// epoch it fell in. Nothing is written until write_json() at exit.
//
// Frame spans are measured by frame handlers the traced run registers on
// every node: a start handler before the protocol layers' own handlers and
// an end handler after them. Node dispatch calls handlers in registration
// order, so the time between the two is the protocol layers' handling of
// that delivery. Layers are added in stages (formation runs before the FDS
// exists), so an end handler is registered after each stage; only the
// newest stage's end handlers read the clock, the older ones return at once.

#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/node.h"
#include "radio/payload.h"

namespace perfbench {

inline constexpr std::size_t kKinds =
    std::size_t(cfds::PayloadKind::kTest) + 1;
inline constexpr std::uint64_t kFrameSampleEvery = 1024;

/// Per-kind delivery totals: frames handled and nanoseconds spent in the
/// protocol handlers.
struct FrameTotals {
  std::array<std::uint64_t, kKinds> frames{};
  std::array<std::int64_t, kKinds> ns{};

  [[nodiscard]] std::int64_t total_ns() const;
};

/// Per-kind bytes transmitted, as seen by the channel tap.
struct AirTotals {
  std::array<std::uint64_t, kKinds> bytes{};
};

class Trace {
 public:
  struct Span {
    const char* name = "";  ///< static string
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int32_t parent = -1;  ///< index into spans(), -1 for a root
  };

  /// Reserves room for the spans of one run up front, so that sampling
  /// frame spans never allocates inside a measured epoch. Sampling stops
  /// once the reserved room is full.
  Trace();

  /// Opens a span now and returns its index. `name` must be a static
  /// string.
  std::int32_t open(const char* name, std::int32_t parent = -1);
  void close(std::int32_t span);
  /// Parent of the frame spans sampled from now on (-1 for none).
  void set_frame_parent(std::int32_t span) { frame_parent_ = span; }

  /// Registers the delivery-timing handlers on `node`: call
  /// install_frame_start before any protocol layer registers its handler.
  /// After each stage of layers, call next_frame_end_stage() once and then
  /// install_frame_end on every node.
  void install_frame_start(cfds::Node& node);
  void next_frame_end_stage();
  void install_frame_end(cfds::Node& node);

  /// Running per-kind frame totals; reset_frames() zeroes them.
  [[nodiscard]] const FrameTotals& frames() const { return frames_; }
  void reset_frames() { frames_ = {}; }

  /// Channel tap sink.
  void count_air(const cfds::Payload& payload);
  [[nodiscard]] const AirTotals& air() const { return air_; }
  void reset_air() { air_ = {}; }

  /// Writes every recorded span as JSON; returns false if the file could
  /// not be written.
  [[nodiscard]] bool write_json(const std::string& path) const;

 private:
  static void on_frame_start(void* ctx, const cfds::Reception& reception);
  static void on_frame_end(void* ctx, const cfds::Reception& reception);

  /// Context of one stage's end handlers.
  struct EndStage {
    Trace* trace;
    std::size_t index;
  };

  std::vector<Span> spans_;
  std::vector<std::unique_ptr<EndStage>> end_stages_;
  std::int32_t frame_parent_ = -1;
  std::int64_t frame_start_ns_ = 0;
  std::uint64_t frames_seen_ = 0;
  FrameTotals frames_;
  AirTotals air_;
};

/// Short snake_case name of a payload kind ("health_update", ...).
[[nodiscard]] const char* kind_name(cfds::PayloadKind kind);

}  // namespace perfbench
