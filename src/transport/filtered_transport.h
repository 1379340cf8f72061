// Receiver-side fault filtering for real transports.
//
// In simulation, the Channel consults the DropFilter (and its loss model)
// at transmit time, because the simulator sees both ends of every frame. A
// real transport has no such vantage point: each endpoint only sees what
// arrives. FilteredTransport re-creates the faulty medium at the receiver —
// every endpoint loads the SAME seeded FaultPlan, maintains its own
// DropFilter, and drops arriving frames whose (sender, receiver) verdict
// says the medium would have eaten them. The sender-side half of a
// symmetric fault (a muted sender) is equally well enforced by every
// receiver dropping that sender's frames, so one-sided filtering suffices.
//
// Bernoulli loss (`loss_p`) is drawn per arriving frame from a per-endpoint
// seeded Rng: across endpoints the draws are independent, which is exactly
// how independent per-receiver loss behaves on the simulated channel.

#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>

#include "common/expect.h"
#include "common/geometry.h"
#include "common/ids.h"
#include "common/rng.h"
#include "transport/drop_filter.h"
#include "transport/reception.h"
#include "transport/transport.h"

namespace cfds {

/// Wraps a real transport and applies fault-plan drops to arriving frames.
class FilteredTransport final : public Transport {
 public:
  /// Maps a NID to its (directory-assigned) position, for jam-disk checks.
  using PositionFn = Vec2 (*)(void* ctx, NodeId id);

  /// `inner` and `filter` must outlive this transport. `seed` should be
  /// derived from (plan seed, self) so endpoints draw independent loss.
  FilteredTransport(Transport& inner, const DropFilter& filter, NodeId self,
                    double loss_p, std::uint64_t seed, PositionFn position,
                    void* position_ctx)
      : inner_(inner),
        filter_(filter),
        self_(self),
        loss_p_(loss_p),
        rng_(seed),
        position_(position),
        position_ctx_(position_ctx) {
    inner_.add_frame_handler(&FilteredTransport::on_inner_frame, this);
  }

  void send(PayloadPtr payload, NodeId intended) override {
    inner_.send(std::move(payload), intended);
  }

  void add_frame_handler(RawFrameHandler handler, void* ctx) override {
    CFDS_EXPECT(handler_count_ < kMaxHandlers,
                "filtered transport handler table full");
    handlers_[handler_count_++] = Handler{handler, ctx};
  }

  void set_powered(bool on) override { inner_.set_powered(on); }
  [[nodiscard]] bool powered() const override { return inner_.powered(); }

  [[nodiscard]] std::uint64_t frames_dropped() const {
    return frames_dropped_;
  }

 private:
  static constexpr std::size_t kMaxHandlers = 6;

  static void on_inner_frame(void* ctx, const Reception& reception) {
    auto* self = static_cast<FilteredTransport*>(ctx);
    self->handle(reception);
  }

  void handle(const Reception& reception) {
    const Vec2 from = position_(position_ctx_, reception.sender);
    const Vec2 to = position_(position_ctx_, self_);
    if (filter_.drops(reception.sender, from, self_, to) ||
        (loss_p_ > 0.0 && rng_.bernoulli(loss_p_))) {
      ++frames_dropped_;
      return;
    }
    for (std::size_t i = 0; i < handler_count_; ++i) {
      handlers_[i].fn(handlers_[i].ctx, reception);
    }
  }

  Transport& inner_;
  const DropFilter& filter_;
  NodeId self_;
  double loss_p_;
  Rng rng_;
  PositionFn position_;
  void* position_ctx_;

  struct Handler {
    RawFrameHandler fn = nullptr;
    void* ctx = nullptr;
  };
  Handler handlers_[kMaxHandlers];
  std::size_t handler_count_ = 0;
  std::uint64_t frames_dropped_ = 0;
};

}  // namespace cfds
