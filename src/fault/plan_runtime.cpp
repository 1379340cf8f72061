#include "fault/plan_runtime.h"

#include "common/expect.h"
#include "common/geometry.h"

namespace cfds::fault {

void PlanRuntime::freeze(std::uint32_t node, bool on) {
  if (on) {
    if (freeze_depth_[node]++ == 0) filter_.set_muted(NodeId{node}, true);
  } else {
    if (--freeze_depth_[node] == 0) filter_.set_muted(NodeId{node}, false);
  }
}

void PlanRuntime::block_link(std::uint32_t a, std::uint32_t b, bool on) {
  const std::uint64_t key = DropFilter::link_key(NodeId{a}, NodeId{b});
  if (on) {
    if (link_depth_[key]++ == 0) {
      filter_.set_link_blocked(NodeId{a}, NodeId{b}, true);
    }
  } else {
    if (--link_depth_[key] == 0) {
      filter_.set_link_blocked(NodeId{a}, NodeId{b}, false);
    }
  }
}

void PlanRuntime::install(const FaultPlan& plan, SimTime anchor,
                          std::uint64_t base_epoch) {
  CFDS_EXPECT(!installed_, "install() may be called once per runtime");
  installed_ = true;
  base_epoch_ = base_epoch;

  for (const FaultEvent& e : plan.events) {
    const SimTime at = anchor + SimTime::micros(e.at_us);
    const SimTime until = at + SimTime::micros(e.duration_us);
    switch (e.kind) {
      case FaultKind::kCrash:
      case FaultKind::kRecover:
        if (seam_.self && *seam_.self != e.node) break;
        timers_.schedule_at(at, [this, n = e.node,
                                 up = e.kind == FaultKind::kRecover] {
          seam_.lifecycle(n, up);
        });
        break;
      case FaultKind::kFreeze:
        timers_.schedule_at(at, [this, n = e.node] { freeze(n, true); });
        timers_.schedule_at(until, [this, n = e.node] { freeze(n, false); });
        break;
      case FaultKind::kLinkDown:
        timers_.schedule_at(at, [this, a = e.node, b = e.peer] {
          block_link(a, b, true);
        });
        timers_.schedule_at(until, [this, a = e.node, b = e.peer] {
          block_link(a, b, false);
        });
        break;
      case FaultKind::kJam: {
        const Disk area{{e.x, e.y}, e.radius};
        const std::size_t slot = jam_tokens_.size();
        jam_tokens_.push_back(-1);
        timers_.schedule_at(at, [this, area, slot] {
          jam_tokens_[slot] = filter_.add_jam_region(area);
        });
        timers_.schedule_at(until, [this, slot] {
          if (jam_tokens_[slot] < 0) return;
          filter_.remove_jam_region(jam_tokens_[slot]);
          jam_tokens_[slot] = -1;
        });
        break;
      }
      case FaultKind::kClockDrift:
        drifts_.push_back(e);
        break;
      case FaultKind::kLoss:
        if (!seam_.loss) break;
        timers_.schedule_at(at, [this, p = e.x] {
          ++loss_depth_;
          seam_.loss(p);
        });
        timers_.schedule_at(until, [this] {
          if (--loss_depth_ == 0) seam_.loss(std::nullopt);
        });
        break;
    }
  }
}

void PlanRuntime::clear() {
  for (const auto& [node, depth] : freeze_depth_) {
    if (depth > 0) filter_.set_muted(NodeId{node}, false);
  }
  freeze_depth_.clear();
  for (const auto& [key, depth] : link_depth_) {
    if (depth > 0) {
      filter_.set_link_blocked(NodeId{std::uint32_t(key & 0xFFFFFFFF)},
                               NodeId{std::uint32_t(key >> 32)}, false);
    }
  }
  link_depth_.clear();
  for (int& token : jam_tokens_) {
    if (token >= 0) filter_.remove_jam_region(token);
    token = -1;
  }
  if (loss_depth_ > 0) {
    seam_.loss(std::nullopt);
    loss_depth_ = 0;
  }
}

SimTime PlanRuntime::skew(NodeId node, std::uint64_t epoch) const {
  SimTime extra = SimTime::zero();
  for (const FaultEvent& d : drifts_) {
    if (d.node != node.value()) continue;
    const std::uint64_t s = base_epoch_ + d.start_epoch;
    const std::uint64_t e = base_epoch_ + d.end_epoch;
    if (epoch >= s && epoch < e) {
      extra += SimTime::micros(d.per_epoch_us * std::int64_t(epoch - s + 1));
    }
  }
  return extra;
}

}  // namespace cfds::fault
