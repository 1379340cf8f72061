#include "service/agent.h"

#include <algorithm>

#include "common/expect.h"
#include "common/rng.h"
#include "fds/messages.h"
#include "fds/timetable.h"
#include "radio/payload.h"
#include "service/directory.h"
#include "transport/reception.h"

namespace cfds::service {

namespace {

/// Per-endpoint loss-stream seed: endpoints draw independently, but the
/// whole deployment is reproducible from the one configured seed.
[[nodiscard]] std::uint64_t endpoint_seed(std::uint64_t seed, NodeId self) {
  std::uint64_t state = seed + 0x9E3779B97F4A7C15ULL *
                                   (std::uint64_t{self.value()} + 1);
  return splitmix64(state);
}

/// Energy is effectively unmetered in service mode (the transport has no
/// RadioCounters); a large budget keeps every energy fraction at 1.
constexpr double kServiceEnergyUj = 1e12;

/// Consecutive subscription epochs a foreign subscriber must accumulate
/// before an adopter may take it. Its live home head admits within one
/// epoch, so a streak this long means the home block is genuinely headless
/// — a lossy overhearing gap can no longer trigger a spurious adoption.
constexpr std::uint64_t kAdoptionStreak = 3;

}  // namespace

ServiceAgent::ServiceAgent(const ServiceConfig& config, NodeId self,
                           Transport& raw, TimerService& timers)
    : config_(config),
      store_(kServiceEnergyUj),
      node_(store_, self, directory_position(self, config.node_count)),
      view_(self),
      filtered_(raw, filter_, self, config.loss_p,
                endpoint_seed(config.seed, self), &ServiceAgent::position_thunk,
                this),
      fds_config_(fds_config(config)),
      fds_(node_, view_, filtered_, timers, config.t_hop, fds_config_, hooks_),
      // Every endpoint applies the whole plan's windows to its own filter
      // but crashes and recovers only itself: powering the raw transport
      // (not the filtered wrapper) down around Node::crash keeps a crashed
      // process silent and deaf without exiting. Loss bursts are a
      // simulated-channel property; over a live network the medium supplies
      // its own loss, so the seam has no loss action.
      plan_(filter_, timers,
            {.lifecycle =
                 [this, &raw](std::uint32_t, bool up) {
                   if (up) {
                     node_.recover();
                     raw.set_powered(true);
                   } else {
                     raw.set_powered(false);
                     node_.crash();
                   }
                 },
             .self = self.value(),
             .loss = nullptr}),
      timers_(timers) {
  fds_config_.validate(config.t_hop);
  // In one broadcast domain every clusterhead hears every F5 subscription
  // heartbeat; scope admission to this endpoint's directory block so a
  // recovered node is re-admitted by exactly one head (with deterministic
  // orphan adoption when that block's head is gone — see admit_thunk).
  fds_config_.admit_filter = &ServiceAgent::admit_thunk;
  fds_config_.admit_filter_ctx = this;
  filtered_.add_frame_handler(&ServiceAgent::overhear_thunk, this);
  view_.set_cluster(
      directory_cluster(self, config.node_count, config.cluster_size));
  node_.set_marked(true);  // directory admission: no formation handshake
}

void ServiceAgent::overhear_thunk(void* ctx, const Reception& reception) {
  auto* self = static_cast<ServiceAgent*>(ctx);
  if (const auto* hb = payload_cast<HeartbeatPayload>(reception.payload)) {
    self->note_subscription(hb->sender, !hb->marked);
    return;
  }
  // Every bare HealthUpdatePayload is authored by a node acting as the head
  // of update->cluster (members relay through UpdateForwardPayload instead),
  // so overhearing one is proof of an acting head for that block.
  const auto* update = payload_cast<HealthUpdatePayload>(reception.payload);
  if (update == nullptr) return;
  ++self->updates_overheard_;
  if (std::find(update->admitted.begin(), update->admitted.end(),
                self->node_.id()) != update->admitted.end()) {
    ++self->admit_offers_;
    if (update->epoch > self->last_offer_epoch_) {
      self->last_offer_epoch_ = update->epoch;
    }
  }
  const std::uint32_t block =
      directory_cluster_index(NodeId{update->cluster.value()},
                              self->config_.cluster_size);
  std::uint64_t& newest = self->block_head_epoch_[block];
  if (update->epoch > newest) newest = update->epoch;
}

void ServiceAgent::note_subscription(NodeId sender, bool subscribing) {
  if (!subscribing) {
    sub_streak_.erase(sender.value());
    return;
  }
  const std::uint64_t epoch = fds_.current_epoch();
  const auto [it, inserted] =
      sub_streak_.try_emplace(sender.value(), epoch, epoch);
  if (inserted) return;
  auto& [first, last] = it->second;
  if (epoch <= last) return;  // retransmission within the same epoch
  if (epoch == last + 1) {
    last = epoch;
  } else {
    it->second = {epoch, epoch};  // a gap restarts the streak
  }
}

bool ServiceAgent::block_head_alive(std::uint32_t block) const {
  const auto it = block_head_epoch_.find(block);
  if (it == block_head_epoch_.end()) return false;
  const std::uint64_t epoch = fds_.current_epoch();
  return it->second + 2 >= epoch;
}

bool ServiceAgent::admit_thunk(void* ctx, NodeId subscriber) {
  auto* self = static_cast<ServiceAgent*>(ctx);
  const std::uint32_t home =
      directory_cluster_index(subscriber, self->config_.cluster_size);
  const std::uint32_t mine = directory_cluster_index(
      NodeId{self->view_.cluster()->id.value()}, self->config_.cluster_size);
  if (home == mine) return true;
  // Orphan adoption: the subscriber's home block has no acting head left
  // (its whole deputy chain died), so *somebody* must take the node or it
  // stays unaffiliated forever. Exactly one head volunteers — the acting
  // head with the lowest block index — which every head can determine
  // locally from the updates it overhears.
  if (self->block_head_alive(home)) return false;  // home head's job
  for (const auto& [block, epoch] : self->block_head_epoch_) {
    if (block >= mine) break;
    if (block != home && self->block_head_alive(block)) return false;
  }
  // Home-head priority window: a live home head collects its subscriber
  // within one epoch, so only a streak of unanswered subscriptions proves
  // the node is genuinely orphaned rather than momentarily overlooked.
  const auto it = self->sub_streak_.find(subscriber.value());
  if (it == self->sub_streak_.end()) return false;
  const auto& [first, last] = it->second;
  return last + 1 - first >= kAdoptionStreak;
}

Vec2 ServiceAgent::position_thunk(void* ctx, NodeId id) {
  auto* self = static_cast<ServiceAgent*>(ctx);
  return directory_position(id, self->config_.node_count);
}

void ServiceAgent::start(SimTime start, const fault::FaultPlan* plan) {
  if (plan != nullptr) {
    const SimTime anchor =
        start + std::int64_t(config_.warmup_epochs) * config_.phi;
    plan_.install(*plan, anchor, config_.warmup_epochs);
    // Detection-latency sampling: remember when each planned crash fires,
    // then chain onto on_detection (after any hook the embedding tool
    // installed) and stamp the first verdict this endpoint renders against
    // a planned victim. A recovered-then-recrashed node keeps its first
    // sample — the metric is first detection of the first crash.
    for (const fault::FaultEvent& e : plan->events) {
      if (e.kind != fault::FaultKind::kCrash) continue;
      crash_at_.emplace(e.node, anchor + SimTime::micros(e.at_us));
    }
    if (!crash_at_.empty()) {
      chain_hook(hooks_.on_detection,
                 [this](NodeId, std::uint64_t,
                        const std::vector<NodeId>& failed, bool) {
                   const SimTime now = timers_.now();
                   for (NodeId f : failed) {
                     const auto it = crash_at_.find(f.value());
                     if (it == crash_at_.end()) continue;
                     if (detect_ms_.count(f.value()) != 0) continue;
                     const std::int64_t us =
                         now.as_micros() - it->second.as_micros();
                     detect_ms_[f.value()] =
                         us > 0 ? std::uint32_t(us / 1000) : 0U;
                   }
                 });
    }
  }
  // Deterministic per-endpoint phase offset within a quarter round: with
  // every endpoint on one machine, perfectly aligned round starts make all
  // of them wake, broadcast, and drain at the same instant — a thundering
  // herd whose queueing delay alone can exceed the one-hop bound. Spreading
  // the starts keeps the per-tick burst small; the offset is a constant
  // clock bias per endpoint, exactly what tolerate_epoch_skew absorbs.
  const std::int64_t spread_us = config_.t_hop.as_micros() / 4;
  std::uint64_t phase_state = node_.id().value();
  const SimTime phase =
      spread_us > 0
          ? SimTime::micros(std::int64_t(
                splitmix64(phase_state) %
                static_cast<std::uint64_t>(spread_us)))
          : SimTime::zero();
  for (std::uint64_t k = 0; k < config_.epochs; ++k) {
    const SimTime skew = plan_.skew(node_.id(), k);
    schedule_execution(timers_,
                       start + phase + std::int64_t(k) * config_.phi + skew,
                       config_.t_hop, k, single_agent(fds_));
  }
  timers_.schedule_at(start + std::int64_t(config_.epochs) * config_.phi,
                      [this] { done_ = true; });
}

Snapshot ServiceAgent::status() const {
  Snapshot s;
  fill_snapshot(fds_, node_, s);
  s.updates_overheard = updates_overheard_;
  s.admit_offers = admit_offers_;
  s.last_offer_epoch = last_offer_epoch_;
  for (const auto& [victim, ms] : detect_ms_) {
    s.detect_node.push_back(victim);
    s.detect_ms.push_back(ms);
  }
  return s;
}

}  // namespace cfds::service
