#include "baseline/swim.h"

#include <algorithm>

#include "common/expect.h"

namespace cfds {

namespace {

/// Direct-ack timeout before indirect probing starts.
constexpr SimTime kAckTimeout = SimTime::millis(300);
/// Neighbours asked to probe indirectly.
constexpr std::size_t kIndirect = 3;
/// Probe-less periods before a suspected node is declared failed.
constexpr std::uint32_t kSuspicionPeriods = 3;
/// Declared-failure entries piggybacked per frame.
constexpr std::size_t kPiggybackLimit = 6;

}  // namespace

SwimAgent::SwimAgent(Node& node, SwimService& service, Rng rng)
    : node_(node), service_(service), rng_(rng) {
  node_.add_frame_handler(
      [](void* self, const Reception& reception) {
        static_cast<SwimAgent*>(self)->on_frame(reception);
      },
      this);
}

void SwimAgent::note_alive(NodeId n) {
  if (n == node_.id()) return;
  neighbors_.insert(n);
  suspicion_.erase(n);
  // SWIM has an "alive refutes suspect/dead" rule; hearing a node directly
  // is the strongest possible refutation.
  declared_failed_.erase(n);
}

std::vector<NodeId> SwimAgent::piggyback() {
  std::vector<NodeId> out;
  for (NodeId dead : declared_failed_) {
    if (out.size() >= kPiggybackLimit) break;
    out.push_back(dead);
  }
  return out;
}

void SwimAgent::absorb_piggyback(const std::vector<NodeId>& dead) {
  for (NodeId d : dead) {
    if (d == node_.id()) continue;  // rumours of my death are exaggerated
    if (declared_failed_.insert(d).second) {
      neighbors_.erase(d);
      suspicion_.erase(d);
      if (service_.network().has_node(d) &&
          service_.network().node(d).alive()) {
        ++false_declarations_;
      }
    }
  }
}

void SwimAgent::send_ping(NodeId target, NodeId requester) {
  auto ping = std::make_shared<SwimPingPayload>();
  ping->origin = node_.id();
  ping->target = target;
  ping->sequence = ++next_sequence_;
  ping->requester = requester;
  ping->dead_piggyback = piggyback();
  node_.send(std::move(ping), target);
}

void SwimAgent::period() {
  if (!node_.alive()) return;

  // Close out the previous period's probe.
  if (probing_.is_valid() && !got_ack_) {
    // Direct and indirect probes both stayed silent: suspect (or advance an
    // existing suspicion toward declaration).
    auto [it, fresh] = suspicion_.try_emplace(probing_, kSuspicionPeriods);
    if (!fresh && it->second > 0) --it->second;
    if (it->second == 0) declare(probing_);
  }
  probing_ = NodeId::invalid();
  got_ack_ = false;

  // Advance standing suspicions even when the random probe lands elsewhere:
  // a suspected neighbour that stays silent drifts toward declaration.
  for (auto it = suspicion_.begin(); it != suspicion_.end();) {
    if (it->second == 0) {
      const NodeId victim = it->first;
      it = suspicion_.erase(it);
      declare(victim);
    } else {
      --it->second;
      ++it;
    }
  }

  // Pick a random neighbour believed alive.
  std::vector<NodeId> candidates;
  for (NodeId n : neighbors_) {
    if (!declared_failed_.contains(n)) candidates.push_back(n);
  }
  if (candidates.empty()) return;
  const NodeId target = candidates[rng_.below(candidates.size())];
  probing_ = target;
  probing_sequence_ = next_sequence_ + 1;
  send_ping(target, NodeId::invalid());

  // Arm the indirect stage.
  service_.network().simulator().schedule_after(kAckTimeout, [this, target] {
    if (!node_.alive() || got_ack_ || probing_ != target) return;
    std::vector<NodeId> helpers;
    for (NodeId n : neighbors_) {
      if (n != target && !declared_failed_.contains(n)) helpers.push_back(n);
    }
    for (std::size_t k = 0; k < kIndirect && !helpers.empty(); ++k) {
      const std::size_t pick = rng_.below(helpers.size());
      auto request = std::make_shared<SwimPingReqPayload>();
      request->origin = node_.id();
      request->helper = helpers[pick];
      request->target = target;
      request->sequence = probing_sequence_;
      node_.send(std::move(request), helpers[pick]);
      helpers.erase(helpers.begin() + std::ptrdiff_t(pick));
    }
  });
}

void SwimAgent::declare(NodeId n) {
  if (!declared_failed_.insert(n).second) return;
  neighbors_.erase(n);
  suspicion_.erase(n);
  if (service_.network().has_node(n) && service_.network().node(n).alive()) {
    ++false_declarations_;
  }
}

void SwimAgent::on_frame(const Reception& reception) {
  if (!node_.alive()) return;
  note_alive(reception.sender);

  if (const auto* ping = payload_cast<SwimPingPayload>(reception.payload)) {
    absorb_piggyback(ping->dead_piggyback);
    if (ping->target != node_.id()) return;
    auto ack = std::make_shared<SwimAckPayload>();
    ack->origin = node_.id();
    // Ack goes to whoever needs convincing: the requester of an indirect
    // probe, else the pinger.
    ack->target = ping->requester.is_valid() ? ping->requester : ping->origin;
    ack->sequence = ping->sequence;
    ack->dead_piggyback = piggyback();
    node_.send(std::move(ack), ack->target);
    return;
  }

  if (const auto* ack = payload_cast<SwimAckPayload>(reception.payload)) {
    absorb_piggyback(ack->dead_piggyback);
    // Promiscuous bonus: ANY overheard ack from the node we are probing
    // proves it alive; addressed acks are just the common case.
    if (ack->origin == probing_ ||
        (ack->target == node_.id() && ack->origin == probing_)) {
      got_ack_ = true;
    }
    return;
  }

  if (const auto* request =
          payload_cast<SwimPingReqPayload>(reception.payload)) {
    if (request->helper != node_.id()) return;
    send_ping(request->target, request->origin);
    return;
  }
}

SwimService::SwimService(Network& network, SwimConfig config)
    : network_(network), config_(config) {
  CFDS_EXPECT(kAckTimeout < config_.period,
              "indirect probing must fit inside one period");
  Rng seeder = network_.fork_rng();
  for (Node* node : network_.nodes()) {
    agents_.push_back(
        std::make_unique<SwimAgent>(*node, *this, seeder.fork()));
  }
  // SWIM assumes members join with a known contact list; seed each agent's
  // membership with its one-hop neighbourhood (the join/discovery phase the
  // original protocol runs over its overlay).
  for (auto& agent : agents_) {
    for (NodeId n : network_.channel().neighbors_of(agent->id())) {
      agent->neighbors_.insert(n);
    }
  }
}

std::vector<SwimAgent*> SwimService::agents() {
  std::vector<SwimAgent*> out;
  out.reserve(agents_.size());
  for (auto& a : agents_) out.push_back(a.get());
  return out;
}

SwimAgent& SwimService::agent_for(NodeId id) {
  for (auto& a : agents_) {
    if (a->id() == id) return *a;
  }
  CFDS_EXPECT(false, "no SWIM agent for node id");
  __builtin_unreachable();
}

SimTime SwimService::run_periods(std::uint64_t count, SimTime start) {
  Simulator& sim = network_.simulator();
  for (std::uint64_t k = 0; k < count; ++k) {
    sim.schedule_at(start + std::int64_t(k) * config_.period, [this] {
      for (auto& agent : agents_) agent->period();
    });
  }
  const SimTime end = start + std::int64_t(count) * config_.period;
  sim.run_until(end);
  return end;
}

double SwimService::declaration_coverage(NodeId victim) {
  std::size_t alive = 0, declared = 0;
  for (auto& agent : agents_) {
    if (agent->id() == victim || !network_.node(agent->id()).alive()) continue;
    ++alive;
    if (agent->considers_failed(victim)) ++declared;
  }
  return alive == 0 ? 0.0 : double(declared) / double(alive);
}

}  // namespace cfds
