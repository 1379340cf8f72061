#include "baseline/gossip_fd.h"

#include "common/expect.h"

namespace cfds {

GossipAgent::GossipAgent(Node& node, Simulator& sim,
                         const GossipConfig& config)
    : node_(node), sim_(sim), config_(config) {
  node_.add_frame_handler(
      [](void* self, const Reception& reception) {
        static_cast<GossipAgent*>(self)->on_frame(reception);
      },
      this);
}

void GossipAgent::gossip_round() {
  if (!node_.alive()) return;
  ++own_counter_;
  Entry& self = table_[node_.id()];
  self.counter = own_counter_;
  self.last_advance = sim_.now();

  auto payload = std::make_shared<GossipPayload>();
  payload->sender = node_.id();
  payload->entries.reserve(table_.size());
  for (const auto& [nid, entry] : table_) {
    payload->entries.emplace_back(nid, entry.counter);
  }
  node_.send(std::move(payload));
}

void GossipAgent::on_frame(const Reception& reception) {
  if (!node_.alive()) return;
  const auto* gossip = payload_cast<GossipPayload>(reception.payload);
  if (gossip == nullptr) return;
  for (const auto& [nid, counter] : gossip->entries) {
    if (nid == node_.id()) continue;
    Entry& entry = table_[nid];
    if (counter > entry.counter) {
      entry.counter = counter;
      entry.last_advance = sim_.now();
    }
  }
}

std::vector<NodeId> GossipAgent::suspected(SimTime now) const {
  std::vector<NodeId> out;
  for (const auto& [nid, entry] : table_) {
    if (nid == node_.id()) continue;
    if (now - entry.last_advance >= config_.fail_timeout) out.push_back(nid);
  }
  return out;
}

bool GossipAgent::considers_alive(NodeId v, SimTime now) const {
  const auto it = table_.find(v);
  if (it == table_.end()) return false;  // never heard of it
  return now - it->second.last_advance < config_.fail_timeout;
}

GossipService::GossipService(Network& network, GossipConfig config)
    : network_(network), config_(config) {
  CFDS_EXPECT(config_.fail_timeout > config_.gossip_interval,
              "timeout must exceed the gossip interval");
  for (Node* node : network_.nodes()) {
    agents_.push_back(std::make_unique<GossipAgent>(
        *node, network_.simulator(), config_));
  }
}

std::vector<GossipAgent*> GossipService::agents() {
  std::vector<GossipAgent*> out;
  out.reserve(agents_.size());
  for (auto& a : agents_) out.push_back(a.get());
  return out;
}

GossipAgent& GossipService::agent_for(NodeId id) {
  for (auto& a : agents_) {
    if (a->id() == id) return *a;
  }
  CFDS_EXPECT(false, "no gossip agent for node id");
  __builtin_unreachable();
}

SimTime GossipService::run_rounds(std::uint64_t count, SimTime start) {
  Simulator& sim = network_.simulator();
  for (std::uint64_t k = 0; k < count; ++k) {
    sim.schedule_at(start + std::int64_t(k) * config_.gossip_interval, [this] {
      for (auto& agent : agents_) agent->gossip_round();
    });
  }
  const SimTime end = start + std::int64_t(count) * config_.gossip_interval;
  sim.run_until(end);
  return end;
}

}  // namespace cfds
