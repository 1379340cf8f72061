#include "baseline/flooding.h"

#include "common/expect.h"

namespace cfds {

FloodAgent::FloodAgent(Node& node, Simulator& sim) : node_(node), sim_(sim) {
  node_.add_frame_handler(
      [](void* self, const Reception& reception) {
        static_cast<FloodAgent*>(self)->on_frame(reception);
      },
      this);
}

void FloodAgent::originate(const std::vector<NodeId>& failed) {
  if (!node_.alive()) return;
  auto payload = std::make_shared<FloodPayload>();
  payload->id = ReportId{(std::uint64_t(node_.id().value()) << 32) |
                         ++next_report_};
  payload->origin = node_.id();
  payload->forwarder = node_.id();
  payload->failed = failed;
  seen_.insert(payload->id);
  for (NodeId f : failed) log_.record(f, {sim_.now(), 0, node_.id()});
  node_.send(std::move(payload));
}

void FloodAgent::on_frame(const Reception& reception) {
  if (!node_.alive()) return;
  const auto* flood = payload_cast<FloodPayload>(reception.payload);
  if (flood == nullptr) return;
  if (!seen_.insert(flood->id).second) return;  // duplicate: suppress
  for (NodeId f : flood->failed) {
    log_.record(f, {sim_.now(), 0, flood->origin});
  }
  auto copy = std::make_shared<FloodPayload>(*flood);
  copy->forwarder = node_.id();
  ++rebroadcasts_;
  node_.send(std::move(copy));
}

FloodService::FloodService(Network& network) {
  for (Node* node : network.nodes()) {
    agents_.push_back(
        std::make_unique<FloodAgent>(*node, network.simulator()));
  }
}

std::vector<FloodAgent*> FloodService::agents() {
  std::vector<FloodAgent*> out;
  out.reserve(agents_.size());
  for (auto& a : agents_) out.push_back(a.get());
  return out;
}

FloodAgent& FloodService::agent_for(NodeId id) {
  for (auto& a : agents_) {
    if (a->id() == id) return *a;
  }
  CFDS_EXPECT(false, "no flood agent for node id");
  __builtin_unreachable();
}

std::uint64_t FloodService::total_rebroadcasts() const {
  std::uint64_t total = 0;
  for (const auto& a : agents_) total += a->rebroadcasts();
  return total;
}

}  // namespace cfds
