#include "net/network.h"

#include "common/expect.h"

namespace cfds {

Network::Network(NetworkConfig config, std::unique_ptr<LossModel> loss)
    : config_(config),
      loss_(std::move(loss)),
      rng_(config.seed),
      channel_(sim_, *loss_, config.channel, Rng(config.seed ^ 0x5EED)) {
  CFDS_EXPECT(loss_ != nullptr, "loss model required");
}

Node& Network::add_node(Vec2 position) {
  const NodeId id{next_nid_++};
  Node& node = nodes_.emplace_back(store_, id, position);
  channel_.attach(node.radio());
  node_ptrs_.push_back(&node);
  const_node_ptrs_.push_back(&node);
  return node;
}

void Network::add_nodes(const std::vector<Vec2>& positions) {
  for (Vec2 p : positions) add_node(p);
}

Node& Network::node(NodeId id) {
  CFDS_EXPECT(id.value() < nodes_.size(), "unknown node id");
  return nodes_[id.value()];
}

const Node& Network::node(NodeId id) const {
  CFDS_EXPECT(id.value() < nodes_.size(), "unknown node id");
  return nodes_[id.value()];
}

bool Network::has_node(NodeId id) const {
  return id.is_valid() && id.value() < nodes_.size();
}

std::size_t Network::alive_count() const { return store_.alive_count(); }

void Network::crash(NodeId id) { node(id).crash(); }

void Network::schedule_crash(NodeId id, SimTime when) {
  sim_.schedule_at(when, [this, id] { crash(id); });
}

void Network::recover(NodeId id) { node(id).recover(); }

void Network::schedule_recover(NodeId id, SimTime when) {
  sim_.schedule_at(when, [this, id] { recover(id); });
}

}  // namespace cfds
