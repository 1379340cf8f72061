#include "aggregation/service.h"

#include "common/expect.h"

namespace cfds {

AggregationAgent::AggregationAgent(Node& node, MembershipView& view,
                                   AggregationService& service)
    : node_(node), view_(view), service_(service) {
  node_.add_frame_handler(
      [](void* self, const Reception& reception) {
        static_cast<AggregationAgent*>(self)->on_frame(reception);
      },
      this);
}

void AggregationAgent::readings_epoch_begin(std::uint64_t epoch) {
  readings_.clear();
  readings_epoch_ = epoch;
}

void AggregationAgent::send_measurement(std::uint64_t epoch) {
  if (!node_.alive()) return;
  auto measurement = std::make_shared<MeasurementPayload>();
  measurement->sender = node_.id();
  measurement->marked = node_.marked();
  measurement->reading = service_.sensor()(node_.id(), epoch);
  node_.send(std::move(measurement));
}

void AggregationAgent::publish_cluster_aggregate(std::uint64_t epoch) {
  if (!node_.alive() || !view_.is_clusterhead()) return;
  Aggregate aggregate;
  aggregate.add(service_.sensor()(node_.id(), epoch));  // own reading
  if (readings_epoch_ == epoch) {
    for (const auto& [member, reading] : readings_) {
      if (view_.cluster()->is_member(member)) aggregate.add(reading);
    }
  }
  const auto key = std::make_pair(epoch, view_.cluster()->id);
  table_[key] = aggregate;
  relayed_.insert(key);  // our own: broadcast below, never re-relay

  auto payload = std::make_shared<ClusterAggregatePayload>();
  payload->cluster = view_.cluster()->id;
  payload->sender = node_.id();
  payload->epoch = epoch;
  payload->aggregate = aggregate;
  if (const BackboneRouting* routing = service_.routing()) {
    payload->directed = true;
    if (const auto hop = routing->next_hop(view_.cluster()->id)) {
      payload->toward = *hop;
    }
  }
  node_.send(std::move(payload));
}

std::vector<Aggregate> AggregationAgent::aggregates_for(
    std::uint64_t epoch) const {
  std::vector<Aggregate> out;
  for (const auto& [key, aggregate] : table_) {
    if (key.first == epoch) out.push_back(aggregate);
  }
  return out;
}

Aggregate AggregationAgent::global_view(std::uint64_t epoch) const {
  Aggregate merged;
  for (const Aggregate& aggregate : aggregates_for(epoch)) {
    merged.merge(aggregate);
  }
  return merged;
}

void AggregationAgent::on_frame(const Reception& reception) {
  if (!node_.alive()) return;

  if (const auto* measurement =
          payload_cast<MeasurementPayload>(reception.payload)) {
    // Only the CH folds readings (members overhear but don't aggregate).
    if (!view_.is_clusterhead()) return;
    // Epoch inference: readings are tagged by arrival; the service clears
    // the buffer at each epoch start via readings_epoch_.
    readings_[measurement->sender] = measurement->reading;
    return;
  }

  if (auto aggregate =
          payload_cast_shared<ClusterAggregatePayload>(reception.payload)) {
    handle_cluster_aggregate(aggregate);
    return;
  }
}

void AggregationAgent::handle_cluster_aggregate(
    const std::shared_ptr<const ClusterAggregatePayload>& payload) {
  if (!view_.affiliated()) return;
  const auto key = std::make_pair(payload->epoch, payload->cluster);
  table_.emplace(key, payload->aggregate);

  const ClusterId home = view_.cluster()->id;
  if (view_.is_clusterhead()) {
    if (payload->cluster == home) return;
    if (payload->directed) {
      // Directed mode: unless we ARE the sink, pass it along our own next
      // hop (a fresh emission the gateways on that link will carry).
      const BackboneRouting* routing = service_.routing();
      if (routing == nullptr || home == routing->sink()) return;
      if (!relayed_.insert(key).second) return;
      auto copy = std::make_shared<ClusterAggregatePayload>(*payload);
      copy->sender = node_.id();
      copy->toward = routing->next_hop(home).value_or(ClusterId::invalid());
      if (copy->toward.is_valid()) node_.send(std::move(copy));
      return;
    }
    // Flooding mode: first sight of a foreign cluster's aggregate is
    // re-broadcast once so our own gateways carry it onward.
    if (relayed_.insert(key).second) {
      auto copy = std::make_shared<ClusterAggregatePayload>(*payload);
      copy->sender = node_.id();
      node_.send(std::move(copy));
    }
    return;
  }

  // Gateway side: carry the frame across a link (one shot, no
  // acknowledgements — a lost epoch summary is superseded next epoch).
  view_.for_each_link_role([&](const GatewayLink& link, std::size_t rank) {
    if (rank != 0) return;  // only the primary GW relays aggregates
    // The cluster the emitting CH belongs to, seen from this link's ends.
    const bool from_neighbor = payload->sender == link.neighbor_clusterhead;
    const bool from_home = payload->sender == view_.cluster()->clusterhead;
    if (!from_neighbor && !from_home) return;
    const ClusterId far_side = from_home ? link.neighbor_cluster : home;
    // Directed mode: only the link leading to `toward` carries the frame.
    if (payload->directed && payload->toward != far_side) return;
    // One carry per (epoch, origin cluster, destination) through this node.
    if (!gw_carried_.insert({key.first, key.second, far_side}).second) return;
    auto copy = std::make_shared<ClusterAggregatePayload>(*payload);
    copy->sender = node_.id();
    node_.send(std::move(copy), from_neighbor
                                    ? view_.cluster()->clusterhead
                                    : link.neighbor_clusterhead);
  });
}

AggregationService::AggregationService(Network& network, FdsService& fds,
                                       std::vector<MembershipView*> views,
                                       SensorModel sensor)
    : network_(network), fds_(fds), sensor_(std::move(sensor)) {
  CFDS_EXPECT(bool(sensor_), "sensor model required");
  for (Node* node : network_.nodes()) {
    const std::size_t idx = node->id().value();
    CFDS_EXPECT(idx < views.size() && views[idx] != nullptr,
                "missing membership view");
    agents_.push_back(
        std::make_unique<AggregationAgent>(*node, *views[idx], *this));
  }
}

std::vector<AggregationAgent*> AggregationService::agents() {
  std::vector<AggregationAgent*> out;
  out.reserve(agents_.size());
  for (auto& a : agents_) out.push_back(a.get());
  return out;
}

AggregationAgent& AggregationService::agent_for(NodeId id) {
  for (auto& a : agents_) {
    if (a->id() == id) return *a;
  }
  CFDS_EXPECT(false, "no aggregation agent for node id");
  __builtin_unreachable();
}

void AggregationService::schedule_epoch(std::uint64_t epoch, SimTime t) {
  // FDS first: its begin_epoch events land before our measurement sends at
  // the same timestamp, so measurements count as this epoch's heartbeats.
  fds_.schedule_epoch(epoch, t);
  Simulator& sim = network_.simulator();
  const SimTime t_hop = network_.channel().config().t_hop;
  sim.schedule_at(t, [this, epoch] {
    for (auto& agent : agents_) {
      agent->readings_epoch_begin(epoch);
      agent->send_measurement(epoch);
    }
  });
  sim.schedule_at(t + 2 * t_hop, [this, epoch] {
    for (auto& agent : agents_) agent->publish_cluster_aggregate(epoch);
  });
}

SimTime AggregationService::run_epochs(std::uint64_t count, SimTime start) {
  const SimTime interval = fds_.config().heartbeat_interval;
  for (std::uint64_t k = 0; k < count; ++k) {
    schedule_epoch(k, start + std::int64_t(k) * interval);
  }
  const SimTime end = start + std::int64_t(count) * interval;
  network_.simulator().run_until(end);
  return end;
}

}  // namespace cfds
