#include "sim/scenario.h"

#include "common/expect.h"
#include "common/flat.h"
#include "net/topology.h"

namespace cfds {

Scenario::Scenario(ScenarioConfig config) : config_(config) {
  // Fail loudly at construction, before any simulation time is spent: the
  // FDS config must satisfy the documented constraints against this
  // scenario's Thop (FdsService re-validates with the effective phi).
  FdsConfig effective = config_.fds;
  effective.heartbeat_interval = config_.heartbeat_interval;
  effective.validate(config_.t_hop);
  NetworkConfig net_config;
  net_config.channel.range = config_.range;
  net_config.channel.t_hop = config_.t_hop;
  net_config.seed = config_.seed;
  network_ = std::make_unique<Network>(
      net_config, config_.loss_factory
                      ? config_.loss_factory()
                      : std::make_unique<BernoulliLoss>(config_.loss_p));
}

Scenario::~Scenario() = default;

std::vector<MembershipView*> Scenario::views() {
  std::vector<MembershipView*> out;
  if (formation_) {
    for (FormationAgent* agent : formation_->agents()) {
      out.push_back(&agent->view());
    }
  } else {
    for (auto& view : owned_views_) out.push_back(view.get());
  }
  return out;
}

std::vector<NodeId> Scenario::alive_ordinary_members() {
  std::vector<NodeId> out;
  for (MembershipView* view : views()) {
    if (view->role() == Role::kOrdinaryMember &&
        network_->node(view->self()).alive()) {
      out.push_back(view->self());
    }
  }
  return out;
}

SimTime Scenario::setup() {
  CFDS_EXPECT(fds_ == nullptr, "setup() must be called exactly once");

  Rng placement = network_->fork_rng();
  const auto positions = uniform_rect(config_.node_count, config_.width,
                                      config_.height, placement);
  network_->add_nodes(positions);

  SimTime settled = SimTime::zero();
  if (config_.distributed_formation) {
    formation_ = std::make_unique<FormationProtocol>(*network_);
    settled = formation_->run(config_.formation_iterations);
  } else {
    const auto directory =
        ClusterDirectory::build(positions, config_.range);
    for (std::size_t i = 0; i < config_.node_count; ++i) {
      owned_views_.push_back(
          std::make_unique<MembershipView>(NodeId{std::uint32_t(i)}));
    }
    auto view_ptrs = views();
    directory.install(*network_, view_ptrs);
  }

  FdsConfig fds_config = config_.fds;
  fds_config.heartbeat_interval = config_.heartbeat_interval;
  fds_ = std::make_unique<FdsService>(*network_, views(), fds_config);
  metrics_.attach(*fds_, *network_);
  if (config_.enable_forwarder) {
    forwarder_ = std::make_unique<ForwarderService>(*network_, *fds_, views(),
                                                    config_.forwarder);
  }

  // First epoch starts one interval after formation settles.
  next_epoch_time_ = settled + config_.heartbeat_interval;
  return settled;
}

SimTime Scenario::run_epochs(std::uint64_t count) {
  CFDS_EXPECT(fds_ != nullptr, "call setup() first");
  for (std::uint64_t k = 0; k < count; ++k) {
    fds_->schedule_epoch(next_epoch_++, next_epoch_time_);
    next_epoch_time_ += config_.heartbeat_interval;
  }
  network_->simulator().run_until(next_epoch_time_);
  return next_epoch_time_;
}

void Scenario::schedule_crash(NodeId id, SimTime when) {
  network_->schedule_crash(id, when);
}

void Scenario::schedule_recover(NodeId id, SimTime when) {
  network_->schedule_recover(id, when);
}

std::vector<NodeId> Scenario::replenish(std::size_t count) {
  CFDS_EXPECT(fds_ != nullptr, "call setup() first");
  CFDS_EXPECT(formation_ == nullptr,
              "replenish() supports the centralized-formation path; with "
              "distributed formation use FormationProtocol::adopt_new_nodes");
  Rng placement = network_->fork_rng();
  std::vector<NodeId> added;
  for (std::size_t i = 0; i < count; ++i) {
    Node& node = network_->add_node({placement.uniform(0.0, config_.width),
                                     placement.uniform(0.0, config_.height)});
    owned_views_.push_back(std::make_unique<MembershipView>(node.id()));
    FdsAgent& agent = fds_->adopt_node(node, *owned_views_.back());
    if (forwarder_) {
      forwarder_->adopt_node(node, *owned_views_.back(), agent);
    }
    added.push_back(node.id());
  }
  return added;
}

std::size_t Scenario::cluster_count() const {
  FlatSet<ClusterId> seen;
  for (const MembershipView* view :
       const_cast<Scenario*>(this)->views()) {
    if (view->affiliated()) seen.insert(view->cluster()->id);
  }
  return seen.size();
}

double Scenario::affiliation_rate() const {
  std::size_t alive = 0;
  std::size_t affiliated = 0;
  auto* self = const_cast<Scenario*>(this);
  const auto all_views = self->views();
  for (const Node* node : self->network_->nodes()) {
    if (!node->alive()) continue;
    ++alive;
    if (all_views[node->id().value()]->affiliated()) ++affiliated;
  }
  return alive == 0 ? 1.0 : double(affiliated) / double(alive);
}

}  // namespace cfds
