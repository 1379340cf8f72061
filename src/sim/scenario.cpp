#include "sim/scenario.h"

#include <cmath>
#include <utility>

#include "common/expect.h"
#include "common/flat.h"
#include "net/topology.h"

namespace cfds {

namespace {
// Rounds of the distributed formation protocol before the FDS starts.
constexpr std::size_t kFormationIterations = 4;
}  // namespace

ScenarioConfig paper_density(std::size_t n) {
  const double scale = std::sqrt(double(n) / 500.0);
  ScenarioConfig config;
  config.node_count = n;
  config.width = 700.0 * scale;
  config.height = 450.0 * scale;
  return config;
}

Scenario::Scenario(ScenarioConfig config) : config_(std::move(config)) {
  NetworkConfig net_config;
  net_config.channel.range = config_.range;
  net_config.seed = config_.seed;
  // Fail loudly at construction, before any simulation time is spent: the
  // FDS config must satisfy the documented constraints against the
  // channel's Thop.
  config_.fds.validate(net_config.channel.t_hop);
  network_ = std::make_unique<Network>(
      net_config, config_.loss_factory
                      ? config_.loss_factory()
                      : std::make_unique<BernoulliLoss>(config_.loss_p));
}

Scenario::~Scenario() = default;

std::vector<NodeId> Scenario::alive_ordinary_members() {
  std::vector<NodeId> out;
  for (MembershipView* view : views_) {
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
  views_.reserve(config_.node_count);
  if (config_.distributed_formation) {
    formation_ = std::make_unique<FormationProtocol>(*network_);
    settled = formation_->run(kFormationIterations);
    for (FormationAgent* agent : formation_->agents()) {
      views_.push_back(&agent->view());
    }
  } else {
    const auto directory =
        ClusterDirectory::build(positions, config_.range);
    owned_views_.reserve(config_.node_count);
    for (std::size_t i = 0; i < config_.node_count; ++i) {
      owned_views_.push_back(
          std::make_unique<MembershipView>(NodeId{std::uint32_t(i)}));
      views_.push_back(owned_views_.back().get());
    }
    directory.install(*network_, views_);
  }

  fds_ = std::make_unique<FdsService>(*network_, views_, config_.fds);
  metrics_.attach(*fds_, *network_);
  if (config_.enable_forwarder) {
    forwarder_ = std::make_unique<ForwarderService>(*network_, *fds_, views_,
                                                    ForwarderConfig{});
  }

  // First epoch starts one interval after formation settles.
  next_epoch_time_ = settled + config_.fds.heartbeat_interval;
  return settled;
}

SimTime Scenario::run_epochs(std::uint64_t count) {
  CFDS_EXPECT(fds_ != nullptr, "call setup() first");
  for (std::uint64_t k = 0; k < count; ++k) {
    fds_->schedule_epoch(next_epoch_++, next_epoch_time_);
    next_epoch_time_ += config_.fds.heartbeat_interval;
  }
  network_->simulator().run_until(next_epoch_time_);
  return next_epoch_time_;
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
    views_.push_back(owned_views_.back().get());
    FdsAgent& agent = fds_->adopt_node(node, *views_.back());
    if (forwarder_) {
      forwarder_->adopt_node(node, *views_.back(), agent);
    }
    added.push_back(node.id());
  }
  return added;
}

std::size_t Scenario::cluster_count() const {
  FlatSet<ClusterId> seen;
  for (const MembershipView* view : views_) {
    if (view->affiliated()) seen.insert(view->cluster()->id);
  }
  return seen.size();
}

double Scenario::affiliation_rate() const {
  std::size_t alive = 0;
  std::size_t affiliated = 0;
  for (const Node* node : network_->nodes()) {
    if (!node->alive()) continue;
    ++alive;
    if (views_[node->id().value()]->affiliated()) ++affiliated;
  }
  return alive == 0 ? 1.0 : double(affiliated) / double(alive);
}

}  // namespace cfds
