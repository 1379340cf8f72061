#include "fault/chaos.h"

#include <algorithm>
#include <memory>

#include "common/jsonl.h"
#include "fault/injector.h"
#include "fault/oracle.h"
#include "sim/scenario.h"

namespace cfds::fault {

namespace {

// The trial deployment: 48 nodes on 520 x 380 m at R = 100 m, phi = 2 s,
// background loss 0.08 during warmup and faults, then 2 + 6 + 10 epochs of
// warmup, faults and quiescence.
constexpr std::uint32_t kNodeCount = 48;
constexpr double kWidth = 520.0;
constexpr double kHeight = 380.0;
constexpr double kRange = 100.0;
constexpr double kLossP = 0.08;
constexpr SimTime kEpochInterval = SimTime::seconds(2);
constexpr std::uint64_t kWarmupEpochs = 2;
constexpr std::uint64_t kFaultEpochs = 6;
constexpr std::uint64_t kQuiesceEpochs = 10;

/// One kRecover event under observation: when did the node come back, and
/// when was it next seen alive + affiliated + marked.
struct RejoinProbe {
  NodeId id{0};
  SimTime recovered_at = SimTime::zero();
  bool done = false;
  SimTime consistent_at = SimTime::zero();
};

/// True once `id` is fully re-integrated: powered on, carrying a cluster
/// view, and admitted (marked) by an acting head. Read-only — the probes
/// must not perturb the trial they are measuring.
[[nodiscard]] bool rejoined(Scenario& scenario, NodeId id) {
  if (!scenario.network().has_node(id)) return false;
  const Node& node = scenario.network().node(id);
  if (!node.alive() || !node.marked()) return false;
  for (const MembershipView* view : scenario.views()) {
    if (view->self() == id) return view->affiliated();
  }
  return false;
}

}  // namespace

std::string ChaosResult::summary_json() const {
  std::string out;
  jsonl::append(out,
                "{\"seed\":%llu,\"events\":%zu,\"violations\":%zu,"
                "\"alive\":%zu,\"clusters\":%zu,\"affiliation\":%.6f,"
                "\"rejoins\":%zu,\"rejoin_pending\":%zu,"
                "\"rejoin_mean_us\":%lld,\"rejoin_max_us\":%lld}",
                static_cast<unsigned long long>(seed), plan.events.size(),
                violations.size(), alive, clusters, affiliation, rejoins,
                rejoin_pending, static_cast<long long>(rejoin_mean_us),
                static_cast<long long>(rejoin_max_us));
  return out;
}

ChaosProfile ChaosConfig::profile() const {
  ChaosProfile p = mix;
  p.node_count = kNodeCount;
  p.width = kWidth;
  p.height = kHeight;
  p.range = kRange;
  p.epoch_interval = kEpochInterval;
  p.fault_epochs = kFaultEpochs;
  return p;
}

ChaosResult run_chaos_trial(const ChaosConfig& config, std::uint64_t seed) {
  return replay_chaos_trial(config, seed,
                            FaultPlan::random(seed, config.profile()));
}

ChaosResult replay_chaos_trial(const ChaosConfig& config, std::uint64_t seed,
                               const FaultPlan& plan) {
  ScenarioConfig sc;
  sc.width = kWidth;
  sc.height = kHeight;
  sc.node_count = kNodeCount;
  sc.range = kRange;
  sc.fds.heartbeat_interval = kEpochInterval;
  sc.seed = seed;
  sc.fds.recovery_enabled = true;
  sc.fds.adaptive_enabled = config.adaptive;
  sc.fds.checkpoint_enabled = config.checkpoint;
  SwitchableLoss* switchable = nullptr;
  sc.loss_factory = [&switchable] {
    auto loss = std::make_unique<SwitchableLoss>(
        std::make_unique<BernoulliLoss>(kLossP));
    switchable = loss.get();
    return std::unique_ptr<LossModel>(std::move(loss));
  };

  Scenario scenario(sc);
  scenario.setup();
  scenario.run_epochs(kWarmupEpochs);

  FaultInjector injector(scenario);
  const SimTime anchor = scenario.next_epoch_time();
  injector.install(plan);

  // Rejoin-to-consistent probes: a fixed ladder of read-only checks at
  // quarter-epoch granularity from each recovery instant to the end of the
  // trial. Scheduled up front (like the plan itself) so a replay schedules
  // the identical event sequence.
  const std::int64_t phi_us = kEpochInterval.as_micros();
  const std::int64_t step_us = phi_us / 4;
  const std::int64_t tail_us =
      std::int64_t(kFaultEpochs + kQuiesceEpochs) * phi_us;
  std::vector<std::shared_ptr<RejoinProbe>> probes;
  Simulator& sim = scenario.network().simulator();
  for (const FaultEvent& e : plan.events) {
    if (e.kind != FaultKind::kRecover) continue;
    auto probe = std::make_shared<RejoinProbe>();
    probe->id = NodeId{e.node};
    probe->recovered_at = anchor + SimTime::micros(e.at_us);
    probes.push_back(probe);
    for (std::int64_t off = step_us; e.at_us + off <= tail_us;
         off += step_us) {
      sim.schedule_at(probe->recovered_at + SimTime::micros(off),
                      [probe, &scenario, &sim] {
                        if (probe->done) return;
                        if (!rejoined(scenario, probe->id)) return;
                        probe->done = true;
                        probe->consistent_at = sim.now();
                      });
    }
  }

  scenario.run_epochs(kFaultEpochs);

  // Quiescence: no channel fault survives the horizon and the background
  // loss is switched off, so the oracle judges steady state, not luck.
  injector.clear_channel_faults();
  switchable->set_perfect(true);
  scenario.run_epochs(kQuiesceEpochs);

  ChaosResult result;
  result.seed = seed;
  result.plan = plan;
  std::vector<Snapshot> snapshots;
  result.violations = ChaosOracle::check(scenario, snapshots);
  if (!result.passed()) result.snapshots = std::move(snapshots);
  result.alive = scenario.network().alive_count();
  result.clusters = scenario.cluster_count();
  result.affiliation = scenario.affiliation_rate();
  std::int64_t total_us = 0;
  for (const auto& probe : probes) {
    if (!probe->done) {
      ++result.rejoin_pending;
      continue;
    }
    const std::int64_t latency_us =
        probe->consistent_at.as_micros() - probe->recovered_at.as_micros();
    ++result.rejoins;
    total_us += latency_us;
    result.rejoin_max_us = std::max(result.rejoin_max_us, latency_us);
  }
  if (result.rejoins > 0) {
    result.rejoin_mean_us = total_us / std::int64_t(result.rejoins);
  }
  return result;
}

}  // namespace cfds::fault
