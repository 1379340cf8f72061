// The three simulated-world workloads: paper_2k, steady_10k and
// bursty_churn_2k.
//
// Each world is built from the layers' public constructors (as
// bench/bench_megascale.cpp does, not through Scenario::setup) so that each
// set-up phase can be timed on its own: net (placement), cluster
// (formation), fds (the FDS service) and intercluster (the forwarder).
//
// An *instance* is one world, built from its own seed, driven through
// warm-up epochs and then a fixed number of timed epochs. An untraced run
// measures instance_count() instances whose seeds derive from --seed, so the
// batch is a function of the arguments alone; pooling several instances
// evens out how much work each random topology happens to make. Everything
// simulated is a pure function of the instance seed, so the traced run
// checks that tracing leaves the outcome bit-identical. Host time is the
// simulation thread's CPU time, read once per phase and once per epoch.

#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "alloc_counter.h"
#include "clock.h"
#include "cluster/directory.h"
#include "cluster/formation.h"
#include "cluster/membership.h"
#include "common/flat.h"
#include "common/rng.h"
#include "fds/agent.h"
#include "intercluster/forwarder.h"
#include "net/network.h"
#include "net/topology.h"
#include "sim/metrics.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace cfds;

// The paper's setting: 500 nodes per 700 x 450 m, R = 100 m, Thop = 100 ms,
// phi = 2 s.
constexpr double kRange = 100.0;
constexpr SimTime kThop = SimTime::millis(100);
constexpr SimTime kPhi = SimTime::seconds(2);
constexpr std::size_t kFormationIterations = 4;
/// Crashes happen at this offset into an epoch: after the epoch's rounds
/// and peer forwarding (<= 6 Thop, plus 300 ms of skew on bursty_churn_2k)
/// and before the next heartbeat, so detection latency does not depend on
/// where in the round timetable a crash lands.
constexpr SimTime kCrashOffset = SimTime::seconds(1);
/// Set-ups per untraced run (at least); their median is setup_s.
constexpr std::size_t kSetupSamples = 9;

struct WorldSpec {
  std::size_t nodes = 0;
  bool distributed_formation = false;
  bool gilbert_elliott = false;  ///< else Bernoulli with loss_p
  double loss_p = 0.0;
  bool forwarder = false;
  bool crashes = false;  ///< one crash per epoch
  /// Epochs until a crashed node recovers; 0 = never.
  std::uint32_t recover_after = 0;
  /// steady_10k: no detections, everyone affiliated, no frame lost.
  bool expect_clean = false;
  FdsConfig fds;
  std::uint32_t warmup_epochs = 0;
  std::uint32_t timed_epochs = 0;
  /// Final epochs with no new crash, so the last failures have time to
  /// propagate before completeness is read.
  std::uint32_t quiet_tail = 0;
  /// Seconds of a run's --seconds budgeted per instance (see
  /// instance_count); about one instance's CPU time on a 2.1 GHz Xeon vCPU.
  double nominal_instance_s = 0.0;
};

/// Seed of a run's i-th world: distinct for every (seed, i).
std::uint64_t instance_seed(std::uint64_t seed, std::uint32_t i) {
  std::uint64_t state = seed ^ (std::uint64_t(i) << 40);
  return splitmix64(state);
}

WorldSpec spec_for(const std::string& name, bool toy) {
  WorldSpec s;
  s.fds.heartbeat_interval = kPhi;
  if (name == "paper_2k") {
    s.nodes = toy ? 300 : 2000;
    s.distributed_formation = true;
    s.loss_p = 0.3;
    s.forwarder = true;
    s.crashes = true;
    s.warmup_epochs = 2;
    s.timed_epochs = toy ? 3 : 8;
    s.quiet_tail = 2;
    s.nominal_instance_s = 6.0;
  } else if (name == "steady_10k") {
    s.nodes = toy ? 1000 : 10000;
    s.expect_clean = true;
    // Steady-state epochs are allocation-free only after ~6 epochs.
    s.warmup_epochs = toy ? 2 : 6;
    s.timed_epochs = toy ? 2 : 6;
    s.nominal_instance_s = 10.0;
  } else {  // bursty_churn_2k
    s.nodes = toy ? 300 : 2000;
    s.distributed_formation = true;
    s.gilbert_elliott = true;
    s.forwarder = true;
    s.crashes = true;
    s.recover_after = 3;
    s.fds.max_clock_skew = SimTime::millis(300);
    s.fds.tolerate_epoch_skew = true;
    s.fds.recovery_enabled = true;
    s.fds.adaptive_enabled = true;
    s.fds.checkpoint_enabled = true;
    s.warmup_epochs = 1;
    s.timed_epochs = toy ? 3 : 5;
    s.quiet_tail = 2;
    s.nominal_instance_s = 8.0;
  }
  s.fds.validate(kThop);
  return s;
}

/// The paper's simulated outcome over the timed epochs. Exact for a seed.
struct Outcome {
  double air_bytes_per_node_epoch = 0.0;
  double false_detection_rate = 0.0;
  double detection_latency_s = 0.0;
  double completeness = 0.0;
  // Raw counts behind the rates, compared too.
  std::uint64_t detections = 0;
  std::uint64_t false_detections = 0;
  std::uint64_t transmissions = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t alive_node_epochs = 0;

  friend bool operator==(const Outcome&, const Outcome&) = default;
};

/// One set-up phase's cost (traced run: span time and live-heap delta).
struct Phase {
  double seconds = 0.0;
  double heap_bytes = 0.0;
};

/// Times one set-up phase as a trace span with its live-heap delta.
class PhaseScope {
 public:
  PhaseScope(Trace* trace, const char* name, std::int32_t parent, Phase& out)
      : trace_(trace), out_(out) {
    if (trace_ == nullptr) return;
    heap0_ = alloc::live_bytes();
    span_ = trace_->open(name, parent);
    trace_->set_frame_parent(span_);
    t0_ = mono_ns();
  }
  ~PhaseScope() {
    if (trace_ == nullptr) return;
    out_.seconds = double(mono_ns() - t0_) * 1e-9;
    trace_->close(span_);
    trace_->set_frame_parent(-1);
    out_.heap_bytes = double(alloc::live_bytes() - heap0_);
  }
  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

 private:
  Trace* trace_;
  Phase& out_;
  std::int64_t heap0_ = 0;
  std::int64_t t0_ = 0;
  std::int32_t span_ = -1;
};

/// Everything one instance produces.
struct InstanceResult {
  std::int64_t setup_cpu_ns = 0;
  /// Per timed epoch: CPU ns per alive node.
  std::vector<double> epoch_cpu_ns_per_node;
  std::uint64_t events = 0;                   ///< timed epochs, probes excluded
  std::int64_t timed_cpu_ns = 0;
  /// Frame bytes the radios received in the timed epochs.
  std::uint64_t timed_rx_bytes = 0;
  /// Process peak RSS once the world is built.
  std::uint64_t setup_rss_bytes = 0;
  Outcome outcome;
};

/// Counters read at the start and end of the timed phase.
struct Snapshot {
  ChannelStats channel;
  TrafficTotals traffic;
  ForwarderStats forwarder;
  std::uint64_t reverts = 0;
  std::uint64_t events = 0;
};

class World {
 public:
  /// `trace` is null in the untraced run; `span` parents the world's spans.
  World(const WorldSpec& spec, std::uint64_t seed, Trace* trace,
        std::int32_t span)
      : spec_(spec), seed_(seed), trace_(trace), instance_span_(span) {}

  /// Builds the world; returns the set-up's CPU nanoseconds.
  std::int64_t build();

  /// Runs warm-up and timed epochs, fills `result`; per-layer metrics go to
  /// `layers` in the traced run.
  void run(InstanceResult& result, Checks& checks, MetricSet* layers);

 private:
  [[nodiscard]] Snapshot snapshot();
  /// Bytes received by every radio so far.
  [[nodiscard]] std::uint64_t rx_bytes();
  [[nodiscard]] double affiliation_rate();
  [[nodiscard]] std::size_t cluster_count();
  void crash_one(SimTime t, Rng& rng);
  [[nodiscard]] Outcome outcome(const Snapshot& before, const Snapshot& after,
                                SimTime window_start, SimTime window_end,
                                std::uint64_t alive_node_epochs);

  const WorldSpec& spec_;
  std::uint64_t seed_;
  Trace* trace_;
  std::int32_t instance_span_;

  std::unique_ptr<Network> network_;
  std::unique_ptr<FormationProtocol> formation_;
  std::vector<std::unique_ptr<MembershipView>> owned_views_;
  std::vector<MembershipView*> views_;
  std::unique_ptr<FdsService> fds_;
  std::unique_ptr<ForwarderService> forwarder_;
  MetricsCollector metrics_;
  SimTime settled_ = SimTime::zero();

  struct Crash {
    NodeId node;
    SimTime at;
    /// knowledge_coverage at the last epoch boundary the node was down
    /// for; negative until then.
    double coverage = -1.0;
  };
  std::vector<Crash> crashes_;
  std::vector<bool> crashed_ever_;

  // Traced-run set-up figures.
  std::int32_t setup_span_ = -1;
  Phase net_, cluster_, fds_phase_, intercluster_;
  double setup_affiliation_ = 0.0;
  std::size_t setup_clusters_ = 0;
  FrameTotals setup_frames_;
};

std::int64_t World::build() {
  const std::size_t n = spec_.nodes;
  const double scale = std::sqrt(double(n) / 500.0);
  const double width = 700.0 * scale;
  const double height = 450.0 * scale;
  if (trace_ != nullptr) setup_span_ = trace_->open("setup", instance_span_);

  const std::int64_t cpu0 = thread_cpu_ns();
  std::vector<Vec2> positions;
  {
    PhaseScope phase(trace_, "net.place", setup_span_, net_);
    NetworkConfig config;
    config.channel.range = kRange;
    config.channel.t_hop = kThop;
    config.seed = seed_;
    std::unique_ptr<LossModel> loss;
    if (spec_.gilbert_elliott) {
      loss = std::make_unique<GilbertElliottLoss>(GilbertElliottLoss::Params{});
    } else {
      loss = std::make_unique<BernoulliLoss>(spec_.loss_p);
    }
    network_ = std::make_unique<Network>(config, std::move(loss));
    Rng placement = network_->fork_rng();
    positions = uniform_rect(n, width, height, placement);
    network_->add_nodes(positions);
  }
  // The delivery-timing handler that must run before every layer's own.
  std::int64_t untimed_ns = 0;
  if (trace_ != nullptr) {
    const std::int64_t t0 = thread_cpu_ns();
    for (Node* node : network_->nodes()) trace_->install_frame_start(*node);
    trace_->reset_frames();
    untimed_ns += thread_cpu_ns() - t0;
  }
  {
    PhaseScope phase(trace_, "cluster.form", setup_span_, cluster_);
    if (spec_.distributed_formation) {
      formation_ = std::make_unique<FormationProtocol>(*network_);
      if (trace_ != nullptr) {
        const std::int64_t t0 = thread_cpu_ns();
        trace_->next_frame_end_stage();
        for (Node* node : network_->nodes()) trace_->install_frame_end(*node);
        untimed_ns += thread_cpu_ns() - t0;
      }
      settled_ = formation_->run(kFormationIterations);
      for (FormationAgent* agent : formation_->agents()) {
        views_.push_back(&agent->view());
      }
    } else {
      const auto directory = ClusterDirectory::build(positions, kRange);
      owned_views_.reserve(n);
      views_.reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        owned_views_.push_back(
            std::make_unique<MembershipView>(NodeId{std::uint32_t(i)}));
        views_.push_back(owned_views_.back().get());
      }
      directory.install(*network_, views_);
    }
  }
  {
    PhaseScope phase(trace_, "fds.build", setup_span_, fds_phase_);
    fds_ = std::make_unique<FdsService>(*network_, views_, spec_.fds);
    metrics_.attach(*fds_, *network_);
  }
  if (spec_.forwarder) {
    PhaseScope phase(trace_, "intercluster.build", setup_span_,
                     intercluster_);
    forwarder_ = std::make_unique<ForwarderService>(*network_, *fds_, views_,
                                                    ForwarderConfig{});
  }
  const std::int64_t setup_ns = thread_cpu_ns() - cpu0 - untimed_ns;

  crashed_ever_.assign(n, false);
  if (trace_ != nullptr) {
    trace_->close(setup_span_);
    setup_frames_ = trace_->frames();
    setup_affiliation_ = affiliation_rate();
    setup_clusters_ = cluster_count();
    trace_->next_frame_end_stage();
    for (Node* node : network_->nodes()) trace_->install_frame_end(*node);
    Trace* trace = trace_;
    network_->channel().set_tap(
        [trace](NodeId, NodeId, const Payload& payload, SimTime) {
          trace->count_air(payload);
        });
  }
  return setup_ns;
}

double World::affiliation_rate() {
  std::size_t alive = 0;
  std::size_t affiliated = 0;
  for (const Node* node : network_->nodes()) {
    if (!node->alive()) continue;
    ++alive;
    if (views_[node->id().value()]->affiliated()) ++affiliated;
  }
  return alive == 0 ? 1.0 : double(affiliated) / double(alive);
}

std::size_t World::cluster_count() {
  FlatSet<ClusterId> seen;
  for (const MembershipView* view : views_) {
    if (view->affiliated()) seen.insert(view->cluster()->id);
  }
  return seen.size();
}

Snapshot World::snapshot() {
  Snapshot s;
  s.channel = network_->channel().stats();
  s.traffic = traffic_totals(*network_);
  if (forwarder_) s.forwarder = forwarder_->stats();
  for (FdsAgent* agent : fds_->agents()) {
    for (std::uint64_t r : agent->reverts()) s.reverts += r;
  }
  s.events = network_->simulator().events_executed();
  return s;
}

std::uint64_t World::rx_bytes() {
  std::uint64_t sum = 0;
  for (const Node* node : network_->nodes()) {
    sum += node->radio().counters().bytes_received;
  }
  return sum;
}

void World::crash_one(SimTime t, Rng& rng) {
  NodeId victim;
  do {
    victim = NodeId{std::uint32_t(rng.below(spec_.nodes))};
  } while (crashed_ever_[victim.value()]);
  crashed_ever_[victim.value()] = true;
  const SimTime at = t + kCrashOffset;
  network_->schedule_crash(victim, at);
  if (spec_.recover_after > 0) {
    network_->schedule_recover(victim,
                               at + std::int64_t(spec_.recover_after) * kPhi);
  }
  crashes_.push_back(Crash{victim, at});
}

Outcome World::outcome(const Snapshot& before, const Snapshot& after,
                       SimTime window_start, SimTime window_end,
                       std::uint64_t alive_node_epochs) {
  Outcome o;
  o.alive_node_epochs = alive_node_epochs;
  const double node_epochs = double(alive_node_epochs);
  o.transmissions = after.channel.transmissions - before.channel.transmissions;
  o.deliveries = after.channel.deliveries - before.channel.deliveries;
  o.air_bytes_per_node_epoch =
      double(after.traffic.bytes - before.traffic.bytes) / node_epochs;

  for (const DetectionEvent& e : metrics_.detections()) {
    if (e.when < window_start || e.when > window_end) continue;
    ++o.detections;
    if (e.suspect_was_alive) ++o.false_detections;
  }
  o.false_detection_rate = double(o.false_detections) / node_epochs;

  // Latency: from each crash inside the window to the first detection of
  // that node while it was down.
  double latency_sum = 0.0;
  std::size_t detected = 0;
  for (const Crash& c : crashes_) {
    if (c.at < window_start || c.at > window_end) continue;
    SimTime first = SimTime::zero();
    bool found = false;
    for (const DetectionEvent& e : metrics_.detections()) {
      if (e.suspect != c.node || e.suspect_was_alive || e.when < c.at) continue;
      if (!found || e.when < first) first = e.when;
      found = true;
    }
    if (found) {
      latency_sum += (first - c.at).as_seconds();
      ++detected;
    }
  }
  o.detection_latency_s = detected == 0 ? 0.0 : latency_sum / double(detected);

  // Completeness: how widely each failure inside the window was known at
  // the end of the run, or at the last epoch boundary before it recovered.
  double coverage_sum = 0.0;
  std::size_t counted = 0;
  for (const Crash& c : crashes_) {
    if (c.at < window_start || c.coverage < 0.0) continue;
    coverage_sum += c.coverage;
    ++counted;
  }
  o.completeness = counted == 0 ? 1.0 : coverage_sum / double(counted);
  return o;
}

/// Per-layer frame-span metrics for one kind.
void add_frame_metrics(MetricSet& layers, const std::string& prefix,
                       const FrameTotals& totals, PayloadKind kind,
                       const char* per, double denominator) {
  const auto k = std::size_t(kind);
  const double frames = double(totals.frames[k]);
  layers.add(prefix + ".ns_per_frame",
             frames == 0 ? 0.0 : double(totals.ns[k]) / frames, "ns");
  layers.add(prefix + per, denominator == 0 ? 0.0 : frames / denominator,
             "frames");
}

void World::run(InstanceResult& result, Checks& checks, MetricSet* layers) {
  Simulator& sim = network_->simulator();
  const std::size_t n = spec_.nodes;
  const std::uint32_t total_epochs = spec_.warmup_epochs + spec_.timed_epochs;
  const std::uint32_t crash_epochs = total_epochs - spec_.quiet_tail;
  Rng crash_rng(seed_ * 0x9E3779B97F4A7C15ULL + 0xC4A5);

  // Pending-queue probes (traced run only): one per round offset.
  struct Probe {
    Simulator* sim;
    std::size_t peak = 0;
    std::uint64_t fired = 0;
  } probe{&sim};

  Snapshot before;
  SimTime window_start = SimTime::zero();
  std::uint64_t alive_node_epochs = 0;
  std::int64_t heap_start = 0;
  double heap_burst = 0.0;
  std::int64_t traced_epoch_ns = 0;
  std::int32_t epochs_span = -1;

  SimTime t = settled_ + kPhi;
  for (std::uint32_t e = 0; e < total_epochs; ++e) {
    const bool timed = e >= spec_.warmup_epochs;
    if (e == spec_.warmup_epochs) {
      before = snapshot();
      window_start = t;
      if (trace_ != nullptr) {
        trace_->reset_frames();
        trace_->reset_air();
        heap_start = alloc::live_bytes();
        epochs_span = trace_->open("epochs", instance_span_);
      }
    }
    if (spec_.crashes && e < crash_epochs) crash_one(t, crash_rng);
    fds_->schedule_epoch(e, t);
    if (trace_ != nullptr && timed) {
      for (std::int64_t r = 0; r <= 6; ++r) {
        sim.schedule_at(t + r * kThop, [p = &probe] {
          p->fired++;
          if (p->sim->pending_events() > p->peak) {
            p->peak = p->sim->pending_events();
          }
        });
      }
    }
    const std::size_t alive = network_->alive_count();
    const std::uint64_t rx0 = rx_bytes();
    std::int32_t span = -1;
    std::int64_t mono0 = 0;
    if (trace_ != nullptr && timed) {
      span = trace_->open("epoch", epochs_span);
      trace_->set_frame_parent(span);
      alloc::reset_peak();
      mono0 = mono_ns();
    }
    const std::int64_t live0 = alloc::live_bytes();
    const std::int64_t cpu0 = thread_cpu_ns();
    sim.run_until(t + kPhi);
    const std::int64_t cpu_ns = thread_cpu_ns() - cpu0;
    if (timed) {
      alive_node_epochs += alive;
      result.timed_cpu_ns += cpu_ns;
      result.epoch_cpu_ns_per_node.push_back(double(cpu_ns) / double(alive));
      result.timed_rx_bytes += rx_bytes() - rx0;
      if (trace_ != nullptr) {
        traced_epoch_ns += mono_ns() - mono0;
        trace_->close(span);
        trace_->set_frame_parent(-1);
        const double burst = double(alloc::peak_bytes() - live0);
        if (burst > heap_burst) heap_burst = burst;
      }
      for (Crash& c : crashes_) {
        if (c.at >= window_start && c.at < t + kPhi &&
            !network_->node(c.node).alive()) {
          c.coverage = knowledge_coverage(*fds_, *network_, c.node);
        }
      }
    }
    t += kPhi;
  }
  const Snapshot after = snapshot();
  const SimTime window_end = t;
  if (trace_ != nullptr) trace_->close(epochs_span);
  result.events = after.events - before.events - probe.fired;
  result.outcome =
      outcome(before, after, window_start, window_end, alive_node_epochs);

  // Checks on the simulator's outputs.
  const Outcome& o = result.outcome;
  checks.expect(std::isfinite(o.air_bytes_per_node_epoch) &&
                    o.air_bytes_per_node_epoch > 0.0,
                "no bytes on the air in the timed epochs");
  checks.expect(o.completeness >= 0.0 && o.completeness <= 1.0,
                "completeness outside [0, 1]");
  checks.expect(result.events > 0, "no events in the timed epochs");
  std::size_t expected_alive = n;
  for (const Crash& c : crashes_) {
    const bool recovered =
        spec_.recover_after > 0 &&
        c.at + std::int64_t(spec_.recover_after) * kPhi <= window_end;
    if (!recovered) --expected_alive;
  }
  checks.expect(network_->alive_count() == expected_alive,
                "alive population differs from the crash schedule");
  if (spec_.expect_clean) {
    checks.expect(metrics_.detections().empty(),
                  "steady world produced detections");
    checks.expect(affiliation_rate() == 1.0,
                  "steady world has unaffiliated nodes");
    checks.expect(network_->channel().stats().losses == 0,
                  "steady world lost frames");
  }

  if (layers == nullptr) return;
  // --- Per-layer metrics (traced run) -----------------------------------
  const double dn = double(n);
  const double node_epochs = double(alive_node_epochs);
  layers->add("net.place_s", net_.seconds, "s");
  layers->add("net.heap_bytes_per_node", net_.heap_bytes / dn, "bytes");

  layers->add("cluster.form_s", cluster_.seconds, "s");
  layers->add("cluster.heap_bytes_per_node", cluster_.heap_bytes / dn,
              "bytes");
  layers->add("cluster.clusters", double(setup_clusters_), "count");
  layers->add("cluster.affiliation_rate", setup_affiliation_, "ratio");
  layers->add("cluster.settle_sim_s", settled_.as_seconds(), "s");
  for (PayloadKind kind :
       {PayloadKind::kProbe, PayloadKind::kChClaim, PayloadKind::kJoin,
        PayloadKind::kAnnounce, PayloadKind::kGatewayCandidacy,
        PayloadKind::kGatewayAssignment}) {
    add_frame_metrics(*layers, std::string("cluster.") + kind_name(kind),
                      setup_frames_, kind, ".frames_per_node", dn);
  }

  const FrameTotals& frames = trace_->frames();
  layers->add("fds.build_s", fds_phase_.seconds, "s");
  layers->add("fds.heap_bytes_per_node", fds_phase_.heap_bytes / dn, "bytes");
  for (PayloadKind kind :
       {PayloadKind::kHeartbeat, PayloadKind::kDigest,
        PayloadKind::kHealthUpdate, PayloadKind::kUpdateRequest,
        PayloadKind::kUpdateForward, PayloadKind::kCheckpoint}) {
    add_frame_metrics(*layers, std::string("fds.") + kind_name(kind), frames,
                      kind, ".frames_per_node_epoch", node_epochs);
  }
  double log_sum = 0.0;
  std::size_t alive_agents = 0;
  for (FdsAgent* agent : fds_->agents()) {
    if (!network_->node(agent->id()).alive()) continue;
    log_sum += double(agent->log().size());
    ++alive_agents;
  }
  layers->add("fds.failure_log_len_mean",
              alive_agents == 0 ? 0.0 : log_sum / double(alive_agents),
              "entries");
  layers->add("fds.reverts_per_node_epoch",
              double(after.reverts - before.reverts) / node_epochs, "count");

  layers->add("intercluster.build_s", intercluster_.seconds, "s");
  layers->add("intercluster.heap_bytes_per_node",
              intercluster_.heap_bytes / dn, "bytes");
  add_frame_metrics(*layers, "intercluster.failure_report", frames,
                    PayloadKind::kFailureReport, ".frames_per_node_epoch",
                    node_epochs);
  const ForwarderStats& f0 = before.forwarder;
  const ForwarderStats& f1 = after.forwarder;
  const double attempts =
      double((f1.reports_forwarded - f0.reports_forwarded) +
             (f1.gw_retries - f0.gw_retries) +
             (f1.bgw_assists - f0.bgw_assists) +
             (f1.ch_retransmissions - f0.ch_retransmissions));
  const double received = double(f1.reports_received - f0.reports_received);
  layers->add("intercluster.attempts_per_report",
              received == 0 ? 0.0 : attempts / received, "ratio");

  const double losses =
      double(after.channel.losses - before.channel.losses);
  layers->add("radio.tx_per_node_epoch", double(o.transmissions) / node_epochs,
              "frames");
  layers->add("radio.deliveries_per_node_epoch",
              double(o.deliveries) / node_epochs, "frames");
  layers->add("radio.delivery_ratio",
              double(o.deliveries) / (double(o.deliveries) + losses), "ratio");
  layers->add("radio.max_fanout", double(after.channel.max_fanout), "count");
  const AirTotals& air = trace_->air();
  for (PayloadKind kind :
       {PayloadKind::kHeartbeat, PayloadKind::kDigest,
        PayloadKind::kHealthUpdate, PayloadKind::kUpdateRequest,
        PayloadKind::kUpdateForward, PayloadKind::kUpdateAck,
        PayloadKind::kCheckpoint, PayloadKind::kFailureReport}) {
    layers->add(std::string("radio.") + kind_name(kind) +
                    ".air_bytes_per_node_epoch",
                double(air.bytes[std::size_t(kind)]) / node_epochs, "bytes");
  }

  layers->add("event.events_per_node_epoch",
              double(result.events) / node_epochs, "count");
  layers->add("event.pending_peak_per_node", double(probe.peak) / dn,
              "count");
  layers->add("event.residual_ns_per_node_epoch",
              double(traced_epoch_ns - frames.total_ns()) / node_epochs, "ns");
  layers->add("epochs.heap_burst_bytes_per_node", heap_burst / dn, "bytes");
  layers->add("epochs.heap_growth_bytes_per_node_epoch",
              double(alloc::live_bytes() - heap_start) /
                  (dn * double(spec_.timed_epochs)),
              "bytes");
}

/// Builds and runs one instance; the world is destroyed before returning.
InstanceResult run_instance(const WorldSpec& spec, std::uint64_t seed,
                            Trace* trace, Checks& checks, MetricSet* layers) {
  InstanceResult result;
  const std::int32_t span = trace != nullptr ? trace->open("instance") : -1;
  World world(spec, seed, trace, span);
  result.setup_cpu_ns = world.build();
  result.setup_rss_bytes = peak_rss_bytes();
  world.run(result, checks, layers);
  if (trace != nullptr) trace->close(span);
  return result;
}

void add_outcome(MetricSet& metrics, const Outcome& o) {
  metrics.add("outcome.air_bytes_per_node_epoch", o.air_bytes_per_node_epoch,
              "bytes");
  metrics.add("outcome.false_detection_rate", o.false_detection_rate,
              "ratio");
  metrics.add("outcome.detection_latency_s", o.detection_latency_s, "s");
  metrics.add("outcome.completeness", o.completeness, "ratio");
}

}  // namespace

bool is_world_workload(const std::string& name) {
  return name == "paper_2k" || name == "steady_10k" ||
         name == "bursty_churn_2k";
}

void run_world_workload(const RunOptions& options, MetricSet& metrics,
                        Checks& checks) {
  const WorldSpec spec = spec_for(options.workload, options.toy);

  if (!options.traced) {
    const std::uint32_t instances = instance_count(
        options.seconds, options.toy ? 1.0 : spec.nominal_instance_s);
    std::vector<double> setups;
    double timed_cpu_ns = 0.0;
    double timed_rx_bytes = 0.0;
    Outcome first;
    std::uint64_t setup_rss = 0;
    for (std::uint32_t i = 0; i < instances; ++i) {
      const InstanceResult r =
          run_instance(spec, instance_seed(options.seed, i), nullptr, checks,
                       nullptr);
      checks.operation();
      setups.push_back(double(r.setup_cpu_ns) * 1e-9);
      timed_cpu_ns += double(r.timed_cpu_ns);
      timed_rx_bytes += double(r.timed_rx_bytes);
      if (i == 0) {
        first = r.outcome;
        setup_rss = r.setup_rss_bytes;
      }
    }
    // Further set-ups alone, over the same instances, for the median.
    for (std::size_t k = 0; setups.size() < kSetupSamples; ++k) {
      World world(spec,
                  instance_seed(options.seed, std::uint32_t(k % instances)),
                  nullptr, -1);
      setups.push_back(double(world.build()) * 1e-9);
      checks.operation();
    }
    metrics.add("setup_s", median(setups), "s");
    // One op is one frame byte received: deliveries drive the event queue
    // and fan-out, and the protocol handlers' work grows with the lists the
    // frames carry. Received bytes are a simulated outcome, fixed for a
    // seed, so for one seed this is CPU time over a constant; across seeds
    // it evens out how much traffic each instance happens to generate.
    metrics.add("ns_per_op", timed_cpu_ns / timed_rx_bytes, "ns");
    // Peak RSS once the first world is built. What the epochs add on top
    // (delivery bursts, accumulating protocol state) depends on each
    // instance's dynamics; the traced run reports it as epochs.heap_*.
    metrics.add("peak_rss_bytes_per_node",
                double(setup_rss) / double(spec.nodes), "bytes");
    add_outcome(metrics, first);
    return;
  }

  // Traced: the first instance untraced as the reference, then traced.
  const std::uint64_t seed = instance_seed(options.seed, 0);
  const InstanceResult plain =
      run_instance(spec, seed, nullptr, checks, nullptr);
  checks.operation();
  Trace trace;
  alloc::set_counting(true);
  const InstanceResult traced =
      run_instance(spec, seed, &trace, checks, &metrics);
  alloc::set_counting(false);
  checks.expect(traced.outcome == plain.outcome,
                "tracing changed the simulated outcome");
  checks.operation();

  metrics.add("epochs.ns_per_node_epoch", median(plain.epoch_cpu_ns_per_node),
              "ns");
  metrics.add("event.ns_per_event",
              double(plain.timed_cpu_ns) / double(plain.events), "ns");
  metrics.add("trace.overhead_ratio",
              median(traced.epoch_cpu_ns_per_node) /
                  median(plain.epoch_cpu_ns_per_node),
              "ratio");
  add_outcome(metrics, traced.outcome);
  if (!options.trace_out.empty() && !trace.write_json(options.trace_out)) {
    checks.fail("could not write the trace file " + options.trace_out);
    checks.operation();
  }
}

}  // namespace perfbench
