// Steady-state FDS epochs must be allocation-free: the megascale path
// (bench_megascale) runs millions of epochs-worth of events in one process,
// and any per-epoch heap churn both dominates the profile and fragments the
// heap long before 10^6 nodes. This binary proves the property the code
// comments promise — warm flat containers, pooled send payloads, slab-backed
// events and transmissions — by counting every ::operator new across two
// full executions of a 10^4-node world and demanding zero.
//
// Scope: the simulator's hard-boundary path under the default config (no
// epoch-skew tolerance, no adaptive accrual, no checkpoints, no forwarder,
// no hook but the Scenario's detection metrics), a clean channel, and no
// failures — exactly the state an idle deployed world sits in. The skew
// path's prune_evidence keeps a local scratch vector and is exercised by
// service-mode tests instead. A second test pins the receive path of a
// health update that carries only known failures, with the inter-cluster
// forwarder attached.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "cluster/membership.h"
#include "fds/agent.h"
#include "intercluster/forwarder.h"
#include "net/network.h"
#include "sim/scenario.h"

// Global allocation counter (same pattern as test_simulator.cpp): the
// counter only ticks between begin/end so setup and teardown are unaffected.
namespace {
std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_allocations{0};
}  // namespace

// The counting operator new allocates with std::malloc, so the matching
// operator delete releases with std::free. GCC's caller-side heuristic only
// sees "delete expression ends in free()" and flags every inlined delete
// site; the pairing is correct by construction.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

#ifdef CFDS_ALLOC_TRACE
#include <execinfo.h>
namespace {
constexpr int kMaxTraces = 20000;
void* g_traces[kMaxTraces][8];
int g_trace_sizes[kMaxTraces];
std::size_t g_trace_bytes[kMaxTraces];
std::atomic<int> g_trace_count{0};
}  // namespace
#endif

void* operator new(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
#ifdef CFDS_ALLOC_TRACE
    g_counting.store(false, std::memory_order_relaxed);
    const int slot = g_trace_count.fetch_add(1, std::memory_order_relaxed);
    if (slot < kMaxTraces) {
      g_trace_sizes[slot] = backtrace(g_traces[slot], 8);
      g_trace_bytes[slot] = size;
    }
    g_counting.store(true, std::memory_order_relaxed);
#endif
  }
  void* ptr = std::malloc(size == 0 ? 1 : size);
  if (ptr == nullptr) throw std::bad_alloc();
  return ptr;
}

void operator delete(void* ptr) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { std::free(ptr); }

namespace cfds {
namespace {

TEST(SteadyStateAlloc, EpochsAtTenThousandNodesAreAllocationFree) {
  // bench_megascale's 10^4 decade: the paper's density, a clean channel, no
  // forwarder, FDS defaults (the simulator hard-boundary path).
  constexpr std::size_t kNodes = 10'000;
  ScenarioConfig config = paper_density(kNodes);
  config.loss_p = 0.0;
  config.seed = 7;
  config.enable_forwarder = false;
  Scenario scenario(config);
  scenario.setup();

  // Pre-size the event queue. Epoch times are not commensurate with the
  // calendar wheel's period, so each epoch's events land in different
  // buckets; without an explicit reserve every bucket's vector would grow
  // the first time its turn comes — amortized zero over a long run, but
  // visible in a two-epoch window. reserve() spreads capacity across the
  // wheel (the megascale bench does the same).
  scenario.network().simulator().reserve(std::size_t{1} << 19);

  // Warm-up: capacity growth everywhere (event slab, calendar queue,
  // transmission slab, evidence tables, payload pools) and the first-epoch
  // subscription round (every node starts unmarked, so epoch 0 carries
  // admissions and membership snapshots). Several epochs, not one: pooled
  // buffers pair with different demand each epoch (calendar spare vectors
  // with buckets, transmissions with senders, digest slots with digest
  // sizes), so the capacity population takes a few epochs to cover the
  // worst per-epoch pairing.
  scenario.run_epochs(6);

  g_allocations.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
  scenario.run_epochs(2);
  g_counting.store(false, std::memory_order_relaxed);

#ifdef CFDS_ALLOC_TRACE
  {
    // Aggregate by (frame2, frame3) call-site pair; print each unique site
    // once with its hit count, total bytes, and one full stack.
    const int n = std::min(kMaxTraces, g_trace_count.load());
    std::vector<int> order;
    for (int t = 0; t < n; ++t) {
      bool fresh = true;
      for (int u : order) {
        if (g_traces[t][2] == g_traces[u][2] &&
            g_traces[t][3] == g_traces[u][3]) {
          fresh = false;
          break;
        }
      }
      if (fresh) order.push_back(t);
    }
    for (int u : order) {
      int hits = 0;
      std::size_t bytes = 0;
      for (int t = 0; t < n; ++t) {
        if (g_traces[t][2] == g_traces[u][2] &&
            g_traces[t][3] == g_traces[u][3]) {
          hits++;
          bytes += g_trace_bytes[t];
        }
      }
      char** syms = backtrace_symbols(g_traces[u], g_trace_sizes[u]);
      std::printf("=== site: %d hits, %zu bytes ===\n", hits, bytes);
      std::printf("  sizes:");
      for (int t = 0; t < n; ++t) {
        if (g_traces[t][2] == g_traces[u][2] &&
            g_traces[t][3] == g_traces[u][3]) {
          std::printf(" %zu", g_trace_bytes[t]);
        }
      }
      std::printf("\n");
      for (int f = 2; f < g_trace_sizes[u]; ++f)
        std::printf("  %s\n", syms[f]);
      std::free(syms);
    }
  }
#endif
  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed), 0u)
      << "steady-state epochs must reuse warm buffers (see the pooled-send "
         "and slot-table comments in fds/agent.h and fds/detector.h)";

  // The property must not come from a degenerate world: the clusters formed
  // and every agent stayed in the sweep.
  EXPECT_GT(scenario.cluster_count(), 100u);
  EXPECT_EQ(scenario.fds().active_agents(), kNodes);
}

// The receive path of a health update that tells its receivers nothing new:
// every NID of its all_failed list is already in their logs, and the report
// it acknowledges was already overheard. Every R-3 update and relay carries
// its author's whole log, so this is the common case in the paper's regime;
// it must cost no allocation in the FDS agent (log records, view update) or
// the forwarder (ack and armed-report bookkeeping, link-role walk).
//
// World (range 100, perfect links): CH A = 0 with members 2, 3, 4 and the
// A-B gateway 7 plus backups 8, 9 between the clusters; CH B = 1 with
// members 5, 6. Node 4 crashes, CH A reports it, the GW carries the report
// and CH B's relay acknowledges it. Both updates are then re-broadcast —
// once to warm the channel's buffers, once counted.
TEST(SteadyStateAlloc, KnownHealthUpdateReceiveIsAllocationFree) {
  NetworkConfig net_config;
  net_config.seed = 17;
  Network network(net_config, std::make_unique<PerfectLinks>());
  for (const Vec2 p : {Vec2{0.0, 0.0}, Vec2{160.0, 0.0}, Vec2{-30.0, 10.0},
                       Vec2{20.0, -25.0}, Vec2{10.0, 30.0}, Vec2{175.0, 15.0},
                       Vec2{140.0, -15.0}, Vec2{80.0, 0.0}, Vec2{80.0, 15.0},
                       Vec2{80.0, -15.0}}) {
    network.add_node(p);
  }
  ClusterView a;
  a.id = ClusterId{0};
  a.clusterhead = NodeId{0};
  a.members = {NodeId{2}, NodeId{3}, NodeId{4},
               NodeId{7}, NodeId{8}, NodeId{9}};
  a.deputies = {NodeId{2}};
  ClusterView b;
  b.id = ClusterId{1};
  b.clusterhead = NodeId{1};
  b.members = {NodeId{5}, NodeId{6}};
  b.deputies = {NodeId{5}};
  GatewayLink ab;
  ab.neighbor_cluster = b.id;
  ab.neighbor_clusterhead = b.clusterhead;
  ab.gateway = NodeId{7};
  ab.backups = {NodeId{8}, NodeId{9}};
  a.links.push_back(ab);
  GatewayLink ba = ab;
  ba.neighbor_cluster = a.id;
  ba.neighbor_clusterhead = a.clusterhead;
  b.links.push_back(ba);

  std::vector<std::unique_ptr<MembershipView>> owned_views;
  std::vector<MembershipView*> views;
  for (std::uint32_t i = 0; i < 10; ++i) {
    owned_views.push_back(std::make_unique<MembershipView>(NodeId{i}));
    views.push_back(owned_views.back().get());
  }
  for (const ClusterView* c : {&a, &b}) {
    views[c->clusterhead.value()]->set_cluster(*c);
    network.node(c->clusterhead).set_marked(true);
    for (NodeId m : c->members) {
      views[m.value()]->set_cluster(*c);
      network.node(m).set_marked(true);
    }
  }

  FdsConfig config;
  config.heartbeat_interval = SimTime::seconds(3);
  FdsService fds(network, views, config);
  std::shared_ptr<const HealthUpdatePayload> detection;
  std::shared_ptr<const HealthUpdatePayload> relay;
  fds.hooks().on_update_sent =
      [&](NodeId sender,
          const std::shared_ptr<const HealthUpdatePayload>& update) {
        if (sender == NodeId{0} && update->report.is_valid()) {
          detection = update;
        }
        if (sender == NodeId{1} && !update->acks.empty()) relay = update;
      };
  ForwarderService forwarder(network, fds, views, ForwarderConfig{});

  network.crash(NodeId{4});
  fds.schedule_epoch(0, SimTime::zero());
  network.simulator().run_until(SimTime::seconds(3));
  ASSERT_TRUE(detection != nullptr);
  ASSERT_TRUE(relay != nullptr);
  ASSERT_EQ(relay->all_failed, std::vector<NodeId>{NodeId{4}});
  EXPECT_EQ(forwarder.stats().reports_received, 1u);

  SimTime t = SimTime::seconds(3);
  auto rebroadcast = [&] {
    network.node(NodeId{0}).radio().send(detection);
    network.node(NodeId{1}).radio().send(relay);
    t += SimTime::seconds(1);
    network.simulator().run_until(t);
  };
  // Each re-broadcast lands in other calendar buckets: spread capacity
  // across the wheel first, as the test above does.
  network.simulator().reserve(std::size_t{1} << 12);
  rebroadcast();  // warm-up: transmission slab, event slots

  g_allocations.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
  rebroadcast();
  g_counting.store(false, std::memory_order_relaxed);
  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed), 0u)
      << "an update with nothing new must not allocate on receipt (see "
         "FailureLog::record and the forwarder's flat sets)";

  // Nothing new was learned and nothing was forwarded again.
  EXPECT_EQ(forwarder.stats().reports_received, 1u);
  EXPECT_TRUE(fds.agent_for(NodeId{6}).log().knows(NodeId{4}));
}

}  // namespace
}  // namespace cfds
