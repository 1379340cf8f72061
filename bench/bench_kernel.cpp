// Microbenchmarks for the simulator's three hot layers (see docs/PERF.md):
//
//   * event kernel   — schedule→fire throughput of the SBO-callable +
//                      slab/freelist kernel, with and without cancellation;
//   * spatial layer  — grid-built UnitDiskGraph construction vs the O(n^2)
//                      all-pairs reference build;
//   * queue layer    — calendar-queue vs binary-heap schedule→fire
//                      throughput (broadcast delivery cost is measured end
//                      to end, by perfbench's steady_10k: a rig that sends
//                      to the same receivers every time keeps them all in
//                      cache and cannot see delivery locality);
//   * message layer  — payload_cast tag-dispatch throughput;
//   * loss layer     — per-candidate loss draw (Bernoulli vs Gilbert-Elliott)
//                      in the channel's fan-out order;
//   * end to end     — FDS epoch events/sec at 500 and 2000 nodes.
//
// The deterministic study section measures each metric directly and, with
// --out, appends BenchRecord JSONL lines so runs can be compared against the
// committed trajectory in BENCH_kernel.json. `--trials K` with K < 100
// selects a smoke-sized run (the perf_smoke ctest target) that exercises all
// paths in seconds without producing comparable numbers.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <vector>

#include "aggregation/messages.h"
#include "bench/bench_util.h"
#include "event/simulator.h"
#include "fds/messages.h"
#include "net/graph.h"
#include "net/topology.h"
#include "radio/loss_model.h"
#include "sim/scenario.h"

namespace {

using namespace cfds;
using Clock = std::chrono::steady_clock;

std::vector<PayloadPtr> dispatch_frames() {
  std::vector<PayloadPtr> frames;
  for (int i = 0; i < 64; ++i) {
    if (i % 3 == 0) {
      auto hb = std::make_shared<HeartbeatPayload>();
      hb->sender = NodeId{std::uint32_t(i)};
      frames.push_back(hb);
    } else if (i % 3 == 1) {
      auto digest = std::make_shared<DigestPayload>();
      digest->sender = NodeId{std::uint32_t(i)};
      frames.push_back(digest);
    } else {
      auto update = std::make_shared<HealthUpdatePayload>();
      update->sender = NodeId{std::uint32_t(i)};
      frames.push_back(update);
    }
  }
  return frames;
}

/// Receiver lists shaped like Channel::transmit's fan-out: `senders` nodes,
/// each with `fanout` distinct random neighbours drawn from the population.
/// Nodes are placed at random, so a neighbour's NID is unrelated to its
/// sender's.
std::vector<std::vector<NodeId>> fanout_lists(std::size_t senders,
                                              std::size_t fanout,
                                              std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<NodeId>> lists(senders);
  for (std::size_t s = 0; s < senders; ++s) {
    while (lists[s].size() < fanout) {
      const NodeId r{std::uint32_t(rng.below(senders))};
      if (r.value() == s) continue;
      if (std::find(lists[s].begin(), lists[s].end(), r) != lists[s].end()) {
        continue;
      }
      lists[s].push_back(r);
    }
  }
  return lists;
}

/// One transmission: the model is asked about each of the sender's
/// receivers in turn, through the virtual interface as the channel does for
/// every model but Bernoulli. Returns the number of losses.
std::size_t loss_fanout(LossModel& model, std::size_t sender,
                        const std::vector<NodeId>& receivers, Rng& rng) {
  std::size_t losses = 0;
  for (const NodeId receiver : receivers) {
    if (model.lost(NodeId{std::uint32_t(sender)}, Vec2{}, receiver, Vec2{},
                   rng)) {
      ++losses;
    }
  }
  return losses;
}

/// Schedules a no-op at a uniform delay in [0, 100 ms): the bounded-delay
/// workload of the calendar-vs-heap comparison.
void schedule_random_delay(Simulator& sim, Rng& delays) {
  sim.schedule_after(
      SimTime::micros(std::int64_t(delays.uniform(0.0, 100000.0))), [] {});
}

/// One round: every sender transmits once.
std::size_t loss_round(LossModel& model,
                       const std::vector<std::vector<NodeId>>& lists,
                       Rng& rng) {
  std::size_t losses = 0;
  for (std::size_t s = 0; s < lists.size(); ++s) {
    losses += loss_fanout(model, s, lists[s], rng);
  }
  return losses;
}

void emit(runner::JsonlResultSink* sink, const char* bench, const char* metric,
          int n, double value) {
  if (sink != nullptr) {
    // Aggregate-init (not member-wise assignment): GCC 12's inliner flags the
    // SSO buffer of a default-constructed string as maybe-uninitialized when
    // `operator=(const char*)` is inlined here under -O2.
    sink->write(
        runner::BenchRecord{bench, metric, n, value, bench::options().label});
  }
}

void print_study(runner::JsonlResultSink* sink, bool smoke) {
  bench::banner("Kernel", "hot-path throughput (see BENCH_kernel.json)");
  std::printf("\n%-24s %8s %16s\n", "metric", "n", "value");

  // Graph construction: grid build vs the all-pairs reference.
  const std::vector<std::size_t> graph_sizes =
      smoke ? std::vector<std::size_t>{200}
            : std::vector<std::size_t>{500, 2000};
  const auto seed = bench::options().seed_or(19);
  for (std::size_t n : graph_sizes) {
    const ScenarioConfig field = paper_density(n);
    Rng rng(seed);
    const auto points = uniform_rect(n, field.width, field.height, rng);
    {  // warm-up
      UnitDiskGraph warm(points, 100.0);
      benchmark::DoNotOptimize(warm.size());
    }
    const int reps = smoke ? 1 : (n <= 500 ? 40 : 8);
    auto t0 = Clock::now();
    for (int r = 0; r < reps; ++r) {
      UnitDiskGraph graph(points, 100.0);
      benchmark::DoNotOptimize(graph.degree(0));
    }
    const double grid_ms = bench::ms_since(t0) / reps;
    t0 = Clock::now();
    for (int r = 0; r < reps; ++r) {
      auto graph = UnitDiskGraph::brute_force(points, 100.0);
      benchmark::DoNotOptimize(graph.degree(0));
    }
    const double brute_ms = bench::ms_since(t0) / reps;
    std::printf("%-24s %8zu %16.4f\n", "graph_build_ms", n, grid_ms);
    std::printf("%-24s %8zu %16.4f\n", "graph_build_brute_ms", n, brute_ms);
    emit(sink, "graph_build", "ms", int(n), grid_ms);
    emit(sink, "graph_build_brute", "ms", int(n), brute_ms);
  }

  // Schedule→fire throughput (steady-state: one pending event at a time).
  {
    Simulator sim;
    const int warm = smoke ? 1000 : 100000;
    for (int i = 0; i < warm; ++i) sim.schedule_at(SimTime::micros(i), [] {});
    sim.run_to_completion();
    const int ops = smoke ? 10000 : 2000000;
    const auto t0 = Clock::now();
    for (int i = 0; i < ops; ++i) {
      sim.schedule_at(sim.now() + SimTime::micros(1), [] {});
      (void)sim.step();  // exactly one event is queued
    }
    const double rate = ops / bench::ms_since(t0) * 1000.0;
    std::printf("%-24s %8s %16.0f\n", "sched_fire_ops_per_sec", "-", rate);
    emit(sink, "sched_fire", "ops_per_sec", 0, rate);
  }

  // Schedule→cancel→fire (the forwarder's arm-then-stand-down pattern).
  {
    Simulator sim;
    const int ops = smoke ? 10000 : 1000000;
    const auto t0 = Clock::now();
    for (int i = 0; i < ops; ++i) {
      auto cancelled = sim.schedule_at(sim.now() + SimTime::micros(2), [] {});
      sim.schedule_at(sim.now() + SimTime::micros(1), [] {});
      cancelled.cancel();
      sim.run_until(sim.now() + SimTime::micros(2));
    }
    const double rate = ops / bench::ms_since(t0) * 1000.0;
    std::printf("%-24s %8s %16.0f\n", "sched_cancel_ops_per_sec", "-", rate);
    emit(sink, "sched_cancel", "ops_per_sec", 0, rate);
  }

  // Calendar queue vs binary heap on an identical bounded-delay workload
  // (standing population of pending timers, schedule→fire steady state).
  {
    const auto run_queue = [&](QueueMode mode) {
      Simulator sim(mode);
      Rng delays(seed);
      const int population = 4096;
      const int ops = smoke ? 10000 : 1000000;
      for (int i = 0; i < population; ++i) schedule_random_delay(sim, delays);
      const auto t0 = Clock::now();
      for (int i = 0; i < ops; ++i) {
        schedule_random_delay(sim, delays);
        (void)sim.step();
      }
      return double(ops) / bench::ms_since(t0) * 1000.0;
    };
    const double calendar_rate = run_queue(QueueMode::kCalendar);
    const double heap_rate = run_queue(QueueMode::kHeap);
    std::printf("%-24s %8s %16.0f\n", "calendar_queue_ops_per_sec", "-",
                calendar_rate);
    std::printf("%-24s %8s %16.0f\n", "heap_queue_ops_per_sec", "-",
                heap_rate);
    emit(sink, "calendar_vs_heap", "calendar_ops_per_sec", 0, calendar_rate);
    emit(sink, "calendar_vs_heap", "heap_ops_per_sec", 0, heap_rate);
  }

  // Payload tag dispatch over a heartbeat/digest/update mix.
  {
    const auto frames = dispatch_frames();
    const long iters = smoke ? 10000 : 2000000;
    long hits = 0;
    const auto t0 = Clock::now();
    for (long i = 0; i < iters; ++i) {
      const auto& p = frames[std::size_t(i) & 63];
      if (payload_cast<HeartbeatPayload>(p) != nullptr) ++hits;
      else if (payload_cast<DigestPayload>(p) != nullptr) ++hits;
      else if (payload_cast_shared<HealthUpdatePayload>(p)) ++hits;
    }
    benchmark::DoNotOptimize(hits);
    const double rate = double(iters) / bench::ms_since(t0) * 1000.0;
    std::printf("%-24s %8s %16.0f\n", "payload_dispatch_ops_per_sec", "-",
                rate);
    emit(sink, "payload_dispatch", "ops_per_sec", 0, rate);
  }

  // Loss draw per candidate: 2000 senders x 48 receivers (the paper_2k
  // regime's mean fan-out), repeated rounds so per-link state is warm.
  {
    const std::size_t senders = smoke ? 200 : 2000;
    const std::size_t fanout = smoke ? 16 : 48;
    const auto lists = fanout_lists(senders, fanout, seed);
    const int rounds = smoke ? 2 : 20;
    const auto run_model = [&](LossModel& model) {
      Rng rng(seed + 2);
      std::size_t losses = loss_round(model, lists, rng);  // warm-up
      const auto t0 = Clock::now();
      for (int r = 0; r < rounds; ++r) losses += loss_round(model, lists, rng);
      const double ms = bench::ms_since(t0);
      benchmark::DoNotOptimize(losses);
      return ms * 1e6 / (double(rounds) * double(senders) * double(fanout));
    };
    BernoulliLoss bernoulli(0.1);
    GilbertElliottLoss gilbert_elliott(GilbertElliottLoss::Params{});
    const double bernoulli_ns = run_model(bernoulli);
    const double ge_ns = run_model(gilbert_elliott);
    std::printf("%-24s %8zu %16.2f\n", "loss_draw_bernoulli_ns", senders,
                bernoulli_ns);
    std::printf("%-24s %8zu %16.2f\n", "loss_draw_ge_ns", senders, ge_ns);
    emit(sink, "loss_draw", "bernoulli_ns_per_candidate", int(senders),
         bernoulli_ns);
    emit(sink, "loss_draw", "ge_ns_per_candidate", int(senders), ge_ns);
  }

  // End-to-end FDS epochs: every layer at once.
  const std::vector<std::size_t> e2e_sizes =
      smoke ? std::vector<std::size_t>{200}
            : std::vector<std::size_t>{500, 2000};
  for (std::size_t n : e2e_sizes) {
    ScenarioConfig config = paper_density(n);
    config.seed = seed;  // loss_p keeps its default, 0.1
    Scenario scenario(config);
    scenario.setup();
    scenario.run_epochs(1);  // warm-up
    const std::uint64_t before =
        scenario.network().simulator().events_executed();
    const std::uint64_t epochs = smoke ? 1 : (n <= 500 ? 6 : 3);
    const auto t0 = Clock::now();
    scenario.run_epochs(epochs);
    const double ms = bench::ms_since(t0);
    const std::uint64_t events =
        scenario.network().simulator().events_executed() - before;
    const double rate = double(events) / ms * 1000.0;
    std::printf("%-24s %8zu %16.0f\n", "events_per_sec", n, rate);
    emit(sink, "events_per_sec", "events_per_sec", int(n), rate);
  }
}

// --- google-benchmark timings -------------------------------------------

void BM_ScheduleFire(benchmark::State& state) {
  Simulator sim;
  for (auto _ : state) {
    sim.schedule_at(sim.now() + SimTime::micros(1), [] {});
    (void)sim.step();  // exactly one event is queued
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ScheduleFire);

void BM_ScheduleCancelFire(benchmark::State& state) {
  Simulator sim;
  for (auto _ : state) {
    auto cancelled = sim.schedule_at(sim.now() + SimTime::micros(2), [] {});
    sim.schedule_at(sim.now() + SimTime::micros(1), [] {});
    cancelled.cancel();
    sim.run_until(sim.now() + SimTime::micros(2));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ScheduleCancelFire);

void BM_GraphBuild(benchmark::State& state) {
  // Args: n, then 0 = the grid build, 1 = the all-pairs reference.
  const auto n = std::size_t(state.range(0));
  const ScenarioConfig field = paper_density(n);
  Rng rng(19);
  const auto points = uniform_rect(n, field.width, field.height, rng);
  for (auto _ : state) {
    const auto graph = state.range(1) == 0
                           ? UnitDiskGraph(points, 100.0)
                           : UnitDiskGraph::brute_force(points, 100.0);
    benchmark::DoNotOptimize(graph.degree(0));
  }
}
BENCHMARK(BM_GraphBuild)
    ->ArgsProduct({{500, 2000}, {0, 1}})
    ->Unit(benchmark::kMillisecond);

void BM_QueueScheduleFire(benchmark::State& state) {
  // Arg 0 = calendar queue, 1 = binary heap; identical bounded-delay
  // workload against a standing population of pending timers.
  Simulator sim(state.range(0) == 0 ? QueueMode::kCalendar : QueueMode::kHeap);
  Rng delays(19);
  for (int i = 0; i < 4096; ++i) schedule_random_delay(sim, delays);
  for (auto _ : state) {
    schedule_random_delay(sim, delays);
    (void)sim.step();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_QueueScheduleFire)->Arg(0)->Arg(1);

void BM_PayloadDispatch(benchmark::State& state) {
  const auto frames = dispatch_frames();
  std::size_t i = 0;
  long hits = 0;
  for (auto _ : state) {
    const auto& p = frames[i++ & 63];
    if (payload_cast<HeartbeatPayload>(p) != nullptr) ++hits;
    else if (payload_cast<DigestPayload>(p) != nullptr) ++hits;
    else if (payload_cast_shared<HealthUpdatePayload>(p)) ++hits;
  }
  benchmark::DoNotOptimize(hits);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PayloadDispatch);

void BM_LossDraw(benchmark::State& state) {
  // Arg 0 = Bernoulli, 1 = Gilbert-Elliott. One iteration is one sender's
  // whole fan-out; senders cycle so every link's state stays warm.
  const auto lists = fanout_lists(2000, 48, 19);
  BernoulliLoss bernoulli(0.1);
  GilbertElliottLoss gilbert_elliott(GilbertElliottLoss::Params{});
  LossModel& model = state.range(0) == 0
                         ? static_cast<LossModel&>(bernoulli)
                         : gilbert_elliott;
  Rng rng(21);
  std::size_t s = 0;
  std::size_t losses = 0;
  for (auto _ : state) {
    losses += loss_fanout(model, s, lists[s], rng);
    if (++s == lists.size()) s = 0;
  }
  benchmark::DoNotOptimize(losses);
  state.SetItemsProcessed(std::int64_t(state.iterations()) * 48);
}
BENCHMARK(BM_LossDraw)->Arg(0)->Arg(1);

}  // namespace

int main(int argc, char** argv) {
  cfds::bench::parse_common_args(argc, argv);
  const auto& opts = cfds::bench::options();
  const bool smoke = opts.trials > 0 && opts.trials < 100;
  const auto sink = cfds::bench::make_sink();
  print_study(sink.get(), smoke);
  return cfds::bench::run_timings(argc, argv);
}
