// Service-mode transport/clock seam: RealTimeScheduler semantics, the
// in-process loopback medium and the service flags soak_harness hands each
// cfds_serve (tests/test_wire.cpp covers the byte codec; the UDP endpoint is
// exercised end-to-end by tools/soak_harness).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/flags.h"
#include "common/ids.h"
#include "common/sim_time.h"
#include "event/simulator.h"
#include "fds/messages.h"
#include "radio/payload.h"
#include "service/config.h"
#include "transport/loopback.h"
#include "transport/real_time.h"
#include "transport/reception.h"

namespace cfds {
namespace {

[[nodiscard]] PayloadPtr heartbeat(NodeId sender, bool marked = true) {
  auto hb = std::make_shared<HeartbeatPayload>();
  hb->sender = sender;
  hb->marked = marked;
  return hb;
}

/// Collects every reception a transport dispatches.
struct Sink {
  std::vector<Reception> seen;

  static void thunk(void* ctx, const Reception& reception) {
    static_cast<Sink*>(ctx)->seen.push_back(reception);
  }
};

void sleep_ms(int ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

// --- RealTimeScheduler ----------------------------------------------------

TEST(RealTimeScheduler, AnchorOffsetsTheClock) {
  RealTimeScheduler plain;
  RealTimeScheduler anchored(SimTime::seconds(5));
  EXPECT_GE(plain.now(), SimTime::zero());
  EXPECT_GE(anchored.now(), SimTime::seconds(5));
}

TEST(RealTimeScheduler, NowAdvancesWithWallClock) {
  RealTimeScheduler sched;
  const SimTime before = sched.now();
  sleep_ms(5);
  EXPECT_GT(sched.now(), before);
}

TEST(RealTimeScheduler, TimerFiresOnceDue) {
  RealTimeScheduler sched;
  bool fired = false;
  sched.schedule_after(SimTime::millis(10), [&] { fired = true; });
  // Not due yet: the deadline is 10ms out.
  sched.run_due();
  EXPECT_FALSE(fired);
  sleep_ms(30);
  EXPECT_GT(sched.run_due(), 0u);
  EXPECT_TRUE(fired);
}

TEST(RealTimeScheduler, PastDeadlineFiresOnNextRunDue) {
  RealTimeScheduler sched(SimTime::seconds(10));
  bool fired = false;
  // Before the embedded clock ever advanced — clamped, not dropped.
  sched.schedule_at(SimTime::seconds(1), [&] { fired = true; });
  sched.run_due();
  EXPECT_TRUE(fired);
}

TEST(RealTimeScheduler, CancelledTimerNeverFires) {
  RealTimeScheduler sched;
  bool fired = false;
  TimerHandle handle =
      sched.schedule_after(SimTime::millis(1), [&] { fired = true; });
  handle.cancel();
  sleep_ms(10);
  sched.run_due();
  EXPECT_FALSE(fired);
}

TEST(RealTimeScheduler, NextDeadlineReflectsPendingTimers) {
  RealTimeScheduler sched;
  SimTime when;
  EXPECT_FALSE(sched.next_deadline(&when));
  sched.schedule_after(SimTime::seconds(1), [] {});
  EXPECT_TRUE(sched.next_deadline(&when));
  EXPECT_EQ(sched.pending_timers(), 1u);
}

// --- Simulator as the TimerService ----------------------------------------

TEST(SimulatorTimerService, SchedulesAndCancelsThroughTheInterface) {
  Simulator sim;
  TimerService& timers = sim;
  std::vector<int> order;
  timers.schedule_after(SimTime::seconds(2), [&] { order.push_back(2); });
  TimerHandle cancelled =
      timers.schedule_at(SimTime::millis(1500), [&] { order.push_back(3); });
  timers.schedule_at(SimTime::seconds(1), [&] { order.push_back(1); });
  EXPECT_TRUE(cancelled.pending());
  cancelled.cancel();
  EXPECT_FALSE(cancelled.pending());
  sim.run_until(SimTime::seconds(3));
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(timers.now(), sim.now());
  EXPECT_EQ(timers.now(), SimTime::seconds(3));
}

// --- Loopback medium ------------------------------------------------------

TEST(Loopback, BroadcastReachesEveryOtherEndpoint) {
  LoopbackNet net({NodeId{1}, NodeId{2}, NodeId{3}});
  LoopbackTransport a(net, NodeId{1});
  LoopbackTransport b(net, NodeId{2});
  LoopbackTransport c(net, NodeId{3});
  Sink sb;
  Sink sc;
  b.add_frame_handler(&Sink::thunk, &sb);
  c.add_frame_handler(&Sink::thunk, &sc);

  a.send(heartbeat(NodeId{1}), NodeId::invalid());

  // The sender's own inbox stays empty; both listeners hear one frame.
  EXPECT_EQ(a.drain(SimTime::zero()), 0u);
  ASSERT_EQ(b.drain(SimTime::millis(7)), 1u);
  ASSERT_EQ(c.drain(SimTime::zero()), 1u);
  EXPECT_EQ(sb.seen[0].sender, NodeId{1});
  EXPECT_EQ(sb.seen[0].intended, NodeId::invalid());
  EXPECT_EQ(sb.seen[0].sent_at, SimTime::millis(7));
  const auto* hb = payload_cast<HeartbeatPayload>(sc.seen[0].payload);
  ASSERT_NE(hb, nullptr);
  EXPECT_EQ(hb->sender, NodeId{1});
  EXPECT_TRUE(hb->marked);
}

TEST(Loopback, AddressedFramesAreStillOverheard) {
  LoopbackNet net({NodeId{1}, NodeId{2}, NodeId{3}});
  LoopbackTransport a(net, NodeId{1});
  LoopbackTransport b(net, NodeId{2});
  LoopbackTransport c(net, NodeId{3});
  Sink sb;
  Sink sc;
  b.add_frame_handler(&Sink::thunk, &sb);
  c.add_frame_handler(&Sink::thunk, &sc);

  a.send(heartbeat(NodeId{1}), NodeId{2});

  // Promiscuous delivery: node 3 overhears the frame addressed to node 2.
  ASSERT_EQ(b.drain(SimTime::zero()), 1u);
  ASSERT_EQ(c.drain(SimTime::zero()), 1u);
  EXPECT_EQ(sb.seen[0].intended, NodeId{2});
  EXPECT_EQ(sc.seen[0].intended, NodeId{2});
}

TEST(Loopback, HandlersFireInRegistrationOrder) {
  LoopbackNet net({NodeId{1}, NodeId{2}});
  LoopbackTransport a(net, NodeId{1});
  LoopbackTransport b(net, NodeId{2});
  std::vector<int> order;
  struct Tag {
    std::vector<int>* order;
    int id;
  };
  Tag first{&order, 1};
  Tag second{&order, 2};
  const auto record = [](void* ctx, const Reception&) {
    auto* tag = static_cast<Tag*>(ctx);
    tag->order->push_back(tag->id);
  };
  b.add_frame_handler(record, &first);
  b.add_frame_handler(record, &second);

  a.send(heartbeat(NodeId{1}), NodeId::invalid());
  ASSERT_EQ(b.drain(SimTime::zero()), 1u);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Loopback, DarkRadioNeitherSendsNorReceives) {
  LoopbackNet net({NodeId{1}, NodeId{2}});
  LoopbackTransport a(net, NodeId{1});
  LoopbackTransport b(net, NodeId{2});
  Sink sink;
  b.add_frame_handler(&Sink::thunk, &sink);

  // Unpowered receiver: frames sent while dark are never queued.
  b.set_powered(false);
  EXPECT_FALSE(b.powered());
  a.send(heartbeat(NodeId{1}), NodeId::invalid());
  b.set_powered(true);
  EXPECT_EQ(b.drain(SimTime::zero()), 0u);

  // Unpowered sender: nothing leaves the endpoint.
  a.set_powered(false);
  a.send(heartbeat(NodeId{1}), NodeId::invalid());
  a.set_powered(true);
  EXPECT_EQ(b.drain(SimTime::zero()), 0u);
  EXPECT_TRUE(sink.seen.empty());
}

TEST(Loopback, PowerDownLosesUndrainedFrames) {
  LoopbackNet net({NodeId{1}, NodeId{2}});
  LoopbackTransport a(net, NodeId{1});
  LoopbackTransport b(net, NodeId{2});
  Sink sink;
  b.add_frame_handler(&Sink::thunk, &sink);

  a.send(heartbeat(NodeId{1}), NodeId::invalid());
  // Queued but not yet drained: a crash between reception and processing
  // drops the frame, exactly like a real radio losing its buffer.
  b.set_powered(false);
  b.set_powered(true);
  EXPECT_EQ(b.drain(SimTime::zero()), 0u);
}

TEST(Loopback, WaitReturnsWhenAFrameArrives) {
  LoopbackNet net({NodeId{1}, NodeId{2}});
  LoopbackTransport a(net, NodeId{1});
  LoopbackTransport b(net, NodeId{2});
  EXPECT_FALSE(b.wait(SimTime::zero()));  // empty inbox, no blocking
  a.send(heartbeat(NodeId{1}), NodeId::invalid());
  EXPECT_TRUE(b.wait(SimTime::zero()));
  EXPECT_TRUE(b.wait(SimTime::seconds(1)));  // non-empty: returns at once
}

TEST(Loopback, TwoThreadsExchangeFrames) {
  constexpr int kFrames = 50;
  LoopbackNet net({NodeId{10}, NodeId{20}});
  LoopbackTransport a(net, NodeId{10});
  LoopbackTransport b(net, NodeId{20});

  // Each thread owns one endpoint: sends its burst, then drains until it
  // has heard the peer's full burst — the wait()/drain() loop cfds_serve
  // runs, compressed.
  const auto worker = [](LoopbackTransport& mine, NodeId self,
                         std::atomic<int>& received) {
    Sink sink;
    mine.add_frame_handler(&Sink::thunk, &sink);
    for (int i = 0; i < kFrames; ++i) mine.send(heartbeat(self), NodeId::invalid());
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (static_cast<int>(sink.seen.size()) < kFrames &&
           std::chrono::steady_clock::now() < deadline) {
      mine.wait(SimTime::millis(10));
      mine.drain(SimTime::zero());
    }
    received = static_cast<int>(sink.seen.size());
  };
  std::atomic<int> got_a{0};
  std::atomic<int> got_b{0};
  std::thread ta([&] { worker(a, NodeId{10}, got_a); });
  std::thread tb([&] { worker(b, NodeId{20}, got_b); });
  ta.join();
  tb.join();
  EXPECT_EQ(got_a, kFrames);
  EXPECT_EQ(got_b, kFrames);
}

// soak_harness --mode procs starts each cfds_serve with service_argv; the
// endpoint must read back the very config the harness runs in threads mode,
// loss probabilities below 1e-6 and with nine digits included.
TEST(ServiceFlags, ArgvParsesBackToTheSameConfig) {
  std::vector<std::pair<service::ServiceConfig, std::uint16_t>> cases;
  cases.emplace_back(service::ServiceConfig{}, 19000);
  for (double loss_p : {0.0000005, 0.123456789}) {
    service::ServiceConfig config;
    config.node_count = 200;
    config.cluster_size = 7;
    config.t_hop = SimTime::millis(71);
    config.phi = SimTime::millis(499);
    config.epochs = 60;
    config.warmup_epochs = 3;
    config.seed = 18446744073709551615u;
    config.loss_p = loss_p;
    config.adaptive = true;
    config.checkpoint = true;
    cases.emplace_back(config, 65535);
  }
  for (const auto& [config, port_base] : cases) {
    std::vector<std::string> args = service::service_argv(config, port_base);
    std::vector<char*> argv = {const_cast<char*>("cfds_serve")};
    for (std::string& arg : args) argv.push_back(arg.data());
    argv.push_back(nullptr);
    int argc = int(argv.size()) - 1;

    service::ServiceConfig parsed;
    parsed.node_count = 1;  // not the default: every field must be written
    parsed.loss_p = 0.5;
    std::uint16_t parsed_port = 0;
    FlagSet flags;
    service::add_service_flags(flags, parsed, parsed_port);
    std::string error;
    ASSERT_TRUE(flags.parse(argc, argv.data(), &error)) << error;
    EXPECT_EQ(argc, 1) << argv[1];
    EXPECT_EQ(parsed, config) << "loss_p " << config.loss_p;
    EXPECT_EQ(parsed.loss_p, config.loss_p);
    EXPECT_EQ(parsed_port, port_base);
  }
}

}  // namespace
}  // namespace cfds
