// Unit tests for the wireless substrate: loss models, promiscuous channel.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <new>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "event/simulator.h"
#include "radio/channel.h"
#include "radio/loss_model.h"

// Global allocation counter for the broadcast fan-out test below. Same
// pattern as tests/test_simulator.cpp: this binary overrides
// ::operator new/delete, and the counter only ticks between
// begin/end so the rest of the suite is unaffected.
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

void* operator new(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  void* ptr = std::malloc(size == 0 ? 1 : size);
  if (ptr == nullptr) throw std::bad_alloc();
  return ptr;
}

void operator delete(void* ptr) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { std::free(ptr); }

namespace cfds {
namespace {

template <typename Body>
std::size_t count_allocations(const Body& body) {
  g_allocations.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
  body();
  g_counting.store(false, std::memory_order_relaxed);
  return g_allocations.load(std::memory_order_relaxed);
}

struct TestPayload final : Payload {
  static constexpr PayloadKind kTag = PayloadKind::kTest;
  static constexpr bool matches(PayloadKind k) { return k == kTag; }
  TestPayload() : Payload(kTag) {}

  int value = 0;
  [[nodiscard]] std::string_view kind() const override { return "test"; }
  [[nodiscard]] std::size_t size_bytes() const override { return 4; }
};

PayloadPtr make_payload(int value) {
  auto p = std::make_shared<TestPayload>();
  p->value = value;
  return p;
}

/// Owns the tests' receive callbacks and registers each with its radio
/// through the radio's raw handler.
class Listeners {
 public:
  using Callback = std::function<void(const Reception&)>;

  void listen(Radio& radio, Callback callback) {
    callbacks_.push_back(std::make_unique<Callback>(std::move(callback)));
    radio.set_receive_handler(
        [](void* ctx, const Reception& reception) {
          (*static_cast<Callback*>(ctx))(reception);
        },
        callbacks_.back().get());
  }

 private:
  std::vector<std::unique_ptr<Callback>> callbacks_;
};

class ChannelFixture : public ::testing::Test {
 protected:
  ChannelFixture()
      : loss_(), channel_(sim_, loss_, ChannelConfig{}, Rng(1)) {}

  Radio& add_radio(std::uint32_t id, Vec2 pos) {
    const std::uint32_t slot = store_.add(pos);
    radios_.push_back(std::make_unique<Radio>(store_, slot, NodeId{id}));
    channel_.attach(*radios_.back());
    return *radios_.back();
  }

  void listen(Radio& radio, Listeners::Callback callback) {
    listeners_.listen(radio, std::move(callback));
  }

  Simulator sim_;
  PerfectLinks loss_;
  Channel channel_;
  NodeStore store_;
  std::vector<std::unique_ptr<Radio>> radios_;
  Listeners listeners_;
};

TEST_F(ChannelFixture, DeliversWithinRange) {
  Radio& a = add_radio(0, {0, 0});
  Radio& b = add_radio(1, {50, 0});
  int received = 0;
  listen(b, [&](const Reception& r) {
    EXPECT_EQ(r.sender, NodeId{0});
    EXPECT_EQ(payload_cast<TestPayload>(r.payload)->value, 42);
    ++received;
  });
  a.send(make_payload(42));
  sim_.run_to_completion();
  EXPECT_EQ(received, 1);
}

TEST_F(ChannelFixture, DoesNotDeliverBeyondRange) {
  Radio& a = add_radio(0, {0, 0});
  Radio& b = add_radio(1, {150, 0});  // default range is 100
  int received = 0;
  listen(b, [&](const Reception&) { ++received; });
  a.send(make_payload(1));
  sim_.run_to_completion();
  EXPECT_EQ(received, 0);
}

TEST_F(ChannelFixture, PromiscuousDeliveryToAllNeighbors) {
  Radio& a = add_radio(0, {0, 0});
  int receptions = 0;
  std::vector<Radio*> listeners;
  for (std::uint32_t i = 1; i <= 5; ++i) {
    Radio& r = add_radio(i, {double(i) * 10.0, 0});
    listen(r, [&](const Reception& rec) {
      // Addressed to node 3, but everyone in range hears it.
      EXPECT_EQ(rec.intended, NodeId{3});
      ++receptions;
    });
  }
  a.send(make_payload(7), NodeId{3});
  sim_.run_to_completion();
  EXPECT_EQ(receptions, 5);
}

TEST_F(ChannelFixture, SenderDoesNotHearItself) {
  Radio& a = add_radio(0, {0, 0});
  int self_receptions = 0;
  listen(a, [&](const Reception&) { ++self_receptions; });
  a.send(make_payload(1));
  sim_.run_to_completion();
  EXPECT_EQ(self_receptions, 0);
}

TEST_F(ChannelFixture, PoweredOffRadioNeitherSendsNorReceives) {
  Radio& a = add_radio(0, {0, 0});
  Radio& b = add_radio(1, {10, 0});
  int received = 0;
  listen(b, [&](const Reception&) { ++received; });

  b.set_powered(false);
  a.send(make_payload(1));
  sim_.run_to_completion();
  EXPECT_EQ(received, 0);

  b.set_powered(true);
  a.set_powered(false);
  a.send(make_payload(2));  // silently dropped
  sim_.run_to_completion();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(a.counters().frames_sent, 1u);  // only the powered send counted
}

TEST_F(ChannelFixture, CrashBetweenEmissionAndArrivalDropsFrame) {
  Radio& a = add_radio(0, {0, 0});
  Radio& b = add_radio(1, {10, 0});
  int received = 0;
  listen(b, [&](const Reception&) { ++received; });
  a.send(make_payload(1));
  b.set_powered(false);  // crashes while the frame is in flight
  sim_.run_to_completion();
  EXPECT_EQ(received, 0);
}

TEST_F(ChannelFixture, DeliveryWithinOneHopBound) {
  Radio& a = add_radio(0, {0, 0});
  Radio& b = add_radio(1, {10, 0});
  SimTime arrival = SimTime::zero();
  listen(b, [&](const Reception& r) {
    arrival = sim_.now();
    EXPECT_EQ(r.sent_at, SimTime::zero());
  });
  a.send(make_payload(1));
  sim_.run_to_completion();
  EXPECT_GT(arrival, SimTime::zero());
  EXPECT_LT(arrival, channel_.config().t_hop);
}

TEST_F(ChannelFixture, CountersTrackTraffic) {
  Radio& a = add_radio(0, {0, 0});
  Radio& b = add_radio(1, {10, 0});
  listen(b, [](const Reception&) {});
  a.send(make_payload(1));
  a.send(make_payload(2));
  sim_.run_to_completion();
  EXPECT_EQ(a.counters().frames_sent, 2u);
  EXPECT_EQ(a.counters().bytes_sent, 8u);
  EXPECT_EQ(b.counters().frames_received, 2u);
  EXPECT_EQ(channel_.stats().transmissions, 2u);
  EXPECT_EQ(channel_.stats().deliveries, 2u);
}

TEST_F(ChannelFixture, NeighborsOfUsesRange) {
  add_radio(0, {0, 0});
  add_radio(1, {50, 0});
  add_radio(2, {99, 0});
  add_radio(3, {101, 0});
  const auto neighbors = channel_.neighbors_of(NodeId{0});
  EXPECT_EQ(neighbors.size(), 2u);
}

// --- Delivery order --------------------------------------------------------

// FNV-1a over 64-bit words: a stable digest of a delivery sequence.
void fnv_mix(std::uint64_t& hash, std::uint64_t word) {
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (word >> (8 * byte)) & 0xFF;
    hash *= 0x100000001B3ull;
  }
}

TEST(ChannelOrder, DeliverySequenceIsPinned) {
  // Twenty radios in a field wider than the range, Bernoulli loss and the
  // channel's random delays, fifty broadcasts with several in flight at
  // once. The (time, receiver, sender) sequence pins the loss and delay
  // draws, the receiver order and the firing order of batched deliveries;
  // a new hash means the channel changed what runs do.
  Simulator sim;
  BernoulliLoss loss(0.3);
  Channel channel(sim, loss, ChannelConfig{}, Rng(21));
  NodeStore store;
  std::vector<std::unique_ptr<Radio>> radios;
  Rng placement(22);
  Listeners listeners;
  std::uint64_t hash = 0xCBF29CE484222325ull;
  std::size_t deliveries = 0;
  for (std::uint32_t i = 0; i < 20; ++i) {
    const Vec2 pos{placement.uniform(0.0, 180.0),
                   placement.uniform(0.0, 180.0)};
    const std::uint32_t slot = store.add(pos);
    radios.push_back(std::make_unique<Radio>(store, slot, NodeId{i}));
    channel.attach(*radios.back());
    listeners.listen(*radios.back(), [&, i](const Reception& r) {
      fnv_mix(hash, std::uint64_t(sim.now().as_micros()));
      fnv_mix(hash, i);
      fnv_mix(hash, r.sender.value());
      ++deliveries;
    });
  }
  for (int burst = 0; burst < 10; ++burst) {
    for (int k = 0; k < 5; ++k) {
      radios[placement.below(20)]->send(make_payload(burst));
    }
    sim.run_until(sim.now() + SimTime::millis(50));
  }
  sim.run_to_completion();
  EXPECT_EQ(channel.stats().transmissions, 50u);
  EXPECT_EQ(deliveries, channel.stats().deliveries);
  EXPECT_EQ(deliveries, 408u);
  EXPECT_EQ(hash, 7853534981119160854ull);
}

TEST(ChannelOrderDeathTest, RadiosMustAttachInSlotOrder) {
  Simulator sim;
  PerfectLinks loss;
  Channel channel(sim, loss, ChannelConfig{}, Rng(1));
  NodeStore store;
  store.add({0, 0});
  const std::uint32_t second = store.add({10, 0});
  Radio out_of_order(store, second, NodeId{1});
  EXPECT_DEATH(channel.attach(out_of_order), "slot order");
}

TEST(LossModels, BernoulliMatchesProbability) {
  BernoulliLoss loss(0.3);
  Rng rng(5);
  int lost = 0;
  const int trials = 100000;
  for (int i = 0; i < trials; ++i) {
    if (loss.lost(NodeId{0}, {0, 0}, NodeId{1}, {1, 1}, rng)) ++lost;
  }
  EXPECT_NEAR(double(lost) / trials, 0.3, 0.01);
}

TEST(LossModels, BernoulliExtremes) {
  Rng rng(5);
  BernoulliLoss never(0.0);
  BernoulliLoss always(1.0);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(never.lost(NodeId{0}, {}, NodeId{1}, {}, rng));
    EXPECT_TRUE(always.lost(NodeId{0}, {}, NodeId{1}, {}, rng));
  }
}

TEST(LossModels, GilbertElliottStationaryLossFormula) {
  // stationary = f * p_bad + (1-f) * p_good with f = p_gb / (p_gb + p_bg).
  GilbertElliottLoss::Params params;
  params.p_good = 0.02;
  params.p_bad = 0.7;
  params.p_gb = 0.1;
  params.p_bg = 0.4;
  const double f = params.p_gb / (params.p_gb + params.p_bg);
  EXPECT_NEAR(GilbertElliottLoss(params).stationary_loss(),
              f * params.p_bad + (1.0 - f) * params.p_good, 1e-12);

  // A chain that almost never enters Bad approaches Bernoulli(p_good).
  params.p_gb = 1e-9;
  EXPECT_NEAR(GilbertElliottLoss(params).stationary_loss(), params.p_good,
              1e-6);
}

TEST(LossModels, GilbertElliottBurstLengthExceedsMatchedBernoulli) {
  GilbertElliottLoss::Params params;
  params.p_good = 0.01;
  params.p_bad = 0.9;
  params.p_gb = 0.05;
  params.p_bg = 0.3;
  GilbertElliottLoss loss(params);
  Rng rng(13);

  // One long seeded sample on a single link: empirical rate and the mean
  // length of consecutive-loss runs.
  const int trials = 400000;
  int lost = 0, bursts = 0, run = 0;
  double burst_total = 0.0;
  for (int i = 0; i < trials; ++i) {
    if (loss.lost(NodeId{0}, {}, NodeId{1}, {}, rng)) {
      ++lost;
      ++run;
    } else if (run > 0) {
      ++bursts;
      burst_total += run;
      run = 0;
    }
  }
  const double rate = double(lost) / trials;
  EXPECT_NEAR(rate, loss.stationary_loss(), 0.01);

  // An iid Bernoulli channel with the same rate has mean burst 1/(1-p);
  // the whole point of Gilbert-Elliott is to be burstier than that.
  const double mean_burst = burst_total / bursts;
  const double bernoulli_burst = 1.0 / (1.0 - rate);
  EXPECT_GT(mean_burst, 2.0 * bernoulli_burst);
}

TEST(LossModels, GilbertElliottMatchesStationaryRate) {
  GilbertElliottLoss::Params params;
  GilbertElliottLoss loss(params);
  Rng rng(7);
  int lost = 0;
  const int trials = 400000;
  for (int i = 0; i < trials; ++i) {
    if (loss.lost(NodeId{0}, {}, NodeId{1}, {}, rng)) ++lost;
  }
  EXPECT_NEAR(double(lost) / trials, loss.stationary_loss(), 0.01);
}

TEST(LossModels, GilbertElliottIsBursty) {
  // Consecutive losses on one link should exceed the iid expectation.
  GilbertElliottLoss::Params params;
  params.p_good = 0.01;
  params.p_bad = 0.9;
  GilbertElliottLoss loss(params);
  Rng rng(9);
  int pairs = 0, both = 0;
  bool prev = false;
  for (int i = 0; i < 200000; ++i) {
    const bool cur = loss.lost(NodeId{0}, {}, NodeId{1}, {}, rng);
    if (i > 0) {
      ++pairs;
      if (prev && cur) ++both;
    }
    prev = cur;
  }
  const double stationary = loss.stationary_loss();
  EXPECT_GT(double(both) / pairs, stationary * stationary * 1.5);
}

// Reference copy of the Gilbert-Elliott model as it was first written: one
// hash-map entry per directed link, value-initialised to Good on first
// touch. The shipped model must reproduce it draw for draw.
class PerLinkMapGilbertElliott {
 public:
  explicit PerLinkMapGilbertElliott(GilbertElliottLoss::Params params)
      : params_(params) {}

  bool lost(NodeId sender, NodeId receiver, Rng& rng) {
    const std::uint64_t key =
        (std::uint64_t(sender.value()) << 32) | receiver.value();
    bool& bad = link_bad_[key];
    bad = bad ? !rng.bernoulli(params_.p_bg) : rng.bernoulli(params_.p_gb);
    return rng.bernoulli(bad ? params_.p_bad : params_.p_good);
  }

 private:
  GilbertElliottLoss::Params params_;
  std::unordered_map<std::uint64_t, bool> link_bad_;
};

TEST(LossModels, GilbertElliottMatchesPerLinkMapOracle) {
  GilbertElliottLoss::Params params;
  params.p_good = 0.05;
  params.p_bad = 0.8;
  params.p_gb = 0.2;  // frequent flips: rows grow and shrink often
  params.p_bg = 0.3;
  GilbertElliottLoss model(params);
  PerLinkMapGilbertElliott oracle(params);
  Rng model_rng(23);
  Rng oracle_rng(23);
  Rng links(24);  // picks the links; shared by neither model

  constexpr std::uint32_t kNodes = 64;
  const NodeId far_receiver{5000};  // larger than any other NID
  std::size_t calls = 0;
  const auto step = [&](NodeId sender, NodeId receiver) {
    ++calls;
    ASSERT_EQ(model.lost(sender, {}, receiver, {}, model_rng),
              oracle.lost(sender, receiver, oracle_rng))
        << "call " << calls << ": " << sender << " -> " << receiver;
  };

  // First touch of every sender in descending NID order, so the rows are
  // sized by the first call and filled in from the top down.
  for (std::uint32_t s = kNodes; s-- > 0;) {
    step(NodeId{s}, far_receiver);
    if (::testing::Test::HasFatalFailure()) return;
  }
  // Random directed links, both directions of each pair. In the second
  // half the far receiver sends too, so the rows grow with state in them.
  while (calls < 120000) {
    const NodeId a{std::uint32_t(links.below(kNodes))};
    const NodeId b{std::uint32_t(links.below(kNodes))};
    if (a == b) continue;
    step(a, b);
    step(b, a);
    if (links.below(16) == 0) {
      step(a, far_receiver);
      if (calls > 60000) step(far_receiver, a);
    }
    if (::testing::Test::HasFatalFailure()) return;
  }
  // Both generators consumed exactly the same draws.
  EXPECT_EQ(model_rng(), oracle_rng());
}

TEST(LossModels, GilbertElliottLinksAreDirectedAndIndependent) {
  // Deterministic chain: every step flips the state, Good never loses and
  // Bad always does, so each call's result reveals the state it entered.
  GilbertElliottLoss::Params params;
  params.p_good = 0.0;
  params.p_bad = 1.0;
  params.p_gb = 1.0;
  params.p_bg = 1.0;
  GilbertElliottLoss loss(params);
  Rng rng(3);
  const NodeId a{7}, b{2}, c{40};
  EXPECT_TRUE(loss.lost(a, {}, b, {}, rng));   // a->b: Good -> Bad
  EXPECT_TRUE(loss.lost(b, {}, a, {}, rng));   // b->a was still Good
  EXPECT_TRUE(loss.lost(a, {}, c, {}, rng));   // a->c was still Good
  EXPECT_FALSE(loss.lost(a, {}, b, {}, rng));  // a->b was still Bad
}

TEST(LossModels, DistanceLossGrowsWithDistance) {
  DistanceLoss loss(0.05, 0.6, 100.0);
  EXPECT_NEAR(loss.probability_at(0.0), 0.05, 1e-12);
  EXPECT_NEAR(loss.probability_at(100.0), 0.6, 1e-12);
  EXPECT_LT(loss.probability_at(30.0), loss.probability_at(90.0));
  EXPECT_NEAR(loss.probability_at(500.0), 0.6, 1e-12);  // clamped
}

// --- Broadcast fan-out allocation behavior ----------------------------

TEST_F(ChannelFixture, SteadyStateBroadcastIsAllocationFreeRegardlessOfFanout) {
  // A broadcast to k receivers must cost O(1) allocations, not O(k): one
  // pooled Transmission record shared by every delivery, one batch timer
  // slot, and k trivially-copyable queue entries in pre-grown buckets. At
  // steady state (slab, pool, and buckets warmed) that is zero allocations
  // per broadcast — for 8 receivers or 64.
  // Delivery delays spread each broadcast across ~160 calendar buckets and
  // simulated time keeps advancing into fresh ones, so pre-grow the wheel
  // (Simulator::reserve spreads the budget per bucket).
  sim_.reserve(8 * CalendarQueue::kNumBuckets);
  Radio& sender = add_radio(0, {50, 50});
  constexpr std::uint32_t kReceivers = 64;
  int received = 0;
  for (std::uint32_t i = 1; i <= kReceivers; ++i) {
    // An 8x8 grid with 10 m pitch: every receiver is within the default
    // 100 m range of the sender at (50, 50).
    Radio& r = add_radio(i, {double((i - 1) % 8) * 10.0,
                             double((i - 1) / 8) * 10.0});
    listen(r, [&received](const Reception&) { ++received; });
  }
  PayloadPtr payload = make_payload(7);
  for (int i = 0; i < 50; ++i) {  // warm up to steady state
    sender.send(payload);
    sim_.run_to_completion();
  }
  received = 0;
  const std::size_t allocations = count_allocations([&] {
    for (int i = 0; i < 100; ++i) {
      sender.send(payload);
      sim_.run_to_completion();
    }
  });
  EXPECT_EQ(allocations, 0u);
  EXPECT_EQ(received, int(100 * kReceivers));
  EXPECT_EQ(channel_.stats().max_fanout, std::uint64_t(kReceivers));
}

}  // namespace
}  // namespace cfds
