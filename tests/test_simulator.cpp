// Unit tests for the discrete-event kernel.

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <new>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "event/simulator.h"

// Global allocation counter for the zero-allocation tests below. This binary
// overrides ::operator new/delete; the counter only ticks between
// begin_counting/end_counting so the rest of the suite is unaffected.
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

std::size_t count_allocations(const std::function<void()>& body) {
  g_allocations.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
  body();
  g_counting.store(false, std::memory_order_relaxed);
  return g_allocations.load(std::memory_order_relaxed);
}

TEST(Simulator, StartsAtZero) {
  Simulator sim;
  EXPECT_EQ(sim.now(), SimTime::zero());
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(Simulator, ExecutesInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(SimTime::millis(30), [&] { order.push_back(3); });
  sim.schedule_at(SimTime::millis(10), [&] { order.push_back(1); });
  sim.schedule_at(SimTime::millis(20), [&] { order.push_back(2); });
  sim.run_to_completion();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), SimTime::millis(30));
}

TEST(Simulator, SimultaneousEventsKeepSchedulingOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(SimTime::millis(5), [&order, i] { order.push_back(i); });
  }
  sim.run_to_completion();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[std::size_t(i)], i);
}

TEST(Simulator, ScheduleAfterIsRelative) {
  Simulator sim;
  SimTime fired = SimTime::zero();
  sim.schedule_at(SimTime::millis(10), [&] {
    sim.schedule_after(SimTime::millis(5), [&] { fired = sim.now(); });
  });
  sim.run_to_completion();
  EXPECT_EQ(fired, SimTime::millis(15));
}

TEST(Simulator, RunUntilStopsAtDeadlineInclusive) {
  Simulator sim;
  int count = 0;
  sim.schedule_at(SimTime::millis(10), [&] { ++count; });
  sim.schedule_at(SimTime::millis(20), [&] { ++count; });
  sim.schedule_at(SimTime::millis(30), [&] { ++count; });
  sim.run_until(SimTime::millis(20));
  EXPECT_EQ(count, 2);
  EXPECT_EQ(sim.now(), SimTime::millis(20));
  sim.run_until(SimTime::millis(100));
  EXPECT_EQ(count, 3);
  EXPECT_EQ(sim.now(), SimTime::millis(100));  // clock advances to deadline
}

TEST(Simulator, CancelledEventsDoNotFire) {
  Simulator sim;
  bool fired = false;
  TimerHandle handle =
      sim.schedule_at(SimTime::millis(10), [&] { fired = true; });
  EXPECT_TRUE(handle.pending());
  handle.cancel();
  EXPECT_FALSE(handle.pending());
  sim.run_to_completion();
  EXPECT_FALSE(fired);
}

TEST(Simulator, CancelIsIdempotentAndSafeAfterFire) {
  Simulator sim;
  TimerHandle handle = sim.schedule_at(SimTime::millis(1), [] {});
  sim.run_to_completion();
  EXPECT_FALSE(handle.pending());
  handle.cancel();  // no-op after firing
  handle.cancel();
}

TEST(Simulator, DefaultHandleIsInert) {
  TimerHandle handle;
  EXPECT_FALSE(handle.pending());
  handle.cancel();  // must not crash
}

TEST(Simulator, EventsCanScheduleMoreEvents) {
  Simulator sim;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 50) sim.schedule_after(SimTime::millis(1), chain);
  };
  sim.schedule_at(SimTime::zero(), chain);
  sim.run_to_completion();
  EXPECT_EQ(depth, 50);
  EXPECT_EQ(sim.now(), SimTime::millis(49));
}

TEST(Simulator, StepExecutesExactlyOne) {
  Simulator sim;
  int count = 0;
  sim.schedule_at(SimTime::millis(1), [&] { ++count; });
  sim.schedule_at(SimTime::millis(2), [&] { ++count; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(count, 2);
  EXPECT_FALSE(sim.step());
}

TEST(Simulator, CountsExecutedEvents) {
  Simulator sim;
  for (int i = 0; i < 7; ++i) sim.schedule_at(SimTime::millis(i), [] {});
  sim.run_to_completion();
  EXPECT_EQ(sim.events_executed(), 7u);
}

TEST(Simulator, CancelledEventsAreNotCounted) {
  Simulator sim;
  auto h = sim.schedule_at(SimTime::millis(1), [] {});
  sim.schedule_at(SimTime::millis(2), [] {});
  h.cancel();
  sim.run_to_completion();
  EXPECT_EQ(sim.events_executed(), 1u);
}

// --- Slot reuse and handle generations --------------------------------

TEST(Simulator, StaleHandleCannotCancelARecycledSlot) {
  Simulator sim;
  TimerHandle stale = sim.schedule_at(SimTime::millis(1), [] {});
  sim.run_to_completion();  // frees the slot
  bool fired = false;
  // The freelist hands the same slot to the next event; the stale handle's
  // generation no longer matches, so cancel() must be a no-op.
  sim.schedule_at(SimTime::millis(2), [&] { fired = true; });
  stale.cancel();
  EXPECT_FALSE(stale.pending());
  sim.run_to_completion();
  EXPECT_TRUE(fired);
}

TEST(Simulator, HandleIsNotPendingWhileItsEventRuns) {
  Simulator sim;
  TimerHandle handle;
  bool pending_inside = true;
  handle = sim.schedule_at(SimTime::millis(1),
                           [&] { pending_inside = handle.pending(); });
  sim.run_to_completion();
  EXPECT_FALSE(pending_inside);
}

TEST(Simulator, ManyCancellationsRecycleSlotsWithoutGrowth) {
  Simulator sim;
  for (int round = 0; round < 1000; ++round) {
    auto h = sim.schedule_at(sim.now() + SimTime::millis(2), [] {});
    sim.schedule_at(sim.now() + SimTime::millis(1), [] {});
    h.cancel();
    sim.run_until(sim.now() + SimTime::millis(2));
  }
  EXPECT_EQ(sim.events_executed(), 1000u);
  EXPECT_EQ(sim.pending_events(), 0u);
}

// --- Allocation-free hot path -----------------------------------------

TEST(Simulator, ScheduleFireIsAllocationFreeForSmallCaptures) {
  Simulator sim;
  sim.reserve(64);
  long sink = 0;
  // Warm up: let the slab and heap vectors reach steady state.
  for (int i = 0; i < 100; ++i) {
    sim.schedule_at(sim.now() + SimTime::micros(1), [&sink] { ++sink; });
    (void)sim.step();  // exactly one event is queued
  }
  // 40 bytes of captures — inside EventFn's 48-byte inline buffer.
  std::array<char, 32> blob{};
  const std::size_t allocations = count_allocations([&] {
    for (int i = 0; i < 1000; ++i) {
      sim.schedule_at(sim.now() + SimTime::micros(1),
                      [&sink, blob] { sink += blob[0]; });
      (void)sim.step();  // exactly one event is queued
    }
  });
  EXPECT_EQ(allocations, 0u);
  EXPECT_EQ(sink, 100);
}

TEST(Simulator, CancellationPathIsAllocationFreeToo) {
  Simulator sim;
  sim.reserve(64);
  for (int i = 0; i < 100; ++i) {
    auto h = sim.schedule_at(sim.now() + SimTime::micros(2), [] {});
    sim.schedule_at(sim.now() + SimTime::micros(1), [] {});
    h.cancel();
    sim.run_until(sim.now() + SimTime::micros(2));
  }
  const std::size_t allocations = count_allocations([&] {
    for (int i = 0; i < 1000; ++i) {
      auto h = sim.schedule_at(sim.now() + SimTime::micros(2), [] {});
      sim.schedule_at(sim.now() + SimTime::micros(1), [] {});
      h.cancel();
      sim.run_until(sim.now() + SimTime::micros(2));
    }
  });
  EXPECT_EQ(allocations, 0u);
}

TEST(Simulator, OversizedCapturesFallBackToTheHeapAndStillRun) {
  Simulator sim;
  std::array<char, 64> blob{};  // > kInlineCapacity: must heap-allocate
  blob[0] = 1;
  long sum = 0;
  const std::size_t allocations = count_allocations([&] {
    sim.schedule_at(SimTime::micros(1), [&sum, blob] { sum += blob[0]; });
  });
  EXPECT_GE(allocations, 1u);
  sim.run_to_completion();
  EXPECT_EQ(sum, 1);
}

TEST(EventFn, MoveTransfersTheCallable) {
  int fired = 0;
  EventFn fn([&fired] { ++fired; });
  EventFn moved(std::move(fn));
  moved();
  EXPECT_EQ(fired, 1);
}

// --- Calendar queue vs binary heap equivalence ------------------------
//
// The calendar queue's ordering contract is "bit-identical firing order to
// the binary heap". These tests run the same workload on a kCalendar and a
// kHeap simulator and require the recorded (fire time, event id) streams to
// match exactly.

/// One firing as observed by the workload: when it ran and which logical
/// event it was.
struct Firing {
  std::int64_t at_us;
  int id;
  bool operator==(const Firing& other) const {
    return at_us == other.at_us && id == other.id;
  }
};

/// Randomized workload: a mix of near events (calendar buckets), same-tick
/// ties, cancellations, far events (the calendar's overflow heap), and
/// events scheduled from inside callbacks. Driven by a seeded Rng, so both
/// queue modes replay the identical operation stream.
std::vector<Firing> run_random_workload(QueueMode mode, std::uint64_t seed) {
  Simulator sim(mode);
  Rng rng(seed);
  std::vector<Firing> firings;
  std::vector<TimerHandle> handles;
  int next_id = 0;

  const auto record = [&](int id) {
    firings.push_back({sim.now().as_micros(), id});
  };

  for (int round = 0; round < 40; ++round) {
    // A burst of near events, several sharing the exact same tick.
    const SimTime tick = sim.now() + SimTime::micros(
        std::int64_t(rng.below(200'000)));
    for (int i = 0; i < 8; ++i) {
      const int id = next_id++;
      handles.push_back(sim.schedule_at(tick, [&record, id] { record(id); }));
    }
    // Events spread across bucket boundaries, some rescheduling children
    // with sub-bucket delays (the splice-insert path).
    for (int i = 0; i < 12; ++i) {
      const int id = next_id++;
      const SimTime delay = SimTime::micros(std::int64_t(rng.below(500'000)));
      handles.push_back(sim.schedule_after(delay, [&, id] {
        record(id);
        if (rng.below(2) == 0) {
          const int child = next_id++;
          sim.schedule_after(SimTime::micros(std::int64_t(rng.below(300))),
                             [&record, child] { record(child); });
        }
      }));
    }
    // A far event beyond the calendar horizon (overflow-heap path).
    const int far_id = next_id++;
    handles.push_back(sim.schedule_after(
        SimTime::seconds(5) + SimTime::micros(std::int64_t(rng.below(1000))),
        [&record, far_id] { record(far_id); }));
    // Cancel a random half-dozen of everything still pending.
    for (int i = 0; i < 6 && !handles.empty(); ++i) {
      handles[rng.below(handles.size())].cancel();
    }
    // Drain partway so scheduling interleaves with firing.
    sim.run_until(sim.now() + SimTime::micros(
        std::int64_t(rng.below(400'000))));
  }
  sim.run_to_completion();
  return firings;
}

TEST(QueueEquivalence, CalendarMatchesHeapOnRandomizedWorkloads) {
  for (std::uint64_t seed : {1u, 7u, 42u, 1234u}) {
    const auto calendar = run_random_workload(QueueMode::kCalendar, seed);
    const auto heap = run_random_workload(QueueMode::kHeap, seed);
    ASSERT_FALSE(calendar.empty());
    EXPECT_EQ(calendar, heap) << "diverged for seed " << seed;
  }
}

TEST(QueueEquivalence, SameTickTiesFireInSchedulingOrderInBothModes) {
  for (QueueMode mode : {QueueMode::kCalendar, QueueMode::kHeap}) {
    Simulator sim(mode);
    std::vector<int> order;
    std::vector<TimerHandle> handles;
    const SimTime tick = SimTime::millis(3);
    for (int i = 0; i < 32; ++i) {
      handles.push_back(sim.schedule_at(tick, [&order, i] {
        order.push_back(i);
      }));
    }
    for (int i = 1; i < 32; i += 2) handles[std::size_t(i)].cancel();
    sim.run_to_completion();
    ASSERT_EQ(order.size(), 16u);
    for (int i = 0; i < 16; ++i) EXPECT_EQ(order[std::size_t(i)], 2 * i);
  }
}

TEST(QueueEquivalence, FarEventsMergeWithNearEventsInOrder) {
  // Events beyond the calendar's horizon live in the overflow heap; the
  // kernel must still interleave them with calendar events by (time, seq).
  Simulator sim(QueueMode::kCalendar);
  std::vector<int> order;
  sim.schedule_at(SimTime::seconds(10), [&] { order.push_back(3); });
  sim.schedule_at(SimTime::millis(1), [&] {
    order.push_back(1);
    sim.schedule_after(SimTime::millis(1), [&] { order.push_back(2); });
  });
  sim.schedule_at(SimTime::seconds(10), [&] { order.push_back(4); });
  sim.run_to_completion();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(sim.now(), SimTime::seconds(10));
}

/// Dense-bucket workload: each round fills a few 512us calendar buckets
/// with thousands of events, a third of them on four shared ticks (one of
/// those ticks holds hundreds), and about one event in eight, when it
/// fires, schedules children later in the same bucket. With thousands of
/// entries still pending ahead of them those children land far deeper
/// than the 64-entry splice window, so the bucket is re-drained mid-way.
/// Zero-delay children make the newest sequence on a tick already being
/// drained.
std::vector<Firing> run_dense_workload(QueueMode mode, std::uint64_t seed) {
  Simulator sim(mode);
  Rng rng(seed);
  std::vector<Firing> firings;
  std::vector<TimerHandle> handles;
  int next_id = 0;
  const auto record = [&](int id) {
    firings.push_back({sim.now().as_micros(), id});
  };
  for (int round = 0; round < 6; ++round) {
    const std::int64_t base =
        (sim.now().as_micros() / 512 + 1 + std::int64_t(rng.below(3))) * 512;
    std::array<std::int64_t, 4> ticks{};
    for (std::int64_t& tick : ticks) {
      tick = base + std::int64_t(rng.below(3 * 512));
    }
    for (int i = 0; i < 6000; ++i) {
      const std::uint64_t pick = rng.below(12);
      const std::int64_t at =
          pick == 0   ? ticks[0]
          : pick < 4  ? ticks[1 + rng.below(3)]
                      : base + std::int64_t(rng.below(3 * 512));
      const int id = next_id++;
      handles.push_back(sim.schedule_at(SimTime::micros(at), [&, id] {
        record(id);
        if (rng.below(8) != 0) return;
        for (int k = 0; k < 2; ++k) {
          const int child = next_id++;
          const std::int64_t delay =
              k == 0 ? 0 : std::int64_t(rng.below(512));
          sim.schedule_after(SimTime::micros(delay),
                             [&record, child] { record(child); });
        }
      }));
    }
    for (int i = 0; i < 200; ++i) {
      handles[rng.below(handles.size())].cancel();
    }
    sim.run_until(SimTime::micros(base + std::int64_t(rng.below(3 * 512))));
  }
  sim.run_to_completion();
  return firings;
}

TEST(QueueEquivalence, DenseBucketsWithDeepMidDrainInsertsMatchHeap) {
  for (std::uint64_t seed : {3u, 11u, 99u}) {
    const auto calendar = run_dense_workload(QueueMode::kCalendar, seed);
    const auto heap = run_dense_workload(QueueMode::kHeap, seed);
    ASSERT_GT(calendar.size(), 36'000u);
    EXPECT_EQ(calendar, heap) << "diverged for seed " << seed;
  }
}

// --- Batched fan-out scheduling ---------------------------------------

TEST(SimulatorBatch, FiringsCarryTheirIndexAndInterleaveBySequence) {
  Simulator sim;
  std::vector<std::pair<char, std::uint32_t>> order;
  // Interleave batch firings with ordinary events at the same instant:
  // sequence numbers are drawn in add order, so the global order must be
  // exactly the add order.
  sim.schedule_at(SimTime::millis(1), [&] { order.push_back({'e', 0}); });
  auto batch = sim.begin_batch(
      [](void* ctx, std::uint32_t index) {
        static_cast<std::vector<std::pair<char, std::uint32_t>>*>(ctx)
            ->push_back({'b', index});
      },
      &order);
  sim.add_batch_event(batch, SimTime::millis(1), 7);
  sim.schedule_at(SimTime::millis(1), [&] { order.push_back({'e', 1}); });
  sim.add_batch_event(batch, SimTime::millis(1), 9);
  sim.run_to_completion();
  const std::vector<std::pair<char, std::uint32_t>> want = {
      {'e', 0}, {'b', 7}, {'e', 1}, {'b', 9}};
  EXPECT_EQ(order, want);
}

TEST(SimulatorBatch, SlotIsRecycledAfterTheLastFiring) {
  Simulator sim;
  int firings = 0;
  auto batch = sim.begin_batch(
      [](void* ctx, std::uint32_t) { ++*static_cast<int*>(ctx); }, &firings);
  for (std::uint32_t i = 0; i < 5; ++i) {
    sim.add_batch_event(batch, SimTime::micros(i + 1), i);
  }
  EXPECT_EQ(sim.pending_events(), 5u);
  sim.run_to_completion();
  EXPECT_EQ(firings, 5);
  EXPECT_EQ(sim.pending_events(), 0u);
  // The released slot goes back on the freelist: an ordinary timer can
  // claim it and a full schedule/fire cycle still works.
  bool fired = false;
  sim.schedule_after(SimTime::micros(1), [&] { fired = true; });
  sim.run_to_completion();
  EXPECT_TRUE(fired);
}

TEST(SimulatorBatch, BatchSchedulingIsAllocationFree) {
  Simulator sim;
  // Simulated time keeps advancing into fresh calendar buckets, so the
  // reserve must be large enough to pre-grow every bucket past this
  // workload's peak per-bucket occupancy (16 entries within one width).
  sim.reserve(16 * CalendarQueue::kNumBuckets);
  int firings = 0;
  const auto fire_batch = [&] {
    auto batch = sim.begin_batch(
        [](void* ctx, std::uint32_t) { ++*static_cast<int*>(ctx); },
        &firings);
    for (std::uint32_t i = 0; i < 16; ++i) {
      sim.add_batch_event(batch, SimTime::micros(i + 1), i);
    }
    sim.run_until(sim.now() + SimTime::micros(32));
  };
  for (int i = 0; i < 100; ++i) fire_batch();  // warm the slab and buckets
  const std::size_t allocations = count_allocations([&] {
    for (int i = 0; i < 100; ++i) fire_batch();
  });
  EXPECT_EQ(allocations, 0u);
  EXPECT_EQ(firings, 200 * 16);
}


/// Fires batches of 64 deliveries spread over a few buckets, interleaved
/// with ordinary events, and returns the (index, time) firing order. With
/// `prefetch` set every batch carries a prefetch callback, which counts
/// its calls in `*calls`.
std::vector<std::pair<std::uint32_t, std::int64_t>> run_batches(
    bool prefetch, std::size_t* calls) {
  Simulator sim(QueueMode::kCalendar);
  Rng rng(5);
  struct Ctx {
    Simulator* sim;
    std::vector<std::pair<std::uint32_t, std::int64_t>> order;
    std::size_t* calls;
  } ctx{&sim, {}, calls};
  const Simulator::BatchFn fire = [](void* c, std::uint32_t index) {
    auto* self = static_cast<Ctx*>(c);
    self->order.push_back({index, self->sim->now().as_micros()});
  };
  const Simulator::BatchPrefetchFn warm = [](void* c, std::uint32_t) {
    ++*static_cast<Ctx*>(c)->calls;
  };
  for (std::uint32_t b = 0; b < 200; ++b) {
    const auto batch = sim.begin_batch(fire, &ctx, prefetch ? warm : nullptr);
    for (std::uint32_t i = 0; i < 64; ++i) {
      sim.add_batch_event(batch, SimTime::micros(std::int64_t(rng.below(2048))),
                          b * 64 + i);
    }
    sim.schedule_after(SimTime::micros(std::int64_t(rng.below(2048))),
                       [&ctx, &sim, b] {
                         ctx.order.push_back({~b, sim.now().as_micros()});
                       });
    if (b % 50 == 49) sim.run_until(sim.now() + SimTime::micros(700));
  }
  sim.run_to_completion();
  return ctx.order;
}

TEST(SimulatorBatch, PrefetchCallbackDoesNotChangeFiringOrder) {
  std::size_t with = 0;
  std::size_t unused = 0;
  const auto plain = run_batches(false, &unused);
  const auto warmed = run_batches(true, &with);
  ASSERT_EQ(plain.size(), 200u * 65u);
  EXPECT_EQ(plain, warmed);
  EXPECT_EQ(unused, 0u);
  // The callback ran for most firings (the last few of each bucket have
  // no entry that far ahead of them).
  EXPECT_GT(with, 200u * 64u / 2);
}

}  // namespace
}  // namespace cfds
