// Discrete-event simulation kernel.
//
// A single-threaded event loop with a monotonic clock. Events scheduled for
// the same instant fire in scheduling order (stable sequence numbers), which
// keeps protocol round boundaries deterministic: all heartbeats scheduled at
// the epoch of fds.R-1 are delivered before the digest round begins.
//
// Timers are cancellable via TimerHandle; the inter-cluster forwarding logic
// (implicit acknowledgements, ranked BGW standby) relies on cancelling
// retransmission timers when an acknowledgement is overheard.
//
// The schedule -> fire path is allocation-free in the common case:
//
//   * EventFn is a small-buffer-optimised callable. Captures up to
//     kInlineCapacity bytes (48 — enough for a batched-delivery closure
//     several times over) are stored inline; only larger or throwing-move
//     captures fall back to one heap allocation.
//   * The callable and all per-event state live in a slab of
//     generation-counted slots recycled through a freelist, replacing the
//     shared_ptr control block per event. A TimerHandle is
//     {slot, generation}; once the event fires or its cancelled entry is
//     popped, the slot's generation is bumped and any outstanding handle
//     becomes inert. Keeping the callable in the slab makes the queues'
//     entries trivially-copyable 24-byte records ({when, sequence, slot}),
//     so sifting an entry costs a plain copy, not an indirect move.
//   * The pending queue is, by default, a bounded-horizon CalendarQueue
//     (src/event/calendar_queue.h): O(1)-ish bucket inserts and pops for
//     the near events that dominate the workload (channel deliveries are
//     bounded by Thop, protocol timers by a few phi). Events scheduled
//     beyond the calendar's horizon go to a binary-heap overflow; the two
//     streams merge by (time, sequence), so firing order is bit-identical
//     to the pure binary heap. QueueMode::kHeap (the runner tools'
//     --no-calendar flag) keeps the pure heap as an always-available
//     fallback and as the property-test oracle for the calendar.
//
// Handles do not keep the simulator alive: cancel()/pending() must not be
// called after the Simulator is destroyed (protocol agents never outlive
// their network's simulator).

#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/sim_time.h"
#include "event/calendar_queue.h"

namespace cfds {

class Simulator;

/// Move-only callable with inline storage for small captures; the event
/// queue's replacement for std::function<void()>.
class EventFn {
 public:
  /// Inline capture budget. Sized for the protocol timer closures (a
  /// receiver pointer plus a few words of state) with room to spare.
  static constexpr std::size_t kInlineCapacity = 48;

  EventFn() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::remove_cvref_t<F>, EventFn>>>
  EventFn(F&& fn) {  // NOLINT(google-explicit-constructor): drop-in for
                     // std::function at every schedule_* call site
    using Fn = std::remove_cvref_t<F>;
    if constexpr (sizeof(Fn) <= kInlineCapacity &&
                  alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(fn));
      ops_ = &inline_ops<Fn>;
    } else {
      *reinterpret_cast<Fn**>(storage_) = new Fn(std::forward<F>(fn));
      ops_ = &heap_ops<Fn>;
    }
  }

  EventFn(EventFn&& other) noexcept { move_from(other); }
  EventFn& operator=(EventFn&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }

  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;

  ~EventFn() { reset(); }

  void operator()() { ops_->invoke(storage_); }

  [[nodiscard]] explicit operator bool() const { return ops_ != nullptr; }

 private:
  struct Ops {
    void (*invoke)(void* storage);
    /// Move-constructs into `to` from `from` and destroys the source.
    /// nullptr means the stored bytes are trivially relocatable and the
    /// buffer is moved with one memcpy — no indirect call. Every hot-path
    /// closure (pointer/integer captures) takes this path, as does the
    /// heap fallback (its stored state is just the owning pointer).
    void (*relocate)(void* from, void* to);
    /// nullptr means trivially destructible: destruction is a no-op.
    void (*destroy)(void* storage);
  };

  template <typename Fn>
  static constexpr Ops inline_ops = {
      [](void* s) { (*std::launder(reinterpret_cast<Fn*>(s)))(); },
      std::is_trivially_copyable_v<Fn>
          ? nullptr
          : +[](void* from, void* to) {
              Fn* src = std::launder(reinterpret_cast<Fn*>(from));
              ::new (to) Fn(std::move(*src));
              src->~Fn();
            },
      std::is_trivially_destructible_v<Fn>
          ? nullptr
          : +[](void* s) { std::launder(reinterpret_cast<Fn*>(s))->~Fn(); },
  };

  template <typename Fn>
  static constexpr Ops heap_ops = {
      [](void* s) { (**reinterpret_cast<Fn**>(s))(); },
      nullptr,  // relocation moves the owning pointer; memcpy covers it
      [](void* s) { delete *reinterpret_cast<Fn**>(s); },
  };

  void move_from(EventFn& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      if (ops_->relocate != nullptr) {
        ops_->relocate(other.storage_, storage_);
      } else {
        // Fixed-size copy: the compiler turns this into a few vector moves,
        // and copying slack bytes of the buffer is harmless. GCC 12's
        // inliner sees those slack bytes as uninitialized reads when a
        // small capture is moved, hence the local suppression.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif
        std::memcpy(storage_, other.storage_, kInlineCapacity);
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif
      }
      other.ops_ = nullptr;
    }
  }
  void reset() noexcept {
    if (ops_ != nullptr) {
      if (ops_->destroy != nullptr) ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char storage_[kInlineCapacity];
  const Ops* ops_ = nullptr;
};

/// Handle to a scheduled event; allows cancellation. Default-constructed
/// handles are inert. Handles are cheap to copy (slot index + generation).
class TimerHandle {
 public:
  TimerHandle() = default;

  /// Cancels the event if it has not fired yet. Idempotent.
  void cancel();

  /// True if the event is still pending (scheduled, not fired, not cancelled).
  [[nodiscard]] bool pending() const;

 private:
  friend class Simulator;
  TimerHandle(Simulator* sim, std::uint32_t slot, std::uint32_t generation)
      : sim_(sim), slot_(slot), generation_(generation) {}

  Simulator* sim_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint32_t generation_ = 0;
};

/// Read-only clock. In simulation this is simulated time; in service mode
/// it is the monotonic microsecond count since the process's epoch anchor
/// (SimTime reused as the time type).
class Clock {
 public:
  virtual ~Clock() = default;

  Clock(const Clock&) = delete;
  Clock& operator=(const Clock&) = delete;

  [[nodiscard]] virtual SimTime now() const = 0;

 protected:
  Clock() = default;
};

/// Clock plus cancellable one-shot timers: the protocol agents' only clock
/// and timer source, the time half of their seam (transport/transport.h
/// has the frame half). EventFn and TimerHandle are the kernel's types,
/// reused verbatim: a TimerHandle minted by a RealTimeScheduler cancels
/// through the same slot/generation mechanism as one minted by the
/// Simulator directly, so agent timer state (deputy_timer_,
/// pending_forwards_, ...) is mode-independent. In simulation the agents
/// are handed the Simulator itself.
class TimerService : public Clock {
 public:
  virtual TimerHandle schedule_at(SimTime when, EventFn action) = 0;
  virtual TimerHandle schedule_after(SimTime delay, EventFn action) = 0;
};

/// Which pending-queue implementation a Simulator uses. Both produce
/// bit-identical firing order; kHeap exists as the calendar's property-test
/// oracle and as the --no-calendar fallback.
enum class QueueMode : std::uint8_t { kCalendar, kHeap };

/// The event loop. Owns the pending-event queue and the simulated clock,
/// and is the simulation's TimerService. Final, so calls through a
/// Simulator& bind directly; only calls through a TimerService& are
/// virtual.
class Simulator final : public TimerService {
 public:
  using Action = EventFn;

  /// Uses the process-wide default queue mode (see set_default_queue_mode).
  Simulator();
  explicit Simulator(QueueMode mode) : mode_(mode) {}

  /// Sets the queue mode every subsequently-constructed Simulator uses.
  /// The runner tools call this once, before any trial runs, when
  /// --no-calendar is given; tests pin modes per instance instead.
  static void set_default_queue_mode(QueueMode mode);
  [[nodiscard]] static QueueMode default_queue_mode();

  [[nodiscard]] QueueMode queue_mode() const { return mode_; }

  /// Current simulated time.
  [[nodiscard]] SimTime now() const override { return now_; }

  /// Schedules `action` to run at absolute time `when` (>= now).
  /// Returns a handle usable to cancel the event.
  TimerHandle schedule_at(SimTime when, Action action) override;

  /// Schedules `action` to run `delay` after the current time.
  TimerHandle schedule_after(SimTime delay, Action action) override;

  // --- Batched fan-out scheduling (the channel's broadcast path) ---------
  //
  // A broadcast to k receivers is one shared piece of work fired k times at
  // k different instants. Scheduling it as k independent events costs k
  // timer slots and k closures; a batch costs ONE slot holding a raw
  // (callback, context) pair plus k 24-byte queue entries whose `aux` field
  // carries the per-firing index. Each firing gets its own (time, sequence)
  // pair drawn in add order, so batch events interleave with ordinary
  // events in exactly the order per-event scheduling would produce.
  //
  // Batch firings are not cancellable (no TimerHandle is minted); the slot
  // is released when the last entry fires. `ctx` must outlive the batch.
  //
  // A batch may also carry a prefetch callback. A broadcast's receivers are
  // scattered over the world, so each firing would otherwise stall on cache
  // misses on its receiver's state. After every pop from a sorted calendar
  // bucket, run_until hands the firing kPrefetchAhead places further on to
  // its batch's callback; the channel's pulls that receiver's Radio toward
  // the cache. The callback only prefetches, so firing order and results
  // are those of a batch without one; kHeap mode never calls it.

  /// Per-firing callback: `ctx` from begin_batch, `index` from
  /// add_batch_event.
  using BatchFn = void (*)(void* ctx, std::uint32_t index);

  /// Opaque reference to an open batch (one acquired timer slot).
  struct BatchRef {
    std::uint32_t slot;
  };

  /// How far a batch firing is behind the head of the queue when run_until
  /// hands it to its batch's prefetch callback.
  static constexpr std::size_t kPrefetchAhead = 8;

  /// Optional per-batch prefetch callback: `ctx` and `index` as for BatchFn.
  /// It may only issue prefetches (and the reads that find their targets);
  /// whether and when it runs never changes a firing.
  using BatchPrefetchFn = void (*)(void* ctx, std::uint32_t index);

  /// Opens a batch. At least one add_batch_event call must follow (an
  /// empty batch would leak its slot until the simulator is destroyed).
  /// `prefetch`, if given, is called for the firing kPrefetchAhead places
  /// behind the head of a sorted calendar bucket, so a firing's cache
  /// misses overlap the firings before it.
  [[nodiscard]] BatchRef begin_batch(BatchFn fn, void* ctx,
                                     BatchPrefetchFn prefetch = nullptr);

  /// Adds one firing of the batch's callback at now + delay, carrying
  /// `index`. Draws the next sequence number, exactly like schedule_after.
  void add_batch_event(BatchRef batch, SimTime delay, std::uint32_t index);

  /// Pre-sizes the overflow heap and timer slab so a simulation with at
  /// most `pending_capacity` simultaneously pending events never allocates
  /// on the schedule path. Optional — all structures also grow on demand.
  void reserve(std::size_t pending_capacity);

  /// Runs events until the queue empties or the clock passes `deadline`.
  /// Events at exactly `deadline` are executed.
  void run_until(SimTime deadline);

  /// Runs until the queue is empty. Guarded by a step limit to turn runaway
  /// event loops into a crash rather than a hang.
  void run_to_completion(std::uint64_t max_events = 500'000'000);

  /// Executes at most one event; returns false if the queue was empty.
  /// Discarding the result can hide a scheduling bug (a loop that believes
  /// it is draining events while the queue is already dry) — callers that
  /// genuinely don't care must say so with (void).
  [[nodiscard]] bool step();

  /// Fire time of the earliest pending event, as a peek; false when the
  /// queue is empty. Cancelled events still occupy queue entries until they
  /// are popped, so the reported time is a lower bound on the next firing.
  /// Real-time drivers (src/transport/real_time.h) use this to bound their
  /// poll timeout instead of busy-stepping the queue.
  [[nodiscard]] bool next_event_time(SimTime* when);

  /// Number of events executed so far (diagnostics).
  [[nodiscard]] std::uint64_t events_executed() const { return executed_; }

  /// Number of events currently pending (cancelled events may still be
  /// counted until they are popped).
  [[nodiscard]] std::size_t pending_events() const {
    return heap_.size() + calendar_.size();
  }

 private:
  friend class TimerHandle;

  /// Timer-slab slot: the event's callable plus its cancellation state.
  /// `generation` advances each time the slot is released, invalidating any
  /// TimerHandle minted for an earlier cycle. A batch slot (batch_fn set)
  /// stores its raw callback instead of an EventFn and stays acquired until
  /// `pending` firings have popped.
  struct Slot {
    BatchFn batch_fn = nullptr;
    BatchPrefetchFn batch_prefetch = nullptr;
    void* batch_ctx = nullptr;
    std::uint32_t generation = 0;
    std::uint32_t next_free = kNoSlot;
    std::uint32_t pending = 0;  ///< outstanding batch firings
    bool cancelled = false;
    EventFn action;
  };
  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;

  [[nodiscard]] std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot);
  [[nodiscard]] bool slot_live(std::uint32_t slot,
                               std::uint32_t generation) const {
    return slot < slots_.size() && slots_[slot].generation == generation;
  }

  /// Which queue holds the entry peek_next reported.
  enum class QueueSource : std::uint8_t { kCalendarQueue, kOverflowHeap };

  /// Routes an entry to the calendar (near events, calendar mode) or the
  /// binary heap (heap mode, or beyond the calendar's horizon).
  void push_entry(const EventEntry& entry);
  /// True (filling *entry) when any event is pending; picks the earlier
  /// (time, sequence) of the calendar's head and the heap's head.
  [[nodiscard]] bool pop_next(EventEntry* entry);
  /// Earliest pending (time, sequence), as a peek; false when empty.
  /// `source` (optional) reports which queue holds it, so run_until can pop
  /// directly instead of re-peeking.
  [[nodiscard]] bool peek_next(EventEntry* entry,
                               QueueSource* source = nullptr);
  /// Calls the prefetch callback of the batch `entry` (if any) belongs to.
  void prefetch_batch(const EventEntry* entry) const;
  /// Executes one popped entry. False if it was a cancelled ordinary event
  /// (nothing ran); true after a firing.
  bool fire(const EventEntry& entry);

  SimTime now_ = SimTime::zero();
  QueueMode mode_;
  std::uint64_t next_sequence_ = 0;
  std::uint64_t executed_ = 0;
  /// kHeap mode: the only queue. kCalendar mode: overflow for events
  /// scheduled beyond the calendar's horizon (whole-experiment schedules,
  /// fault plans) — few, so the O(log n) sift doesn't matter.
  std::vector<EventEntry> heap_;
  CalendarQueue calendar_;
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNoSlot;
};

}  // namespace cfds
