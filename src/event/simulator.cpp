#include "event/simulator.h"

#include <algorithm>
#include <atomic>
#include <utility>

#include "common/expect.h"

namespace cfds {

namespace {
/// Process-wide default for newly constructed simulators. Written once by
/// the tool entry points (before any worker thread constructs a Simulator);
/// atomic so concurrent trial threads reading it are race-free.
std::atomic<QueueMode> g_default_queue_mode{QueueMode::kCalendar};
}  // namespace

Simulator::Simulator() : mode_(default_queue_mode()) {}

void Simulator::set_default_queue_mode(QueueMode mode) {
  g_default_queue_mode.store(mode, std::memory_order_relaxed);
}

QueueMode Simulator::default_queue_mode() {
  return g_default_queue_mode.load(std::memory_order_relaxed);
}

void TimerHandle::cancel() {
  if (sim_ != nullptr && sim_->slot_live(slot_, generation_)) {
    sim_->slots_[slot_].cancelled = true;
  }
}

bool TimerHandle::pending() const {
  return sim_ != nullptr && sim_->slot_live(slot_, generation_) &&
         !sim_->slots_[slot_].cancelled;
}

std::uint32_t Simulator::acquire_slot() {
  if (free_head_ != kNoSlot) {
    const std::uint32_t slot = free_head_;
    free_head_ = slots_[slot].next_free;
    slots_[slot].next_free = kNoSlot;
    slots_[slot].cancelled = false;
    return slot;
  }
  CFDS_EXPECT(slots_.size() < kNoSlot, "timer slab exhausted");
  slots_.push_back(Slot{});
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void Simulator::release_slot(std::uint32_t slot) {
  // Bumping the generation invalidates every handle minted for this cycle.
  ++slots_[slot].generation;
  slots_[slot].cancelled = false;
  slots_[slot].next_free = free_head_;
  free_head_ = slot;
}

void Simulator::push_entry(const EventEntry& entry) {
  if (mode_ == QueueMode::kCalendar &&
      entry.when - now_ <= CalendarQueue::horizon()) {
    calendar_.insert(entry, now_);
  } else {
    heap_.push_back(entry);
    std::push_heap(heap_.begin(), heap_.end(), FiresLater{});
  }
}

TimerHandle Simulator::schedule_at(SimTime when, Action action) {
  CFDS_EXPECT(when >= now_, "cannot schedule events in the past");
  const std::uint32_t slot = acquire_slot();
  const std::uint32_t generation = slots_[slot].generation;
  slots_[slot].action = std::move(action);
  push_entry(EventEntry{when, next_sequence_++, slot});
  return TimerHandle{this, slot, generation};
}

Simulator::BatchRef Simulator::begin_batch(BatchFn fn, void* ctx,
                                           BatchPrefetchFn prefetch) {
  CFDS_EXPECT(fn != nullptr, "batch callback must not be null");
  const std::uint32_t slot = acquire_slot();
  slots_[slot].batch_fn = fn;
  slots_[slot].batch_prefetch = prefetch;
  slots_[slot].batch_ctx = ctx;
  slots_[slot].pending = 0;
  return BatchRef{slot};
}

void Simulator::add_batch_event(BatchRef batch, SimTime delay,
                                std::uint32_t index) {
  CFDS_EXPECT(delay >= SimTime::zero(), "cannot schedule events in the past");
  ++slots_[batch.slot].pending;
  push_entry(EventEntry{now_ + delay, next_sequence_++, batch.slot, index});
}

TimerHandle Simulator::schedule_after(SimTime delay, Action action) {
  return schedule_at(now_ + delay, std::move(action));
}

void Simulator::reserve(std::size_t pending_capacity) {
  heap_.reserve(pending_capacity);
  slots_.reserve(pending_capacity);
  if (mode_ == QueueMode::kCalendar) {
    // Spread the budget across the wheel (with a floor of a few entries per
    // bucket); heavily skewed bucket loads beyond that grow lazily, once.
    const std::size_t per_bucket =
        std::max<std::size_t>(4, pending_capacity / CalendarQueue::kNumBuckets);
    calendar_.reserve(per_bucket);
  }
}

bool Simulator::peek_next(EventEntry* entry, QueueSource* source) {
  const EventEntry* near = calendar_.peek(now_);
  if (near == nullptr && heap_.empty()) return false;
  QueueSource src;
  if (near == nullptr) {
    *entry = heap_.front();
    src = QueueSource::kOverflowHeap;
  } else if (heap_.empty() || !FiresLater{}(*near, heap_.front())) {
    // near fires no later than the heap head (FiresLater is strict, and the
    // two queues never share a (time, sequence) pair).
    *entry = *near;
    src = QueueSource::kCalendarQueue;
  } else {
    *entry = heap_.front();
    src = QueueSource::kOverflowHeap;
  }
  if (source != nullptr) *source = src;
  return true;
}

bool Simulator::next_event_time(SimTime* when) {
  EventEntry head;
  if (!peek_next(&head)) return false;
  *when = head.when;
  return true;
}

bool Simulator::pop_next(EventEntry* entry) {
  const EventEntry* near = calendar_.peek(now_);
  if (near == nullptr && heap_.empty()) return false;
  if (near != nullptr && (heap_.empty() || !FiresLater{}(*near, heap_.front()))) {
    *entry = calendar_.pop_min(now_);
  } else {
    std::pop_heap(heap_.begin(), heap_.end(), FiresLater{});
    *entry = heap_.back();
    heap_.pop_back();
  }
  return true;
}

void Simulator::prefetch_batch(const EventEntry* entry) const {
  if (entry == nullptr) return;
  const Slot& slot = slots_[entry->slot];
  if (slot.batch_prefetch != nullptr) {
    slot.batch_prefetch(slot.batch_ctx, entry->aux);
  }
}

bool Simulator::fire(const EventEntry& entry) {
  Slot& slot = slots_[entry.slot];
  if (slot.batch_fn != nullptr) {
    // Batch firing: invoke the raw callback through locals — the slot is
    // released before the last invocation (matching the ordinary path's
    // release-before-invoke order), and the callback may grow the slab.
    const BatchFn fn = slot.batch_fn;
    void* ctx = slot.batch_ctx;
    if (--slot.pending == 0) {
      slot.batch_fn = nullptr;
      slot.batch_prefetch = nullptr;
      release_slot(entry.slot);
    }
    now_ = entry.when;
    ++executed_;
    fn(ctx, entry.aux);
    return true;
  }
  // Move the callable out before releasing: release bumps the generation
  // (so pending() is already false inside the event's own action,
  // matching the fired-flag order of the old kernel), and the action may
  // itself schedule events that grow the slab.
  EventFn action = std::move(slot.action);
  const bool cancelled = slot.cancelled;
  release_slot(entry.slot);
  if (cancelled) return false;
  now_ = entry.when;
  ++executed_;
  action();
  return true;
}

bool Simulator::step() {
  EventEntry entry;
  while (pop_next(&entry)) {
    if (fire(entry)) return true;
  }
  return false;
}

void Simulator::run_until(SimTime deadline) {
  EventEntry head;
  QueueSource source;
  while (peek_next(&head, &source)) {
    if (head.when > deadline) break;
    // Pop straight from the source queue the peek identified — no second
    // head comparison. The calendar's pop hits its min-bucket memo that the
    // peek just refreshed.
    if (source == QueueSource::kCalendarQueue) {
      (void)calendar_.pop_min(now_);
      // Pull the next event's timer slot toward the cache while this event
      // runs; the slot array is large enough that the upcoming load would
      // otherwise stall the dispatch chain.
      if (const EventEntry* next = calendar_.peek_free()) {
        __builtin_prefetch(&slots_[next->slot]);
      }
      // And the state a firing a few places further on will touch.
      prefetch_batch(calendar_.peek_free(kPrefetchAhead));
    } else {
      std::pop_heap(heap_.begin(), heap_.end(), FiresLater{});
      heap_.pop_back();
    }
    (void)fire(head);  // false only for a cancelled event; keep draining
  }
  if (now_ < deadline) now_ = deadline;
}

void Simulator::run_to_completion(std::uint64_t max_events) {
  std::uint64_t steps = 0;
  while (step()) {
    CFDS_EXPECT(++steps <= max_events,
                "event budget exhausted: likely a runaway timer loop");
  }
}

}  // namespace cfds
