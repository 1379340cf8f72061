// Bounded-horizon calendar (bucket) queue for the event kernel.
//
// The simulator's workload is dominated by radio deliveries, and every
// channel delay is bounded by the one-hop bound Thop (protocol timers by a
// few multiples of the heartbeat interval phi). A calendar queue exploits
// that bound: events land in fixed-width time buckets, so an insert touches
// one bucket instead of sifting through a binary heap of every pending
// event, and a pop touches the earliest non-empty bucket.
//
// Ordering contract: pops come out in ascending (time, sequence) order —
// exactly the order the binary-heap kernel produces — so switching the
// queue implementation cannot change a single event firing. Buckets
// accumulate trivially-copyable 24-byte entries unsorted (the callable
// lives in the simulator's timer slab, not in the queue), so an insert is
// one push_back with no sifting. Buckets partition events by time, so
// draining buckets in time order yields the global (time, sequence) order.
//
// Drain: a bucket is sorted latest-first exactly once, when it becomes the
// earliest occupied bucket, and then popped from the back. The horizon
// invariant keeps every entry of a bucket within one lap, so an entry's
// microsecond offset in the bucket (when % kBucketWidthUs) orders it by
// time, and a bucket sorts in place in O(N + kBucketWidthUs): an
// American-flag pass on the offset (count, lay the offsets out
// latest-first, cycle each entry into its region) followed by a std::sort
// of each run of equal `when` by sequence. No buffer is allocated. Buckets
// under kFlagPassMin entries, where the pass's fixed cost dominates, are
// std::sorted whole. An insert into a bucket being drained (a
// sub-bucket-width delay) splices into place near the back, or, when the
// splice point is too deep, is pushed unsorted and the bucket is drained
// again the same way on the next pop: the path depends on the bucket's
// size alone, never on the order its entries arrived in.
//
// Horizon invariant: an entry may only be inserted for a time in
// [now, now + horizon()]. Inserting beyond the horizon would wrap the wheel
// and silently corrupt firing order — an entry a full lap ahead shares a
// bucket with near entries and would fire a lap early — so insert() aborts
// loudly (CFDS_EXPECT) instead. Callers with unbounded delays (the
// simulator's far-event overflow heap) must route such events elsewhere;
// see docs/PERF.md.
//
// Cursor invariant: all live entries fire at or after `now` (the kernel
// pops events in order), so every bucket strictly before now's bucket is
// empty and the cursor can advance to now for free. The occupancy bitmap
// (one bit per bucket, scanned a word at a time) makes "find the earliest
// non-empty bucket" cheap even when the pending events are sparse in time.

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/sim_time.h"

namespace cfds {

/// A pending event as the queues order it: fire time, global scheduling
/// sequence, and the timer-slab slot that holds the callable and the
/// cancellation state. Trivially copyable on purpose — heap sifts and
/// bucket pushes move 24 bytes with no indirect calls.
struct EventEntry {
  SimTime when;
  std::uint64_t sequence;
  std::uint32_t slot;
  /// Receiver index for batch-scheduled events (one slot fired k times,
  /// once per queue entry); unused (0) for ordinary events. Lives in what
  /// would otherwise be struct padding, so entries stay 24 bytes.
  std::uint32_t aux = 0;
};

/// Comparator for max-heap algorithms: "fires later" is "smaller", which
/// keeps the earliest (time, sequence) on top — the ordering the kernel has
/// always used.
struct FiresLater {
  [[nodiscard]] bool operator()(const EventEntry& a,
                                const EventEntry& b) const {
    if (a.when != b.when) return a.when > b.when;
    return a.sequence > b.sequence;
  }
};

/// Bounded-horizon calendar queue over EventEntry. Not a drop-in
/// std::priority_queue: insert/peek/pop take `now` so the wheel can enforce
/// the horizon invariant and advance its cursor.
class CalendarQueue {
 public:
  /// Bucket width. 512us keeps the drain's counting pass small (one counter
  /// per microsecond offset) while the whole wheel stays a few hundred KB.
  static constexpr std::int64_t kBucketWidthUs = 512;
  /// Bucket count (power of two). The wheel must hold horizon() plus the
  /// bucket `now` sits in plus one guard bucket without wrapping:
  /// kNumBuckets >= horizon/width + 2.
  static constexpr std::size_t kNumBuckets = 8192;

  /// Latest relative delay insert() accepts: (kNumBuckets - 2) * width
  /// (~4.19 simulated seconds). Chosen to cover every channel delay
  /// (<= Thop, default 100ms) and the FDS round timers (a few Thop) with
  /// two orders of magnitude to spare.
  [[nodiscard]] static constexpr SimTime horizon() {
    return SimTime::micros(std::int64_t(kNumBuckets - 2) * kBucketWidthUs);
  }

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }

  /// Inserts an entry firing at `entry.when`. Aborts (CFDS_EXPECT) unless
  /// now <= entry.when <= now + horizon().
  void insert(const EventEntry& entry, SimTime now);

  /// Builds the wheel eagerly and gives every bucket capacity for
  /// `per_bucket` entries, so workloads that stay within it never allocate
  /// on the insert path (first-touch growth is otherwise lazy, amortized).
  void reserve(std::size_t per_bucket);

  /// Earliest (time, sequence) entry, or nullptr when empty. Advances the
  /// cursor over buckets that `now` has already passed.
  [[nodiscard]] const EventEntry* peek(SimTime now);

  /// Removes and returns the earliest (time, sequence) entry. Must not be
  /// called on an empty queue.
  EventEntry pop_min(SimTime now);

  /// Free peek: the entry `ahead` places behind the earliest one when it is
  /// immediately known (the min-bucket memo is valid, that bucket is sorted
  /// and holds it), else nullptr. Never scans the bitmap or sorts a bucket.
  /// The kernel uses it after a pop to prefetch what the next events will
  /// touch while the popped event runs.
  [[nodiscard]] const EventEntry* peek_free(std::size_t ahead = 0) const {
    if (min_bucket_ == kNoBucket) return nullptr;
    const Bucket& bucket = buckets_[min_bucket_];
    if (!bucket.sorted || bucket.entries.size() <= ahead) return nullptr;
    return &bucket.entries[bucket.entries.size() - 1 - ahead];
  }

 private:
  /// One wheel slot. Entries accumulate unsorted; `sorted` is set when the
  /// bucket is sorted latest-first (back() is the earliest) on first drain.
  /// A later insert either splices into place near the back (short-delay
  /// events, bounded memmove) or clears the flag for a deferred re-sort.
  struct Bucket {
    std::vector<EventEntry> entries;
    bool sorted = false;
  };

  /// Lazily sizes the wheel (first insert) so heap-mode simulators and
  /// simulators that never schedule pay nothing.
  void ensure_buckets();
  /// Returns a vector to the capacity-sorted spare pool (no-op for
  /// capacity 0). Drained buckets only donate at kSpareWorthy or above;
  /// trade-up displacements of any size are pooled.
  void stash(std::vector<EventEntry>&& donor);
  /// Sorts `bucket` latest-first if it is not already sorted.
  static void ensure_sorted(Bucket& bucket);
  /// Sorts `entries` (one bucket's, n >= kFlagPassMin) latest-first in
  /// place: a counting pass on each entry's offset within the bucket, then
  /// a sort of each run of equal `when` by sequence.
  static void flag_pass(EventEntry* entries, std::size_t n);
  /// Position of an entry in the flag pass's latest-first layout: the
  /// bucket width minus one minus its microsecond offset in the bucket.
  [[nodiscard]] static std::size_t drain_key(const EventEntry& entry) {
    return std::size_t(kBucketWidthUs - 1 -
                       entry.when.as_micros() % kBucketWidthUs);
  }
  /// Moves the cursor to now's bucket. Every bucket it skips is provably
  /// empty (live entries fire at or after now).
  void advance(SimTime now);
  /// Index of the first non-empty bucket at or after the cursor, found via
  /// the occupancy bitmap. Pre: size_ > 0.
  [[nodiscard]] std::size_t first_occupied() const;

  [[nodiscard]] static std::size_t bucket_index(SimTime when) {
    return std::size_t((when.as_micros() / kBucketWidthUs) &
                       std::int64_t(kNumBuckets - 1));
  }

  static constexpr std::size_t kNoBucket = ~std::size_t{0};

  /// Buckets smaller than this are std::sorted whole: below it the flag
  /// pass's fixed cost (three sweeps over kBucketWidthUs counters) exceeds
  /// the comparison sort's log factor. Measured crossover: the two cost the
  /// same per entry at about 80 entries (random offsets, -O2; docs/PERF.md).
  static constexpr std::size_t kFlagPassMin = 80;

  /// Minimum capacity worth recycling through spare_. Buckets that only
  /// ever hold a handful of timers keep their small vectors in place;
  /// burst-grown vectors (a round's deliveries) circulate.
  static constexpr std::size_t kSpareWorthy = 256;

  /// Ring distance from the cursor to `idx` (how far ahead the bucket is,
  /// modulo the wheel). Within one lap — which the horizon invariant
  /// guarantees for every live bucket — smaller distance means earlier.
  [[nodiscard]] std::size_t ring_distance(std::size_t idx) const {
    return (idx - cursor_) & (kNumBuckets - 1);
  }

  std::vector<Bucket> buckets_;
  std::vector<std::uint64_t> occupied_;  // one bit per bucket
  /// Drained buckets donate their (empty, warm) entry vectors here and the
  /// next bucket to activate adopts one. Bursty workloads — a round's
  /// deliveries all land within Thop of the sweep — concentrate thousands
  /// of entries in a narrow band of buckets, and that band drifts around
  /// the wheel when the schedule period is not commensurate with the wheel
  /// period. Recycling lets the grown capacity follow the hot phase instead
  /// of being re-grown (and left stranded) in every bucket the band ever
  /// visits: steady-state inserts stay allocation-free and total capacity
  /// is bounded by the hot set, not by the laps driven.
  std::vector<std::vector<EventEntry>> spare_;
  std::size_t cursor_ = 0;          // bucket index window_start_ maps to
  SimTime window_start_ = SimTime::zero();  // cursor bucket's start time
  std::size_t size_ = 0;
  /// Memo of the earliest occupied bucket, maintained incrementally by
  /// insert (ring-distance compare) and invalidated when that bucket
  /// drains, so the kernel's peek→pop pair costs one bitmap scan per
  /// drained bucket instead of one per call.
  std::size_t min_bucket_ = kNoBucket;
};

}  // namespace cfds
