#include "event/calendar_queue.h"

#include <algorithm>
#include <array>
#include <limits>

#include "common/expect.h"

namespace cfds {

void CalendarQueue::ensure_buckets() {
  if (buckets_.empty()) {
    buckets_.resize(kNumBuckets);
    occupied_.resize(kNumBuckets / 64, 0);
  }
}

void CalendarQueue::reserve(std::size_t per_bucket) {
  ensure_buckets();
  for (Bucket& bucket : buckets_) bucket.entries.reserve(per_bucket);
  // Every bucket's vector can end up parked in spare_ at once, so size the
  // free list for the worst case up front (8192 pointers-worth, ~200KB).
  spare_.reserve(kNumBuckets);
}

void CalendarQueue::stash(std::vector<EventEntry>&& donor) {
  // Keep spare_ capacity-sorted (smallest at the front) so trade-ups can
  // best-fit a donor with one binary search. The sort-in costs a tail
  // memmove of vector headers, once per drained burst bucket or trade-up.
  // Small vectors displaced by a trade-up are pooled too: the buckets a
  // past burst left at zero capacity claim a donor for their next lone
  // timer event, and those claims must be satisfiable by the small end of
  // the pool or they starve the burst of its big donors.
  if (donor.capacity() == 0) return;
  const std::size_t cap = donor.capacity();
  const auto pos = std::upper_bound(
      spare_.begin(), spare_.end(), cap,
      [](std::size_t c, const std::vector<EventEntry>& v) {
        return c < v.capacity();
      });
  spare_.insert(pos, std::move(donor));
}

void CalendarQueue::ensure_sorted(Bucket& bucket) {
  if (bucket.sorted) return;
  const std::size_t n = bucket.entries.size();
  if (n < kFlagPassMin) {
    std::sort(bucket.entries.begin(), bucket.entries.end(), FiresLater{});
  } else {
    flag_pass(bucket.entries.data(), n);
  }
  bucket.sorted = true;
}

void CalendarQueue::flag_pass(EventEntry* entries, std::size_t n) {
  // American-flag pass: count the entries per offset and lay the offsets
  // out latest-first; then, region by region, walk each misplaced entry
  // along its cycle straight into its own region. Every entry moves at most
  // once and nothing is buffered.
  CFDS_EXPECT(n <= std::numeric_limits<std::uint32_t>::max(),
              "calendar bucket too large for the drain's counters");
  std::array<std::uint32_t, kBucketWidthUs> next{};
  std::array<std::uint32_t, kBucketWidthUs> end;
  for (std::size_t i = 0; i < n; ++i) ++next[drain_key(entries[i])];
  std::uint32_t total = 0;
  for (std::size_t k = 0; k < next.size(); ++k) {
    const std::uint32_t count = next[k];
    next[k] = total;
    total += count;
    end[k] = total;
  }
  std::uint32_t start = 0;
  for (std::size_t k = 0; k < next.size(); ++k) {
    while (next[k] < end[k]) {
      EventEntry entry = entries[next[k]];
      std::size_t key = drain_key(entry);
      while (key != k) {
        std::swap(entry, entries[next[key]++]);
        key = drain_key(entry);
      }
      entries[next[k]++] = entry;
    }
    // Region k now holds exactly the entries of one `when`, in whatever
    // order the cycles left them: put them latest-first by sequence.
    if (end[k] - start > 1) {
      std::sort(entries + start, entries + end[k], FiresLater{});
    }
    start = end[k];
  }
}

void CalendarQueue::advance(SimTime now) {
  // Every live entry fires at or after `now`, so each bucket strictly
  // before now's bucket is empty and the cursor can jump there directly.
  const std::int64_t aligned =
      (now.as_micros() / kBucketWidthUs) * kBucketWidthUs;
  if (aligned > window_start_.as_micros()) {
    window_start_ = SimTime::micros(aligned);
    cursor_ = bucket_index(now);
  }
}

std::size_t CalendarQueue::first_occupied() const {
  // Scan the occupancy bitmap a word at a time, starting at the cursor's
  // word and wrapping once around the wheel. The horizon invariant keeps
  // every live entry within one lap of the cursor, so ring order is time
  // order and the first set bit marks the earliest non-empty bucket.
  const std::size_t words = occupied_.size();
  std::size_t word = cursor_ / 64;
  // Mask off buckets behind the cursor in its own word.
  std::uint64_t bits = occupied_[word] & (~std::uint64_t{0} << (cursor_ % 64));
  for (std::size_t scanned = 0; scanned <= words; ++scanned) {
    if (bits != 0) {
      return word * 64 + std::size_t(__builtin_ctzll(bits));
    }
    word = (word + 1) % words;
    bits = occupied_[word];
  }
  CFDS_EXPECT(false, "calendar queue occupancy bitmap out of sync");
  __builtin_unreachable();
}

void CalendarQueue::insert(const EventEntry& entry, SimTime now) {
  CFDS_EXPECT(entry.when >= now, "calendar insert in the past");
  CFDS_EXPECT(entry.when - now <= horizon(),
              "calendar insert beyond the bounded horizon (route far events "
              "to the overflow heap; see docs/PERF.md)");
  ensure_buckets();
  advance(now);
  const std::size_t idx = bucket_index(entry.when);
  Bucket& bucket = buckets_[idx];
  if (bucket.entries.size() == bucket.entries.capacity() && !spare_.empty() &&
      spare_.back().capacity() > bucket.entries.capacity()) {
    // The bucket is about to grow: trade up to a drained burst vector
    // instead. Best fit — the smallest donor giving at least the doubling
    // a reallocation would have given — so one monster bucket's worth of
    // capacity is not burned on a claim that needed 128 slots (spare_ is
    // capacity-sorted, smallest at the front). Copying the current entries
    // (at most the old capacity) costs less than the reallocation it
    // replaces; the displaced vector goes back into the pool, where it
    // satisfies the small claims of trail buckets this bucket's past
    // trade-ups left at zero capacity (see stash()).
    const std::size_t want = 2 * bucket.entries.capacity();
    auto pos = std::lower_bound(
        spare_.begin(), spare_.end(), want,
        [](const std::vector<EventEntry>& v, std::size_t cap) {
          return v.capacity() < cap;
        });
    if (pos == spare_.end()) --pos;  // all smaller than 2x: take largest
    std::vector<EventEntry> donor = std::move(*pos);
    spare_.erase(pos);
    donor.assign(bucket.entries.begin(), bucket.entries.end());
    std::swap(bucket.entries, donor);
    stash(std::move(donor));
  }
  if (bucket.sorted && !bucket.entries.empty()) {
    // The bucket is mid-drain (sorted latest-first, popped from the back).
    // A short-delay insert lands near the back: splicing it into place keeps
    // the bucket sorted for a small tail memmove, where dirtying it would
    // re-sort the whole bucket on the next pop. Far-from-the-back positions
    // fall through to the O(1) unsorted push instead — the memmove would
    // cost more than the one deferred sort it saves.
    const auto pos = std::upper_bound(bucket.entries.begin(),
                                      bucket.entries.end(), entry,
                                      FiresLater{});
    if (bucket.entries.end() - pos <= 64) {
      bucket.entries.insert(pos, entry);
    } else {
      bucket.entries.push_back(entry);
      bucket.sorted = false;
    }
  } else {
    bucket.entries.push_back(entry);
    bucket.sorted = false;
  }
  occupied_[idx / 64] |= std::uint64_t{1} << (idx % 64);
  ++size_;
  if (min_bucket_ != kNoBucket) {
    if (ring_distance(idx) < ring_distance(min_bucket_)) min_bucket_ = idx;
  } else if (size_ == 1) {
    // A cleared memo on a non-empty wheel says nothing about the other
    // buckets, so it must stay cleared until the next bitmap scan — but on
    // an empty wheel this bucket is trivially the earliest.
    min_bucket_ = idx;
  }
}

const EventEntry* CalendarQueue::peek(SimTime now) {
  if (size_ == 0) return nullptr;
  advance(now);
  if (min_bucket_ == kNoBucket) min_bucket_ = first_occupied();
  Bucket& bucket = buckets_[min_bucket_];
  ensure_sorted(bucket);
  return &bucket.entries.back();
}

EventEntry CalendarQueue::pop_min(SimTime now) {
  CFDS_EXPECT(size_ > 0, "pop_min on an empty calendar queue");
  advance(now);
  if (min_bucket_ == kNoBucket) min_bucket_ = first_occupied();
  const std::size_t idx = min_bucket_;
  Bucket& bucket = buckets_[idx];
  ensure_sorted(bucket);
  const EventEntry entry = bucket.entries.back();
  bucket.entries.pop_back();
  if (bucket.entries.empty()) {
    occupied_[idx / 64] &= ~(std::uint64_t{1} << (idx % 64));
    min_bucket_ = kNoBucket;  // the next peek/pop rescans the bitmap
    if (bucket.entries.capacity() >= kSpareWorthy) {
      // Donate the warm vector for the next bucket activation (see spare_).
      stash(std::move(bucket.entries));
      bucket.entries.clear();  // moved-from: force the guaranteed state
    }
  }
  --size_;
  CFDS_EXPECT(entry.when >= now, "calendar queue fired an event in the past");
  return entry;
}

}  // namespace cfds
