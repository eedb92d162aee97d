// Lock-free single-producer/single-consumer ring.
//
// This is the receive/transmit ring of the paper's infrastructure (§5,
// Fig 3): each NF owns an RX and a TX ring stored in shared memory, and
// packet delivery writes *references* into the next NF's RX ring
// (zero-copy delivery as in NetVM/OpenNetVM).
//
// A bounded power-of-two ring whose slots carry their own publication
// stamp: the producer writes a value, then release-stores the slot's stamp
// as (position + 1); the consumer acquires the stamp of the slot at its
// next position and owns the value once the stamp matches. Stamps cannot
// alias across laps: the slot at position p is reused only at p + capacity,
// which the producer reaches after the consumer has freed p. So no consumer
// polls the producer's index — a published value costs one shared cache
// line, its slot, and an idle consumer spins on the very line the next
// push writes. The producer index is read by no consumer; it is atomic
// only so size() can be scraped from another thread. The consumer index is
// published for the producer, which re-reads it only when its cached view
// says the ring is full. A slot whose size is a power of two up to a cache
// line is aligned to its size, so it never straddles two lines.
//
// Safe for exactly one producer thread and one consumer thread; the
// deterministic simulator also uses it single-threaded. Burst variants
// (push_burst/pop_burst) mirror DPDK's rte_ring enqueue/dequeue-burst: at
// most one consumer-index re-read per push burst and one consumer-index
// publish per pop burst. Each value is still published the moment it is
// written — a burst never holds back its first values.
#pragma once

#include <algorithm>
#include <atomic>
#include <memory>
#include <span>

#include "common/types.hpp"

namespace nfp {

template <typename T>
class SpscRing {
  static constexpr std::size_t kStampedBytes =
      sizeof(T) + sizeof(std::atomic<u64>);
  static constexpr bool kLineAligned =
      (kStampedBytes & (kStampedBytes - 1)) == 0 &&
      kStampedBytes <= kCacheLineSize;

  struct alignas(kLineAligned ? kStampedBytes
                              : std::max(alignof(T), alignof(std::atomic<u64>)))
      Slot {
    T value{};
    // position + 1 once `value` is published at that position; 0 = never.
    std::atomic<u64> stamp{0};
  };

 public:
  // One slot's size and alignment, so callers can pin a descriptor to one
  // cache line.
  static constexpr std::size_t kSlotBytes = sizeof(Slot);
  static constexpr std::size_t kSlotAlign = alignof(Slot);

  explicit SpscRing(std::size_t capacity_pow2 = 1024)
      : capacity_(round_up_pow2(capacity_pow2)),
        mask_(capacity_ - 1),
        slots_(std::make_unique<Slot[]>(capacity_)) {}

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  // Returns false when the ring is full (caller drops or retries).
  bool push(T value) noexcept {
    const u64 head = head_.load(std::memory_order_relaxed);
    if (room(head, 1) == 0) {
      full_events_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    publish(head, std::move(value));
    head_.store(head + 1, std::memory_order_relaxed);
    return true;
  }

  // Returns false when the ring is empty.
  bool pop(T& out) noexcept {
    const u64 tail = tail_.load(std::memory_order_relaxed);
    Slot& slot = slots_[tail & mask_];
    if (slot.stamp.load(std::memory_order_acquire) != tail + 1) return false;
    out = std::move(slot.value);
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  // Pushes up to items.size() values; returns the count actually enqueued
  // (0 when full). The consumer index is re-read at most once.
  std::size_t push_burst(std::span<const T> items) noexcept {
    if (items.empty()) return 0;
    const u64 head = head_.load(std::memory_order_relaxed);
    const u64 free = room(head, items.size());
    if (free == 0) {
      full_events_.fetch_add(1, std::memory_order_relaxed);
      return 0;
    }
    const std::size_t n = std::min<std::size_t>(items.size(), free);
    for (std::size_t i = 0; i < n; ++i) publish(head + i, items[i]);
    head_.store(head + n, std::memory_order_relaxed);
    return n;
  }

  // Pops up to out.size() values, stopping at the first unpublished slot;
  // returns the count dequeued (0 when empty). One consumer-index publish
  // per burst.
  std::size_t pop_burst(std::span<T> out) noexcept {
    const u64 tail = tail_.load(std::memory_order_relaxed);
    std::size_t n = 0;
    for (; n < out.size(); ++n) {
      Slot& slot = slots_[(tail + n) & mask_];
      if (slot.stamp.load(std::memory_order_acquire) != tail + n + 1) break;
      out[n] = std::move(slot.value);
    }
    if (n != 0) tail_.store(tail + n, std::memory_order_release);
    return n;
  }

  bool empty() const noexcept { return size() == 0; }

  // Occupancy as seen by a third-party observer (telemetry probes read this
  // cross-thread). `tail_` is loaded *before* `head_` — the reverse order
  // would let a pop between the two loads make head - tail wrap to a huge
  // value — and the result is clamped to [0, capacity]: the consumer may
  // pop a value before the producer's relaxed index store shows, and
  // pushes between the loads can make the difference exceed capacity.
  std::size_t size() const noexcept {
    const u64 tail = tail_.load(std::memory_order_acquire);
    const u64 head = head_.load(std::memory_order_relaxed);
    const u64 used = head >= tail ? head - tail : 0;
    return static_cast<std::size_t>(std::min<u64>(used, capacity_));
  }

  std::size_t capacity() const noexcept { return capacity_; }

  // Failed pushes against a genuinely full ring (after the consumer index
  // re-read). Producer-written on the already-slow full path only;
  // backpressure evidence for the scalability profiler.
  u64 full_events() const noexcept {
    return full_events_.load(std::memory_order_relaxed);
  }

 private:
  static constexpr std::size_t round_up_pow2(std::size_t v) noexcept {
    std::size_t p = 1;
    while (p < v) p <<= 1;
    return p;
  }

  // Free slots after `head`, re-reading the consumer index only when the
  // cached view shows fewer than `want`.
  u64 room(u64 head, std::size_t want) noexcept {
    u64 free = capacity_ - (head - tail_cache_);
    if (free < want) {
      tail_cache_ = tail_.load(std::memory_order_acquire);
      free = capacity_ - (head - tail_cache_);
    }
    return free;
  }

  void publish(u64 pos, T value) noexcept {
    Slot& slot = slots_[pos & mask_];
    slot.value = std::move(value);
    slot.stamp.store(pos + 1, std::memory_order_release);
  }

  const std::size_t capacity_;
  const std::size_t mask_;
  std::unique_ptr<Slot[]> slots_;

  // Producer-written: its index, its view of the consumer index and the
  // full-push count. Scrapers read head_ and full_events_; no consumer
  // reads this line.
  alignas(kCacheLineSize) std::atomic<u64> head_{0};
  u64 tail_cache_ = 0;
  std::atomic<u64> full_events_{0};
  // Consumer index: written per pop, read by the producer only when full.
  alignas(kCacheLineSize) std::atomic<u64> tail_{0};
};

}  // namespace nfp
