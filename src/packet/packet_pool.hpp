// Pre-allocated packet pool.
//
// The paper stores packets in shared memory allocated on huge pages at
// system initialization so that header copies never hit the allocator
// (§5.2: "we prepare memory blocks to store input or copied packets during
// the system initialization"). This pool is the equivalent: a fixed arena of
// Packet buffers with an O(1) free-list and intrusive reference counts.
//
// Reference counting exists because `distribute` can hand the *same* packet
// version to several parallel NFs (§5.2); the buffer returns to the pool
// only when the last holder releases it.
//
// Concurrency: the free list is a lock-free Treiber stack of slot indices
// whose head packs a 32-bit ABA tag next to the index, so alloc/release are
// safe from any number of threads without a mutex — the DPDK-mempool role
// in the live pipeline. Chains of slots push/pop with a single CAS, which
// is what makes per-thread magazine caches (packet_magazine.hpp) cheap:
// a 32-slot refill is one CAS, not 32. Single-threaded users (the
// deterministic simulator) pay only an uncontended CAS per operation.
#pragma once

#include <cassert>
#include <memory>

#include "packet/packet.hpp"

namespace nfp {

class PacketPool {
 public:
  explicit PacketPool(std::size_t capacity)
      : slots_(std::make_unique<Packet[]>(capacity)),
        next_(std::make_unique<std::atomic<u32>[]>(capacity)),
        capacity_(capacity),
        free_count_(capacity) {
    for (std::size_t i = 0; i < capacity; ++i) {
      slots_[i].pool_index_ = static_cast<u32>(i);
      next_[i].store(i + 1 < capacity ? static_cast<u32>(i + 1) : kNilIndex,
                     std::memory_order_relaxed);
    }
    free_head_.store(pack(0, capacity > 0 ? 0 : kNilIndex),
                     std::memory_order_relaxed);
  }

  PacketPool(const PacketPool&) = delete;
  PacketPool& operator=(const PacketPool&) = delete;

  // Allocates a packet with `len` data bytes (refcount = 1).
  // Returns nullptr when the pool is exhausted (callers treat this as packet
  // loss, as a NIC would under mempool pressure).
  Packet* alloc(std::size_t len = 0) noexcept {
    Packet* p = nullptr;
    if (alloc_raw(&p, 1) == 0) return nullptr;
    activate(*p, len);
    return p;
  }

  void add_ref(Packet* p) noexcept {
    assert(p != nullptr && p->ref_count() > 0);
    p->refcnt_.fetch_add(1, std::memory_order_relaxed);
  }

  void release(Packet* p) noexcept {
    assert(p != nullptr);
    if (dec_ref(p)) free_raw(&p, 1);
  }

  // Drops one reference; true when this was the last holder and the slot is
  // ready for the free list (the caller owns returning it — magazines cache
  // it, release() pushes it straight back). A double-release reads refcount
  // 0 here: the old assert vanished under NDEBUG and the slot was pushed to
  // the free list twice, silently corrupting it. Now the underflow is
  // detected in every build, logged once, and counted.
  bool dec_ref(Packet* p) noexcept {
    const u32 prev = p->refcnt_.fetch_sub(1, std::memory_order_acq_rel);
    if (prev == 0) [[unlikely]] {
      p->refcnt_.store(0, std::memory_order_relaxed);
      note_underflow(p->pool_index_);
      return false;
    }
    return prev == 1;
  }

  // Pops up to `n` raw slots (refcount 0, contents stale) in one CAS.
  // Returns the count delivered; 0 when exhausted. Callers activate() each
  // slot before use.
  std::size_t alloc_raw(Packet** out, std::size_t n) noexcept {
    if (n == 0) return 0;
    u64 head = free_head_.load(std::memory_order_acquire);
    for (;;) {
      u32 cur = head_index(head);
      if (cur == kNilIndex) return 0;
      // Walk the chain optimistically; stale links only make the CAS fail.
      std::size_t got = 0;
      while (got < n && cur != kNilIndex) {
        out[got++] = &slots_[cur];
        cur = next_[cur].load(std::memory_order_relaxed);
      }
      const u64 replacement = pack(head_tag(head) + 1, cur);
      if (free_head_.compare_exchange_weak(head, replacement,
                                           std::memory_order_acq_rel,
                                           std::memory_order_acquire)) {
        free_count_.fetch_sub(got, std::memory_order_relaxed);
        return got;
      }
      cas_retry_total_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  // Returns `n` slots (refcount must already be 0) in one CAS.
  void free_raw(Packet* const* items, std::size_t n) noexcept {
    if (n == 0) return;
    for (std::size_t i = 0; i + 1 < n; ++i) {
      next_[items[i]->pool_index_].store(items[i + 1]->pool_index_,
                                         std::memory_order_relaxed);
    }
    const u32 first = items[0]->pool_index_;
    const u32 last = items[n - 1]->pool_index_;
    u64 head = free_head_.load(std::memory_order_relaxed);
    for (;;) {
      next_[last].store(head_index(head), std::memory_order_relaxed);
      const u64 replacement = pack(head_tag(head) + 1, first);
      if (free_head_.compare_exchange_weak(head, replacement,
                                           std::memory_order_release,
                                           std::memory_order_relaxed)) {
        free_count_.fetch_add(n, std::memory_order_relaxed);
        return;
      }
      cas_retry_total_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  // Readies a raw slot for hand-out: fresh metadata, refcount 1.
  static void activate(Packet& p, std::size_t len) noexcept {
    p.reset(len);
    p.refcnt_.store(1, std::memory_order_relaxed);
  }

  // Full copy of data + metadata (used when Header-Only Copying is disabled
  // for ablation studies).
  Packet* clone_full(const Packet& src) noexcept {
    Packet* dst = alloc(src.length());
    if (dst == nullptr) return nullptr;
    copy_packet_full(*dst, src);
    return dst;
  }

  // Header-Only Copying (paper §4.2 OP#2): copies only the Ethernet + IP +
  // L4 header region and sets the copied packet's IP total-length field to
  // the header length itself so parallel NFs still see a valid packet.
  // Returns the copy, or nullptr on pool exhaustion.
  Packet* clone_header_only(const Packet& src) noexcept;

  std::size_t capacity() const noexcept { return capacity_; }
  std::size_t in_use() const noexcept { return capacity_ - available(); }
  std::size_t available() const noexcept {
    const std::size_t free = free_count_.load(std::memory_order_relaxed);
    return free > capacity_ ? capacity_ : free;
  }
  // Detected release-after-free attempts (see dec_ref). Exported as
  // pool_refcnt_underflow_total by the live pipeline's health probes.
  u64 refcnt_underflow_total() const noexcept {
    return underflow_total_.load(std::memory_order_relaxed);
  }
  // Failed head-CAS attempts across alloc_raw/free_raw: direct evidence of
  // cross-thread free-list contention (each retry is one extra bounce of
  // the free_head_ cacheline). Read by the scalability profiler.
  u64 cas_retry_total() const noexcept {
    return cas_retry_total_.load(std::memory_order_relaxed);
  }

  // The copy bodies behind clone_full/clone_header_only, usable on slots
  // allocated elsewhere (magazine caches); the header-only body copies
  // dst.length() bytes, so `dst` must be activated with header_copy_len.
  static void copy_packet_full(Packet& dst, const Packet& src) noexcept;
  static void copy_packet_header_only(Packet& dst, const Packet& src) noexcept;

 private:
  static constexpr u32 kNilIndex = 0xFFFFFFFFu;
  static constexpr u64 pack(u64 tag, u32 index) noexcept {
    return (tag << 32) | index;
  }
  static constexpr u32 head_index(u64 head) noexcept {
    return static_cast<u32>(head);
  }
  static constexpr u64 head_tag(u64 head) noexcept { return head >> 32; }

  void note_underflow(u32 slot) noexcept;  // cold path: count + log once

  std::unique_ptr<Packet[]> slots_;
  // next_[i] chains free slot i to its successor; atomic because a raced
  // optimistic walk in alloc_raw may read a link another thread is relinking.
  std::unique_ptr<std::atomic<u32>[]> next_;
  std::size_t capacity_;
  // {tag:32, head index:32}; the tag increments on every successful CAS so
  // a pop-repush of the same head slot cannot ABA a concurrent chain walk.
  alignas(kCacheLineSize) std::atomic<u64> free_head_{0};
  alignas(kCacheLineSize) std::atomic<std::size_t> free_count_{0};
  // Diagnostic counters each on their own line: free_count_ is hammered by
  // every alloc/free batch, and the cold underflow counter would otherwise
  // ride (and bounce) that same cacheline for every telemetry read.
  // cas_retry_total_ is separated from underflow_total_ too — it is bumped
  // on every lost head CAS, i.e. precisely when multiple threads are
  // already fighting over the pool, the worst moment to share a line with
  // a telemetry-read counter.
  alignas(kCacheLineSize) std::atomic<u64> underflow_total_{0};
  alignas(kCacheLineSize) std::atomic<u64> cas_retry_total_{0};
};

// Length in bytes of the region copied by Header-Only Copying. The paper
// reports a fixed 64 B for TCP traffic on Ethernet (14 + 20 + 20 = 54,
// padded to the 64 B minimum frame / cache line).
inline constexpr std::size_t kHeaderCopyBytes = 64;

// Bytes a header-only copy of `src` takes: kHeaderCopyBytes, extended
// through the L4 header when an IPsec AH header (24 B, added by an
// upstream VPN) pushes it past them, so NFs on the copy still parse the
// ports; never more than the packet.
std::size_t header_copy_len(const Packet& src) noexcept;

}  // namespace nfp
