// Per-thread magazine cache over the shared PacketPool.
//
// The DPDK mempool idiom (and NetVM/OpenNetVM's per-core caches): each
// pipeline thread keeps a small private stack of free slots so the common
// alloc/release cycle never touches the shared free list. Only when the
// magazine runs dry (refill) or overflows (flush) does a *batch* of slots
// move to/from the pool — one CAS per batch thanks to the pool's chain
// push/pop. Refill and flush totals feed the telemetry registry
// (pool_magazine_{refill,flush}_total) so `nfp_cli top` can show allocator
// pressure: a hot magazine shows near-zero refills per packet.
//
// A magazine belongs to exactly one thread. Capacity 0 degrades to direct
// pool calls. It has the pool's alloc/clone/add_ref/release surface, so the
// segment kernel's fan_out works through either. take_raw/release_raw move
// slots that no one has activated: the sharded director fills raw slots
// and leaves their activation to the shard that runs them.
#pragma once

#include <algorithm>
#include <atomic>
#include <vector>

#include "packet/packet_pool.hpp"

namespace nfp {

class PacketMagazine {
 public:
  // `refill_total` / `flush_total` may be shared by several magazines (the
  // live pipeline aggregates all of its threads into two counters); null is
  // fine.
  PacketMagazine(PacketPool& pool, std::size_t capacity,
                 std::atomic<u64>* refill_total = nullptr,
                 std::atomic<u64>* flush_total = nullptr)
      : pool_(pool),
        capacity_(capacity),
        batch_(std::max<std::size_t>(1, capacity / 2)),
        refill_total_(refill_total),
        flush_total_(flush_total) {
    cache_.reserve(capacity);
  }

  ~PacketMagazine() { drain(); }

  PacketMagazine(const PacketMagazine&) = delete;
  PacketMagazine& operator=(const PacketMagazine&) = delete;

  Packet* alloc(std::size_t len) noexcept {
    Packet* p = take_raw();
    if (p == nullptr) return nullptr;
    PacketPool::activate(*p, len);
    return p;
  }

  // A raw slot (refcount 0, stale metadata) for a caller that hands it to
  // another thread to activate; nullptr when the pool is dry. It also
  // prefetches, for write, the first data line of the slot the next call
  // returns: the sharded director copies a frame there, and that line was
  // last written by the shard core that freed the slot.
  Packet* take_raw() noexcept {
    if (cache_.empty()) {
      if (capacity_ == 0) {
        Packet* p = nullptr;
        return pool_.alloc_raw(&p, 1) == 1 ? p : nullptr;
      }
      cache_.resize(batch_);
      const std::size_t got = pool_.alloc_raw(cache_.data(), batch_);
      cache_.resize(got);
      if (got == 0) return nullptr;
      if (refill_total_ != nullptr) {
        refill_total_->fetch_add(1, std::memory_order_relaxed);
      }
    }
    Packet* p = cache_.back();
    cache_.pop_back();
    if (!cache_.empty()) __builtin_prefetch(cache_.back()->reset_data(), 1);
    return p;
  }

  Packet* clone_full(const Packet& src) noexcept {
    Packet* dst = alloc(src.length());
    if (dst == nullptr) return nullptr;
    PacketPool::copy_packet_full(*dst, src);
    return dst;
  }

  Packet* clone_header_only(const Packet& src) noexcept {
    Packet* dst = alloc(header_copy_len(src));
    if (dst == nullptr) return nullptr;
    PacketPool::copy_packet_header_only(*dst, src);
    return dst;
  }

  void add_ref(Packet* p) noexcept { pool_.add_ref(p); }

  // Drops one reference; the slot lands in the magazine when this was the
  // last holder.
  void release(Packet* p) noexcept {
    if (pool_.dec_ref(p)) release_raw(p);
  }

  // Takes back a slot that holds no reference: one from take_raw() that was
  // never activated (dec_ref on it would count a refcount underflow), or
  // one whose last reference is already dropped.
  void release_raw(Packet* p) noexcept {
    if (cache_.size() >= capacity_) {
      if (capacity_ == 0) {
        pool_.free_raw(&p, 1);
        return;
      }
      // Flush the colder (front) half in one chain push; keep the hot half.
      pool_.free_raw(cache_.data(), batch_);
      cache_.erase(cache_.begin(),
                   cache_.begin() + static_cast<std::ptrdiff_t>(batch_));
      if (flush_total_ != nullptr) {
        flush_total_->fetch_add(1, std::memory_order_relaxed);
      }
    }
    cache_.push_back(p);
  }

  // Returns every cached slot to the pool (thread shutdown).
  void drain() noexcept {
    if (!cache_.empty()) {
      pool_.free_raw(cache_.data(), cache_.size());
      cache_.clear();
    }
  }

  std::size_t cached() const noexcept { return cache_.size(); }

 private:
  PacketPool& pool_;
  const std::size_t capacity_;
  const std::size_t batch_;
  std::vector<Packet*> cache_;
  std::atomic<u64>* refill_total_;
  std::atomic<u64>* flush_total_;
};

}  // namespace nfp
