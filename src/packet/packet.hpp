// Packet buffer with NFP metadata.
//
// Mirrors the DPDK mbuf + NFP metadata design of the paper (§5.1, Fig 5):
// every packet carries a 64-bit metadata word holding
//   - Match ID  (MID, 20 bits): identifies the service graph the packet
//     follows; keys the forwarding and merging tables,
//   - Packet ID (PID, 40 bits): unique per input packet; all copies of one
//     packet share the PID so the merger can accumulate them,
//   - Version   (4 bits): distinguishes copies of the same packet.
//
// Buffers live in a pre-allocated pool ("shared memory on huge pages" in the
// paper); ownership between components is transferred by reference, never by
// copying payload bytes, except where the service graph explicitly requires
// a packet copy (then Header-Only Copying applies, §4.2 OP#2).
#pragma once

#include <array>
#include <atomic>
#include <cstring>
#include <span>

#include "common/hash.hpp"
#include "common/types.hpp"
#include "packet/headers.hpp"

namespace nfp {

class PacketPool;

// 64-bit NFP metadata word (paper Fig 5).
class Metadata {
 public:
  constexpr Metadata() = default;

  constexpr u32 mid() const noexcept { return static_cast<u32>(raw_ >> 44); }
  constexpr u64 pid() const noexcept {
    return (raw_ >> 4) & ((u64{1} << 40) - 1);
  }
  constexpr u8 version() const noexcept { return static_cast<u8>(raw_ & 0xf); }

  constexpr void set_mid(u32 mid) noexcept {
    raw_ = (raw_ & ~(u64{0xFFFFF} << 44)) |
           (static_cast<u64>(mid & 0xFFFFF) << 44);
  }
  constexpr void set_pid(u64 pid) noexcept {
    raw_ = (raw_ & ~(((u64{1} << 40) - 1) << 4)) |
           ((pid & ((u64{1} << 40) - 1)) << 4);
  }
  constexpr void set_version(u8 v) noexcept {
    raw_ = (raw_ & ~u64{0xf}) | (v & 0xf);
  }

  constexpr u64 raw() const noexcept { return raw_; }

  static constexpr u32 kMaxMid = (1u << 20) - 1;
  static constexpr u64 kMaxPid = (u64{1} << 40) - 1;
  static constexpr u8 kMaxVersion = 15;

 private:
  u64 raw_ = 0;
};

// Latency-observatory stamps carried by sampled packets (all zero — in
// particular origin_ns == 0 — on unsampled ones, so the hot path pays one
// branch). Written only by the thread that owns the packet; a parallel
// segment stamps its version-1 packet around the whole fused branch
// sequence.
struct LatencyStamps {
  u64 origin_ns = 0;   // director/pipeline ingest stamp; 0 = not sampled
  u64 mark_ns = 0;     // last hop boundary (telescoping mark)
  u64 ingest_ns = 0;   // origin -> first pipeline feed
  u64 queue_ns = 0;    // accumulated spans between NF calls
  u64 service_ns = 0;  // accumulated NetworkFunction::process spans
};

class Packet {
 public:
  static constexpr std::size_t kBufferSize = 2048;
  static constexpr std::size_t kHeadroom = 128;
  static constexpr std::size_t kMaxDataLen = kBufferSize - kHeadroom;

  Packet() = default;
  Packet(const Packet&) = delete;
  Packet& operator=(const Packet&) = delete;

  // --- data region ----------------------------------------------------------
  u8* data() noexcept { return buf_.data() + data_off_; }
  const u8* data() const noexcept { return buf_.data() + data_off_; }
  std::size_t length() const noexcept { return data_len_; }
  std::span<u8> bytes() noexcept { return {data(), data_len_}; }
  std::span<const u8> bytes() const noexcept { return {data(), data_len_}; }

  void reset(std::size_t len) noexcept {
    data_off_ = kHeadroom;
    data_len_ = len;
    meta_ = Metadata{};
    inject_time_ = 0;
    lat_ = LatencyStamps{};
    flow_ = FlowRef{};
  }
  void set_length(std::size_t len) noexcept { data_len_ = len; }
  // Where data() points once reset() has run. A producer that leaves the
  // reset to the slot's next owner (the sharded director) copies a frame
  // here without reading the slot's stale metadata.
  u8* reset_data() noexcept { return buf_.data() + kHeadroom; }

  // Grows the packet at the front (header insertion); returns the new start.
  u8* prepend(std::size_t n) noexcept {
    data_off_ -= static_cast<u32>(n);
    data_len_ += n;
    return data();
  }
  // Shrinks the packet at the front (header removal).
  void trim_front(std::size_t n) noexcept {
    data_off_ += static_cast<u32>(n);
    data_len_ -= n;
  }
  std::size_t headroom() const noexcept { return data_off_; }

  // Inserts `n` bytes at `offset` from the packet start by shifting the
  // preceding bytes into headroom (cheap for header insertion near the top).
  u8* insert(std::size_t offset, std::size_t n) noexcept {
    u8* old_start = data();
    prepend(n);
    std::memmove(data(), old_start, offset);
    return data() + offset;
  }
  // Removes `n` bytes at `offset` by shifting the preceding bytes down.
  void erase(std::size_t offset, std::size_t n) noexcept {
    u8* old_start = data();
    std::memmove(old_start + n, old_start, offset);
    trim_front(n);
  }

  // --- metadata ---------------------------------------------------------------
  Metadata& meta() noexcept { return meta_; }
  const Metadata& meta() const noexcept { return meta_; }

  SimTime inject_time() const noexcept { return inject_time_; }
  void set_inject_time(SimTime t) noexcept { inject_time_ = t; }

  LatencyStamps& lat() noexcept { return lat_; }
  const LatencyStamps& lat() const noexcept { return lat_; }

  // Flow identity, parsed + hashed exactly once (by the sharded director or
  // the pipeline feeder) and reused by every later hop: shard-worker
  // classification, heavy-hitter keys, drop exemplars. Written only by the
  // thread that owns the packet, like LatencyStamps.
  FlowRef& flow() noexcept { return flow_; }
  const FlowRef& flow() const noexcept { return flow_; }

  // --- pool bookkeeping -------------------------------------------------------
  u32 pool_index() const noexcept { return pool_index_; }
  u32 ref_count() const noexcept {
    return refcnt_.load(std::memory_order_relaxed);
  }

 private:
  friend class PacketPool;

  alignas(kCacheLineSize) std::array<u8, kBufferSize> buf_{};
  u32 data_off_ = kHeadroom;
  u32 data_len_ = 0;
  Metadata meta_{};
  SimTime inject_time_ = 0;
  LatencyStamps lat_{};
  FlowRef flow_{};
  // Atomic so parallel NFs sharing one packet version can add_ref/release
  // without a pool lock (paper §5.2 reference-counted zero-copy delivery).
  std::atomic<u32> refcnt_{0};
  u32 pool_index_ = 0;
};

}  // namespace nfp
