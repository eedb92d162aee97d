// Stress and property tests for the packet pool and metadata word.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "packet/packet_magazine.hpp"
#include "packet/packet_pool.hpp"

namespace nfp {
namespace {

TEST(PoolStress, RandomAllocReleaseNeverLeaksOrDoubles) {
  PacketPool pool(128);
  Rng rng(42);
  std::vector<Packet*> live;

  for (int step = 0; step < 100'000; ++step) {
    const double p = rng.uniform();
    if (p < 0.45) {
      Packet* pkt = pool.alloc(rng.range(0, 1500));
      if (pkt != nullptr) {
        EXPECT_EQ(pkt->ref_count(), 1u);
        live.push_back(pkt);
      } else {
        EXPECT_EQ(pool.available(), 0u);
      }
    } else if (p < 0.6 && !live.empty()) {
      // Take an extra reference on a random live packet; each entry in
      // `live` represents one reference to release.
      Packet* target = live[rng.bounded(live.size())];
      pool.add_ref(target);
      live.push_back(target);
    } else if (!live.empty()) {
      const std::size_t idx = rng.bounded(live.size());
      pool.release(live[idx]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
    }
    ASSERT_LE(pool.in_use(), 128u);
  }
  for (Packet* pkt : live) pool.release(pkt);
  EXPECT_EQ(pool.in_use(), 0u);
}

TEST(PoolStress, AddRefTracking) {
  PacketPool pool(4);
  Packet* a = pool.alloc(64);
  for (int i = 0; i < 10; ++i) pool.add_ref(a);
  EXPECT_EQ(a->ref_count(), 11u);
  for (int i = 0; i < 11; ++i) pool.release(a);
  EXPECT_EQ(pool.in_use(), 0u);
  // The slot is reusable and comes back clean.
  Packet* b = pool.alloc(32);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->ref_count(), 1u);
  EXPECT_EQ(b->meta().raw(), 0u);
  pool.release(b);
}

TEST(PoolStress, BulkAllocFreeRoundTrip) {
  PacketPool pool(64);
  Packet* batch[64] = {};
  // Chain pop: one CAS hands out the whole batch.
  EXPECT_EQ(pool.alloc_raw(batch, 64), 64u);
  EXPECT_EQ(pool.available(), 0u);
  EXPECT_EQ(pool.alloc_raw(batch, 1), 0u);  // exhausted
  // Chain push returns them all; every slot must be allocatable again and
  // distinct (a corrupted chain would hand out duplicates or lose slots).
  pool.free_raw(batch, 64);
  EXPECT_EQ(pool.available(), 64u);
  Packet* again[64] = {};
  EXPECT_EQ(pool.alloc_raw(again, 64), 64u);
  std::sort(std::begin(again), std::end(again));
  EXPECT_EQ(std::unique(std::begin(again), std::end(again)), std::end(again));
  pool.free_raw(again, 64);
  EXPECT_EQ(pool.in_use(), 0u);
}

// Double-release must not corrupt the free list in release builds: the
// refcount is pinned at zero, the slot is NOT freed a second time, and the
// incident is counted for telemetry.
TEST(PoolStress, ReleaseUnderflowIsDetectedNotCorrupting) {
  PacketPool pool(8);
  Packet* a = pool.alloc(64);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(pool.refcnt_underflow_total(), 0u);
  EXPECT_TRUE(pool.dec_ref(a));   // legitimate last release
  pool.free_raw(&a, 1);
  EXPECT_FALSE(pool.dec_ref(a));  // double release: detected, not freed
  EXPECT_EQ(pool.refcnt_underflow_total(), 1u);
  EXPECT_EQ(a->ref_count(), 0u);  // pinned, not wrapped to 0xFFFFFFFF

  // The free list still holds exactly 8 distinct slots.
  Packet* all[8] = {};
  EXPECT_EQ(pool.alloc_raw(all, 8), 8u);
  std::sort(std::begin(all), std::end(all));
  EXPECT_EQ(std::unique(std::begin(all), std::end(all)), std::end(all));
  pool.free_raw(all, 8);
  EXPECT_EQ(pool.in_use(), 0u);
}

// Many threads hammer the pool through private magazines: alloc, clone,
// add_ref/release of shared packets, random churn. TSan-covered in CI; the
// invariant check is that everything drains back to in_use()==0 with no
// underflow ever detected.
TEST(PoolStress, ConcurrentMagazineChurn) {
  constexpr int kThreads = 4;
  constexpr int kSteps = 30'000;
  PacketPool pool(512);
  std::atomic<u64> refills{0};
  std::atomic<u64> flushes{0};

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      PacketMagazine mag(pool, 32, &refills, &flushes);
      Rng rng(static_cast<u64>(t) * 7919 + 1);
      std::vector<Packet*> live;
      for (int step = 0; step < kSteps; ++step) {
        const double p = rng.uniform();
        if (p < 0.40) {
          if (Packet* pkt = mag.alloc(rng.range(0, 1500))) live.push_back(pkt);
        } else if (p < 0.55 && !live.empty()) {
          Packet* target = live[rng.bounded(live.size())];
          mag.add_ref(target);
          live.push_back(target);
        } else if (p < 0.65 && !live.empty()) {
          Packet* src = live[rng.bounded(live.size())];
          if (Packet* c = mag.clone_header_only(*src)) live.push_back(c);
        } else if (!live.empty()) {
          const std::size_t idx = rng.bounded(live.size());
          mag.release(live[idx]);
          live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
        }
      }
      for (Packet* pkt : live) mag.release(pkt);
      // drain() on scope exit returns the cached slots.
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(pool.in_use(), 0u);
  EXPECT_EQ(pool.available(), 512u);
  EXPECT_EQ(pool.refcnt_underflow_total(), 0u);
  // With hot magazines, refills should be far rarer than allocations.
  EXPECT_GT(refills.load(), 0u);
}

// Cross-thread handoff: producers allocate via their magazine and push raw
// pointers into a shared vector; consumers release through a *different*
// magazine. Exercises the atomic refcount + cross-magazine free path.
TEST(PoolStress, CrossThreadReleaseThroughForeignMagazine) {
  constexpr int kPerProducer = 20'000;
  PacketPool pool(256);
  std::atomic<Packet*> mailbox{nullptr};
  std::atomic<bool> done{false};

  std::thread consumer([&] {
    PacketMagazine mag(pool, 16);
    while (true) {
      Packet* p = mailbox.exchange(nullptr, std::memory_order_acq_rel);
      if (p != nullptr) {
        mag.release(p);
      } else if (done.load(std::memory_order_acquire)) {
        break;
      } else {
        std::this_thread::yield();
      }
    }
  });

  {
    PacketMagazine mag(pool, 16);
    for (int i = 0; i < kPerProducer; ++i) {
      Packet* p = nullptr;
      while ((p = mag.alloc(64)) == nullptr) std::this_thread::yield();
      Packet* expected = nullptr;
      while (!mailbox.compare_exchange_weak(expected, p,
                                            std::memory_order_acq_rel)) {
        expected = nullptr;
        std::this_thread::yield();
      }
    }
  }
  done.store(true, std::memory_order_release);
  consumer.join();
  // The consumer may still have drained its magazine; the pool must balance.
  EXPECT_EQ(pool.in_use(), 0u);
  EXPECT_EQ(pool.refcnt_underflow_total(), 0u);
}

TEST(MetadataFuzz, RandomRoundTrips) {
  Rng rng(7);
  for (int i = 0; i < 50'000; ++i) {
    const u32 mid = static_cast<u32>(rng.next()) & Metadata::kMaxMid;
    const u64 pid = rng.next() & Metadata::kMaxPid;
    const u8 version = static_cast<u8>(rng.bounded(16));
    Metadata m;
    // Apply in random order; the fields must never interfere.
    switch (rng.bounded(3)) {
      case 0:
        m.set_mid(mid);
        m.set_pid(pid);
        m.set_version(version);
        break;
      case 1:
        m.set_pid(pid);
        m.set_version(version);
        m.set_mid(mid);
        break;
      default:
        m.set_version(version);
        m.set_mid(mid);
        m.set_pid(pid);
        break;
    }
    ASSERT_EQ(m.mid(), mid);
    ASSERT_EQ(m.pid(), pid);
    ASSERT_EQ(m.version(), version);
  }
}

}  // namespace
}  // namespace nfp
