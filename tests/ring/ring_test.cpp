// SPSC ring correctness: single-threaded semantics, the per-slot stamp
// protocol across laps, and multi-thread stress tests for its
// acquire/release pairing.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <numeric>
#include <span>
#include <thread>
#include <vector>

#include "ring/spsc_ring.hpp"

namespace nfp {
namespace {

TEST(SpscRing, PushPopFifoOrder) {
  SpscRing<int> ring(8);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(ring.push(i));
  for (int i = 0; i < 5; ++i) {
    int out = -1;
    ASSERT_TRUE(ring.pop(out));
    EXPECT_EQ(out, i);
  }
  int out;
  EXPECT_FALSE(ring.pop(out));
}

TEST(SpscRing, FullRingRejectsPush) {
  SpscRing<int> ring(4);
  EXPECT_EQ(ring.capacity(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(ring.push(i));
  EXPECT_FALSE(ring.push(99));
  int out;
  ASSERT_TRUE(ring.pop(out));
  EXPECT_TRUE(ring.push(99));
}

TEST(SpscRing, CapacityRoundsUpToPowerOfTwo) {
  SpscRing<int> ring(5);
  EXPECT_EQ(ring.capacity(), 8u);
}

TEST(SpscRing, SizeTracksOccupancy) {
  SpscRing<int> ring(8);
  EXPECT_TRUE(ring.empty());
  ring.push(1);
  ring.push(2);
  EXPECT_EQ(ring.size(), 2u);
  int out;
  ring.pop(out);
  EXPECT_EQ(ring.size(), 1u);
}

TEST(SpscRing, WrapsAroundManyTimes) {
  SpscRing<int> ring(4);
  int expected = 0;
  for (int round = 0; round < 1000; ++round) {
    EXPECT_TRUE(ring.push(round));
    int out;
    ASSERT_TRUE(ring.pop(out));
    EXPECT_EQ(out, expected++);
  }
}

TEST(SpscRing, BurstPushPopSemantics) {
  SpscRing<int> ring(8);
  const std::array<int, 5> first{0, 1, 2, 3, 4};
  EXPECT_EQ(ring.push_burst(first), 5u);
  // Only 3 slots left: the burst is truncated, not rejected.
  const std::array<int, 6> second{5, 6, 7, 8, 9, 10};
  EXPECT_EQ(ring.push_burst(second), 3u);
  EXPECT_EQ(ring.push_burst(second), 0u);  // full

  std::array<int, 6> out{};
  EXPECT_EQ(ring.pop_burst(out), 6u);
  for (int i = 0; i < 6; ++i) EXPECT_EQ(out[static_cast<std::size_t>(i)], i);
  EXPECT_EQ(ring.pop_burst(out), 2u);  // the remainder
  EXPECT_EQ(out[0], 6);
  EXPECT_EQ(out[1], 7);
  EXPECT_EQ(ring.pop_burst(out), 0u);  // empty
}

TEST(SpscRing, BurstInteroperatesWithSingleOps) {
  SpscRing<int> ring(4);
  EXPECT_TRUE(ring.push(1));
  const std::array<int, 2> burst{2, 3};
  EXPECT_EQ(ring.push_burst(burst), 2u);
  int v = 0;
  ASSERT_TRUE(ring.pop(v));
  EXPECT_EQ(v, 1);
  std::array<int, 4> out{};
  EXPECT_EQ(ring.pop_burst(out), 2u);
  EXPECT_EQ(out[0], 2);
  EXPECT_EQ(out[1], 3);
}

// Mixed burst sizes across the thread boundary: the acquire/release pairing
// of the single-publish-per-burst protocol must deliver every element
// exactly once, in order. (Runs under TSan in CI.)
TEST(SpscRing, BurstTwoThreadStress) {
  constexpr int kCount = 200'000;
  SpscRing<int> ring(128);

  std::thread consumer([&] {
    std::array<int, 17> buf{};  // deliberately co-prime with producer bursts
    int expect = 0;
    while (expect < kCount) {
      const std::size_t n = ring.pop_burst(buf);
      if (n == 0) {
        std::this_thread::yield();
        continue;
      }
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(buf[i], expect++) << "burst order violated";
      }
    }
  });

  std::array<int, 23> staged{};
  int next = 0;
  while (next < kCount) {
    std::size_t len = 0;
    while (len < staged.size() && next < kCount) staged[len++] = next++;
    std::size_t sent = 0;
    while (sent < len) {
      const std::size_t m =
          ring.push_burst(std::span<const int>(staged.data() + sent,
                                               len - sent));
      if (m == 0) {
        std::this_thread::yield();
      } else {
        sent += m;
      }
    }
  }
  consumer.join();
}

// Telemetry probes call size() from a third thread while both ends run.
// The old implementation loaded head before tail, so a pop between the two
// loads produced a wrapped-around huge value; size() must stay within
// [0, capacity] no matter the interleaving.
TEST(SpscRing, SizeStaysClampedUnderConcurrentObserver) {
  SpscRing<int> ring(64);
  std::atomic<bool> done{false};
  std::atomic<bool> violation{false};

  std::thread observer([&] {
    while (!done.load(std::memory_order_acquire)) {
      const std::size_t s = ring.size();
      if (s > ring.capacity()) violation.store(true);
    }
  });

  std::thread consumer([&] {
    int got = 0;
    int v;
    while (got < 100'000) {
      if (ring.pop(v)) {
        ++got;
      }
    }
  });

  for (int i = 0; i < 100'000; ++i) {
    while (!ring.push(i)) std::this_thread::yield();
  }
  consumer.join();
  done.store(true, std::memory_order_release);
  observer.join();
  EXPECT_FALSE(violation.load()) << "size() exceeded capacity";
}

TEST(SpscRing, TwoThreadStress) {
  constexpr int kCount = 200'000;
  SpscRing<int> ring(256);
  std::vector<int> received;
  received.reserve(kCount);

  std::thread consumer([&] {
    int got = 0;
    while (got < kCount) {
      int v;
      if (ring.pop(v)) {
        received.push_back(v);
        ++got;
      } else {
        std::this_thread::yield();
      }
    }
  });

  for (int i = 0; i < kCount; ++i) {
    while (!ring.push(i)) std::this_thread::yield();
  }
  consumer.join();

  ASSERT_EQ(received.size(), static_cast<std::size_t>(kCount));
  for (int i = 0; i < kCount; ++i) {
    ASSERT_EQ(received[static_cast<std::size_t>(i)], i) << "order violated";
  }
}

// Every slot of a capacity-4 ring is reused at every lap, so a stamp from
// an earlier lap must never read as published. A random mix of single and
// burst operations (bursts up to 5, past the capacity) runs 10^5 laps,
// filling and emptying the ring over and over; FIFO order, size() and
// full_events() stay exact at every step.
TEST(SpscRing, StampsNeverAliasAcrossLaps) {
  SpscRing<u64> ring(4);
  constexpr u64 kLaps = 100'000;
  u64 rng = 0x243F6A8885A308D3ull;
  u64 next_in = 0;
  u64 next_out = 0;
  u64 expected_full = 0;
  u64 empty_pops = 0;
  std::array<u64, 5> staged{};
  std::array<u64, 5> popped{};
  while (next_out < kLaps * ring.capacity()) {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    const std::size_t want = 1 + (rng >> 8) % staged.size();
    const std::size_t before = ring.size();
    ASSERT_EQ(before, next_in - next_out);
    switch (rng % 4) {
      case 0: {
        for (std::size_t i = 0; i < want; ++i) staged[i] = next_in + i;
        const std::size_t pushed =
            ring.push_burst(std::span<const u64>(staged.data(), want));
        ASSERT_EQ(pushed, std::min(want, ring.capacity() - before));
        if (pushed == 0) ++expected_full;
        next_in += pushed;
        break;
      }
      case 1: {
        const bool pushed = ring.push(next_in);
        ASSERT_EQ(pushed, before < ring.capacity());
        if (pushed) {
          ++next_in;
        } else {
          ++expected_full;
        }
        break;
      }
      case 2: {
        u64 v = 0;
        const bool got = ring.pop(v);
        ASSERT_EQ(got, before > 0);
        if (got) {
          ASSERT_EQ(v, next_out++);
        } else {
          ++empty_pops;
        }
        break;
      }
      default: {
        const std::size_t n =
            ring.pop_burst(std::span<u64>(popped.data(), want));
        ASSERT_EQ(n, std::min(want, before));
        for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(popped[i], next_out++);
        break;
      }
    }
    ASSERT_EQ(ring.full_events(), expected_full);
    ASSERT_EQ(ring.empty(), next_in == next_out);
  }
  EXPECT_GT(expected_full, 0u);
  EXPECT_GT(empty_pops, 0u);
}

// A 56-byte value fills a one-line slot with its stamp. The producer
// publishes 10^6 of them, the consumer checks each one's sequence number
// and checksum (a torn or early read fails), and a third thread scrapes
// size() throughout. (Runs under TSan in CI.)
TEST(SpscRing, WideValuesArriveWholeUnderConcurrentScrape) {
  struct Item {
    u64 seq = 0;
    std::array<u64, 5> body{};
    u64 checksum = 0;
  };
  static_assert(sizeof(Item) == 56);
  const auto make = [](u64 seq) {
    Item item;
    item.seq = seq;
    u64 sum = seq;
    for (std::size_t i = 0; i < item.body.size(); ++i) {
      item.body[i] = seq * 0x9E3779B97F4A7C15ull + i;
      sum ^= item.body[i] + (sum << 6) + (sum >> 2);
    }
    item.checksum = sum;
    return item;
  };
  constexpr u64 kCount = 1'000'000;
  SpscRing<Item> ring(64);
  std::atomic<bool> done{false};
  std::atomic<bool> oversize{false};

  std::thread scraper([&] {
    while (!done.load(std::memory_order_acquire)) {
      if (ring.size() > ring.capacity()) oversize.store(true);
    }
  });
  // Mismatches are counted, not asserted, so a failure cannot strand the
  // producer on a full ring.
  u64 bad = 0;
  std::thread consumer([&] {
    std::array<Item, 7> buf{};
    u64 expect = 0;
    while (expect < kCount) {
      std::size_t n = 0;
      if (expect % 2 == 0) {
        n = ring.pop_burst(buf);
      } else if (ring.pop(buf[0])) {
        n = 1;
      }
      for (std::size_t i = 0; i < n; ++i) {
        const Item want = make(expect++);
        if (buf[i].seq != want.seq || buf[i].body != want.body ||
            buf[i].checksum != want.checksum) {
          ++bad;
        }
      }
    }
  });

  std::array<Item, 5> staged{};
  for (u64 next = 0; next < kCount;) {
    if (next % 3 == 0) {
      while (!ring.push(make(next))) std::this_thread::yield();
      ++next;
      continue;
    }
    const std::size_t len =
        static_cast<std::size_t>(std::min<u64>(staged.size(), kCount - next));
    for (std::size_t i = 0; i < len; ++i) staged[i] = make(next + i);
    std::size_t sent = 0;
    while (sent < len) {
      const std::size_t m = ring.push_burst(
          std::span<const Item>(staged.data() + sent, len - sent));
      if (m == 0) std::this_thread::yield();
      sent += m;
    }
    next += len;
  }
  consumer.join();
  done.store(true, std::memory_order_release);
  scraper.join();
  EXPECT_EQ(bad, 0u) << "torn, early or reordered values";
  EXPECT_FALSE(oversize.load()) << "size() exceeded capacity";
  EXPECT_EQ(ring.size(), 0u);
}

}  // namespace
}  // namespace nfp
