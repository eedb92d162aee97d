// Tests for the bounded LRU flow table: insert/lookup semantics, LRU
// eviction at capacity, erase/clear, MRU iteration order, a differential
// check against std::unordered_map while the table stays under capacity,
// and one against a reference LRU (std::list + std::map) past capacity,
// where eviction order, backward-shift deletion under churn and reuse
// after clear() all have to agree step by step.
#include <gtest/gtest.h>

#include <cstddef>
#include <list>
#include <map>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/hash.hpp"
#include "flow/flow_table.hpp"
#include "packet/headers.hpp"

namespace nfp {
namespace {

FiveTuple tuple(std::size_t flow) {
  return FiveTuple{0x0A000000 + static_cast<u32>(flow),
                   0x0B000000 + static_cast<u32>(flow % 7),
                   static_cast<u16>(10'000 + flow),
                   static_cast<u16>(80 + flow % 2), kProtoTcp};
}

u64 splitmix(u64 x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

TEST(FlowTableTest, InsertAndLookup) {
  FlowTable<u64> table(16);
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.peek(tuple(1)), nullptr);

  table.get_or_create(tuple(1)) = 42;
  ASSERT_NE(table.peek(tuple(1)), nullptr);
  EXPECT_EQ(*table.peek(tuple(1)), 42u);
  EXPECT_EQ(table.size(), 1u);

  // get_or_create on an existing key returns the same slot.
  table.get_or_create(tuple(1)) += 1;
  EXPECT_EQ(*table.peek(tuple(1)), 43u);
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.evictions(), 0u);
}

TEST(FlowTableTest, EvictsLeastRecentlyUsedAtCapacity) {
  FlowTable<u64> table(3);
  table.get_or_create(tuple(0)) = 0;
  table.get_or_create(tuple(1)) = 1;
  table.get_or_create(tuple(2)) = 2;
  // Touch flow 0 so flow 1 becomes the LRU victim.
  table.get_or_create(tuple(0));
  table.get_or_create(tuple(3)) = 3;

  EXPECT_EQ(table.size(), 3u);
  EXPECT_EQ(table.evictions(), 1u);
  EXPECT_EQ(table.peek(tuple(1)), nullptr) << "LRU entry should be evicted";
  EXPECT_NE(table.peek(tuple(0)), nullptr);
  EXPECT_NE(table.peek(tuple(2)), nullptr);
  EXPECT_NE(table.peek(tuple(3)), nullptr);
}

TEST(FlowTableTest, PeekDoesNotTouchLruOrder) {
  FlowTable<u64> table(2);
  table.get_or_create(tuple(0)) = 0;
  table.get_or_create(tuple(1)) = 1;
  // peek must not rescue flow 0 from eviction.
  EXPECT_NE(table.peek(tuple(0)), nullptr);
  table.get_or_create(tuple(2)) = 2;
  EXPECT_EQ(table.peek(tuple(0)), nullptr);
  EXPECT_NE(table.peek(tuple(1)), nullptr);
}

TEST(FlowTableTest, TouchReturnsValueAndRefreshesLruInOneProbe) {
  FlowTable<u64> table(3);
  EXPECT_EQ(table.touch(tuple(1)), nullptr);  // miss: no insert, no evict
  EXPECT_EQ(table.size(), 0u);

  table.get_or_create(tuple(1)) = 11;
  table.get_or_create(tuple(2)) = 22;
  table.get_or_create(tuple(3)) = 33;

  u64* hit = table.touch(tuple(1));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, 11u);
  *hit = 111;  // the pointer is writable (cache refresh in place)

  // The touch moved flow 1 to MRU: inserting one more evicts flow 2, the
  // now-least-recent entry, not flow 1.
  table.get_or_create(tuple(4)) = 44;
  EXPECT_EQ(table.peek(tuple(2)), nullptr);
  ASSERT_NE(table.peek(tuple(1)), nullptr);
  EXPECT_EQ(*table.peek(tuple(1)), 111u);
  EXPECT_EQ(table.evictions(), 1u);
}

TEST(FlowTableTest, EraseAndClear) {
  FlowTable<u64> table(8);
  table.get_or_create(tuple(0)) = 0;
  table.get_or_create(tuple(1)) = 1;
  EXPECT_TRUE(table.erase(tuple(0)));
  EXPECT_FALSE(table.erase(tuple(0)));
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.peek(tuple(0)), nullptr);

  table.clear();
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.peek(tuple(1)), nullptr);
}

TEST(FlowTableTest, ForEachIteratesMostRecentFirst) {
  FlowTable<u64> table(8);
  table.get_or_create(tuple(0)) = 0;
  table.get_or_create(tuple(1)) = 1;
  table.get_or_create(tuple(2)) = 2;
  table.get_or_create(tuple(1));  // touch: 1 becomes most recent

  std::vector<u64> order;
  table.for_each([&order](const FiveTuple&, const u64& v) {
    order.push_back(v);
  });
  EXPECT_EQ(order, (std::vector<u64>{1, 2, 0}));
}

TEST(FlowTableTest, DifferentialAgainstUnorderedMap) {
  // Under capacity the table must behave exactly like a plain map: a
  // pseudo-random workload of inserts, increments and erases over a key
  // space smaller than capacity never evicts, so the end states match.
  constexpr std::size_t kKeys = 64;
  FlowTable<u64> table(kKeys + 1);
  std::unordered_map<u32, u64> model;

  for (u64 i = 0; i < 20'000; ++i) {
    const u64 r = splitmix(i);
    const std::size_t f = r % kKeys;
    if (r % 13 == 0) {
      const bool erased = table.erase(tuple(f));
      EXPECT_EQ(erased, model.erase(static_cast<u32>(f)) > 0) << "step " << i;
    } else {
      table.get_or_create(tuple(f)) += 1;
      model[static_cast<u32>(f)] += 1;
    }
  }

  EXPECT_EQ(table.evictions(), 0u);
  EXPECT_EQ(table.size(), model.size());
  for (const auto& [key, count] : model) {
    const u64* got = table.peek(tuple(key));
    ASSERT_NE(got, nullptr) << "flow " << key;
    EXPECT_EQ(*got, count) << "flow " << key;
  }
  table.for_each([&model](const FiveTuple& key, const u64& count) {
    const auto it = model.find(key.src_ip - 0x0A000000);
    ASSERT_NE(it, model.end());
    EXPECT_EQ(it->second, count);
  });
}

// The model FlowTable must match exactly: front of the list = most recent,
// the LRU victim is the back.
class ReferenceLru {
 public:
  explicit ReferenceLru(std::size_t capacity) : capacity_(capacity) {}

  u64& get_or_create(std::size_t key) {
    if (u64* hit = touch(key)) return *hit;
    if (index_.size() == capacity_) {
      index_.erase(order_.back().first);
      order_.pop_back();
      ++evictions_;
    }
    order_.emplace_front(key, 0);
    index_[key] = order_.begin();
    return order_.front().second;
  }

  u64* touch(std::size_t key) {
    const auto it = index_.find(key);
    if (it == index_.end()) return nullptr;
    order_.splice(order_.begin(), order_, it->second);
    return &it->second->second;
  }

  const u64* peek(std::size_t key) const {
    const auto it = index_.find(key);
    return it == index_.end() ? nullptr : &it->second->second;
  }

  bool erase(std::size_t key) {
    const auto it = index_.find(key);
    if (it == index_.end()) return false;
    order_.erase(it->second);
    index_.erase(it);
    return true;
  }

  void clear() {
    order_.clear();
    index_.clear();
  }

  std::size_t size() const { return index_.size(); }
  u64 evictions() const { return evictions_; }
  const std::list<std::pair<std::size_t, u64>>& order() const {
    return order_;
  }

 private:
  using Order = std::list<std::pair<std::size_t, u64>>;
  std::size_t capacity_;
  Order order_;
  std::map<std::size_t, Order::iterator> index_;
  u64 evictions_ = 0;
};

TEST(FlowTableTest, DifferentialAgainstReferenceLruPastCapacity) {
  // Keys range over three times the capacity, so most inserts evict and
  // the index sees long runs of backward-shift deletions; a rare clear()
  // checks that the kept storage refills like a new table.
  for (std::size_t capacity = 1; capacity <= 33; ++capacity) {
    FlowTable<u64> table(capacity);
    ReferenceLru model(capacity);
    const std::size_t keys = 3 * capacity;
    for (u64 step = 0; step < 1'500; ++step) {
      const u64 r = splitmix(capacity * 1'000'003 + step);
      const std::size_t f = (r >> 8) % keys;
      const u64 op = r % 200;
      if (op < 90) {
        table.get_or_create(tuple(f)) += step;
        model.get_or_create(f) += step;
      } else if (op < 130) {
        u64* got = table.touch(tuple(f));
        u64* want = model.touch(f);
        ASSERT_EQ(got == nullptr, want == nullptr) << "touch, step " << step;
        if (got != nullptr) {
          *got ^= r;
          *want ^= r;
        }
      } else if (op < 160) {
        const u64* got = table.peek(tuple(f));
        const u64* want = model.peek(f);
        ASSERT_EQ(got == nullptr, want == nullptr) << "peek, step " << step;
      } else if (op < 199) {
        ASSERT_EQ(table.erase(tuple(f)), model.erase(f)) << "step " << step;
      } else {
        table.clear();
        model.clear();
      }

      ASSERT_EQ(table.size(), model.size()) << "capacity " << capacity;
      ASSERT_EQ(table.evictions(), model.evictions())
          << "capacity " << capacity << " step " << step;
      for (std::size_t k = 0; k < keys; ++k) {
        const u64* got = table.peek(tuple(k));
        const u64* want = model.peek(k);
        ASSERT_EQ(got == nullptr, want == nullptr)
            << "capacity " << capacity << " step " << step << " key " << k;
        if (got != nullptr) {
          ASSERT_EQ(*got, *want);
        }
      }
      auto expected = model.order().begin();
      std::size_t visited = 0;
      table.for_each([&](const FiveTuple& key, const u64& value) {
        ASSERT_NE(expected, model.order().end());
        EXPECT_EQ(key, tuple(expected->first));
        EXPECT_EQ(value, expected->second);
        ++expected;
        ++visited;
      });
      ASSERT_EQ(visited, model.size())
          << "capacity " << capacity << " step " << step;
    }
  }
}

}  // namespace
}  // namespace nfp
