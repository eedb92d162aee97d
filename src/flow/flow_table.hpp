// Bounded per-flow state table with exact LRU eviction.
//
// Generic substrate behind stateful NFs (monitor counters, NAT bindings)
// and the shards' microflow cache. Real middleboxes bound their flow state
// and evict least-recently-used entries under pressure; eviction is
// observable for tests.
//
// The table is flat. Entries live in one vector and form a doubly linked
// LRU list through u32 indices. A power-of-two index of (entry, hash)
// slots finds them by linear probing; the stored 32-bit hash filters
// candidates before a key compare and gives each slot's home without
// rehashing, so deletion shifts the cluster back instead of leaving
// tombstones. Erased entries go on a free list, and an insert at capacity
// reuses the evicted entry in place, so once the
// table has grown to its working size an insert, evict, refresh or erase
// allocates nothing and a lookup reads one slot and one entry. The index
// keeps at most half its slots in use and doubles with the entries up to
// `capacity`, so a large bound costs nothing until flows arrive.
#pragma once

#include <algorithm>
#include <cassert>
#include <vector>

#include "common/hash.hpp"
#include "common/types.hpp"

namespace nfp {

template <typename Value>
class FlowTable {
 public:
  explicit FlowTable(std::size_t capacity = 65536) : capacity_(capacity) {
    assert(capacity > 0 && capacity < kNil);
    index_.assign(kMinSlots, Slot{});
    mask_ = kMinSlots - 1;
  }

  // Returns the entry for `key`, creating it (possibly evicting the LRU
  // entry) when absent. The returned reference is valid until the next
  // mutation of the table.
  Value& get_or_create(const FiveTuple& key) {
    const u32 hash = hash_of(key);
    const std::size_t slot = find(key, hash);
    if (slot != kNotFound) {
      const u32 e = index_[slot].entry;
      to_front(e);
      return entries_[e].value;
    }
    const u32 e = claim_entry();
    Entry& entry = entries_[e];
    entry.key = key;
    entry.value = Value{};
    link_front(e);
    place(e, hash);
    ++size_;
    return entry.value;
  }

  // Lookup that refreshes the LRU position on a hit; nullptr when absent.
  // One probe — the hit path of a cache built on this table should be
  // touch(), not peek() followed by get_or_create().
  Value* touch(const FiveTuple& key) {
    const std::size_t slot = find(key, hash_of(key));
    if (slot == kNotFound) return nullptr;
    const u32 e = index_[slot].entry;
    to_front(e);
    return &entries_[e].value;
  }

  // Lookup without touching LRU order; nullptr when absent.
  const Value* peek(const FiveTuple& key) const {
    const std::size_t slot = find(key, hash_of(key));
    return slot == kNotFound ? nullptr : &entries_[index_[slot].entry].value;
  }

  bool erase(const FiveTuple& key) {
    const std::size_t slot = find(key, hash_of(key));
    if (slot == kNotFound) return false;
    const u32 e = index_[slot].entry;
    erase_slot(slot);
    unlink(e);
    entries_[e].value = Value{};
    entries_[e].next = free_;
    free_ = e;
    --size_;
    return true;
  }

  std::size_t size() const noexcept { return size_; }
  std::size_t capacity() const noexcept { return capacity_; }
  u64 evictions() const noexcept { return evictions_; }

  // Iteration in most-recently-used order (state export).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (u32 e = head_; e != kNil; e = entries_[e].next) {
      fn(entries_[e].key, entries_[e].value);
    }
  }

  // Empties the table but keeps its storage, so refilling it (a microflow
  // cache after a rule change) does not allocate.
  void clear() {
    entries_.clear();
    std::fill(index_.begin(), index_.end(), Slot{});
    head_ = tail_ = free_ = kNil;
    size_ = 0;
  }

 private:
  static constexpr u32 kNil = 0xFFFFFFFFu;
  static constexpr std::size_t kNotFound = static_cast<std::size_t>(-1);
  static constexpr std::size_t kMinSlots = 16;

  struct Entry {
    FiveTuple key;
    u32 prev = kNil;  // toward the most recent entry
    u32 next = kNil;  // toward the least recent entry; free-list link
    Value value{};
  };

  struct Slot {
    u32 entry = kNil;  // kNil = empty
    u32 hash = 0;
  };

  static u32 hash_of(const FiveTuple& key) noexcept {
    return static_cast<u32>(hash_five_tuple(key));
  }

  std::size_t find(const FiveTuple& key, u32 hash) const {
    for (std::size_t i = hash & mask_;; i = (i + 1) & mask_) {
      const Slot s = index_[i];
      if (s.entry == kNil) return kNotFound;
      if (s.hash == hash && entries_[s.entry].key == key) return i;
    }
  }

  // Puts entry `e` in the first free slot of its probe sequence.
  void place(u32 e, u32 hash) {
    std::size_t i = hash & mask_;
    while (index_[i].entry != kNil) i = (i + 1) & mask_;
    index_[i] = Slot{e, hash};
  }

  // An entry for a new key: the evicted LRU entry at capacity, else a
  // freed one, else a fresh one (growing the index first when it would
  // pass half full).
  u32 claim_entry() {
    if (size_ == capacity_) {
      const u32 victim = tail_;
      const u32 hash = hash_of(entries_[victim].key);
      std::size_t i = hash & mask_;
      while (index_[i].entry != victim) i = (i + 1) & mask_;
      erase_slot(i);
      unlink(victim);
      --size_;
      ++evictions_;
      return victim;
    }
    if (free_ != kNil) {
      const u32 e = free_;
      free_ = entries_[e].next;
      return e;
    }
    if (entries_.size() * 2 >= index_.size()) grow();
    entries_.emplace_back();
    return static_cast<u32>(entries_.size() - 1);
  }

  // Backward-shift deletion: close the hole by sliding back every slot of
  // the cluster that had probed past it, so lookups need no tombstones.
  void erase_slot(std::size_t hole) {
    for (std::size_t j = (hole + 1) & mask_; index_[j].entry != kNil;
         j = (j + 1) & mask_) {
      const std::size_t home = index_[j].hash & mask_;
      if (((j - home) & mask_) >= ((j - hole) & mask_)) {
        index_[hole] = index_[j];
        hole = j;
      }
    }
    index_[hole] = Slot{};
  }

  void grow() {
    std::vector<Slot> old = std::move(index_);
    index_.assign(old.size() * 2, Slot{});
    mask_ = index_.size() - 1;
    for (const Slot& s : old) {
      if (s.entry != kNil) place(s.entry, s.hash);
    }
    entries_.reserve(std::min(capacity_, index_.size() / 2));
  }

  void unlink(u32 e) {
    const Entry& x = entries_[e];
    if (x.prev != kNil) {
      entries_[x.prev].next = x.next;
    } else {
      head_ = x.next;
    }
    if (x.next != kNil) {
      entries_[x.next].prev = x.prev;
    } else {
      tail_ = x.prev;
    }
  }

  void link_front(u32 e) {
    Entry& x = entries_[e];
    x.prev = kNil;
    x.next = head_;
    if (head_ != kNil) {
      entries_[head_].prev = e;
    } else {
      tail_ = e;
    }
    head_ = e;
  }

  void to_front(u32 e) {
    if (e == head_) return;
    unlink(e);
    link_front(e);
  }

  std::size_t capacity_;
  std::vector<Entry> entries_;  // live, freed and evicted-then-reused
  std::vector<Slot> index_;     // power of two, at most half in use
  std::size_t mask_ = 0;
  u32 head_ = kNil;  // most recent
  u32 tail_ = kNil;  // least recent: the next victim
  u32 free_ = kNil;  // erased entries, linked through `next`
  std::size_t size_ = 0;
  u64 evictions_ = 0;
};

}  // namespace nfp
