// Longest-prefix-match table for IPv4.
//
// Substrate for the L3 forwarder NF (paper §6.1: "obtains the matching
// entry from a longest prefix matching table with 1000 entries") and for
// the tuple-space classifier's prefix prune.
//
// A flat multibit trie with a stride of 4 bits finds which prefix lengths
// cover an address in at most 8 dependent node reads, where a binary trie
// took up to 32. Nodes live in one vector and name their children by u32
// index. Each of a node's 16 entries carries a 4-bit set of the prefix
// lengths (4·level + 1 .. 4·level + 4) stored in that node that cover the
// entry, so one walk yields every covering length at once. Next hops live
// in a flat open-addressed table keyed by (prefix, length): a lookup
// probes it once, for the longest covering length the walk found.
#pragma once

#include <optional>
#include <vector>

#include "common/types.hpp"

namespace nfp {

class LpmTable {
 public:
  LpmTable();

  // Inserts `prefix`/`prefix_len` -> next_hop; replaces an existing entry.
  // Bits of `prefix` past `prefix_len` are ignored; prefix_len <= 32.
  void insert(u32 prefix, u8 prefix_len, u32 next_hop);

  // Longest-prefix lookup; nullopt when nothing matches (no default route).
  std::optional<u32> lookup(u32 addr) const;

  // Bitmask of prefix lengths at which `addr` matches a stored entry: bit L
  // (0..32) is set when the length-L prefix of addr holds a value. One trie
  // walk answers "which prefix widths could possibly match this address"
  // for every width at once — the tuple-space classifier uses it to skip
  // whole mask groups without probing their hash tables.
  u64 match_length_mask(u32 addr) const;

  // Removes the exact prefix entry; returns whether it existed.
  bool remove(u32 prefix, u8 prefix_len);

  std::size_t size() const noexcept { return size_; }

  // Fills the table with `count` deterministic /24-ish routes (the 1000-entry
  // table of the paper's evaluation), including a default route.
  static LpmTable with_synthetic_routes(std::size_t count, u64 seed = 1);

 private:
  static constexpr std::size_t kNotFound = static_cast<std::size_t>(-1);

  struct Node {
    u8 lengths[16] = {};  // bit j-1: a length 4·level + j prefix covers it
    u32 child[16] = {};   // 0 = none (node 0 is the root, never a child)
  };

  struct Hop {
    u32 prefix = 0;
    u32 next_hop = 0;
    u8 len_plus1 = 0;  // 0 = empty slot
  };

  // Sets or clears the length bit of a prefix of length 1..32 in the trie.
  void mark(u32 prefix, unsigned len, bool set);

  std::size_t home(u32 prefix, unsigned len) const noexcept;
  std::size_t find(u32 prefix, unsigned len) const noexcept;
  void grow();

  std::vector<Node> nodes_;  // [0] = root
  std::vector<Hop> hops_;    // power of two, at most half in use
  std::size_t mask_ = 0;
  bool has_default_ = false;  // a length-0 entry exists
  std::size_t size_ = 0;
};

}  // namespace nfp
