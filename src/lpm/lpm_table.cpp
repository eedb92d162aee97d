#include "lpm/lpm_table.hpp"

#include <bit>
#include <cassert>

#include "common/hash.hpp"
#include "common/rng.hpp"

namespace nfp {

namespace {

constexpr unsigned kStride = 4;
constexpr unsigned kLevels = 32 / kStride;
constexpr std::size_t kMinHops = 16;

constexpr u32 prefix_of(u32 addr, unsigned len) noexcept {
  return len == 0 ? 0u : addr & (0xFFFFFFFFu << (32 - len));
}

constexpr unsigned chunk_of(u32 addr, unsigned level) noexcept {
  return (addr >> (32 - kStride * (level + 1))) & 0xFu;
}

}  // namespace

LpmTable::LpmTable() : nodes_(1), hops_(kMinHops), mask_(kMinHops - 1) {}

std::size_t LpmTable::home(u32 prefix, unsigned len) const noexcept {
  return static_cast<std::size_t>(
             mix64((static_cast<u64>(prefix) << 6) | len)) &
         mask_;
}

std::size_t LpmTable::find(u32 prefix, unsigned len) const noexcept {
  for (std::size_t i = home(prefix, len);; i = (i + 1) & mask_) {
    const Hop& h = hops_[i];
    if (h.len_plus1 == 0) return kNotFound;
    if (h.prefix == prefix && h.len_plus1 == len + 1) return i;
  }
}

void LpmTable::grow() {
  std::vector<Hop> old = std::move(hops_);
  hops_.assign(old.size() * 2, Hop{});
  mask_ = hops_.size() - 1;
  for (const Hop& h : old) {
    if (h.len_plus1 == 0) continue;
    std::size_t i = home(h.prefix, h.len_plus1 - 1u);
    while (hops_[i].len_plus1 != 0) i = (i + 1) & mask_;
    hops_[i] = h;
  }
}

void LpmTable::mark(u32 prefix, unsigned len, bool set) {
  const unsigned level = (len - 1) / kStride;
  u32 node = 0;
  for (unsigned l = 0; l < level; ++l) {
    const unsigned c = chunk_of(prefix, l);
    u32 child = nodes_[node].child[c];
    if (child == 0) {
      child = static_cast<u32>(nodes_.size());
      nodes_.emplace_back();  // may reallocate: index, never hold a Node&
      nodes_[node].child[c] = child;
    }
    node = child;
  }
  // A length 4·level + j prefix fixes the top j bits of this chunk and
  // covers the 2^(4-j) entries that share them.
  const unsigned j = len - kStride * level;
  const unsigned span = 1u << (kStride - j);
  const unsigned first = chunk_of(prefix, level) & ~(span - 1);
  const u8 bit = static_cast<u8>(1u << (j - 1));
  for (unsigned c = first; c < first + span; ++c) {
    u8& lengths = nodes_[node].lengths[c];
    lengths = set ? static_cast<u8>(lengths | bit)
                  : static_cast<u8>(lengths & ~bit);
  }
}

void LpmTable::insert(u32 prefix, u8 prefix_len, u32 next_hop) {
  assert(prefix_len <= 32);
  prefix = prefix_of(prefix, prefix_len);
  const std::size_t at = find(prefix, prefix_len);
  if (at != kNotFound) {
    hops_[at].next_hop = next_hop;
    return;
  }
  if ((size_ + 1) * 2 > hops_.size()) grow();
  std::size_t i = home(prefix, prefix_len);
  while (hops_[i].len_plus1 != 0) i = (i + 1) & mask_;
  hops_[i] = Hop{prefix, next_hop, static_cast<u8>(prefix_len + 1)};
  ++size_;
  if (prefix_len == 0) {
    has_default_ = true;
  } else {
    mark(prefix, prefix_len, true);
  }
}

u64 LpmTable::match_length_mask(u32 addr) const {
  u64 mask = has_default_ ? 1 : 0;
  u32 node = 0;
  for (unsigned level = 0; level < kLevels; ++level) {
    const Node& n = nodes_[node];
    const unsigned c = chunk_of(addr, level);
    mask |= static_cast<u64>(n.lengths[c]) << (kStride * level + 1);
    node = n.child[c];
    if (node == 0) break;
  }
  return mask;
}

std::optional<u32> LpmTable::lookup(u32 addr) const {
  const u64 lengths = match_length_mask(addr);
  if (lengths == 0) return std::nullopt;
  const unsigned len = 63 - static_cast<unsigned>(std::countl_zero(lengths));
  return hops_[find(prefix_of(addr, len), len)].next_hop;
}

bool LpmTable::remove(u32 prefix, u8 prefix_len) {
  assert(prefix_len <= 32);
  prefix = prefix_of(prefix, prefix_len);
  std::size_t hole = find(prefix, prefix_len);
  if (hole == kNotFound) return false;
  // Backward-shift deletion: slide back every later slot of the cluster
  // whose home lies at or before the hole, so no tombstones are needed.
  for (std::size_t j = (hole + 1) & mask_; hops_[j].len_plus1 != 0;
       j = (j + 1) & mask_) {
    const std::size_t h = home(hops_[j].prefix, hops_[j].len_plus1 - 1u);
    if (((j - h) & mask_) >= ((j - hole) & mask_)) {
      hops_[hole] = hops_[j];
      hole = j;
    }
  }
  hops_[hole] = Hop{};
  --size_;
  // Emptied nodes stay: a walk through them finds no length bits.
  if (prefix_len == 0) {
    has_default_ = false;
  } else {
    mark(prefix, prefix_len, false);
  }
  return true;
}

LpmTable LpmTable::with_synthetic_routes(std::size_t count, u64 seed) {
  LpmTable table;
  Rng rng(seed);
  table.insert(0, 0, 0xFFFF);  // default route
  while (table.size() < count) {
    const u32 prefix = static_cast<u32>(rng.next()) & 0xFFFFFF00u;
    const u8 len = static_cast<u8>(rng.range(8, 28));
    const u32 masked = len == 0 ? 0 : (prefix & (0xFFFFFFFFu << (32 - len)));
    table.insert(masked, len, static_cast<u32>(rng.bounded(256)));
  }
  return table;
}

}  // namespace nfp
