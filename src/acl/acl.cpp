#include "acl/acl.hpp"

#include <algorithm>
#include <bit>

#include "common/rng.hpp"

namespace nfp {

namespace {

bool prefix_match(u32 addr, u32 prefix, u8 len) noexcept {
  if (len == 0) return true;
  const u32 mask = len >= 32 ? 0xFFFFFFFFu : (0xFFFFFFFFu << (32 - len));
  return (addr & mask) == (prefix & mask);
}

// The addresses a prefix covers, as an inclusive range. Kept apart from
// prefix_match, the definition the tests check the compiled index against.
std::pair<u32, u32> prefix_range(u32 prefix, u8 len) noexcept {
  const u32 mask = len == 0    ? 0
                   : len >= 32 ? 0xFFFFFFFFu
                               : (0xFFFFFFFFu << (32 - len));
  return {prefix & mask, (prefix & mask) | ~mask};
}

}  // namespace

bool AclRule::matches(const FiveTuple& t) const noexcept {
  if (!prefix_match(t.src_ip, src_prefix, src_prefix_len)) return false;
  if (!prefix_match(t.dst_ip, dst_prefix, dst_prefix_len)) return false;
  if (t.src_port < src_port_lo || t.src_port > src_port_hi) return false;
  if (t.dst_port < dst_port_lo || t.dst_port > dst_port_hi) return false;
  if (proto && *proto != t.proto) return false;
  return true;
}

void AclTable::Field::compile(const std::vector<std::pair<u32, u32>>& ranges,
                              u32 top, std::size_t words) {
  bounds.assign(1, 0);
  for (const auto& [lo, hi] : ranges) {
    if (lo > hi) continue;
    bounds.push_back(lo);
    if (hi < top) bounds.push_back(hi + 1);
  }
  std::sort(bounds.begin(), bounds.end());
  bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());
  const auto interval = [&](u32 v) {
    return static_cast<std::size_t>(
        std::lower_bound(bounds.begin(), bounds.end(), v) - bounds.begin());
  };
  // Row k first holds the rules whose coverage starts or ends at interval
  // k; a prefix XOR down the rows then sets each rule's bit exactly on
  // the intervals from its lo up to, not including, hi + 1.
  bits.assign(bounds.size() * words, 0);
  for (std::size_t i = 0; i < ranges.size(); ++i) {
    const auto [lo, hi] = ranges[i];
    if (lo > hi) continue;
    const u64 bit = u64{1} << (i % 64);
    bits[interval(lo) * words + i / 64] ^= bit;
    if (hi < top) bits[interval(hi + 1) * words + i / 64] ^= bit;
  }
  for (std::size_t k = words; k < bits.size(); ++k) bits[k] ^= bits[k - words];
}

const u64* AclTable::Field::row(u32 value, std::size_t words) const noexcept {
  // The last bound <= value; bounds[0] == 0 guarantees one. Branch-free:
  // the trip count depends only on the number of bounds.
  const u32* base = bounds.data();
  for (std::size_t n = bounds.size(); n > 1; n -= n / 2) {
    base = base[n / 2] <= value ? base + n / 2 : base;
  }
  return bits.data() + static_cast<std::size_t>(base - bounds.data()) * words;
}

AclTable::AclTable(std::vector<AclRule> rules, AclAction default_action)
    : rules_(std::move(rules)), default_action_(default_action) {
  build();
}

void AclTable::add(AclRule rule) {
  rules_.push_back(rule);
  build();
}

void AclTable::build() {
  words_ = (rules_.size() + 63) / 64;
  std::array<std::vector<std::pair<u32, u32>>, 4> ranges;
  std::vector<u64> any_proto(words_, 0);
  for (std::size_t i = 0; i < rules_.size(); ++i) {
    const AclRule& r = rules_[i];
    ranges[0].push_back(prefix_range(r.src_prefix, r.src_prefix_len));
    ranges[1].push_back(prefix_range(r.dst_prefix, r.dst_prefix_len));
    ranges[2].emplace_back(r.src_port_lo, r.src_port_hi);
    ranges[3].emplace_back(r.dst_port_lo, r.dst_port_hi);
    if (!r.proto) any_proto[i / 64] |= u64{1} << (i % 64);
  }
  for (std::size_t f = 0; f < fields_.size(); ++f) {
    fields_[f].compile(ranges[f], f < 2 ? 0xFFFFFFFFu : 0xFFFFu, words_);
  }
  // Every protocol row starts as the any-protocol rules.
  proto_bits_.clear();
  for (int p = 0; p < 256; ++p) {
    proto_bits_.insert(proto_bits_.end(), any_proto.begin(), any_proto.end());
  }
  for (std::size_t i = 0; i < rules_.size(); ++i) {
    if (const auto p = rules_[i].proto) {
      proto_bits_[*p * words_ + i / 64] |= u64{1} << (i % 64);
    }
  }
}

AclAction AclTable::evaluate(const FiveTuple& t) const noexcept {
  const u64* src = fields_[0].row(t.src_ip, words_);
  const u64* dst = fields_[1].row(t.dst_ip, words_);
  const u64* sport = fields_[2].row(t.src_port, words_);
  const u64* dport = fields_[3].row(t.dst_port, words_);
  const u64* proto = proto_bits_.data() + t.proto * words_;
  for (std::size_t w = 0; w < words_; ++w) {
    const u64 hits = src[w] & dst[w] & sport[w] & dport[w] & proto[w];
    if (hits != 0) {
      return rules_[w * 64 + static_cast<std::size_t>(std::countr_zero(hits))]
          .action;
    }
  }
  return default_action_;
}

std::size_t AclTable::index_bytes() const noexcept {
  std::size_t bytes = proto_bits_.size() * sizeof(u64);
  for (const Field& f : fields_) {
    bytes += f.bounds.size() * sizeof(u32) + f.bits.size() * sizeof(u64);
  }
  return bytes;
}

AclTable AclTable::with_synthetic_rules(std::size_t count,
                                        double drop_fraction, u64 seed) {
  std::vector<AclRule> rules;
  rules.reserve(count);
  Rng rng(seed);
  for (std::size_t i = 0; i < count; ++i) {
    AclRule rule;
    // Keep prefixes wide enough that arbitrary traffic exercises the rules
    // (a fully random /24 would virtually never match).
    if (rng.uniform() < 0.5) {
      rule.src_prefix = static_cast<u32>(rng.next());
      rule.src_prefix_len = static_cast<u8>(rng.range(1, 8));
    }
    rule.dst_prefix = static_cast<u32>(rng.next());
    rule.dst_prefix_len = static_cast<u8>(rng.range(3, 10));
    if (rng.uniform() < 0.3) {
      const u16 port = static_cast<u16>(rng.range(1, 60000));
      rule.dst_port_lo = port;
      rule.dst_port_hi = static_cast<u16>(port + rng.bounded(5000));
    }
    rule.action =
        rng.uniform() < drop_fraction ? AclAction::kDrop : AclAction::kPass;
    rules.push_back(rule);
  }
  return AclTable(std::move(rules), AclAction::kPass);
}

}  // namespace nfp
