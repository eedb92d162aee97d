// Tests for the LPM table and ACL matcher substrates.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <iterator>
#include <map>
#include <optional>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "acl/acl.hpp"
#include "common/rng.hpp"
#include "packet/headers.hpp"
#include "lpm/lpm_table.hpp"
#include "trafficgen/trafficgen.hpp"

namespace nfp {
namespace {

TEST(Lpm, LongestPrefixWins) {
  LpmTable t;
  t.insert(0x0A000000, 8, 1);   // 10.0.0.0/8
  t.insert(0x0A010000, 16, 2);  // 10.1.0.0/16
  t.insert(0x0A010200, 24, 3);  // 10.1.2.0/24
  EXPECT_EQ(t.lookup(0x0A010203).value(), 3u);
  EXPECT_EQ(t.lookup(0x0A01FF01).value(), 2u);
  EXPECT_EQ(t.lookup(0x0AFF0001).value(), 1u);
  EXPECT_FALSE(t.lookup(0x0B000001).has_value());
}

TEST(Lpm, DefaultRouteMatchesEverything) {
  LpmTable t;
  t.insert(0, 0, 99);
  EXPECT_EQ(t.lookup(0x12345678).value(), 99u);
  EXPECT_EQ(t.lookup(0).value(), 99u);
}

TEST(Lpm, InsertReplacesExisting) {
  LpmTable t;
  t.insert(0x0A000000, 8, 1);
  t.insert(0x0A000000, 8, 7);
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(t.lookup(0x0A000001).value(), 7u);
}

TEST(Lpm, RemoveRestoresShorterMatch) {
  LpmTable t;
  t.insert(0x0A000000, 8, 1);
  t.insert(0x0A010000, 16, 2);
  ASSERT_TRUE(t.remove(0x0A010000, 16));
  EXPECT_EQ(t.lookup(0x0A010001).value(), 1u);
  EXPECT_FALSE(t.remove(0x0A010000, 16)) << "already removed";
  EXPECT_FALSE(t.remove(0x0C000000, 8)) << "never existed";
}

TEST(Lpm, HostRoute) {
  LpmTable t;
  t.insert(0x0A000001, 32, 5);
  EXPECT_EQ(t.lookup(0x0A000001).value(), 5u);
  EXPECT_FALSE(t.lookup(0x0A000002).has_value());
}

TEST(Lpm, SyntheticTableHasRequestedSizeAndDefault) {
  const LpmTable t = LpmTable::with_synthetic_routes(1000);
  EXPECT_GE(t.size(), 1000u);
  EXPECT_TRUE(t.lookup(0xDEADBEEF).has_value()) << "default route";
}

TEST(Lpm, DifferentialAgainstBruteForce) {
  // Random inserts, replacements and removes under a few /16s, so prefixes
  // of every length nest and share trie nodes, and removes shift the
  // next-hop table's probe runs back; after each step the table must agree
  // with a scan over the stored prefixes.
  Rng rng(0x1F7);
  LpmTable table;
  std::map<std::pair<unsigned, u32>, u32> model;  // (len, prefix) -> hop
  const auto prefix_of = [](u32 addr, unsigned len) {
    return len == 0 ? 0u : addr & (0xFFFFFFFFu << (32 - len));
  };
  const auto random_addr = [&rng] {
    return 0x0A000000u | (static_cast<u32>(rng.bounded(4)) << 16) |
           static_cast<u32>(rng.bounded(65'536));
  };
  for (int step = 0; step < 4'000; ++step) {
    unsigned len = static_cast<unsigned>(rng.bounded(33));
    u32 prefix = prefix_of(random_addr(), len);
    if (rng.bounded(3) == 0) {
      if (rng.bounded(2) == 0 && !model.empty()) {  // else likely absent
        auto victim = model.begin();
        std::advance(victim, static_cast<long>(rng.bounded(model.size())));
        std::tie(len, prefix) = victim->first;
      }
      const bool existed = model.erase({len, prefix}) > 0;
      ASSERT_EQ(table.remove(prefix, static_cast<u8>(len)), existed)
          << "step " << step;
    } else {
      const u32 hop = static_cast<u32>(rng.bounded(1'000));
      table.insert(prefix, static_cast<u8>(len), hop);
      model[{len, prefix}] = hop;
    }
    ASSERT_EQ(table.size(), model.size()) << "step " << step;
    for (int q = 0; q < 8; ++q) {
      const u32 addr = random_addr();
      u64 lengths = 0;
      std::optional<u32> best;
      for (unsigned l = 0; l <= 32; ++l) {
        const auto it = model.find({l, prefix_of(addr, l)});
        if (it == model.end()) continue;
        lengths |= u64{1} << l;
        best = it->second;
      }
      ASSERT_EQ(table.match_length_mask(addr), lengths) << "step " << step;
      ASSERT_EQ(table.lookup(addr), best) << "step " << step;
    }
  }
}

TEST(Acl, FirstMatchWins) {
  AclTable t;
  AclRule drop_rule;
  drop_rule.dst_prefix = 0x0A000000;
  drop_rule.dst_prefix_len = 8;
  drop_rule.action = AclAction::kDrop;
  AclRule pass_rule;  // matches everything
  t.add(drop_rule);
  t.add(pass_rule);
  EXPECT_EQ(t.evaluate({1, 0x0A000005, 1, 1, 6}), AclAction::kDrop);
  EXPECT_EQ(t.evaluate({1, 0x0B000005, 1, 1, 6}), AclAction::kPass);
}

TEST(Acl, PortRangesAndProto) {
  AclRule r;
  r.dst_port_lo = 80;
  r.dst_port_hi = 90;
  r.proto = kProtoTcp;
  EXPECT_TRUE(r.matches({1, 2, 3, 85, kProtoTcp}));
  EXPECT_FALSE(r.matches({1, 2, 3, 91, kProtoTcp}));
  EXPECT_FALSE(r.matches({1, 2, 3, 85, 17}));
}

TEST(Acl, DefaultActionApplies) {
  AclTable t;
  t.set_default_action(AclAction::kDrop);
  EXPECT_EQ(t.evaluate({1, 2, 3, 4, 6}), AclAction::kDrop);
}

TEST(Acl, SyntheticRulesDropSomeTraffic) {
  const AclTable t = AclTable::with_synthetic_rules(100, 0.5);
  EXPECT_EQ(t.size(), 100u);
  int drops = 0;
  for (u32 i = 0; i < 10'000; ++i) {
    const FiveTuple tuple{i * 2654435761u, i * 2246822519u,
                          static_cast<u16>(i), static_cast<u16>(i * 7), 6};
    if (t.evaluate(tuple) == AclAction::kDrop) ++drops;
  }
  EXPECT_GT(drops, 0);
  EXPECT_LT(drops, 10'000);
}

// The compiled table's oracle: the first rule, in order, whose matches()
// holds.
AclAction first_match(const std::vector<AclRule>& rules, AclAction fallback,
                      const FiveTuple& t) {
  for (const AclRule& rule : rules) {
    if (rule.matches(t)) return rule.action;
  }
  return fallback;
}

// A random rule over every corner the index must get right: prefix lengths
// 0-32 plus 33 and 255 (read as /32), host bits set past the prefix, port
// ranges that are full, single, empty (lo > hi), touch 0 or 65535, or are
// random, and any or a fixed protocol. Addresses lie near four bases so
// that prefixes nest and overlap.
AclRule random_rule(Rng& rng, const std::array<u32, 4>& bases) {
  const auto prefix_len = [&]() -> u8 {
    switch (rng.bounded(8)) {
      case 0: return 33;
      case 1: return 255;
      default: return static_cast<u8>(rng.bounded(33));
    }
  };
  const auto addr = [&] {
    return bases[rng.bounded(bases.size())] ^
           (static_cast<u32>(rng.next()) >> rng.bounded(32));
  };
  const auto port_range = [&](u16& lo, u16& hi) {
    const u16 a = static_cast<u16>(rng.next());
    const u16 b = static_cast<u16>(rng.next());
    switch (rng.bounded(6)) {
      case 0: lo = 0, hi = 0xffff; break;
      case 1: lo = hi = a; break;
      case 2:
        lo = static_cast<u16>(1 + rng.bounded(0xffff));
        hi = static_cast<u16>(rng.bounded(lo));
        break;
      case 3: lo = 0, hi = a; break;
      case 4: lo = a, hi = 0xffff; break;
      default: lo = std::min(a, b), hi = std::max(a, b); break;
    }
  };
  AclRule r;
  r.src_prefix = addr();
  r.src_prefix_len = prefix_len();
  r.dst_prefix = addr();
  r.dst_prefix_len = prefix_len();
  port_range(r.src_port_lo, r.src_port_hi);
  port_range(r.dst_port_lo, r.dst_port_hi);
  if (rng.bounded(2) == 0) {
    constexpr std::array<u8, 4> kProtos = {0, kProtoTcp, kProtoUdp, 255};
    r.proto = kProtos[rng.bounded(kProtos.size())];
  }
  r.action = rng.bounded(2) == 0 ? AclAction::kDrop : AclAction::kPass;
  return r;
}

std::vector<AclRule> random_rules(std::size_t count, Rng& rng) {
  const std::array<u32, 4> bases = {
      static_cast<u32>(rng.next()), static_cast<u32>(rng.next()),
      static_cast<u32>(rng.next()), static_cast<u32>(rng.next())};
  std::vector<AclRule> rules;
  for (std::size_t i = 0; i < count; ++i) {
    rules.push_back(random_rule(rng, bases));
  }
  return rules;
}

// The host bits of a prefix of length `len`; lengths past 32 read as /32.
u32 host_mask(u8 len) {
  return len == 0 ? 0xFFFFFFFFu : len >= 32 ? 0u : 0xFFFFFFFFu >> len;
}

// A tuple inside `r` on every field it can be inside on.
FiveTuple tuple_inside(const AclRule& r, Rng& rng) {
  const auto in_prefix = [&](u32 prefix, u8 len) {
    const u32 host = host_mask(len);
    return (prefix & ~host) | (static_cast<u32>(rng.next()) & host);
  };
  const auto in_range = [&](u16 lo, u16 hi) {
    return lo > hi ? lo : static_cast<u16>(lo + rng.bounded(hi - lo + 1u));
  };
  return {in_prefix(r.src_prefix, r.src_prefix_len),
          in_prefix(r.dst_prefix, r.dst_prefix_len),
          in_range(r.src_port_lo, r.src_port_hi),
          in_range(r.dst_port_lo, r.dst_port_hi),
          r.proto.value_or(static_cast<u8>(rng.next()))};
}

// For every rule and field, the values lo - 1, lo, hi and hi + 1 (wrapping
// at the field's width) and a protocol off by one, each set into a tuple
// otherwise inside the rule and into a uniform one; then `random` tuples,
// half inside a random rule and half uniform.
std::vector<FiveTuple> acl_queries(const std::vector<AclRule>& rules,
                                   std::size_t random, Rng& rng) {
  const auto uniform = [&]() -> FiveTuple {
    return {static_cast<u32>(rng.next()), static_cast<u32>(rng.next()),
            static_cast<u16>(rng.next()), static_cast<u16>(rng.next()),
            static_cast<u8>(rng.bounded(2) == 0 ? rng.next() : kProtoTcp)};
  };
  const auto around = [](auto lo, auto hi) {
    using T = decltype(lo);
    return std::array<T, 4>{static_cast<T>(lo - 1), lo, hi,
                            static_cast<T>(hi + 1)};
  };
  std::vector<FiveTuple> out;
  for (const AclRule& r : rules) {
    const u32 src_host = host_mask(r.src_prefix_len);
    const u32 dst_host = host_mask(r.dst_prefix_len);
    const auto src = around(r.src_prefix & ~src_host, r.src_prefix | src_host);
    const auto dst = around(r.dst_prefix & ~dst_host, r.dst_prefix | dst_host);
    const auto sport = around(r.src_port_lo, r.src_port_hi);
    const auto dport = around(r.dst_port_lo, r.dst_port_hi);
    for (const FiveTuple& base : {tuple_inside(r, rng), uniform()}) {
      out.push_back(base);
      for (std::size_t k = 0; k < 4; ++k) {
        out.push_back(base);
        out.back().src_ip = src[k];
        out.push_back(base);
        out.back().dst_ip = dst[k];
        out.push_back(base);
        out.back().src_port = sport[k];
        out.push_back(base);
        out.back().dst_port = dport[k];
      }
      out.push_back(base);
      out.back().proto = static_cast<u8>(r.proto.value_or(0) + 1);
    }
  }
  for (std::size_t i = 0; i < random; ++i) {
    out.push_back(rules.empty() || rng.bounded(2) == 0
                      ? uniform()
                      : tuple_inside(rules[rng.bounded(rules.size())], rng));
  }
  return out;
}

TEST(Acl, CompiledTableMatchesFirstMatchOnRandomTables) {
  Rng rng(0xAC1);
  bool drop_default = false;
  for (const std::size_t n : {0, 1, 63, 64, 65, 128, 129, 1000}) {
    SCOPED_TRACE(n);
    const std::vector<AclRule> rules = random_rules(n, rng);
    const AclAction fallback =
        (drop_default = !drop_default) ? AclAction::kDrop : AclAction::kPass;
    const AclTable table(rules, fallback);
    ASSERT_EQ(table.size(), n);
    // The documented bound: each field has at most 2n + 1 intervals.
    const std::size_t words = (n + 63) / 64;
    const std::size_t bounds = 4 * (2 * n + 1);
    EXPECT_LE(table.index_bytes(), 8 * words * (bounds + 256) + 4 * bounds);
    std::size_t mismatches = 0;
    for (const FiveTuple& t : acl_queries(rules, 100'000, rng)) {
      if (table.evaluate(t) != first_match(rules, fallback, t)) ++mismatches;
    }
    EXPECT_EQ(mismatches, 0u);
  }
}

// One rule list built from a vector, by add() (checked after every add) and
// by copy: all three answer alike, and as the oracle does.
TEST(Acl, VectorAddAndCopyBuildTheSameTable) {
  Rng rng(0xAC2);
  const std::vector<AclRule> rules = random_rules(129, rng);
  const AclTable from_vector(rules, AclAction::kDrop);
  AclTable by_add;
  by_add.set_default_action(AclAction::kDrop);
  std::vector<AclRule> added;
  for (const AclRule& rule : rules) {
    by_add.add(rule);
    added.push_back(rule);
    for (const FiveTuple& t : acl_queries({rule}, 64, rng)) {
      ASSERT_EQ(by_add.evaluate(t), first_match(added, AclAction::kDrop, t))
          << "after " << added.size() << " adds";
    }
  }
  const AclTable copy = from_vector;
  AclTable assigned;
  assigned = by_add;
  EXPECT_EQ(copy.index_bytes(), from_vector.index_bytes());
  std::size_t mismatches = 0;
  for (const FiveTuple& t : acl_queries(rules, 20'000, rng)) {
    const AclAction want = first_match(rules, AclAction::kDrop, t);
    mismatches += from_vector.evaluate(t) != want;
    mismatches += by_add.evaluate(t) != want;
    mismatches += copy.evaluate(t) != want;
    mismatches += assigned.evaluate(t) != want;
  }
  EXPECT_EQ(mismatches, 0u);
}

// perfbench's ACL: 80 /24 filler rules with sources in 172.16/12 (no
// generated flow's), then 20 exact deny rules on generated flows; checked
// over every distinct TrafficGenerator::flow_tuple.
TEST(Acl, PerfbenchShapeOverAllFlowTuples) {
  constexpr std::size_t kFlows = 55'535;
  for (const u64 seed : {1u, 2u, 3u, 0x5173u}) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    std::vector<AclRule> rules;
    for (std::size_t i = 0; i < 80; ++i) {
      AclRule r;
      r.src_prefix = 0xAC100000u | (static_cast<u32>(rng.bounded(4096)) << 8);
      r.src_prefix_len = 24;
      r.action = AclAction::kDrop;
      rules.push_back(r);
    }
    for (std::size_t i = 0; i < 20; ++i) {
      const FiveTuple t = TrafficGenerator::flow_tuple(rng.bounded(kFlows));
      AclRule r;
      r.src_prefix = t.src_ip;
      r.src_prefix_len = 32;
      r.dst_prefix = t.dst_ip;
      r.dst_prefix_len = 32;
      r.src_port_lo = r.src_port_hi = t.src_port;
      r.dst_port_lo = r.dst_port_hi = t.dst_port;
      r.proto = t.proto;
      r.action = AclAction::kDrop;
      rules.push_back(r);
    }
    const AclTable table(rules, AclAction::kPass);
    EXPECT_LE(table.index_bytes(), 64u * 1024);
    std::size_t mismatches = 0;
    std::size_t drops = 0;
    for (std::size_t flow = 0; flow < kFlows; ++flow) {
      const FiveTuple t = TrafficGenerator::flow_tuple(flow);
      const AclAction got = table.evaluate(t);
      mismatches += got != first_match(rules, AclAction::kPass, t);
      drops += got == AclAction::kDrop;
    }
    EXPECT_EQ(mismatches, 0u);
    EXPECT_GT(drops, 0u);
  }
}

// evaluate() keeps no lazy state: four threads reading one const table
// agree with the oracle (and, under TSan, race with nothing).
TEST(Acl, ConcurrentEvaluateOfOneTable) {
  Rng rng(0xAC3);
  const std::vector<AclRule> rules = random_rules(129, rng);
  const AclTable table(rules, AclAction::kPass);
  const std::vector<FiveTuple> queries = acl_queries(rules, 4'000, rng);
  std::vector<AclAction> want;
  for (const FiveTuple& t : queries) {
    want.push_back(first_match(rules, AclAction::kPass, t));
  }
  std::atomic<std::size_t> mismatches{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < 4; ++i) {
    threads.emplace_back([&] {
      std::size_t local = 0;
      for (std::size_t q = 0; q < queries.size(); ++q) {
        local += table.evaluate(queries[q]) != want[q];
      }
      mismatches += local;
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0u);
}

}  // namespace
}  // namespace nfp
