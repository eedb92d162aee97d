// Tests for the LPM table and ACL matcher substrates.
#include <gtest/gtest.h>

#include <iterator>
#include <map>
#include <optional>
#include <tuple>
#include <utility>

#include "acl/acl.hpp"
#include "common/rng.hpp"
#include "packet/headers.hpp"
#include "lpm/lpm_table.hpp"

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

}  // namespace
}  // namespace nfp
