// Behavioural tests for every NF implementation (paper §6.1).
#include <gtest/gtest.h>

#include <vector>

#include "nfs/firewall.hpp"
#include "nfs/ids.hpp"
#include "nfs/l3_forwarder.hpp"
#include "nfs/load_balancer.hpp"
#include "nfs/misc_nfs.hpp"
#include "nfs/monitor.hpp"
#include "nfs/nat.hpp"
#include "nfs/vpn.hpp"
#include "packet/builder.hpp"

namespace nfp {
namespace {

class NfTest : public ::testing::Test {
 protected:
  Packet* make(const PacketSpec& spec) {
    Packet* p = build_packet(pool_, spec);
    EXPECT_NE(p, nullptr);
    return p;
  }
  Packet* make() { return make(PacketSpec{}); }

  PacketPool pool_{32};
};

TEST_F(NfTest, L3ForwarderResolvesNextHop) {
  LpmTable table;
  table.insert(0x0A000000, 8, 42);
  L3Forwarder fwd(std::move(table));
  Packet* p = make();
  PacketView v(*p);
  EXPECT_EQ(fwd.process(v), NfVerdict::kPass);
  EXPECT_EQ(fwd.last_next_hop(), 42u);
  EXPECT_EQ(fwd.lookups(), 1u);
  pool_.release(p);
}

TEST_F(NfTest, LoadBalancerPicksConsistentBackend) {
  LoadBalancer lb = LoadBalancer::with_backends(4);
  Packet* p1 = make();
  Packet* p2 = make();  // same 5-tuple
  PacketView v1(*p1), v2(*p2);
  lb.process(v1);
  lb.process(v2);
  EXPECT_EQ(PacketView(*p1).dst_ip(), PacketView(*p2).dst_ip())
      << "ECMP must be flow-consistent";
  EXPECT_EQ(PacketView(*p1).src_ip(), LoadBalancer::kLbAddress);
  pool_.release(p1);
  pool_.release(p2);
}

TEST_F(NfTest, LoadBalancerSpreadsFlows) {
  LoadBalancer lb = LoadBalancer::with_backends(4);
  std::set<u32> backends;
  for (u16 port = 1000; port < 1100; ++port) {
    PacketSpec spec;
    spec.tuple.src_port = port;
    Packet* p = make(spec);
    PacketView v(*p);
    lb.process(v);
    backends.insert(PacketView(*p).dst_ip());
    pool_.release(p);
  }
  EXPECT_EQ(backends.size(), 4u) << "all backends used across 100 flows";
}

TEST_F(NfTest, FirewallDropsByAcl) {
  AclTable acl;
  AclRule r;
  r.dst_prefix = 0x0A000002;
  r.dst_prefix_len = 32;
  r.action = AclAction::kDrop;
  acl.add(r);
  acl.set_default_action(AclAction::kPass);
  Firewall fw(std::move(acl));

  Packet* hit = make();  // default spec dst 10.0.0.2
  PacketView v(*hit);
  EXPECT_EQ(fw.process(v), NfVerdict::kDrop);
  EXPECT_EQ(fw.dropped(), 1u);

  PacketSpec other;
  other.tuple.dst_ip = 0x0B000001;
  Packet* miss = make(other);
  PacketView v2(*miss);
  EXPECT_EQ(fw.process(v2), NfVerdict::kPass);
  EXPECT_EQ(fw.passed(), 1u);
  pool_.release(hit);
  pool_.release(miss);
}

TEST_F(NfTest, IdsAlertsButPasses) {
  Ids ids({"EVILPAYLOAD"});
  PacketSpec spec;
  spec.frame_size = 200;
  const char* sig = "xxEVILPAYLOADxx";
  Packet* p = build_packet_with_payload(
      pool_, spec,
      {reinterpret_cast<const u8*>(sig), std::strlen(sig)});
  PacketView v(*p);
  EXPECT_EQ(ids.process(v), NfVerdict::kPass);
  EXPECT_EQ(ids.alerts(), 1u);

  Packet* clean = make();
  PacketView v2(*clean);
  EXPECT_EQ(ids.process(v2), NfVerdict::kPass);
  EXPECT_EQ(ids.alerts(), 1u);
  pool_.release(p);
  pool_.release(clean);
}

TEST_F(NfTest, IpsDropsOnMatch) {
  Ips ips({"EVILPAYLOAD"});
  PacketSpec spec;
  spec.frame_size = 200;
  const char* sig = "EVILPAYLOAD";
  Packet* p = build_packet_with_payload(
      pool_, spec,
      {reinterpret_cast<const u8*>(sig), std::strlen(sig)});
  PacketView v(*p);
  EXPECT_EQ(ips.process(v), NfVerdict::kDrop);
  EXPECT_EQ(ips.blocked(), 1u);
  pool_.release(p);
}

TEST_F(NfTest, VpnEncryptsAndAddsAh) {
  Vpn vpn;
  PacketSpec spec;
  spec.frame_size = 256;
  Packet* p = make(spec);
  const std::vector<u8> original(p->data(), p->data() + p->length());

  PacketView v(*p);
  EXPECT_EQ(vpn.process(v), NfVerdict::kPass);
  EXPECT_TRUE(v.has_ah());
  EXPECT_EQ(p->length(), original.size() + kAhHeaderLen);
  EXPECT_EQ(vpn.sequence(), 1u);
  // Payload must be transformed.
  const auto body = v.payload();
  const std::size_t payload_off = original.size() - body.size();
  EXPECT_NE(0, std::memcmp(body.data(), original.data() + payload_off,
                           body.size()));
  pool_.release(p);
}

TEST_F(NfTest, VpnRoundTripsWithDecrypt) {
  Vpn enc;
  VpnDecrypt dec;
  PacketSpec spec;
  spec.frame_size = 300;
  Packet* p = make(spec);
  const std::vector<u8> original(p->data(), p->data() + p->length());

  PacketView v(*p);
  ASSERT_EQ(enc.process(v), NfVerdict::kPass);
  PacketView v2(*p);
  ASSERT_EQ(dec.process(v2), NfVerdict::kPass);

  ASSERT_EQ(p->length(), original.size());
  EXPECT_EQ(0, std::memcmp(p->data(), original.data(), original.size()));
  pool_.release(p);
}

TEST_F(NfTest, VpnDecryptRejectsTamperedPacket) {
  Vpn enc;
  VpnDecrypt dec;
  PacketSpec spec;
  spec.frame_size = 300;
  Packet* p = make(spec);
  PacketView v(*p);
  ASSERT_EQ(enc.process(v), NfVerdict::kPass);
  p->data()[p->length() - 1] ^= 0xff;  // corrupt the encrypted payload
  PacketView v2(*p);
  EXPECT_EQ(dec.process(v2), NfVerdict::kDrop);
  pool_.release(p);
}

TEST_F(NfTest, MonitorCountsPerFlow) {
  Monitor mon;
  Packet* p = make();
  PacketView v(*p);
  mon.process(v);
  mon.process(v);
  PacketSpec other;
  other.tuple.src_port = 999;
  Packet* p2 = make(other);
  PacketView v2(*p2);
  mon.process(v2);

  EXPECT_EQ(mon.flow_count(), 2u);
  EXPECT_EQ(mon.total_packets(), 3u);
  const auto* stats = mon.flow(PacketSpec{}.tuple);
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->packets, 2u);
  EXPECT_EQ(stats->bytes, 2u * p->length());
  pool_.release(p);
  pool_.release(p2);
}

TEST_F(NfTest, NatRewritesFiveTupleConsistently) {
  Nat nat;
  Packet* p1 = make();
  Packet* p2 = make();  // same flow
  PacketView v1(*p1), v2(*p2);
  nat.process(v1);
  nat.process(v2);
  EXPECT_EQ(nat.binding_count(), 1u);
  EXPECT_EQ(PacketView(*p1).src_port(), PacketView(*p2).src_port());
  EXPECT_EQ(PacketView(*p1).src_ip(), 0xC0A80001u);

  PacketSpec other;
  other.tuple.src_port = 555;
  Packet* p3 = make(other);
  PacketView v3(*p3);
  nat.process(v3);
  EXPECT_EQ(nat.binding_count(), 2u);
  EXPECT_NE(PacketView(*p3).src_port(), PacketView(*p1).src_port());
  pool_.release(p1);
  pool_.release(p2);
  pool_.release(p3);
}

TEST_F(NfTest, NatPortsStayInRangePastThePortSpace) {
  // 50k flows pass the 65536 - 20000 ports above the base: the allocator
  // must wrap to the base and never hand out 0 (the "unassigned" marker,
  // which would give the flow a new port on its next packet).
  constexpr u16 kPortBase = 20000;
  constexpr std::size_t kFlows = 50'000;
  Nat nat(0xC0A80001, kPortBase);
  std::vector<u16> first(kFlows);
  std::size_t out_of_range = 0;
  std::size_t changed = 0;
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t f = 0; f < kFlows; ++f) {
      PacketSpec spec;
      spec.tuple.src_ip = 0x0A000000u + static_cast<u32>(f);
      Packet* p = make(spec);
      PacketView v(*p);
      nat.process(v);
      const u16 port = PacketView(*p).src_port();
      pool_.release(p);
      if (pass == 0) {
        first[f] = port;
        if (port < kPortBase) ++out_of_range;
      } else if (port != first[f]) {
        ++changed;
      }
    }
  }
  EXPECT_EQ(nat.binding_count(), kFlows);
  EXPECT_EQ(out_of_range, 0u);
  EXPECT_EQ(changed, 0u);
  // Past the wrap the allocator restarts at the base.
  EXPECT_EQ(first[65536 - kPortBase], kPortBase);
}

TEST_F(NfTest, CompressionShrinksRepetitivePayload) {
  Compression comp;
  PacketSpec spec;
  spec.frame_size = 500;
  spec.payload_byte = 0x77;  // highly compressible
  Packet* p = make(spec);
  PacketView v(*p);
  const std::size_t before = v.payload_len();
  EXPECT_EQ(comp.process(v), NfVerdict::kPass);
  EXPECT_LT(v.payload_len(), before);
  EXPECT_EQ(comp.compressed(), 1u);
  pool_.release(p);
}

TEST_F(NfTest, CompressionLeavesIncompressibleAlone) {
  Compression comp;
  PacketSpec spec;
  spec.frame_size = 200;
  std::vector<u8> noise;
  for (int i = 0; i < 160; ++i) noise.push_back(static_cast<u8>(i * 37));
  Packet* p = build_packet_with_payload(pool_, spec, noise);
  PacketView v(*p);
  const std::size_t before = v.payload_len();
  comp.process(v);
  EXPECT_EQ(v.payload_len(), before);
  EXPECT_EQ(comp.compressed(), 0u);
  pool_.release(p);
}

TEST_F(NfTest, GatewayAndShaperAndCachingPass) {
  Gateway gw;
  TrafficShaper shaper;
  Caching cache;
  Packet* p = make();
  PacketView v(*p);
  EXPECT_EQ(gw.process(v), NfVerdict::kPass);
  EXPECT_EQ(shaper.process(v), NfVerdict::kPass);
  EXPECT_EQ(cache.process(v), NfVerdict::kPass);
  EXPECT_EQ(cache.process(v), NfVerdict::kPass);
  EXPECT_EQ(cache.hits(), 1u) << "second identical packet hits the cache";
  EXPECT_EQ(shaper.bytes_seen(), 2u * 0 + p->length());
  pool_.release(p);
}

TEST_F(NfTest, FactoryCreatesAllBuiltins) {
  for (const char* name :
       {"l3fwd", "lb", "firewall", "ids", "ips", "vpn", "vpn_decrypt",
        "monitor", "nat", "gateway", "caching", "proxy", "compression",
        "shaper", "delaynf"}) {
    const auto nf = make_builtin_nf(name);
    ASSERT_NE(nf, nullptr) << name;
    EXPECT_FALSE(nf->declared_profile().actions().empty() &&
                 std::string_view(name) != "shaper")
        << name;
  }
  EXPECT_EQ(make_builtin_nf("nope"), nullptr);
}

}  // namespace
}  // namespace nfp
