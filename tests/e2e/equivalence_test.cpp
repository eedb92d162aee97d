// The paper's §6.4 correctness verification: "we generate a series of
// packets ..., replay them to the sequential service chain and the
// optimized NFP service graph. We compare the processed packets and find
// that [the] NFP service graph could provide the same execution results as
// the sequential service chain" (the result correctness principle, §4.1).
//
// These tests replay identical traffic through (a) the plain sequential
// chain and (b) the compiled NFP graph of the same NFs, then compare the
// delivered packets byte by byte, the drop sets, and the NFs' internal
// state.
#include <gtest/gtest.h>

#include <map>

#include "dataplane/nfp_dataplane.hpp"
#include "nfs/firewall.hpp"
#include "nfs/monitor.hpp"
#include "orch/compiler.hpp"
#include "policy/policy.hpp"
#include "trafficgen/trafficgen.hpp"

namespace nfp {
namespace {

struct RunResult {
  // Keyed by injection time (unique per generated packet and identical
  // across runs of the same seeded generator).
  std::map<SimTime, std::vector<u8>> outputs;
  u64 dropped = 0;
  u64 monitor_packets = 0;  // first monitor instance's counter, if any
};

RunResult run_graph(ServiceGraph graph, const TrafficConfig& traffic,
                    DataplaneConfig cfg = {}) {
  // One merger instance: with several instances NFP (like the real system,
  // §5.3) does not guarantee inter-packet order across flows, which would
  // perturb order-sensitive NF state (NAT port allocation, AH sequence
  // numbers). Packet *contents* remain equivalent either way.
  cfg.merger_instances = 1;
  sim::Simulator sim;
  NfpDataplane dp(sim, std::move(graph), std::move(cfg));
  RunResult result;
  dp.set_sink([&](Packet* pkt, SimTime) {
    result.outputs.emplace(
        pkt->inject_time(),
        std::vector<u8>(pkt->data(), pkt->data() + pkt->length()));
    dp.pool().release(pkt);
  });
  TrafficGenerator gen(sim, dp.pool(), traffic);
  gen.start([&](Packet* p) { dp.inject(p); });
  sim.run();
  result.dropped = dp.stats().dropped_by_nf;
  EXPECT_EQ(dp.pool().in_use(), 0u) << "leaked packet references";
  for (std::size_t s = 0; s < dp.graph().segments().size(); ++s) {
    for (std::size_t k = 0; k < dp.graph().segments()[s].nfs.size(); ++k) {
      if (auto* mon = dynamic_cast<Monitor*>(dp.nf(s, k))) {
        result.monitor_packets = mon->total_packets();
      }
    }
  }
  return result;
}

// Compiles `chain` into an NFP graph and checks output equivalence against
// the sequential composition of the same NFs under `traffic`.
void expect_equivalent(const std::vector<std::string>& chain,
                       TrafficConfig traffic,
                       bool expect_parallelism = true) {
  const ActionTable table = ActionTable::with_builtin_nfs();
  const Policy policy = Policy::from_sequential_chain("chain", chain);
  auto compiled = compile_policy(policy, table);
  ASSERT_TRUE(compiled.is_ok()) << compiled.error();
  ServiceGraph nfp_graph = std::move(compiled).take();
  if (expect_parallelism) {
    ASSERT_LT(nfp_graph.equivalent_length(), chain.size())
        << "expected the compiler to parallelize: " << nfp_graph.to_string();
  }

  const RunResult seq =
      run_graph(ServiceGraph::sequential("seq", chain), traffic);
  const RunResult par = run_graph(std::move(nfp_graph), traffic);

  EXPECT_EQ(seq.dropped, par.dropped) << "drop behaviour must match";
  ASSERT_EQ(seq.outputs.size(), par.outputs.size());
  for (const auto& [inject, bytes] : seq.outputs) {
    const auto it = par.outputs.find(inject);
    ASSERT_NE(it, par.outputs.end()) << "packet missing from NFP output";
    EXPECT_EQ(bytes, it->second) << "payload/headers diverged";
  }
}

TrafficConfig default_traffic() {
  TrafficConfig t;
  t.packets = 300;
  t.flows = 24;
  t.rate_pps = 200'000;
  t.size_model = SizeModel::kDataCenter;
  return t;
}

TEST(Equivalence, MonitorParallelFirewall) {
  // Fig 1(b)'s no-copy pair, with real ACL drops in the mix.
  expect_equivalent({"monitor", "firewall"}, default_traffic());
}

TEST(Equivalence, WestEastChain) {
  // IDS ∥ Monitor ∥ LB-on-copy: merge ops graft the LB's writes.
  expect_equivalent({"ids", "monitor", "lb"}, default_traffic());
}

TEST(Equivalence, NorthSouthChain) {
  // VPN -> {Monitor ∥ Firewall} -> LB (Fig 13).
  expect_equivalent({"vpn", "monitor", "firewall", "lb"}, default_traffic());
}

TEST(Equivalence, MonitorParallelVpn) {
  // AH insertion + payload encryption on version 1, monitor on the copy.
  expect_equivalent({"monitor", "vpn"}, default_traffic());
}

TEST(Equivalence, PayloadReaderWithPayloadWriter) {
  // NIDS reads the payload, compression rewrites it: full-copy parallelism
  // with a payload merge operation.
  expect_equivalent({"nids", "compression"}, default_traffic());
}

TEST(Equivalence, GatewayCachingMonitorAllParallel) {
  expect_equivalent({"gateway", "caching", "monitor"}, default_traffic());
}

TEST(Equivalence, SequentialOnlyChainStillMatches) {
  // NAT -> LB cannot parallelize; the compiled graph equals the chain.
  expect_equivalent({"nat", "lb"}, default_traffic(),
                    /*expect_parallelism=*/false);
}

TEST(Equivalence, LongMixedChain) {
  expect_equivalent({"vpn", "monitor", "ids", "firewall", "gateway", "lb"},
                    default_traffic());
}

TEST(Equivalence, MonitorStateMatchesSequentialSemantics) {
  // Order(Monitor, before, Firewall): in the sequential chain the monitor
  // counts every packet (it runs before the drop); the parallel graph must
  // preserve that state too.
  const ActionTable table = ActionTable::with_builtin_nfs();
  const Policy policy =
      Policy::from_sequential_chain("mf", {"monitor", "firewall"});
  auto compiled = compile_policy(policy, table);
  ASSERT_TRUE(compiled.is_ok());

  // Firewall that drops dst ports 80-82 (a third of the generator's flows).
  DataplaneConfig cfg;
  cfg.factory = [](const StageNf& nf) -> std::unique_ptr<NetworkFunction> {
    if (nf.name == "firewall") {
      AclTable acl;
      AclRule r;
      r.dst_port_lo = 80;
      r.dst_port_hi = 82;
      r.action = AclAction::kDrop;
      acl.add(r);
      return std::make_unique<Firewall>(std::move(acl));
    }
    return make_builtin_nf(nf.name);
  };

  TrafficConfig traffic = default_traffic();
  const RunResult seq =
      run_graph(ServiceGraph::sequential("seq", {"monitor", "firewall"}),
                traffic, cfg);
  const RunResult par = run_graph(std::move(compiled).take(), traffic, cfg);
  EXPECT_GT(seq.dropped, 0u) << "test should exercise drops";
  EXPECT_EQ(seq.dropped, par.dropped);
  EXPECT_EQ(seq.monitor_packets, par.monitor_packets);
}

// Property-style sweep: every 2-NF combination from the builtin NF set must
// be output-equivalent after compilation, whatever the verdict was.
class PairEquivalence
    : public ::testing::TestWithParam<std::tuple<std::string, std::string>> {};

TEST_P(PairEquivalence, CompiledPairMatchesSequential) {
  const auto& [a, b] = GetParam();
  if (a == b) GTEST_SKIP();
  TrafficConfig traffic;
  traffic.packets = 120;
  traffic.flows = 16;
  traffic.rate_pps = 150'000;
  traffic.size_model = SizeModel::kDataCenter;
  expect_equivalent({a, b}, traffic, /*expect_parallelism=*/false);
}

INSTANTIATE_TEST_SUITE_P(
    AllPairs, PairEquivalence,
    ::testing::Combine(
        ::testing::Values("monitor", "firewall", "lb", "vpn", "ids",
                          "gateway", "nat", "caching", "compression",
                          "shaper"),
        ::testing::Values("monitor", "firewall", "lb", "vpn", "ids",
                          "gateway", "nat", "caching", "compression",
                          "shaper")),
    [](const auto& param_info) {
      return std::get<0>(param_info.param) + "_then_" +
             std::get<1>(param_info.param);
    });

}  // namespace
}  // namespace nfp
