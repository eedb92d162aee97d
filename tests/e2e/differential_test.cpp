// Cross-plane differential test (the paper's §6.4 check, generalized):
// random policies compile into NFP graphs, and one seeded frame set runs
// through three plans —
//   1. the graph flattened into a sequential chain on the simulated plane,
//      the §6.4 reference (segments in order, NFs in declaration order, so
//      every NF keeps its instance id and with it its seeded state);
//   2. the compiled graph on the simulated plane;
//   3. the compiled graph on the live pipeline.
// Every plan must deliver the same multiset of frames, in the same order
// within each flow, and drop the same number of packets; every live drop
// must carry the nf_verdict reason.
//
// ExecutorDifferential draws order and position rules. Its priority twin,
// ExecutorDifferentialPriority, also draws priority(a > b) rules over a
// universe with a firewall and an ips whose signatures match a quarter of
// the frames, so the merge's priority drop resolution decides real
// conflicts. A priority rule forces parallelism that dependency analysis
// would refuse: two droppers resolve by priority rather than in chain
// order, an NF sees packets its sibling drops (nat ports and vpn sequence
// numbers move), and a writer's copy misses its sibling's write (vpn's ICV
// covers the header before lb rewrites it). So a graph with a priority
// segment is checked against its own compiled graph on the simulated
// plane instead of the flat chain.
//
// NFs come from PairEquivalence's set minus the shaper: its token bucket
// reads inject_time, which is simulated time on the simulator and wall
// clock on the live plane, so its verdicts differ between planes by
// design.
#include <gtest/gtest.h>

#include <map>
#include <tuple>

#include "../support/plane_runs.hpp"
#include "../support/random_policy.hpp"
#include "../support/sorted_frames.hpp"
#include "dataplane/live_classifier.hpp"
#include "nfs/firewall.hpp"
#include "nfs/ids.hpp"
#include "orch/compiler.hpp"
#include "packet/builder.hpp"

namespace nfp {
namespace {

using test_support::PlaneRun;

const std::vector<std::string>& nf_universe() {
  static const std::vector<std::string> kNfs = {
      "monitor", "firewall", "lb",      "vpn",        "ids",
      "gateway", "nat",      "caching", "compression"};
  return kNfs;
}

// Both droppers plus the NFs whose state depends on the packets they see
// (nat ports, vpn sequence numbers), so a priority segment that lets an
// NF see a packet its sibling drops shows in the output.
const std::vector<std::string>& priority_universe() {
  static const std::vector<std::string> kNfs = {"firewall", "ips", "monitor",
                                                "lb",       "nat", "vpn"};
  return kNfs;
}

// Built-in NFs seeded by instance id (the dataplanes' default), except a
// firewall that drops dst ports 80-81 and an ips that drops frames whose
// payload byte is a multiple of 4 (make_frames fills each payload with
// one random byte), so drop resolution sees real drops.
std::unique_ptr<NetworkFunction> make_nf(const StageNf& nf) {
  if (nf.name == "firewall") {
    AclTable acl;
    AclRule rule;
    rule.dst_port_lo = 80;
    rule.dst_port_hi = 81;
    rule.action = AclAction::kDrop;
    acl.add(rule);
    return std::make_unique<Firewall>(std::move(acl));
  }
  if (nf.name == "ips") {
    std::vector<std::string> signatures;
    for (int b = 0; b < 256; b += 4) {
      signatures.emplace_back(8, static_cast<char>(b));
    }
    return std::make_unique<Ips>(signatures);
  }
  return make_builtin_nf(nf.name, static_cast<u64>(nf.instance_id) + 1);
}

bool has_priority_segment(const ServiceGraph& graph) {
  for (const Segment& seg : graph.segments()) {
    if (seg.merge.drop_resolution == DropResolution::kPriority) return true;
  }
  return false;
}

std::vector<std::vector<u8>> make_frames(Rng& rng, std::size_t count) {
  constexpr std::size_t kFlows = 24;
  PacketPool pool(2);
  std::vector<std::vector<u8>> frames;
  for (std::size_t i = 0; i < count; ++i) {
    const auto f = static_cast<u32>(rng.bounded(kFlows));
    PacketSpec spec;
    spec.tuple = FiveTuple{0x0A000010 + f, 0x0A640001,
                           static_cast<u16>(20'000 + f),
                           static_cast<u16>(80 + f % 6),
                           f % 4 == 0 ? kProtoUdp : kProtoTcp};
    spec.frame_size = 64 + rng.bounded(1'400);
    spec.payload_byte = static_cast<u8>(rng.bounded(256));
    Packet* p = build_packet(pool, spec);
    frames.emplace_back(p->data(), p->data() + p->length());
    pool.release(p);
  }
  return frames;
}

// Delivered frames grouped by flow (the output 5-tuple; unparsable frames
// share one group), each group in delivery order.
std::map<std::tuple<u32, u32, u16, u16, u8>, std::vector<std::vector<u8>>>
per_flow(const PlaneRun& run) {
  std::map<std::tuple<u32, u32, u16, u16, u8>, std::vector<std::vector<u8>>>
      flows;
  for (const auto& frame : run.outputs) {
    const auto t = parse_five_tuple(frame);
    const auto key = t ? std::make_tuple(t->src_ip, t->dst_ip, t->src_port,
                                         t->dst_port, t->proto)
                       : std::make_tuple(u32{0}, u32{0}, u16{0}, u16{0},
                                         u8{0});
    flows[key].emplace_back(frame.begin(), frame.end());
  }
  return flows;
}

void expect_same(const PlaneRun& ref, const PlaneRun& run, const char* plan) {
  EXPECT_EQ(ref.dropped, run.dropped) << plan << ": drop totals";
  ASSERT_EQ(ref.outputs.size(), run.outputs.size()) << plan;
  const auto ref_sorted = test_support::sorted_frames(ref.outputs);
  const auto run_sorted = test_support::sorted_frames(run.outputs);
  EXPECT_TRUE(ref_sorted == run_sorted) << plan << ": delivered multisets";
  EXPECT_TRUE(per_flow(ref) == per_flow(run)) << plan << ": per-flow order";
}

// Runs the policy drawn from `seed` on every plan and compares each with
// the reference: the flat chain, or the compiled graph on the simulated
// plane where a priority rule forced a parallel segment.
void check_random_policy(int seed, const std::vector<std::string>& universe,
                         bool priority_rules) {
  Rng rng(static_cast<u64>(seed) * 104'729 + 7);
  const ActionTable table = ActionTable::with_builtin_nfs();
  const Policy policy =
      test_support::random_policy(rng, universe, priority_rules);
  auto compiled = compile_policy(policy, table);
  ASSERT_TRUE(compiled.is_ok()) << compiled.error() << "\n"
                                << policy.to_string();
  const ServiceGraph graph = std::move(compiled).take();
  SCOPED_TRACE(graph.to_string());

  std::vector<std::string> chain;
  for (const Segment& seg : graph.segments()) {
    for (const StageNf& nf : seg.nfs) chain.push_back(nf.name);
  }
  const auto frames = make_frames(rng, 200);

  using test_support::run_live;
  using test_support::run_simulated;
  const PlaneRun simulated = run_simulated(graph, frames, make_nf);
  const PlaneRun live = run_live(graph, frames, make_nf);
  if (has_priority_segment(graph)) {
    expect_same(simulated, live, "live vs simulated graph");
  } else {
    const PlaneRun reference = run_simulated(
        ServiceGraph::sequential("flat", chain), frames, make_nf);
    expect_same(reference, simulated, "simulated");
    expect_same(reference, live, "live");
  }
  const auto nf_verdict =
      static_cast<std::size_t>(telemetry::DropReason::kNfVerdict);
  EXPECT_EQ(live.by_reason[nf_verdict], live.dropped)
      << "every live drop is an NF verdict";
}

class ExecutorDifferential : public ::testing::TestWithParam<int> {};

TEST_P(ExecutorDifferential, RandomPolicyMatchesSequentialChain) {
  check_random_policy(GetParam(), nf_universe(), /*priority_rules=*/false);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExecutorDifferential, ::testing::Range(0, 40));

class ExecutorDifferentialPriority : public ::testing::TestWithParam<int> {};

TEST_P(ExecutorDifferentialPriority, RandomPolicyMatchesReference) {
  check_random_policy(GetParam(), priority_universe(),
                      /*priority_rules=*/true);
}

INSTANTIATE_TEST_SUITE_P(PrioritySeeds, ExecutorDifferentialPriority,
                         ::testing::Range(0, 40));

}  // namespace
}  // namespace nfp
