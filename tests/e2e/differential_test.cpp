// Cross-executor differential test (the paper's §6.4 check, generalized):
// random policies compile into NFP graphs, and one seeded frame set runs
// through four plans —
//   1. the graph flattened into a sequential chain on the simulated plane,
//      the §6.4 reference (segments in order, NFs in declaration order, so
//      every NF keeps its instance id and with it its seeded state);
//   2. the compiled graph on the simulated plane;
//   3. the compiled graph on the pipelined live executor;
//   4. the compiled graph on the rtc live executor.
// Every plan must deliver the same multiset of frames, in the same order
// within each flow, and drop the same number of packets; pipelined and
// rtc must also agree on the drop totals per reason.
//
// NFs come from PairEquivalence's set minus the shaper: its token bucket
// reads inject_time, which the simulator stamps and the live planes leave
// at 0, so its verdicts differ between planes by design.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <tuple>

#include "../support/plane_runs.hpp"
#include "../support/random_policy.hpp"
#include "dataplane/live_classifier.hpp"
#include "nfs/firewall.hpp"
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

// Built-in NFs seeded by instance id (the dataplanes' default), except a
// firewall that drops dst ports 80-81, so drop resolution sees real drops.
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
  return make_builtin_nf(nf.name, static_cast<u64>(nf.instance_id) + 1);
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
    flows[key].push_back(frame);
  }
  return flows;
}

void expect_same(const PlaneRun& ref, const PlaneRun& run, const char* plan) {
  EXPECT_EQ(ref.dropped, run.dropped) << plan << ": drop totals";
  ASSERT_EQ(ref.outputs.size(), run.outputs.size()) << plan;
  auto ref_sorted = ref.outputs;
  auto run_sorted = run.outputs;
  std::sort(ref_sorted.begin(), ref_sorted.end());
  std::sort(run_sorted.begin(), run_sorted.end());
  EXPECT_TRUE(ref_sorted == run_sorted) << plan << ": delivered multisets";
  EXPECT_TRUE(per_flow(ref) == per_flow(run)) << plan << ": per-flow order";
}

class ExecutorDifferential : public ::testing::TestWithParam<int> {};

TEST_P(ExecutorDifferential, RandomPolicyMatchesSequentialChain) {
  Rng rng(static_cast<u64>(GetParam()) * 104'729 + 7);
  const ActionTable table = ActionTable::with_builtin_nfs();
  const Policy policy = test_support::random_policy(rng, nf_universe());
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
  const PlaneRun reference = run_simulated(
      ServiceGraph::sequential("flat", chain), frames, make_nf);
  const PlaneRun simulated = run_simulated(graph, frames, make_nf);
  const PlaneRun pipelined =
      run_live(graph, frames, ExecMode::kPipelined, make_nf);
  const PlaneRun rtc = run_live(graph, frames, ExecMode::kRtc, make_nf);

  expect_same(reference, simulated, "simulated");
  expect_same(reference, pipelined, "pipelined");
  expect_same(reference, rtc, "rtc");
  EXPECT_EQ(pipelined.by_reason, rtc.by_reason) << "drops per reason";
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExecutorDifferential, ::testing::Range(0, 40));

}  // namespace
}  // namespace nfp
