// Drop-conflict resolution at the merge (§3's Priority example and §5.2's
// nil packets): Order-derived parallelism uses "any drop wins" (sequential
// semantics); Priority-declared parallelism lets the highest-priority
// drop-capable NF decide — Priority(IPS > Firewall) adopts the IPS result.
// Every verdict case runs on all three planes: the simulated dataplane and
// the pipelined and rtc live executors, which share one segment kernel.
#include <gtest/gtest.h>

#include "../support/plane_runs.hpp"
#include "nfs/firewall.hpp"
#include "nfs/ids.hpp"
#include "orch/compiler.hpp"
#include "packet/builder.hpp"
#include "policy/parser.hpp"

namespace nfp {
namespace {

constexpr u64 kPackets = 50;

// Deterministic stand-ins: a firewall that drops everything and an IPS that
// passes everything (their verdicts conflict on every packet).
NfFactory conflicting_factory(bool ips_drops) {
  return [ips_drops](const StageNf& nf) -> std::unique_ptr<NetworkFunction> {
    if (nf.name == "firewall") {
      AclTable acl;
      acl.set_default_action(AclAction::kDrop);
      return std::make_unique<Firewall>(std::move(acl));
    }
    if (nf.name == "ips") {
      if (ips_drops) {
        // Signature matching every frame's payload (0x5c = '\\').
        return std::make_unique<Ips>(std::vector<std::string>{
            std::string(6, '\x5c')});
      }
      return std::make_unique<Ips>(std::vector<std::string>{"NOMATCH"});
    }
    return make_builtin_nf(nf.name);
  };
}

std::vector<std::vector<u8>> make_frames() {
  PacketPool pool(2);
  std::vector<std::vector<u8>> frames;
  for (u64 i = 0; i < kPackets; ++i) {
    PacketSpec spec;
    spec.tuple.src_port = static_cast<u16>(10'000 + i % 8);
    spec.frame_size = 128;
    spec.payload_byte = 0x5c;
    Packet* p = build_packet(pool, spec);
    frames.emplace_back(p->data(), p->data() + p->length());
    pool.release(p);
  }
  return frames;
}

enum class Plane { kSimulated, kPipelined, kRtc };

const char* plane_name(Plane plane) {
  switch (plane) {
    case Plane::kSimulated: return "simulated";
    case Plane::kPipelined: return "pipelined";
    case Plane::kRtc: return "rtc";
  }
  return "?";
}

// Runs the compiled policy on `plane` and returns the packets delivered;
// every packet not delivered must be counted as dropped.
u64 run_and_count_delivered(const std::string& policy_text, bool ips_drops,
                            Plane plane) {
  const ActionTable table = ActionTable::with_builtin_nfs();
  auto graph = compile_policy(parse_policy(policy_text).value(), table);
  EXPECT_TRUE(graph.is_ok()) << graph.error();
  const auto frames = make_frames();
  const NfFactory factory = conflicting_factory(ips_drops);
  const test_support::PlaneRun run =
      plane == Plane::kSimulated
          ? test_support::run_simulated(graph.value(), frames, factory)
          : test_support::run_live(
                graph.value(), frames,
                plane == Plane::kRtc ? ExecMode::kRtc : ExecMode::kPipelined,
                factory);
  EXPECT_EQ(run.outputs.size() + run.dropped, kPackets) << plane_name(plane);
  return run.outputs.size();
}

// The verdict table: one row per case, checked on every plane.
struct VerdictCase {
  const char* policy;
  bool ips_drops;
  u64 delivered;
};

void expect_on_every_plane(const VerdictCase& c) {
  for (const Plane plane :
       {Plane::kSimulated, Plane::kPipelined, Plane::kRtc}) {
    EXPECT_EQ(run_and_count_delivered(c.policy, c.ips_drops, plane),
              c.delivered)
        << plane_name(plane);
  }
}

TEST(DropResolution, PriorityRuleAdoptsHighPriorityVerdict) {
  // Priority(IPS > Firewall): firewall drops, IPS passes => IPS wins, the
  // packets go through (§3: "adopt the processing result of IPS").
  expect_on_every_plane({"policy p\npriority(ips > firewall)",
                         /*ips_drops=*/false, kPackets});
}

TEST(DropResolution, PriorityRuleDropsWhenHighPriorityDrops) {
  expect_on_every_plane({"policy p\npriority(ips > firewall)",
                         /*ips_drops=*/true, 0});
}

TEST(DropResolution, OrderDerivedParallelismAnyDropWins) {
  // Monitor before Firewall compiles to parallel with kAnyDrop: the
  // firewall's drop always kills the packet (sequential semantics).
  expect_on_every_plane({"policy p\nchain(monitor, firewall)",
                         /*ips_drops=*/false, 0});
}

TEST(DropResolution, CompilerMarksResolutionModes) {
  const ActionTable table = ActionTable::with_builtin_nfs();
  auto prio = compile_policy(
      parse_policy("priority(ips > firewall)").value(), table);
  ASSERT_TRUE(prio.is_ok());
  EXPECT_EQ(prio.value().segments()[0].merge.drop_resolution,
            DropResolution::kPriority);

  auto order = compile_policy(
      parse_policy("chain(monitor, firewall)").value(), table);
  ASSERT_TRUE(order.is_ok());
  EXPECT_EQ(order.value().segments()[0].merge.drop_resolution,
            DropResolution::kAnyDrop);
}

}  // namespace
}  // namespace nfp
