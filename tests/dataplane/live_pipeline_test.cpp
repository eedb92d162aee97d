// Tests for the live pipeline: functional equivalence with the simulated
// dataplane on the same compiled graphs.
#include <gtest/gtest.h>

#include <algorithm>

#include "../support/sorted_frames.hpp"
#include "dataplane/live_pipeline.hpp"
#include "dataplane/nfp_dataplane.hpp"
#include "nfs/firewall.hpp"
#include "nfs/misc_nfs.hpp"
#include "nfs/monitor.hpp"
#include "orch/compiler.hpp"
#include "packet/builder.hpp"
#include "policy/policy.hpp"

namespace nfp {
namespace {

ServiceGraph compile_chain(const std::vector<std::string>& chain) {
  const ActionTable table = ActionTable::with_builtin_nfs();
  auto g = compile_policy(Policy::from_sequential_chain("live", chain), table);
  EXPECT_TRUE(g.is_ok()) << g.error();
  return std::move(g).take();
}

std::vector<std::vector<u8>> make_frames(std::size_t count) {
  PacketPool pool(count + 1);
  std::vector<std::vector<u8>> frames;
  for (std::size_t i = 0; i < count; ++i) {
    PacketSpec spec;
    spec.tuple.src_port = static_cast<u16>(7000 + i % 13);
    spec.tuple.dst_port = static_cast<u16>(80 + i % 3);
    spec.frame_size = 64 + (i % 5) * 100;
    Packet* p = build_packet(pool, spec);
    frames.emplace_back(p->data(), p->data() + p->length());
    pool.release(p);
  }
  return frames;
}

TEST(LivePipeline, SequentialChainDeliversEverything) {
  LivePipeline pipe(ServiceGraph::sequential("seq", {"monitor", "lb"}));
  const auto frames = make_frames(64);
  const LiveResult result = pipe.run(frames);
  EXPECT_EQ(result.outputs.size(), 64u);
  EXPECT_EQ(result.dropped, 0u);
  auto* mon = dynamic_cast<Monitor*>(pipe.nf(0, 0));
  ASSERT_NE(mon, nullptr);
  EXPECT_EQ(mon->total_packets(), 64u);
}

TEST(LivePipeline, ParallelStageMergesOnRealThreads) {
  // IDS ∥ Monitor ∥ LB with a real header copy, merged inline.
  LivePipeline pipe(compile_chain({"ids", "monitor", "lb"}));
  const auto frames = make_frames(48);
  const LiveResult result = pipe.run(frames);
  ASSERT_EQ(result.outputs.size(), 48u);
  for (const auto& bytes : result.outputs) {
    Ipv4View ip(const_cast<u8*>(bytes.data()) + kEthHeaderLen);
    EXPECT_EQ(ip.dst_ip() & 0xFFFF0000, 0x0A640000u)
        << "LB's rewrite must survive the merge";
  }
  auto* mon = dynamic_cast<Monitor*>(pipe.nf(0, 1));
  ASSERT_NE(mon, nullptr);
  EXPECT_EQ(mon->total_packets(), 48u);
}

TEST(LivePipeline, MatchesSimulatedDataplaneOutputs) {
  const auto frames = make_frames(32);

  // Live run.
  LivePipeline pipe(compile_chain({"monitor", "vpn"}));
  LiveResult live = pipe.run(frames);

  // Simulated run over identical frames.
  sim::Simulator sim;
  DataplaneConfig cfg;
  cfg.merger_instances = 1;
  NfpDataplane dp(sim, compile_chain({"monitor", "vpn"}), std::move(cfg));
  std::vector<std::vector<u8>> sim_out;
  dp.set_sink([&](Packet* p, SimTime) {
    sim_out.emplace_back(p->data(), p->data() + p->length());
    dp.pool().release(p);
  });
  for (std::size_t i = 0; i < frames.size(); ++i) {
    sim.schedule_at(i * 10'000, [&dp, &frames, i] {
      Packet* p = dp.pool().alloc(frames[i].size());
      ASSERT_NE(p, nullptr);
      std::memcpy(p->data(), frames[i].data(), frames[i].size());
      dp.inject(p);
    });
  }
  sim.run();

  // Compare as multisets, as every cross-plane check does.
  ASSERT_EQ(live.outputs.size(), sim_out.size());
  std::sort(sim_out.begin(), sim_out.end());
  EXPECT_EQ(test_support::sorted_frames(live.outputs), sim_out);
}

// Hand-built 1 + 4 + 1 tree: a sequential monitor, then a 4-NF parallel
// stage spanning two packet versions with a kModify merge op, then a
// sequential hop. Exercises fanout copies, versions shared by several
// NFs, and merge-op application.
ServiceGraph make_tree_graph() {
  ServiceGraph g("tree");
  Segment pre;
  pre.nfs.push_back({"monitor", 0, 1, 0, false});
  pre.mid = 1;
  g.segments().push_back(std::move(pre));

  // Three readers share version 1; lb writes the IP header so it gets its
  // own version (the compiler's OP#1 would assign the same split).
  Segment par;
  par.nfs.push_back({"ids", 1, 1, 0, false});
  par.nfs.push_back({"monitor", 2, 1, 0, false});
  par.nfs.push_back({"lb", 3, 2, 1, false});
  par.nfs.push_back({"monitor", 4, 1, 0, false});
  par.num_versions = 2;
  par.merge.total_count = 4;
  par.merge.ops.push_back({MergeOp::Kind::kModify, 2, Field::kSrcIp});
  par.merge.ops.push_back({MergeOp::Kind::kModify, 2, Field::kDstIp});
  par.mid = 2;
  g.segments().push_back(std::move(par));

  Segment post;
  post.nfs.push_back({"monitor", 5, 1, 0, false});
  post.mid = 3;
  g.segments().push_back(std::move(post));
  return g;
}

// The smallest pool that holds a magazine plus one packet's versions, no
// magazine at all, and oversized everything: each must deliver every
// frame and leak no slot.
TEST(LivePipeline, SurvivesAggressiveOptionSweep) {
  const auto frames = make_frames(120);
  const LivePipelineOptions sweeps[] = {
      {.pool_size = 4, .magazine_size = 2},      // magazine + 2 versions
      {.pool_size = 2, .magazine_size = 0},      // no magazine
      {.pool_size = 4096, .magazine_size = 128},  // oversized everything
  };
  for (const auto& opts : sweeps) {
    LivePipeline pipe(make_tree_graph(), {}, opts);
    const LiveResult result = pipe.run(frames);
    EXPECT_EQ(result.outputs.size(), 120u)
        << "pool=" << opts.pool_size << " magazine=" << opts.magazine_size;
    EXPECT_EQ(result.dropped, 0u);
    EXPECT_EQ(pipe.refcnt_underflows(), 0u);
    EXPECT_EQ(pipe.pool_in_use(), 0u) << "leaked a slot";
  }
}

TEST(LivePipeline, DropsPropagateThroughNilPackets) {
  // Firewall drops everything; monitor runs in parallel and still sees all.
  LivePipeline pipe(
      compile_chain({"monitor", "firewall"}),
      [](const StageNf& nf) -> std::unique_ptr<NetworkFunction> {
        if (nf.name == "firewall") {
          AclTable acl;
          acl.set_default_action(AclAction::kDrop);
          return std::make_unique<Firewall>(std::move(acl));
        }
        return make_builtin_nf(nf.name);
      });
  const auto frames = make_frames(40);
  const LiveResult result = pipe.run(frames);
  EXPECT_TRUE(result.outputs.empty());
  EXPECT_EQ(result.dropped, 40u);
  auto* mon = dynamic_cast<Monitor*>(pipe.nf(0, 0));
  EXPECT_EQ(mon->total_packets(), 40u);
}

TEST(LivePipeline, FeedStampsArrivalForTheShaper) {
  // feed() stamps inject_time, so the shaper's token bucket refills: 2,048
  // 64-B frames (128 KB, twice its 64 KB bucket) at far below 1.25 GB/s
  // conform.
  PacketPool pool(1);
  PacketSpec spec;
  Packet* p = build_packet(pool, spec);
  const std::vector<std::vector<u8>> frames(
      2'048, std::vector<u8>(p->data(), p->data() + p->length()));
  pool.release(p);
  ASSERT_EQ(frames.front().size(), 64u);
  LivePipeline pipe(compile_chain({"shaper"}));
  const LiveResult result = pipe.run(frames);
  ASSERT_TRUE(result.status.is_ok());
  EXPECT_EQ(result.outputs.size(), frames.size());
  auto* shaper = dynamic_cast<TrafficShaper*>(pipe.nf(0, 0));
  ASSERT_NE(shaper, nullptr);
  EXPECT_EQ(shaper->out_of_profile(), 0u);
}

}  // namespace
}  // namespace nfp
