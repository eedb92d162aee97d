// Tests for the live pipeline's run-to-completion graph walk: output
// equivalence with the simulated plane on the same graph (delivered
// multisets and drop totals, every drop an nf_verdict), the
// latency-telescoping contract with fused merges (ingest, queue and
// service sum to total), and a 2-shard sharded run under concurrent
// telemetry scrapes
// (the TSan workload). The three equivalence tests keep the names they
// had when they compared against the pipelined executor, which is gone.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <thread>
#include <vector>

#include "../support/plane_runs.hpp"
#include "../support/sorted_frames.hpp"
#include "dataplane/live_pipeline.hpp"
#include "dataplane/sharded_dataplane.hpp"
#include "graph/service_graph.hpp"
#include "nfs/firewall.hpp"
#include "orch/compiler.hpp"
#include "packet/builder.hpp"
#include "policy/policy.hpp"
#include "telemetry/observatory.hpp"

namespace nfp {
namespace {

ServiceGraph compile_chain(const std::vector<std::string>& chain) {
  const ActionTable table = ActionTable::with_builtin_nfs();
  auto g = compile_policy(Policy::from_sequential_chain("rtc", chain), table);
  EXPECT_TRUE(g.is_ok()) << g.error();
  return std::move(g).take();
}

std::vector<std::vector<u8>> make_frames(std::size_t count,
                                         std::size_t flows = 13) {
  PacketPool pool(4);
  std::vector<std::vector<u8>> frames;
  for (std::size_t i = 0; i < count; ++i) {
    PacketSpec spec;
    spec.tuple = FiveTuple{0x0A500000 + static_cast<u32>(i % flows),
                           0x0A800001, static_cast<u16>(7'000 + i % flows),
                           443, kProtoTcp};
    spec.frame_size = 64 + (i % 5) * 100;
    Packet* p = build_packet(pool, spec);
    frames.emplace_back(p->data(), p->data() + p->length());
    pool.release(p);
  }
  return frames;
}

// Same hand-built 1 + 4 + 1 tree as live_pipeline_test: a parallel stage
// spanning two packet versions with kModify merge ops — the shape that
// exercises fanout copies, inline merge and merge-op application.
ServiceGraph make_tree_graph() {
  ServiceGraph g("tree");
  Segment pre;
  pre.nfs.push_back({"monitor", 0, 1, 0, false});
  pre.mid = 1;
  g.segments().push_back(std::move(pre));

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

// Runs the same graph + frames on the live pipeline and on the simulated
// plane and asserts the delivered multisets and drop totals are
// identical, that every live drop is tagged nf_verdict, that no release
// tripped the refcount-underflow detector, and that a hot magazine keeps
// pool refills well under one per packet.
void check_against_simulated(const ServiceGraph& graph,
                             const std::vector<std::vector<u8>>& frames,
                             const NfFactory& factory = {}) {
  LivePipeline live(ServiceGraph(graph), factory);
  LiveResult live_result = live.run(frames);
  const test_support::PlaneRun simulated =
      test_support::run_simulated(graph, frames, factory);

  EXPECT_TRUE(live_result.status.is_ok());
  EXPECT_EQ(live_result.dropped, simulated.dropped);
  for (std::size_t r = 0; r < telemetry::kDropReasonCount; ++r) {
    const auto reason = static_cast<telemetry::DropReason>(r);
    EXPECT_EQ(live.dropped_by(reason),
              reason == telemetry::DropReason::kNfVerdict ? simulated.dropped
                                                          : 0u)
        << telemetry::drop_reason_name(reason);
  }
  ASSERT_EQ(live_result.outputs.size(), simulated.outputs.size());
  EXPECT_EQ(test_support::sorted_frames(live_result.outputs),
            test_support::sorted_frames(simulated.outputs));

  EXPECT_EQ(live.refcnt_underflows(), 0u);
  EXPECT_LT(live.magazine_refills(), frames.size());
}

TEST(RtcExecutor, TreeGraphMatchesPipelinedMultiset) {
  check_against_simulated(make_tree_graph(), make_frames(200));
}

TEST(RtcExecutor, VpnChainMatchesPipelined) {
  check_against_simulated(
      ServiceGraph::sequential("chain", {"vpn", "monitor", "lb"}),
      make_frames(150));
}

TEST(RtcExecutor, DropReasonTotalsMatchPipelined) {
  // Firewall drops everything inside a compiled parallel stage: the fused
  // merge's drop resolution must tag every drop kNfVerdict, as many as the
  // simulated plane's merger drops.
  const auto factory =
      [](const StageNf& nf) -> std::unique_ptr<NetworkFunction> {
    if (nf.name == "firewall") {
      AclTable acl;
      acl.set_default_action(AclAction::kDrop);
      return std::make_unique<Firewall>(std::move(acl));
    }
    return make_builtin_nf(nf.name);
  };
  check_against_simulated(compile_chain({"monitor", "firewall"}),
                          make_frames(120), factory);
}

// --- sharded runs --------------------------------------------------------

std::vector<std::vector<u8>> make_flow_frames(std::size_t count,
                                              std::size_t flows) {
  return make_frames(count, flows);
}

void wait_until_done(ShardedDataplane& dp, std::size_t expected) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  u64 done = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    done = 0;
    for (std::size_t s = 0; s < dp.shard_count(); ++s) {
      done += dp.shard_delivered(s) + dp.shard_dropped(s);
    }
    if (done >= expected) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  FAIL() << "dataplane stuck: " << done << "/" << expected << " frames";
}

// The TSan workload: two shards (fused parallel graph — every worker
// runs the whole graph inline) while a scrape thread hammers the
// observatory's folds. Every telemetry cell the scraper touches is
// written concurrently by the workers.
TEST(RtcExecutor, TwoShardRunSurvivesConcurrentScrapes) {
  const std::size_t kPackets = 4'000;
  const auto frames = make_flow_frames(kPackets, 32);
  ShardedDataplaneOptions opts;
  opts.shards = 2;
  opts.pipeline.latency_sample_every = 1;
  ShardedDataplane dp({compile_chain({"ids", "monitor", "lb"})}, {}, opts);

  telemetry::ObservatoryOptions oopt;
  oopt.enable_hw = false;
  telemetry::Observatory obs(oopt);
  dp.register_observatory(obs);

  ASSERT_TRUE(dp.start().is_ok());
  obs.reset_baseline();

  std::atomic<bool> stop{false};
  std::thread scraper([&] {
    u64 scrapes = 0;
    while (!stop.load(std::memory_order_acquire)) {
      const telemetry::ObservatoryReport rep = obs.report();
      EXPECT_EQ(rep.scalability.shards.size(), 2u);
      EXPECT_LE(rep.latency.sampled(), kPackets);
      ++scrapes;
    }
    EXPECT_GT(scrapes, 0u);
  });

  for (const auto& frame : frames) {
    dp.feed({frame.data(), frame.size()});
  }
  wait_until_done(dp, kPackets);
  stop.store(true, std::memory_order_release);
  scraper.join();

  const ShardedResult res = dp.drain();
  EXPECT_TRUE(res.status.is_ok());
  EXPECT_EQ(res.outputs.size() + res.dropped, kPackets);
}

// Telescoping with fused merges: on a parallel graph the fan-out copies
// and the merge land in queue and the branches in one service span, and
// the three stages still add up to the end-to-end total.
TEST(RtcExecutor, FusedMergeStagesSumToTotal) {
  const std::size_t kPackets = 3'000;
  const auto frames = make_flow_frames(kPackets, 32);
  ShardedDataplaneOptions opts;
  opts.shards = 2;
  opts.pipeline.latency_sample_every = 1;
  ShardedDataplane dp(
      {ServiceGraph::parallel("par", {"monitor", "monitor", "monitor"})}, {},
      opts);

  telemetry::Observatory obs;
  dp.register_observatory(obs);
  ASSERT_TRUE(dp.start().is_ok());
  obs.reset_baseline();
  for (const auto& frame : frames) {
    dp.feed({frame.data(), frame.size()});
  }
  wait_until_done(dp, kPackets);
  const telemetry::LatencyReport rep = obs.report().latency;
  const ShardedResult res = dp.drain();
  EXPECT_TRUE(res.status.is_ok());
  ASSERT_EQ(res.outputs.size(), kPackets);

  using telemetry::LatencyStage;
  const telemetry::HdrSnapshot& total = rep.stage(LatencyStage::kTotal);
  ASSERT_EQ(total.count(), kPackets);
  // Stage spans telescope exactly; tolerance covers clock quirks only.
  u64 stage_sum = 0;
  for (const LatencyStage s :
       {LatencyStage::kIngest, LatencyStage::kQueue, LatencyStage::kService}) {
    EXPECT_EQ(rep.stage(s).count(), kPackets)
        << telemetry::latency_stage_name(s);
    stage_sum += rep.stage(s).sum;
  }
  EXPECT_NEAR(static_cast<double>(stage_sum),
              static_cast<double>(total.sum),
              0.01 * static_cast<double>(total.sum) + 1.0);
}

}  // namespace
}  // namespace nfp
