// Tests for the fused run-to-completion executor: output equivalence with
// the pipelined path (delivered multisets and drop-reason totals), the
// auto-mode resolution rule, the latency-telescoping contract with fused
// merges (merge_wait stays empty), and a 2-shard sharded run under
// concurrent telemetry scrapes (the TSan workload).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <thread>
#include <vector>

#include "dataplane/live_pipeline.hpp"
#include "dataplane/sharded_dataplane.hpp"
#include "graph/service_graph.hpp"
#include "nfs/firewall.hpp"
#include "orch/compiler.hpp"
#include "packet/builder.hpp"
#include "policy/policy.hpp"
#include "telemetry/latency_observatory.hpp"
#include "telemetry/scalability_profiler.hpp"

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
// exercises fanout copies, inline merge and merge-op application in the
// fused path.
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

// Runs the same graph + frames under both execution modes and asserts the
// delivered multisets and per-reason drop totals are identical, that no
// release tripped the refcount-underflow detector, and that hot magazines
// keep pool refills well under one per packet.
void check_mode_equivalence(
    const ServiceGraph& graph, const std::vector<std::vector<u8>>& frames,
    const std::function<std::unique_ptr<NetworkFunction>(const StageNf&)>&
        factory = {}) {
  LivePipelineOptions rtc_opts;
  rtc_opts.exec_mode = ExecMode::kRtc;
  LivePipeline rtc(ServiceGraph(graph), factory, rtc_opts);
  ASSERT_EQ(rtc.exec_mode(), ExecMode::kRtc);
  LiveResult rtc_result = rtc.run(frames);

  LivePipelineOptions piped_opts;
  piped_opts.exec_mode = ExecMode::kPipelined;
  LivePipeline piped(ServiceGraph(graph), factory, piped_opts);
  ASSERT_EQ(piped.exec_mode(), ExecMode::kPipelined);
  LiveResult piped_result = piped.run(frames);

  EXPECT_TRUE(rtc_result.status.is_ok());
  EXPECT_TRUE(piped_result.status.is_ok());
  EXPECT_EQ(rtc_result.dropped, piped_result.dropped);
  for (std::size_t r = 0; r < telemetry::kDropReasonCount; ++r) {
    const auto reason = static_cast<telemetry::DropReason>(r);
    EXPECT_EQ(rtc.dropped_by(reason), piped.dropped_by(reason))
        << telemetry::drop_reason_name(reason);
  }
  ASSERT_EQ(rtc_result.outputs.size(), piped_result.outputs.size());
  // The pipelined path may reorder across flows; compare as multisets.
  std::sort(rtc_result.outputs.begin(), rtc_result.outputs.end());
  std::sort(piped_result.outputs.begin(), piped_result.outputs.end());
  EXPECT_EQ(rtc_result.outputs, piped_result.outputs);

  for (LivePipeline* pipe : {&rtc, &piped}) {
    EXPECT_EQ(pipe->refcnt_underflows(), 0u)
        << exec_mode_name(pipe->exec_mode());
    EXPECT_LT(pipe->magazine_refills(), frames.size())
        << exec_mode_name(pipe->exec_mode());
  }
}

TEST(RtcExecutor, TreeGraphMatchesPipelinedMultiset) {
  check_mode_equivalence(make_tree_graph(), make_frames(200));
}

TEST(RtcExecutor, VpnChainMatchesPipelined) {
  check_mode_equivalence(
      ServiceGraph::sequential("chain", {"vpn", "monitor", "lb"}),
      make_frames(150));
}

TEST(RtcExecutor, DropReasonTotalsMatchPipelined) {
  // Firewall drops everything inside a compiled parallel stage: the fused
  // merge's drop resolution must tag the same kNfVerdict totals as the
  // merger thread's.
  const auto factory =
      [](const StageNf& nf) -> std::unique_ptr<NetworkFunction> {
    if (nf.name == "firewall") {
      AclTable acl;
      acl.set_default_action(AclAction::kDrop);
      return std::make_unique<Firewall>(std::move(acl));
    }
    return make_builtin_nf(nf.name);
  };
  check_mode_equivalence(compile_chain({"monitor", "firewall"}),
                         make_frames(120), factory);
}

TEST(RtcExecutor, AutoModeFusesSequentialGraphsOnly) {
  const auto frames = make_frames(16);

  // Sequential chain: rings would only add hand-off cost — auto fuses.
  LivePipelineOptions auto_opts;
  auto_opts.exec_mode = ExecMode::kAuto;
  LivePipeline seq(ServiceGraph::sequential("s", {"monitor", "lb"}), {},
                   auto_opts);
  EXPECT_EQ(seq.exec_mode(), ExecMode::kRtc);
  EXPECT_EQ(seq.run(frames).outputs.size(), frames.size());

  // Parallel graph: cross-thread execution is the paper's mechanism — auto
  // keeps it pipelined.
  LivePipeline par(compile_chain({"ids", "monitor", "lb"}), {}, auto_opts);
  EXPECT_EQ(par.exec_mode(), ExecMode::kPipelined);
  EXPECT_EQ(par.run(frames).outputs.size(), frames.size());

  // Explicit rtc fuses parallel stages too.
  LivePipelineOptions rtc_opts;
  rtc_opts.exec_mode = ExecMode::kRtc;
  LivePipeline fused(compile_chain({"ids", "monitor", "lb"}), {}, rtc_opts);
  EXPECT_EQ(fused.exec_mode(), ExecMode::kRtc);
  EXPECT_EQ(fused.run(frames).outputs.size(), frames.size());

  EXPECT_NE(parse_exec_mode("rtc"), std::nullopt);
  EXPECT_EQ(parse_exec_mode("bogus"), std::nullopt);
  EXPECT_STREQ(exec_mode_name(ExecMode::kRtc), "rtc");
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

// The TSan workload: two RTC shards (fused parallel graph — every worker
// runs the whole graph inline) while a scrape thread hammers the profiler
// and observatory folds. Every telemetry cell the scraper touches is
// written concurrently by the workers.
TEST(RtcExecutor, TwoShardRunSurvivesConcurrentScrapes) {
  const std::size_t kPackets = 4'000;
  const auto frames = make_flow_frames(kPackets, 32);
  ShardedDataplaneOptions opts;
  opts.shards = 2;
  opts.pipeline.exec_mode = ExecMode::kRtc;
  opts.pipeline.latency_sample_every = 1;
  ShardedDataplane dp({compile_chain({"ids", "monitor", "lb"})}, {}, opts);
  ASSERT_EQ(dp.exec_mode(), ExecMode::kRtc);

  telemetry::ScalabilityProfilerOptions popt;
  popt.enable_hw = false;
  telemetry::ScalabilityProfiler prof(popt);
  dp.register_scalability(prof);
  telemetry::LatencyObservatory::Options lopt;
  lopt.sample_every = 1;
  telemetry::LatencyObservatory obs(lopt);
  dp.register_latency(obs);

  ASSERT_TRUE(dp.start().is_ok());
  prof.reset_baseline();
  obs.reset_baseline();

  std::atomic<bool> stop{false};
  std::thread scraper([&] {
    u64 scrapes = 0;
    while (!stop.load(std::memory_order_acquire)) {
      const telemetry::ScalabilityReport srep = prof.report();
      EXPECT_EQ(srep.shards.size(), 2u);
      const telemetry::LatencyReport lrep = obs.report();
      EXPECT_LE(lrep.sampled(), kPackets);
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

// Telescoping in RTC mode: stage sums still add up to the end-to-end
// total, and the merge_wait stage stays EMPTY even on a parallel graph —
// a fused merge has no cross-thread wait to measure.
TEST(RtcExecutor, FusedMergeKeepsMergeWaitEmpty) {
  const std::size_t kPackets = 3'000;
  const auto frames = make_flow_frames(kPackets, 32);
  ShardedDataplaneOptions opts;
  opts.shards = 2;
  opts.pipeline.exec_mode = ExecMode::kRtc;
  opts.pipeline.latency_sample_every = 1;
  ShardedDataplane dp(
      {ServiceGraph::parallel("par", {"monitor", "monitor", "monitor"})}, {},
      opts);
  ASSERT_EQ(dp.exec_mode(), ExecMode::kRtc);

  telemetry::LatencyObservatory::Options lopt;
  lopt.sample_every = 1;
  telemetry::LatencyObservatory obs(lopt);
  dp.register_latency(obs);
  ASSERT_TRUE(dp.start().is_ok());
  obs.reset_baseline();
  for (const auto& frame : frames) {
    dp.feed({frame.data(), frame.size()});
  }
  wait_until_done(dp, kPackets);
  const telemetry::LatencyReport rep = obs.report();
  const ShardedResult res = dp.drain();
  EXPECT_TRUE(res.status.is_ok());
  ASSERT_EQ(res.outputs.size(), kPackets);

  using telemetry::LatencyStage;
  const telemetry::HdrSnapshot& total = rep.stage(LatencyStage::kTotal);
  ASSERT_EQ(total.count(), kPackets);
  for (const LatencyStage s :
       {LatencyStage::kIngest, LatencyStage::kQueue, LatencyStage::kService,
        LatencyStage::kEgress}) {
    EXPECT_EQ(rep.stage(s).count(), kPackets)
        << telemetry::latency_stage_name(s);
  }
  // No merger, no merge crossing: the stage is structurally empty.
  EXPECT_EQ(rep.stage(LatencyStage::kMergeWait).count(), 0u);
  EXPECT_EQ(rep.stage(LatencyStage::kMergeWait).sum, 0u);
  // Stage spans telescope exactly; tolerance covers clock quirks only.
  u64 stage_sum = 0;
  for (const LatencyStage s :
       {LatencyStage::kIngest, LatencyStage::kQueue, LatencyStage::kService,
        LatencyStage::kMergeWait, LatencyStage::kEgress}) {
    stage_sum += rep.stage(s).sum;
  }
  EXPECT_NEAR(static_cast<double>(stage_sum),
              static_cast<double>(total.sum),
              0.01 * static_cast<double>(total.sum) + 1.0);
}

}  // namespace
}  // namespace nfp
