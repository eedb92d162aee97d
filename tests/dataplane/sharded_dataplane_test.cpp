// Tests for the sharded live dataplane: output equivalence with a single
// pipeline, flow-consistent dispatch, live multi-graph classification
// through the microflow cache, CPU-pinning reporting, the streaming /
// run-once lifecycle contracts, and the per-shard packet pool (telemetry
// counted once, every slot returned, teardown order, minimum size), and
// the refusal of frames longer than a packet slot on both feed paths.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <map>
#include <memory>
#include <set>
#include <thread>

#include "../support/sorted_frames.hpp"
#include "common/cpu_affinity.hpp"
#include "dataplane/live_pipeline.hpp"
#include "dataplane/sharded_dataplane.hpp"
#include "nfs/firewall.hpp"
#include "nfs/misc_nfs.hpp"
#include "nfs/monitor.hpp"
#include "orch/compiler.hpp"
#include "packet/builder.hpp"
#include "policy/policy.hpp"
#include "telemetry/flow_observatory.hpp"
#include "telemetry/health_sampler.hpp"
#include "telemetry/registry.hpp"

namespace nfp {
namespace {

ServiceGraph compile_chain(const std::vector<std::string>& chain) {
  const ActionTable table = ActionTable::with_builtin_nfs();
  auto g =
      compile_policy(Policy::from_sequential_chain("shard", chain), table);
  EXPECT_TRUE(g.is_ok()) << g.error();
  return std::move(g).take();
}

FiveTuple test_tuple(std::size_t flow) {
  return FiveTuple{0x0A300000 + static_cast<u32>(flow),
                   0x0A400000 + static_cast<u32>(flow % 11),
                   static_cast<u16>(20'000 + flow),
                   static_cast<u16>(443 + flow % 3), kProtoTcp};
}

// `flows` distinct 5-tuples round-robined across `count` frames, with real
// Ethernet/IPv4/TCP headers so the director can parse them back out.
// Frames are `frame_size` bytes, or cycle through 64..256 when it is 0.
std::vector<std::vector<u8>> make_flow_frames(std::size_t count,
                                              std::size_t flows,
                                              std::size_t frame_size = 0) {
  PacketPool pool(4);
  std::vector<std::vector<u8>> frames;
  for (std::size_t i = 0; i < count; ++i) {
    PacketSpec spec;
    spec.tuple = test_tuple(i % flows);
    spec.frame_size = frame_size != 0 ? frame_size : 64 + (i % 4) * 64;
    Packet* p = build_packet(pool, spec);
    frames.emplace_back(p->data(), p->data() + p->length());
    pool.release(p);
  }
  return frames;
}

TEST(ShardedDataplane, EquivalentToSinglePipeline) {
  const auto frames = make_flow_frames(240, 16);

  // monitor + lb: deterministic per 5-tuple (ECMP hash rewrite), so the
  // delivered multiset is shard-count invariant. Order-stamping NFs like
  // vpn (AH sequence numbers) are intentionally not equivalence candidates.
  LivePipeline single(compile_chain({"monitor", "lb"}));
  LiveResult expected = single.run(frames);
  ASSERT_TRUE(expected.status.is_ok());

  ShardedDataplaneOptions opts;
  opts.shards = 4;
  ShardedDataplane sharded({compile_chain({"monitor", "lb"})}, {}, opts);
  ShardedResult got = sharded.run(frames);
  ASSERT_TRUE(got.status.is_ok());

  EXPECT_EQ(got.dropped, expected.dropped);
  ASSERT_EQ(got.outputs.size(), expected.outputs.size());
  // Sharding reorders across flows; the delivered multiset must not change.
  EXPECT_EQ(test_support::sorted_frames(got.outputs),
            test_support::sorted_frames(expected.outputs));
}

TEST(ShardedDataplane, AllPacketsOfAFlowExitOneShard) {
  // Monitor passes frames through unmodified, so each output frame still
  // carries its flow's 5-tuple and can be attributed.
  const std::size_t kFlows = 24;
  const auto frames = make_flow_frames(360, kFlows);

  ShardedDataplaneOptions opts;
  opts.shards = 4;
  ShardedDataplane dp({compile_chain({"monitor"})}, {}, opts);
  ShardedResult res = dp.run(frames);
  ASSERT_TRUE(res.status.is_ok());
  ASSERT_EQ(res.per_shard.size(), 4u);

  // outputs is shard-major: shard s's frames follow those of shards < s.
  std::map<u16, std::set<std::size_t>> shards_seen;  // src_port -> shards
  std::size_t delivered = 0;
  for (std::size_t s = 0; s < res.per_shard.size(); ++s) {
    const std::size_t end = delivered + res.per_shard[s].delivered;
    ASSERT_LE(end, res.outputs.size());
    for (; delivered < end; ++delivered) {
      const auto& frame = res.outputs[delivered];
      const auto tuple =
          parse_five_tuple({frame.data(), frame.size()});
      ASSERT_TRUE(tuple.has_value());
      shards_seen[tuple->src_port].insert(s);
      // The shard that emitted the frame must be the director's choice.
      EXPECT_EQ(s, dp.shard_for({frame.data(), frame.size()}));
    }
  }
  EXPECT_EQ(delivered, frames.size());
  EXPECT_EQ(res.outputs.size(), frames.size());
  EXPECT_EQ(shards_seen.size(), kFlows);
  for (const auto& [port, shards] : shards_seen) {
    EXPECT_EQ(shards.size(), 1u)
        << "flow with src_port " << port << " crossed shards";
  }
}

TEST(ShardedDataplane, MultiGraphClassificationSteersFlows) {
  // Graph 0 passes everything; graph 1 drops everything. Flows steered to
  // graph 1 by exact CT rules must vanish, the rest must survive.
  const auto drop_factory =
      [](const StageNf& nf) -> std::unique_ptr<NetworkFunction> {
    if (nf.name == "firewall") {
      AclTable acl;
      acl.set_default_action(AclAction::kDrop);
      return std::make_unique<Firewall>(std::move(acl));
    }
    return make_builtin_nf(nf.name);
  };

  const std::size_t kFlows = 12;
  const auto frames = make_flow_frames(240, kFlows);

  ShardedDataplaneOptions opts;
  opts.shards = 3;
  std::vector<ServiceGraph> graphs;
  graphs.push_back(compile_chain({"monitor"}));
  graphs.push_back(compile_chain({"firewall"}));
  ShardedDataplane dp(std::move(graphs), drop_factory, opts);
  // Steer the even flows into the dropping graph.
  for (std::size_t f = 0; f < kFlows; f += 2) {
    dp.add_flow_rule(test_tuple(f), 1);
  }

  ShardedResult res = dp.run(frames);
  ASSERT_TRUE(res.status.is_ok());
  EXPECT_EQ(res.dropped, 120u);       // 240 frames, half on even flows
  EXPECT_EQ(res.outputs.size(), 120u);
  for (const auto& frame : res.outputs) {
    const auto tuple = parse_five_tuple({frame.data(), frame.size()});
    ASSERT_TRUE(tuple.has_value());
    EXPECT_EQ(tuple->src_port % 2, 1u) << "even flow escaped graph 1";
  }
  // Per-shard graph counters must account for every frame.
  u64 g0 = 0, g1 = 0;
  for (std::size_t s = 0; s < dp.shard_count(); ++s) {
    g0 += dp.shard_graph_count(s, 0);
    g1 += dp.shard_graph_count(s, 1);
  }
  EXPECT_EQ(g0, 120u);
  EXPECT_EQ(g1, 120u);
}

TEST(ShardedDataplane, MaskedRulesSteerModeInvariantlyThroughCache) {
  // Masked CT rules (the tuple-space path, not exact entries) steering
  // into a dropping graph: exactly the matching flows die and the
  // microflow cache must still absorb the steady state — the contract the
  // classifier rewrite has to preserve.
  const auto drop_factory =
      [](const StageNf& nf) -> std::unique_ptr<NetworkFunction> {
    if (nf.name == "firewall") {
      AclTable acl;
      acl.set_default_action(AclAction::kDrop);
      return std::make_unique<Firewall>(std::move(acl));
    }
    return make_builtin_nf(nf.name);
  };
  const std::size_t kFlows = 12;
  const auto frames = make_flow_frames(2'400, kFlows);

  ShardedDataplaneOptions opts;
  opts.shards = 2;
  std::vector<ServiceGraph> graphs;
  graphs.push_back(compile_chain({"monitor"}));
  graphs.push_back(compile_chain({"firewall"}));
  ShardedDataplane dp(std::move(graphs), drop_factory, opts);
  // Wide low-priority rule keeps the whole test subnet on graph 0; a
  // narrower higher-priority port rule overrides it into the dropping
  // graph — the verdict depends on priority order, not just matching.
  CtRule keep;
  keep.src_ip = 0x0A300000;
  keep.src_mask = 0xFFFF0000;
  keep.priority = 1;
  keep.graph = 0;
  CtRule drop;
  drop.match_dst_port = true;
  drop.dst_port = 444;
  drop.priority = 5;
  drop.graph = 1;
  dp.add_rules({keep, drop});

  ShardedResult res = dp.run(frames);
  EXPECT_TRUE(res.status.is_ok());
  const u64 hits = dp.microflow_hits();
  const u64 misses = dp.microflow_misses();
  EXPECT_EQ(hits + misses, frames.size());
  EXPECT_GE(static_cast<double>(hits) / static_cast<double>(hits + misses),
            0.9);
  const auto delivered = test_support::sorted_frames(res.outputs);
  // dst_port 444 hits flows with index % 3 == 1: 4 of 12 flows, uniformly
  // round-robined -> exactly a third of the frames die in graph 1.
  EXPECT_EQ(delivered.size(), 1'600u);
  for (const auto& frame : delivered) {
    const auto tuple = parse_five_tuple({frame.data(), frame.size()});
    ASSERT_TRUE(tuple.has_value());
    EXPECT_NE(tuple->dst_port, 444u) << "flow escaped the masked drop rule";
  }
}

TEST(ShardedDataplane, MicroflowCacheAbsorbsSteadyState) {
  const std::size_t kFlows = 32;
  const auto frames = make_flow_frames(3200, kFlows);

  ShardedDataplaneOptions opts;
  opts.shards = 2;
  ShardedDataplane dp({compile_chain({"monitor"})}, {}, opts);
  ShardedResult res = dp.run(frames);
  ASSERT_TRUE(res.status.is_ok());

  const u64 hits = dp.microflow_hits();
  const u64 misses = dp.microflow_misses();
  EXPECT_EQ(hits + misses, 3200u);
  // Every flow misses exactly once (capacity far above the flow count),
  // then hits for the rest of the run: >= 99% here, >= 90% demanded.
  EXPECT_EQ(misses, kFlows);
  EXPECT_GE(static_cast<double>(hits) / static_cast<double>(hits + misses),
            0.9);
}

TEST(ShardedDataplane, StreamingFeedMatchesBatchRun) {
  const auto frames = make_flow_frames(180, 9);

  LivePipeline batch(compile_chain({"monitor", "lb"}));
  LiveResult expected = batch.run(frames);

  LivePipeline streaming(compile_chain({"monitor", "lb"}));
  ASSERT_TRUE(streaming.start().is_ok());
  for (const auto& frame : frames) {
    streaming.feed({frame.data(), frame.size()});
  }
  LiveResult got = streaming.drain();
  ASSERT_TRUE(got.status.is_ok());

  EXPECT_EQ(got.dropped, expected.dropped);
  ASSERT_EQ(got.outputs.size(), expected.outputs.size());
  EXPECT_EQ(test_support::sorted_frames(got.outputs),
            test_support::sorted_frames(expected.outputs));
}

TEST(ShardedDataplane, PipelineRunsExactlyOnce) {
  LivePipeline pipe(compile_chain({"monitor"}));
  const auto frames = make_flow_frames(8, 2);
  const LiveResult first = pipe.run(frames);
  EXPECT_TRUE(first.status.is_ok());
  EXPECT_EQ(first.outputs.size(), 8u);

  // The old contract was a comment; now it is a Status.
  const LiveResult second = pipe.run(frames);
  EXPECT_FALSE(second.status.is_ok());
  EXPECT_NE(second.status.message().find("already started"),
            std::string::npos);
  EXPECT_TRUE(second.outputs.empty());

  EXPECT_FALSE(pipe.start().is_ok());
  EXPECT_FALSE(pipe.feed({frames[0].data(), frames[0].size()}));
  EXPECT_FALSE(pipe.drain().status.is_ok());
}

TEST(ShardedDataplane, DataplaneRunsExactlyOnce) {
  ShardedDataplaneOptions opts;
  opts.shards = 2;
  ShardedDataplane dp({compile_chain({"monitor"})}, {}, opts);
  const auto frames = make_flow_frames(8, 2);
  EXPECT_TRUE(dp.run(frames).status.is_ok());
  const ShardedResult again = dp.run(frames);
  EXPECT_FALSE(again.status.is_ok());
  EXPECT_TRUE(again.outputs.empty());
}

TEST(ShardedDataplane, DrainBeforeStartErrors) {
  ShardedDataplaneOptions opts;
  opts.shards = 1;
  ShardedDataplane dp({compile_chain({"monitor"})}, {}, opts);
  EXPECT_FALSE(dp.drain().status.is_ok());
}

TEST(ShardedDataplane, ReportsAffinityOutcome) {
  ShardedDataplaneOptions opts;
  opts.shards = 2;
  opts.pin_threads = true;
  ShardedDataplane dp({compile_chain({"monitor"})}, {}, opts);
  ShardedResult res = dp.run(make_flow_frames(32, 4));
  ASSERT_TRUE(res.status.is_ok());
  // Shard indices wrap modulo the online-CPU count, so pinning succeeds on
  // any Linux host (including single-core containers); elsewhere the no-op
  // fallback must report false rather than pretend.
  EXPECT_EQ(dp.affinity_applied(), cpu_affinity_supported());

  ShardedDataplaneOptions unpinned = opts;
  unpinned.pin_threads = false;
  ShardedDataplane dp2({compile_chain({"monitor"})}, {}, unpinned);
  ASSERT_TRUE(dp2.run(make_flow_frames(8, 2)).status.is_ok());
  EXPECT_FALSE(dp2.affinity_applied());
}

// --- the shard pool ------------------------------------------------------

void wait_until_done(ShardedDataplane& dp, u64 expected) {
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

// IDS ∥ Monitor ∥ LB: LB writes the IP header, so it runs on a header-only
// copy (the graph's version 2).
ServiceGraph header_copy_graph() {
  ServiceGraph g = compile_chain({"ids", "monitor", "lb"});
  EXPECT_EQ(g.segments().front().num_versions, 2u);
  EXPECT_FALSE(g.segments().front().version_needs_full_copy(2));
  return g;
}

TEST(ShardedDataplane, ShardPoolTelemetryCountsOnce) {
  // Three graphs' pipelines draw from one shard pool: its occupancy is one
  // pool_in_use series that reads that pool, and its free-list contention
  // counts once in the shard's scalability snapshot, not once more per
  // pipeline.
  const std::size_t kFlows = 12;
  ShardedDataplaneOptions opts;
  opts.shards = 1;
  // Two-slot magazines move a slot through the free list every other
  // packet, so the director's refills race the worker's flushes.
  opts.pipeline.magazine_size = 2;
  std::vector<ServiceGraph> graphs;
  for (const char* nf : {"monitor", "lb", "monitor"}) {
    graphs.push_back(compile_chain({nf}));
  }
  ShardedDataplane dp(std::move(graphs), {}, opts);
  for (std::size_t f = 0; f < kFlows; ++f) {
    dp.add_flow_rule(test_tuple(f), f % 3);
  }
  telemetry::MetricsRegistry registry;
  telemetry::HealthSampler sampler(registry);
  dp.register_health(sampler, nullptr);
  ASSERT_TRUE(dp.start().is_ok());

  // Feed until the free list has seen a lost CAS (bounded: a host with one
  // CPU may never show one).
  const auto frames = make_flow_frames(2'000, kFlows);
  const PacketPool& pool = dp.shard_pool(0);
  u64 fed = 0;
  for (int round = 0; round < 20; ++round) {
    for (const auto& frame : frames) dp.feed({frame.data(), frame.size()});
    fed += frames.size();
    if (pool.cas_retry_total() > 0) break;
  }
  wait_until_done(dp, fed);

  // Quiescent: the slots out of the free list are the ones the magazines
  // cache, at least the two each graph's pipeline keeps.
  sampler.sample_once();
  std::size_t series = 0;
  for (const auto& [key, gauge] : registry.gauges()) {
    if (key.name != "pool_in_use") continue;
    ++series;
    EXPECT_EQ(gauge.value.load(), static_cast<double>(pool.in_use()));
  }
  EXPECT_EQ(series, 1u);
  EXPECT_GT(pool.in_use(), 0u);
  EXPECT_EQ(dp.scalability_snapshot(0).pool_cas_retries,
            pool.cas_retry_total());

  const ShardedResult res = dp.drain();
  ASSERT_TRUE(res.status.is_ok());
  EXPECT_EQ(res.outputs.size(), fed);
}

TEST(ShardedDataplane, ShardPoolsGetEverySlotBackOnDrain) {
  // Whatever ends a frame — delivery through a header-only fanout copy and
  // merge, an NF verdict, a CT drop rule, a director tail drop — its slots
  // are back in the shard pool once drain() returns.
  const auto drop_factory =
      [](const StageNf& nf) -> std::unique_ptr<NetworkFunction> {
    if (nf.name == "firewall") {
      AclTable acl;
      acl.set_default_action(AclAction::kDrop);
      return std::make_unique<Firewall>(std::move(acl));
    }
    return make_builtin_nf(nf.name);
  };
  const std::size_t kFlows = 24;
  const auto frames = make_flow_frames(8'000, kFlows);
  ShardedDataplaneOptions opts;
  opts.shards = 2;
  opts.ingest_ring_depth = 4;  // tiny RX ring: the director tail-drops
  opts.drop_on_ingest_backpressure = true;
  std::vector<ServiceGraph> graphs;
  graphs.push_back(header_copy_graph());
  graphs.push_back(compile_chain({"firewall"}));
  ShardedDataplane dp(std::move(graphs), drop_factory, opts);
  for (std::size_t f = 0; f < kFlows; f += 3) {
    dp.add_flow_rule(test_tuple(f), 1);
    dp.add_flow_rule(test_tuple(f + 1), LiveClassificationTable::kDropGraph);
  }

  const ShardedResult res = dp.run(frames);
  ASSERT_TRUE(res.status.is_ok());
  EXPECT_GT(res.outputs.size(), 0u);
  EXPECT_EQ(res.outputs.size() + res.dropped, frames.size());
  std::array<u64, telemetry::kDropReasonCount> reasons{};
  for (std::size_t s = 0; s < dp.shard_count(); ++s) {
    const telemetry::ShardFlowSnapshot snap = dp.flow_snapshot(s);
    for (std::size_t r = 0; r < reasons.size(); ++r) {
      reasons[r] += snap.drops[r];
    }
  }
  const auto count = [&](telemetry::DropReason r) {
    return reasons[static_cast<std::size_t>(r)];
  };
  EXPECT_GT(count(telemetry::DropReason::kNfVerdict), 0u);
  EXPECT_GT(count(telemetry::DropReason::kClassifierMiss), 0u);
  EXPECT_GT(count(telemetry::DropReason::kRingFull) +
                count(telemetry::DropReason::kPoolExhausted),
            0u);
  for (std::size_t s = 0; s < dp.shard_count(); ++s) {
    EXPECT_EQ(dp.shard_pool(s).in_use(), 0u) << "shard " << s;
    EXPECT_EQ(dp.shard_pool(s).refcnt_underflow_total(), 0u);
  }
}

TEST(ShardedDataplane, DestroyedWithoutDrainIsClean) {
  // Torn down mid-run: frames still on the rings and in the pipelines,
  // slots cached in every magazine. Each magazine hands its slots back to
  // a shard pool that must still be alive (ASan checks the order).
  const auto frames = make_flow_frames(2'000, 16);
  ShardedDataplaneOptions opts;
  opts.shards = 2;
  auto dp = std::make_unique<ShardedDataplane>(
      std::vector<ServiceGraph>{header_copy_graph()},
      ShardedDataplane::NfFactory{}, opts);
  ASSERT_TRUE(dp->start().is_ok());
  for (const auto& frame : frames) dp->feed({frame.data(), frame.size()});
  dp.reset();
}

TEST(ShardedDataplane, SmallestPoolRunsLossless) {
  // The smallest shard pool the constructor allows still runs lossless in
  // blocking mode. Between waves the worker sits idle on whatever its
  // magazines cached; the director must still find a slot, and a fanout
  // copy must never find the pool dry.
  const std::size_t kWaves = 4;
  const auto frames = make_flow_frames(1'000, 16);
  ShardedDataplaneOptions opts;
  opts.shards = 2;
  opts.ingest_pool_size = 1;
  opts.ingest_ring_depth = 4;
  ShardedDataplane dp({header_copy_graph()}, {}, opts);
  ASSERT_TRUE(dp.start().is_ok());
  for (std::size_t w = 1; w <= kWaves; ++w) {
    for (const auto& frame : frames) {
      EXPECT_TRUE(dp.feed({frame.data(), frame.size()}));
    }
    wait_until_done(dp, w * frames.size());
  }
  const ShardedResult res = dp.drain();
  ASSERT_TRUE(res.status.is_ok());
  EXPECT_EQ(res.outputs.size(), kWaves * frames.size());
  EXPECT_EQ(res.dropped, 0u);
  for (std::size_t s = 0; s < dp.shard_count(); ++s) {
    EXPECT_EQ(dp.shard_pool(s).in_use(), 0u) << "shard " << s;
  }
}

TEST(ShardedDataplane, ShaperRefillsFromLiveArrivalTimes) {
  // The shard worker stamps each frame's arrival (inject_time), which a
  // shaper's token bucket refills from: without it every frame after each
  // shard's first 64 KB would read as out of profile. 4,096 64-B frames
  // (256 KB) are far below the default 1.25 GB/s, so a marking shaper
  // marks nothing and a policing one delivers every frame.
  const auto frames = make_flow_frames(4'096, 64, 64);
  for (const bool policing : {false, true}) {
    SCOPED_TRACE(policing ? "policing" : "marking");
    std::vector<const TrafficShaper*> shapers;
    const auto factory =
        [&](const StageNf&) -> std::unique_ptr<NetworkFunction> {
      auto shaper = std::make_unique<TrafficShaper>(1'250'000'000,
                                                    64 * 1024, policing);
      shapers.push_back(shaper.get());
      return shaper;
    };
    ShardedDataplaneOptions opts;
    opts.shards = 2;
    ShardedDataplane dp({compile_chain({"shaper"})}, factory, opts);
    const ShardedResult res = dp.run(frames);
    ASSERT_TRUE(res.status.is_ok());
    EXPECT_EQ(res.outputs.size(), frames.size());
    EXPECT_EQ(res.dropped, 0u);
    ASSERT_EQ(shapers.size(), dp.shard_count());
    u64 out_of_profile = 0;
    for (const TrafficShaper* shaper : shapers) {
      out_of_profile += shaper->out_of_profile();
    }
    EXPECT_EQ(out_of_profile, 0u);
  }
}

// A frame longer than Packet::kMaxDataLen would overrun its slot. Valid
// frames with one 4,000-B frame in the middle: the oversize frame is
// refused (feed() returns false) as exactly one malformed drop, and every
// valid frame still comes out byte for byte (monitors rewrite nothing).
std::vector<std::vector<u8>> frames_with_one_oversize(std::size_t* index) {
  auto frames = make_flow_frames(200, 8);
  *index = frames.size() / 2;
  std::vector<u8> oversize = frames[*index];
  oversize.resize(4'000, 0xAB);
  frames.insert(frames.begin() + static_cast<std::ptrdiff_t>(*index),
                std::move(oversize));
  return frames;
}

template <typename Plane>
void expect_oversize_refused(Plane& plane,
                             const std::vector<std::vector<u8>>& frames,
                             std::size_t oversize) {
  ASSERT_TRUE(plane.start().is_ok());
  for (std::size_t i = 0; i < frames.size(); ++i) {
    EXPECT_EQ(plane.feed({frames[i].data(), frames[i].size()}),
              i != oversize)
        << "frame " << i;
  }
}

std::vector<std::vector<u8>> valid_frames(
    std::vector<std::vector<u8>> frames, std::size_t oversize) {
  frames.erase(frames.begin() + static_cast<std::ptrdiff_t>(oversize));
  std::sort(frames.begin(), frames.end());
  return frames;
}

TEST(ShardedDataplane, RefusesOversizeFrameAsMalformedDrop) {
  std::size_t oversize = 0;
  const auto frames = frames_with_one_oversize(&oversize);
  ShardedDataplaneOptions opts;
  opts.shards = 2;
  ShardedDataplane dp(
      {ServiceGraph::sequential("mon", {"monitor", "monitor"})}, {}, opts);
  expect_oversize_refused(dp, frames, oversize);
  u64 malformed = 0;
  for (std::size_t s = 0; s < dp.shard_count(); ++s) {
    malformed += dp.flow_snapshot(s).drops[static_cast<std::size_t>(
        telemetry::DropReason::kMalformed)];
  }
  const ShardedResult res = dp.drain();
  ASSERT_TRUE(res.status.is_ok());
  EXPECT_EQ(malformed, 1u);
  EXPECT_EQ(res.dropped, 1u);
  EXPECT_EQ(test_support::sorted_frames(res.outputs),
            valid_frames(frames, oversize));
}

TEST(LivePipeline, RefusesOversizeFrameAsMalformedDrop) {
  std::size_t oversize = 0;
  const auto frames = frames_with_one_oversize(&oversize);
  LivePipeline pipe(
      ServiceGraph::sequential("mon", {"monitor", "monitor"}));
  expect_oversize_refused(pipe, frames, oversize);
  const LiveResult res = pipe.drain();
  ASSERT_TRUE(res.status.is_ok());
  EXPECT_EQ(pipe.dropped_by(telemetry::DropReason::kMalformed), 1u);
  EXPECT_EQ(res.dropped, 1u);
  EXPECT_EQ(test_support::sorted_frames(res.outputs),
            valid_frames(frames, oversize));
}

}  // namespace
}  // namespace nfp
