// Tests for the observatory's latency view: HDR bucket geometry and the bounded
// quantile error vs. exact sorted samples (uniform/zipf/bimodal inputs),
// cross-shard merge associativity, concurrent record/scrape (the TSan
// workload), the live sharded-dataplane stage decomposition — per-stage
// sums telescoping to the end-to-end total — and the /latency.json
// loopback endpoint plus timeseries probes.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hpp"
#include "dataplane/sharded_dataplane.hpp"
#include "graph/service_graph.hpp"
#include "packet/builder.hpp"
#include "telemetry/observatory.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/stats_server.hpp"
#include "telemetry/timeseries.hpp"

namespace nfp {
namespace {

using telemetry::HdrSnapshot;
using telemetry::kLatBuckets;
using telemetry::kLatencyStageCount;
using telemetry::kLatSubBuckets;
using telemetry::LatencyReport;
using telemetry::Observatory;
using telemetry::LatencyStage;
using telemetry::StageLatencyBlock;

u64 xorshift(u64* s) {
  *s ^= *s << 13;
  *s ^= *s >> 7;
  *s ^= *s << 17;
  return *s;
}

// Exact quantile with the same rank convention as HdrSnapshot::quantile:
// the ceil(q * (n-1) + 1)-th smallest value -> index floor(q * (n-1)).
u64 exact_quantile(std::vector<u64> sorted, double q) {
  std::sort(sorted.begin(), sorted.end());
  const auto idx = static_cast<std::size_t>(
      q * static_cast<double>(sorted.size() - 1));
  return sorted[idx];
}

// Asserts the HDR quantile is the bucket lower bound of a value close to
// the exact one: hdr <= exact (lower bounds never overshoot) and
// hdr >= exact - exact/kLatSubBuckets - 1 (bounded relative error).
void check_quantile_error(const HdrSnapshot& snap,
                          const std::vector<u64>& values, double q,
                          const char* label) {
  const u64 exact = exact_quantile(values, q);
  const u64 hdr = snap.quantile(q);
  EXPECT_LE(hdr, exact) << label << " q=" << q;
  EXPECT_GE(hdr + exact / kLatSubBuckets + 1, exact) << label << " q=" << q;
}

void check_distribution(const std::vector<u64>& values, const char* label) {
  StageLatencyBlock block;
  for (const u64 v : values) block.record(LatencyStage::kTotal, v);
  const HdrSnapshot snap = block.snapshot(LatencyStage::kTotal);
  ASSERT_EQ(snap.count(), values.size()) << label;
  u64 sum = 0;
  for (const u64 v : values) sum += v;
  EXPECT_EQ(snap.sum, sum) << label;
  for (const double q : {0.0, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    check_quantile_error(snap, values, q, label);
  }
}

// --- HDR geometry and quantile error bound ------------------------------

TEST(LatencyObservatoryTest, BucketGeometryRoundTrips) {
  // Values 0..15 are exact; above that the bucket lower bound is within
  // 1/kLatSubBuckets of the value, and bucket_value(bucket_index(v)) <= v.
  for (u64 v = 0; v < 16; ++v) {
    EXPECT_EQ(telemetry::latency_bucket_value(
                  telemetry::latency_bucket_index(v)),
              v);
  }
  u64 seed = 99;
  for (int i = 0; i < 10'000; ++i) {
    const u64 v = xorshift(&seed) >> (i % 40);
    const std::size_t idx = telemetry::latency_bucket_index(v);
    ASSERT_LT(idx, kLatBuckets);
    const u64 lo = telemetry::latency_bucket_value(idx);
    if (idx + 1 < kLatBuckets &&
        telemetry::latency_bucket_value(idx + 1) > lo) {
      EXPECT_LE(lo, v);
      EXPECT_GT(telemetry::latency_bucket_value(idx + 1), v);
      EXPECT_LE(telemetry::latency_bucket_value(idx + 1) - lo,
                lo / kLatSubBuckets + 1);
    }
  }
}

TEST(LatencyObservatoryTest, QuantileErrorBoundUniform) {
  std::vector<u64> values;
  u64 seed = 1;
  for (int i = 0; i < 20'000; ++i) {
    values.push_back(xorshift(&seed) % 1'000'000);
  }
  check_distribution(values, "uniform");
}

TEST(LatencyObservatoryTest, QuantileErrorBoundZipf) {
  // Heavy-tailed: value ~ 1/rank over 1000 ranks, scaled to microseconds.
  std::vector<u64> values;
  u64 seed = 2;
  for (int i = 0; i < 20'000; ++i) {
    const u64 r = 1 + xorshift(&seed) % 1'000;
    values.push_back(50'000'000 / r);
  }
  check_distribution(values, "zipf");
}

TEST(LatencyObservatoryTest, QuantileErrorBoundBimodal) {
  // 95% fast path around 8us, 5% slow outliers around 2ms — the shape
  // whose p99/p999 split the observatory exists to expose.
  std::vector<u64> values;
  u64 seed = 3;
  for (int i = 0; i < 20'000; ++i) {
    if (xorshift(&seed) % 100 < 95) {
      values.push_back(7'000 + xorshift(&seed) % 2'000);
    } else {
      values.push_back(1'900'000 + xorshift(&seed) % 200'000);
    }
  }
  check_distribution(values, "bimodal");
}

// --- merge semantics ----------------------------------------------------

HdrSnapshot snapshot_of(const std::vector<u64>& values) {
  StageLatencyBlock block;
  for (const u64 v : values) block.record(LatencyStage::kTotal, v);
  return block.snapshot(LatencyStage::kTotal);
}

TEST(LatencyObservatoryTest, MergeIsAssociativeAndLossless) {
  u64 seed = 7;
  std::vector<u64> va;
  std::vector<u64> vb;
  std::vector<u64> vc;
  std::vector<u64> all;
  for (int i = 0; i < 5'000; ++i) {
    va.push_back(xorshift(&seed) % 100'000);
    vb.push_back(xorshift(&seed) % 10'000'000);
    vc.push_back(xorshift(&seed) % 1'000);
  }
  all.insert(all.end(), va.begin(), va.end());
  all.insert(all.end(), vb.begin(), vb.end());
  all.insert(all.end(), vc.begin(), vc.end());

  const HdrSnapshot a = snapshot_of(va);
  const HdrSnapshot b = snapshot_of(vb);
  const HdrSnapshot c = snapshot_of(vc);

  HdrSnapshot left = a;
  left += b;
  left += c;  // (a + b) + c
  HdrSnapshot bc = b;
  bc += c;
  HdrSnapshot right = a;
  right += bc;  // a + (b + c)

  EXPECT_EQ(left.total, right.total);
  EXPECT_EQ(left.sum, right.sum);
  for (std::size_t i = 0; i < kLatBuckets; ++i) {
    ASSERT_EQ(left.counts[i], right.counts[i]) << "bucket " << i;
  }
  // The merged snapshot answers quantiles as if all samples were recorded
  // into one histogram — same bounded error vs. the pooled exact values.
  ASSERT_EQ(left.count(), all.size());
  for (const double q : {0.5, 0.99, 0.999}) {
    check_quantile_error(left, all, q, "merged");
  }
}

TEST(LatencyObservatoryTest, DeltaSubtractsBaseline) {
  StageLatencyBlock block;
  block.record(LatencyStage::kTotal, 100);
  block.record(LatencyStage::kTotal, 200);
  const HdrSnapshot baseline = block.snapshot(LatencyStage::kTotal);
  block.record(LatencyStage::kTotal, 300'000);
  const HdrSnapshot now = block.snapshot(LatencyStage::kTotal);
  const HdrSnapshot d = telemetry::hdr_delta(now, baseline);
  EXPECT_EQ(d.count(), 1u);
  EXPECT_EQ(d.sum, 300'000u);
  EXPECT_LE(d.quantile(0.5), 300'000u);
  EXPECT_GE(d.quantile(0.5), 300'000u - 300'000u / kLatSubBuckets - 1);
}

// --- concurrent record/scrape (TSan workload) ---------------------------

TEST(LatencyObservatoryTest, ConcurrentRecordAndScrape) {
  auto block = std::make_shared<StageLatencyBlock>();
  Observatory obs;
  obs.add_shard("shard0", [block] {
    telemetry::ShardSnapshot snap;
    for (std::size_t i = 0; i < kLatencyStageCount; ++i) {
      snap.latency.stages[i] += block->snapshot(static_cast<LatencyStage>(i));
    }
    snap.sample_every = 1;
    return snap;
  });
  obs.reset_baseline();

  constexpr int kWrites = 200'000;
  std::atomic<bool> done{false};
  std::thread writer([&] {
    u64 seed = 11;
    for (int i = 0; i < kWrites; ++i) {
      block->record(LatencyStage::kTotal, xorshift(&seed) % 1'000'000);
      block->record(LatencyStage::kService, xorshift(&seed) % 100'000);
    }
    done.store(true, std::memory_order_release);
  });
  u64 scrapes = 0;
  u64 last_count = 0;
  while (!done.load(std::memory_order_acquire)) {
    const LatencyReport rep = obs.report().latency;
    const u64 count = rep.sampled();
    EXPECT_GE(count, last_count) << "scrape went backwards";
    last_count = count;
    ++scrapes;
  }
  writer.join();
  EXPECT_GT(scrapes, 0u);
  const LatencyReport rep = obs.report().latency;
  EXPECT_EQ(rep.sampled(), static_cast<u64>(kWrites));
  EXPECT_EQ(rep.stage(LatencyStage::kService).count(),
            static_cast<u64>(kWrites));
}

// --- live sharded dataplane ---------------------------------------------

std::vector<std::vector<u8>> make_flow_frames(std::size_t count,
                                              std::size_t flows) {
  PacketPool pool(4);
  std::vector<std::vector<u8>> frames;
  for (std::size_t i = 0; i < count; ++i) {
    PacketSpec spec;
    spec.tuple = FiveTuple{0x0A700000 + static_cast<u32>(i % flows),
                           0x0A800001, static_cast<u16>(20'000 + i % flows),
                           443, kProtoTcp};
    spec.frame_size = 64 + (i % 4) * 64;
    Packet* p = build_packet(pool, spec);
    frames.emplace_back(p->data(), p->data() + p->length());
    pool.release(p);
  }
  return frames;
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

// Runs `graph` on a 2-shard live dataplane with every flow sampled and
// returns the observatory report for the run.
LatencyReport run_live(const ServiceGraph& graph, std::size_t packets) {
  const auto frames = make_flow_frames(packets, 32);
  ShardedDataplaneOptions opts;
  opts.shards = 2;
  opts.pipeline.latency_sample_every = 1;
  ShardedDataplane dp({graph}, {}, opts);

  Observatory obs;
  dp.register_observatory(obs);
  EXPECT_EQ(obs.shard_count(), 2u);

  EXPECT_TRUE(dp.start().is_ok());
  obs.reset_baseline();
  for (const auto& frame : frames) {
    dp.feed({frame.data(), frame.size()});
  }
  wait_until_done(dp, frames.size());
  const LatencyReport rep = obs.report().latency;
  const ShardedResult res = dp.drain();
  EXPECT_TRUE(res.status.is_ok());
  return rep;
}

void check_stage_sums_telescope(const LatencyReport& rep,
                                std::size_t packets) {
  // Every delivered packet was sampled (sample_every=1, pass-all NFs).
  const HdrSnapshot& total = rep.stage(LatencyStage::kTotal);
  ASSERT_EQ(total.count(), packets);
  // The acceptance invariant: stage spans telescope, so the per-stage
  // sums add up to the end-to-end sum. The decomposition is exact by
  // construction; the tolerance only covers clock quirks under load.
  u64 stage_sum = 0;
  for (const LatencyStage s :
       {LatencyStage::kIngest, LatencyStage::kQueue, LatencyStage::kService}) {
    EXPECT_EQ(rep.stage(s).count(), packets)
        << telemetry::latency_stage_name(s);
    stage_sum += rep.stage(s).sum;
  }
  EXPECT_NEAR(static_cast<double>(stage_sum),
              static_cast<double>(total.sum),
              0.01 * static_cast<double>(total.sum) + 1.0);
}

TEST(LatencyObservatoryTest, LiveSequentialStagesSumToTotal) {
  const std::size_t kPackets = 3'000;
  const LatencyReport rep = run_live(
      ServiceGraph::sequential("chain", {"monitor", "lb", "monitor"}),
      kPackets);
  check_stage_sums_telescope(rep, kPackets);
  ASSERT_EQ(rep.shards.size(), 2u);
  // RSS spread 32 flows across 2 shards; both saw sampled traffic.
  for (const LatencyReport::Shard& sh : rep.shards) {
    EXPECT_GT(sh.d.stage(LatencyStage::kTotal).count(), 0u) << sh.name;
  }
}

TEST(LatencyObservatoryTest, LiveParallelStagesSumToTotal) {
  const std::size_t kPackets = 3'000;
  const LatencyReport rep = run_live(
      ServiceGraph::parallel("par", {"monitor", "monitor", "monitor"}),
      kPackets);
  // The 3-arrival merge is fused, so its copies and merge land in queue
  // and its branches in one service span: the stages still telescope.
  check_stage_sums_telescope(rep, kPackets);
}

// --- report surfaces ----------------------------------------------------

TEST(LatencyObservatoryTest, ReportJsonAndPrometheusShapes) {
  const LatencyReport rep = run_live(
      ServiceGraph::sequential("chain", {"monitor"}), 500);

  const auto doc = json::Value::parse(rep.to_json());
  ASSERT_TRUE(doc.is_ok()) << doc.error();
  const json::Value& root = doc.value();
  EXPECT_EQ(root.number_or("sample_every", -1), 1.0);
  EXPECT_EQ(root.number_or("sampled", -1), 500.0);
  const json::Value* shards = root.find("shards");
  ASSERT_NE(shards, nullptr);
  ASSERT_TRUE(shards->is_array());
  ASSERT_EQ(shards->items().size(), 2u);
  const json::Value* total = root.find("total");
  ASSERT_NE(total, nullptr);
  EXPECT_GE(total->number_or("ingest_queue_depth", -1), 0.0);
  const json::Value* stages = total->find("stages");
  ASSERT_NE(stages, nullptr);
  EXPECT_EQ(stages->size(), kLatencyStageCount);
  for (const char* stage : {"ingest", "queue", "service", "total"}) {
    const json::Value* s = stages->find(stage);
    ASSERT_NE(s, nullptr) << stage;
    EXPECT_GE(s->number_or("p99_us", -1), 0.0) << stage;
  }

  const std::string text = rep.to_text();
  EXPECT_NE(text.find("stage"), std::string::npos);
  EXPECT_NE(text.find("total"), std::string::npos);
  EXPECT_NE(text.find("p99.9us"), std::string::npos);
}

TEST(LatencyObservatoryTest, ServesLatencyJsonOverLoopback) {
  const auto frames = make_flow_frames(500, 8);
  ShardedDataplaneOptions opts;
  opts.shards = 1;
  opts.pipeline.latency_sample_every = 1;
  ShardedDataplane dp(
      {ServiceGraph::sequential("chain", {"monitor"})}, {}, opts);

  Observatory obs;
  dp.register_observatory(obs);
  ASSERT_TRUE(dp.start().is_ok());
  obs.reset_baseline();

  telemetry::StatsServer server;
  telemetry::EndpointSources sources;
  sources.observatory = &obs;
  telemetry::register_standard_endpoints(server, sources);
  ASSERT_TRUE(server.start({}).is_ok());

  for (const auto& frame : frames) {
    dp.feed({frame.data(), frame.size()});
  }
  wait_until_done(dp, frames.size());

  const auto res = telemetry::http_get(server.port(), "/latency.json");
  ASSERT_TRUE(res.is_ok()) << res.error();
  EXPECT_EQ(res.value().status, 200);
  EXPECT_EQ(res.value().content_type, "application/json");
  const auto doc = json::Value::parse(res.value().body);
  ASSERT_TRUE(doc.is_ok()) << doc.error();
  EXPECT_EQ(doc.value().number_or("sampled", -1), 500.0);

  server.stop();
  const ShardedResult drained = dp.drain();
  EXPECT_TRUE(drained.status.is_ok());
}

TEST(LatencyObservatoryTest, RegistersTimeseriesProbes) {
  auto block = std::make_shared<StageLatencyBlock>();
  block->record(LatencyStage::kTotal, 64'000);
  block->record(LatencyStage::kQueue, 8'000);
  Observatory obs;
  obs.add_shard("shard0", [block] {
    telemetry::ShardSnapshot snap;
    for (std::size_t i = 0; i < kLatencyStageCount; ++i) {
      snap.latency.stages[i] += block->snapshot(static_cast<LatencyStage>(i));
    }
    snap.latency.ingest_queue_depth = 5;
    return snap;
  });
  // add_shard captured the two records above as the baseline; record the
  // deltas the probes should see.
  block->record(LatencyStage::kTotal, 128'000);
  block->record(LatencyStage::kQueue, 16'000);

  telemetry::MetricsRegistry reg;
  u64 now = 1'000'000'000;
  telemetry::TimeseriesCollector::Options copts;
  copts.clock = [&now] { return now; };
  telemetry::TimeseriesCollector collector(reg, copts);
  obs.register_probes(collector);
  collector.sample_once();

  const auto total_p99 =
      collector.history("latency_total_p99", {{"shard", "shard0"}});
  ASSERT_EQ(total_p99.size(), 1u);
  EXPECT_GT(total_p99[0].value, 0.0);
  const auto queue_p99 =
      collector.history("latency_queue_p99", {{"shard", "shard0"}});
  ASSERT_EQ(queue_p99.size(), 1u);
  EXPECT_GT(queue_p99[0].value, 0.0);
  const auto depth =
      collector.history("latency_ingest_queue_depth", {{"shard", "shard0"}});
  ASSERT_EQ(depth.size(), 1u);
  EXPECT_DOUBLE_EQ(depth[0].value, 5.0);
}

}  // namespace
}  // namespace nfp
