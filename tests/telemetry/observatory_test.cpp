// Tests for the observatory as a whole: one scrape reads every shard once,
// so its three views describe the same instant (the concurrent-scrape
// test, also a TSan workload); /observatory.json serves all three views
// of one report; the timeseries probes keep their names and labels; and
// the perfbench-only ScalabilityProfiler adapter reports exactly the
// scalability view.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
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
using telemetry::LatencyStage;
using telemetry::Observatory;
using telemetry::ObservatoryOptions;
using telemetry::ObservatoryReport;

FiveTuple test_tuple(std::size_t flow) {
  return FiveTuple{0x0A900000 + static_cast<u32>(flow), 0x0AA00001,
                   static_cast<u16>(40'000 + flow), 443, kProtoTcp};
}

std::vector<std::vector<u8>> make_flow_frames(std::size_t count,
                                              std::size_t flows) {
  PacketPool pool(4);
  std::vector<std::vector<u8>> frames;
  for (std::size_t i = 0; i < count; ++i) {
    PacketSpec spec;
    spec.tuple = test_tuple(i % flows);
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

// Two graphs, even flows steered to the second: per-graph accounting has
// two tenants to split, and every packet is latency-sampled.
std::unique_ptr<ShardedDataplane> make_two_graph_plane() {
  ShardedDataplaneOptions opts;
  opts.shards = 2;
  opts.pipeline.latency_sample_every = 1;
  std::vector<ServiceGraph> graphs;
  graphs.push_back(ServiceGraph::sequential("chain", {"monitor", "lb"}));
  graphs.push_back(ServiceGraph::parallel("par", {"monitor", "monitor"}));
  auto dp = std::make_unique<ShardedDataplane>(std::move(graphs),
                                               ShardedDataplane::NfFactory{},
                                               opts);
  for (std::size_t f = 0; f < 64; f += 2) dp->add_flow_rule(test_tuple(f), 1);
  return dp;
}

std::vector<std::string> shard_names(const ObservatoryReport& rep) {
  std::vector<std::string> names;
  for (const auto& sh : rep.scalability.shards) names.push_back(sh.name);
  return names;
}

// The flow view's per-graph latency, summed over shards and graphs,
// against the latency view's total stage: equal bucket for bucket when
// both came from the same read.
void expect_one_instant(const ObservatoryReport& rep) {
  HdrSnapshot per_graph;
  for (const auto& sh : rep.flows.shards) {
    for (const auto& graph : sh.d.graphs) per_graph += graph.latency;
  }
  const HdrSnapshot& total = rep.latency.stage(LatencyStage::kTotal);
  ASSERT_EQ(per_graph.total, total.total);
  ASSERT_EQ(per_graph.sum, total.sum);
  ASSERT_EQ(per_graph.counts, total.counts);
  std::vector<std::string> latency_names;
  std::vector<std::string> flow_names;
  for (const auto& sh : rep.latency.shards) latency_names.push_back(sh.name);
  for (const auto& sh : rep.flows.shards) flow_names.push_back(sh.name);
  ASSERT_EQ(latency_names, shard_names(rep));
  ASSERT_EQ(flow_names, shard_names(rep));
}

TEST(ObservatoryTest, ConcurrentScrapesSeeOneInstant) {
  const std::size_t kPackets = 20'000;
  const auto frames = make_flow_frames(kPackets, 64);
  auto dp = make_two_graph_plane();
  ObservatoryOptions options;
  options.enable_hw = false;
  Observatory obs(options);
  dp->register_observatory(obs);
  ASSERT_TRUE(dp->start().is_ok());
  obs.reset_baseline();

  std::atomic<bool> fed{false};
  std::atomic<u64> scrapes{0};
  std::atomic<u64> with_traffic{0};
  std::thread scraper([&] {
    while (scrapes.load() < 200 || !fed.load(std::memory_order_acquire)) {
      const ObservatoryReport rep = obs.report();
      expect_one_instant(rep);
      if (::testing::Test::HasFatalFailure()) return;
      if (rep.latency.sampled() > 0) with_traffic.fetch_add(1);
      scrapes.fetch_add(1);
    }
  });
  for (const auto& frame : frames) dp->feed({frame.data(), frame.size()});
  wait_until_done(*dp, kPackets);
  fed.store(true, std::memory_order_release);
  scraper.join();

  EXPECT_GE(scrapes.load(), 200u);
  EXPECT_GT(with_traffic.load(), 0u);
  const ObservatoryReport rep = obs.report();
  expect_one_instant(rep);
  EXPECT_EQ(rep.latency.sampled(), kPackets);
  ASSERT_EQ(rep.flows.total.graphs.size(), 2u);
  EXPECT_GT(rep.flows.total.graphs[0].latency.count(), 0u);
  EXPECT_GT(rep.flows.total.graphs[1].latency.count(), 0u);
  EXPECT_EQ(rep.latency.sample_every, 1u);
  const ShardedResult res = dp->drain();
  ASSERT_TRUE(res.status.is_ok());
  EXPECT_EQ(res.outputs.size(), kPackets);
}

TEST(ObservatoryTest, ServesAllThreeViewsFromOneReport) {
  const auto frames = make_flow_frames(1'000, 16);
  auto dp = make_two_graph_plane();
  Observatory obs;
  dp->register_observatory(obs);
  ASSERT_TRUE(dp->start().is_ok());
  obs.reset_baseline();

  telemetry::StatsServer server;
  telemetry::EndpointSources sources;
  sources.observatory = &obs;
  telemetry::register_standard_endpoints(server, sources);
  ASSERT_TRUE(server.start({}).is_ok());
  for (const auto& frame : frames) dp->feed({frame.data(), frame.size()});
  wait_until_done(*dp, frames.size());

  const auto res = telemetry::http_get(server.port(), "/observatory.json");
  ASSERT_TRUE(res.is_ok()) << res.error();
  EXPECT_EQ(res.value().status, 200);
  EXPECT_EQ(res.value().content_type, "application/json");
  const auto doc = json::Value::parse(res.value().body);
  ASSERT_TRUE(doc.is_ok()) << doc.error();
  std::vector<std::vector<std::string>> names;
  for (const char* view : {"scalability", "latency", "flows"}) {
    const json::Value* section = doc.value().find(view);
    ASSERT_NE(section, nullptr) << view;
    const json::Value* shards = section->find("shards");
    ASSERT_NE(shards, nullptr) << view;
    std::vector<std::string>& view_names = names.emplace_back();
    for (const json::Value& sh : shards->items()) {
      view_names.emplace_back(sh.string_or("name", ""));
    }
  }
  EXPECT_EQ(names[0], (std::vector<std::string>{"shard0", "shard1"}));
  EXPECT_EQ(names[1], names[0]);
  EXPECT_EQ(names[2], names[0]);
  const json::Value& root = doc.value();
  EXPECT_EQ(root.find("latency")->number_or("sampled", -1),
            static_cast<double>(frames.size()));
  EXPECT_EQ(root.find("flows")->number_or("packets", -1),
            static_cast<double>(frames.size()));
  // Each single-view endpoint still serves its own report.
  for (const char* path : {"/scalability.json", "/latency.json",
                           "/flows.json"}) {
    const auto one = telemetry::http_get(server.port(), path);
    ASSERT_TRUE(one.is_ok()) << path;
    EXPECT_EQ(one.value().status, 200) << path;
    EXPECT_TRUE(json::Value::parse(one.value().body).is_ok()) << path;
  }

  server.stop();
  EXPECT_TRUE(dp->drain().status.is_ok());
}

TEST(ObservatoryTest, ProbesKeepTheirNamesAndLabels) {
  Observatory obs;
  for (const char* name : {"shard0", "shard1"}) {
    obs.add_shard(name, [] { return telemetry::ShardSnapshot{}; });
  }
  telemetry::MetricsRegistry reg;
  telemetry::TimeseriesCollector collector(reg);
  obs.register_probes(collector);
  collector.sample_once();

  std::vector<std::string> per_shard = {"scalability_projected_pps",
                                        "latency_total_p50",
                                        "latency_total_p999",
                                        "latency_queue_depth",
                                        "latency_ingest_queue_depth"};
  for (std::size_t b = 0; b < telemetry::kCycleBucketCount; ++b) {
    per_shard.push_back(std::string("scalability_") +
                        telemetry::cycle_bucket_name(
                            static_cast<telemetry::CycleBucket>(b)) +
                        "_share");
  }
  for (std::size_t i = 0; i < telemetry::kLatencyStageCount; ++i) {
    per_shard.push_back(
        std::string("latency_") +
        telemetry::latency_stage_name(static_cast<LatencyStage>(i)) + "_p99");
  }
  std::vector<std::string> plane_wide = {"flows_active", "flow_new_rate",
                                         "hh_top1_share"};
  for (std::size_t r = 0; r < telemetry::kDropReasonCount; ++r) {
    plane_wide.push_back(
        std::string("drops_") +
        telemetry::drop_reason_name(static_cast<telemetry::DropReason>(r)) +
        "_total");
  }
  for (const std::string& name : per_shard) {
    for (const char* shard : {"shard0", "shard1"}) {
      EXPECT_EQ(collector.history(name, {{"shard", shard}}).size(), 1u)
          << name << "{shard=" << shard << "}";
    }
  }
  for (const std::string& name : plane_wide) {
    EXPECT_EQ(collector.history(name, {}).size(), 1u) << name;
  }
  const auto doc = json::Value::parse(collector.to_json());
  ASSERT_TRUE(doc.is_ok()) << doc.error();
  EXPECT_EQ(doc.value().find("series")->items().size(),
            2 * per_shard.size() + plane_wide.size());
}

TEST(ObservatoryTest, PerfbenchAdapterReportsTheScalabilityView) {
  u64 clock = 0;
  // The construction perfbench uses.
  telemetry::ScalabilityProfiler prof(telemetry::ScalabilityProfilerOptions{
      false, [&clock] { return clock; }});
  telemetry::ShardSnapshot snap;
  prof.add_shard("s0", [&snap] { return snap; });
  snap.cycles.ns = {600, 200, 100, 50, 25, 25};
  snap.cycles.delivered = 1'000;
  snap.cycles.ring_full_events = 9;
  clock = 2'000'000'000;

  const Observatory& observatory = prof;
  EXPECT_EQ(prof.report().to_json(),
            observatory.report().scalability.to_json());
  EXPECT_EQ(prof.report().total_share,
            observatory.report().scalability.total_share);
  EXPECT_EQ(prof.report().total.ring_full_events, 9u);

  ShardedDataplaneOptions opts;
  opts.shards = 2;
  ShardedDataplane dp({ServiceGraph::sequential("chain", {"monitor"})}, {},
                      opts);
  telemetry::ScalabilityProfiler registered(
      telemetry::ScalabilityProfilerOptions{false, {}});
  dp.register_scalability(registered);
  EXPECT_EQ(registered.shard_count(), 2u);
}

}  // namespace
}  // namespace nfp
