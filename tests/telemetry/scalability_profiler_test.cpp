// Tests for the observatory's scalability view: the cycle-accountant's
// exact wall-time partition, synthetic and live attribution reports
// (per-shard bucket shares summing to 100% of accounted shard-seconds),
// the JSON schema, the /scalability.json loopback endpoint, honest
// hardware-counter fallback, and the timeseries probes. The
// concurrent-scrape test doubles as the TSan workload for report()
// against a running dataplane.
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hpp"
#include "dataplane/sharded_dataplane.hpp"
#include "orch/compiler.hpp"
#include "packet/builder.hpp"
#include "policy/policy.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/observatory.hpp"
#include "telemetry/stats_server.hpp"
#include "telemetry/timeseries.hpp"

namespace nfp {
namespace {

using telemetry::CycleAccountant;
using telemetry::CycleBucket;
using telemetry::CycleCounters;
using telemetry::kCycleBucketCount;
using telemetry::Observatory;
using telemetry::ObservatoryOptions;
using telemetry::ScalabilityReport;
using telemetry::ShardScalabilitySnapshot;

// An observatory source that reports only `*snap`'s scalability view.
Observatory::SnapshotFn cycles_of(const ShardScalabilitySnapshot* snap) {
  return [snap] {
    telemetry::ShardSnapshot shard;
    shard.cycles = *snap;
    return shard;
  };
}

ServiceGraph compile_chain(const std::vector<std::string>& chain) {
  const ActionTable table = ActionTable::with_builtin_nfs();
  auto g =
      compile_policy(Policy::from_sequential_chain("scal", chain), table);
  EXPECT_TRUE(g.is_ok()) << g.error();
  return std::move(g).take();
}

std::vector<std::vector<u8>> make_flow_frames(std::size_t count,
                                              std::size_t flows) {
  PacketPool pool(4);
  std::vector<std::vector<u8>> frames;
  for (std::size_t i = 0; i < count; ++i) {
    PacketSpec spec;
    spec.tuple = FiveTuple{0x0A500000 + static_cast<u32>(i % flows),
                           0x0A600001, static_cast<u16>(30'000 + i % flows),
                           443, kProtoTcp};
    spec.frame_size = 64 + (i % 4) * 64;
    Packet* p = build_packet(pool, spec);
    frames.emplace_back(p->data(), p->data() + p->length());
    pool.release(p);
  }
  return frames;
}

// Blocks until every fed frame has been delivered or dropped.
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

// --- cycle accountant ---------------------------------------------------

TEST(ScalabilityProfilerTest, CycleAccountantPartitionsWallTime) {
  CycleCounters c;
  CycleAccountant acct(&c, 1'000);
  acct.lap(1'400, CycleBucket::kUseful);  // 400ns useful
  // A wait measured inline inside the next iteration: credited to its own
  // bucket and carved out of the enclosing useful lap.
  acct.carve(CycleBucket::kRingWait, 150);
  acct.lap(1'900, CycleBucket::kUseful);  // 500ns span, 350 useful

  EXPECT_EQ(c.get(CycleBucket::kUseful), 750u);
  EXPECT_EQ(c.get(CycleBucket::kRingWait), 150u);
  u64 sum = 0;
  for (std::size_t b = 0; b < kCycleBucketCount; ++b) {
    sum += c.get(static_cast<CycleBucket>(b));
  }
  EXPECT_EQ(sum, 900u) << "buckets must partition the 1000..1900 window";
}

TEST(ScalabilityProfilerTest, CycleAccountantCarveSaturates) {
  // A carve larger than the enclosing lap (clock granularity) must not
  // wrap the lap negative — the lap clamps to zero and the overshoot is
  // the documented source of the ±2% attribution tolerance.
  CycleCounters c;
  CycleAccountant acct(&c, 0);
  acct.carve(CycleBucket::kPoolWait, 600);
  acct.lap(100, CycleBucket::kUseful);
  EXPECT_EQ(c.get(CycleBucket::kUseful), 0u);
  EXPECT_EQ(c.get(CycleBucket::kPoolWait), 600u);
}

TEST(ScalabilityProfilerTest, NullSinkDisablesAccounting) {
  CycleAccountant acct(nullptr, 0);
  EXPECT_FALSE(acct.enabled());
  acct.carve(CycleBucket::kRingWait, 10);
  acct.lap(100, CycleBucket::kUseful);  // must not crash
}

TEST(ScalabilityProfilerTest, SnapshotDeltaSaturates) {
  ShardScalabilitySnapshot then;
  then.ns[0] = 500;
  then.pool_cas_retries = 9;
  ShardScalabilitySnapshot now;
  now.ns[0] = 300;  // restarted counter: below the baseline
  now.pool_cas_retries = 4;
  const ShardScalabilitySnapshot d = telemetry::snapshot_delta(now, then);
  EXPECT_EQ(d.ns[0], 0u);
  EXPECT_EQ(d.pool_cas_retries, 0u);
}

// --- synthetic reports --------------------------------------------------

TEST(ScalabilityProfilerTest, SyntheticSharesSumToOne) {
  u64 clock = 0;
  ObservatoryOptions opt;
  opt.enable_hw = false;
  opt.clock = [&clock] { return clock; };

  ShardScalabilitySnapshot snap;
  Observatory prof(opt);
  prof.add_shard("s0", cycles_of(&snap));

  snap.ns = {600'000'000, 200'000'000, 100'000'000,
             50'000'000,  25'000'000,  25'000'000};
  snap.delivered = 1'000;
  snap.threads = 2;
  clock = 2'000'000'000;  // 2s wall

  const ScalabilityReport rep = prof.report().scalability;
  ASSERT_EQ(rep.shards.size(), 1u);
  const ScalabilityReport::Shard& sh = rep.shards[0];
  EXPECT_EQ(sh.name, "s0");
  double sum = 0;
  for (const double s : sh.share) sum += s;
  EXPECT_NEAR(sum, 1.0, 1e-9);
  EXPECT_NEAR(sh.accounted_seconds, 1.0, 1e-9);
  EXPECT_NEAR(rep.wall_seconds, 2.0, 1e-9);
  EXPECT_NEAR(sh.pps, 500.0, 1e-6);  // 1000 delivered / 2s wall
  EXPECT_NEAR(sh.projected_pps, 500.0 / 0.6, 1e-6);
  // Starved (0.2 share) is idle, not contention: the top contention
  // source is the largest genuine wait bucket — ring_wait at 0.1.
  EXPECT_EQ(rep.top_contention_source(), "ring_wait");
  EXPECT_EQ(rep.hw.source, "software-proxy");
}

TEST(ScalabilityProfilerTest, BaselineResetZeroesTheDelta) {
  u64 clock = 0;
  ObservatoryOptions opt;
  opt.enable_hw = false;
  opt.clock = [&clock] { return clock; };

  ShardScalabilitySnapshot snap;
  snap.ns[0] = 400;
  snap.delivered = 77;
  Observatory prof(opt);
  prof.add_shard("s0", cycles_of(&snap));

  clock = 1'000'000'000;
  prof.reset_baseline();
  const ScalabilityReport rep = prof.report().scalability;
  ASSERT_EQ(rep.shards.size(), 1u);
  EXPECT_EQ(rep.shards[0].d.accounted_ns(), 0u);
  EXPECT_EQ(rep.shards[0].d.delivered, 0u);
}

TEST(ScalabilityProfilerTest, JsonSchemaParses) {
  u64 clock = 0;
  ObservatoryOptions opt;
  opt.enable_hw = false;
  opt.clock = [&clock] { return clock; };

  ShardScalabilitySnapshot snap;
  Observatory prof(opt);
  prof.add_shard("shard0", cycles_of(&snap));
  snap.ns = {80, 10, 5, 3, 1, 1};
  snap.delivered = 42;
  snap.ring_full_events = 7;
  clock = 1'000'000'000;

  const auto doc = json::Value::parse(prof.report().scalability.to_json());
  ASSERT_TRUE(doc.is_ok()) << doc.error();
  const json::Value& root = doc.value();
  EXPECT_GT(root.number_or("wall_seconds", 0), 0.0);
  const json::Value* shards = root.find("shards");
  ASSERT_NE(shards, nullptr);
  ASSERT_TRUE(shards->is_array());
  ASSERT_EQ(shards->items().size(), 1u);
  const json::Value& sh = shards->items()[0];
  EXPECT_EQ(std::string(sh.string_or("name", "")), "shard0");
  const json::Value* shares = sh.find("shares");
  ASSERT_NE(shares, nullptr);
  double sum = 0;
  for (const char* bucket : {"useful", "starved", "ring_wait", "pool_wait",
                             "merge_wait", "classifier_miss"}) {
    const double share = shares->number_or(bucket, -1);
    EXPECT_GE(share, 0.0) << bucket << " missing from shares";
    sum += share;
  }
  EXPECT_NEAR(sum, 1.0, 1e-4);
  const json::Value* events = sh.find("events");
  ASSERT_NE(events, nullptr);
  EXPECT_EQ(events->number_or("ring_full_events", 0), 7.0);
  const json::Value* hw = root.find("hw");
  ASSERT_NE(hw, nullptr);
  EXPECT_EQ(std::string(hw->string_or("source", "")), "software-proxy");
  EXPECT_NE(root.find("total"), nullptr);
}

TEST(ScalabilityProfilerTest, HwSourceIsHonest) {
  // Default options attempt perf_event_open. Whatever the kernel decides,
  // the report must say so: either real hardware numbers or an explicit
  // software-proxy fallback with the reason — never fabricated values.
  Observatory prof;
  const ScalabilityReport rep = prof.report().scalability;
  if (rep.hw.source == "perf_event") {
    SUCCEED();
  } else {
    EXPECT_EQ(rep.hw.source, "software-proxy");
    EXPECT_FALSE(rep.hw.detail.empty())
        << "fallback must carry the perf_event_open failure reason";
  }
}

// --- live dataplane attribution -----------------------------------------

TEST(ScalabilityProfilerTest, LiveAttributionSumsToAccountedTime) {
  const auto frames = make_flow_frames(4'000, 32);
  ShardedDataplaneOptions opts;
  opts.shards = 2;
  ShardedDataplane dp({compile_chain({"monitor", "lb"})}, {}, opts);

  ObservatoryOptions popt;
  popt.enable_hw = false;
  Observatory prof(popt);
  dp.register_observatory(prof);
  ASSERT_EQ(prof.shard_count(), 2u);

  ASSERT_TRUE(dp.start().is_ok());
  prof.reset_baseline();
  for (const auto& frame : frames) {
    dp.feed({frame.data(), frame.size()});
  }
  wait_until_done(dp, frames.size());
  // Let the loops accumulate some explicitly idle (starved) time too, so
  // the partition is tested across busy and idle regimes.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  const ScalabilityReport rep = prof.report().scalability;
  const ShardedResult res = dp.drain();
  ASSERT_TRUE(res.status.is_ok());

  EXPECT_EQ(rep.total.delivered + rep.total.dropped, frames.size());
  ASSERT_EQ(rep.shards.size(), 2u);
  for (const ScalabilityReport::Shard& sh : rep.shards) {
    ASSERT_GT(sh.d.accounted_ns(), 0u) << sh.name;
    ASSERT_GT(sh.d.threads, 0u) << sh.name;
    // The acceptance invariant: bucket shares partition the accounted
    // shard-seconds (100 ± 2%).
    double sum = 0;
    for (const double s : sh.share) sum += s;
    EXPECT_NEAR(sum, 1.0, 0.02) << sh.name;
    // And the accounted time itself tracks wall-time x threads: never
    // meaningfully more (nothing is double-counted), and not wildly less
    // (each loop closes an interval every iteration; the only gap is each
    // thread's tail since its last lap, which scheduler noise on loaded
    // CI runners can stretch — hence the loose lower bound). The +1 in
    // the upper bound is the director: its pool/ring waits are booked to
    // the shard that stalled it, but the director thread itself is not in
    // `threads` (one director serves every shard).
    const double per_thread = rep.wall_seconds;
    EXPECT_LE(sh.accounted_seconds,
              per_thread * static_cast<double>(sh.d.threads + 1) * 1.05)
        << sh.name;
    EXPECT_GE(sh.accounted_seconds,
              per_thread * static_cast<double>(sh.d.threads) * 0.50)
        << sh.name;
  }
  // The fold across shards preserves the partition.
  double total_sum = 0;
  for (const double s : rep.total_share) total_sum += s;
  EXPECT_NEAR(total_sum, 1.0, 0.02);
}

TEST(ScalabilityProfilerTest, ServesScalabilityJsonOverLoopback) {
  const auto frames = make_flow_frames(500, 8);
  ShardedDataplaneOptions opts;
  opts.shards = 1;
  ShardedDataplane dp({compile_chain({"monitor"})}, {}, opts);

  ObservatoryOptions popt;
  popt.enable_hw = false;
  Observatory prof(popt);
  dp.register_observatory(prof);
  ASSERT_TRUE(dp.start().is_ok());
  prof.reset_baseline();

  telemetry::StatsServer server;
  telemetry::EndpointSources sources;
  sources.observatory = &prof;
  telemetry::register_standard_endpoints(server, sources);
  ASSERT_TRUE(server.start({}).is_ok());

  for (const auto& frame : frames) {
    dp.feed({frame.data(), frame.size()});
  }
  wait_until_done(dp, frames.size());

  const auto res = telemetry::http_get(server.port(), "/scalability.json");
  ASSERT_TRUE(res.is_ok()) << res.error();
  EXPECT_EQ(res.value().status, 200);
  EXPECT_EQ(res.value().content_type, "application/json");
  const auto doc = json::Value::parse(res.value().body);
  ASSERT_TRUE(doc.is_ok()) << doc.error();
  const json::Value* shards = doc.value().find("shards");
  ASSERT_NE(shards, nullptr);
  ASSERT_TRUE(shards->is_array());
  ASSERT_EQ(shards->items().size(), 1u);
  // The live endpoint serves the same data report() folds: the delivered
  // count must match what the dataplane processed by scrape time.
  EXPECT_GE(shards->items()[0].number_or("delivered", 0), 1.0);

  server.stop();
  const ShardedResult drained = dp.drain();
  EXPECT_TRUE(drained.status.is_ok());
}

TEST(ScalabilityProfilerTest, ConcurrentScrapeIsRaceFree) {
  // TSan workload: report()/to_json() hammered from several threads while
  // the dataplane runs and the director feeds — every counter the
  // callbacks read is written concurrently by the hot path.
  const auto frames = make_flow_frames(2'000, 16);
  ShardedDataplaneOptions opts;
  opts.shards = 2;
  ShardedDataplane dp({compile_chain({"monitor", "lb"})}, {}, opts);

  ObservatoryOptions popt;
  popt.enable_hw = false;
  Observatory prof(popt);
  dp.register_observatory(prof);
  ASSERT_TRUE(dp.start().is_ok());
  prof.reset_baseline();

  std::atomic<bool> feeding{true};
  std::vector<std::thread> scrapers;
  for (int t = 0; t < 3; ++t) {
    scrapers.emplace_back([&prof, &feeding] {
      while (feeding.load(std::memory_order_acquire)) {
        const ScalabilityReport rep = prof.report().scalability;
        ASSERT_FALSE(rep.to_json().empty());
      }
    });
  }
  for (const auto& frame : frames) {
    dp.feed({frame.data(), frame.size()});
  }
  wait_until_done(dp, frames.size());
  feeding.store(false, std::memory_order_release);
  for (std::thread& t : scrapers) t.join();

  // Report before drain(): drain moves the delivered frames out of the
  // pipelines, so post-drain snapshots legitimately read zero delivered.
  const ScalabilityReport final_rep = prof.report().scalability;
  EXPECT_EQ(final_rep.total.delivered + final_rep.total.dropped,
            frames.size());
  const ShardedResult res = dp.drain();
  EXPECT_TRUE(res.status.is_ok());
}

// --- timeseries probes --------------------------------------------------

TEST(ScalabilityProfilerTest, ProbesPublishPerShardShares) {
  u64 clock = 0;
  ObservatoryOptions opt;
  opt.enable_hw = false;
  opt.clock = [&clock] { return clock; };

  ShardScalabilitySnapshot snap;
  Observatory prof(opt);
  prof.add_shard("s0", cycles_of(&snap));
  snap.ns = {600, 400, 0, 0, 0, 0};
  snap.delivered = 10;
  clock = 1'000'000'000;

  telemetry::MetricsRegistry registry;
  u64 ts_clock = 1;
  telemetry::TimeseriesOptions topt;
  topt.clock = [&ts_clock] { return ts_clock; };
  telemetry::TimeseriesCollector collector(registry, topt);
  prof.register_probes(collector);
  collector.sample_once();

  const auto useful =
      collector.history("scalability_useful_share", {{"shard", "s0"}});
  ASSERT_EQ(useful.size(), 1u);
  EXPECT_NEAR(useful.back().value, 0.6, 1e-9);
  const auto starved =
      collector.history("scalability_starved_share", {{"shard", "s0"}});
  ASSERT_EQ(starved.size(), 1u);
  EXPECT_NEAR(starved.back().value, 0.4, 1e-9);
  const auto projected =
      collector.history("scalability_projected_pps", {{"shard", "s0"}});
  ASSERT_EQ(projected.size(), 1u);
  EXPECT_GT(projected.back().value, 0.0);
}

}  // namespace
}  // namespace nfp
