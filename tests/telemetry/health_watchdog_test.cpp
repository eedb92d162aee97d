// Tests for the live-health layer: the flight recorder's bounded window,
// the watchdog's deterministic anomaly rules (injectable clock), the
// sampler's probe recording, and the end-to-end promise — a shard worker
// wedged inside an NF produces a post-mortem dump containing the stall
// event and a registry snapshot.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "dataplane/sharded_dataplane.hpp"
#include "packet/builder.hpp"
#include "telemetry/health_sampler.hpp"

namespace nfp {
namespace {

using telemetry::FlightRecorder;
using telemetry::HealthSampler;
using telemetry::MetricsRegistry;
using telemetry::Severity;
using telemetry::Watchdog;

TEST(FlightRecorder, KeepsBoundedWindowWithStableSequenceNumbers) {
  FlightRecorder rec(4);
  for (u64 i = 0; i < 6; ++i) {
    rec.note(Severity::kInfo, i * 100, "test", "event " + std::to_string(i));
  }
  EXPECT_EQ(rec.recorded(), 6u);
  const auto window = rec.recent();
  ASSERT_EQ(window.size(), 4u);
  // Oldest two were evicted; sequence numbers survive eviction.
  EXPECT_EQ(window.front().seq, 2u);
  EXPECT_EQ(window.back().seq, 5u);
  EXPECT_EQ(window.back().message, "event 5");
}

TEST(FlightRecorder, DumpRendersEventsAndRegistrySnapshot) {
  FlightRecorder rec;
  rec.note(Severity::kCritical, 42, "pool", "exhausted");
  MetricsRegistry registry;
  registry.counter("demo_total").inc(3);

  const std::string bare = rec.dump(nullptr, "why it died");
  EXPECT_NE(bare.find("flight recorder post-mortem"), std::string::npos);
  EXPECT_NE(bare.find("why it died"), std::string::npos);
  EXPECT_NE(bare.find("exhausted"), std::string::npos);
  EXPECT_EQ(bare.find("registry snapshot:"), std::string::npos);

  const std::string full = rec.dump(&registry, "with metrics");
  EXPECT_NE(full.find("registry snapshot:"), std::string::npos);
  EXPECT_NE(full.find("demo_total"), std::string::npos);
}

TEST(Watchdog, StallRuleFiresOncePerEpisodeAndNotesRecovery) {
  u64 now = 0;
  u64 beat = 0;
  FlightRecorder rec;
  Watchdog::Options opt;
  opt.stall_after_ns = 100;
  opt.clock = [&] { return now; };
  Watchdog wd(rec, opt);
  wd.watch_heartbeat("nf:slow#0", [&] { return beat; });

  // A worker that never started (beat == 0) is not stalled.
  now = 10'000;
  EXPECT_FALSE(wd.evaluate());
  EXPECT_EQ(wd.anomalies(), 0u);

  beat = 10'000;
  now = 10'050;
  EXPECT_FALSE(wd.evaluate());  // 50 ns old, under threshold

  now = 10'200;
  EXPECT_TRUE(wd.evaluate());  // 200 ns old => stalled
  EXPECT_EQ(wd.anomalies(), 1u);
  EXPECT_NE(wd.last_dump().find("worker stalled"), std::string::npos);
  EXPECT_NE(wd.last_dump().find("nf:slow#0"), std::string::npos);

  // Debounced: still stalled, no second anomaly.
  now = 10'400;
  EXPECT_FALSE(wd.evaluate());
  EXPECT_EQ(wd.anomalies(), 1u);

  // Recovery clears the rule; a later stall fires again.
  beat = 10'500;
  now = 10'550;
  EXPECT_FALSE(wd.evaluate());
  now = 11'000;
  EXPECT_TRUE(wd.evaluate());
  EXPECT_EQ(wd.anomalies(), 2u);
  bool saw_recovery = false;
  for (const auto& e : rec.recent()) {
    saw_recovery |= e.message.find("recovered") != std::string::npos;
  }
  EXPECT_TRUE(saw_recovery);
}

TEST(Watchdog, DropSpikeComparesDeltasNotAbsolutes) {
  u64 drops = 5'000;  // large pre-existing total must not fire on priming
  FlightRecorder rec;
  Watchdog::Options opt;
  opt.drop_spike = 100;
  opt.clock = [] { return u64{1}; };
  Watchdog wd(rec, opt);
  wd.watch_drop_counter("live-pipeline", [&] { return drops; });

  EXPECT_FALSE(wd.evaluate());  // priming pass
  drops += 50;
  EXPECT_FALSE(wd.evaluate());  // +50 < threshold
  drops += 150;
  EXPECT_TRUE(wd.evaluate());  // +150 >= threshold
  EXPECT_EQ(wd.anomalies(), 1u);
  EXPECT_NE(wd.last_dump().find("drop spike"), std::string::npos);
}

TEST(Watchdog, PoolRuleFiresOnExhaustionAndRearmsAfterClearing) {
  u64 in_use = 0;
  FlightRecorder rec;
  Watchdog::Options opt;
  opt.clock = [] { return u64{1}; };
  Watchdog wd(rec, opt);
  wd.watch_pool("pool", [&] { return in_use; }, /*capacity=*/8);
  wd.set_registry(nullptr);

  EXPECT_FALSE(wd.evaluate());
  in_use = 8;
  EXPECT_TRUE(wd.evaluate());
  EXPECT_FALSE(wd.evaluate());  // still exhausted: debounced
  in_use = 2;
  EXPECT_FALSE(wd.evaluate());  // pressure cleared
  in_use = 8;
  EXPECT_TRUE(wd.evaluate());  // re-armed
  EXPECT_EQ(wd.anomalies(), 2u);
  EXPECT_NE(wd.last_dump().find("pool exhausted"), std::string::npos);
}

TEST(HealthSampler, SampleOnceRecordsProbesAndRunsWatchdog) {
  MetricsRegistry registry;
  HealthSampler sampler(registry);
  double depth = 3.0;
  sampler.add_probe("ring_depth", {{"worker", "nf:a#0"}},
                    [&] { return depth; });

  FlightRecorder rec;
  Watchdog::Options opt;
  opt.clock = [] { return u64{1}; };
  Watchdog wd(rec, opt);
  u64 drops = 0;
  wd.watch_drop_counter("dp", [&] { return drops; });
  wd.set_registry(&registry);
  sampler.set_watchdog(&wd);

  sampler.sample_once();
  EXPECT_EQ(sampler.ticks(), 1u);
  EXPECT_EQ(registry.gauge("ring_depth", {{"worker", "nf:a#0"}}).value, 3.0);

  depth = 9.0;
  drops = 5'000;  // primed at 0 => delta 5000 >= default spike threshold
  sampler.sample_once();
  EXPECT_EQ(registry.gauge("ring_depth", {{"worker", "nf:a#0"}}).value, 9.0);
  EXPECT_EQ(registry.gauge("ring_depth", {{"worker", "nf:a#0"}}).high_water,
            9.0);
  EXPECT_EQ(wd.anomalies(), 1u);
  // The dump carries the probe's gauge: watchdog snapshotted the registry.
  EXPECT_NE(wd.last_dump().find("ring_depth"), std::string::npos);
}

TEST(HealthSampler, BackgroundThreadTicksUntilStopped) {
  MetricsRegistry registry;
  HealthSampler::Options opt;
  opt.period_us = 200;
  HealthSampler sampler(registry, opt);
  std::atomic<u64> reads{0};
  sampler.add_probe("probe_reads", {}, [&] {
    return static_cast<double>(reads.fetch_add(1) + 1);
  });

  sampler.start();
  EXPECT_TRUE(sampler.running());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (sampler.ticks() < 3 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  sampler.stop();
  EXPECT_FALSE(sampler.running());
  EXPECT_GE(sampler.ticks(), 3u);
  EXPECT_GE(registry.gauge("probe_reads").value, 3.0);
  const u64 settled = sampler.ticks();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(sampler.ticks(), settled) << "no ticks after stop()";
}

// An NF that wedges inside process() on the first packet until released —
// the shard worker's heartbeat goes stale while the thread is alive, which
// is exactly the failure mode the watchdog exists to catch.
class WedgingNf final : public NetworkFunction {
 public:
  explicit WedgingNf(std::atomic<bool>& release) : release_(release) {}

  std::string_view type_name() const override { return "monitor"; }
  ActionProfile declared_profile() const override {
    ActionProfile p;
    p.add_read(Field::kSrcIp);
    return p;
  }
  NfVerdict process(PacketView&) override {
    while (!release_.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return NfVerdict::kPass;
  }

 private:
  std::atomic<bool>& release_;
};

// The worker runs the NF inline, so the stalled heartbeat is the shard's
// (shard0/ingest): the dump names the shard, not the NF.
TEST(HealthWatchdog, WedgedLiveWorkerProducesPostMortemDump) {
  std::atomic<bool> release{false};
  ShardedDataplaneOptions opts;
  opts.shards = 1;
  ShardedDataplane dp({ServiceGraph::sequential("seq", {"monitor"})},
                      [&](const StageNf&) -> std::unique_ptr<NetworkFunction> {
                        return std::make_unique<WedgingNf>(release);
                      },
                      opts);

  MetricsRegistry registry;
  FlightRecorder rec;
  Watchdog::Options wd_opt;
  wd_opt.stall_after_ns = 20'000'000;  // 20 ms: fast but schedule-safe
  Watchdog wd(rec, wd_opt);
  wd.set_registry(&registry);
  std::atomic<u64> dumps{0};
  wd.on_dump([&](const std::string&) { dumps.fetch_add(1); });

  HealthSampler::Options s_opt;
  s_opt.period_us = 2'000;
  HealthSampler sampler(registry, s_opt);
  dp.register_health(sampler, &wd);
  sampler.set_watchdog(&wd);
  sampler.start();

  std::vector<u8> frame;
  {
    PacketPool scratch(4);
    PacketSpec spec;
    Packet* p = build_packet(scratch, spec);
    frame.assign(p->data(), p->data() + p->length());
    scratch.release(p);
  }
  ASSERT_TRUE(dp.start().is_ok());
  ASSERT_TRUE(dp.feed({frame.data(), frame.size()}));

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (wd.anomalies() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  release.store(true, std::memory_order_release);
  const ShardedResult result = dp.drain();
  sampler.stop();

  ASSERT_GE(wd.anomalies(), 1u) << "watchdog never noticed the wedged worker";
  EXPECT_GE(dumps.load(), 1u);
  const std::string dump = wd.last_dump();
  EXPECT_NE(dump.find("flight recorder post-mortem"), std::string::npos);
  EXPECT_NE(dump.find("worker stalled"), std::string::npos);
  EXPECT_NE(dump.find("shard0/ingest"), std::string::npos);
  EXPECT_NE(dump.find("registry snapshot:"), std::string::npos);
  // The sampler's probes made it into the snapshot.
  EXPECT_NE(dump.find("shard_rx_total"), std::string::npos);
  // Once released, the packet flows through and the plane drains.
  ASSERT_TRUE(result.status.is_ok());
  EXPECT_EQ(result.outputs.size(), 1u);
  EXPECT_EQ(result.dropped, 0u);
}

}  // namespace
}  // namespace nfp
