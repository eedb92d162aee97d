#include "telemetry/observatory.hpp"

#include <algorithm>

#include "telemetry/health_sampler.hpp"
#include "telemetry/timeseries.hpp"

namespace nfp::telemetry {

std::string ObservatoryReport::to_json() const {
  return "{\"scalability\":" + scalability.to_json() +
         ",\"latency\":" + latency.to_json() +
         ",\"flows\":" + flows.to_json() + "}";
}

// One report per collector tick, shared by every probe (all probes run on
// the collector thread, so the cache needs no lock of its own).
struct Observatory::ProbeCache {
  static constexpr u64 kRefreshNs = 200ull * 1000 * 1000;
  ObservatoryReport report;
  u64 stamp_ns = 0;
  double new_flow_rate = 0;  // new flows per second between refreshes
  u64 prev_new_flows = 0;
};

Observatory::Observatory(Options options)
    : options_(std::move(options)),
      probe_cache_(std::make_shared<ProbeCache>()) {
  if (!options_.clock) options_.clock = [] { return mono_now_ns(); };
  if (options_.top_k == 0) options_.top_k = 10;
  baseline_ns_ = options_.clock();
  // Open before the dataplane spawns its threads so inherit=1 covers them.
  if (options_.enable_hw) hw_.open();
}

void Observatory::add_shard(std::string name, SnapshotFn fn) {
  if (!fn) return;
  const std::scoped_lock lock(mu_);
  ShardSnapshot baseline = fn();
  sources_.push_back({std::move(name), std::move(fn), std::move(baseline)});
}

std::size_t Observatory::shard_count() const {
  const std::scoped_lock lock(mu_);
  return sources_.size();
}

void Observatory::reset_baseline() {
  const std::scoped_lock lock(mu_);
  for (Source& src : sources_) src.baseline = src.fn();
  baseline_ns_ = options_.clock();
  if (hw_.opened()) {
    hw_baseline_ = hw_.read();
    hw_baseline_set_ = true;
  }
}

ObservatoryReport Observatory::report() const {
  const std::scoped_lock lock(mu_);
  ObservatoryReport rep;
  const double wall =
      static_cast<double>(sat_sub(options_.clock(), baseline_ns_)) / 1e9;
  rep.scalability.wall_seconds = wall;
  rep.latency.wall_seconds = wall;
  rep.flows.wall_seconds = wall;
  rep.flows.top_k = options_.top_k;
  for (const Source& src : sources_) {
    ShardSnapshot now = src.fn();
    rep.scalability.add_shard(src.name,
                              snapshot_delta(now.cycles, src.baseline.cycles));
    rep.latency.add_shard(src.name,
                          latency_delta(now.latency, src.baseline.latency));
    rep.flows.add_shard(src.name, flow_delta(std::move(now.flows),
                                             src.baseline.flows, baseline_ns_));
    rep.latency.sample_every =
        std::max(rep.latency.sample_every, now.sample_every);
  }

  HwSample& hw = rep.scalability.hw;
  if (hw_.opened()) {
    hw = hw_.read();
    if (hw.source == "perf_event" && hw_baseline_set_) {
      hw.cache_misses = sat_sub(hw.cache_misses, hw_baseline_.cache_misses);
      hw.stalled_cycles =
          sat_sub(hw.stalled_cycles, hw_baseline_.stalled_cycles);
    }
  } else {
    hw.source = "software-proxy";
    hw.detail = hw_.error();
  }
  return rep;
}

void Observatory::register_probes(TimeseriesCollector& collector) {
  std::shared_ptr<ProbeCache> cache = probe_cache_;
  auto refreshed = [this, cache]() -> const ObservatoryReport& {
    const u64 now = options_.clock();
    if (cache->stamp_ns == 0 ||
        sat_sub(now, cache->stamp_ns) > ProbeCache::kRefreshNs) {
      cache->report = report();
      // flow_new_rate is the between-refresh derivative, not the lifetime
      // average: churny phases show up immediately.
      const u64 cur = cache->report.flows.total.new_flows;
      cache->new_flow_rate =
          cache->stamp_ns != 0 && now > cache->stamp_ns &&
                  cur >= cache->prev_new_flows
              ? static_cast<double>(cur - cache->prev_new_flows) * 1e9 /
                    static_cast<double>(now - cache->stamp_ns)
              : 0.0;
      cache->prev_new_flows = cur;
      cache->stamp_ns = now;
    }
    return cache->report;
  };

  std::vector<std::string> names;
  {
    const std::scoped_lock lock(mu_);
    for (const Source& src : sources_) names.push_back(src.name);
  }
  // One {shard=...} series per shard registered so far.
  const auto per_shard = [&](const std::string& name, auto value) {
    for (std::size_t s = 0; s < names.size(); ++s) {
      collector.add_probe(name, {{"shard", names[s]}}, [refreshed, s, value] {
        const ObservatoryReport& rep = refreshed();
        return s < rep.scalability.shards.size() ? value(rep, s) : 0.0;
      });
    }
  };
  for (std::size_t b = 0; b < kCycleBucketCount; ++b) {
    per_shard(std::string("scalability_") +
                  cycle_bucket_name(static_cast<CycleBucket>(b)) + "_share",
              [b](const ObservatoryReport& rep, std::size_t s) {
                return rep.scalability.shards[s].share[b];
              });
  }
  per_shard("scalability_projected_pps",
            [](const ObservatoryReport& rep, std::size_t s) {
              return rep.scalability.shards[s].projected_pps;
            });
  const auto stage_us = [](LatencyStage stage, double q) {
    return [stage, q](const ObservatoryReport& rep, std::size_t s) {
      const u64 ns = rep.latency.shards[s].d.stage(stage).quantile(q);
      return static_cast<double>(ns) / 1e3;
    };
  };
  for (std::size_t i = 0; i < kLatencyStageCount; ++i) {
    const auto stage = static_cast<LatencyStage>(i);
    per_shard(std::string("latency_") + latency_stage_name(stage) + "_p99",
              stage_us(stage, 0.99));
  }
  per_shard("latency_total_p50", stage_us(LatencyStage::kTotal, 0.50));
  per_shard("latency_total_p999", stage_us(LatencyStage::kTotal, 0.999));
  per_shard("latency_ingest_queue_depth",
            [](const ObservatoryReport& rep, std::size_t s) {
              return rep.latency.shards[s].d.ingest_queue_depth;
            });

  collector.add_probe("flows_active", {}, [refreshed] {
    return refreshed().flows.flows_active();
  });
  collector.add_probe("flow_new_rate", {}, [refreshed, cache] {
    refreshed();
    return cache->new_flow_rate;
  });
  collector.add_probe("hh_top1_share", {}, [refreshed] {
    return refreshed().flows.hh_top1_share();
  });
  for (std::size_t r = 0; r < kDropReasonCount; ++r) {
    collector.add_probe(
        std::string("drops_") +
            drop_reason_name(static_cast<DropReason>(r)) + "_total",
        {}, [refreshed, r] {
          return static_cast<double>(refreshed().flows.total.drops[r]);
        });
  }
}

}  // namespace nfp::telemetry
