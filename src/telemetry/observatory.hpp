// The live plane's observatory: one scrape, one consistent picture.
//
// NFP's claims are read off one run in three ways, the three views of
// this one registry: where throughput was lost (scalability_profiler.hpp),
// per-stage latency (latency_observatory.hpp, paper §6), and what each
// policy's graph received (flow_observatory.hpp). Each shard registers one
// callback returning a ShardSnapshot, its three views read in one pass;
// report() calls every callback once and builds the three reports from
// that read, so the views agree: the flow view's per-graph latency sums to
// the latency view's total stage, bucket for bucket.
//
// One baseline covers all three views (reset_baseline() after start()
// excludes spawn cost and warm-up): counters report deltas against it,
// sketches stay cumulative. add_shard/reset_baseline/report serialize on
// one mutex; the callbacks read relaxed atomics and per-shard locks.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "telemetry/flow_observatory.hpp"
#include "telemetry/latency_observatory.hpp"
#include "telemetry/scalability_profiler.hpp"

namespace nfp::telemetry {

class TimeseriesCollector;

// One shard's three views, read at one instant.
struct ShardSnapshot {
  ShardScalabilitySnapshot cycles;
  ShardLatencySnapshot latency;
  ShardFlowSnapshot flows;
  std::size_t sample_every = 0;  // the plane's latency_sample_every
};

struct ObservatoryOptions {
  bool enable_hw = true;       // attempt perf_event_open at construction
  std::function<u64()> clock;  // ns; defaults to mono_now_ns
  std::size_t top_k = 10;      // heavy-hitter entries rendered (0 -> 10)
};

// The three views built from one read of every shard.
struct ObservatoryReport {
  ScalabilityReport scalability;
  LatencyReport latency;
  FlowReport flows;

  // {"scalability":{...},"latency":{...},"flows":{...}}, each section
  // the view's own to_json().
  std::string to_json() const;
};

class Observatory {
 public:
  using Options = ObservatoryOptions;
  using SnapshotFn = std::function<ShardSnapshot()>;

  explicit Observatory(Options options = {});

  // Registers a shard; its current snapshot becomes its baseline.
  void add_shard(std::string name, SnapshotFn fn);
  std::size_t shard_count() const;

  // Re-zeroes every view: later reports are deltas against the counter
  // values, the hardware sample and the wall clock now.
  void reset_baseline();

  ObservatoryReport report() const;

  // Publishes, per shard {shard=...}: scalability_<bucket>_share,
  // scalability_projected_pps, latency_<stage>_p99, latency_total_p50,
  // latency_total_p999, latency_ingest_queue_depth;
  // and plane-wide: flows_active, flow_new_rate (between refreshes),
  // hh_top1_share, drops_<reason>_total. The first probe sampled in a
  // 200 ms window refreshes one cached report; the rest read it.
  void register_probes(TimeseriesCollector& collector);

 private:
  struct Source {
    std::string name;
    SnapshotFn fn;
    ShardSnapshot baseline;
  };
  struct ProbeCache;

  mutable std::mutex mu_;
  Options options_;
  std::vector<Source> sources_;
  u64 baseline_ns_ = 0;
  mutable HwCounterGroup hw_;
  HwSample hw_baseline_;
  bool hw_baseline_set_ = false;
  std::shared_ptr<ProbeCache> probe_cache_;
};

// perfbench-only adapter: the benchmark under perfbench/ predates the
// Observatory and is not edited outside a benchmark change. Library,
// example and bench code use Observatory directly.
using ScalabilityProfilerOptions = ObservatoryOptions;
class ScalabilityProfiler : public Observatory {
 public:
  using Observatory::Observatory;
  ScalabilityReport report() const { return Observatory::report().scalability; }
};

}  // namespace nfp::telemetry
