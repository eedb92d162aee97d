// Sharded multi-core live dataplane: RSS-style flow sharding over S
// LivePipeline shards.
//
// NFP's server dataplane (§5) is single-box but multi-core: the NIC's RSS
// hash spreads flows across cores and every core runs the full NF graph on
// its own slice of the traffic, shared-nothing. This layer reproduces that
// scaling model in software:
//
//   * a flow-consistent director — the software RSS — parses each frame's
//     5-tuple and dispatches it to shard hash_five_tuple(t) % S, so every
//     packet of a flow lands on the same shard. Per-flow ordering and
//     shard-local NF state (monitors, NAT maps, shapers) follow for free;
//     cross-flow ordering is intentionally unspecified, exactly as with
//     hardware RSS.
//   * one worker thread per shard, pinned to the shard's core
//     (cpu_affinity; graceful no-op where pinning is denied, reported via
//     affinity_applied()), runs each frame to completion through one of
//     the shard's G LivePipelines — one per service graph.
//   * live multi-graph classification: the shard worker consults the shared
//     LiveClassificationTable through a per-shard exact-match microflow
//     cache (live_classifier.hpp), so steady-state classification is one
//     bounded-LRU lookup instead of a mutex-guarded rule scan.
//
// Dataflow per frame: the director writes what a NIC writes and nothing
// more — the frame's bytes into a raw slot of the shard's packet pool, and
// one RX descriptor (slot, length, parsed flow, latency origin) onto the
// shard's SPSC ring, one cache line per frame. The shard worker activates
// the slot on its own core (metadata, refcount, flow, origin, inject_time),
// classifies it and hands it to the verdict graph's pipeline
// (LivePipeline::feed_packet), which runs it in place through the whole
// graph before the worker takes the next descriptor. Every pipeline of a
// shard draws from the one shard pool, so a delivered frame's payload is
// copied twice: in at the director, out into a block of the pipeline's
// LiveResult::outputs (a FrameList) at delivery; drain() hands those
// blocks over whole, copying no frame and allocating nothing per frame.
//
// The constructor sizes each shard pool to at least everything that can
// hold its slots at once — a full RX ring, the worker's burst, the
// director's frame waiting for ring space, a full director magazine and
// worker magazine, and every pipeline's LivePipeline::pool_demand — plus
// one. So a fanout copy never finds the pool dry, and the slots cached in
// an idle worker's magazines can never starve the director.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/status.hpp"
#include "dataplane/live_classifier.hpp"
#include "dataplane/live_pipeline.hpp"
#include "graph/service_graph.hpp"
#include "nfs/nf.hpp"
#include "packet/frame_list.hpp"
#include "packet/packet_magazine.hpp"
#include "packet/packet_pool.hpp"
#include "ring/spsc_ring.hpp"
#include "telemetry/observatory.hpp"
#include "telemetry/owned_counter.hpp"

namespace nfp {

namespace telemetry {
class HealthSampler;
class Watchdog;
}  // namespace telemetry

struct ShardedDataplaneOptions {
  // Shard count; 0 = one shard per online CPU (the RSS default).
  std::size_t shards = 0;
  // Applied to every shard pipeline; pool_size is unused (the shard pool
  // serves).
  LivePipelineOptions pipeline;
  // Pin each shard's worker thread to core (shard % online).
  bool pin_threads = true;
  // Per-shard microflow-cache entries (bounded LRU ahead of the CT).
  std::size_t microflow_capacity = 1024;
  // Director -> shard-worker RX ring, and the shard's packet pool, raised
  // to the minimum the shard's ring, magazines and graphs need.
  std::size_t ingest_ring_depth = 1024;
  std::size_t ingest_pool_size = 2048;
  // Flow observatory recording (heavy hitters, churn, per-graph traffic).
  // On by default like cycle_accounting. bench_shard_scaling's
  // sharded/flow32-acct/noacct pair gates its cost at 5% on 427 flows;
  // BM_FlowFold/zipf10k measures it at ~10k flows per shard
  // (telemetry/flow_observatory.hpp, FlowAccumulator).
  // Drop-reason counting is NOT gated by this — drops always carry a
  // reason; this only disables the per-burst sketch updates.
  bool flow_accounting = true;
  // When set, the director drops (with a reason) instead of blocking when
  // a shard's pool is dry or its RX ring is full — the NIC-like
  // tail-drop policy. Default keeps the lossless blocking behaviour.
  bool drop_on_ingest_backpressure = false;
};

// One shard's totals, summed over its G graph pipelines; `dropped`
// includes the director's drops for the shard.
struct ShardCounts {
  u64 delivered = 0;
  u64 dropped = 0;
};

// Aggregate of one run. `outputs` concatenates shards in shard order (order
// across shards is not meaningful — per-flow order within a shard is):
// shard s's frames are the per_shard[s].delivered after those of shards < s.
// It owns every pipeline's frame blocks, so its spans stay valid as long
// as the result lives.
struct ShardedResult {
  FrameList outputs;
  u64 dropped = 0;
  std::vector<ShardCounts> per_shard;
  Status status;
};

class ShardedDataplane {
 public:
  using NfFactory =
      std::function<std::unique_ptr<NetworkFunction>(const StageNf&)>;

  // One pipeline per (shard, graph); `graphs` must be non-empty and
  // unmatched flows take graphs[0].
  explicit ShardedDataplane(std::vector<ServiceGraph> graphs,
                            NfFactory factory = {},
                            ShardedDataplaneOptions options = {});
  ~ShardedDataplane();

  ShardedDataplane(const ShardedDataplane&) = delete;
  ShardedDataplane& operator=(const ShardedDataplane&) = delete;

  // Classification Table management; safe before start() and mid-run
  // (workers observe the version bump and invalidate their caches).
  void add_flow_rule(const FiveTuple& flow, std::size_t graph);
  void add_rule(const CtRule& rule);
  // Bulk variant: one classifier-snapshot rebuild for the whole batch.
  void add_rules(std::vector<CtRule> rules);
  // Distinct mask signatures in the live classifier snapshot.
  std::size_t classifier_tuple_count() const;

  // Streaming lifecycle, mirroring LivePipeline: start() arms the shard
  // pipelines and spawns the workers (once per instance), feed()
  // dispatches one frame (single director thread; blocks while the target
  // ring is full), drain() flushes everything and joins. run() composes
  // the three.
  // feed() refuses, as a counted drop, a frame offered while the plane is
  // not running (shutdown_drain) or longer than Packet::kMaxDataLen
  // (malformed).
  Status start();
  bool feed(std::span<const u8> frame);
  ShardedResult drain();
  ShardedResult run(const std::vector<std::vector<u8>>& frames);

  // The director's dispatch decision for `frame`, exposed so tests can
  // assert flow affinity without reaching into the hash.
  std::size_t shard_for(std::span<const u8> frame) const;

  std::size_t shard_count() const noexcept { return shards_.size(); }
  std::size_t graph_count() const noexcept { return graphs_.size(); }

  // True once every shard worker's pin attempt succeeded (requires
  // pin_threads and a started dataplane; false in containers that deny
  // sched_setaffinity).
  bool affinity_applied() const;

  // Microflow-cache telemetry, aggregated and per shard.
  u64 microflow_hits() const;
  u64 microflow_misses() const;
  u64 microflow_invalidations() const;
  u64 shard_hits(std::size_t s) const;
  u64 shard_misses(std::size_t s) const;
  // Frames the director dispatched to shard s. (Frames per graph are the
  // flow view's per-graph packet counts.)
  u64 shard_received(std::size_t s) const;
  // Cumulative wall-clock ns shard s's worker spent in busy iterations
  // (pop, classify, graph walk, delivery; idle polling excluded), the
  // numerator of its core utilization. It is the worker's useful bucket
  // before the classifier-miss carve, so it reads 0 when
  // pipeline.cycle_accounting is off.
  u64 shard_busy_ns(std::size_t s) const;
  // Live progress across a shard's pipelines (safe from a sampler thread).
  u64 shard_delivered(std::size_t s);
  u64 shard_dropped(std::size_t s);
  // Shard s's packet pool, shared by the director and every pipeline of
  // the shard (occupancy and contention reads are safe mid-run).
  const PacketPool& shard_pool(std::size_t s) const {
    return *shards_.at(s).pool;
  }

  // Registers every shard pipeline's magazine probes and drop-spike rule
  // (tagged {"shard", "<s>"} or "<s>.g<g>" with multiple graphs) plus
  // shard-level rx/microflow/ring/pool probes, worker-stall and
  // pool-exhaustion watchdog rules. Call before start().
  void register_health(telemetry::HealthSampler& sampler,
                       telemetry::Watchdog* watchdog);

  // Shard-level cycle/contention fold (the scalability view): the
  // worker's buckets (classifier-miss time carved out of useful, which
  // includes the graph walk), the director's waits on this shard, the
  // shard's deliveries and drops (the director's drops included, as in
  // shard_dropped()), and the pool/ring contention evidence. Scrape-time
  // only.
  telemetry::ShardScalabilitySnapshot scalability_snapshot(std::size_t s);

  // Shard s's three views in one pass: the cycle fold above; each
  // pipeline's stage histograms, read once into both the latency view and
  // the flow view's per-graph latency; the RX ring depth; and the shard
  // accountant's sketches and director drops plus each pipeline's drops.
  // Histograms stay empty unless options.pipeline.latency_sample_every >
  // 0; the director then samples by flow hash and stamps origin at its
  // own feed(), so ingest covers director pool/ring + classify time.
  // Scrape-safe mid-run.
  telemetry::ShardSnapshot snapshot(std::size_t s);
  // The latency and flow parts of snapshot(s).
  telemetry::ShardLatencySnapshot latency_snapshot(std::size_t s) {
    return snapshot(s).latency;
  }
  telemetry::ShardFlowSnapshot flow_snapshot(std::size_t s) {
    return snapshot(s).flows;
  }
  // add_shard("shard<s>", snapshot(s)) for every shard. Call before
  // start(); reset the observatory's baseline after start() to exclude
  // spawn cost.
  void register_observatory(telemetry::Observatory& observatory);
  // perfbench-only adapter (see telemetry::ScalabilityProfiler).
  void register_scalability(telemetry::Observatory& observatory) {
    register_observatory(observatory);
  }
  // Director-recorded drops for shard s (ring_full/pool_exhausted under
  // drop_on_ingest_backpressure, classifier_miss, shutdown_drain,
  // malformed): the part of shard_dropped() no pipeline saw.
  u64 shard_director_dropped(std::size_t s) const;

 private:
  // One RX descriptor. `slot` is raw (refcount 0, stale metadata) until
  // the shard worker activates it from the other fields; origin_ns == 0
  // means the frame is not latency-sampled.
  struct IngestDesc {
    Packet* slot = nullptr;
    FlowRef flow;
    u64 origin_ns = 0;
    u32 len = 0;
  };
  static_assert(SpscRing<IngestDesc>::kSlotBytes == kCacheLineSize &&
                    SpscRing<IngestDesc>::kSlotAlign == kCacheLineSize,
                "a descriptor and its stamp must fill exactly one cache line");

  struct Shard {
    // Every packet slot of the shard. Declared first so it outlives the
    // magazine and pipelines below, which return slots to it on teardown.
    std::unique_ptr<PacketPool> pool;
    // The director's raw-slot cache on `pool` (director thread only).
    std::unique_ptr<PacketMagazine> director_mag;
    std::unique_ptr<SpscRing<IngestDesc>> ring;
    std::thread worker;
    std::vector<std::unique_ptr<LivePipeline>> pipelines;  // [graph]
    std::unique_ptr<MicroflowCache> cache;
    // Flow sketches + drop taxonomy; always present (drop reasons are not
    // optional), sketch recording gated by opts_.flow_accounting.
    std::unique_ptr<telemetry::ShardFlowAccountant> flows;
    // Heap-allocated (Shard lives in a vector; atomics are immovable).
    // `received` is single-writer (the director), so it is an
    // OwnedCounter: plain shadow bump + relaxed publish instead of a
    // lock-prefixed RMW per packet, on its own cacheline so a scrape never
    // steals a line the writer is about to dirty. heartbeat_ns stays a
    // bare atomic: it is already a plain store per iteration.
    std::unique_ptr<telemetry::OwnedCounter> received;
    std::unique_ptr<std::atomic<u64>> heartbeat_ns;
    // Cycle accounting (null when pipeline.cycle_accounting is off):
    // `cycles` is written by the shard worker, `director_cycles` by the
    // director when it waits on this shard's pool/ring — separate blocks,
    // so neither thread dirties the other's line.
    std::unique_ptr<telemetry::CycleCounters> cycles;
    std::unique_ptr<telemetry::CycleCounters> director_cycles;
    std::unique_ptr<std::atomic<u64>> director_spins;
  };

  void worker_loop(std::size_t shard_idx);

  std::vector<ServiceGraph> graphs_;
  ShardedDataplaneOptions opts_;
  LiveClassificationTable ct_;
  std::vector<Shard> shards_;

  enum class RunState : int { kNew = 0, kRunning = 1, kFinished = 2 };
  std::atomic<RunState> state_{RunState::kNew};
  std::atomic<bool> ingest_stop_{false};
  std::atomic<u64> affinity_attempts_{0};
  std::atomic<u64> affinity_ok_{0};
};

}  // namespace nfp
