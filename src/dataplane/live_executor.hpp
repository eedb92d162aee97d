// The mode-specific half of a LivePipeline (internal to src/dataplane).
//
// LivePipeline owns, written once, what both execution modes share: the
// NF instances, option resolution and pool ownership, the run-once
// lifecycle, the front half of feed()/feed_packet() (pid, latency
// sampling, ingest stamp), the drop taxonomy, the stamped sequential hop
// and the delivery-time latency record. Its executor does the rest:
//   * pipelined (pipelined_executor.cpp) — one std::thread per NF (the
//     paper's one-container-per-core) connected by the lock-free SPSC
//     rings of src/ring, a merger thread over MergeTables, the in-flight
//     window, feeder accounting and worker health;
//   * rtc (rtc_executor.cpp) — the feeding thread walks the graph inline.
// Executors read the owner's NFs, plans, options, pool and drop taxonomy
// directly (they are nested classes of LivePipeline).
//
// Thread contract: start/admit/alloc/run/finish come from the one ingest
// thread, in lifecycle order (the owner has already checked it); the
// telemetry calls are safe from sampler/profiler threads mid-run.
#pragma once

#include <memory>
#include <string>

#include "dataplane/live_pipeline.hpp"
#include "telemetry/registry.hpp"

namespace nfp {

class LivePipeline::Executor {
 public:
  explicit Executor(LivePipeline& owner) : owner_(owner) {}
  virtual ~Executor() = default;

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  // start(), after the owner's run-once check and with the feeder
  // magazine in place: spawn whatever runs the graph.
  virtual void start() = 0;
  // Feed-side admission before a packet is stamped (pipelined: blocks on
  // the in-flight window).
  virtual void admit() = 0;
  // A pool slot for feed()'s copy-in, or null after a counted drop.
  virtual Packet* alloc(std::size_t len) = 0;
  // Runs one stamped packet through the graph and owns it from here on;
  // false when it became a counted drop before entering the graph.
  virtual bool run(Packet* pkt) = 0;
  // drain(): waits until every fed packet is delivered or dropped, stops
  // the workers and hands back the accumulated result.
  virtual LiveResult finish() = 0;

  virtual u64 delivered() = 0;
  virtual u64 dropped() = 0;
  // The executor's part of the owner's scrape-time snapshots.
  virtual telemetry::ShardScalabilitySnapshot scalability() const = 0;
  virtual telemetry::ShardLatencySnapshot latency() const = 0;
  virtual u64 feeder_wait_ns() const = 0;
  // Per-worker probes and heartbeat rules (register_health).
  virtual void register_workers(telemetry::HealthSampler& sampler,
                                telemetry::Watchdog* watchdog,
                                const telemetry::Labels& labels,
                                const std::string& prefix) = 0;

 protected:
  LivePipeline& owner_;
};

}  // namespace nfp
