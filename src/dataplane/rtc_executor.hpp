// Fused run-to-completion execution of a compiled NF graph.
//
// The pipelined LivePipeline reproduces the paper's one-container-per-NF
// deployment: every NF on its own thread, SPSC burst rings between them, a
// merger thread accumulating parallel arrivals in a MergeTable. That shape
// is what the scalability profiler indicts on core-constrained hosts —
// ring_wait dominates the par4 attribution and 2 shards deliver 0.609x of
// one — because the rings and the merger buy cross-thread parallelism the
// host cannot actually grant. The paper's own Table 4 benchmarks NFP
// against exactly the alternative: a BESS-style run-to-completion model.
//
// RtcExecutor is that model, specialized to NFP's graph semantics: the
// caller's thread (the shard worker) walks the compiled graph inline per
// packet. Sequential segments are direct process() calls — no ring, no
// hand-off, no second cacheline touched. Parallel segments execute as a
// fused branch-sequence: the same FanoutPlan version copies as the
// pipelined path (Header-Only Copying included), each branch NF run in
// declaration order on its version, then an *inline* merge — the same
// drop-resolution (any-drop / priority) and MergeOp application as the
// merger thread, but with zero wait, because every arrival is already in
// hand. No MergeTable, no in-flight window, no result lock on the hot
// path; semantics are output-equivalent to the pipelined path (the
// equivalence tests compare delivered multisets and drop-reason totals).
//
// Telemetry contracts carry over:
//   * drop taxonomy — every drop tags exactly one DropReason, so
//     sum(drops_by_reason) == dropped still holds;
//   * latency telescoping — ingest/queue/service spans stamp exactly as on
//     sequential pipelined hops; a fused merge contributes merge_wait == 0
//     and does NOT count as a merge crossing (the merge_wait stage stays
//     empty — there is no cross-thread wait to measure), so stage sums
//     still equal totals;
//   * cycle accounting — the executor runs inside its caller's useful lap;
//     only its own waits (pool backpressure) are carved, exposed through
//     feeder_wait_ns() so the sharded worker's re-bucketing keeps summing
//     to wall time.
//
// Thread contract: start/feed*/drain from one thread (the LivePipeline
// single-ingest discipline); the telemetry accessors are safe from
// sampler/profiler threads mid-run.
#pragma once

#include <array>
#include <atomic>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/status.hpp"
#include "dataplane/fanout_plan.hpp"
#include "graph/service_graph.hpp"
#include "nfs/nf.hpp"
#include "packet/packet_magazine.hpp"
#include "packet/packet_pool.hpp"
#include "telemetry/flow_observatory.hpp"
#include "telemetry/latency_observatory.hpp"
#include "telemetry/owned_counter.hpp"
#include "telemetry/scalability_profiler.hpp"

namespace nfp {

struct LiveResult;
struct LivePipelineOptions;

class RtcExecutor {
 public:
  // `graph` outlives the executor (the owning LivePipeline's copy);
  // instance ids are assigned here, mirroring the pipelined constructor.
  // The pool and magazine counters are the owning pipeline's, so health
  // probes and pool telemetry read the same cells in both modes.
  RtcExecutor(ServiceGraph& graph,
              const std::function<std::unique_ptr<NetworkFunction>(
                  const StageNf&)>& factory,
              const LivePipelineOptions& opts, PacketPool& pool,
              std::atomic<u64>* mag_refill_total,
              std::atomic<u64>* mag_flush_total);
  ~RtcExecutor();

  RtcExecutor(const RtcExecutor&) = delete;
  RtcExecutor& operator=(const RtcExecutor&) = delete;

  // Same lifecycle contract as LivePipeline: start() once, single-threaded
  // feed()/feed_packet() (each returns with the packet fully delivered or
  // dropped — run to completion is literal), drain() hands back the result.
  // feed_packet() takes ownership of a packet from the pool, stamps
  // included (LivePipeline::feed_packet has the contract).
  Status start();
  bool feed(std::span<const u8> frame);
  bool feed_packet(Packet* pkt);
  LiveResult drain();

  NetworkFunction* nf(std::size_t segment, std::size_t index) {
    return segments_.at(segment).at(index).impl.get();
  }

  u64 delivered_so_far() const noexcept { return delivered_.read(); }
  u64 dropped_so_far() const noexcept { return dropped_.read(); }
  u64 dropped_by(telemetry::DropReason reason) const noexcept {
    return drop_reasons_[static_cast<std::size_t>(reason)].load(
        std::memory_order_relaxed);
  }
  void set_drop_exemplar_ring(telemetry::DropExemplarRing* ring) noexcept {
    drop_exemplars_ = ring;
  }

  // Progress counters only: the owning pipeline adds the pool's evidence
  // when the pool is its own.
  telemetry::ShardScalabilitySnapshot scalability_snapshot() const;
  telemetry::ShardLatencySnapshot latency_snapshot() const;
  // Wall time spent waiting for pool slots inside feed (the executor's only
  // wait — there are no rings). The sharded worker carves this out of its
  // own useful lap, exactly as with the pipelined feeder.
  u64 feeder_wait_ns() const;

 private:
  struct RtcNf {
    StageNf meta;
    std::unique_ptr<NetworkFunction> impl;
    std::string stage;  // drop-exemplar stage tag, "rtc:<name>#<id>"
    u64 processed = 0;  // feeder-thread private
  };

  // Walks the graph from segment 0 to delivery or drop. Owns `pkt`.
  void execute(Packet* pkt);
  // Runs one fused parallel segment; returns the merged survivor (always
  // the version-1 packet) or nullptr when the packet dropped (the reason
  // has been tagged and every version released).
  Packet* run_parallel_segment(std::size_t seg_idx, Packet* pkt);

  void note_drop(telemetry::DropReason reason, const char* stage,
                 const FlowRef* flow);

  ServiceGraph& graph_;
  const LivePipelineOptions& opts_;
  PacketPool& pool_;
  std::vector<std::vector<RtcNf>> segments_;
  std::vector<FanoutPlan> fanout_;

  std::unique_ptr<PacketMagazine> mag_;
  std::atomic<u64>* mag_refill_total_;
  std::atomic<u64>* mag_flush_total_;

  enum class RunState : int { kNew = 0, kRunning = 1, kFinished = 2 };
  std::atomic<RunState> state_{RunState::kNew};
  u64 next_pid_ = 0;

  // Stage histograms for sampled packets; null when sampling is off. One
  // block suffices — a single thread records.
  std::unique_ptr<telemetry::StageLatencyBlock> lat_block_;

  // Feeder-written, scrape-read progress counters.
  telemetry::OwnedCounter delivered_;
  telemetry::OwnedCounter dropped_;
  std::array<std::atomic<u64>, telemetry::kDropReasonCount> drop_reasons_{};
  telemetry::DropExemplarRing* drop_exemplars_ = nullptr;

  // Scratch reused across packets (no per-packet allocation).
  std::vector<u8> intent_;  // [nf index in segment] -> drop intent
  std::vector<std::pair<Packet*, u8>> pairs_;

  // Feeder-owned accumulation; delivered/dropped counters are the
  // scrape-safe view, the vector itself is only touched by the feed thread
  // and by drain()'s caller (ordered by the sharded worker join).
  std::vector<std::vector<u8>> outputs_;
};

}  // namespace nfp
