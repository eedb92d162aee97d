// The live dataplane: the NFP dataplane on real packets.
//
// The simulated-time dataplane (NfpDataplane) is the measurement vehicle;
// this pipeline runs the same compiled service graphs on real packets,
// really copied, processed and merged. Every packet runs to completion on
// the thread that feeds it (the shard worker inside a ShardedDataplane):
//   * a sequential hop is a direct process() call — no ring, no hand-off;
//   * a parallel segment runs as a fused branch-sequence through the
//     segment kernel the simulated plane runs too: fan_out makes the
//     FanoutPlan's copies (Header-Only Copying included), every branch NF
//     runs in declaration order on its version, and merge_segment resolves
//     drops and applies the merge operations inline (fanout_plan.hpp,
//     merge_ops.hpp);
//   * a delivered frame is copied into a FrameList block; drain() hands
//     the blocks over whole.
// Cores scale the plane by flow, not by NF: the sharded dataplane spreads
// flows over shards the way RSS spreads them over cores, and each shard
// runs the whole graph (sharded_dataplane.hpp). Within one packet the NFs
// of a parallel segment run one after another, so the graph buys no
// intra-packet parallelism here but still pays its fan-out and merge.
// DESIGN.md "One live executor" has the rationale; the paper's
// one-NF-per-core deployment is modelled on the simulated plane.
//
// Hot-path idioms: per-thread magazine caches over a lock-free packet pool
// (alloc, release and add_ref never take a lock), fanout plans resolved at
// construction, and single-writer progress counters that telemetry
// threads read mid-run.
#pragma once

#include <array>
#include <atomic>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "dataplane/fanout_plan.hpp"
#include "dataplane/merge_ops.hpp"
#include "graph/service_graph.hpp"
#include "nfs/nf.hpp"
#include "packet/frame_list.hpp"
#include "packet/packet_magazine.hpp"
#include "packet/packet_pool.hpp"
#include "telemetry/flow_observatory.hpp"
#include "telemetry/latency_observatory.hpp"
#include "telemetry/owned_counter.hpp"

namespace nfp {

namespace telemetry {
class HealthSampler;
class Watchdog;
}  // namespace telemetry

// How the compiled graph executes on the live dataplane: run-to-completion
// is the only mode. The enum and LivePipelineOptions::exec_mode stay
// because the benchmark harness under perfbench/ sets them.
enum class ExecMode : u8 { kRtc = 1 };

struct LiveResult {
  // Delivered packets in delivery order, as raw frames packed into blocks
  // (frame_list.hpp): no per-frame heap allocation.
  FrameList outputs;
  u64 dropped = 0;
  // Error status for misuse (run()/start() on an already-used pipeline);
  // ok on every normal completion.
  Status status;
};

struct LivePipelineOptions {
  // Slots of the pipeline's own packet pool. Unused when the pipeline draws
  // from a caller's pool (every pipeline inside a ShardedDataplane).
  std::size_t pool_size = 4096;
  std::size_t magazine_size = 64;  // feeding thread's free-slot cache; 0 = none
  // Cycle accounting for the scalability view, read by the sharded
  // dataplane: its shard worker books the time its pipelines run as useful
  // (bench_shard_scaling's burst32-acct / burst32-noacct pairs gate the
  // cost at 5%). A pipeline runs inside its caller's time and keeps no
  // cycle counters of its own.
  bool cycle_accounting = true;
  // Latency-observatory sampling: stamp and stage-time 1 in N packets
  // (0 = off, the default). feed() samples pid % N; feed_packet() takes the
  // sharded director's own flow-hash decision + origin stamp off the packet.
  // Unsampled packets pay one zero-check branch per hop; sampled ones two
  // clock reads per NF hop (bench's lat32-acct/noacct pairs gate the cost).
  std::size_t latency_sample_every = 0;
  ExecMode exec_mode = ExecMode::kRtc;
};

class LivePipeline {
 public:
  // `factory` defaults to make_builtin_nf (instance id as seed). With a
  // non-null `pool` every packet is drawn from it (the sharded dataplane's
  // per-shard pool, which must outlive the pipeline) and the pipeline
  // builds no pool of its own; otherwise it owns options.pool_size slots.
  explicit LivePipeline(ServiceGraph graph,
                        std::function<std::unique_ptr<NetworkFunction>(
                            const StageNf&)> factory = {},
                        LivePipelineOptions options = {},
                        PacketPool* pool = nullptr);
  ~LivePipeline();

  LivePipeline(const LivePipeline&) = delete;
  LivePipeline& operator=(const LivePipeline&) = delete;

  // Pool slots a pipeline built from (graph, options) can hold at once: a
  // full magazine plus the one packet in flight with all its fanout
  // copies. A shared pool at least this much larger than its other holders
  // never fails a fanout copy.
  static std::size_t pool_demand(const ServiceGraph& graph,
                                 const LivePipelineOptions& options);

  // Feeds `frames` through the graph and returns once every packet has
  // been delivered or dropped. May be called once per pipeline; a second
  // call returns a LiveResult whose status carries the violation.
  LiveResult run(const std::vector<std::vector<u8>>& frames);

  // Streaming ingest, the API the sharded dataplane drives continuously:
  //   start()  arm the pipeline (once per pipeline — a second call errors,
  //            enforcing the run-once contract in code);
  //   feed()   copy one frame into a pool slot, stamp its arrival as
  //            inject_time and run it through the graph before returning;
  //            one feeding thread at a time; a frame longer than
  //            Packet::kMaxDataLen is refused (false) as a counted
  //            malformed drop;
  //   drain()  hand back the accumulated result.
  // run() is a start + feed-loop + drain composition.
  Status start();
  bool feed(std::span<const u8> frame);
  // Runs a packet already in this pipeline's pool through the graph,
  // without copying it: the sharded worker hands over the director's slot.
  // Takes ownership of `pkt` in every case (false: not running). The
  // caller's stamps ride the packet: inject_time is its arrival time (the
  // sharded worker stamps it), lat().origin_ns != 0 marks it sampled with
  // that ingest time (no pid fallback — plain feed() self-samples by
  // pid % latency_sample_every), and a valid flow() is reused by drop
  // exemplars instead of a reparse.
  bool feed_packet(Packet* pkt);
  LiveResult drain();

  NetworkFunction* nf(std::size_t segment, std::size_t index);

  const LivePipelineOptions& options() const noexcept { return opts_; }

  // The pool this pipeline draws from (its own, or the caller's).
  std::size_t pool_in_use() const { return pool_.in_use(); }
  std::size_t pool_capacity() const { return pool_.capacity(); }
  // Progress counters; safe from a telemetry thread mid-run.
  u64 dropped_so_far() const { return dropped_.read(); }
  u64 delivered_so_far() const { return delivered_.read(); }
  // Per-reason drop attribution: every path that counts a drop also tags
  // exactly one DropReason, so the sum over reasons equals
  // dropped_so_far() (the flow observatory's taxonomy invariant).
  u64 dropped_by(telemetry::DropReason reason) const;
  // Optional sink for sampled drop exemplars (5-tuple, stage, reason,
  // timestamp); the sharded dataplane points every pipeline of a shard at
  // the shard's ring. Call before start().
  void set_drop_exemplar_ring(telemetry::DropExemplarRing* ring);
  // Allocator-pressure counters: batch refills/flushes between the
  // magazine and the shared pool, and detected refcount underflows.
  // Exported via register_health for `nfp_cli top`.
  u64 magazine_refills() const {
    return mag_refill_total_.load(std::memory_order_relaxed);
  }
  u64 magazine_flushes() const {
    return mag_flush_total_.load(std::memory_order_relaxed);
  }
  u64 refcnt_underflows() const { return pool_.refcnt_underflow_total(); }
  // Stage-latency histograms of the sampled packets; zero when
  // latency_sample_every is 0. queue_depth stays 0: no rings. Safe from an
  // observatory thread mid-run.
  telemetry::ShardLatencySnapshot latency_snapshot() const;
  // Registers magazine and pool probes on `sampler` and pool / drop-spike
  // rules on `watchdog` (null to skip). Call before run(). The feeding
  // thread's own heartbeat covers the graph walk: the sharded dataplane
  // registers one per shard worker.
  // A non-empty `shard` tags every probe with a {"shard", ...} label and
  // prefixes watchdog component names so S shards coexist in one registry.
  // The pool's own probes (pool_in_use, pool_refcnt_underflow_total) and
  // its pool rule are registered only for an owned pool; a shared pool's
  // owner registers them once.
  void register_health(telemetry::HealthSampler& sampler,
                       telemetry::Watchdog* watchdog,
                       const std::string& shard = {});

 private:
  struct Nf {
    StageNf meta;
    std::unique_ptr<NetworkFunction> impl;
  };

  // Tags one dropped packet with its reason (relaxed counter) and samples
  // it into the exemplar ring when one is attached. Cold path by
  // definition — dropping is the exception.
  void note_drop(telemetry::DropReason reason, const char* stage,
                 const FlowRef* flow);
  // note_drop plus the packet's release and the drop count.
  void drop(Packet* pkt, telemetry::DropReason reason, const char* stage);

  // Stamps a packet feed() or feed_packet() admitted (pid; for a sampled
  // packet the ingest span and the first queue mark) and walks the graph
  // with it: run_graph delivers or drops it before returning.
  void enter(Packet* pkt);
  void run_graph(Packet* pkt);
  // Runs one fused parallel segment; returns the merged survivor (always
  // the version-1 packet) or nullptr when the packet dropped (the reason
  // has been tagged and every version released).
  Packet* run_parallel_segment(std::size_t seg_idx, Packet* pkt);

  // Telescoping marks of a sampled packet: open_service closes the queue
  // span (mark -> now) and opens the service span, close_service closes
  // it. No-ops for unsampled packets.
  static void open_service(Packet& pkt);
  static void close_service(Packet& pkt);
  // Records the stage spans of a sampled packet at delivery, its last
  // mark (egress = saturating remainder, so the stages telescope to total
  // by construction). No-op when origin_ns == 0.
  void finalize_latency(const Packet& pkt);

  ServiceGraph graph_;
  LivePipelineOptions opts_;
  // Null when the pipeline draws from a caller's pool; pool_ is the pool in
  // use either way.
  std::unique_ptr<PacketPool> own_pool_;
  PacketPool& pool_;
  std::vector<std::vector<Nf>> nfs_;  // [segment][nf], instance ids set
  std::vector<FanoutPlan> fanout_;    // [segment]
  std::vector<std::string> stage_;    // [segment] sequential hop's drop tag
  // Per-branch arrivals of the segment being merged; sized once for the
  // widest segment, so no per-packet allocation.
  std::vector<MergeArrival> arrivals_;

  // Magazine traffic of the feeding thread's magazine.
  std::atomic<u64> mag_refill_total_{0};
  std::atomic<u64> mag_flush_total_{0};

  // Streaming lifecycle: kNew --start()--> kRunning --drain()--> kFinished.
  // The CASes in start() and drain() are what turn the documented run-once
  // contract into an enforced one.
  enum class RunState : int { kNew = 0, kRunning = 1, kFinished = 2 };
  std::atomic<RunState> state_{RunState::kNew};
  // Feeding-thread state; one thread feeds at a time, so these need no
  // synchronisation beyond the pipeline lifecycle itself. mag_ exists
  // between start() and drain().
  std::unique_ptr<PacketMagazine> mag_;
  u64 next_pid_ = 0;

  // Stage histograms for sampled packets; null when sampling is off.
  std::unique_ptr<telemetry::StageLatencyBlock> lat_block_;
  // Feeder-written, scrape-read progress counters.
  telemetry::OwnedCounter delivered_;
  telemetry::OwnedCounter dropped_;
  // Drop-reason taxonomy: one relaxed counter per reason plus the optional
  // shared exemplar ring.
  std::array<std::atomic<u64>, telemetry::kDropReasonCount> drop_reasons_{};
  telemetry::DropExemplarRing* drop_exemplars_ = nullptr;

  // Delivered frames; touched by the feeding thread and by drain()'s
  // caller (ordered by the sharded worker join).
  FrameList outputs_;
};

}  // namespace nfp
