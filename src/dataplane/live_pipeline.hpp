// Live execution mode: the NFP dataplane on real OS threads.
//
// The simulated-time dataplane (NfpDataplane) is the measurement vehicle;
// this pipeline is the concurrency proof: the same compiled service graphs
// run on real packets, really copied, processed and merged, in one of two
// execution modes (ExecMode below). LivePipeline owns what both modes
// share; the rest sits behind one internal interface (live_executor.hpp)
// with one implementation per mode, and both use the segment kernel the
// simulated plane runs (fanout_plan.hpp, merge_ops.hpp).
//
// The pipelined hot path is built on the DPDK idioms of the paper's
// infrastructure layer (§5, Fig 3):
//   * burst ring I/O — packets move between threads in bursts with one
//     index publish per burst (SpscRing::push_burst/pop_burst),
//   * per-thread magazine caches over a lock-free packet pool — alloc,
//     release and add_ref never take a lock (PacketMagazine / PacketPool),
//   * precomputed fanout plans — each segment's version-copy list and
//     per-version reference counts are resolved at construction, not per
//     packet,
//   * a sharded, allocation-free merge table — one open-addressing
//     MergeTable per parallel segment with fixed-capacity arrival rows,
//   * batched result delivery — completed outputs and drops are buffered
//     thread-locally and the result lock is taken once per burst.
// bench_hotpath_throughput measures it.
#pragma once

#include <array>
#include <atomic>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.hpp"
#include "dataplane/fanout_plan.hpp"
#include "graph/service_graph.hpp"
#include "nfs/nf.hpp"
#include "packet/packet_magazine.hpp"
#include "packet/packet_pool.hpp"
#include "telemetry/flow_observatory.hpp"
#include "telemetry/latency_observatory.hpp"
#include "telemetry/scalability_profiler.hpp"

namespace nfp {

namespace telemetry {
class HealthSampler;
class Watchdog;
}  // namespace telemetry

// How the compiled graph executes on the live dataplane:
//   kPipelined  one thread per NF plus a merger, connected by SPSC burst
//               rings — the paper's one-container-per-core deployment and
//               the mode every PR up to now ran exclusively;
//   kRtc        fused run-to-completion — the caller's thread walks the
//               graph inline per packet (rtc_executor.cpp): sequential hops are
//               direct calls, parallel segments fused branch-sequences
//               with an inline merge. No rings, no merger thread;
//   kAuto       resolved per graph at construction: sequential graphs take
//               kRtc (a pure win — the rings only added hand-off cost),
//               graphs with parallel segments keep kPipelined, whose
//               cross-thread execution is the paper's actual latency
//               mechanism. DESIGN.md "Execution modes" has the full rule.
enum class ExecMode : u8 { kPipelined = 0, kRtc = 1, kAuto = 2 };

// "pipelined" / "rtc" / "auto" (kAuto only appears pre-resolution).
const char* exec_mode_name(ExecMode mode) noexcept;
// Parses the CLI spelling; nullopt for anything else.
std::optional<ExecMode> parse_exec_mode(std::string_view name) noexcept;

struct LiveResult {
  // Delivered packets in merger-completion order, as raw frames.
  std::vector<std::vector<u8>> outputs;
  u64 dropped = 0;
  // Error status for misuse (run()/start() on an already-used pipeline);
  // ok on every normal completion.
  Status status;
};

// Hot-path knobs, constructor-configurable so benches can sweep them.
struct LivePipelineOptions {
  std::size_t ring_depth = 256;     // per-NF RX/TX ring capacity (pow2)
  // Slots of the pipeline's own packet pool. Unused when the pipeline draws
  // from a caller's pool (every pipeline inside a ShardedDataplane).
  std::size_t pool_size = 4096;
  std::size_t in_flight_window = 0; // 0 => ring_depth / 4
  std::size_t magazine_size = 64;   // per-thread free-slot cache; 0 = none
  std::size_t burst_size = 32;      // ring burst granularity
  // When >= 0, every pipeline thread (NFs + merger) pins itself to this
  // core via cpu_affinity — the sharded dataplane's shared-nothing
  // one-core-per-shard placement. Pin failures degrade to unpinned
  // threads; affinity_applied() reports the outcome.
  int pin_core = -1;
  // Per-thread cycle accounting for the scalability profiler. On by
  // default: the hot-path cost is one relaxed add to a thread-private
  // cacheline per loop iteration (bench_hotpath_throughput's noacct series
  // measures it). Off disables all bucket/wait attribution.
  bool cycle_accounting = true;
  // Latency-observatory sampling: stamp and stage-time 1 in N packets
  // (0 = off, the default). feed() samples pid % N; feed_packet() takes the
  // sharded director's own flow-hash decision + origin stamp off the packet.
  // Unsampled packets pay one zero-check branch per hop; sampled ones two
  // clock reads per NF hop (bench's lat32-acct/noacct pair gates the cost).
  std::size_t latency_sample_every = 0;
  // Execution mode (see ExecMode above). kAuto resolves at construction;
  // exec_mode() reports the resolved choice.
  ExecMode exec_mode = ExecMode::kPipelined;
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

  // Pool slots a pipeline built from (graph, options) can hold at once:
  // a full magazine on every thread that allocates or releases, plus every
  // in-flight packet with all its fanout copies. A shared pool at least
  // this much larger than its other holders never fails a fanout copy.
  static std::size_t pool_demand(const ServiceGraph& graph,
                                 const LivePipelineOptions& options);

  // Feeds `frames` through the graph and blocks until every packet has been
  // delivered or dropped. May be called once per pipeline; a second call
  // returns a LiveResult whose status carries the violation.
  LiveResult run(const std::vector<std::vector<u8>>& frames);

  // Streaming ingest, the API the sharded dataplane drives continuously:
  //   start()  spawn the worker threads (once per pipeline — a second call
  //            errors, enforcing the old run()-once contract in code);
  //   feed()   copy one frame into a pool slot (blocking under the
  //            in-flight window and pool backpressure) and feed_packet()
  //            it; single-ingest-thread discipline — only one thread may
  //            feed, segment-0 rings are SPSC;
  //   drain()  wait for every in-flight packet, stop and join the workers,
  //            and hand back the accumulated result.
  // run() is now a start + feed-loop + drain composition.
  Status start();
  bool feed(std::span<const u8> frame);
  // Runs a packet already in this pipeline's pool through the graph,
  // without copying it: the sharded worker hands over the director's slot.
  // Takes ownership of `pkt` in every case (false: not running, or a
  // counted pool_exhausted drop). The caller's stamps ride the packet:
  // lat().origin_ns != 0 marks it sampled with that ingest time (no pid
  // fallback — plain feed() self-samples by pid % latency_sample_every),
  // and a valid flow() is reused by drop exemplars instead of a reparse.
  bool feed_packet(Packet* pkt);
  LiveResult drain();

  NetworkFunction* nf(std::size_t segment, std::size_t index);

  const LivePipelineOptions& options() const noexcept { return opts_; }
  // The resolved execution mode (never kAuto after construction).
  ExecMode exec_mode() const noexcept { return opts_.exec_mode; }

  // The pool this pipeline draws from (its own, or the caller's).
  std::size_t pool_in_use() const { return pool_.in_use(); }
  std::size_t pool_capacity() const { return pool_.capacity(); }
  u64 dropped_so_far();
  u64 delivered_so_far();
  // Per-reason drop attribution: every path that counts a drop into the
  // result also tags exactly one DropReason, so the sum over reasons
  // equals dropped_so_far() once the pipeline is drained (the flow
  // observatory's taxonomy invariant).
  u64 dropped_by(telemetry::DropReason reason) const;
  // Optional sink for sampled drop exemplars (5-tuple, stage, reason,
  // timestamp); the sharded dataplane points every pipeline of a shard at
  // the shard's ring. Call before start().
  void set_drop_exemplar_ring(telemetry::DropExemplarRing* ring);
  // Allocator-pressure counters: batch refills/flushes between the
  // per-thread magazines and the shared pool, and detected refcount
  // underflows. Exported via register_health for `nfp_cli top`.
  u64 magazine_refills() const {
    return mag_refill_total_.load(std::memory_order_relaxed);
  }
  u64 magazine_flushes() const {
    return mag_flush_total_.load(std::memory_order_relaxed);
  }
  u64 refcnt_underflows() const { return pool_.refcnt_underflow_total(); }
  // Pin outcome under options().pin_core: true once every spawned thread
  // that attempted a pin succeeded (false with pin_core < 0, on platforms
  // without affinity support, or when the kernel rejected the mask).
  bool affinity_applied() const {
    const u64 attempts = affinity_attempts_.load(std::memory_order_relaxed);
    return attempts > 0 &&
           affinity_ok_.load(std::memory_order_relaxed) == attempts;
  }
  u64 affinity_attempts() const {
    return affinity_attempts_.load(std::memory_order_relaxed);
  }
  // Scrape-time fold of every thread's cycle buckets plus the ring
  // contention evidence and, when the pipeline owns its pool, the pool's
  // (the owner of a shared pool counts it once). Zeroed buckets when
  // cycle_accounting is off. Safe from a profiler/sampler thread while the
  // pipeline runs.
  telemetry::ShardScalabilitySnapshot scalability_snapshot();
  // Scrape-time fold of every thread's stage-latency histograms plus the
  // current ring occupancy (queue_depth). Zero histograms when
  // latency_sample_every is 0. Safe from an observatory thread while the
  // pipeline runs.
  telemetry::ShardLatencySnapshot latency_snapshot() const;
  // Feed-side wait time (in-flight window + pool alloc + segment-0 ring),
  // already inside the snapshot's ring/pool buckets; exposed separately so
  // the sharded dataplane can carve it out of its worker's useful time.
  u64 feeder_wait_ns() const;
  // Registers ring/pool/heartbeat probes on `sampler` and stall / pool /
  // drop-spike rules on `watchdog` (null to skip). Call before run().
  // Pipelined workers (every NF thread, then the merger) each get a
  // heartbeat, a packet count and ring depths; a worker wedged inside an
  // NF's process() stops beating. Rtc spawns no workers: the caller's own
  // heartbeat covers the inline execution.
  // A non-empty `shard` tags every probe with a {"shard", ...} label and
  // prefixes watchdog component names so S shards coexist in one registry.
  // The pool's own probes (pool_in_use, pool_refcnt_underflow_total) and
  // its pool rule are registered only for an owned pool; a shared pool's
  // owner registers them once.
  void register_health(telemetry::HealthSampler& sampler,
                       telemetry::Watchdog* watchdog,
                       const std::string& shard = {});

 private:
  class Executor;           // the mode-specific half: live_executor.hpp
  class PipelinedExecutor;  // pipelined_executor.cpp
  class RtcExecutor;        // rtc_executor.cpp
  static std::unique_ptr<Executor> make_pipelined_executor(LivePipeline& owner);
  static std::unique_ptr<Executor> make_rtc_executor(LivePipeline& owner);

  struct Nf {
    StageNf meta;
    std::unique_ptr<NetworkFunction> impl;
  };

  // A magazine over pool_ for the calling thread, wired to the pipeline's
  // refill/flush counters.
  PacketMagazine make_magazine();

  // Applies opts_.pin_core to the calling pipeline thread, keeping the
  // attempt/success tally behind affinity_applied().
  void maybe_pin_current_thread();

  // Stamps a packet feed() or feed_packet() admitted (pid; for a sampled
  // packet the ingest span and the first queue mark) and hands it to the
  // executor.
  bool enter(Packet* pkt);

  // Tags one dropped packet with its reason (relaxed counter) and samples
  // it into the exemplar ring when one is attached. Cold path by
  // definition — dropping is the exception.
  void note_drop(telemetry::DropReason reason, const char* stage,
                 const FlowRef* flow);

  // Telescoping marks of a sampled packet whose stamps this thread owns:
  // open_service closes the queue span (mark -> now) and opens the service
  // span, close_service closes it. No-ops for unsampled packets.
  static void open_service(Packet& pkt);
  static void close_service(Packet& pkt);
  // The stamped sequential hop: open_service, process, close_service.
  static NfVerdict run_hop(NetworkFunction& nf, Packet& pkt);
  // Records all six stage spans for a sampled packet into `block` at
  // delivery, its last mark (egress = saturating remainder, so the stages
  // telescope to total by construction). No-op when origin_ns == 0.
  static void finalize_latency(const Packet& pkt,
                               telemetry::StageLatencyBlock* block);
  // Adds `block`'s stage histograms into `snap` (null: nothing).
  static void fold_latency(telemetry::ShardLatencySnapshot& snap,
                           const telemetry::StageLatencyBlock* block);

  ServiceGraph graph_;
  LivePipelineOptions opts_;
  // Null when the pipeline draws from a caller's pool; pool_ is the pool in
  // use either way.
  std::unique_ptr<PacketPool> own_pool_;
  PacketPool& pool_;
  std::vector<std::vector<Nf>> nfs_;  // [segment][nf], instance ids set
  std::vector<FanoutPlan> fanout_;    // [segment]

  // Aggregated magazine traffic across all pipeline threads.
  std::atomic<u64> mag_refill_total_{0};
  std::atomic<u64> mag_flush_total_{0};

  // Streaming lifecycle: kNew --start()--> kRunning --drain()--> kFinished.
  // The CASes in start() and drain() are what turn the documented run-once
  // contract into an enforced one.
  enum class RunState : int { kNew = 0, kRunning = 1, kFinished = 2 };
  std::atomic<RunState> state_{RunState::kNew};
  // Ingest-thread state; feed() is single-threaded by contract, so these
  // need no synchronisation beyond the pipeline lifecycle itself.
  std::unique_ptr<PacketMagazine> feeder_mag_;
  u64 next_pid_ = 0;

  std::atomic<u64> affinity_attempts_{0};
  std::atomic<u64> affinity_ok_{0};

  // Drop-reason taxonomy: one relaxed counter per reason (any pipeline
  // thread may drop) plus the optional shared exemplar ring.
  std::array<std::atomic<u64>, telemetry::kDropReasonCount> drop_reasons_{};
  telemetry::DropExemplarRing* drop_exemplars_ = nullptr;

  // Last member: destroyed first, so pipelined workers are joined while
  // the state above is still alive.
  std::unique_ptr<Executor> exec_;
};

}  // namespace nfp
