#include "dataplane/live_pipeline.hpp"

#include <algorithm>
#include <cstring>

#include "common/cpu_affinity.hpp"
#include "dataplane/live_executor.hpp"
#include "telemetry/health_sampler.hpp"

namespace nfp {

namespace {

// The options a pipeline over `graph` actually runs with: clamped knobs
// and the concrete execution mode (what options() reports).
LivePipelineOptions resolve_options(const ServiceGraph& graph,
                                    LivePipelineOptions opts) {
  opts.ring_depth = std::max<std::size_t>(4, opts.ring_depth);
  opts.burst_size = std::clamp<std::size_t>(opts.burst_size, 1, opts.ring_depth);
  // Bound the in-flight window well below the ring depth so a full ring
  // can never wedge the merger thread against an NF thread (the merger
  // re-enters segments and would otherwise spin on a ring an NF cannot
  // drain because its own output ring is full). Each in-flight packet puts
  // at most one entry on any single ring, so window <= depth/2 keeps every
  // ring drainable.
  if (opts.in_flight_window == 0) opts.in_flight_window = opts.ring_depth / 4;
  opts.in_flight_window =
      std::clamp<std::size_t>(opts.in_flight_window, 1, opts.ring_depth / 2);

  // Resolve the execution mode: auto fuses sequential graphs (rings would
  // only add hand-off cost between single-consumer hops) and keeps
  // parallel graphs pipelined, where cross-thread execution is the paper's
  // actual mechanism.
  if (opts.exec_mode == ExecMode::kAuto) {
    opts.exec_mode =
        graph.is_sequential() ? ExecMode::kRtc : ExecMode::kPipelined;
  }
  return opts;
}

}  // namespace

const char* exec_mode_name(ExecMode mode) noexcept {
  switch (mode) {
    case ExecMode::kPipelined: return "pipelined";
    case ExecMode::kRtc: return "rtc";
    case ExecMode::kAuto: return "auto";
  }
  return "pipelined";
}

std::optional<ExecMode> parse_exec_mode(std::string_view name) noexcept {
  if (name == "pipelined") return ExecMode::kPipelined;
  if (name == "rtc") return ExecMode::kRtc;
  if (name == "auto") return ExecMode::kAuto;
  return std::nullopt;
}

LivePipeline::LivePipeline(
    ServiceGraph graph,
    std::function<std::unique_ptr<NetworkFunction>(const StageNf&)> factory,
    LivePipelineOptions options, PacketPool* pool)
    : graph_(std::move(graph)),
      opts_(resolve_options(graph_, options)),
      own_pool_(pool != nullptr
                    ? nullptr
                    : std::make_unique<PacketPool>(
                          std::max<std::size_t>(1, options.pool_size))),
      pool_(pool != nullptr ? *pool : *own_pool_) {
  int instance = 0;
  for (Segment& seg : graph_.segments()) {
    std::vector<Nf> nfs;
    for (StageNf& meta : seg.nfs) {
      meta.instance_id = instance++;
      Nf nf{meta, factory ? factory(meta)
                          : make_builtin_nf(
                                meta.name,
                                static_cast<u64>(meta.instance_id) + 1)};
      if (nf.impl == nullptr) nf.impl = make_builtin_nf("monitor");
      nfs.push_back(std::move(nf));
    }
    nfs_.push_back(std::move(nfs));
    fanout_.push_back(build_fanout_plan(seg));
  }
  exec_ = opts_.exec_mode == ExecMode::kRtc ? make_rtc_executor(*this)
                                            : make_pipelined_executor(*this);
}

LivePipeline::~LivePipeline() = default;

std::size_t LivePipeline::pool_demand(const ServiceGraph& graph,
                                      const LivePipelineOptions& options) {
  const LivePipelineOptions opts = resolve_options(graph, options);
  std::size_t nfs = 0;
  std::size_t versions = 1;  // slots one packet holds: original + copies
  for (const Segment& seg : graph.segments()) {
    nfs += seg.nfs.size();
    versions = std::max<std::size_t>(versions, seg.num_versions);
  }
  // rtc: one magazine, one packet at a time on the caller's thread.
  // pipelined: a magazine per thread (feeder, every NF, merger) and up to
  // in_flight_window packets inside the graph.
  const bool rtc = opts.exec_mode == ExecMode::kRtc;
  const std::size_t magazines = rtc ? 1 : nfs + 2;
  const std::size_t packets = rtc ? 1 : opts.in_flight_window;
  return magazines * opts.magazine_size + packets * versions;
}

PacketMagazine LivePipeline::make_magazine() {
  return PacketMagazine(pool_, opts_.magazine_size, &mag_refill_total_,
                        &mag_flush_total_);
}

void LivePipeline::maybe_pin_current_thread() {
  if (opts_.pin_core < 0) return;
  affinity_attempts_.fetch_add(1, std::memory_order_relaxed);
  if (pin_current_thread_to_core(static_cast<std::size_t>(opts_.pin_core))) {
    affinity_ok_.fetch_add(1, std::memory_order_relaxed);
  }
}

void LivePipeline::note_drop(telemetry::DropReason reason, const char* stage,
                             const FlowRef* flow) {
  drop_reasons_[static_cast<std::size_t>(reason)].fetch_add(
      1, std::memory_order_relaxed);
  if (drop_exemplars_ != nullptr) {
    drop_exemplars_->record(reason, stage, flow, telemetry::mono_now_ns());
  }
}

void LivePipeline::open_service(Packet& pkt) {
  LatencyStamps& lat = pkt.lat();
  if (lat.origin_ns == 0) return;
  const u64 now = telemetry::mono_now_ns();
  lat.queue_ns += sat_sub(now, lat.mark_ns);
  lat.mark_ns = now;
}

void LivePipeline::close_service(Packet& pkt) {
  LatencyStamps& lat = pkt.lat();
  if (lat.origin_ns == 0) return;
  const u64 now = telemetry::mono_now_ns();
  lat.service_ns += sat_sub(now, lat.mark_ns);
  lat.mark_ns = now;
}

NfVerdict LivePipeline::run_hop(NetworkFunction& nf, Packet& pkt) {
  // queue = mark -> pre-process clock (includes in-burst head-of-line
  // time), service = the process span.
  open_service(pkt);
  const NfVerdict verdict = process_packet(nf, pkt);
  close_service(pkt);
  return verdict;
}

void LivePipeline::finalize_latency(const Packet& pkt,
                                    telemetry::StageLatencyBlock* block) {
  const LatencyStamps& lat = pkt.lat();
  if (lat.origin_ns == 0 || block == nullptr) return;
  const u64 total = sat_sub(lat.mark_ns, lat.origin_ns);
  const u64 accounted =
      lat.ingest_ns + lat.queue_ns + lat.service_ns + lat.merge_ns;
  block->record(telemetry::LatencyStage::kIngest, lat.ingest_ns);
  block->record(telemetry::LatencyStage::kQueue, lat.queue_ns);
  block->record(telemetry::LatencyStage::kService, lat.service_ns);
  // merge_wait only counts packets that actually crossed a cross-thread
  // merge point: a sequential path or an rtc fused merge contributes no
  // sample rather than a zero, so the stage's count doubles as "packets
  // merged" in reports.
  if (lat.merges != 0) {
    block->record(telemetry::LatencyStage::kMergeWait, lat.merge_ns);
  }
  block->record(telemetry::LatencyStage::kEgress, sat_sub(total, accounted));
  block->record(telemetry::LatencyStage::kTotal, total);
}

void LivePipeline::fold_latency(telemetry::ShardLatencySnapshot& snap,
                                const telemetry::StageLatencyBlock* block) {
  if (block == nullptr) return;
  for (std::size_t s = 0; s < telemetry::kLatencyStageCount; ++s) {
    snap.stages[s] += block->snapshot(static_cast<telemetry::LatencyStage>(s));
  }
}

NetworkFunction* LivePipeline::nf(std::size_t segment, std::size_t index) {
  return nfs_.at(segment).at(index).impl.get();
}

u64 LivePipeline::dropped_by(telemetry::DropReason reason) const {
  return drop_reasons_[static_cast<std::size_t>(reason)].load(
      std::memory_order_relaxed);
}

void LivePipeline::set_drop_exemplar_ring(telemetry::DropExemplarRing* ring) {
  drop_exemplars_ = ring;
}

// feed() counts its refusals of malformed frames itself; every other drop
// is the executor's.
u64 LivePipeline::dropped_so_far() {
  return exec_->dropped() + dropped_by(telemetry::DropReason::kMalformed);
}

u64 LivePipeline::delivered_so_far() { return exec_->delivered(); }

telemetry::ShardScalabilitySnapshot LivePipeline::scalability_snapshot() {
  telemetry::ShardScalabilitySnapshot snap = exec_->scalability();
  snap.delivered = delivered_so_far();
  snap.dropped = dropped_so_far();
  if (own_pool_ != nullptr) snap.pool_cas_retries = pool_.cas_retry_total();
  return snap;
}

telemetry::ShardLatencySnapshot LivePipeline::latency_snapshot() const {
  return exec_->latency();
}

u64 LivePipeline::feeder_wait_ns() const { return exec_->feeder_wait_ns(); }

void LivePipeline::register_health(telemetry::HealthSampler& sampler,
                                   telemetry::Watchdog* watchdog,
                                   const std::string& shard) {
  // With a shard tag every probe carries a {"shard", N} label and every
  // watchdog component gets a "shardN/" prefix, so S pipelines share one
  // registry without metric collisions.
  telemetry::Labels plane_labels{{"plane", "live"}};
  if (!shard.empty()) plane_labels.emplace_back("shard", shard);
  const std::string prefix = shard.empty() ? "" : "shard" + shard + "/";

  exec_->register_workers(sampler, watchdog, plane_labels, prefix);
  // Allocator pressure: magazine↔pool batch traffic and refcount misuse.
  sampler.add_probe("pool_magazine_refill_total", plane_labels, [this] {
    return static_cast<double>(magazine_refills());
  });
  sampler.add_probe("pool_magazine_flush_total", plane_labels, [this] {
    return static_cast<double>(magazine_flushes());
  });
  if (own_pool_ != nullptr) {
    sampler.add_probe("pool_in_use", plane_labels, [this] {
      return static_cast<double>(pool_in_use());
    });
    sampler.add_probe("pool_refcnt_underflow_total", plane_labels,
                      [this] {
                        return static_cast<double>(refcnt_underflows());
                      });
  }
  if (watchdog != nullptr) {
    if (own_pool_ != nullptr) {
      watchdog->watch_pool(
          prefix + "live-pool",
          [this] { return static_cast<u64>(pool_in_use()); },
          pool_capacity());
    }
    watchdog->watch_drop_counter(prefix + "live-pipeline",
                                 [this] { return dropped_so_far(); });
  }
}

Status LivePipeline::start() {
  RunState expected = RunState::kNew;
  if (!state_.compare_exchange_strong(expected, RunState::kRunning,
                                      std::memory_order_acq_rel)) {
    return Status::error(
        "LivePipeline::start(): pipeline already started — each LivePipeline "
        "runs exactly once; construct a fresh instance for another run");
  }
  feeder_mag_ = std::make_unique<PacketMagazine>(
      pool_, opts_.magazine_size, &mag_refill_total_, &mag_flush_total_);
  exec_->start();
  return Status::ok();
}

bool LivePipeline::feed(std::span<const u8> frame) {
  if (state_.load(std::memory_order_acquire) != RunState::kRunning) {
    return false;
  }
  if (frame.size() > Packet::kMaxDataLen) {
    // Longer than a slot's data area: refused before a slot is taken.
    note_drop(telemetry::DropReason::kMalformed, "feeder", nullptr);
    return false;
  }
  // One clock read stamps the arrival (inject_time, which a shaper's token
  // bucket refills from) and, when sampled, the latency origin. Standalone
  // sampling: no flow hash at this layer, so sample by pid.
  const u64 now = telemetry::mono_now_ns();
  const bool sampled = opts_.latency_sample_every != 0 &&
                       next_pid_ % opts_.latency_sample_every == 0;
  exec_->admit();
  Packet* pkt = exec_->alloc(frame.size());
  if (pkt == nullptr) return false;
  std::memcpy(pkt->data(), frame.data(), frame.size());
  pkt->set_inject_time(now);
  pkt->lat().origin_ns = sampled ? now : 0;
  return enter(pkt);
}

bool LivePipeline::feed_packet(Packet* pkt) {
  if (state_.load(std::memory_order_acquire) != RunState::kRunning) {
    pool_.release(pkt);
    return false;
  }
  exec_->admit();
  return enter(pkt);
}

bool LivePipeline::enter(Packet* pkt) {
  pkt->meta().set_pid(next_pid_++ & Metadata::kMaxPid);
  LatencyStamps& lat = pkt->lat();
  // Sampling off means nowhere to land the sample — drop the stamp rather
  // than half-instrument the packet.
  if (opts_.latency_sample_every == 0) lat.origin_ns = 0;
  if (lat.origin_ns != 0) {
    // Ingest closes here: origin -> ready-to-run covers the caller's spans
    // (director pool/ring/classify) plus this feed's admission and alloc
    // backpressure. The mark opens the first queue span.
    const u64 now = telemetry::mono_now_ns();
    lat.ingest_ns = sat_sub(now, lat.origin_ns);
    lat.mark_ns = now;
  }
  return exec_->run(pkt);
}

LiveResult LivePipeline::drain() {
  RunState expected = RunState::kRunning;
  if (!state_.compare_exchange_strong(expected, RunState::kFinished,
                                      std::memory_order_acq_rel)) {
    LiveResult bad;
    bad.status = Status::error(
        "LivePipeline::drain(): pipeline is not running (call start() first; "
        "drain() may only be called once)");
    return bad;
  }
  LiveResult result = exec_->finish();
  result.dropped += dropped_by(telemetry::DropReason::kMalformed);
  feeder_mag_.reset();  // returns its cached slots to the pool
  return result;
}

LiveResult LivePipeline::run(const std::vector<std::vector<u8>>& frames) {
  if (Status st = start(); !st.is_ok()) {
    LiveResult bad;
    bad.status = std::move(st);
    return bad;
  }
  for (const auto& frame : frames) {
    feed(std::span<const u8>(frame.data(), frame.size()));
  }
  return drain();
}

}  // namespace nfp
