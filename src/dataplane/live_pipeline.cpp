#include "dataplane/live_pipeline.hpp"

#include <algorithm>
#include <cstring>

#include "telemetry/health_sampler.hpp"

namespace nfp {

LivePipeline::LivePipeline(
    ServiceGraph graph,
    std::function<std::unique_ptr<NetworkFunction>(const StageNf&)> factory,
    LivePipelineOptions options, PacketPool* pool)
    : graph_(std::move(graph)),
      opts_(options),
      own_pool_(pool != nullptr
                    ? nullptr
                    : std::make_unique<PacketPool>(
                          std::max<std::size_t>(1, options.pool_size))),
      pool_(pool != nullptr ? *pool : *own_pool_) {
  int instance = 0;
  std::size_t widest = 0;
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
    const StageNf& first = nfs.front().meta;
    stage_.push_back("nf:" + first.name + "#" +
                     std::to_string(first.instance_id));
    widest = std::max(widest, nfs.size());
    nfs_.push_back(std::move(nfs));
    fanout_.push_back(build_fanout_plan(seg));
  }
  arrivals_.resize(widest);
  if (opts_.latency_sample_every > 0) {
    lat_block_ = std::make_unique<telemetry::StageLatencyBlock>();
  }
}

LivePipeline::~LivePipeline() = default;

std::size_t LivePipeline::pool_demand(const ServiceGraph& graph,
                                      const LivePipelineOptions& options) {
  std::size_t versions = 1;  // slots one packet holds: original + copies
  for (const Segment& seg : graph.segments()) {
    versions = std::max<std::size_t>(versions, seg.num_versions);
  }
  return options.magazine_size + versions;
}

void LivePipeline::note_drop(telemetry::DropReason reason, const char* stage,
                             const FlowRef* flow) {
  drop_reasons_[static_cast<std::size_t>(reason)].fetch_add(
      1, std::memory_order_relaxed);
  if (drop_exemplars_ != nullptr) {
    drop_exemplars_->record(reason, stage, flow, telemetry::mono_now_ns());
  }
}

void LivePipeline::drop(Packet* pkt, telemetry::DropReason reason,
                        const char* stage) {
  note_drop(reason, stage, &pkt->flow());
  mag_->release(pkt);
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

void LivePipeline::finalize_latency(const Packet& pkt) {
  const LatencyStamps& lat = pkt.lat();
  if (lat.origin_ns == 0 || lat_block_ == nullptr) return;
  lat_block_->record(telemetry::LatencyStage::kIngest, lat.ingest_ns);
  lat_block_->record(telemetry::LatencyStage::kQueue, lat.queue_ns);
  lat_block_->record(telemetry::LatencyStage::kService, lat.service_ns);
  lat_block_->record(telemetry::LatencyStage::kTotal,
                     sat_sub(lat.mark_ns, lat.origin_ns));
}

NetworkFunction* LivePipeline::nf(std::size_t segment, std::size_t index) {
  return nfs_.at(segment).at(index).impl.get();
}

u64 LivePipeline::dropped_so_far() const {
  u64 total = 0;
  for (const auto& count : drop_reasons_) {
    total += count.load(std::memory_order_relaxed);
  }
  return total;
}

u64 LivePipeline::dropped_by(telemetry::DropReason reason) const {
  return drop_reasons_[static_cast<std::size_t>(reason)].load(
      std::memory_order_relaxed);
}

void LivePipeline::set_drop_exemplar_ring(telemetry::DropExemplarRing* ring) {
  drop_exemplars_ = ring;
}

telemetry::ShardLatencySnapshot LivePipeline::latency_snapshot() const {
  telemetry::ShardLatencySnapshot snap;
  if (lat_block_ == nullptr) return snap;
  for (std::size_t s = 0; s < telemetry::kLatencyStageCount; ++s) {
    snap.stages[s] +=
        lat_block_->snapshot(static_cast<telemetry::LatencyStage>(s));
  }
  return snap;
}

Status LivePipeline::start() {
  RunState expected = RunState::kNew;
  if (!state_.compare_exchange_strong(expected, RunState::kRunning,
                                      std::memory_order_acq_rel)) {
    return Status::error(
        "LivePipeline::start(): pipeline already started — each LivePipeline "
        "runs exactly once; construct a fresh instance for another run");
  }
  mag_ = std::make_unique<PacketMagazine>(
      pool_, opts_.magazine_size, &mag_refill_total_, &mag_flush_total_);
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
  Packet* pkt = mag_->alloc(frame.size());
  if (pkt == nullptr) {
    // A packet holds at most (1 + fanout copies) slots and this is the only
    // allocating thread, so a dry pool is a sizing error, not transient
    // backpressure — waiting would spin forever. Tail-drop instead.
    note_drop(telemetry::DropReason::kPoolExhausted, "feeder", nullptr);
    return false;
  }
  // The arrival stamp a shaper's token bucket refills from. Latency
  // sampling is the sharded director's flow-hash decision, so a frame fed
  // here is not sampled.
  std::memcpy(pkt->data(), frame.data(), frame.size());
  pkt->set_inject_time(telemetry::mono_now_ns());
  pkt->lat().origin_ns = 0;
  enter(pkt);
  return true;
}

bool LivePipeline::feed_packet(Packet* pkt) {
  if (state_.load(std::memory_order_acquire) != RunState::kRunning) {
    pool_.release(pkt);
    return false;
  }
  enter(pkt);
  return true;
}

void LivePipeline::enter(Packet* pkt) {
  pkt->meta().set_pid(next_pid_++ & Metadata::kMaxPid);
  LatencyStamps& lat = pkt->lat();
  // Sampling off means nowhere to land the sample — drop the stamp rather
  // than half-instrument the packet.
  if (opts_.latency_sample_every == 0) lat.origin_ns = 0;
  if (lat.origin_ns != 0) {
    // Ingest closes here: origin -> ready-to-run covers the caller's spans
    // (director pool/ring/classify). The mark opens the first queue span.
    const u64 now = telemetry::mono_now_ns();
    lat.ingest_ns = sat_sub(now, lat.origin_ns);
    lat.mark_ns = now;
  }
  run_graph(pkt);
}

Packet* LivePipeline::run_parallel_segment(std::size_t seg_idx, Packet* pkt) {
  const Segment& seg = graph_.segments()[seg_idx];
  const FanoutPlan& plan = fanout_[seg_idx];
  const auto& nfs = nfs_[seg_idx];

  pkt->meta().set_mid(seg.mid);
  pkt->meta().set_version(1);
  VersionPackets version_pkt{};
  version_pkt[1] = pkt;
  // No consumer refs: the branches run one after another on this thread,
  // so a version shared by several NFs needs no concurrent-consumer
  // refcount — each distinct version is released exactly once below.
  if (!fan_out(plan, version_pkt, *mag_, /*consumer_refs=*/false)) {
    drop(pkt, telemetry::DropReason::kPoolExhausted, "fanout");
    return nullptr;
  }

  // The fused branch-sequence: every branch NF in declaration order on its
  // version's packet. Drop intents collect out-of-band in MergeArrivals:
  // a sibling sharing a version must not clobber another's intent on the
  // packet, or the merge's drop resolution would read the last writer.
  open_service(*pkt);
  for (std::size_t k = 0; k < nfs.size(); ++k) {
    const u8 v = plan.nf_version[k];
    Packet* version = version_pkt[v];
    arrivals_[k] = MergeArrival{
        version, nfs[k].meta.priority, v, nfs[k].meta.can_drop,
        process_packet(*nfs[k].impl, *version) == NfVerdict::kDrop};
  }
  close_service(*pkt);

  Packet* merged = merge_segment(seg, {arrivals_.data(), nfs.size()});
  if (merged == nullptr) {
    note_drop(telemetry::DropReason::kNfVerdict, "merge", &pkt->flow());
  }
  for (Packet* version : version_pkt) {
    if (version != nullptr && version != merged) mag_->release(version);
  }
  return merged;
}

void LivePipeline::run_graph(Packet* pkt) {
  const auto& segs = graph_.segments();
  for (std::size_t s = 0; s < segs.size(); ++s) {
    const Segment& seg = segs[s];
    if (seg.is_parallel()) {
      pkt = run_parallel_segment(s, pkt);
      if (pkt == nullptr) return;  // dropped; reason already tagged
      continue;
    }
    // Sequential hop: a direct function call. queue = mark -> this call,
    // service = the process span.
    pkt->meta().set_mid(seg.mid);
    pkt->meta().set_version(1);
    open_service(*pkt);
    const NfVerdict verdict = process_packet(*nfs_[s][0].impl, *pkt);
    close_service(*pkt);
    if (verdict == NfVerdict::kDrop) {
      drop(pkt, telemetry::DropReason::kNfVerdict, stage_[s].c_str());
      return;
    }
  }

  // Delivered: the last mark closed the last service span, and total ends
  // there.
  outputs_.push(pkt->bytes());
  finalize_latency(*pkt);
  mag_->release(pkt);
  delivered_.increment();
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
  LiveResult result;
  result.outputs = std::move(outputs_);
  result.dropped = dropped_so_far();
  mag_.reset();  // returns its cached slots to the pool
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
