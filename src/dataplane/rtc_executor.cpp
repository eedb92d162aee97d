#include "dataplane/rtc_executor.hpp"

#include <cstring>

#include "dataplane/live_pipeline.hpp"
#include "dataplane/merge_ops.hpp"
#include "packet/packet_view.hpp"
#include "telemetry/health_sampler.hpp"

namespace nfp {

namespace {
inline u64 sat_sub(u64 a, u64 b) noexcept { return a >= b ? a - b : 0; }
}  // namespace

RtcExecutor::RtcExecutor(
    ServiceGraph& graph,
    const std::function<std::unique_ptr<NetworkFunction>(const StageNf&)>&
        factory,
    const LivePipelineOptions& opts, PacketPool& pool,
    std::atomic<u64>* mag_refill_total, std::atomic<u64>* mag_flush_total)
    : graph_(graph),
      opts_(opts),
      pool_(pool),
      mag_refill_total_(mag_refill_total),
      mag_flush_total_(mag_flush_total) {
  // Same instance-id assignment as the pipelined constructor, so factories
  // and drop exemplars see identical NF identities in both modes.
  int instance = 0;
  for (Segment& seg : graph_.segments()) {
    std::vector<RtcNf> nfs;
    for (StageNf& meta : seg.nfs) {
      meta.instance_id = instance++;
      RtcNf nf;
      nf.meta = meta;
      nf.impl = factory ? factory(meta)
                        : make_builtin_nf(
                              meta.name,
                              static_cast<u64>(meta.instance_id) + 1);
      if (nf.impl == nullptr) nf.impl = make_builtin_nf("monitor");
      nf.stage =
          "rtc:" + meta.name + "#" + std::to_string(meta.instance_id);
      nfs.push_back(std::move(nf));
    }
    segments_.push_back(std::move(nfs));
    fanout_.push_back(build_fanout_plan(seg));
  }
  if (opts_.latency_sample_every > 0) {
    lat_block_ = std::make_unique<telemetry::StageLatencyBlock>();
  }
}

RtcExecutor::~RtcExecutor() {
  if (mag_ != nullptr) mag_->drain();
}

void RtcExecutor::note_drop(telemetry::DropReason reason, const char* stage,
                            const FlowRef* flow) {
  drop_reasons_[static_cast<std::size_t>(reason)].fetch_add(
      1, std::memory_order_relaxed);
  if (drop_exemplars_ != nullptr) {
    drop_exemplars_->record(reason, stage, flow, telemetry::mono_now_ns());
  }
}

Status RtcExecutor::start() {
  RunState expected = RunState::kNew;
  if (!state_.compare_exchange_strong(expected, RunState::kRunning,
                                      std::memory_order_acq_rel)) {
    return Status::error(
        "RtcExecutor::start(): executor already started — each "
        "run-to-completion executor runs exactly once; construct a fresh "
        "instance for another run");
  }
  mag_ = std::make_unique<PacketMagazine>(pool_, opts_.magazine_size,
                                          mag_refill_total_,
                                          mag_flush_total_, nullptr);
  return Status::ok();
}

bool RtcExecutor::feed(std::span<const u8> frame) {
  if (state_.load(std::memory_order_acquire) != RunState::kRunning) {
    return false;
  }
  // Standalone sampling: no flow hash at this layer, so sample by pid —
  // the same heuristic as the pipelined feed().
  u64 origin = 0;
  if (opts_.latency_sample_every != 0 &&
      next_pid_ % opts_.latency_sample_every == 0) {
    origin = telemetry::mono_now_ns();
  }
  Packet* pkt = mag_->alloc(frame.size());
  if (pkt == nullptr) {
    // Run-to-completion holds at most (1 + fanout copies) slots and this is
    // the only allocating thread, so a dry pool is a sizing error, not
    // transient backpressure — blocking here would spin forever. Tail-drop
    // with the taxonomy reason instead.
    note_drop(telemetry::DropReason::kPoolExhausted, "rtc:feeder", nullptr);
    dropped_.increment();
    return false;
  }
  std::memcpy(pkt->data(), frame.data(), frame.size());
  pkt->lat().origin_ns = origin;
  return feed_packet(pkt);
}

bool RtcExecutor::feed_packet(Packet* pkt) {
  if (state_.load(std::memory_order_acquire) != RunState::kRunning) {
    pool_.release(pkt);
    return false;
  }
  pkt->meta().set_pid(next_pid_++ & Metadata::kMaxPid);
  LatencyStamps& lat = pkt->lat();
  if (lat_block_ == nullptr) lat.origin_ns = 0;
  if (lat.origin_ns != 0) {
    // Ingest closes here, as on the pipelined path: origin -> ready-to-run
    // covers the caller's spans (director pool/ring/classify). The mark
    // opens the first queue span.
    const u64 now = telemetry::mono_now_ns();
    lat.ingest_ns = sat_sub(now, lat.origin_ns);
    lat.mark_ns = now;
  }
  execute(pkt);
  return true;
}

Packet* RtcExecutor::run_parallel_segment(std::size_t seg_idx, Packet* pkt) {
  const Segment& seg = graph_.segments()[seg_idx];
  const FanoutPlan& plan = fanout_[seg_idx];
  auto& nfs = segments_[seg_idx];
  PacketMagazine& mag = *mag_;

  pkt->meta().set_mid(seg.mid);
  pkt->meta().set_version(1);
  pkt->set_nil(false);

  std::array<Packet*, Metadata::kMaxVersion + 2> version_pkt{};
  version_pkt[1] = pkt;
  for (const FanoutPlan::Copy& c : plan.copies) {
    Packet* copy =
        c.full ? mag.clone_full(*pkt) : mag.clone_header_only(*pkt);
    if (copy == nullptr) {
      for (const FanoutPlan::Copy& made : plan.copies) {
        if (made.version == c.version) break;
        mag.release(version_pkt[made.version]);
      }
      note_drop(telemetry::DropReason::kPoolExhausted, "rtc:fanout",
                &pkt->flow());
      mag.release(pkt);
      dropped_.increment();
      return nullptr;
    }
    copy->meta().set_version(c.version);
    copy->set_nil(false);
    version_pkt[c.version] = copy;
  }
  // No extra references, unlike enter_segment: the branches run one after
  // another on this thread, so a version shared by several NFs needs no
  // concurrent-consumer refcount — each distinct version is released
  // exactly once after the merge.

  const bool sampled = pkt->lat().origin_ns != 0;
  if (sampled) {
    const u64 t0 = telemetry::mono_now_ns();
    pkt->lat().queue_ns += sat_sub(t0, pkt->lat().mark_ns);
    pkt->lat().mark_ns = t0;
  }
  // The fused branch-sequence: every branch NF in declaration order on its
  // version's packet. Drop intents collect out-of-band like the pipelined
  // envelopes — siblings sharing a version must not race on the nil bit,
  // and here "race" degenerates to "clobber in order", which is just as
  // wrong for the merge's drop resolution.
  intent_.assign(nfs.size(), 0);
  for (std::size_t k = 0; k < nfs.size(); ++k) {
    Packet* version = version_pkt[plan.nf_version[k]];
    PacketView view(*version);
    NfVerdict verdict = NfVerdict::kPass;
    if (view.valid()) verdict = nfs[k].impl->process(view);
    ++nfs[k].processed;
    intent_[k] = verdict == NfVerdict::kDrop ? 1 : 0;
  }
  if (sampled) {
    // The whole fused sequence is service time. merge_ns / merges stay
    // untouched: an inline merge has no cross-thread wait, so the
    // merge_wait stage records no sample for this packet (its count keeps
    // meaning "packets that waited at a merge point").
    const u64 t1 = telemetry::mono_now_ns();
    pkt->lat().service_ns += sat_sub(t1, pkt->lat().mark_ns);
    pkt->lat().mark_ns = t1;
  }

  // Drop resolution, same policies as the merger thread (§5.2's nil-packet
  // semantics): any-drop ORs the intents; priority takes the intent of the
  // highest-priority can_drop branch.
  bool dropped = false;
  if (seg.merge.drop_resolution == DropResolution::kAnyDrop) {
    for (const u8 i : intent_) dropped |= i != 0;
  } else {
    i32 best = -1;
    for (std::size_t k = 0; k < nfs.size(); ++k) {
      if (nfs[k].meta.can_drop && nfs[k].meta.priority > best) {
        best = nfs[k].meta.priority;
        dropped = intent_[k] != 0;
      }
    }
  }

  Packet* merged = nullptr;
  if (!dropped) {
    pairs_.clear();
    for (std::size_t v = 1; v < version_pkt.size(); ++v) {
      if (version_pkt[v] != nullptr) {
        pairs_.emplace_back(version_pkt[v], static_cast<u8>(v));
      }
    }
    merged = apply_merge_operations(seg, pairs_);
  }
  if (merged == nullptr) {
    note_drop(telemetry::DropReason::kNfVerdict, "rtc:merge", &pkt->flow());
  }
  for (std::size_t v = 1; v < version_pkt.size(); ++v) {
    if (version_pkt[v] != nullptr && version_pkt[v] != merged) {
      mag.release(version_pkt[v]);
    }
  }
  if (merged == nullptr) {
    dropped_.increment();
    return nullptr;
  }
  merged->set_nil(false);
  return merged;
}

void RtcExecutor::execute(Packet* pkt) {
  PacketMagazine& mag = *mag_;
  const auto& segs = graph_.segments();
  for (std::size_t s = 0; s < segs.size(); ++s) {
    const Segment& seg = segs[s];
    if (seg.is_parallel()) {
      pkt = run_parallel_segment(s, pkt);
      if (pkt == nullptr) return;  // dropped; reason already tagged
      continue;
    }
    // Sequential hop: a direct function call — the whole point. Telescoping
    // marks live on the packet exactly as on a pipelined sequential hop.
    RtcNf& nf = segments_[s][0];
    pkt->meta().set_mid(seg.mid);
    pkt->meta().set_version(1);
    const bool sampled = pkt->lat().origin_ns != 0;
    if (sampled) {
      const u64 t0 = telemetry::mono_now_ns();
      pkt->lat().queue_ns += sat_sub(t0, pkt->lat().mark_ns);
      pkt->lat().mark_ns = t0;
    }
    PacketView view(*pkt);
    NfVerdict verdict = NfVerdict::kPass;
    if (view.valid()) verdict = nf.impl->process(view);
    ++nf.processed;
    if (sampled) {
      const u64 t1 = telemetry::mono_now_ns();
      pkt->lat().service_ns += sat_sub(t1, pkt->lat().mark_ns);
      pkt->lat().mark_ns = t1;
    }
    if (verdict == NfVerdict::kDrop) {
      note_drop(telemetry::DropReason::kNfVerdict, nf.stage.c_str(),
                &pkt->flow());
      mag.release(pkt);
      dropped_.increment();
      return;
    }
  }

  // Delivered. Same egress convention as the pipelined finalize: the last
  // mark is "now", so egress = total - accounted covers only clock quirks.
  outputs_.emplace_back(pkt->data(), pkt->data() + pkt->length());
  const LatencyStamps& lat = pkt->lat();
  if (lat.origin_ns != 0 && lat_block_ != nullptr) {
    const u64 total = sat_sub(lat.mark_ns, lat.origin_ns);
    const u64 accounted =
        lat.ingest_ns + lat.queue_ns + lat.service_ns + lat.merge_ns;
    lat_block_->record(telemetry::LatencyStage::kIngest, lat.ingest_ns);
    lat_block_->record(telemetry::LatencyStage::kQueue, lat.queue_ns);
    lat_block_->record(telemetry::LatencyStage::kService, lat.service_ns);
    // Fused merges never bump lat.merges: the merge_wait stage stays empty
    // in RTC mode by construction (stage sums still equal totals).
    if (lat.merges != 0) {
      lat_block_->record(telemetry::LatencyStage::kMergeWait, lat.merge_ns);
    }
    lat_block_->record(telemetry::LatencyStage::kEgress,
                       sat_sub(total, accounted));
    lat_block_->record(telemetry::LatencyStage::kTotal, total);
  }
  mag.release(pkt);
  delivered_.increment();
}

LiveResult RtcExecutor::drain() {
  LiveResult res;
  RunState expected = RunState::kRunning;
  if (!state_.compare_exchange_strong(expected, RunState::kFinished,
                                      std::memory_order_acq_rel)) {
    res.status = Status::error(
        "RtcExecutor::drain(): executor is not running (call start() "
        "first; drain() may only be called once)");
    return res;
  }
  mag_->drain();
  mag_.reset();
  res.outputs = std::move(outputs_);
  res.dropped = dropped_.read();
  return res;
}

telemetry::ShardScalabilitySnapshot RtcExecutor::scalability_snapshot()
    const {
  telemetry::ShardScalabilitySnapshot snap;
  // No pipeline threads, no rings, no merger: the executor's cycles are its
  // caller's useful time (the shard worker's lap covers them), so only the
  // progress counters report here. ring_full_events and every
  // ring_wait/merge_wait bucket are structurally zero — the attribution
  // collapse the profiler verifies.
  snap.delivered = delivered_.read();
  snap.dropped = dropped_.read();
  return snap;
}

telemetry::ShardLatencySnapshot RtcExecutor::latency_snapshot() const {
  telemetry::ShardLatencySnapshot snap;
  if (lat_block_ != nullptr) {
    for (std::size_t s = 0; s < telemetry::kLatencyStageCount; ++s) {
      snap.stages[s] +=
          lat_block_->snapshot(static_cast<telemetry::LatencyStage>(s));
    }
  }
  // queue_depth stays 0: there are no rings to occupy.
  return snap;
}

u64 RtcExecutor::feeder_wait_ns() const {
  // The executor never waits: pool exhaustion tail-drops instead of
  // blocking and there are no rings or windows to back-pressure on.
  return 0;
}

}  // namespace nfp
