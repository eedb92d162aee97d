// Fused run-to-completion execution (ExecMode::kRtc) of a compiled graph.
//
// The pipelined executor reproduces the paper's one-container-per-NF
// deployment: every NF on its own thread, SPSC burst rings between them, a
// merger thread accumulating parallel arrivals in a MergeTable. That shape
// is what the scalability profiler indicts on core-constrained hosts —
// ring_wait dominates the par4 attribution — because the rings and the
// merger buy cross-thread parallelism the host cannot actually grant. The
// paper's own Table 4 benchmarks NFP against exactly the alternative: a
// BESS-style run-to-completion model.
//
// This executor is that model, specialized to NFP's graph semantics: the
// feeding thread (the shard worker) walks the compiled graph inline per
// packet. Sequential segments are the owner's stamped hop — a direct
// process() call, no ring, no hand-off. Parallel segments execute as a
// fused branch-sequence through the segment kernel: fan_out makes the
// FanoutPlan's copies (Header-Only Copying included), each branch NF runs
// in declaration order on its version, then merge_segment resolves drops
// and merges inline, with zero wait, because every arrival is already in
// hand. No MergeTable, no in-flight window, no result lock on the hot
// path.
//
// Telemetry contracts carry over:
//   * drop taxonomy — every drop tags exactly one DropReason, so
//     sum(drops_by_reason) == dropped still holds;
//   * latency telescoping — the whole fused branch-sequence is service
//     time; a fused merge contributes merge_wait == 0 and does NOT count as
//     a merge crossing (the merge_wait stage stays empty — there is no
//     cross-thread wait to measure), so stage sums still equal totals;
//   * cycle accounting — the executor runs inside its caller's useful lap
//     and never waits: a dry pool tail-drops, and there are no rings or
//     windows to back-pressure on.
#include <algorithm>
#include <memory>
#include <vector>

#include "dataplane/live_executor.hpp"
#include "dataplane/merge_ops.hpp"
#include "telemetry/owned_counter.hpp"

namespace nfp {

class LivePipeline::RtcExecutor final : public LivePipeline::Executor {
 public:
  explicit RtcExecutor(LivePipeline& owner);

  void start() override {}
  void admit() override {}
  Packet* alloc(std::size_t len) override;
  bool run(Packet* pkt) override;
  LiveResult finish() override;
  u64 delivered() override { return delivered_.read(); }
  u64 dropped() override { return dropped_.read(); }
  // No pipeline threads, no rings, no merger: the executor's cycles are
  // its caller's useful time, so ring_full_events and every
  // ring_wait/merge_wait bucket are structurally zero — the attribution
  // collapse the profiler verifies. The owner adds the progress counters.
  telemetry::ShardScalabilitySnapshot scalability() const override {
    return {};
  }
  telemetry::ShardLatencySnapshot latency() const override;
  u64 feeder_wait_ns() const override { return 0; }
  void register_workers(telemetry::HealthSampler&, telemetry::Watchdog*,
                        const telemetry::Labels&,
                        const std::string&) override {}

 private:
  // Runs one fused parallel segment; returns the merged survivor (always
  // the version-1 packet) or nullptr when the packet dropped (the reason
  // has been tagged and every version released).
  Packet* run_parallel_segment(std::size_t seg_idx, Packet* pkt);
  void drop(Packet* pkt, telemetry::DropReason reason, const char* stage);

  PacketMagazine& mag() { return *owner_.feeder_mag_; }

  std::vector<std::string> stage_;  // [segment] sequential hop's drop tag
  // Per-branch arrivals of the segment being merged; sized once for the
  // widest segment, so no per-packet allocation.
  std::vector<MergeArrival> arrivals_;

  // Stage histograms for sampled packets; null when sampling is off. One
  // block suffices — a single thread records.
  std::unique_ptr<telemetry::StageLatencyBlock> lat_block_;

  // Feeder-written, scrape-read progress counters.
  telemetry::OwnedCounter delivered_;
  telemetry::OwnedCounter dropped_;

  // Feeder-owned accumulation; delivered/dropped counters are the
  // scrape-safe view, the list itself is only touched by the feed thread
  // and by drain()'s caller (ordered by the sharded worker join).
  FrameList outputs_;
};

std::unique_ptr<LivePipeline::Executor> LivePipeline::make_rtc_executor(
    LivePipeline& owner) {
  return std::make_unique<RtcExecutor>(owner);
}

LivePipeline::RtcExecutor::RtcExecutor(LivePipeline& owner)
    : Executor(owner) {
  std::size_t widest = 0;
  for (const auto& nfs : owner_.nfs_) {
    const StageNf& meta = nfs.front().meta;
    stage_.push_back("rtc:" + meta.name + "#" +
                     std::to_string(meta.instance_id));
    widest = std::max(widest, nfs.size());
  }
  arrivals_.resize(widest);
  if (owner_.opts_.latency_sample_every > 0) {
    lat_block_ = std::make_unique<telemetry::StageLatencyBlock>();
  }
}

void LivePipeline::RtcExecutor::drop(Packet* pkt, telemetry::DropReason reason,
                                     const char* stage) {
  owner_.note_drop(reason, stage, &pkt->flow());
  mag().release(pkt);
  dropped_.increment();
}

Packet* LivePipeline::RtcExecutor::alloc(std::size_t len) {
  Packet* pkt = mag().alloc(len);
  if (pkt == nullptr) {
    // Run-to-completion holds at most (1 + fanout copies) slots and this is
    // the only allocating thread, so a dry pool is a sizing error, not
    // transient backpressure — blocking here would spin forever. Tail-drop
    // with the taxonomy reason instead.
    owner_.note_drop(telemetry::DropReason::kPoolExhausted, "rtc:feeder",
                     nullptr);
    dropped_.increment();
  }
  return pkt;
}

Packet* LivePipeline::RtcExecutor::run_parallel_segment(std::size_t seg_idx,
                                                        Packet* pkt) {
  const Segment& seg = owner_.graph_.segments()[seg_idx];
  const FanoutPlan& plan = owner_.fanout_[seg_idx];
  const auto& nfs = owner_.nfs_[seg_idx];

  pkt->meta().set_mid(seg.mid);
  pkt->meta().set_version(1);
  VersionPackets version_pkt{};
  version_pkt[1] = pkt;
  // No consumer refs: the branches run one after another on this thread,
  // so a version shared by several NFs needs no concurrent-consumer
  // refcount — each distinct version is released exactly once below.
  if (!fan_out(plan, version_pkt, mag(), /*consumer_refs=*/false)) {
    drop(pkt, telemetry::DropReason::kPoolExhausted, "rtc:fanout");
    return nullptr;
  }

  // The fused branch-sequence: every branch NF in declaration order on its
  // version's packet. Drop intents collect out-of-band in MergeArrivals as
  // on the pipelined path — siblings sharing a version must not race on the
  // packet, and here "race" degenerates to "clobber in order", which is
  // just as wrong for the merge's drop resolution. merge_ns / merges stay
  // untouched: an inline merge has no cross-thread wait, so the merge_wait
  // stage records no sample for this packet.
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
    owner_.note_drop(telemetry::DropReason::kNfVerdict, "rtc:merge",
                     &pkt->flow());
    dropped_.increment();
  }
  for (Packet* version : version_pkt) {
    if (version != nullptr && version != merged) mag().release(version);
  }
  return merged;
}

bool LivePipeline::RtcExecutor::run(Packet* pkt) {
  const auto& segs = owner_.graph_.segments();
  for (std::size_t s = 0; s < segs.size(); ++s) {
    const Segment& seg = segs[s];
    if (seg.is_parallel()) {
      pkt = run_parallel_segment(s, pkt);
      if (pkt == nullptr) return true;  // dropped; reason already tagged
      continue;
    }
    // Sequential hop: a direct function call — the whole point.
    pkt->meta().set_mid(seg.mid);
    pkt->meta().set_version(1);
    if (run_hop(*owner_.nfs_[s][0].impl, *pkt) == NfVerdict::kDrop) {
      drop(pkt, telemetry::DropReason::kNfVerdict, stage_[s].c_str());
      return true;
    }
  }

  // Delivered. Same egress convention as the pipelined path: the last
  // mark is "now", so egress = total - accounted covers only clock quirks.
  outputs_.push(pkt->bytes());
  finalize_latency(*pkt, lat_block_.get());
  mag().release(pkt);
  delivered_.increment();
  return true;
}

LiveResult LivePipeline::RtcExecutor::finish() {
  LiveResult res;
  res.outputs = std::move(outputs_);
  res.dropped = dropped_.read();
  return res;
}

telemetry::ShardLatencySnapshot LivePipeline::RtcExecutor::latency() const {
  telemetry::ShardLatencySnapshot snap;
  fold_latency(snap, lat_block_.get());
  // queue_depth stays 0: there are no rings to occupy.
  return snap;
}

}  // namespace nfp
