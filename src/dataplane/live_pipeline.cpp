#include "dataplane/live_pipeline.hpp"

#include <algorithm>
#include <array>
#include <cstring>

#include "common/cpu_affinity.hpp"
#include "dataplane/live_classifier.hpp"
#include "dataplane/merge_ops.hpp"
#include "dataplane/merge_table.hpp"
#include "dataplane/rtc_executor.hpp"
#include "packet/packet_view.hpp"
#include "ring/backoff.hpp"
#include "telemetry/health_sampler.hpp"

namespace nfp {

namespace {

inline u64 sat_sub(u64 a, u64 b) noexcept { return a >= b ? a - b : 0; }

// The options a pipeline over `graph` actually runs with: clamped knobs
// and the concrete execution mode (what options() reports).
LivePipelineOptions resolve_options(const ServiceGraph& graph,
                                    LivePipelineOptions opts) {
  if (opts.per_packet_compat) {
    opts.burst_size = 1;
    opts.magazine_size = 0;
  }
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

  // Resolve the execution mode. compat exists to reproduce the old
  // pipelined hot path, so it pins the mode; auto fuses sequential graphs
  // (rings would only add hand-off cost between single-consumer hops) and
  // keeps parallel graphs pipelined, where cross-thread execution is the
  // paper's actual mechanism.
  if (opts.per_packet_compat) {
    opts.exec_mode = ExecMode::kPipelined;
  } else if (opts.exec_mode == ExecMode::kAuto) {
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
  if (opts_.exec_mode == ExecMode::kRtc) {
    rtc_ = std::make_unique<RtcExecutor>(graph_, factory, opts_, pool_,
                                         &mag_refill_total_,
                                         &mag_flush_total_);
    return;
  }

  int instance = 0;
  for (Segment& seg : graph_.segments()) {
    std::vector<LiveNf> nfs;
    for (StageNf& meta : seg.nfs) {
      meta.instance_id = instance++;
      LiveNf nf;
      nf.meta = meta;
      nf.impl = factory ? factory(meta)
                        : make_builtin_nf(
                              meta.name,
                              static_cast<u64>(meta.instance_id) + 1);
      if (nf.impl == nullptr) nf.impl = make_builtin_nf("monitor");
      nf.in = std::make_unique<SpscRing<Packet*>>(opts_.ring_depth);
      nf.out = std::make_unique<SpscRing<MergeEnvelope>>(opts_.ring_depth);
      nf.heartbeat_ns = std::make_unique<std::atomic<u64>>(0);
      nf.processed = std::make_unique<std::atomic<u64>>(0);
      nfs.push_back(std::move(nf));
    }
    segments_.push_back(std::move(nfs));
    // Fanout plan: resolve the segment's copy list and reference counts
    // once (fanout_plan.hpp, shared with RtcExecutor), instead of a
    // vector + count_if per packet in enter_segment.
    fanout_.push_back(build_fanout_plan(seg));
  }
  if (opts_.cycle_accounting) {
    for (auto& seg : segments_) {
      for (LiveNf& nf : seg) {
        nf.cycles = std::make_unique<telemetry::CycleCounters>();
      }
    }
    merger_cycles_ = std::make_unique<telemetry::CycleCounters>();
    feeder_cycles_ = std::make_unique<telemetry::CycleCounters>();
  }
  if (opts_.latency_sample_every > 0) {
    for (auto& seg : segments_) {
      for (LiveNf& nf : seg) {
        nf.lat_block = std::make_unique<telemetry::StageLatencyBlock>();
      }
    }
    merger_lat_block_ = std::make_unique<telemetry::StageLatencyBlock>();
  }
}

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

void LivePipeline::finalize_latency(const Packet& pkt,
                                    telemetry::StageLatencyBlock* block,
                                    u64 now) {
  const LatencyStamps& lat = pkt.lat();
  if (lat.origin_ns == 0 || block == nullptr) return;
  const u64 total = sat_sub(now, lat.origin_ns);
  const u64 accounted =
      lat.ingest_ns + lat.queue_ns + lat.service_ns + lat.merge_ns;
  block->record(telemetry::LatencyStage::kIngest, lat.ingest_ns);
  block->record(telemetry::LatencyStage::kQueue, lat.queue_ns);
  block->record(telemetry::LatencyStage::kService, lat.service_ns);
  // merge_wait only counts packets that actually crossed a merge point:
  // a purely sequential path contributes no sample rather than a zero,
  // so the stage's count doubles as "packets merged" in reports.
  if (lat.merges != 0) {
    block->record(telemetry::LatencyStage::kMergeWait, lat.merge_ns);
  }
  block->record(telemetry::LatencyStage::kEgress, sat_sub(total, accounted));
  block->record(telemetry::LatencyStage::kTotal, total);
}

LivePipeline::~LivePipeline() {
  stop_.store(true, std::memory_order_release);
  for (auto& seg : segments_) {
    for (auto& nf : seg) {
      if (nf.thread.joinable()) nf.thread.join();
    }
  }
  if (merger_thread_.joinable()) merger_thread_.join();
}

PacketMagazine LivePipeline::make_magazine() {
  return PacketMagazine(pool_, opts_.magazine_size, &mag_refill_total_,
                        &mag_flush_total_,
                        opts_.per_packet_compat ? &compat_mu_ : nullptr);
}

void LivePipeline::maybe_pin_current_thread() {
  if (opts_.pin_core < 0) return;
  affinity_attempts_.fetch_add(1, std::memory_order_relaxed);
  if (pin_current_thread_to_core(static_cast<std::size_t>(opts_.pin_core))) {
    affinity_ok_.fetch_add(1, std::memory_order_relaxed);
  }
}

bool LivePipeline::enter_segment(std::size_t seg_idx, Packet* pkt,
                                 PacketMagazine& mag,
                                 telemetry::CycleAccountant* acct) {
  const Segment& seg = graph_.segments()[seg_idx];
  const FanoutPlan& plan = fanout_[seg_idx];
  auto& nfs = segments_[seg_idx];
  pkt->meta().set_mid(seg.mid);
  pkt->meta().set_version(1);
  pkt->set_nil(false);

  std::array<Packet*, Metadata::kMaxVersion + 2> version_pkt{};
  version_pkt[1] = pkt;
  for (const FanoutPlan::Copy& c : plan.copies) {
    Packet* copy = c.full ? mag.clone_full(*pkt) : mag.clone_header_only(*pkt);
    if (copy == nullptr) {
      for (const FanoutPlan::Copy& made : plan.copies) {
        if (made.version == c.version) break;
        mag.release(version_pkt[made.version]);
      }
      // The original stays with the caller: it still carries the FlowRef
      // the drop exemplar needs, so the caller tags the reason first and
      // releases it after.
      return false;
    }
    copy->meta().set_version(c.version);
    copy->set_nil(false);
    version_pkt[c.version] = copy;
  }
  for (std::size_t v = 1; v < plan.extra_refs.size(); ++v) {
    for (u32 r = 0; r < plan.extra_refs[v]; ++r) mag.add_ref(version_pkt[v]);
  }
  for (std::size_t k = 0; k < nfs.size(); ++k) {
    Packet* version = version_pkt[plan.nf_version[k]];
    if (nfs[k].in->push(version)) continue;
    // Contended: the consumer NF is behind. Timestamps only on this slow
    // path; the span is carved out of the caller's current lap.
    const bool timed = acct != nullptr && acct->enabled();
    const u64 t0 = timed ? telemetry::mono_now_ns() : 0;
    Backoff backoff;
    do {
      backoff.pause();
    } while (!nfs[k].in->push(version));
    if (timed) {
      acct->carve(telemetry::CycleBucket::kRingWait,
                  telemetry::mono_now_ns() - t0);
    }
  }
  return true;
}

void LivePipeline::note_drop(telemetry::DropReason reason, const char* stage,
                             const FlowRef* flow) {
  drop_reasons_[static_cast<std::size_t>(reason)].fetch_add(
      1, std::memory_order_relaxed);
  if (drop_exemplars_ != nullptr) {
    drop_exemplars_->record(reason, stage, flow, telemetry::mono_now_ns());
  }
}

void LivePipeline::commit_batch(std::vector<std::vector<u8>>& outputs,
                                u64 drops, u64 completed) {
  if (!outputs.empty() || drops > 0) {
    const std::scoped_lock lock(result_mu_);
    for (auto& frame : outputs) result_.outputs.push_back(std::move(frame));
    result_.dropped += drops;
  }
  outputs.clear();
  // After the results are visible: run() treats in_flight_ == 0 as "all
  // packets accounted for", so the decrement must come last.
  if (completed > 0) {
    in_flight_.fetch_sub(completed, std::memory_order_acq_rel);
  }
}

void LivePipeline::nf_loop(std::size_t seg_idx, std::size_t nf_idx) {
  maybe_pin_current_thread();
  const Segment& seg = graph_.segments()[seg_idx];
  LiveNf& self = segments_[seg_idx][nf_idx];
  const bool parallel = seg.is_parallel();
  const bool last_segment = seg_idx + 1 == graph_.segments().size();
  const std::size_t burst = opts_.burst_size;
  const std::string stage_name =
      "nf:" + self.meta.name + "#" + std::to_string(self.meta.instance_id);

  PacketMagazine mag = make_magazine();
  std::vector<Packet*> in_burst(burst);
  std::vector<MergeEnvelope> envelopes;
  envelopes.reserve(burst);
  std::vector<std::vector<u8>> out_batch;
  Backoff idle;

  // Cycle accounting reuses the one clock read per iteration the heartbeat
  // already pays: `beat` closes the previous interval and opens the next,
  // so every iteration's wall time lands in exactly one bucket.
  u64 beat = telemetry::mono_now_ns();
  telemetry::CycleAccountant acct(self.cycles.get(), beat);

  for (;;) {
    // Beat on every iteration, busy or idle: an idle-but-responsive worker
    // keeps beating, one wedged inside process() stops.
    self.heartbeat_ns->store(beat, std::memory_order_relaxed);
    const std::size_t n = self.in->pop_burst({in_burst.data(), burst});
    if (n == 0) {
      if (stop_.load(std::memory_order_acquire)) return;
      idle.pause();
      beat = telemetry::mono_now_ns();
      acct.lap(beat, telemetry::CycleBucket::kStarved);
      continue;
    }
    idle.reset();
    self.processed->fetch_add(n, std::memory_order_relaxed);

    if (parallel) {
      // Nil-packet mechanism (§5.2): the drop intention travels to the
      // merger with the packet. It rides the envelope, not the packet's
      // nil bit — siblings sharing a packet version would race on it.
      envelopes.clear();
      for (std::size_t i = 0; i < n; ++i) {
        Packet* pkt = in_burst[i];
        // Sampled packets: time the hop, but report through the envelope —
        // siblings share this packet version, so its stamp bytes are
        // read-only here (same rule as drop_intent).
        const bool sampled = pkt->lat().origin_ns != 0;
        const u64 t0 = sampled ? telemetry::mono_now_ns() : 0;
        PacketView view(*pkt);
        NfVerdict verdict = NfVerdict::kPass;
        if (view.valid()) verdict = self.impl->process(view);
        MergeEnvelope env{pkt, verdict == NfVerdict::kDrop};
        if (sampled) {
          const u64 t1 = telemetry::mono_now_ns();
          env.queue_ns = sat_sub(t0, pkt->lat().mark_ns);
          env.service_ns = sat_sub(t1, t0);
          env.out_ns = t1;
        }
        envelopes.push_back(env);
      }
      std::size_t sent = 0;
      Backoff backoff;
      u64 wait_start = 0;
      while (sent < n) {
        const std::size_t m = self.out->push_burst(
            {envelopes.data() + sent, n - sent});
        if (m == 0) {
          if (acct.enabled() && wait_start == 0) {
            wait_start = telemetry::mono_now_ns();
          }
          backoff.pause();
        } else {
          if (wait_start != 0) {
            acct.carve(telemetry::CycleBucket::kRingWait,
                       telemetry::mono_now_ns() - wait_start);
            wait_start = 0;
          }
          sent += m;
          backoff.reset();
        }
      }
      beat = telemetry::mono_now_ns();
      acct.lap(beat, telemetry::CycleBucket::kUseful);
      continue;
    }

    u64 drops = 0;
    u64 completed = 0;
    for (std::size_t i = 0; i < n; ++i) {
      Packet* pkt = in_burst[i];
      // Sequential hop: this thread owns the packet, so the telescoping
      // marks live on the packet itself. queue = mark -> pre-process clock
      // (includes in-burst head-of-line time), service = the process span.
      const bool sampled = pkt->lat().origin_ns != 0;
      u64 t1 = 0;
      if (sampled) {
        const u64 t0 = telemetry::mono_now_ns();
        pkt->lat().queue_ns += sat_sub(t0, pkt->lat().mark_ns);
        pkt->lat().mark_ns = t0;
      }
      PacketView view(*pkt);
      NfVerdict verdict = NfVerdict::kPass;
      if (view.valid()) verdict = self.impl->process(view);
      if (sampled) {
        t1 = telemetry::mono_now_ns();
        pkt->lat().service_ns += sat_sub(t1, pkt->lat().mark_ns);
        pkt->lat().mark_ns = t1;
      }

      if (verdict == NfVerdict::kDrop) {
        note_drop(telemetry::DropReason::kNfVerdict, stage_name.c_str(),
                  &pkt->flow());
        mag.release(pkt);
        ++drops;
        ++completed;
        continue;
      }
      if (last_segment) {
        out_batch.emplace_back(pkt->data(), pkt->data() + pkt->length());
        if (sampled) finalize_latency(*pkt, self.lat_block.get(), t1);
        mag.release(pkt);
        ++completed;
        continue;
      }
      if (!enter_segment(seg_idx + 1, pkt, mag, &acct)) {
        note_drop(telemetry::DropReason::kPoolExhausted, stage_name.c_str(),
                  &pkt->flow());
        mag.release(pkt);
        ++drops;
        ++completed;
      }
    }
    commit_batch(out_batch, drops, completed);
    beat = telemetry::mono_now_ns();
    acct.lap(beat, telemetry::CycleBucket::kUseful);
  }
}

void LivePipeline::merger_loop() {
  maybe_pin_current_thread();
  PacketMagazine mag = make_magazine();
  const std::size_t burst = opts_.burst_size;

  // One accumulation table per parallel segment (merge_table.hpp).
  std::vector<std::unique_ptr<MergeTable>> tables(segments_.size());
  for (std::size_t s = 0; s < segments_.size(); ++s) {
    const Segment& seg = graph_.segments()[s];
    if (seg.is_parallel()) {
      tables[s] = std::make_unique<MergeTable>(opts_.in_flight_window,
                                               seg.merge.total_count);
    }
  }

  std::vector<MergeEnvelope> burst_buf(burst);
  std::vector<std::pair<Packet*, u8>> pairs;
  std::vector<std::vector<u8>> out_batch;
  Backoff idle_backoff;

  u64 beat = telemetry::mono_now_ns();
  telemetry::CycleAccountant acct(merger_cycles_.get(), beat);

  for (;;) {
    merger_heartbeat_ns_.store(beat, std::memory_order_relaxed);
    bool idle = true;
    u64 drops = 0;
    u64 completed = 0;
    for (std::size_t s = 0; s < segments_.size(); ++s) {
      const Segment& seg = graph_.segments()[s];
      if (!seg.is_parallel()) continue;
      MergeTable& table = *tables[s];
      for (std::size_t k = 0; k < segments_[s].size(); ++k) {
        LiveNf& nf = segments_[s][k];
        std::size_t n;
        while ((n = nf.out->pop_burst({burst_buf.data(), burst})) > 0) {
          idle = false;
          for (std::size_t i = 0; i < n; ++i) {
            const MergeEnvelope& env = burst_buf[i];
            const std::span<MergeArrival> done = table.add(
                env.pkt->meta().pid(),
                MergeArrival{env.pkt, nf.meta.version, env.drop_intent,
                             nf.meta.priority, nf.meta.can_drop,
                             env.queue_ns, env.service_ns, env.out_ns});
            if (done.empty()) continue;
            merger_merges_.fetch_add(1, std::memory_order_relaxed);

            // Complete: resolve drops, merge, forward.
            bool dropped = false;
            if (seg.merge.drop_resolution == DropResolution::kAnyDrop) {
              for (const MergeArrival& a : done) dropped |= a.drop_intent;
            } else {
              i32 best = -1;
              for (const MergeArrival& a : done) {
                if (a.can_drop && a.priority > best) {
                  best = a.priority;
                  dropped = a.drop_intent;
                }
              }
            }

            Packet* merged = nullptr;
            if (!dropped) {
              pairs.clear();
              for (const MergeArrival& a : done) {
                pairs.emplace_back(a.pkt, a.version);
              }
              merged = apply_merge_operations(seg, pairs);
            }
            // Critical-branch latency combining: the arrival whose out-push
            // completed the set defines the segment's span. Its queue /
            // service accumulate onto the survivor and merge-wait is the
            // merger's reaction time from that push — the telescoping marks
            // stay exact (queue+service+merge == now - prev mark).
            if (merged != nullptr && merged->lat().origin_ns != 0) {
              const MergeArrival* critical = &done[0];
              for (const MergeArrival& a : done) {
                if (a.out_ns > critical->out_ns) critical = &a;
              }
              const u64 tm = telemetry::mono_now_ns();
              LatencyStamps& lat = merged->lat();
              lat.queue_ns += critical->queue_ns;
              lat.service_ns += critical->service_ns;
              lat.merge_ns += sat_sub(tm, critical->out_ns);
              lat.merges += 1;
              lat.mark_ns = tm;
            }
            // The merge drop-resolution is an NF verdict exercised at the
            // merge point; tag it while the arrivals are still alive so
            // the exemplar carries the flow.
            if (merged == nullptr) {
              note_drop(telemetry::DropReason::kNfVerdict, "merger",
                        &done[0].pkt->flow());
            }
            bool kept_one = false;
            for (const MergeArrival& a : done) {
              if (a.pkt == merged && !kept_one) {
                kept_one = true;
                continue;
              }
              mag.release(a.pkt);
            }

            if (merged == nullptr) {
              ++drops;
              ++completed;
            } else if (s + 1 == segments_.size()) {
              out_batch.emplace_back(merged->data(),
                                     merged->data() + merged->length());
              finalize_latency(*merged, merger_lat_block_.get(),
                               merged->lat().mark_ns);
              merged->set_nil(false);
              mag.release(merged);
              ++completed;
            } else {
              merged->set_nil(false);
              if (!enter_segment(s + 1, merged, mag, &acct)) {
                note_drop(telemetry::DropReason::kPoolExhausted, "merger",
                          &merged->flow());
                mag.release(merged);
                ++drops;
                ++completed;
              }
            }
          }
          if (n < burst) break;  // ring drained for now; visit the next one
        }
      }
    }
    commit_batch(out_batch, drops, completed);
    if (idle) {
      if (stop_.load(std::memory_order_acquire)) return;
      idle_backoff.pause();
      beat = telemetry::mono_now_ns();
      // Idle with packets in flight is the merge-wait the paper's §5.2
      // mergers exist to hide: siblings of accepted packets are still
      // upstream. Idle with nothing in flight is plain ingest starvation.
      acct.lap(beat, in_flight_.load(std::memory_order_acquire) > 0
                         ? telemetry::CycleBucket::kMergeWait
                         : telemetry::CycleBucket::kStarved);
    } else {
      idle_backoff.reset();
      beat = telemetry::mono_now_ns();
      acct.lap(beat, telemetry::CycleBucket::kUseful);
    }
  }
}

NetworkFunction* LivePipeline::nf(std::size_t segment, std::size_t index) {
  if (rtc_ != nullptr) return rtc_->nf(segment, index);
  return segments_.at(segment).at(index).impl.get();
}

u64 LivePipeline::dropped_by(telemetry::DropReason reason) const {
  if (rtc_ != nullptr) return rtc_->dropped_by(reason);
  return drop_reasons_[static_cast<std::size_t>(reason)].load(
      std::memory_order_relaxed);
}

void LivePipeline::set_drop_exemplar_ring(telemetry::DropExemplarRing* ring) {
  if (rtc_ != nullptr) {
    rtc_->set_drop_exemplar_ring(ring);
    return;
  }
  drop_exemplars_ = ring;
}

const LivePipeline::LiveNf* LivePipeline::worker_nf(std::size_t w) const {
  std::size_t i = 0;
  for (const auto& seg : segments_) {
    for (const LiveNf& nf : seg) {
      if (i++ == w) return &nf;
    }
  }
  return nullptr;  // the merger slot (w == NF count)
}

std::size_t LivePipeline::worker_count() const {
  // RTC mode spawns no threads: there is nothing to heartbeat-watch here
  // (in the sharded dataplane the shard worker's own heartbeat covers the
  // inline execution).
  if (rtc_ != nullptr) return 0;
  std::size_t n = 0;
  for (const auto& seg : segments_) n += seg.size();
  return n + 1;  // + merger
}

std::string LivePipeline::worker_name(std::size_t w) const {
  const LiveNf* nf = worker_nf(w);
  if (nf == nullptr) return "merger";
  return "nf:" + nf->meta.name + "#" + std::to_string(nf->meta.instance_id);
}

u64 LivePipeline::worker_heartbeat_ns(std::size_t w) const {
  const LiveNf* nf = worker_nf(w);
  if (nf == nullptr) {
    return merger_heartbeat_ns_.load(std::memory_order_relaxed);
  }
  return nf->heartbeat_ns->load(std::memory_order_relaxed);
}

u64 LivePipeline::worker_packets(std::size_t w) const {
  const LiveNf* nf = worker_nf(w);
  if (nf == nullptr) return merger_merges_.load(std::memory_order_relaxed);
  return nf->processed->load(std::memory_order_relaxed);
}

std::size_t LivePipeline::ring_depth_in(std::size_t w) const {
  const LiveNf* nf = worker_nf(w);
  return nf == nullptr ? 0 : nf->in->size();
}

std::size_t LivePipeline::ring_depth_out(std::size_t w) const {
  const LiveNf* nf = worker_nf(w);
  return nf == nullptr ? 0 : nf->out->size();
}

u64 LivePipeline::dropped_so_far() {
  if (rtc_ != nullptr) return rtc_->dropped_so_far();
  const std::scoped_lock lock(result_mu_);
  return result_.dropped;
}

u64 LivePipeline::delivered_so_far() {
  if (rtc_ != nullptr) return rtc_->delivered_so_far();
  const std::scoped_lock lock(result_mu_);
  return result_.outputs.size();
}

telemetry::ShardScalabilitySnapshot LivePipeline::scalability_snapshot() {
  telemetry::ShardScalabilitySnapshot snap;
  if (rtc_ != nullptr) {
    snap = rtc_->scalability_snapshot();
  } else {
    auto fold = [&snap](const telemetry::CycleCounters* cycles) {
      if (cycles == nullptr) return;
      for (std::size_t b = 0; b < telemetry::kCycleBucketCount; ++b) {
        snap.ns[b] += cycles->get(static_cast<telemetry::CycleBucket>(b));
      }
    };
    for (const auto& seg : segments_) {
      for (const LiveNf& nf : seg) {
        fold(nf.cycles.get());
        snap.ring_full_events += nf.in->full_events() + nf.out->full_events();
        ++snap.threads;
      }
    }
    fold(merger_cycles_.get());
    ++snap.threads;  // merger
    // The feeder is the caller's thread, not a pipeline thread: its waits
    // count, its useful time belongs to the caller.
    fold(feeder_cycles_.get());
    snap.backoff_spins = feeder_spin_total_.load(std::memory_order_relaxed);
    snap.delivered = delivered_so_far();
    snap.dropped = dropped_so_far();
  }
  if (own_pool_ != nullptr) snap.pool_cas_retries = pool_.cas_retry_total();
  return snap;
}

telemetry::ShardLatencySnapshot LivePipeline::latency_snapshot() const {
  if (rtc_ != nullptr) return rtc_->latency_snapshot();
  telemetry::ShardLatencySnapshot snap;
  auto fold = [&snap](const telemetry::StageLatencyBlock* block) {
    if (block == nullptr) return;
    for (std::size_t s = 0; s < telemetry::kLatencyStageCount; ++s) {
      snap.stages[s] +=
          block->snapshot(static_cast<telemetry::LatencyStage>(s));
    }
  };
  for (const auto& seg : segments_) {
    for (const LiveNf& nf : seg) {
      fold(nf.lat_block.get());
      snap.queue_depth += static_cast<double>(nf.in->size() + nf.out->size());
    }
  }
  fold(merger_lat_block_.get());
  return snap;
}

u64 LivePipeline::feeder_wait_ns() const {
  if (rtc_ != nullptr) return rtc_->feeder_wait_ns();
  if (feeder_cycles_ == nullptr) return 0;
  u64 total = 0;
  for (std::size_t b = 0; b < telemetry::kCycleBucketCount; ++b) {
    total += feeder_cycles_->get(static_cast<telemetry::CycleBucket>(b));
  }
  return total;
}

void LivePipeline::register_health(telemetry::HealthSampler& sampler,
                                   telemetry::Watchdog* watchdog,
                                   const std::string& shard) {
  // With a shard tag every probe carries a {"shard", N} label and every
  // watchdog component gets a "shardN/" prefix, so S pipelines share one
  // registry without metric collisions.
  telemetry::Labels plane_labels{{"plane", "live"}};
  if (!shard.empty()) plane_labels.emplace_back("shard", shard);
  const std::string prefix = shard.empty() ? "" : "shard" + shard + "/";

  const std::size_t workers = worker_count();
  for (std::size_t w = 0; w < workers; ++w) {
    const std::string name = worker_name(w);
    telemetry::Labels labels = plane_labels;
    labels.emplace_back("worker", name);
    sampler.add_probe("worker_heartbeat_ns", labels, [this, w] {
      return static_cast<double>(worker_heartbeat_ns(w));
    });
    sampler.add_probe("worker_packets", labels, [this, w] {
      return static_cast<double>(worker_packets(w));
    });
    sampler.add_probe("ring_depth_in", labels, [this, w] {
      return static_cast<double>(ring_depth_in(w));
    });
    sampler.add_probe("ring_depth_out", labels, [this, w] {
      return static_cast<double>(ring_depth_out(w));
    });
    if (watchdog != nullptr) {
      watchdog->watch_heartbeat(
          prefix + name, [this, w] { return worker_heartbeat_ns(w); });
    }
  }
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
  if (rtc_ != nullptr) return rtc_->start();
  RunState expected = RunState::kNew;
  if (!state_.compare_exchange_strong(expected, RunState::kRunning,
                                      std::memory_order_acq_rel)) {
    return Status::error(
        "LivePipeline::start(): pipeline already started — each LivePipeline "
        "runs exactly once; construct a fresh instance for another run");
  }
  feeder_mag_ = std::make_unique<PacketMagazine>(
      pool_, opts_.magazine_size, &mag_refill_total_, &mag_flush_total_,
      opts_.per_packet_compat ? &compat_mu_ : nullptr);
  for (std::size_t s = 0; s < segments_.size(); ++s) {
    for (std::size_t k = 0; k < segments_[s].size(); ++k) {
      segments_[s][k].thread =
          std::thread([this, s, k] { nf_loop(s, k); });
    }
  }
  merger_thread_ = std::thread([this] { merger_loop(); });
  return Status::ok();
}

void LivePipeline::wait_for_window() {
  // Window full means downstream (rings/merger) has not retired packets
  // fast enough — ingest backpressure, timed only when actually contended.
  if (in_flight_.load(std::memory_order_acquire) < opts_.in_flight_window) {
    return;
  }
  telemetry::CycleAccountant facct(feeder_cycles_.get(), 0);
  const u64 t0 = facct.enabled() ? telemetry::mono_now_ns() : 0;
  Backoff window_backoff;
  do {
    window_backoff.pause();
  } while (in_flight_.load(std::memory_order_acquire) >=
           opts_.in_flight_window);
  if (t0 != 0) {
    facct.carve(telemetry::CycleBucket::kRingWait,
                telemetry::mono_now_ns() - t0);
    feeder_spin_total_.fetch_add(window_backoff.total_pauses(),
                                 std::memory_order_relaxed);
  }
}

bool LivePipeline::feed(std::span<const u8> frame) {
  if (rtc_ != nullptr) return rtc_->feed(frame);
  if (state_.load(std::memory_order_acquire) != RunState::kRunning) {
    return false;
  }
  // Standalone sampling: no flow hash at this layer, so sample by pid.
  u64 origin = 0;
  if (opts_.latency_sample_every != 0 &&
      next_pid_ % opts_.latency_sample_every == 0) {
    origin = telemetry::mono_now_ns();
  }
  // Window first: a feeder blocked on the window must not also hold a slot
  // the in-flight packets' fanout copies may need.
  wait_for_window();
  PacketMagazine& mag = *feeder_mag_;
  Packet* pkt = mag.alloc(frame.size());
  if (pkt == nullptr) {
    telemetry::CycleAccountant facct(feeder_cycles_.get(), 0);
    const u64 t0 = facct.enabled() ? telemetry::mono_now_ns() : 0;
    Backoff alloc_backoff;
    do {
      alloc_backoff.pause();
    } while ((pkt = mag.alloc(frame.size())) == nullptr);
    if (t0 != 0) {
      facct.carve(telemetry::CycleBucket::kPoolWait,
                  telemetry::mono_now_ns() - t0);
      feeder_spin_total_.fetch_add(alloc_backoff.total_pauses(),
                                   std::memory_order_relaxed);
    }
  }
  std::memcpy(pkt->data(), frame.data(), frame.size());
  pkt->lat().origin_ns = origin;
  return enter_graph(pkt);
}

bool LivePipeline::feed_packet(Packet* pkt) {
  if (rtc_ != nullptr) return rtc_->feed_packet(pkt);
  if (state_.load(std::memory_order_acquire) != RunState::kRunning) {
    pool_.release(pkt);
    return false;
  }
  wait_for_window();
  return enter_graph(pkt);
}

bool LivePipeline::enter_graph(Packet* pkt) {
  pkt->meta().set_pid(next_pid_++ & Metadata::kMaxPid);
  LatencyStamps& lat = pkt->lat();
  // No recording blocks (latency_sample_every == 0) means nowhere to land
  // the sample — drop the stamp rather than half-instrument the packet.
  if (merger_lat_block_ == nullptr) lat.origin_ns = 0;
  if (lat.origin_ns != 0) {
    // Ingest closes here: origin -> ready-to-enqueue covers the caller's
    // spans (director pool/ring/classify) plus this feed's window + alloc
    // backpressure. The mark opens the first queue span.
    const u64 now = telemetry::mono_now_ns();
    lat.ingest_ns = sat_sub(now, lat.origin_ns);
    lat.mark_ns = now;
  }
  PacketMagazine& mag = *feeder_mag_;
  telemetry::CycleAccountant facct(feeder_cycles_.get(), 0);
  in_flight_.fetch_add(1, std::memory_order_acq_rel);
  if (!enter_segment(0, pkt, mag, &facct)) {
    // Standalone feeds carry no parsed FlowRef; parse it here — the drop
    // path is cold — so the exemplar still names the flow.
    if (!pkt->flow().valid) {
      if (const auto parsed = parse_five_tuple(pkt->bytes())) {
        pkt->flow().tuple = *parsed;
        pkt->flow().hash = hash_five_tuple(*parsed);
        pkt->flow().valid = true;
      }
    }
    note_drop(telemetry::DropReason::kPoolExhausted, "feeder", &pkt->flow());
    mag.release(pkt);
    const std::scoped_lock lock(result_mu_);
    ++result_.dropped;
    in_flight_.fetch_sub(1, std::memory_order_acq_rel);
    return false;
  }
  return true;
}

LiveResult LivePipeline::drain() {
  if (rtc_ != nullptr) return rtc_->drain();
  if (state_.load(std::memory_order_acquire) != RunState::kRunning) {
    LiveResult bad;
    bad.status = Status::error(
        "LivePipeline::drain(): pipeline is not running (call start() first; "
        "drain() may only be called once)");
    return bad;
  }
  while (in_flight_.load(std::memory_order_acquire) != 0) {
    std::this_thread::yield();
  }
  stop_.store(true, std::memory_order_release);
  for (auto& seg : segments_) {
    for (auto& nf : seg) {
      if (nf.thread.joinable()) nf.thread.join();
    }
  }
  if (merger_thread_.joinable()) merger_thread_.join();
  feeder_mag_->drain();
  feeder_mag_.reset();
  state_.store(RunState::kFinished, std::memory_order_release);

  const std::scoped_lock lock(result_mu_);
  return std::move(result_);
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
