// Pipelined execution (ExecMode::kPipelined): one thread per NF connected
// by SPSC burst rings, a merger thread accumulating parallel arrivals in a
// MergeTable per segment, the in-flight window, feeder accounting and
// worker health. LivePipeline (live_pipeline.hpp) owns the rest.
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "dataplane/live_classifier.hpp"
#include "dataplane/live_executor.hpp"
#include "dataplane/merge_table.hpp"
#include "ring/backoff.hpp"
#include "ring/spsc_ring.hpp"
#include "telemetry/health_sampler.hpp"

namespace nfp {

namespace {

inline u64 sat_sub(u64 a, u64 b) noexcept { return a >= b ? a - b : 0; }

// Worker name and drop-exemplar stage tag of an NF thread.
std::string nf_stage(const StageNf& meta) {
  return "nf:" + meta.name + "#" + std::to_string(meta.instance_id);
}

}  // namespace

class LivePipeline::PipelinedExecutor final : public LivePipeline::Executor {
 public:
  explicit PipelinedExecutor(LivePipeline& owner);
  ~PipelinedExecutor() override;

  void start() override;
  void admit() override;
  Packet* alloc(std::size_t len) override;
  bool run(Packet* pkt) override;
  LiveResult finish() override;
  u64 delivered() override;
  u64 dropped() override;
  telemetry::ShardScalabilitySnapshot scalability() const override;
  telemetry::ShardLatencySnapshot latency() const override;
  u64 feeder_wait_ns() const override;
  void register_workers(telemetry::HealthSampler& sampler,
                        telemetry::Watchdog* watchdog,
                        const telemetry::Labels& labels,
                        const std::string& prefix) override;

 private:
  // One NF's thread and rings (the NF instance itself is the owner's).
  struct Worker {
    const Nf* nf = nullptr;
    // Inbound ring, fed by the feeder or merger thread.
    SpscRing<Packet*> in;
    // Outbound ring to the merger, one arrival per packet; unused on
    // sequential hops.
    SpscRing<MergeArrival> out;
    std::atomic<u64> heartbeat_ns{0};
    std::atomic<u64> processed{0};
    // Thread-private cycle buckets; null when cycle_accounting is off.
    std::unique_ptr<telemetry::CycleCounters> cycles;
    // Thread-private stage-latency histograms; null when
    // latency_sample_every is 0.
    std::unique_ptr<telemetry::StageLatencyBlock> lat_block;
    std::thread thread;

    Worker(const Nf& f, std::size_t depth) : nf(&f), in(depth), out(depth) {}
  };

  void nf_loop(std::size_t seg_idx, std::size_t nf_idx);
  void merger_loop();
  // Distributes a packet into segment `seg_idx` using the caller's
  // magazine; returns false on pool exhaustion (fanout copies already made
  // are released; `pkt` itself stays with the caller, which records the
  // drop reason and releases it). Contended ring pushes are credited to
  // the caller's accountant as ring_wait (null to skip).
  bool enter_segment(std::size_t seg_idx, Packet* pkt, PacketMagazine& mag,
                     telemetry::CycleAccountant* acct);
  // Flushes a thread-local result batch under one result_mu_ acquisition
  // and retires the completed packets from the in-flight window.
  void commit_batch(std::vector<std::vector<u8>>& outputs, u64 drops,
                    u64 completed);
  void join_all();
  // Spins until ready(), crediting the wait (and its backoff pauses) to
  // the feeder's `bucket`; timed only when accounting is on.
  template <typename Ready>
  void feeder_wait(telemetry::CycleBucket bucket, Ready ready);

  const LivePipelineOptions& opts_;
  std::vector<std::vector<std::unique_ptr<Worker>>> segments_;
  std::vector<Worker*> flat_;  // graph order, for the health probes
  std::atomic<u64> merger_heartbeat_ns_{0};
  std::atomic<u64> merger_merges_{0};
  // Merger / feed-side accounting blocks; null when accounting is off.
  std::unique_ptr<telemetry::CycleCounters> merger_cycles_;
  std::unique_ptr<telemetry::CycleCounters> feeder_cycles_;
  // Merger-thread stage-latency block (the merger finalizes every sampled
  // packet that exits through a parallel segment); null when sampling off.
  std::unique_ptr<telemetry::StageLatencyBlock> merger_lat_block_;
  // Backoff::pause calls spent in the feeder's window/alloc waits.
  std::atomic<u64> feeder_spin_total_{0};

  std::atomic<bool> stop_{false};
  std::atomic<u64> in_flight_{0};
  std::mutex result_mu_;
  LiveResult result_;
  std::thread merger_thread_;
};

std::unique_ptr<LivePipeline::Executor> LivePipeline::make_pipelined_executor(
    LivePipeline& owner) {
  return std::make_unique<PipelinedExecutor>(owner);
}

LivePipeline::PipelinedExecutor::PipelinedExecutor(LivePipeline& owner)
    : Executor(owner), opts_(owner.opts_) {
  for (const auto& nfs : owner_.nfs_) {
    std::vector<std::unique_ptr<Worker>> workers;
    for (const Nf& nf : nfs) {
      auto w = std::make_unique<Worker>(nf, opts_.ring_depth);
      if (opts_.cycle_accounting) {
        w->cycles = std::make_unique<telemetry::CycleCounters>();
      }
      if (opts_.latency_sample_every > 0) {
        w->lat_block = std::make_unique<telemetry::StageLatencyBlock>();
      }
      flat_.push_back(w.get());
      workers.push_back(std::move(w));
    }
    segments_.push_back(std::move(workers));
  }
  if (opts_.cycle_accounting) {
    merger_cycles_ = std::make_unique<telemetry::CycleCounters>();
    feeder_cycles_ = std::make_unique<telemetry::CycleCounters>();
  }
  if (opts_.latency_sample_every > 0) {
    merger_lat_block_ = std::make_unique<telemetry::StageLatencyBlock>();
  }
}

LivePipeline::PipelinedExecutor::~PipelinedExecutor() {
  stop_.store(true, std::memory_order_release);
  join_all();
}

void LivePipeline::PipelinedExecutor::join_all() {
  for (Worker* w : flat_) {
    if (w->thread.joinable()) w->thread.join();
  }
  if (merger_thread_.joinable()) merger_thread_.join();
}

void LivePipeline::PipelinedExecutor::start() {
  for (std::size_t s = 0; s < segments_.size(); ++s) {
    for (std::size_t k = 0; k < segments_[s].size(); ++k) {
      segments_[s][k]->thread = std::thread([this, s, k] { nf_loop(s, k); });
    }
  }
  merger_thread_ = std::thread([this] { merger_loop(); });
}

bool LivePipeline::PipelinedExecutor::enter_segment(
    std::size_t seg_idx, Packet* pkt, PacketMagazine& mag,
    telemetry::CycleAccountant* acct) {
  const Segment& seg = owner_.graph_.segments()[seg_idx];
  const FanoutPlan& plan = owner_.fanout_[seg_idx];
  auto& workers = segments_[seg_idx];
  pkt->meta().set_mid(seg.mid);
  pkt->meta().set_version(1);

  VersionPackets version_pkt{};
  version_pkt[1] = pkt;
  // The original stays with the caller on failure: it still carries the
  // FlowRef the drop exemplar needs, so the caller tags the reason first
  // and releases it after.
  if (!fan_out(plan, version_pkt, mag, /*consumer_refs=*/true)) return false;
  for (std::size_t k = 0; k < workers.size(); ++k) {
    Packet* version = version_pkt[plan.nf_version[k]];
    if (workers[k]->in.push(version)) continue;
    // Contended: the consumer NF is behind. Timestamps only on this slow
    // path; the span is carved out of the caller's current lap.
    const bool timed = acct != nullptr && acct->enabled();
    const u64 t0 = timed ? telemetry::mono_now_ns() : 0;
    Backoff backoff;
    do {
      backoff.pause();
    } while (!workers[k]->in.push(version));
    if (timed) {
      acct->carve(telemetry::CycleBucket::kRingWait,
                  telemetry::mono_now_ns() - t0);
    }
  }
  return true;
}

void LivePipeline::PipelinedExecutor::commit_batch(
    std::vector<std::vector<u8>>& outputs, u64 drops, u64 completed) {
  if (!outputs.empty() || drops > 0) {
    const std::scoped_lock lock(result_mu_);
    for (auto& frame : outputs) result_.outputs.push_back(std::move(frame));
    result_.dropped += drops;
  }
  outputs.clear();
  // After the results are visible: finish() treats in_flight_ == 0 as "all
  // packets accounted for", so the decrement must come last.
  if (completed > 0) {
    in_flight_.fetch_sub(completed, std::memory_order_acq_rel);
  }
}

void LivePipeline::PipelinedExecutor::nf_loop(std::size_t seg_idx,
                                              std::size_t nf_idx) {
  owner_.maybe_pin_current_thread();
  const Segment& seg = owner_.graph_.segments()[seg_idx];
  Worker& self = *segments_[seg_idx][nf_idx];
  NetworkFunction& impl = *self.nf->impl;
  const bool parallel = seg.is_parallel();
  const bool last_segment = seg_idx + 1 == segments_.size();
  const std::size_t burst = opts_.burst_size;
  const std::string stage_name = nf_stage(self.nf->meta);

  PacketMagazine mag = owner_.make_magazine();
  std::vector<Packet*> in_burst(burst);
  std::vector<MergeArrival> arrivals;
  arrivals.reserve(burst);
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
    self.heartbeat_ns.store(beat, std::memory_order_relaxed);
    const std::size_t n = self.in.pop_burst({in_burst.data(), burst});
    if (n == 0) {
      if (stop_.load(std::memory_order_acquire)) return;
      idle.pause();
      beat = telemetry::mono_now_ns();
      acct.lap(beat, telemetry::CycleBucket::kStarved);
      continue;
    }
    idle.reset();
    self.processed.fetch_add(n, std::memory_order_relaxed);

    if (parallel) {
      // Nil-packet mechanism (§5.2): the drop intention travels to the
      // merger beside the packet, in its MergeArrival.
      const StageNf& meta = self.nf->meta;
      arrivals.clear();
      for (std::size_t i = 0; i < n; ++i) {
        Packet* pkt = in_burst[i];
        // Sampled packets: time the hop, but report through the arrival —
        // siblings share this packet version, so its stamp bytes are
        // read-only here (same rule as drop_intent).
        const bool sampled = pkt->lat().origin_ns != 0;
        const u64 t0 = sampled ? telemetry::mono_now_ns() : 0;
        MergeArrival a{pkt, meta.priority, meta.version, meta.can_drop,
                       process_packet(impl, *pkt) == NfVerdict::kDrop};
        if (sampled) {
          const u64 t1 = telemetry::mono_now_ns();
          a.queue_ns = sat_sub(t0, pkt->lat().mark_ns);
          a.service_ns = sat_sub(t1, t0);
          a.out_ns = t1;
        }
        arrivals.push_back(a);
      }
      std::size_t sent = 0;
      Backoff backoff;
      u64 wait_start = 0;
      while (sent < n) {
        const std::size_t m =
            self.out.push_burst({arrivals.data() + sent, n - sent});
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
      // marks live on the packet itself.
      if (run_hop(impl, *pkt) == NfVerdict::kDrop) {
        owner_.note_drop(telemetry::DropReason::kNfVerdict,
                         stage_name.c_str(), &pkt->flow());
        mag.release(pkt);
        ++drops;
        ++completed;
        continue;
      }
      if (last_segment) {
        out_batch.emplace_back(pkt->data(), pkt->data() + pkt->length());
        finalize_latency(*pkt, self.lat_block.get());
        mag.release(pkt);
        ++completed;
        continue;
      }
      if (!enter_segment(seg_idx + 1, pkt, mag, &acct)) {
        owner_.note_drop(telemetry::DropReason::kPoolExhausted,
                         stage_name.c_str(), &pkt->flow());
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

void LivePipeline::PipelinedExecutor::merger_loop() {
  owner_.maybe_pin_current_thread();
  PacketMagazine mag = owner_.make_magazine();
  const std::size_t burst = opts_.burst_size;
  const auto& segs = owner_.graph_.segments();

  // One accumulation table per parallel segment (merge_table.hpp).
  std::vector<std::unique_ptr<MergeTable>> tables(segs.size());
  for (std::size_t s = 0; s < segs.size(); ++s) {
    if (segs[s].is_parallel()) {
      tables[s] = std::make_unique<MergeTable>(opts_.in_flight_window,
                                               segs[s].merge.total_count);
    }
  }

  std::vector<MergeArrival> burst_buf(burst);
  std::vector<std::vector<u8>> out_batch;
  Backoff idle_backoff;

  u64 beat = telemetry::mono_now_ns();
  telemetry::CycleAccountant acct(merger_cycles_.get(), beat);

  for (;;) {
    merger_heartbeat_ns_.store(beat, std::memory_order_relaxed);
    bool idle = true;
    u64 drops = 0;
    u64 completed = 0;
    for (std::size_t s = 0; s < segs.size(); ++s) {
      const Segment& seg = segs[s];
      if (!seg.is_parallel()) continue;
      MergeTable& table = *tables[s];
      for (const auto& worker : segments_[s]) {
        std::size_t n;
        while ((n = worker->out.pop_burst({burst_buf.data(), burst})) > 0) {
          idle = false;
          for (std::size_t i = 0; i < n; ++i) {
            const MergeArrival& arrival = burst_buf[i];
            const std::span<MergeArrival> done =
                table.add(arrival.pkt->meta().pid(), arrival);
            if (done.empty()) continue;
            merger_merges_.fetch_add(1, std::memory_order_relaxed);

            // Complete: resolve drops, merge, forward.
            Packet* merged = merge_segment(seg, done);
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
              owner_.note_drop(telemetry::DropReason::kNfVerdict, "merger",
                               &done[0].pkt->flow());
            }
            release_arrivals(done, merged, mag);

            if (merged == nullptr) {
              ++drops;
              ++completed;
            } else if (s + 1 == segs.size()) {
              out_batch.emplace_back(merged->data(),
                                     merged->data() + merged->length());
              finalize_latency(*merged, merger_lat_block_.get());
              mag.release(merged);
              ++completed;
            } else if (!enter_segment(s + 1, merged, mag, &acct)) {
              owner_.note_drop(telemetry::DropReason::kPoolExhausted,
                               "merger", &merged->flow());
              mag.release(merged);
              ++drops;
              ++completed;
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

template <typename Ready>
void LivePipeline::PipelinedExecutor::feeder_wait(
    telemetry::CycleBucket bucket, Ready ready) {
  telemetry::CycleAccountant facct(feeder_cycles_.get(), 0);
  const u64 t0 = facct.enabled() ? telemetry::mono_now_ns() : 0;
  Backoff backoff;
  do {
    backoff.pause();
  } while (!ready());
  if (t0 != 0) {
    facct.carve(bucket, telemetry::mono_now_ns() - t0);
    feeder_spin_total_.fetch_add(backoff.total_pauses(),
                                 std::memory_order_relaxed);
  }
}

void LivePipeline::PipelinedExecutor::admit() {
  // Window full means downstream (rings/merger) has not retired packets
  // fast enough — ingest backpressure, timed only when actually contended.
  // It comes before feed()'s alloc: a feeder blocked on the window must not
  // also hold a slot the in-flight packets' fanout copies may need.
  const auto open = [this] {
    return in_flight_.load(std::memory_order_acquire) <
           opts_.in_flight_window;
  };
  if (!open()) feeder_wait(telemetry::CycleBucket::kRingWait, open);
}

Packet* LivePipeline::PipelinedExecutor::alloc(std::size_t len) {
  // A dry pool is transient here: in-flight packets return their slots.
  PacketMagazine& mag = *owner_.feeder_mag_;
  Packet* pkt = mag.alloc(len);
  if (pkt == nullptr) {
    feeder_wait(telemetry::CycleBucket::kPoolWait,
                [&] { return (pkt = mag.alloc(len)) != nullptr; });
  }
  return pkt;
}

bool LivePipeline::PipelinedExecutor::run(Packet* pkt) {
  PacketMagazine& mag = *owner_.feeder_mag_;
  telemetry::CycleAccountant facct(feeder_cycles_.get(), 0);
  in_flight_.fetch_add(1, std::memory_order_acq_rel);
  if (enter_segment(0, pkt, mag, &facct)) return true;
  // Standalone feeds carry no parsed FlowRef; parse it here — the drop
  // path is cold — so the exemplar still names the flow.
  if (!pkt->flow().valid) {
    if (const auto parsed = parse_five_tuple(pkt->bytes())) {
      pkt->flow().tuple = *parsed;
      pkt->flow().hash = hash_five_tuple(*parsed);
      pkt->flow().valid = true;
    }
  }
  owner_.note_drop(telemetry::DropReason::kPoolExhausted, "feeder",
                   &pkt->flow());
  mag.release(pkt);
  const std::scoped_lock lock(result_mu_);
  ++result_.dropped;
  in_flight_.fetch_sub(1, std::memory_order_acq_rel);
  return false;
}

LiveResult LivePipeline::PipelinedExecutor::finish() {
  while (in_flight_.load(std::memory_order_acquire) != 0) {
    std::this_thread::yield();
  }
  stop_.store(true, std::memory_order_release);
  join_all();
  const std::scoped_lock lock(result_mu_);
  return std::move(result_);
}

u64 LivePipeline::PipelinedExecutor::delivered() {
  const std::scoped_lock lock(result_mu_);
  return result_.outputs.size();
}

u64 LivePipeline::PipelinedExecutor::dropped() {
  const std::scoped_lock lock(result_mu_);
  return result_.dropped;
}

telemetry::ShardScalabilitySnapshot
LivePipeline::PipelinedExecutor::scalability() const {
  telemetry::ShardScalabilitySnapshot snap;
  auto fold = [&snap](const telemetry::CycleCounters* cycles) {
    if (cycles == nullptr) return;
    for (std::size_t b = 0; b < telemetry::kCycleBucketCount; ++b) {
      snap.ns[b] += cycles->get(static_cast<telemetry::CycleBucket>(b));
    }
  };
  for (const Worker* w : flat_) {
    fold(w->cycles.get());
    snap.ring_full_events += w->in.full_events() + w->out.full_events();
    ++snap.threads;
  }
  fold(merger_cycles_.get());
  ++snap.threads;  // merger
  // The feeder is the caller's thread, not a pipeline thread: its waits
  // count, its useful time belongs to the caller.
  fold(feeder_cycles_.get());
  snap.backoff_spins = feeder_spin_total_.load(std::memory_order_relaxed);
  return snap;
}

telemetry::ShardLatencySnapshot LivePipeline::PipelinedExecutor::latency()
    const {
  telemetry::ShardLatencySnapshot snap;
  for (const Worker* w : flat_) {
    fold_latency(snap, w->lat_block.get());
    snap.queue_depth += static_cast<double>(w->in.size() + w->out.size());
  }
  fold_latency(snap, merger_lat_block_.get());
  return snap;
}

u64 LivePipeline::PipelinedExecutor::feeder_wait_ns() const {
  if (feeder_cycles_ == nullptr) return 0;
  u64 total = 0;
  for (std::size_t b = 0; b < telemetry::kCycleBucketCount; ++b) {
    total += feeder_cycles_->get(static_cast<telemetry::CycleBucket>(b));
  }
  return total;
}

void LivePipeline::PipelinedExecutor::register_workers(
    telemetry::HealthSampler& sampler, telemetry::Watchdog* watchdog,
    const telemetry::Labels& plane_labels, const std::string& prefix) {
  // Every NF thread in graph order, then the merger (its packet count is
  // merges; it owns no rings, so its depths read 0).
  for (std::size_t w = 0; w <= flat_.size(); ++w) {
    const Worker* nf = w < flat_.size() ? flat_[w] : nullptr;
    const std::string name =
        nf != nullptr ? nf_stage(nf->nf->meta) : std::string("merger");
    const std::atomic<u64>* beat =
        nf != nullptr ? &nf->heartbeat_ns : &merger_heartbeat_ns_;
    const std::atomic<u64>* packets =
        nf != nullptr ? &nf->processed : &merger_merges_;
    telemetry::Labels labels = plane_labels;
    labels.emplace_back("worker", name);
    sampler.add_probe("worker_heartbeat_ns", labels, [beat] {
      return static_cast<double>(beat->load(std::memory_order_relaxed));
    });
    sampler.add_probe("worker_packets", labels, [packets] {
      return static_cast<double>(packets->load(std::memory_order_relaxed));
    });
    sampler.add_probe("ring_depth_in", labels, [nf] {
      return static_cast<double>(nf == nullptr ? 0 : nf->in.size());
    });
    sampler.add_probe("ring_depth_out", labels, [nf] {
      return static_cast<double>(nf == nullptr ? 0 : nf->out.size());
    });
    if (watchdog != nullptr) {
      watchdog->watch_heartbeat(prefix + name, [beat] {
        return beat->load(std::memory_order_relaxed);
      });
    }
  }
}

}  // namespace nfp
