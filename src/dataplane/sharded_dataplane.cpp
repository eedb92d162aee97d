#include "dataplane/sharded_dataplane.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <iterator>

#include "common/cpu_affinity.hpp"
#include "common/hash.hpp"
#include "ring/backoff.hpp"
#include "telemetry/health_sampler.hpp"

namespace nfp {

namespace {

// Worker-side dequeue burst; never more than the RX ring holds.
constexpr std::size_t kIngestBurst = 32;
// Space-Saving slots per shard (flows with count > N/capacity are
// guaranteed present).
constexpr std::size_t kHeavyHitterCapacity = 128;

std::size_t ingest_burst(const ShardedDataplaneOptions& options) {
  return std::min(kIngestBurst, options.ingest_ring_depth);
}

// The director's flow identity for `frame`: one parse and one hash, which
// drive shard selection, latency sampling, classification and the flow
// observatory's keys. Non-IP frames hash a default tuple: one consistent
// "anonymous" flow.
FlowRef derive_flow(std::span<const u8> frame) noexcept {
  FlowRef flow;
  if (const auto parsed = parse_five_tuple(frame)) {
    flow.tuple = *parsed;
    flow.valid = true;
  }
  flow.hash = hash_five_tuple(flow.tuple);
  return flow;
}

}  // namespace

ShardedDataplane::ShardedDataplane(std::vector<ServiceGraph> graphs,
                                   NfFactory factory,
                                   ShardedDataplaneOptions options)
    : graphs_(std::move(graphs)),
      opts_(options),
      ct_(graphs_.empty() ? 1 : graphs_.size()) {
  if (graphs_.empty()) graphs_.emplace_back();
  if (opts_.shards == 0) opts_.shards = online_cpu_count();
  opts_.shards = std::max<std::size_t>(1, opts_.shards);
  opts_.ingest_ring_depth =
      std::bit_ceil(std::max<std::size_t>(4, opts_.ingest_ring_depth));
  // The shard pool's floor, by the sizing rule in the header.
  const std::size_t magazine = opts_.pipeline.magazine_size;
  std::size_t demand =
      opts_.ingest_ring_depth + ingest_burst(opts_) + 1 + 2 * magazine;
  for (const ServiceGraph& graph : graphs_) {
    demand += LivePipeline::pool_demand(graph, opts_.pipeline);
  }
  opts_.ingest_pool_size = std::max(opts_.ingest_pool_size, demand + 1);

  shards_.resize(opts_.shards);
  for (std::size_t s = 0; s < opts_.shards; ++s) {
    Shard& sh = shards_[s];
    sh.pool = std::make_unique<PacketPool>(opts_.ingest_pool_size);
    sh.director_mag = std::make_unique<PacketMagazine>(*sh.pool, magazine);
    sh.ring = std::make_unique<SpscRing<IngestDesc>>(opts_.ingest_ring_depth);
    sh.cache =
        std::make_unique<MicroflowCache>(ct_, opts_.microflow_capacity);
    sh.received = std::make_unique<telemetry::OwnedCounter>();
    sh.heartbeat_ns = std::make_unique<std::atomic<u64>>(0);
    sh.busy_ns = std::make_unique<telemetry::OwnedCounter>();
    sh.flows = std::make_unique<telemetry::ShardFlowAccountant>(
        kHeavyHitterCapacity, graphs_.size());
    if (opts_.pipeline.cycle_accounting) {
      sh.cycles = std::make_unique<telemetry::CycleCounters>();
      sh.director_cycles = std::make_unique<telemetry::CycleCounters>();
      sh.director_spins = std::make_unique<std::atomic<u64>>(0);
    }
    for (std::size_t g = 0; g < graphs_.size(); ++g) {
      sh.pipelines.push_back(std::make_unique<LivePipeline>(
          graphs_[g], factory, opts_.pipeline, sh.pool.get()));
      sh.pipelines.back()->set_drop_exemplar_ring(&sh.flows->exemplars());
      sh.graph_counts.push_back(std::make_unique<telemetry::OwnedCounter>());
    }
  }
}

ShardedDataplane::~ShardedDataplane() {
  // Unblock and join the shard workers before the pipelines (members) are
  // torn down — a worker may be mid-feed() into one of them.
  ingest_stop_.store(true, std::memory_order_release);
  for (Shard& sh : shards_) {
    if (sh.worker.joinable()) sh.worker.join();
  }
}

void ShardedDataplane::add_flow_rule(const FiveTuple& flow,
                                     std::size_t graph) {
  ct_.add_exact(flow, graph);
}

void ShardedDataplane::add_rule(const CtRule& rule) { ct_.add_rule(rule); }

void ShardedDataplane::add_rules(std::vector<CtRule> rules) {
  ct_.add_rules(std::move(rules));
}

std::size_t ShardedDataplane::classifier_tuple_count() const {
  return ct_.tuple_count();
}

std::size_t ShardedDataplane::shard_for(std::span<const u8> frame) const {
  return static_cast<std::size_t>(derive_flow(frame).hash) % shards_.size();
}

Status ShardedDataplane::start() {
  RunState expected = RunState::kNew;
  if (!state_.compare_exchange_strong(expected, RunState::kRunning,
                                      std::memory_order_acq_rel)) {
    return Status::error(
        "ShardedDataplane::start(): dataplane already started — each "
        "instance runs exactly once");
  }
  for (Shard& sh : shards_) {
    for (auto& pipeline : sh.pipelines) {
      if (Status st = pipeline->start(); !st.is_ok()) return st;
    }
  }
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    shards_[s].worker = std::thread([this, s] { worker_loop(s); });
  }
  return Status::ok();
}

bool ShardedDataplane::feed(std::span<const u8> frame) {
  // Parse + hash once; the FlowRef rides the descriptor so no later hop
  // reparses. The origin stamp is taken before the pool/ring waits below
  // so ingest latency includes director backpressure.
  const FlowRef flow = derive_flow(frame);
  Shard& sh = shards_[static_cast<std::size_t>(flow.hash) % shards_.size()];
  if (state_.load(std::memory_order_acquire) != RunState::kRunning) {
    // Offered while not running: still a packet the caller lost — tag it so
    // sum(reasons) keeps matching everything the plane refused.
    sh.flows->record_drop(telemetry::DropReason::kShutdownDrain, "director",
                          &flow, telemetry::mono_now_ns());
    return false;
  }
  if (frame.size() > Packet::kMaxDataLen) {
    // Longer than a slot's data area: refused before a slot is taken.
    sh.flows->record_drop(telemetry::DropReason::kMalformed, "director",
                          &flow, telemetry::mono_now_ns());
    return false;
  }
  const u64 origin_ns =
      telemetry::latency_sample_hash(flow.hash,
                                     opts_.pipeline.latency_sample_every)
          ? telemetry::mono_now_ns()
          : 0;
  telemetry::CycleCounters* dsink = sh.director_cycles.get();
  PacketMagazine& mag = *sh.director_mag;
  // A NIC writes only the frame and its RX descriptor: the slot stays raw
  // (its metadata lines untouched here) until the shard activates it.
  Packet* slot = mag.take_raw();
  if (slot == nullptr) {
    if (opts_.drop_on_ingest_backpressure) {
      // NIC-like tail drop: the shard's RX pool is dry, the frame is lost.
      sh.flows->record_drop(telemetry::DropReason::kPoolExhausted,
                            "director", &flow, telemetry::mono_now_ns());
      return false;
    }
    // Shard pool dry: the shard worker is not returning slots fast
    // enough. Timed only on this contended path and attributed to the
    // stalling shard, since it is that shard's lost injection throughput.
    const u64 t0 = dsink != nullptr ? telemetry::mono_now_ns() : 0;
    Backoff alloc_backoff;
    do {
      alloc_backoff.pause();
    } while ((slot = mag.take_raw()) == nullptr);
    if (dsink != nullptr) {
      dsink->add(telemetry::CycleBucket::kPoolWait,
                 telemetry::mono_now_ns() - t0);
      sh.director_spins->fetch_add(alloc_backoff.total_pauses(),
                                   std::memory_order_relaxed);
    }
  }
  std::memcpy(slot->reset_data(), frame.data(), frame.size());
  const IngestDesc desc{slot, flow, origin_ns,
                        static_cast<u32>(frame.size())};
  if (!sh.ring->push(desc)) {
    if (opts_.drop_on_ingest_backpressure) {
      // NIC-like tail drop: RX ring full, the frame is lost. The slot was
      // never activated, so it goes back without a reference drop.
      mag.release_raw(slot);
      sh.flows->record_drop(telemetry::DropReason::kRingFull, "director",
                            &flow, telemetry::mono_now_ns());
      return false;
    }
    // RX ring full: classic ingest backpressure.
    const u64 t0 = dsink != nullptr ? telemetry::mono_now_ns() : 0;
    Backoff ring_backoff;
    do {
      ring_backoff.pause();
    } while (!sh.ring->push(desc));
    if (dsink != nullptr) {
      dsink->add(telemetry::CycleBucket::kRingWait,
                 telemetry::mono_now_ns() - t0);
      sh.director_spins->fetch_add(ring_backoff.total_pauses(),
                                   std::memory_order_relaxed);
    }
  }
  sh.received->increment();
  return true;
}

void ShardedDataplane::worker_loop(std::size_t shard_idx) {
  if (opts_.pin_threads) {
    affinity_attempts_.fetch_add(1, std::memory_order_relaxed);
    if (pin_current_thread_to_core(shard_idx)) {
      affinity_ok_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  Shard& sh = shards_[shard_idx];
  std::vector<IngestDesc> burst(ingest_burst(opts_));
  // Takes the slots of frames a CT drop rule scrubs; every other frame's
  // slot passes to its pipeline.
  PacketMagazine mag(*sh.pool, opts_.pipeline.magazine_size);
  // Epoch-amortized flow accounting (telemetry::FlowAccumulator). An idle
  // flush needs this many consecutive empty polls: enough that the
  // sub-microsecond gaps of a director that merely trickles rarely
  // complete a streak, few enough to stay inside Backoff's spin/pause
  // tiers — once it escalates to yields, a loaded host can stall the
  // streak (and with it scrape freshness) for whole scheduler quanta.
  constexpr std::size_t kIdleFlushStreak = 20;
  telemetry::FlowAccumulator acc;
  std::size_t empty_streak = 0;
  Backoff idle;

  // One clock read per iteration (the heartbeat's) closes the previous
  // accounting interval and opens the next. Classifier-miss time lands
  // inside the useful lap here and is carved out at scrape time from its
  // own monotone counter.
  u64 beat = telemetry::mono_now_ns();
  telemetry::CycleAccountant acct(sh.cycles.get(), beat);

  for (;;) {
    sh.heartbeat_ns->store(beat, std::memory_order_relaxed);
    const u64 iter_start = beat;
    const std::size_t n = sh.ring->pop_burst({burst.data(), burst.size()});
    if (n == 0) {
      // Exit only once the director has stopped AND the ring is drained,
      // so drain() never strands enqueued frames. Publish accumulated
      // samples on stop, and during a genuine lull (a streak of empty
      // polls) so scrapes of a quiet plane see exact counts — but not on
      // every empty poll: when the worker merely outpaces the director,
      // empty pops interleave with tiny bursts and flushing each one
      // would shrink the accounting epoch to a handful of packets.
      const bool stopping = ingest_stop_.load(std::memory_order_acquire) &&
                            sh.ring->size() == 0;
      if (acc.pending() != 0 &&
          (stopping || ++empty_streak >= kIdleFlushStreak)) {
        acc.flush(*sh.flows);
        empty_streak = 0;
      }
      if (stopping) return;
      idle.pause();
      beat = telemetry::mono_now_ns();
      acct.lap(beat, telemetry::CycleBucket::kStarved);
      continue;
    }
    empty_streak = 0;
    idle.reset();
    sh.cache->sync_generation();
    for (std::size_t i = 0; i < n; ++i) {
      const IngestDesc& desc = burst[i];
      // Activate the director's raw slot here, on the core that runs it.
      // Its inject_time is this iteration's clock read: no extra read per
      // packet. The director already parsed + hashed the 5-tuple; reuse
      // its FlowRef for classification and the observatory keys.
      Packet* pkt = desc.slot;
      PacketPool::activate(*pkt, desc.len);
      pkt->flow() = desc.flow;
      pkt->lat().origin_ns = desc.origin_ns;
      pkt->set_inject_time(iter_start);
      const FlowRef& flow = desc.flow;
      std::size_t g = 0;
      if (flow.valid) g = sh.cache->classify(flow.tuple);
      if (g == LiveClassificationTable::kDropGraph) {
        // CT drop rule: the flow is scrubbed at classification time. Still
        // counted as observed traffic (graph-less) so heavy hitters show
        // the attacker flow that the drop rule is absorbing.
        sh.flows->record_drop(telemetry::DropReason::kClassifierMiss,
                              "classifier", &flow, telemetry::mono_now_ns());
        if (opts_.flow_accounting) {
          acc.add(flow, desc.len, telemetry::FlowSample::kNoGraph, *sh.flows);
        }
        mag.release(pkt);
        continue;
      }
      sh.graph_counts[g]->increment();
      if (opts_.flow_accounting) {
        acc.add(flow, desc.len, static_cast<u32>(g), *sh.flows);
      }
      // The pipeline now owns the slot (it may already be recycled when
      // feed_packet returns), so `flow` above is the descriptor's copy. The
      // director made the sampling decision: origin_ns == 0 means
      // unsampled, with no pid fallback.
      sh.pipelines[g]->feed_packet(pkt);
    }
    // The staleness backstop; a full probe run flushes inside add(), and
    // the n == 0 branch above publishes once the ring stays dry. A partial
    // burst (n < burst.size()) is NOT a flush trigger: when the director
    // merely trickles, the next pops return 0 and flush anyway, and
    // flushing every partial burst would take the accountant's lock per
    // handful of packets.
    if (acc.pending() >= telemetry::FlowAccumulator::kFlushPackets) {
      acc.flush(*sh.flows);
    }
    beat = telemetry::mono_now_ns();
    // busy_ns now spans the whole busy iteration (pop included — it is
    // work); the same interval feeds the useful bucket.
    sh.busy_ns->add(beat - iter_start);
    acct.lap(beat, telemetry::CycleBucket::kUseful);
  }
}

ShardedResult ShardedDataplane::drain() {
  ShardedResult res;
  if (state_.load(std::memory_order_acquire) != RunState::kRunning) {
    res.status = Status::error(
        "ShardedDataplane::drain(): dataplane is not running (call start() "
        "first; drain() may only be called once)");
    return res;
  }
  ingest_stop_.store(true, std::memory_order_release);
  for (Shard& sh : shards_) {
    if (sh.worker.joinable()) sh.worker.join();
  }
  // Drain in (shard, graph) order and hand each pipeline's frame blocks
  // over whole: outputs come out shard-major and no byte is copied again.
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    Shard& sh = shards_[s];
    sh.director_mag->drain();
    ShardCounts& counts = res.per_shard.emplace_back();
    for (auto& pipeline : sh.pipelines) {
      LiveResult drained = pipeline->drain();
      if (!drained.status.is_ok() && res.status.is_ok()) {
        res.status = drained.status;
      }
      counts.delivered += drained.outputs.size();
      counts.dropped += drained.dropped;
      res.outputs.append(std::move(drained.outputs));
    }
    // Director-level drops (tail drops, CT drop rules, shutdown drains)
    // never reached a pipeline; fold them in so dropped covers every frame
    // the plane refused — and stays equal to the per-reason sum.
    counts.dropped += shard_director_dropped(s);
    res.dropped += counts.dropped;
  }
  state_.store(RunState::kFinished, std::memory_order_release);
  return res;
}

ShardedResult ShardedDataplane::run(
    const std::vector<std::vector<u8>>& frames) {
  if (Status st = start(); !st.is_ok()) {
    ShardedResult bad;
    bad.status = std::move(st);
    return bad;
  }
  for (const auto& frame : frames) {
    feed(std::span<const u8>(frame.data(), frame.size()));
  }
  return drain();
}

bool ShardedDataplane::affinity_applied() const {
  const u64 attempts = affinity_attempts_.load(std::memory_order_relaxed);
  return attempts > 0 &&
         affinity_ok_.load(std::memory_order_relaxed) == attempts;
}

u64 ShardedDataplane::microflow_hits() const {
  u64 total = 0;
  for (const Shard& sh : shards_) total += sh.cache->hits();
  return total;
}

u64 ShardedDataplane::microflow_misses() const {
  u64 total = 0;
  for (const Shard& sh : shards_) total += sh.cache->misses();
  return total;
}

u64 ShardedDataplane::microflow_invalidations() const {
  u64 total = 0;
  for (const Shard& sh : shards_) total += sh.cache->invalidations();
  return total;
}

u64 ShardedDataplane::shard_hits(std::size_t s) const {
  return shards_.at(s).cache->hits();
}

u64 ShardedDataplane::shard_misses(std::size_t s) const {
  return shards_.at(s).cache->misses();
}

u64 ShardedDataplane::shard_received(std::size_t s) const {
  return shards_.at(s).received->read();
}

u64 ShardedDataplane::shard_graph_count(std::size_t s, std::size_t g) const {
  return shards_.at(s).graph_counts.at(g)->read();
}

u64 ShardedDataplane::shard_busy_ns(std::size_t s) const {
  return shards_.at(s).busy_ns->read();
}

u64 ShardedDataplane::shard_delivered(std::size_t s) {
  u64 total = 0;
  for (auto& pipeline : shards_.at(s).pipelines) {
    total += pipeline->delivered_so_far();
  }
  return total;
}

u64 ShardedDataplane::shard_dropped(std::size_t s) {
  u64 total = shard_director_dropped(s);
  for (auto& pipeline : shards_.at(s).pipelines) {
    total += pipeline->dropped_so_far();
  }
  return total;
}

u64 ShardedDataplane::shard_director_dropped(std::size_t s) const {
  const Shard& sh = shards_.at(s);
  u64 total = 0;
  for (std::size_t r = 0; r < telemetry::kDropReasonCount; ++r) {
    total += sh.flows->drops(static_cast<telemetry::DropReason>(r));
  }
  return total;
}

telemetry::ShardScalabilitySnapshot ShardedDataplane::scalability_snapshot(
    std::size_t s) {
  Shard& sh = shards_.at(s);
  telemetry::ShardScalabilitySnapshot snap;

  // The worker's exact per-iteration buckets. Its useful lap contains CT
  // miss resolution, measured on its own monotone counter (cache miss_ns),
  // so re-bucket it: subtract from useful (saturating; it is a
  // sub-interval of useful by construction), then add it back under its
  // own category. The per-shard bucket sum is preserved exactly.
  if (sh.cycles != nullptr) {
    for (std::size_t b = 0; b < telemetry::kCycleBucketCount; ++b) {
      snap.ns[b] += sh.cycles->get(static_cast<telemetry::CycleBucket>(b));
    }
    const u64 carve = sh.cache->miss_ns();
    const auto useful = static_cast<std::size_t>(
        telemetry::CycleBucket::kUseful);
    const auto miss = static_cast<std::size_t>(
        telemetry::CycleBucket::kClassifierMiss);
    snap.ns[useful] = snap.ns[useful] >= carve ? snap.ns[useful] - carve : 0;
    snap.ns[miss] += carve;
    ++snap.threads;
  }
  if (sh.director_cycles != nullptr) {
    for (std::size_t b = 0; b < telemetry::kCycleBucketCount; ++b) {
      snap.ns[b] +=
          sh.director_cycles->get(static_cast<telemetry::CycleBucket>(b));
    }
    snap.backoff_spins +=
        sh.director_spins->load(std::memory_order_relaxed);
  }
  // The pipelines run inside the worker's laps and keep no cycle counters;
  // they add their progress.
  for (const auto& pipeline : sh.pipelines) {
    snap.delivered += pipeline->delivered_so_far();
    snap.dropped += pipeline->dropped_so_far();
  }
  snap.pool_cas_retries += sh.pool->cas_retry_total();
  snap.ring_full_events += sh.ring->full_events();
  snap.classifier_hits = sh.cache->hits();
  snap.classifier_misses = sh.cache->misses();
  return snap;
}

telemetry::ShardSnapshot ShardedDataplane::snapshot(std::size_t s) {
  telemetry::ShardSnapshot snap;
  snap.cycles = scalability_snapshot(s);
  snap.sample_every = opts_.pipeline.latency_sample_every;
  Shard& sh = shards_.at(s);
  // Sketches + director drop counters + per-graph traffic come from the
  // accountant; each pipeline's drops and latency are folded on top, so
  // the flow view covers the whole shard.
  snap.flows = sh.flows->snapshot();
  if (snap.flows.graphs.size() < sh.pipelines.size()) {
    snap.flows.graphs.resize(sh.pipelines.size());
  }
  for (std::size_t g = 0; g < sh.pipelines.size(); ++g) {
    LivePipeline& pipeline = *sh.pipelines[g];
    telemetry::GraphFlowCounters& graph = snap.flows.graphs[g];
    for (std::size_t r = 0; r < telemetry::kDropReasonCount; ++r) {
      const u64 d =
          pipeline.dropped_by(static_cast<telemetry::DropReason>(r));
      snap.flows.drops[r] += d;
      graph.drops += d;
    }
    // One read of the pipeline's latency blocks feeds both views.
    const telemetry::ShardLatencySnapshot lat = pipeline.latency_snapshot();
    snap.latency += lat;
    graph.latency += lat.stage(telemetry::LatencyStage::kTotal);
  }
  snap.latency.ingest_queue_depth += static_cast<double>(sh.ring->size());
  return snap;
}

void ShardedDataplane::register_observatory(
    telemetry::Observatory& observatory) {
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    observatory.add_shard("shard" + std::to_string(s),
                          [this, s] { return snapshot(s); });
  }
}

void ShardedDataplane::register_health(telemetry::HealthSampler& sampler,
                                       telemetry::Watchdog* watchdog) {
  const bool multi_graph = graphs_.size() > 1;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const std::string shard_tag = std::to_string(s);
    for (std::size_t g = 0; g < shards_[s].pipelines.size(); ++g) {
      const std::string tag =
          multi_graph ? shard_tag + ".g" + std::to_string(g) : shard_tag;
      shards_[s].pipelines[g]->register_health(sampler, watchdog, tag);
    }
    const telemetry::Labels labels{{"plane", "sharded"},
                                   {"shard", shard_tag}};
    sampler.add_probe("shard_rx_total", labels, [this, s] {
      return static_cast<double>(shard_received(s));
    });
    sampler.add_probe("microflow_hit_total", labels, [this, s] {
      return static_cast<double>(shard_hits(s));
    });
    sampler.add_probe("microflow_miss_total", labels, [this, s] {
      return static_cast<double>(shard_misses(s));
    });
    sampler.add_probe("microflow_cache_entries", labels, [this, s] {
      return static_cast<double>(shards_[s].cache->size());
    });
    sampler.add_probe("ingest_ring_depth", labels, [this, s] {
      return static_cast<double>(shards_[s].ring->size());
    });
    // One series per shard pool: its pipelines register none of their own.
    sampler.add_probe("pool_in_use", labels, [this, s] {
      return static_cast<double>(shards_[s].pool->in_use());
    });
    sampler.add_probe("pool_refcnt_underflow_total", labels, [this, s] {
      return static_cast<double>(shards_[s].pool->refcnt_underflow_total());
    });
    // core_busy_ns + the sim_now_ns wall clock below let the timeseries
    // collector derive core_util{component=shardN} for `nfp_cli top`.
    sampler.add_probe(
        "core_busy_ns",
        {{"component", "shard" + shard_tag}, {"plane", "sharded"}},
        [this, s] { return static_cast<double>(shard_busy_ns(s)); });
    if (watchdog != nullptr) {
      watchdog->watch_heartbeat("shard" + shard_tag + "/ingest", [this, s] {
        return shards_[s].heartbeat_ns->load(std::memory_order_relaxed);
      });
      watchdog->watch_pool(
          "shard" + shard_tag + "/live-pool",
          [this, s] { return static_cast<u64>(shards_[s].pool->in_use()); },
          shards_[s].pool->capacity());
    }
  }
  // The live plane runs on the wall clock; publishing it as sim_now_ns
  // gives the collector's utilization derivation its denominator.
  sampler.add_probe("sim_now_ns", {{"plane", "sharded"}},
                    [] { return static_cast<double>(telemetry::mono_now_ns()); });
}

}  // namespace nfp
