// Flow view: who the traffic is, where it is dropped, and what each
// tenant graph receives — one of the three views telemetry::Observatory
// (observatory.hpp) reads off each shard's snapshot.
//
// The scalability view attributes lost throughput and the latency view
// lost microseconds; this view attributes the *traffic* itself — the
// missing axis behind NFP's traffic-steering story (paper §4: the
// classifier steers flows across per-policy service graphs) and the
// multi-tenant setting of the cloud-NFV follow-ups. Three signals:
//
//   * heavy hitters — a Space-Saving top-K table per shard keyed by the
//     5-tuple, counting packets + bytes (PacketByteCount, the same unit as
//     the Monitor NF). Space-Saving guarantees every flow with true count
//     > N/K is present and each entry over-counts by at most its recorded
//     `error` (bounded by N/K for N packets and K slots); tables merge
//     associatively across shards by summing per-key counts — and because
//     the director shards flows disjointly (RSS), the cross-shard merge of
//     the per-shard tables is exactly the single-table result.
//   * flow churn — active-flow cardinality via a 256-register HyperLogLog
//     (standard error 1.04/sqrt(256) ≈ 6.5%, registers merge by max) plus a
//     new-flow counter (a packet whose flow is absent from the shard's
//     heavy-hitter table; exact until the table evicts, approximate after).
//   * a drop-reason taxonomy — every packet the dataplane loses carries a
//     DropReason (sum over reasons == dropped, exactly; a test enforces
//     it), counted per shard and sampled into a bounded exemplar ring
//     (5-tuple, stage, reason, timestamp) for "which flow was hit" triage.
//
// Plus per-service-graph (tenant) accounting: pps/bytes/drops and the p99
// of the latency view's total stage, per graph steered by the
// LiveClassificationTable.
//
// Recording contract: the shard worker aggregates packets thread-locally
// (FlowAccumulator) and folds whole epochs into the shard's accountant
// under one uncontended mutex acquisition. An epoch ends at an idle
// streak, at stop, when a probe run of the accumulator fills, or at a
// 64Ki-packet staleness backstop. Paced and low-cardinality workloads
// fold at idle streaks or the backstop; a shard with ~10k flows
// (ct-churn) folds when a probe run fills, every ~29k packets, on the
// critical path. The sketches never see per-packet locking, and scrape
// threads touch the same mutex only at report time. Drop counters are
// relaxed atomics (drops are the cold path). The director's flow hash is
// reused for every key, so accounting adds no reparse.
// bench_shard_scaling's sharded/flow32-acct/noacct pair gates the enabled
// cost at 5% on 427 flows, whose folds are a few hundred samples. The
// cost at high cardinality is bench_micro_components' BM_FlowFold/zipf10k
// (CI holds it to 6x BM_FlowFold/uniform341) and perfbench ct-churn's
// telemetry.overhead_share; its count, the samples folded per packet
// (ShardFlowAccountant::folded_samples()), is pinned by
// FlowObservatoryTest.FoldedSamplesPerPacketStayBounded.
//
// Surfaces: /flows.json, flows_active / flow_new_rate / hh_top1_share /
// drops_<reason>_total probes (republished as Prometheus gauges), the
// `nfp_cli top` flows panel and the `nfp_cli flows` zipf elephant/mice
// workload.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "common/hash.hpp"
#include "common/types.hpp"
#include "flow/flow_counters.hpp"
#include "telemetry/latency_observatory.hpp"

namespace nfp::telemetry {

// Why the dataplane lost a packet. kCount is the array bound.
enum class DropReason : unsigned {
  kRingFull = 0,     // director RX ring full under drop_on_ingest_backpressure
  kPoolExhausted,    // packet-pool alloc/clone failure (fanout copies, feeds)
  kNfVerdict,        // an NF (or the merge drop-resolution) said kDrop
  kClassifierMiss,   // CT verdict was the drop graph (kDropGraph)
  kMergeOverflow,    // merge accumulation failed (defensive; no live path
                     // tags it — a fused merge holds every arrival)
  kShutdownDrain,    // frame offered while the plane was not running
  kMalformed,        // frame longer than a packet slot holds
                     // (Packet::kMaxDataLen), refused before a slot is taken
  kCount,
};
inline constexpr std::size_t kDropReasonCount =
    static_cast<std::size_t>(DropReason::kCount);

// Stable snake_case names used in JSON, tables and probe suffixes.
const char* drop_reason_name(DropReason r) noexcept;

// ---------------------------------------------------------------------------
// Sketches.

// Space-Saving heavy-hitter table (Metwally et al.): at most `capacity`
// monitored flows; a new flow arriving at a full table replaces the current
// minimum and inherits its count as `error`. Guarantees: every flow with
// true count > N/capacity is present, and for every entry
// true_count <= packets <= true_count + error. Single-threaded; the
// accountant serializes access.
//
// The table is flat and allocates nothing after construction: `capacity`
// entries in one vector, a min-heap of entry indices ordered by packets,
// and an open-addressed index of (hash tag, entry) slots, a sixteenth full,
// whose deletions shift the cluster back (as in FlowTable) instead of
// leaving tombstones. Counts only grow, so the heap stays valid across
// calls: an increment sifts its entry down from its stored heap position,
// and a newcomer takes over the top entry and sifts down. A hit or a
// replacement costs O(log capacity); at the shards' 128 entries the table
// is ~25 KB and stays in L1. The sparse index keeps a probe to about one
// slot, so its loops rarely mispredict: on a ct-churn shard nearly every
// folded sample is a newcomer, and a denser index cost more than its
// footprint saved.
class SpaceSaving {
 public:
  struct Entry {
    FiveTuple tuple{};
    u64 hash = 0;
    PacketByteCount count;  // packets is the Space-Saving counter
    u64 error = 0;          // max over-count inherited at replacement
  };

  explicit SpaceSaving(std::size_t capacity);

  // Counts `packets` of a flow: a monitored flow adds to its entry; any
  // other fills a free entry or displaces the current minimum, inheriting
  // its count as `error`. Returns true when the flow was not previously
  // monitored.
  bool record(const FiveTuple& tuple, u64 hash, u64 packets, u64 bytes);

  std::size_t size() const noexcept { return entries_.size(); }
  std::size_t capacity() const noexcept { return capacity_; }
  std::vector<Entry> entries() const { return entries_; }  // unsorted

 private:
  static constexpr u32 kNil = ~u32{0};

  // One flow's packets and bytes, for insert().
  struct Candidate {
    FiveTuple tuple{};
    u64 hash = 0;
    u64 packets = 0;
    u64 bytes = 0;
  };

  // Keyed by the 64-bit flow hash (a collision merges two flows into one
  // entry — acceptable for a sketch, vanishing at these table sizes). A
  // slot holds the hash's top 32 bits and the entry, whose full hash
  // settles a match.
  struct Slot {
    u32 tag = 0;
    u32 entry = kNil;  // kNil = empty
  };

  // The heap keeps each entry's packets beside its index, so a sift
  // compares without chasing the index into entries_.
  struct HeapNode {
    u64 packets = 0;
    u32 entry = 0;
  };

  static u32 tag_of(u64 hash) noexcept { return static_cast<u32>(hash >> 32); }

  // The home slot takes the tag's top bits: the director shards by
  // hash % shards, so the low bits repeat within a shard.
  std::size_t home(u32 tag) const noexcept {
    return static_cast<std::size_t>(tag >> shift_);
  }

  u32 find(u64 hash) const noexcept {
    const u32 tag = tag_of(hash);
    for (std::size_t i = home(tag);; i = (i + 1) & mask_) {
      const Slot s = index_[i];
      if (s.entry == kNil) return kNil;
      if (s.tag == tag && entries_[s.entry].hash == hash) return s.entry;
    }
  }

  // Hit path: adds to an already-monitored flow. False when absent.
  bool increment(u64 hash, u64 packets, u64 bytes) {
    const u32 e = find(hash);
    if (e == kNil) return false;
    entries_[e].count.packets += packets;
    entries_[e].count.bytes += bytes;
    const u32 pos = pos_[e];
    heap_[pos].packets += packets;
    sift_down(pos);
    return true;
  }

  void insert(const Candidate& c);  // a miss: fill or displace the minimum
  void place(u32 tag, u32 entry);
  void erase_slot(u32 tag, u32 entry);
  void sift_down(std::size_t pos) noexcept;
  void sift_up(std::size_t pos) noexcept;

  std::size_t capacity_;
  std::vector<Entry> entries_;  // grows to capacity_, then only rewrites
  std::vector<HeapNode> heap_;  // least packets on top
  std::vector<u32> pos_;        // entry index -> its position in heap_
  std::vector<Slot> index_;     // power of two, 1/16 in use when full
  std::size_t mask_ = 0;
  int shift_ = 0;  // 32 - log2(index_.size())
};

// Sums entry lists by flow hash, sorts by descending packets and truncates
// to `capacity` — the associative cross-shard merge. With disjoint key sets
// (RSS sharding) this is exact.
std::vector<SpaceSaving::Entry> merge_topk(
    std::span<const std::vector<SpaceSaving::Entry>> tables,
    std::size_t capacity);

// 256-register HyperLogLog over the 64-bit flow hash: top 8 bits pick the
// register, the leading-zero rank of the rest updates it. Standard error
// 1.04/sqrt(256) ≈ 6.5%; registers merge by element-wise max.
class HyperLogLog {
 public:
  static constexpr std::size_t kRegisters = 256;
  using Registers = std::array<u8, kRegisters>;

  void add(u64 hash) noexcept {
    const std::size_t idx = static_cast<std::size_t>(hash >> 56);
    const u64 rest = hash << 8;
    const u8 rank =
        rest == 0 ? 57 : static_cast<u8>(std::countl_zero(rest) + 1);
    if (rank > regs_[idx]) regs_[idx] = rank;
  }

  const Registers& registers() const noexcept { return regs_; }

  // Cardinality estimate with the standard small-range (linear counting)
  // correction; the 64-bit hash makes large-range correction moot.
  static double estimate(const Registers& regs) noexcept;

 private:
  Registers regs_{};
};

// ---------------------------------------------------------------------------
// Drop exemplars.

// One sampled drop: enough to answer "which flow, where, why, when".
struct DropExemplar {
  FiveTuple tuple{};
  bool tuple_valid = false;
  DropReason reason = DropReason::kNfVerdict;
  std::string stage;  // "director", "feeder", "nf:firewall#2", "merge", ...
  u64 when_ns = 0;    // mono_now_ns at the drop
};

// Bounded ring of recent drops, written from any dataplane thread (drops
// are the cold path, so a plain mutex is fine) and snapshotted at scrape.
class DropExemplarRing {
 public:
  explicit DropExemplarRing(std::size_t capacity = 64)
      : ring_(capacity == 0 ? 1 : capacity) {}

  void record(DropReason reason, const char* stage, const FlowRef* flow,
              u64 when_ns);
  std::vector<DropExemplar> snapshot() const;  // oldest first

 private:
  mutable std::mutex mu_;
  std::vector<DropExemplar> ring_;
  std::size_t next_ = 0;
  u64 total_ = 0;
};

// ---------------------------------------------------------------------------
// Per-shard recording + scrape-time snapshots.

// One packet's contribution, pre-aggregated per burst by the shard worker
// (same-flow packets within a burst collapse into one sample).
struct FlowSample {
  FiveTuple tuple{};
  u64 hash = 0;
  u32 graph = kNoGraph;  // kNoGraph: no graph attribution (classifier drop)
  u32 packets = 0;
  u64 bytes = 0;
  bool tuple_valid = false;

  static constexpr u32 kNoGraph = ~u32{0};
};

// Per-graph (tenant) accounting: traffic in the shared counting unit plus
// drops and the latency view's total-stage histogram for that graph's
// pipelines.
struct GraphFlowCounters {
  PacketByteCount traffic;
  u64 drops = 0;
  HdrSnapshot latency;  // total stage; empty unless latency sampling is on

  GraphFlowCounters& operator+=(const GraphFlowCounters& other) noexcept {
    traffic += other.traffic;
    drops += other.drops;
    latency += other.latency;
    return *this;
  }
};

// Scrape-time aggregate for one shard. Mergeable across shards
// (operator+=): counters add, HLL registers max, top-K tables merge by key.
struct ShardFlowSnapshot {
  std::vector<SpaceSaving::Entry> topk;
  std::size_t topk_capacity = 0;
  HyperLogLog::Registers hll{};
  u64 packets = 0;
  u64 bytes = 0;
  u64 new_flows = 0;
  std::array<u64, kDropReasonCount> drops{};
  std::vector<DropExemplar> exemplars;
  std::vector<GraphFlowCounters> graphs;

  u64 total_drops() const noexcept;
  ShardFlowSnapshot& operator+=(const ShardFlowSnapshot& other);
};

// Counters (packets, bytes, new flows, drops, per-graph traffic, drops and
// latency) as now - then; the sketches (top-K table, HLL registers) stay
// cumulative, since they have no subtraction; exemplars older than
// `since_ns` are left out.
ShardFlowSnapshot flow_delta(ShardFlowSnapshot now,
                             const ShardFlowSnapshot& then, u64 since_ns);

// The per-shard recording half: owned by the sharded dataplane, written by
// the shard's worker (record_burst, one mutex acquisition per burst) and by
// any thread that drops a packet (record_drop, atomics + exemplar ring).
class ShardFlowAccountant {
 public:
  static constexpr std::size_t kExemplarCapacity = 64;  // latest drops kept
  ShardFlowAccountant(std::size_t topk_capacity, std::size_t graph_count);

  // Folds one burst's deduped samples into the sketches. Worker thread.
  void record_burst(std::span<const FlowSample> samples);

  // Samples record_burst has folded so far: over the packets counted, the
  // Space-Saving steps the shard pays per packet.
  u64 folded_samples() const;

  // Counts a drop and samples it into the exemplar ring. Any thread.
  void record_drop(DropReason reason, const char* stage, const FlowRef* flow,
                   u64 when_ns);

  // Exemplar ring shared with this shard's pipelines (they record their
  // own drop reasons but sample exemplars into the shard's ring).
  DropExemplarRing& exemplars() noexcept { return exemplars_; }

  u64 drops(DropReason r) const noexcept {
    return drops_[static_cast<std::size_t>(r)].load(
        std::memory_order_relaxed);
  }

  // Sketch + counter snapshot (graphs carry traffic only; the dataplane
  // folds pipeline drops and latency in on top).
  ShardFlowSnapshot snapshot() const;

 private:
  mutable std::mutex mu_;
  SpaceSaving topk_;
  HyperLogLog hll_;
  u64 packets_ = 0;
  u64 bytes_ = 0;
  u64 new_flows_ = 0;
  u64 folded_samples_ = 0;
  std::vector<PacketByteCount> graphs_;
  std::array<std::atomic<u64>, kDropReasonCount> drops_{};
  DropExemplarRing exemplars_;
};

// Worker-private flow-sample accumulator: collapses same-flow packets
// across bursts into one FlowSample per (flow, graph) in an
// open-addressed table, then folds the whole epoch into the shard's
// accountant under one mutex acquisition. A mouse-heavy mix would
// otherwise pay one Space-Saving step per packet; per epoch it pays one
// per distinct (flow, graph).
//
// An epoch ends in one of three ways. The shard worker flushes after a
// streak of empty polls and on stop, so scrapes of a quiet plane see
// exact counts; paced workloads fold there, a few samples at a time. A
// packet whose probe run is full flushes first: at ~10k flows per shard
// (ct-churn) that happens about every 29k packets, with ~7k samples per
// fold, nearly all of them unmonitored flows that each displace the
// Space-Saving minimum. With few flows under sustained saturation, when
// neither comes, kFlushPackets bounds the staleness.
class FlowAccumulator {
 public:
  // The fold costs per sample, so the table is sized to hold thousands of
  // distinct flows per epoch: a probe run fills at ~45% load, ~7k
  // samples. Fewer slots fold more often: at 4,096 a ct-churn shard
  // folds every ~3.6k packets, 0.56 samples per packet against 0.24
  // here. Twice as many hold a whole 64Ki-packet ct-churn epoch (0.14),
  // but their larger samples array raised ct-churn's peak memory ~9%.
  static constexpr std::size_t kSlots = 16384;  // power of two
  static constexpr std::size_t kMaxProbe = 16;
  // 64Ki packets is ~40 ms at 1.5 Mpps, well inside the probe cache's
  // 200 ms refresh.
  static constexpr u64 kFlushPackets = 64 * 1024;

  // Counts one packet of `flow` toward `graph`, folding the epoch into
  // `acct` first when the flow's probe run is full.
  void add(const FlowRef& flow, std::size_t bytes, u32 graph,
           ShardFlowAccountant& acct) {
    if (!try_add(flow, bytes, graph)) {
      flush(acct);
      try_add(flow, bytes, graph);
    }
  }

  // Folds the epoch into `acct` and empties the table.
  void flush(ShardFlowAccountant& acct);

  // Packets added since the last flush.
  u64 pending() const noexcept { return pending_; }

 private:
  static constexpr std::size_t kMask = kSlots - 1;
  static constexpr u32 kEmpty = ~u32{0};

  // An index slot: the flow hash's top 32 bits and the position of the
  // (flow, graph) sample in samples_. At 8 B a slot the index is 128 KB,
  // and the samples sit back to back in arrival order, so a flush hands
  // them to the accountant as they are.
  struct Slot {
    u32 tag = 0;
    u32 sample = kEmpty;
  };

  // False when the probe run is full.
  bool try_add(const FlowRef& flow, std::size_t bytes, u32 graph) {
    const auto tag = static_cast<u32>(flow.hash >> 32);
    std::size_t idx = static_cast<std::size_t>(flow.hash) & kMask;
    for (std::size_t probe = 0; probe < kMaxProbe;
         ++probe, idx = (idx + 1) & kMask) {
      Slot& slot = index_[idx];
      if (slot.sample == kEmpty) {
        slot = {tag, static_cast<u32>(samples_.size())};
        FlowSample& s = samples_.emplace_back();
        s.tuple = flow.tuple;
        s.hash = flow.hash;
        s.graph = graph;
        s.packets = 1;
        s.bytes = bytes;
        s.tuple_valid = flow.valid;
        used_.push_back(static_cast<u32>(idx));
        ++pending_;
        return true;
      }
      if (slot.tag != tag) continue;
      FlowSample& s = samples_[slot.sample];
      if (s.hash == flow.hash && s.graph == graph) {
        ++s.packets;
        s.bytes += bytes;
        ++pending_;
        return true;
      }
    }
    return false;
  }

  std::vector<Slot> index_ = std::vector<Slot>(kSlots);
  // Both grow to the largest epoch and keep that capacity.
  std::vector<FlowSample> samples_;  // the epoch, in arrival order
  std::vector<u32> used_;            // occupied index slots
  u64 pending_ = 0;
};

// ---------------------------------------------------------------------------
// Report.

struct FlowReport {
  struct Shard {
    std::string name;
    ShardFlowSnapshot d;  // counters are deltas since baseline; sketches
                          // are cumulative (sketches do not subtract)
  };

  std::vector<Shard> shards;
  ShardFlowSnapshot total;  // cross-shard merge of the deltas
  double wall_seconds = 0;
  std::size_t top_k = 10;  // entries rendered in to_json/to_text

  double flows_active() const noexcept {
    return HyperLogLog::estimate(total.hll);
  }
  double new_flow_rate() const noexcept {
    return wall_seconds > 0
               ? static_cast<double>(total.new_flows) / wall_seconds
               : 0.0;
  }
  // Fraction of all counted packets attributed to the top-1 flow.
  double hh_top1_share() const noexcept;
  u64 total_drops() const noexcept { return total.total_drops(); }

  // Appends one shard's delta and merges it into the total.
  void add_shard(std::string name, ShardFlowSnapshot d);

  std::string to_json() const;
  // Terminal rendering: top-K table, churn line, drop-reason table,
  // per-graph accounting.
  std::string to_text() const;
};

}  // namespace nfp::telemetry
