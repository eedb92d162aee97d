// Live multi-graph classification (paper §5.1) for the sharded dataplane.
//
// The compiler's Classification Table steers each flow into one of the
// service graphs deployed on a server. Every shard puts an exact-match
// *microflow cache* in front of the shared table (the role OVS's EMC plays
// in front of its megaflow classifier): the first packet of a flow pays the
// full classification, every later packet is one bounded-LRU hash lookup.
//
// The shared table itself is a tuple-space classifier behind an epoch-
// published snapshot (tuple_space_classifier.hpp): classify() takes no lock
// — it pins an epoch guard, acquire-loads the current immutable snapshot
// and searches it, so concurrent cache-missing workers never serialize and
// a rule mutation never stalls the read path. Mutators serialize on a
// writer mutex, rebuild the snapshot off the hot path, publish it with one
// release store and retire the old snapshot after an epoch grace period.
//
// Rule mutations still bump a version counter that shard workers poll
// (relaxed) once per burst; on a change each worker clears its own cache,
// so stale verdicts never outlive the burst that observed the bump. That
// contract is unchanged from the mutex-guarded table this replaces.
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "common/hash.hpp"
#include "common/types.hpp"
#include "dataplane/tuple_space_classifier.hpp"
#include "flow/flow_table.hpp"
#include "telemetry/owned_counter.hpp"

namespace nfp {

namespace telemetry {
u64 mono_now_ns() noexcept;  // health_sampler.hpp
}  // namespace telemetry

class LiveClassificationTable {
 public:
  // Sentinel verdict: drop the flow at classification time (a CT drop rule
  // — the DDoS-scrubbing use in the paper's policy examples). Shard workers
  // count these under DropReason::kClassifierMiss.
  static constexpr std::size_t kDropGraph = kCtDropGraph;

  explicit LiveClassificationTable(std::size_t graph_count = 1);
  ~LiveClassificationTable();
  LiveClassificationTable(const LiveClassificationTable&) = delete;
  LiveClassificationTable& operator=(const LiveClassificationTable&) = delete;

  // Exact 5-tuple rule (mirrors NfpDataplane::add_flow_rule). Out-of-range
  // graph indices clamp to graph 0, matching the "unmatched flows take
  // graph 0" default.
  void add_exact(const FiveTuple& flow, std::size_t graph);
  // Masked rule; matched after the exact rules, highest priority first,
  // insertion order breaking priority ties.
  void add_rule(CtRule rule);
  // Bulk insert: one snapshot rebuild and one grace period for the whole
  // batch — the path that makes 100k-rule loads O(N), not O(N^2).
  void add_rules(std::vector<CtRule> rules);

  // Full classification: exact match, then best masked rule, else graph 0.
  // Lock-free: epoch guard + one acquire load of the published snapshot.
  std::size_t classify(const FiveTuple& flow) const;

  std::size_t graph_count() const noexcept { return graph_count_; }
  std::size_t exact_entries() const;
  std::size_t rule_entries() const;
  // Distinct mask signatures in the live snapshot — what a miss-path
  // lookup is linear in.
  std::size_t tuple_count() const;

  // Monotone generation stamp; bumped by every rule mutation. Shard workers
  // compare it (relaxed) against their cache's stamp once per burst and
  // clear the cache on mismatch.
  u64 version() const noexcept {
    return version_.load(std::memory_order_acquire);
  }

 private:
  // Rebuilds and publishes a snapshot from exact_/rules_; returns the
  // retired snapshot so the caller can drop it after the grace period,
  // outside the writer lock. Requires writer_mu_ held.
  [[nodiscard]] std::shared_ptr<const TupleSpaceClassifier> publish_locked();

  const std::size_t graph_count_;
  // Writer-side state: the mutex only ever serializes mutators (and
  // cold stats reads of the authoritative maps); classify() never takes it.
  alignas(kCacheLineSize) mutable std::mutex writer_mu_;
  ExactCtMap exact_;
  std::vector<CtRule> rules_;  // authoritative, in insertion order
  std::shared_ptr<const TupleSpaceClassifier> snap_;  // owns what live_ aims at
  // Read-path line: the published snapshot pointer, alone on its cacheline
  // so writer-side churn never invalidates the line readers spin on.
  alignas(kCacheLineSize) std::atomic<const TupleSpaceClassifier*> live_{
      nullptr};
  alignas(kCacheLineSize) std::atomic<u64> version_{0};
};

// Per-shard exact-match microflow cache over the CT verdict. Owned and
// touched by exactly one shard worker; the hit/miss counters are
// single-writer OwnedCounters — the worker bumps a plain shadow and
// publishes with one relaxed store, so the per-packet hit path carries no
// lock-prefixed RMW and each counter sits on its own cacheline, private to
// the shard until a telemetry scrape folds it.
class MicroflowCache {
 public:
  explicit MicroflowCache(const LiveClassificationTable& ct,
                          std::size_t capacity)
      : ct_(ct), table_(capacity == 0 ? 1 : capacity) {}

  // Classifies through the cache; O(1) amortized per packet.
  std::size_t classify(const FiveTuple& flow) {
    // Single-probe hit path: touch() finds, refreshes the LRU position and
    // hands back the verdict in one hash walk (the old peek/get_or_create
    // pair walked the table twice per hit).
    if (const std::size_t* cached = table_.touch(flow)) {
      hits_.increment();
      return *cached;
    }
    misses_.increment();
    // The miss path crosses into the shared CT — lock-free now, but still
    // the slow path (tuple walk + possible snapshot-pin fence) whose
    // latency the scalability profiler attributes. Misses are rare (first
    // packet of a flow / post-invalidation), so two clock reads here cost
    // nothing on the steady-state path.
    const u64 t0 = telemetry::mono_now_ns();
    const std::size_t verdict = ct_.classify(flow);
    miss_ns_.add(telemetry::mono_now_ns() - t0);
    table_.get_or_create(flow) = verdict;
    entries_.store(table_.size(), std::memory_order_relaxed);
    return verdict;
  }

  // Drops every cached verdict when the CT generation moved (rule change);
  // call once per burst, before classifying it.
  void sync_generation() {
    const u64 v = ct_.version();
    if (v != seen_version_) {
      table_.clear();
      entries_.store(0, std::memory_order_relaxed);
      invalidations_.increment();
      seen_version_ = v;
    }
  }

  u64 hits() const noexcept { return hits_.read(); }
  u64 misses() const noexcept { return misses_.read(); }
  // Cumulative wall time the owning worker spent inside CT lookups on the
  // miss path (snapshot pin + tuple walk).
  u64 miss_ns() const noexcept { return miss_ns_.read(); }
  u64 invalidations() const noexcept { return invalidations_.read(); }
  u64 evictions() const noexcept { return table_.evictions(); }
  // Cached flows, as the worker published them after its last insert or
  // clear: safe from a sampler thread mid-run, unlike the table's own
  // count.
  std::size_t size() const noexcept {
    return entries_.load(std::memory_order_relaxed);
  }
  std::size_t capacity() const noexcept { return table_.capacity(); }

 private:
  const LiveClassificationTable& ct_;
  FlowTable<std::size_t> table_;
  u64 seen_version_ = 0;
  // Worker-written, scrape-read; each on its own line (OwnedCounter is
  // alignas(kCacheLineSize)) so a sampler read pulls one counter's line
  // instead of stealing the FlowTable's LRU bookkeeping from the worker.
  // invalidations_ included: it was previously a plain u64 read racily by
  // sampler probes.
  telemetry::OwnedCounter hits_;
  telemetry::OwnedCounter misses_;
  telemetry::OwnedCounter miss_ns_;
  telemetry::OwnedCounter invalidations_;
  alignas(kCacheLineSize) std::atomic<std::size_t> entries_{0};
};

// Parses the IPv4 5-tuple out of a raw Ethernet frame (the director needs
// it before any Packet object exists). Returns nullopt for frames that are
// not IPv4/TCP/UDP, are truncated anywhere a field would be read, carry a
// bad IHL, or are non-first fragments (their L4 bytes belong to some other
// packet's payload). Callers treat rejects as one anonymous flow.
std::optional<FiveTuple> parse_five_tuple(std::span<const u8> frame) noexcept;

}  // namespace nfp
