// Scalability view: attributes every lost packet-per-second when shards
// scale. It is one of the three views telemetry::Observatory
// (observatory.hpp) reads off each shard's snapshot.
//
// BENCH_shard_scaling.json says par4 at 2 shards runs at 0.609x the
// 1-shard rate; this view answers *where* the other 39% went. The
// model is per-thread cycle accounting: the shard worker's loop already
// reads the monotonic clock once per iteration for its heartbeat, so each
// iteration's wall-time interval is classified — at the cost of one
// relaxed fetch_add to a thread-private cacheline — into exactly one
// bucket, and the director books its waits to the shard that stalled it:
//
//   useful        packets were processed (burst pop + NF work + delivery)
//   starved       idle with nothing upstream (ingest-starved polling)
//   ring_wait     spinning on a full ring (backpressure from downstream)
//   pool_wait     spinning on an exhausted packet pool / CAS contention
//   merge_wait    waiting for a merge's last arrival; no live thread books
//                 it, because the live merge is fused
//   classifier_miss  microflow-cache miss resolving through the shared CT
//
// Because the buckets partition each thread's loop wall-time, per-shard
// category shares sum to 100% of accounted shard-seconds by construction
// (the acceptance invariant; saturating arithmetic on the carve-outs is
// the only source of the ±2% tolerance). Event counters ride along as
// contention evidence: PacketPool CAS retries, SpscRing full events,
// Backoff spins, microflow misses.
//
// Aggregation is scrape-time only: threads write their own
// cacheline-aligned CycleCounters blocks; the dataplane folds them into a
// ShardScalabilitySnapshot when the observatory reports. Nothing shared
// is written on the hot path.
//
// Hardware counters: when perf_event_open is permitted, cache-misses and
// stalled backend cycles for the calling process are read per report.
// When the syscall is denied (seccomp, perf_event_paranoid) the report
// says so honestly — hw.source flips to "software-proxy", the hw fields
// are omitted, and the software contention proxies (CAS retries, ring
// full events) stand in. Numbers are never fabricated.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace nfp::telemetry {

// Where a loop iteration's wall-time went. kCount is the array bound.
enum class CycleBucket : unsigned {
  kUseful = 0,
  kStarved,
  kRingWait,
  kPoolWait,
  kMergeWait,
  kClassifierMiss,
  kCount,
};
inline constexpr std::size_t kCycleBucketCount =
    static_cast<std::size_t>(CycleBucket::kCount);

// Stable snake_case names used in JSON, tables and timeseries probes.
const char* cycle_bucket_name(CycleBucket b) noexcept;

// One thread's accounting block. Cacheline-aligned and written by exactly
// one thread (relaxed adds); readers aggregate at scrape time, so there is
// no shared-line bouncing on the hot path.
struct alignas(kCacheLineSize) CycleCounters {
  std::array<std::atomic<u64>, kCycleBucketCount> ns{};

  void add(CycleBucket b, u64 delta) noexcept {
    ns[static_cast<std::size_t>(b)].fetch_add(delta,
                                              std::memory_order_relaxed);
  }
  u64 get(CycleBucket b) const noexcept {
    return ns[static_cast<std::size_t>(b)].load(std::memory_order_relaxed);
  }
};

// Loop-side helper: classifies the interval since the previous lap into
// one bucket. Wait loops measured inline (with their own timestamps) call
// carve() so the span is both credited to its bucket and subtracted from
// the enclosing lap — the partition stays exact. All methods are no-ops
// (beyond the clock read lap() must return anyway) when sink is null, so
// `cycle_accounting = false` costs only a branch.
class CycleAccountant {
 public:
  explicit CycleAccountant(CycleCounters* sink, u64 now) noexcept
      : sink_(sink), mark_(now) {}

  // Ends the current interval at `now`, attributing it to `kind`.
  void lap(u64 now, CycleBucket kind) noexcept {
    if (sink_ != nullptr) {
      const u64 span = now - mark_;
      sink_->add(kind, span >= carve_ ? span - carve_ : 0);
    }
    carve_ = 0;
    mark_ = now;
  }

  // Credits an inline-measured wait to its own bucket and excludes it from
  // the enclosing lap.
  void carve(CycleBucket kind, u64 span) noexcept {
    if (sink_ == nullptr) return;
    sink_->add(kind, span);
    carve_ += span;
  }

  bool enabled() const noexcept { return sink_ != nullptr; }

 private:
  CycleCounters* sink_;
  u64 mark_;
  u64 carve_ = 0;
};

// Scrape-time aggregate for one shard: bucket nanoseconds plus the
// contention-evidence event counters. Plain values — producers fill one
// from their atomics inside the snapshot callback.
struct ShardScalabilitySnapshot {
  std::array<u64, kCycleBucketCount> ns{};
  u64 pool_cas_retries = 0;    // failed free-list CAS attempts
  u64 ring_full_events = 0;    // failed ring pushes (backpressure evidence)
  u64 backoff_spins = 0;       // Backoff::pause calls in feed-side waits
  u64 classifier_hits = 0;
  u64 classifier_misses = 0;
  u64 delivered = 0;
  u64 dropped = 0;
  u64 threads = 0;             // accounting threads contributing

  u64 bucket(CycleBucket b) const noexcept {
    return ns[static_cast<std::size_t>(b)];
  }
  u64 accounted_ns() const noexcept;

  ShardScalabilitySnapshot& operator+=(
      const ShardScalabilitySnapshot& other) noexcept;
};

// now - then per field, saturating at zero (counters may restart when a
// baseline outlives a dataplane).
ShardScalabilitySnapshot snapshot_delta(
    const ShardScalabilitySnapshot& now,
    const ShardScalabilitySnapshot& then) noexcept;

// Process-wide hardware sample. `source` is honest: "perf_event" when the
// kernel granted the counters, otherwise "software-proxy" with `detail`
// carrying the errno text; consumers must treat cache_misses /
// stalled_cycles as absent unless source == "perf_event".
struct HwSample {
  std::string source = "software-proxy";
  std::string detail;
  u64 cache_misses = 0;
  u64 stalled_cycles = 0;
};

// perf_event_open wrapper: cache-misses + stalled backend cycles for this
// process across all CPUs. open() is attempted once; failure is sticky and
// carried verbatim into HwSample::detail.
class HwCounterGroup {
 public:
  HwCounterGroup() = default;
  ~HwCounterGroup();
  HwCounterGroup(const HwCounterGroup&) = delete;
  HwCounterGroup& operator=(const HwCounterGroup&) = delete;

  bool open();
  bool opened() const noexcept { return fd_cache_ >= 0; }
  const std::string& error() const noexcept { return error_; }
  HwSample read() const;

 private:
  int fd_cache_ = -1;
  int fd_stall_ = -1;
  bool attempted_ = false;
  std::string error_;
};

// The folded report: per-shard bucket shares (of accounted shard-seconds,
// summing to ~1), throughput attribution, totals and the hw/proxy sample.
struct ScalabilityReport {
  struct Shard {
    std::string name;
    ShardScalabilitySnapshot d;  // delta since baseline
    std::array<double, kCycleBucketCount> share{};
    double accounted_seconds = 0;
    double pps = 0;            // delivered / wall
    double projected_pps = 0;  // pps scaled to a 100%-useful shard
  };

  std::vector<Shard> shards;
  ShardScalabilitySnapshot total;
  std::array<double, kCycleBucketCount> total_share{};
  double total_accounted_seconds = 0;
  double total_pps = 0;
  double wall_seconds = 0;
  HwSample hw;

  // Largest genuine wait bucket across all shards (useful and starved are
  // excluded: one is the goal, the other the absence of demand) — the
  // headline answer to "where did the lost pps go". Empty when nothing
  // was accounted.
  std::string top_contention_source() const;

  // Appends one shard's delta and folds it into the totals. Shares and
  // pps are computed against wall_seconds, so set it first.
  void add_shard(std::string name, const ShardScalabilitySnapshot& d);

  std::string to_json() const;
  // Fixed-width attribution table for terminals (one row per shard + total).
  std::string to_text() const;
};

}  // namespace nfp::telemetry
