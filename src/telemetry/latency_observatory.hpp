// Latency view: sampled per-packet stage timing across the sharded
// dataplane, one of the three views telemetry::Observatory
// (observatory.hpp) reads off each shard's snapshot.
//
// NFP's headline result is latency — parallel NF graphs cut packet latency
// vs. the sequential chain (§6) — and the scalability view only
// attributes lost *throughput*. This view attributes every lost
// microsecond: deterministic 1-in-N flow-hash sampling at the director
// stamps selected packets at each hop, and delivery decomposes the
// end-to-end time into an exact stage partition,
//
//   ingest      director feed() -> pipeline entry on the shard worker
//               (director pool/ring, shard-worker classify)
//   queue       between NF calls: fan-out copies, merges and the step
//               from one hop to the next
//   service     inside NetworkFunction::process() calls; a parallel
//               segment's branches, run one after another, are one span
//   total       origin stamp -> delivery
//
// Stage spans telescope hop by hop (each hop contributes exactly
// next_mark - prev_mark) and delivery reads no clock after the last
// mark, so ingest+queue+service == total per packet, which is the
// invariant the live 2-shard tests assert. Every graph runs to
// completion on the shard worker, so no packet waits at a merge; the
// simulated plane's merge wait lives in critical_path.hpp.
//
// The recording contract mirrors the scalability view: samples land in
// per-thread, cacheline-aligned StageLatencyBlocks written by exactly one
// thread (relaxed atomics); aggregation happens only at scrape time, in
// the dataplane's per-shard snapshot. Storage is a fixed-footprint HDR-style
// histogram — log2 buckets with kLatSubBuckets linear sub-buckets — so
// quantiles carry a bounded relative error of 1/kLatSubBuckets (6.25%:
// a bucket's reported lower bound b satisfies b <= v < b + b/16 for every
// value v it holds) and snapshots merge associatively across shards.
//
// Surfaces: /latency.json, latency_<stage>_p99{shard=N} timeseries probes,
// the per-shard RX ring depth (SpscRing::size() sampled at scrape), the
// `nfp_cli top` latency panel and the `nfp_cli latency` seq-vs-parallel
// comparison. Overhead when off: one branch per packet per hop (the
// origin-stamp zero check); bench_shard_scaling's lat32-acct /
// lat32-noacct pairs gate the enabled cost at 5%.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace nfp::telemetry {

// Hop-resolved stage set. kCount is the array bound.
enum class LatencyStage : unsigned {
  kIngest = 0,
  kQueue,
  kService,
  kTotal,
  kCount,
};
inline constexpr std::size_t kLatencyStageCount =
    static_cast<std::size_t>(LatencyStage::kCount);

// Stable snake_case names used in JSON, tables and timeseries probes.
const char* latency_stage_name(LatencyStage s) noexcept;

// Deterministic flow-hash sampling decision: all packets of a flow are
// sampled or none are, with no cross-thread coordination. The multiplier
// decorrelates the decision from shard selection (hash % shards).
constexpr bool latency_sample_hash(u64 flow_hash, std::size_t every) noexcept {
  if (every == 0) return false;
  if (every <= 1) return true;
  return ((flow_hash * 0x9E3779B97F4A7C15ull) >> 32) % every == 0;
}

// HDR-style log-bucketed histogram geometry: values 0..15 are exact, above
// that each power of two splits into kLatSubBuckets linear sub-buckets.
// 40 exponents cover ~18 minutes in nanoseconds — any live packet latency.
inline constexpr std::size_t kLatSubBuckets = 16;
inline constexpr std::size_t kLatBuckets = 40 * kLatSubBuckets;

std::size_t latency_bucket_index(u64 value) noexcept;
u64 latency_bucket_value(std::size_t index) noexcept;  // lower bound

// Plain-value histogram snapshot for one stage: mergeable (operator+=),
// subtractable (delta vs. a baseline) and quantile-queryable. min/max are
// derived from the occupied buckets, so they carry the same bounded
// relative error as the quantiles.
struct HdrSnapshot {
  std::array<u64, kLatBuckets> counts{};
  u64 total = 0;
  u64 sum = 0;  // exact sum of recorded values

  u64 count() const noexcept { return total; }
  double mean() const noexcept {
    return total ? static_cast<double>(sum) / static_cast<double>(total) : 0.0;
  }
  u64 min() const noexcept;
  u64 max() const noexcept;
  // Bucket lower bound at quantile q in [0,1]; relative error bounded by
  // 1/kLatSubBuckets (the reported value never exceeds the true one).
  u64 quantile(double q) const noexcept;

  HdrSnapshot& operator+=(const HdrSnapshot& other) noexcept;
};

// now - then per bucket, saturating (baselines may outlive a dataplane).
HdrSnapshot hdr_delta(const HdrSnapshot& now, const HdrSnapshot& then) noexcept;

// One thread's recording block: written by exactly one thread with relaxed
// adds into its own cachelines, folded by scrape-side readers. Nothing
// shared is written on the hot path (the scalability view's contract).
struct alignas(kCacheLineSize) StageLatencyBlock {
  void record(LatencyStage s, u64 ns) noexcept {
    auto& st = stages_[static_cast<std::size_t>(s)];
    st.counts[latency_bucket_index(ns)].fetch_add(1,
                                                  std::memory_order_relaxed);
    st.total.fetch_add(1, std::memory_order_relaxed);
    st.sum.fetch_add(ns, std::memory_order_relaxed);
  }

  HdrSnapshot snapshot(LatencyStage s) const noexcept;

 private:
  struct Stage {
    std::array<std::atomic<u64>, kLatBuckets> counts{};
    std::atomic<u64> total{0};
    std::atomic<u64> sum{0};
  };
  std::array<Stage, kLatencyStageCount> stages_{};
};

// Scrape-time aggregate for one shard: the stage histograms folded across
// the shard's pipelines, plus the point-in-time occupancy of its RX ring
// (SpscRing::size()) as the correlating queue-depth signal.
struct ShardLatencySnapshot {
  std::array<HdrSnapshot, kLatencyStageCount> stages{};
  double ingest_queue_depth = 0; // director -> shard RX ring occupancy

  const HdrSnapshot& stage(LatencyStage s) const noexcept {
    return stages[static_cast<std::size_t>(s)];
  }
  ShardLatencySnapshot& operator+=(const ShardLatencySnapshot& other) noexcept;
};

// Stage histograms as now - then; the queue depth is a point-in-time gauge
// and comes from `now` unchanged.
ShardLatencySnapshot latency_delta(const ShardLatencySnapshot& now,
                                   const ShardLatencySnapshot& then) noexcept;

// The folded report: per-shard and merged stage summaries in microseconds.
struct LatencyReport {
  struct Shard {
    std::string name;
    ShardLatencySnapshot d;  // delta since baseline
  };

  std::vector<Shard> shards;
  std::array<HdrSnapshot, kLatencyStageCount> total{};
  double ingest_queue_depth = 0;
  std::size_t sample_every = 0;
  double wall_seconds = 0;

  u64 sampled() const noexcept {
    return total[static_cast<std::size_t>(LatencyStage::kTotal)].count();
  }
  const HdrSnapshot& stage(LatencyStage s) const noexcept {
    return total[static_cast<std::size_t>(s)];
  }

  // Appends one shard's delta and folds it into the totals.
  void add_shard(std::string name, const ShardLatencySnapshot& d);

  std::string to_json() const;
  // Fixed-width stage table for terminals (p50/p90/p99/p99.9/max/mean).
  std::string to_text() const;
};

}  // namespace nfp::telemetry
