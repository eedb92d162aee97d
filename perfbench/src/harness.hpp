// Measurement helpers of the live-plane benchmark: output digests, order
// statistics, the open-loop pacing arithmetic, the metric catalog, the
// result line, process memory and the host fingerprint. Everything here is
// pure or reads /proc only, so tests/harness_test.cpp covers it without a
// running plane.
#pragma once

#include <cstddef>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "telemetry/latency_observatory.hpp"

namespace perfbench {

using nfp::u64;
using nfp::u8;

// Order-independent, byte-sensitive digest of a multiset of frames: each
// frame is hashed over its length and every byte, and the hashes are
// combined with two commutative operations, so delivery order across shards
// does not matter but any changed, lost or duplicated byte does.
struct MultisetDigest {
  u64 count = 0;
  u64 sum = 0;
  u64 sum_sq = 0;  // sum of squared hashes (mod 2^64): catches a+b == c+d

  void add(std::span<const u8> frame) noexcept;
  friend bool operator==(const MultisetDigest&,
                         const MultisetDigest&) = default;
};

// Linear-interpolated quantile (the "linear" method of numpy and of
// Python's statistics.quantiles(method="inclusive")) of `values`, q in
// [0, 1]. Empty input returns 0.
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);

// Quantile of a stage histogram in microseconds, interpolated linearly
// inside the bucket that holds rank q * count, so the result moves with the
// samples instead of snapping to a bucket's lower bound.
double hdr_quantile_us(const nfp::telemetry::HdrSnapshot& h, double q);

// Open-loop schedule: frame i is due at start_ns + i * gap_ns. The
// generator sends it when due (or at once when late) and records how late.
struct PacedSchedule {
  u64 start_ns = 0;
  double rate_pps = 1.0;

  u64 due_ns(u64 i) const noexcept;
  // How late a frame due at `due` went out at `sent`; 0 when on time.
  static u64 lateness_ns(u64 due, u64 sent) noexcept {
    return sent > due ? sent - due : 0;
  }
};

// One metric of the benchmark's record (BENCHMARK.json).
struct MetricDef {
  std::string name;
  std::string unit;
};

std::vector<std::string> workload_names();
const std::vector<MetricDef>& end_to_end_metrics();
const std::vector<MetricDef>& per_layer_metrics();
// The metrics a run of `workload` prints: every end-to-end metric when
// untraced, every per-layer metric when traced (the record asks for the
// same set on every workload). Empty for an unknown workload.
std::vector<MetricDef> metrics_for(const std::string& workload, bool traced);
std::string unit_of(const std::string& metric);

// The last line of a run: {"correct":..,"attempted":..,"failed":..,
// "metrics":{name:{"value":..,"unit":..}}}. Values print with 17
// significant digits.
std::string result_line(bool correct, u64 attempted, u64 failed,
                        const std::map<std::string, double>& metrics);

// Resident set and its high-water mark from /proc/self/status, in MiB
// (0 when unavailable).
double rss_mb();
double peak_rss_mb();

// Online CPUs, whether pinning applied, build type and compiler, as one
// JSON object.
std::string host_fingerprint_json(std::size_t online_cpus,
                                  bool affinity_applied);

}  // namespace perfbench
