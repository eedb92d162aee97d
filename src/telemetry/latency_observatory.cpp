#include "telemetry/latency_observatory.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <sstream>

#include "common/json.hpp"

namespace nfp::telemetry {

namespace {

constexpr std::array<const char*, kLatencyStageCount> kStageNames = {
    "ingest", "queue", "service", "merge_wait", "egress", "total",
};

std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

double to_us(u64 ns) { return static_cast<double>(ns) / 1e3; }

}  // namespace

const char* latency_stage_name(LatencyStage s) noexcept {
  const auto i = static_cast<std::size_t>(s);
  return i < kStageNames.size() ? kStageNames[i] : "unknown";
}

std::size_t latency_bucket_index(u64 value) noexcept {
  // Same geometry as stats/histogram.hpp: exact below kLatSubBuckets, then
  // log2 buckets split into kLatSubBuckets linear sub-buckets. Values past
  // the 40-exponent range clamp into the last bucket.
  if (value < kLatSubBuckets) return static_cast<std::size_t>(value);
  const int msb = 63 - std::countl_zero(value);
  const auto exponent = static_cast<std::size_t>(msb) - 3;
  const std::size_t sub =
      static_cast<std::size_t>(value >> (msb - 4)) & (kLatSubBuckets - 1);
  const std::size_t idx = exponent * kLatSubBuckets + sub;
  return idx < kLatBuckets ? idx : kLatBuckets - 1;
}

u64 latency_bucket_value(std::size_t index) noexcept {
  if (index < kLatSubBuckets) return index;
  const std::size_t exponent = index / kLatSubBuckets;
  const std::size_t sub = index % kLatSubBuckets;
  const int shift = static_cast<int>(exponent) - 1;
  return (u64{kLatSubBuckets} << shift) | (static_cast<u64>(sub) << shift);
}

u64 HdrSnapshot::min() const noexcept {
  if (total == 0) return 0;
  for (std::size_t i = 0; i < kLatBuckets; ++i) {
    if (counts[i] != 0) return latency_bucket_value(i);
  }
  return 0;
}

u64 HdrSnapshot::max() const noexcept {
  if (total == 0) return 0;
  for (std::size_t i = kLatBuckets; i-- > 0;) {
    if (counts[i] != 0) return latency_bucket_value(i);
  }
  return 0;
}

u64 HdrSnapshot::quantile(double q) const noexcept {
  if (total == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  u64 target = static_cast<u64>(q * static_cast<double>(total - 1)) + 1;
  for (std::size_t i = 0; i < kLatBuckets; ++i) {
    if (counts[i] >= target) return latency_bucket_value(i);
    target -= counts[i];
  }
  return max();
}

HdrSnapshot& HdrSnapshot::operator+=(const HdrSnapshot& other) noexcept {
  for (std::size_t i = 0; i < kLatBuckets; ++i) counts[i] += other.counts[i];
  total += other.total;
  sum += other.sum;
  return *this;
}

HdrSnapshot hdr_delta(const HdrSnapshot& now,
                      const HdrSnapshot& then) noexcept {
  HdrSnapshot d;
  for (std::size_t i = 0; i < kLatBuckets; ++i) {
    d.counts[i] = sat_sub(now.counts[i], then.counts[i]);
  }
  d.total = sat_sub(now.total, then.total);
  d.sum = sat_sub(now.sum, then.sum);
  return d;
}

HdrSnapshot StageLatencyBlock::snapshot(LatencyStage s) const noexcept {
  const Stage& st = stages_[static_cast<std::size_t>(s)];
  HdrSnapshot snap;
  for (std::size_t i = 0; i < kLatBuckets; ++i) {
    snap.counts[i] = st.counts[i].load(std::memory_order_relaxed);
  }
  snap.total = st.total.load(std::memory_order_relaxed);
  snap.sum = st.sum.load(std::memory_order_relaxed);
  return snap;
}

ShardLatencySnapshot& ShardLatencySnapshot::operator+=(
    const ShardLatencySnapshot& other) noexcept {
  for (std::size_t i = 0; i < kLatencyStageCount; ++i) {
    stages[i] += other.stages[i];
  }
  queue_depth += other.queue_depth;
  ingest_queue_depth += other.ingest_queue_depth;
  return *this;
}

ShardLatencySnapshot latency_delta(const ShardLatencySnapshot& now,
                                   const ShardLatencySnapshot& then) noexcept {
  ShardLatencySnapshot d;
  for (std::size_t i = 0; i < kLatencyStageCount; ++i) {
    d.stages[i] = hdr_delta(now.stages[i], then.stages[i]);
  }
  d.queue_depth = now.queue_depth;
  d.ingest_queue_depth = now.ingest_queue_depth;
  return d;
}

// ---------------------------------------------------------------------------
// Report rendering.

void LatencyReport::add_shard(std::string name, const ShardLatencySnapshot& d) {
  shards.push_back({std::move(name), d});
  for (std::size_t i = 0; i < kLatencyStageCount; ++i) total[i] += d.stages[i];
  queue_depth += d.queue_depth;
  ingest_queue_depth += d.ingest_queue_depth;
}

namespace {

void stage_json(std::ostringstream& out, const HdrSnapshot& h) {
  out << "{\"count\":" << h.count() << ",\"mean_us\":" << fmt_double(
             h.mean() / 1e3)
      << ",\"p50_us\":" << fmt_double(to_us(h.quantile(0.50)))
      << ",\"p90_us\":" << fmt_double(to_us(h.quantile(0.90)))
      << ",\"p99_us\":" << fmt_double(to_us(h.quantile(0.99)))
      << ",\"p999_us\":" << fmt_double(to_us(h.quantile(0.999)))
      << ",\"max_us\":" << fmt_double(to_us(h.max())) << "}";
}

void stages_json(std::ostringstream& out,
                 const std::array<HdrSnapshot, kLatencyStageCount>& stages) {
  out << "{";
  for (std::size_t i = 0; i < kLatencyStageCount; ++i) {
    if (i > 0) out << ",";
    out << "\"" << kStageNames[i] << "\":";
    stage_json(out, stages[i]);
  }
  out << "}";
}

}  // namespace

std::string LatencyReport::to_json() const {
  std::ostringstream out;
  out << "{\"sample_every\":" << sample_every
      << ",\"wall_seconds\":" << fmt_double(wall_seconds)
      << ",\"sampled\":" << sampled()
      << ",\"error_bound\":\"quantiles are HDR bucket lower bounds, "
         "relative error <= 1/" << kLatSubBuckets << "\",\"shards\":[";
  for (std::size_t s = 0; s < shards.size(); ++s) {
    const Shard& sh = shards[s];
    if (s > 0) out << ",";
    out << "{\"name\":\"" << json::escape(sh.name) << "\",\"sampled\":"
        << sh.d.stage(LatencyStage::kTotal).count()
        << ",\"queue_depth\":" << fmt_double(sh.d.queue_depth)
        << ",\"ingest_queue_depth\":" << fmt_double(sh.d.ingest_queue_depth)
        << ",\"stages\":";
    stages_json(out, sh.d.stages);
    out << "}";
  }
  out << "],\"total\":{\"queue_depth\":" << fmt_double(queue_depth)
      << ",\"ingest_queue_depth\":" << fmt_double(ingest_queue_depth)
      << ",\"stages\":";
  stages_json(out, total);
  out << "}}";
  return out.str();
}

std::string LatencyReport::to_text() const {
  std::ostringstream out;
  char line[256];
  std::snprintf(line, sizeof(line),
                "%-10s %9s %9s %9s %9s %9s %9s %10s\n", "stage", "p50us",
                "p90us", "p99us", "p99.9us", "maxus", "meanus", "samples");
  out << line;
  for (std::size_t i = 0; i < kLatencyStageCount; ++i) {
    const HdrSnapshot& h = total[i];
    std::snprintf(line, sizeof(line),
                  "%-10s %9.1f %9.1f %9.1f %9.1f %9.1f %9.1f %10llu\n",
                  kStageNames[i], to_us(h.quantile(0.50)),
                  to_us(h.quantile(0.90)), to_us(h.quantile(0.99)),
                  to_us(h.quantile(0.999)), to_us(h.max()), h.mean() / 1e3,
                  static_cast<unsigned long long>(h.count()));
    out << line;
  }
  if (shards.size() > 1) {
    for (const Shard& sh : shards) {
      const HdrSnapshot& t = sh.d.stage(LatencyStage::kTotal);
      std::snprintf(line, sizeof(line),
                    "%-10s total p50=%.1fus p99=%.1fus p99.9=%.1fus "
                    "samples=%llu queue_depth=%.0f\n",
                    sh.name.c_str(), to_us(t.quantile(0.50)),
                    to_us(t.quantile(0.99)), to_us(t.quantile(0.999)),
                    static_cast<unsigned long long>(t.count()),
                    sh.d.queue_depth);
      out << line;
    }
  }
  return out.str();
}

}  // namespace nfp::telemetry
