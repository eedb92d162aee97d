#include "telemetry/scalability_profiler.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <sstream>

#include "common/json.hpp"

#if defined(__linux__) && __has_include(<linux/perf_event.h>)
#define NFP_HAVE_PERF_EVENT 1
#include <linux/perf_event.h>
#include <sys/syscall.h>
#include <unistd.h>
#else
#define NFP_HAVE_PERF_EVENT 0
#endif

namespace nfp::telemetry {

namespace {

constexpr std::array<const char*, kCycleBucketCount> kBucketNames = {
    "useful", "starved", "ring_wait", "pool_wait", "classifier_miss",
};

std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6f", v);
  return buf;
}

// Each bucket's share of the snapshot's accounted nanoseconds.
std::array<double, kCycleBucketCount> shares_of(
    const ShardScalabilitySnapshot& d) {
  std::array<double, kCycleBucketCount> share{};
  const u64 accounted = d.accounted_ns();
  for (std::size_t i = 0; accounted > 0 && i < kCycleBucketCount; ++i) {
    share[i] = static_cast<double>(d.ns[i]) / static_cast<double>(accounted);
  }
  return share;
}

}  // namespace

const char* cycle_bucket_name(CycleBucket b) noexcept {
  const auto i = static_cast<std::size_t>(b);
  return i < kBucketNames.size() ? kBucketNames[i] : "unknown";
}

u64 ShardScalabilitySnapshot::accounted_ns() const noexcept {
  u64 total = 0;
  for (const u64 v : ns) total += v;
  return total;
}

ShardScalabilitySnapshot& ShardScalabilitySnapshot::operator+=(
    const ShardScalabilitySnapshot& other) noexcept {
  for (std::size_t i = 0; i < kCycleBucketCount; ++i) ns[i] += other.ns[i];
  pool_cas_retries += other.pool_cas_retries;
  ring_full_events += other.ring_full_events;
  backoff_spins += other.backoff_spins;
  classifier_hits += other.classifier_hits;
  classifier_misses += other.classifier_misses;
  delivered += other.delivered;
  dropped += other.dropped;
  threads += other.threads;
  return *this;
}

ShardScalabilitySnapshot snapshot_delta(
    const ShardScalabilitySnapshot& now,
    const ShardScalabilitySnapshot& then) noexcept {
  ShardScalabilitySnapshot d;
  for (std::size_t i = 0; i < kCycleBucketCount; ++i) {
    d.ns[i] = sat_sub(now.ns[i], then.ns[i]);
  }
  d.pool_cas_retries = sat_sub(now.pool_cas_retries, then.pool_cas_retries);
  d.ring_full_events = sat_sub(now.ring_full_events, then.ring_full_events);
  d.backoff_spins = sat_sub(now.backoff_spins, then.backoff_spins);
  d.classifier_hits = sat_sub(now.classifier_hits, then.classifier_hits);
  d.classifier_misses = sat_sub(now.classifier_misses, then.classifier_misses);
  d.delivered = sat_sub(now.delivered, then.delivered);
  d.dropped = sat_sub(now.dropped, then.dropped);
  d.threads = now.threads;
  return d;
}

// ---------------------------------------------------------------------------
// Hardware counters.

#if NFP_HAVE_PERF_EVENT
namespace {
int perf_open(u32 type, u64 config, std::string* error) {
  perf_event_attr attr;
  std::memset(&attr, 0, sizeof(attr));
  attr.size = sizeof(attr);
  attr.type = type;
  attr.config = config;
  attr.disabled = 0;
  attr.exclude_kernel = 1;
  attr.exclude_hv = 1;
  // Count children too: the dataplane threads are spawned after open().
  attr.inherit = 1;
  const long fd = syscall(SYS_perf_event_open, &attr, 0, -1, -1, 0);
  if (fd < 0 && error != nullptr && error->empty()) {
    *error = std::string("perf_event_open: ") + std::strerror(errno);
  }
  return static_cast<int>(fd);
}
}  // namespace
#endif

HwCounterGroup::~HwCounterGroup() {
#if NFP_HAVE_PERF_EVENT
  if (fd_cache_ >= 0) close(fd_cache_);
  if (fd_stall_ >= 0) close(fd_stall_);
#endif
}

bool HwCounterGroup::open() {
  if (attempted_) return opened();
  attempted_ = true;
#if NFP_HAVE_PERF_EVENT
  fd_cache_ = perf_open(PERF_TYPE_HARDWARE, PERF_COUNT_HW_CACHE_MISSES,
                        &error_);
  fd_stall_ = perf_open(PERF_TYPE_HARDWARE,
                        PERF_COUNT_HW_STALLED_CYCLES_BACKEND, &error_);
  // All-or-nothing: a half-open group would report a misleading zero for
  // the missing counter.
  if (fd_cache_ < 0 || fd_stall_ < 0) {
    if (fd_cache_ >= 0) close(fd_cache_);
    if (fd_stall_ >= 0) close(fd_stall_);
    fd_cache_ = fd_stall_ = -1;
    if (error_.empty()) error_ = "perf_event_open: unavailable";
    return false;
  }
  return true;
#else
  error_ = "perf_event_open: not supported on this platform";
  return false;
#endif
}

HwSample HwCounterGroup::read() const {
  HwSample s;
#if NFP_HAVE_PERF_EVENT
  if (fd_cache_ >= 0 && fd_stall_ >= 0) {
    u64 cache = 0;
    u64 stall = 0;
    const bool ok =
        ::read(fd_cache_, &cache, sizeof(cache)) == sizeof(cache) &&
        ::read(fd_stall_, &stall, sizeof(stall)) == sizeof(stall);
    if (ok) {
      s.source = "perf_event";
      s.cache_misses = cache;
      s.stalled_cycles = stall;
      return s;
    }
    s.detail = "perf_event read failed";
    return s;
  }
#endif
  s.detail = error_;
  return s;
}

// ---------------------------------------------------------------------------
// Report rendering.

std::string ScalabilityReport::top_contention_source() const {
  // Useful is the goal and starved is the absence of demand — neither is
  // contention. The answer is the largest genuine wait bucket: ring
  // backpressure, pool exhaustion or classifier misses.
  double best = 0;
  std::size_t best_i = kCycleBucketCount;
  for (std::size_t i = 0; i < kCycleBucketCount; ++i) {
    if (i == static_cast<std::size_t>(CycleBucket::kUseful) ||
        i == static_cast<std::size_t>(CycleBucket::kStarved)) {
      continue;
    }
    if (total_share[i] > best) {
      best = total_share[i];
      best_i = i;
    }
  }
  if (best_i == kCycleBucketCount) return {};
  return kBucketNames[best_i];
}

std::string ScalabilityReport::to_json() const {
  std::ostringstream out;
  auto snapshot_json = [&out](const ShardScalabilitySnapshot& d,
                              const std::array<double, kCycleBucketCount>&
                                  share) {
    out << "\"shares\":{";
    for (std::size_t i = 0; i < kCycleBucketCount; ++i) {
      if (i > 0) out << ",";
      out << "\"" << kBucketNames[i] << "\":" << fmt_double(share[i]);
    }
    out << "},\"ns\":{";
    for (std::size_t i = 0; i < kCycleBucketCount; ++i) {
      if (i > 0) out << ",";
      out << "\"" << kBucketNames[i] << "\":" << d.ns[i];
    }
    out << "},\"events\":{\"pool_cas_retries\":" << d.pool_cas_retries
        << ",\"ring_full_events\":" << d.ring_full_events
        << ",\"backoff_spins\":" << d.backoff_spins
        << ",\"classifier_hits\":" << d.classifier_hits
        << ",\"classifier_misses\":" << d.classifier_misses
        << "},\"delivered\":" << d.delivered << ",\"dropped\":" << d.dropped
        << ",\"threads\":" << d.threads;
  };

  out << "{\"wall_seconds\":" << fmt_double(wall_seconds) << ",\"shards\":[";
  for (std::size_t s = 0; s < shards.size(); ++s) {
    const Shard& sh = shards[s];
    if (s > 0) out << ",";
    out << "{\"name\":\"" << json::escape(sh.name)
        << "\",\"accounted_seconds\":" << fmt_double(sh.accounted_seconds)
        << ",\"pps\":"
        << fmt_double(sh.pps) << ",\"projected_pps\":"
        << fmt_double(sh.projected_pps) << ",";
    snapshot_json(sh.d, sh.share);
    out << "}";
  }
  out << "],\"total\":{\"accounted_seconds\":"
      << fmt_double(total_accounted_seconds) << ",\"pps\":"
      << fmt_double(total_pps) << ",";
  snapshot_json(total, total_share);
  out << "},\"top_contention_source\":\""
      << json::escape(top_contention_source()) << "\",\"hw\":{\"source\":\""
      << json::escape(hw.source) << "\"";
  if (hw.source == "perf_event") {
    out << ",\"cache_misses\":" << hw.cache_misses
        << ",\"stalled_cycles\":" << hw.stalled_cycles;
  } else {
    out << ",\"reason\":\"" << json::escape(hw.detail)
        << "\",\"proxy\":{\"pool_cas_retries\":" << total.pool_cas_retries
        << ",\"ring_full_events\":" << total.ring_full_events
        << ",\"backoff_spins\":" << total.backoff_spins << "}";
  }
  out << "}}";
  return out.str();
}

std::string ScalabilityReport::to_text() const {
  std::ostringstream out;
  char line[256];
  std::snprintf(line, sizeof(line),
                "%-10s %8s %11s  %7s %7s %7s %7s %7s\n", "shard", "acct_s",
                "pps", "useful", "starve", "ring", "pool", "miss");
  out << line;
  auto row = [&](const std::string& name, double acct_s, double pps,
                 const std::array<double, kCycleBucketCount>& share) {
    std::snprintf(
        line, sizeof(line),
        "%-10s %8.3f %11.0f  %6.1f%% %6.1f%% %6.1f%% %6.1f%% %6.1f%%\n",
        name.c_str(), acct_s, pps,
        100 * share[static_cast<std::size_t>(CycleBucket::kUseful)],
        100 * share[static_cast<std::size_t>(CycleBucket::kStarved)],
        100 * share[static_cast<std::size_t>(CycleBucket::kRingWait)],
        100 * share[static_cast<std::size_t>(CycleBucket::kPoolWait)],
        100 * share[static_cast<std::size_t>(CycleBucket::kClassifierMiss)]);
    out << line;
  };
  for (const Shard& sh : shards) {
    row(sh.name, sh.accounted_seconds, sh.pps, sh.share);
  }
  if (shards.size() > 1) {
    row("TOTAL", total_accounted_seconds, total_pps, total_share);
  }
  if (hw.source == "perf_event") {
    out << "hw: perf_event cache_misses=" << hw.cache_misses
        << " stalled_cycles=" << hw.stalled_cycles << "\n";
  } else {
    out << "hw: " << hw.source;
    if (!hw.detail.empty()) out << " (" << hw.detail << ")";
    out << "; proxies: cas_retries=" << total.pool_cas_retries
        << " ring_full=" << total.ring_full_events
        << " backoff_spins=" << total.backoff_spins << "\n";
  }
  const std::string top = top_contention_source();
  if (!top.empty()) out << "top contention source: " << top << "\n";
  return out.str();
}

void ScalabilityReport::add_shard(std::string name,
                                  const ShardScalabilitySnapshot& d) {
  const auto per_second = [this](u64 count) {
    return wall_seconds > 0 ? static_cast<double>(count) / wall_seconds : 0.0;
  };
  Shard& sh = shards.emplace_back();
  sh.name = std::move(name);
  sh.d = d;
  sh.share = shares_of(d);
  sh.accounted_seconds = static_cast<double>(d.accounted_ns()) / 1e9;
  sh.pps = per_second(d.delivered);
  const double useful =
      sh.share[static_cast<std::size_t>(CycleBucket::kUseful)];
  sh.projected_pps = useful > 1e-9 ? sh.pps / useful : sh.pps;
  total += d;
  total_share = shares_of(total);
  total_accounted_seconds = static_cast<double>(total.accounted_ns()) / 1e9;
  total_pps = per_second(total.delivered);
}

}  // namespace nfp::telemetry
