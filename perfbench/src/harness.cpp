#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/hash.hpp"

namespace perfbench {

void MultisetDigest::add(std::span<const u8> frame) noexcept {
  const u64 h = nfp::mix64(nfp::fnv1a64(frame) ^ nfp::mix64(frame.size()));
  ++count;
  sum += h;
  sum_sq += h * h;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = std::clamp(q, 0.0, 1.0) *
                     static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

double hdr_quantile_us(const nfp::telemetry::HdrSnapshot& h, double q) {
  if (h.total == 0) return 0;
  const double rank = std::clamp(q, 0.0, 1.0) * static_cast<double>(h.total);
  double seen = 0;
  for (std::size_t i = 0; i < h.counts.size(); ++i) {
    const double c = static_cast<double>(h.counts[i]);
    if (c == 0) continue;
    if (seen + c >= rank) {
      const double lo = static_cast<double>(nfp::telemetry::latency_bucket_value(i));
      const double hi =
          i + 1 < h.counts.size()
              ? static_cast<double>(nfp::telemetry::latency_bucket_value(i + 1))
              : lo + 1;
      return (lo + (hi - lo) * ((rank - seen) / c)) / 1e3;
    }
    seen += c;
  }
  return static_cast<double>(h.max()) / 1e3;
}

u64 PacedSchedule::due_ns(u64 i) const noexcept {
  return start_ns +
         static_cast<u64>(std::llround(static_cast<double>(i) * 1e9 / rate_pps));
}

std::vector<std::string> workload_names() {
  return {"ns-small", "edge-dc", "ct-churn", "ns-paced"};
}

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"throughput_mpps", "Mpps"},
      {"latency_p50_us", "us"},
      {"mem_peak_mb", "MB"},
      {"setup_s", "s"},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = {
      {"director.feed_ns", "ns"},
      {"parse.ns", "ns"},
      {"packet.alloc_copy_ns", "ns"},
      {"ring.hop_ns", "ns"},
      {"ring.full_events", "count"},
      {"shard.useful_share", "ratio"},
      {"shard.starved_share", "ratio"},
      {"shard.ring_wait_share", "ratio"},
      {"shard.pool_wait_share", "ratio"},
      {"shard.classifier_miss_share", "ratio"},
      {"shard.imbalance", "ratio"},
      {"classifier.mf_hit_rate", "ratio"},
      {"classifier.mf_invalidations", "count"},
      {"classifier.hit_ns", "ns"},
      {"classifier.miss_ns", "ns"},
      {"classifier.tuples", "count"},
      {"classifier.add_rule_ms", "ms"},
      {"classifier.build_ms", "ms"},
      {"executor.ns_per_pkt", "ns"},
      {"merge.ns", "ns"},
      {"packet.header_copy_ns", "ns"},
      {"packet.full_copy_ns", "ns"},
      {"nfs.firewall.ns_per_pkt", "ns"},
      {"nfs.monitor.ns_per_pkt", "ns"},
      {"nfs.lb.ns_per_pkt", "ns"},
      {"nfs.vpn.ns_per_pkt", "ns"},
      {"nfs.ids.ns_per_pkt", "ns"},
      {"nfs.ips.ns_per_pkt", "ns"},
      {"nfs.gateway.ns_per_pkt", "ns"},
      {"nfs.caching.ns_per_pkt", "ns"},
      {"egress.drain_ms", "ms"},
      {"egress.retained_mb", "MB"},
      {"latency.ingest_p50_us", "us"},
      {"latency.queue_p50_us", "us"},
      {"latency.service_p50_us", "us"},
      {"latency.p90_us", "us"},
      {"latency.p99_us", "us"},
      {"latency.p999_us", "us"},
      {"gen.late_p99_us", "us"},
      {"orch.compile_ms", "ms"},
      {"telemetry.overhead_share", "ratio"},
      {"trace.overhead_share", "ratio"},
      {"ledger.shard_ns_per_pkt", "ns"},
      {"ledger.residual_share", "ratio"},
      {"drops.nf_verdict", "count"},
      {"drops.classifier_miss", "count"},
      {"loss_ratio", "ratio"},
  };
  return defs;
}

std::vector<MetricDef> metrics_for(const std::string& workload, bool traced) {
  const auto names = workload_names();
  if (std::find(names.begin(), names.end(), workload) == names.end()) {
    return {};
  }
  return traced ? per_layer_metrics() : end_to_end_metrics();
}

std::string unit_of(const std::string& metric) {
  for (const auto* defs : {&end_to_end_metrics(), &per_layer_metrics()}) {
    for (const MetricDef& d : *defs) {
      if (d.name == metric) return d.unit;
    }
  }
  return "";
}

std::string result_line(bool correct, u64 attempted, u64 failed,
                        const std::map<std::string, double>& metrics) {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : metrics) {
    char num[64];
    std::snprintf(num, sizeof num, "%.17g", std::isfinite(value) ? value : 0.0);
    out << (first ? "" : ", ") << '"' << name << "\": {\"value\": " << num
        << ", \"unit\": \"" << unit_of(name) << "\"}";
    first = false;
  }
  out << "}}";
  return out.str();
}

namespace {

double status_field_mb(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::string prefix = std::string(key) + ":";
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0) {
      return std::strtod(line.c_str() + prefix.size(), nullptr) / 1024.0;
    }
  }
  return 0;
}

}  // namespace

double rss_mb() { return status_field_mb("VmRSS"); }
double peak_rss_mb() { return status_field_mb("VmHWM"); }

std::string host_fingerprint_json(std::size_t online_cpus,
                                  bool affinity_applied) {
  std::ostringstream out;
  out << "{\"online_cpus\": " << online_cpus
      << ", \"affinity_applied\": " << (affinity_applied ? "true" : "false")
      << ", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
      << "\", \"compiler\": \"" <<
#if defined(__clang__)
      "clang "
#elif defined(__GNUC__)
      "gcc "
#endif
      << __VERSION__ << "\"}";
  return out.str();
}

}  // namespace perfbench
