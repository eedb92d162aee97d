#include "telemetry/exporters.hpp"

#include <cmath>
#include <cstdio>
#include <set>
#include <sstream>

#include "common/json.hpp"

namespace nfp::telemetry {

namespace {

const std::string* find_label(const Labels& labels, std::string_view key) {
  for (const auto& [k, v] : labels) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::string prom_labels(const Labels& labels, const char* extra_key = nullptr,
                        const char* extra_value = nullptr) {
  if (labels.empty() && extra_key == nullptr) return {};
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ",";
    first = false;
    out += k + "=\"" + prom_escape_label(v) + "\"";
  }
  if (extra_key != nullptr) {
    if (!first) out += ",";
    out += std::string(extra_key) + "=\"" + prom_escape_label(extra_value) +
           "\"";
  }
  out += "}";
  return out;
}

std::string json_labels(const Labels& labels) {
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ",";
    first = false;
    out += "\"" + json::escape(k) + "\":\"" + json::escape(v) + "\"";
  }
  out += "}";
  return out;
}

std::string fmt_double(double v) { return fmt_prom_double(v); }

// JSON has no literal for non-finite numbers; they render as null so the
// output stays machine-parseable.
std::string fmt_json_double(double v) {
  if (!std::isfinite(v)) return "null";
  return fmt_prom_double(v);
}

// Matches a metric against (name, plane label) for the report.
bool in_plane(const MetricKey& key, const std::string& plane) {
  const std::string* p = find_label(key.labels, "plane");
  return p != nullptr && *p == plane;
}

}  // namespace

std::string prom_escape_label(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

std::string fmt_prom_double(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  char buf[48];
  // Integral values render without a fractional part (counter-like gauges).
  // The finiteness check above keeps the cast defined.
  if (v >= -9.2e18 && v <= 9.2e18 &&
      v == static_cast<double>(static_cast<long long>(v))) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  } else {
    std::snprintf(buf, sizeof(buf), "%.6g", v);
  }
  return buf;
}

std::string to_prometheus(const MetricsRegistry& registry) {
  std::ostringstream out;
  std::string last_type_line;
  const auto type_line = [&](const std::string& name, const char* type) {
    const std::string line = "# TYPE " + name + " " + type + "\n";
    if (line != last_type_line) {
      out << line;
      last_type_line = line;
    }
  };

  for (const auto& [key, c] : registry.counters()) {
    type_line(key.name, "counter");
    out << key.name << prom_labels(key.labels) << " " << c.value << "\n";
  }
  for (const auto& [key, g] : registry.gauges()) {
    type_line(key.name, "gauge");
    out << key.name << prom_labels(key.labels) << " " << fmt_double(g.value)
        << "\n";
  }
  for (const auto& [key, g] : registry.gauges()) {
    if (g.high_water == 0) continue;
    type_line(key.name + "_high_water", "gauge");
    out << key.name << "_high_water" << prom_labels(key.labels) << " "
        << fmt_double(g.high_water) << "\n";
  }
  for (const auto& [key, h] : registry.histograms()) {
    // Native histogram exposition so external Prometheus/Grafana can
    // re-aggregate quantiles across shards. One cumulative bucket per
    // power of two over the recorded range: powers of two are exact
    // bucket edges of the log-bucketed Histogram (count_below), with the
    // convention that a value exactly equal to a boundary counts in the
    // next bucket up.
    type_line(key.name, "histogram");
    const u64 count = h.count();
    if (count > 0) {
      u64 bound = Histogram::kSubBuckets;  // first log-bucket edge
      while ((bound << 1) != 0 && bound <= h.min()) bound <<= 1;
      for (; bound != 0; bound <<= 1) {
        const u64 below = h.count_below(bound);
        out << key.name << "_bucket"
            << prom_labels(key.labels, "le", std::to_string(bound).c_str())
            << " " << below << "\n";
        if (below == count) break;
      }
    }
    out << key.name << "_bucket" << prom_labels(key.labels, "le", "+Inf")
        << " " << count << "\n";
    out << key.name << "_sum" << prom_labels(key.labels) << " " << h.sum()
        << "\n";
    out << key.name << "_count" << prom_labels(key.labels) << " " << count
        << "\n";
  }
  return out.str();
}

std::string to_json(const MetricsRegistry& registry) {
  std::ostringstream out;
  out << "{\"counters\":[";
  bool first = true;
  for (const auto& [key, c] : registry.counters()) {
    if (!first) out << ",";
    first = false;
    out << "{\"name\":\"" << json::escape(key.name)
        << "\",\"labels\":" << json_labels(key.labels) << ",\"value\":"
        << c.value << "}";
  }
  out << "],\"gauges\":[";
  first = true;
  for (const auto& [key, g] : registry.gauges()) {
    if (!first) out << ",";
    first = false;
    out << "{\"name\":\"" << json::escape(key.name)
        << "\",\"labels\":" << json_labels(key.labels) << ",\"value\":"
        << fmt_json_double(g.value) << ",\"high_water\":"
        << fmt_json_double(g.high_water) << "}";
  }
  out << "],\"histograms\":[";
  first = true;
  for (const auto& [key, h] : registry.histograms()) {
    if (!first) out << ",";
    first = false;
    out << "{\"name\":\"" << json::escape(key.name)
        << "\",\"labels\":" << json_labels(key.labels) << ",\"count\":"
        << h.count() << ",\"min\":" << h.min() << ",\"mean\":"
        << fmt_json_double(h.mean()) << ",\"p50\":" << h.quantile(0.5)
        << ",\"p90\":" << h.quantile(0.9) << ",\"p99\":" << h.quantile(0.99)
        << ",\"max\":" << h.max() << "}";
  }
  out << "]}";
  return out.str();
}

std::string component_report(const MetricsRegistry& registry) {
  std::ostringstream out;

  // Distinct planes, in insertion-independent (sorted) order.
  std::set<std::string> planes;
  for (const auto& [key, g] : registry.gauges()) {
    if (const std::string* p = find_label(key.labels, "plane")) {
      planes.insert(*p);
    }
  }

  const auto counter_value = [&](const char* name, const std::string& plane,
                                 const char* lk = nullptr,
                                 const char* lv = nullptr) -> u64 {
    u64 sum = 0;
    for (const auto& [key, c] : registry.counters()) {
      if (key.name != name || !in_plane(key, plane)) continue;
      if (lk != nullptr) {
        const std::string* v = find_label(key.labels, lk);
        if (v == nullptr || *v != lv) continue;
      }
      sum += c.value;
    }
    return sum;
  };

  for (const std::string& plane : planes) {
    double now_ns = 0;
    for (const auto& [key, g] : registry.gauges()) {
      if (key.name == "sim_now_ns" && in_plane(key, plane)) now_ns = g.value;
    }

    out << "=== telemetry report (plane=" << plane << ") ===\n";
    char line[256];
    std::snprintf(line, sizeof(line),
                  "sim time %.1f us | injected=%llu delivered=%llu "
                  "dropped(nf)=%llu dropped(pool)=%llu\n",
                  now_ns / 1e3,
                  static_cast<unsigned long long>(
                      counter_value("packets_injected_total", plane)),
                  static_cast<unsigned long long>(
                      counter_value("packets_delivered_total", plane)),
                  static_cast<unsigned long long>(counter_value(
                      "packets_dropped_total", plane, "reason", "nf")),
                  static_cast<unsigned long long>(counter_value(
                      "packets_dropped_total", plane, "reason", "pool")));
    out << line;
    std::snprintf(line, sizeof(line),
                  "copies: header=%llu full=%llu (%llu bytes) | merges=%llu\n",
                  static_cast<unsigned long long>(counter_value(
                      "copies_total", plane, "kind", "header")),
                  static_cast<unsigned long long>(
                      counter_value("copies_total", plane, "kind", "full")),
                  static_cast<unsigned long long>(
                      counter_value("copy_bytes_total", plane)),
                  static_cast<unsigned long long>(
                      counter_value("merges_total", plane)));
    out << line;

    std::snprintf(line, sizeof(line), "%-24s %8s %10s %10s %10s\n",
                  "component", "busy%", "p50(ns)", "p99(ns)", "packets");
    out << line;
    for (const auto& [key, g] : registry.gauges()) {
      if (key.name != "core_busy_ns" || !in_plane(key, plane)) continue;
      const std::string* component = find_label(key.labels, "component");
      if (component == nullptr) continue;
      const double busy_pct = now_ns > 0 ? g.value / now_ns * 100.0 : 0.0;
      // Service-time histogram for the same component, if one exists.
      const Histogram* service = nullptr;
      for (const auto& [hkey, h] : registry.histograms()) {
        if (hkey.name != "nf_service_ns" || !in_plane(hkey, plane)) continue;
        const std::string* nf = find_label(hkey.labels, "nf");
        if (nf != nullptr && *nf == *component) {
          service = &h;
          break;
        }
      }
      if (service != nullptr && service->count() > 0) {
        std::snprintf(line, sizeof(line),
                      "%-24s %7.1f%% %10llu %10llu %10llu\n",
                      component->c_str(), busy_pct,
                      static_cast<unsigned long long>(service->quantile(0.5)),
                      static_cast<unsigned long long>(service->quantile(0.99)),
                      static_cast<unsigned long long>(service->count()));
      } else {
        std::snprintf(line, sizeof(line), "%-24s %7.1f%% %10s %10s %10s\n",
                      component->c_str(), busy_pct, "-", "-", "-");
      }
      out << line;
    }

    for (const auto& [key, h] : registry.histograms()) {
      if (key.name != "packet_latency_ns" || !in_plane(key, plane)) continue;
      std::snprintf(line, sizeof(line),
                    "packet latency: p50=%.1fus p99=%.1fus mean=%.1fus "
                    "max=%.1fus (%llu packets)\n",
                    static_cast<double>(h.quantile(0.5)) / 1e3,
                    static_cast<double>(h.quantile(0.99)) / 1e3, h.mean() / 1e3,
                    static_cast<double>(h.max()) / 1e3,
                    static_cast<unsigned long long>(h.count()));
      out << line;
    }

    for (const auto& [key, g] : registry.gauges()) {
      if (key.name == "pool_in_use" && in_plane(key, plane)) {
        double capacity = 0;
        for (const auto& [ck, cg] : registry.gauges()) {
          if (ck.name == "pool_capacity" && in_plane(ck, plane)) {
            capacity = cg.value;
          }
        }
        std::snprintf(line, sizeof(line),
                      "pool: high-water %.0f / %.0f packets\n",
                      g.high_water.load(), capacity);
        out << line;
      }
      if (key.name == "merger_at_entries" && in_plane(key, plane)) {
        const std::string* merger = find_label(key.labels, "merger");
        std::snprintf(line, sizeof(line),
                      "merger#%s accumulating table: high-water %.0f "
                      "entries\n",
                      merger != nullptr ? merger->c_str() : "?",
                      g.high_water.load());
        out << line;
      }
    }
    out << "\n";
  }

  // Traffic generator block (no plane label).
  u64 gen = 0;
  u64 retries = 0;
  for (const auto& [key, c] : registry.counters()) {
    if (key.name == "trafficgen_packets_total") gen += c.value;
    if (key.name == "trafficgen_backpressure_retries_total") {
      retries += c.value;
    }
  }
  if (gen > 0) {
    out << "trafficgen: generated=" << gen
        << " backpressure_retries=" << retries;
    for (const auto& [key, h] : registry.histograms()) {
      if (key.name == "trafficgen_frame_bytes" && h.count() > 0) {
        char line[96];
        std::snprintf(line, sizeof(line), " mean_frame=%.0fB", h.mean());
        out << line;
      }
    }
    out << "\n";
  }
  return out.str();
}

}  // namespace nfp::telemetry
