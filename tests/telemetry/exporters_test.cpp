// Golden-output tests for the Prometheus / JSON exporters and the
// per-component report.
#include <gtest/gtest.h>

#include <limits>

#include "common/json.hpp"
#include "telemetry/exporters.hpp"
#include "telemetry/flow_observatory.hpp"
#include "telemetry/registry.hpp"

namespace nfp::telemetry {
namespace {

MetricsRegistry small_registry() {
  MetricsRegistry reg;
  reg.counter("packets_injected_total", {{"plane", "nfp"}}).inc(100);
  reg.counter("packets_dropped_total", {{"plane", "nfp"}, {"reason", "nf"}})
      .inc(2);
  reg.gauge("pool_in_use", {{"plane", "nfp"}}).set(7);
  Histogram& h = reg.histogram("packet_latency_ns", {{"plane", "nfp"}});
  for (u64 v = 1; v <= 10; ++v) h.record(v);
  return reg;
}

TEST(ExportersTest, PrometheusGolden) {
  const std::string text = to_prometheus(small_registry());
  EXPECT_NE(text.find("# TYPE packets_injected_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("packets_injected_total{plane=\"nfp\"} 100"),
            std::string::npos);
  EXPECT_NE(
      text.find(
          "packets_dropped_total{plane=\"nfp\",reason=\"nf\"} 2"),
      std::string::npos);
  EXPECT_NE(text.find("# TYPE pool_in_use gauge"), std::string::npos);
  EXPECT_NE(text.find("pool_in_use{plane=\"nfp\"} 7"), std::string::npos);
  // Histograms expose as native Prometheus histogram series: cumulative
  // le-buckets at power-of-two boundaries (exact bucket edges), then the
  // mandatory +Inf bucket, _sum and _count.
  EXPECT_NE(text.find("# TYPE packet_latency_ns histogram"),
            std::string::npos);
  EXPECT_NE(
      text.find("packet_latency_ns_bucket{plane=\"nfp\",le=\"16\"} 10"),
      std::string::npos);
  EXPECT_NE(
      text.find("packet_latency_ns_bucket{plane=\"nfp\",le=\"+Inf\"} 10"),
      std::string::npos);
  EXPECT_NE(text.find("packet_latency_ns_count{plane=\"nfp\"} 10"),
            std::string::npos);
  EXPECT_NE(text.find("packet_latency_ns_sum{plane=\"nfp\"} 55"),
            std::string::npos);
}

TEST(ExportersTest, PrometheusHistogramBucketsAreCumulative) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("spread_ns", {});
  h.record(3);     // below the first le=16 edge
  h.record(40);    // in [32, 64)
  h.record(40);
  h.record(1024);  // exactly on a boundary: le is exclusive, lands above
  const std::string text = to_prometheus(reg);
  EXPECT_NE(text.find("spread_ns_bucket{le=\"16\"} 1"), std::string::npos);
  EXPECT_NE(text.find("spread_ns_bucket{le=\"64\"} 3"), std::string::npos);
  EXPECT_NE(text.find("spread_ns_bucket{le=\"1024\"} 3"), std::string::npos);
  EXPECT_NE(text.find("spread_ns_bucket{le=\"2048\"} 4"), std::string::npos);
  EXPECT_NE(text.find("spread_ns_bucket{le=\"+Inf\"} 4"), std::string::npos);
  EXPECT_NE(text.find("spread_ns_count 4"), std::string::npos);
}

TEST(ExportersTest, JsonGolden) {
  const std::string json = to_json(small_registry());
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"name\":\"packets_injected_total\""),
            std::string::npos);
  EXPECT_NE(json.find("\"labels\":{\"plane\":\"nfp\"}"), std::string::npos);
  EXPECT_NE(json.find("\"value\":100"), std::string::npos);
  EXPECT_NE(json.find("\"high_water\":7"), std::string::npos);
  EXPECT_NE(json.find("\"count\":10"), std::string::npos);
  EXPECT_NE(json.find("\"p50\":5"), std::string::npos);
  EXPECT_NE(json.find("\"min\":1"), std::string::npos);
  EXPECT_NE(json.find("\"max\":10"), std::string::npos);
}

TEST(ExportersTest, JsonEscapesStrings) {
  MetricsRegistry reg;
  reg.counter("weird", {{"label", "a\"b\\c"}}).inc();
  const std::string json = to_json(reg);
  EXPECT_NE(json.find("a\\\"b\\\\c"), std::string::npos);
}

TEST(ExportersTest, ControlBytesInLabelsAndStagesStayParseable) {
  // JSON forbids raw control bytes inside strings; every renderer in
  // telemetry escapes through json::escape, so \r and \x01 come out as
  // escapes the parser accepts.
  MetricsRegistry reg;
  reg.counter("weird", {{"label", "a\rb\x01c"}}).inc();
  const auto registry_doc = json::Value::parse(to_json(reg));
  EXPECT_TRUE(registry_doc.is_ok()) << registry_doc.error();

  DropExemplarRing ring;
  ring.record(DropReason::kNfVerdict, "nf:a\rb\x01c", nullptr, 1);
  FlowReport rep;
  ShardFlowSnapshot shard;
  shard.exemplars = ring.snapshot();
  rep.add_shard("shard\r0", std::move(shard));
  const auto flows_doc = json::Value::parse(rep.to_json());
  ASSERT_TRUE(flows_doc.is_ok()) << flows_doc.error();
  const json::Value* exemplars = flows_doc.value().find("exemplars");
  ASSERT_NE(exemplars, nullptr);
  ASSERT_EQ(exemplars->items().size(), 1u);
  EXPECT_EQ(std::string(exemplars->items()[0].string_or("stage", "")),
            "nf:a\rb\x01c");
}

TEST(ExportersTest, PrometheusEscapesLabelValues) {
  MetricsRegistry reg;
  reg.counter("weird", {{"label", "a\\b\"c\nd"}}).inc(3);
  const std::string text = to_prometheus(reg);
  // Exposition format: backslash, double-quote, newline in label values
  // must come out as \\ , \" and \n — one line per series, always.
  EXPECT_NE(text.find("weird{label=\"a\\\\b\\\"c\\nd\"} 3"),
            std::string::npos);
}

TEST(ExportersTest, PromEscapeLabelCoversAllThreeEscapes) {
  EXPECT_EQ(prom_escape_label("plain"), "plain");
  EXPECT_EQ(prom_escape_label("a\\b"), "a\\\\b");
  EXPECT_EQ(prom_escape_label("a\"b"), "a\\\"b");
  EXPECT_EQ(prom_escape_label("a\nb"), "a\\nb");
}

TEST(ExportersTest, FmtPromDoubleSpellsNonFiniteValues) {
  EXPECT_EQ(fmt_prom_double(std::numeric_limits<double>::quiet_NaN()), "NaN");
  EXPECT_EQ(fmt_prom_double(std::numeric_limits<double>::infinity()), "+Inf");
  EXPECT_EQ(fmt_prom_double(-std::numeric_limits<double>::infinity()),
            "-Inf");
  EXPECT_EQ(fmt_prom_double(5.0), "5");
  EXPECT_EQ(fmt_prom_double(2.5), "2.5");
}

TEST(ExportersTest, PrometheusRendersNonFiniteGauges) {
  MetricsRegistry reg;
  reg.gauge("ratio", {}).value.store(
      std::numeric_limits<double>::quiet_NaN());
  const std::string text = to_prometheus(reg);
  EXPECT_NE(text.find("ratio NaN"), std::string::npos);
}

TEST(ExportersTest, ComponentReportShowsUtilizationAndLatency) {
  MetricsRegistry reg = small_registry();
  reg.gauge("sim_now_ns", {{"plane", "nfp"}}).set(1'000'000);
  reg.gauge("core_busy_ns",
            {{"plane", "nfp"}, {"component", "classifier"}})
      .set(250'000);
  reg.gauge("core_busy_ns",
            {{"plane", "nfp"}, {"component", "nf:firewall#0"}})
      .set(500'000);
  Histogram& service = reg.histogram(
      "nf_service_ns", {{"plane", "nfp"}, {"nf", "nf:firewall#0"}});
  for (int i = 0; i < 100; ++i) service.record(120);
  reg.gauge("pool_capacity", {{"plane", "nfp"}}).set(1024);

  const std::string report = component_report(reg);
  EXPECT_NE(report.find("plane=nfp"), std::string::npos);
  EXPECT_NE(report.find("classifier"), std::string::npos);
  EXPECT_NE(report.find("25.0%"), std::string::npos);  // 250k / 1M
  EXPECT_NE(report.find("50.0%"), std::string::npos);  // firewall busy
  EXPECT_NE(report.find("120"), std::string::npos);    // p50 service
  EXPECT_NE(report.find("injected=100"), std::string::npos);
  EXPECT_NE(report.find("pool: high-water 7 / 1024"), std::string::npos);
}

TEST(ExportersTest, ComponentReportMergesPlanesSideBySide) {
  MetricsRegistry nfp = small_registry();
  nfp.gauge("sim_now_ns", {{"plane", "nfp"}}).set(1'000);
  MetricsRegistry onv;
  onv.counter("packets_injected_total", {{"plane", "onv"}}).inc(50);
  onv.gauge("sim_now_ns", {{"plane", "onv"}}).set(2'000);
  nfp.merge(onv);
  const std::string report = component_report(nfp);
  EXPECT_NE(report.find("plane=nfp"), std::string::npos);
  EXPECT_NE(report.find("plane=onv"), std::string::npos);
  EXPECT_NE(report.find("injected=50"), std::string::npos);
}

}  // namespace
}  // namespace nfp::telemetry
