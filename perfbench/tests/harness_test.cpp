// Tests of the benchmark's own measurement code: the output digest, the
// order statistics, the open-loop pacing arithmetic, the metric catalog
// against BENCHMARK.json, the result line and the workload inputs.
#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>

#include "common/json.hpp"
#include "harness.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

std::vector<u8> bytes(std::initializer_list<int> v) {
  std::vector<u8> out;
  for (const int b : v) out.push_back(static_cast<u8>(b));
  return out;
}

TEST(Digest, IgnoresOrder) {
  const auto a = bytes({1, 2, 3});
  const auto b = bytes({4, 5});
  const auto c = bytes({6});
  MultisetDigest x;
  MultisetDigest y;
  for (const auto* f : {&a, &b, &c}) x.add(*f);
  for (const auto* f : {&c, &a, &b}) y.add(*f);
  EXPECT_EQ(x, y);
}

TEST(Digest, SeesEveryByteAndDuplicates) {
  auto a = bytes({1, 2, 3, 4});
  MultisetDigest base;
  base.add(a);
  a[3] ^= 0x01;
  MultisetDigest flipped;
  flipped.add(a);
  EXPECT_FALSE(base == flipped);

  const auto p = bytes({7});
  const auto q = bytes({8});
  MultisetDigest twice_p;
  twice_p.add(p);
  twice_p.add(p);
  MultisetDigest p_and_q;
  p_and_q.add(p);
  p_and_q.add(q);
  EXPECT_FALSE(twice_p == p_and_q);
  // A trailing zero byte is a different frame.
  MultisetDigest longer;
  longer.add(bytes({7, 0}));
  MultisetDigest shorter;
  shorter.add(p);
  EXPECT_FALSE(longer == shorter);
}

TEST(Quantile, InterpolatesLinearly) {
  EXPECT_DOUBLE_EQ(quantile({4, 1, 3, 2}, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(quantile({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0.25), 3.25);
  EXPECT_DOUBLE_EQ(quantile({5}, 0.99), 5);
  EXPECT_DOUBLE_EQ(quantile({}, 0.5), 0);
  EXPECT_DOUBLE_EQ(quantile({1, 2}, 1.0), 2);
  EXPECT_DOUBLE_EQ(median({9, 1, 5}), 5);
}

TEST(Quantile, HistogramInterpolatesInsideBucket) {
  nfp::telemetry::HdrSnapshot h;
  // 100 samples in the bucket holding 1000 ns.
  const std::size_t b = nfp::telemetry::latency_bucket_index(1000);
  h.counts[b] = 100;
  h.total = 100;
  h.sum = 100'000;
  const double lo = nfp::telemetry::latency_bucket_value(b) / 1e3;
  const double hi = nfp::telemetry::latency_bucket_value(b + 1) / 1e3;
  EXPECT_DOUBLE_EQ(hdr_quantile_us(h, 0.5), lo + (hi - lo) * 0.5);
  EXPECT_GT(hdr_quantile_us(h, 0.9), hdr_quantile_us(h, 0.5));
  EXPECT_LE(hdr_quantile_us(h, 1.0), hi);
  EXPECT_EQ(hdr_quantile_us(nfp::telemetry::HdrSnapshot{}, 0.5), 0);
}

TEST(Paced, ScheduleAndLateness) {
  const PacedSchedule s{1'000, 300'000};
  EXPECT_EQ(s.due_ns(0), 1'000u);
  EXPECT_EQ(s.due_ns(3), 1'000u + 10'000u);
  EXPECT_EQ(s.due_ns(300'000), 1'000u + 1'000'000'000u);
  EXPECT_EQ(PacedSchedule::lateness_ns(500, 400), 0u);
  EXPECT_EQ(PacedSchedule::lateness_ns(500, 500), 0u);
  EXPECT_EQ(PacedSchedule::lateness_ns(500, 750), 250u);
}

nfp::json::Value load_record() {
  std::ifstream in(PERFBENCH_JSON);
  std::stringstream text;
  text << in.rdbuf();
  auto parsed = nfp::json::Value::parse(text.str());
  EXPECT_TRUE(parsed.is_ok());
  return parsed.is_ok() ? parsed.value() : nfp::json::Value{};
}

std::vector<MetricDef> record_metrics(const nfp::json::Value& rec,
                                      const char* key) {
  std::vector<MetricDef> out;
  const auto* list = rec.find(key);
  if (list == nullptr) return out;
  for (const auto& m : list->items()) {
    out.push_back({m.find("name")->as_string(), m.find("unit")->as_string()});
  }
  return out;
}

bool same(const std::vector<MetricDef>& a, const std::vector<MetricDef>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].name != b[i].name || a[i].unit != b[i].unit) return false;
  }
  return true;
}

TEST(Catalog, MatchesBenchmarkRecord) {
  const auto rec = load_record();
  EXPECT_TRUE(same(record_metrics(rec, "end_to_end"), end_to_end_metrics()));
  EXPECT_TRUE(same(record_metrics(rec, "per_layer"), per_layer_metrics()));
  std::vector<std::string> names;
  for (const auto& w : rec.find("workloads")->items()) {
    names.push_back(w.find("name")->as_string());
  }
  EXPECT_EQ(names, workload_names());
}

TEST(Catalog, EveryWorkloadEmitsItsMetrics) {
  for (const std::string& w : workload_names()) {
    EXPECT_TRUE(same(metrics_for(w, false), end_to_end_metrics())) << w;
    EXPECT_TRUE(same(metrics_for(w, true), per_layer_metrics())) << w;
  }
  EXPECT_TRUE(metrics_for("no-such-workload", false).empty());
  std::set<std::string> seen;
  for (const auto* defs : {&end_to_end_metrics(), &per_layer_metrics()}) {
    for (const MetricDef& d : *defs) {
      EXPECT_TRUE(seen.insert(d.name).second) << d.name << " used twice";
    }
  }
}

TEST(ResultLine, ParsesWithTheContractKeys) {
  const std::string line =
      result_line(true, 1000, 0, {{"setup_s", 0.8127}, {"latency_p50_us", 1.5}});
  const auto parsed = nfp::json::Value::parse(line);
  ASSERT_TRUE(parsed.is_ok());
  const auto& v = parsed.value();
  EXPECT_TRUE(v.find("correct")->as_bool());
  EXPECT_EQ(v.find("attempted")->as_number(), 1000);
  EXPECT_EQ(v.find("failed")->as_number(), 0);
  const auto* setup = v.find("metrics")->find("setup_s");
  ASSERT_NE(setup, nullptr);
  EXPECT_DOUBLE_EQ(setup->find("value")->as_number(), 0.8127);
  EXPECT_EQ(setup->find("unit")->as_string(), "s");
}

TEST(Workloads, SameSeedSameInputs) {
  const auto a = make_workload("ns-small", 7);
  const auto b = make_workload("ns-small", 7);
  const auto c = make_workload("ns-small", 8);
  ASSERT_TRUE(a && b && c);
  EXPECT_EQ(a->frames.bytes, b->frames.bytes);
  EXPECT_NE(a->frames.bytes, c->frames.bytes);
  EXPECT_FALSE(make_workload("no-such-workload", 1).has_value());
}

TEST(Workloads, CtChurnRulesMatchTheDesign) {
  const auto w = make_workload("ct-churn", 3);
  ASSERT_TRUE(w);
  std::size_t drops = 0;
  for (const auto& r : w->ct_rules) drops += r.graph == nfp::kCtDropGraph;
  EXPECT_GE(w->ct_rules.size(), 100'000u);
  EXPECT_GT(drops, 0u);
  EXPECT_LT(drops, 200u);
  // The mid-run rules match no generated frame, so they change no verdict.
  for (std::size_t i = 0; i < w->frames.size(); i += 97) {
    const auto t = nfp::parse_five_tuple(w->frames.frame(i));
    ASSERT_TRUE(t.has_value());
    for (const auto& r : w->churn_rules) EXPECT_FALSE(r.matches(*t));
  }
}

}  // namespace
}  // namespace perfbench
