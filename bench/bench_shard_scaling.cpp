// Sharded-dataplane scaling: aggregate wall-clock pps vs shard count and
// execution mode.
//
// Measures the full sharded path — flow-consistent director, per-shard
// ingest rings, microflow-cache classification, pinned LivePipeline shards —
// at 1/2/4 shards in both execution modes on three shapes:
//   par4   4 parallel monitors (copy fanout + 4-arrival merge per packet)
//   seq4   4-hop monitor chain (pure hand-off cost — the shape where rtc's
//          fused calls shed the most per-packet overhead)
//   chain  vpn>monitor>lb sequential chain (per-packet AES — the compute-
//          bound real-world case from the paper's §6.4 chains)
// and modes:
//   pipelined  thread-per-NF + rings + merger (the paper's deployment)
//   rtc        fused run-to-completion on the shard worker's own core
//
// On a multi-core host the aggregate pps should grow near-linearly until
// shards exceed cores; on a single-core container every shard time-slices
// one CPU and the curve is flat — CI guards the per-series numbers, not the
// ratio, so both environments are regression-checked honestly.
//
// Output: one table row and (with --json / NFP_BENCH_JSON) one JSON line
// per series:
//   {"bench":"shard_scaling","series":"par4/rtc/shards4","meta":{...},
//    "pps":...,"mf_hit_rate":...,"scaling_vs_1shard":...,
//    "attribution":{"useful":...,...,"top_contention_source":"..."}}
// scaling_vs_1shard is relative to the same (shape, mode) at 1 shard. The
// attribution block is the observatory's aggregate bucket shares
// for the run — the answer to *where* sub-linear series lost their pps.
// scripts/check_hotpath_regression.py --bench shard_scaling compares pps
// against bench/baselines/BENCH_shard_scaling.json in CI.
//
// Flags: --json, --packets=N (default 20000), --flows=N (default 256),
//        --skew=uniform|zipf (flow-popularity model, default uniform).
#include <array>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/cpu_affinity.hpp"
#include "dataplane/sharded_dataplane.hpp"
#include "packet/builder.hpp"
#include "telemetry/observatory.hpp"
#include "trafficgen/trafficgen.hpp"

namespace nfp {
namespace {

std::vector<std::vector<u8>> make_frames(std::size_t count,
                                         std::size_t flows, FlowSkew skew) {
  sim::Simulator sim;
  PacketPool pool(4);
  TrafficConfig cfg;
  cfg.flows = flows;
  cfg.flow_skew = skew;
  TrafficGenerator gen(sim, pool, cfg);
  std::vector<std::vector<u8>> frames;
  frames.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    Packet* p =
        gen.make_packet(pool, gen.next_flow(), 64 + (i % 5) * 128);
    frames.emplace_back(p->data(), p->data() + p->length());
    pool.release(p);
  }
  return frames;
}

ServiceGraph make_par4() {
  return bench::parallel_stage("monitor", 4, /*with_copy=*/true);
}

ServiceGraph make_seq4() {
  return ServiceGraph::sequential(
      "seq4", {"monitor", "monitor", "monitor", "monitor"});
}

ServiceGraph make_chain() {
  return ServiceGraph::sequential("chain", {"vpn", "monitor", "lb"});
}

struct Shape {
  const char* name;
  ServiceGraph (*make)();
};

struct RunResult {
  double pps = 0;
  double seconds = 0;
  u64 delivered = 0;
  double mf_hit_rate = 0;
  bool affinity_applied = false;
  // Aggregate cycle-bucket shares (sum ~1) + headline contention source.
  std::array<double, telemetry::kCycleBucketCount> share{};
  std::string top_source;
};

RunResult run_series(const Shape& shape, ExecMode mode, std::size_t shards,
                     const std::vector<std::vector<u8>>& frames) {
  ShardedDataplaneOptions opts;
  opts.shards = shards;
  opts.pipeline.burst_size = 32;
  opts.pipeline.magazine_size = 256;
  opts.pipeline.ring_depth = 1024;
  opts.pipeline.in_flight_window = 512;
  opts.pipeline.exec_mode = mode;
  ShardedDataplane dp({shape.make()}, {}, opts);

  // Registered before start() (inside run()) so every accounting thread is
  // covered; spawn cost stays in the measured window exactly as before so
  // the pps series remains comparable with its baseline.
  telemetry::Observatory observatory;
  dp.register_observatory(observatory);

  const auto t0 = std::chrono::steady_clock::now();
  const ShardedResult result = dp.run(frames);
  const auto t1 = std::chrono::steady_clock::now();
  if (!result.status.is_ok()) {
    std::fprintf(stderr, "BUG: %s\n", result.status.message().c_str());
  }
  const telemetry::ScalabilityReport rep = observatory.report().scalability;

  RunResult r;
  r.seconds = std::chrono::duration<double>(t1 - t0).count();
  r.delivered = result.outputs.size() + result.dropped;
  r.pps = r.seconds > 0 ? static_cast<double>(r.delivered) / r.seconds : 0;
  const u64 hits = dp.microflow_hits();
  const u64 misses = dp.microflow_misses();
  r.mf_hit_rate = (hits + misses) > 0
                      ? static_cast<double>(hits) /
                            static_cast<double>(hits + misses)
                      : 0;
  r.affinity_applied = dp.affinity_applied();
  r.share = rep.total_share;
  r.top_source = rep.top_contention_source();
  return r;
}

}  // namespace
}  // namespace nfp

int main(int argc, char** argv) {
  using namespace nfp;
  const bool json = bench::json_enabled(argc, argv);
  std::size_t packets = 20000;
  std::size_t flows = 256;
  FlowSkew skew = FlowSkew::kUniform;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--packets=", 10) == 0) {
      packets = std::strtoull(argv[i] + 10, nullptr, 10);
    } else if (std::strncmp(argv[i], "--flows=", 8) == 0) {
      flows = std::strtoull(argv[i] + 8, nullptr, 10);
    } else if (std::strcmp(argv[i], "--skew=zipf") == 0) {
      skew = FlowSkew::kZipf;
    } else if (std::strcmp(argv[i], "--skew=uniform") == 0) {
      skew = FlowSkew::kUniform;
    }
  }
  const char* skew_name = skew == FlowSkew::kZipf ? "zipf" : "uniform";

  const auto frames = make_frames(packets, flows, skew);
  const Shape shapes[] = {
      {"par4", make_par4}, {"seq4", make_seq4}, {"chain", make_chain}};
  const ExecMode modes[] = {ExecMode::kPipelined, ExecMode::kRtc};
  const std::size_t shard_counts[] = {1, 2, 4};

  bench::print_header("Sharded dataplane scaling (aggregate wall-clock pps)");
  std::printf("online CPUs: %zu\n", online_cpu_count());
  std::printf("%-22s %12s %10s %10s %8s   %-9s %s\n", "series", "pps",
              "seconds", "mf_hit", "pinned", "scaling", "top contention");

  for (const Shape& shape : shapes) {
    for (const ExecMode mode : modes) {
      const char* mode_name = exec_mode_name(mode);
      double base_pps = 0;  // 1-shard pps of this (shape, mode)
      for (const std::size_t shards : shard_counts) {
        const RunResult r = run_series(shape, mode, shards, frames);
        if (shards == 1) base_pps = r.pps;
        const double scaling = base_pps > 0 ? r.pps / base_pps : 0;
        char scale_buf[16];
        std::snprintf(scale_buf, sizeof scale_buf, "%.2fx", scaling);
        std::printf(
            "%-22s %12.0f %10.3f %9.1f%% %8s   %-9s %s\n",
            (std::string(shape.name) + "/" + mode_name + "/shards" +
             std::to_string(shards))
                .c_str(),
            r.pps, r.seconds, r.mf_hit_rate * 100,
            r.affinity_applied ? "yes" : "no", scale_buf,
            r.top_source.empty() ? "-" : r.top_source.c_str());
        if (json) {
          std::printf(
              "{\"bench\":\"shard_scaling\",\"series\":\"%s/%s/shards%zu\","
              "\"meta\":{\"bench\":\"shard_scaling\",\"timestamp\":\"%s\","
              "\"knobs\":{\"shape\":\"%s\",\"mode\":\"%s\",\"shards\":%zu,"
              "\"flows\":%zu,\"skew\":\"%s\",\"packets\":%zu,"
              "\"online_cpus\":%zu}},"
              "\"pps\":%.1f,\"packets\":%llu,\"seconds\":%.4f,"
              "\"mf_hit_rate\":%.4f,\"affinity_applied\":%s,"
              "\"scaling_vs_1shard\":%.3f,\"attribution\":{",
              shape.name, mode_name, shards, bench::iso8601_utc_now().c_str(),
              shape.name, mode_name, shards, flows, skew_name, packets,
              online_cpu_count(), r.pps,
              static_cast<unsigned long long>(r.delivered), r.seconds,
              r.mf_hit_rate, r.affinity_applied ? "true" : "false", scaling);
          for (std::size_t b = 0; b < telemetry::kCycleBucketCount; ++b) {
            std::printf("\"%s\":%.4f,",
                        telemetry::cycle_bucket_name(
                            static_cast<telemetry::CycleBucket>(b)),
                        r.share[b]);
          }
          std::printf("\"top_contention_source\":\"%s\"}}\n",
                      r.top_source.c_str());
        }
      }
    }
  }
  return 0;
}
