// The live bench: wall-clock packets/sec through the live planes on this
// host (real threads, unlike the simulated figure benches).
//
// pps series, two families:
//   <shape>/burst{32,64}          a standalone pipelined LivePipeline (ring
//                                 1024, in-flight window 512, magazine 256)
//   <shape>/<mode>/shards{1,2,4}  the sharded plane (flow-consistent
//                                 director, ingest rings, microflow cache,
//                                 pinned shards), mode pipelined or rtc
// Pipeline shapes: seq4 (monitor>lb>monitor>lb), par4 (4 parallel monitors:
// 3 header copies and a 4-arrival merge per packet, the allocator-heavy
// case) and tree (1 + 4-NF parallel stage over two versions + 1). Sharded
// shapes: par4, seq4 (4 monitors: pure hand-off cost, where rtc's fused
// calls shed the most) and chain (vpn>monitor>lb: per-packet AES, the
// compute-bound §6.4 chain).
//
// A single 8-60 ms run swings by tens of percent on a busy host, so every
// series runs a discarded warm-up, then kReps timed runs, and its row
// reports the median run with the quartiles pps_q1 / pps_q3 and reps;
// scaling_vs_1shard divides medians.
//
// Overhead pairs gate telemetry at 5%: `<shape>/burst32-acct|noacct`
// (cycle accounting) and `<shape>/lat32-acct|noacct` (latency sampling 1
// in 64) on each pipeline shape, and `sharded/flow32-acct|noacct` (flow
// accounting on one shard, which isolates the worker's sketch fold). Run
// position alone is worth ~1.5x on a small host, so each pair runs a
// discarded warm-up, then kPairReps reps whose first side alternates, each
// side's run printed as its own JSON line. scripts/check_hotpath_regression.py
// gates the median paired overhead (--overhead) and compares every pps
// series against bench/baselines/BENCH_shard_scaling.json.
//
// Flags: --json, --packets=N (default 20000), --flows=N (default 256),
//        --skew=uniform|zipf (the sharded series' flow popularity).
#include <algorithm>
#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/cpu_affinity.hpp"
#include "dataplane/live_pipeline.hpp"
#include "dataplane/sharded_dataplane.hpp"
#include "packet/builder.hpp"
#include "telemetry/observatory.hpp"
#include "trafficgen/trafficgen.hpp"

namespace nfp {
namespace {

using Frames = std::vector<std::vector<u8>>;

constexpr int kReps = 5;       // timed runs per pps series
constexpr int kPairReps = 31;  // paired reps per overhead pair
static_assert(kReps % 4 == 1, "the quartiles must fall on runs");

__attribute__((format(printf, 1, 2))) std::string fmt(const char* format,
                                                      ...) {
  va_list args;
  va_start(args, format);
  va_list size_args;
  va_copy(size_args, args);
  std::string out(std::vsnprintf(nullptr, 0, format, size_args), '\0');
  va_end(size_args);
  std::vsnprintf(out.data(), out.size() + 1, format, args);
  va_end(args);
  return out;
}

// Frames of the pipeline series and the flow pair: 61 x 7 ports, five
// sizes.
Frames make_port_frames(std::size_t count) {
  PacketPool pool(2);
  Frames frames;
  frames.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    PacketSpec spec;
    spec.tuple.src_port = static_cast<u16>(7000 + i % 61);
    spec.tuple.dst_port = static_cast<u16>(80 + i % 7);
    spec.frame_size = 64 + (i % 5) * 128;
    Packet* p = build_packet(pool, spec);
    frames.emplace_back(p->data(), p->data() + p->length());
    pool.release(p);
  }
  return frames;
}

// Frames of the sharded series: trafficgen flows under the given
// popularity model, five sizes.
Frames make_flow_frames(std::size_t count, std::size_t flows, FlowSkew skew) {
  sim::Simulator sim;
  PacketPool pool(4);
  TrafficConfig cfg;
  cfg.flows = flows;
  cfg.flow_skew = skew;
  TrafficGenerator gen(sim, pool, cfg);
  Frames frames;
  frames.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    Packet* p = gen.make_packet(pool, gen.next_flow(), 64 + (i % 5) * 128);
    frames.emplace_back(p->data(), p->data() + p->length());
    pool.release(p);
  }
  return frames;
}

ServiceGraph make_par4() {
  return bench::parallel_stage("monitor", 4, /*with_copy=*/true);
}

ServiceGraph make_tree() {
  ServiceGraph g("tree");
  Segment pre;
  pre.nfs.push_back({"monitor", 0, 1, 0, false});
  pre.mid = 1;
  g.segments().push_back(std::move(pre));

  Segment par;
  par.nfs.push_back({"ids", 1, 1, 0, false});
  par.nfs.push_back({"monitor", 2, 1, 0, false});
  par.nfs.push_back({"lb", 3, 2, 1, false});
  par.nfs.push_back({"monitor", 4, 1, 0, false});
  par.num_versions = 2;
  par.merge.total_count = 4;
  par.merge.ops.push_back({MergeOp::Kind::kModify, 2, Field::kSrcIp});
  par.merge.ops.push_back({MergeOp::Kind::kModify, 2, Field::kDstIp});
  par.mid = 2;
  g.segments().push_back(std::move(par));

  Segment post;
  post.nfs.push_back({"monitor", 5, 1, 0, false});
  post.mid = 3;
  g.segments().push_back(std::move(post));
  return g;
}

struct Shape {
  const char* name;
  ServiceGraph (*make)();
};

// The two seq4 shapes are different graphs; each family keeps its own.
constexpr Shape kPipelineShapes[] = {
    {"seq4",
     [] {
       return ServiceGraph::sequential("seq4",
                                       {"monitor", "lb", "monitor", "lb"});
     }},
    {"par4", make_par4},
    {"tree", make_tree}};
constexpr Shape kShardedShapes[] = {
    {"par4", make_par4},
    {"seq4",
     [] {
       return ServiceGraph::sequential(
           "seq4", {"monitor", "monitor", "monitor", "monitor"});
     }},
    {"chain", [] {
       return ServiceGraph::sequential("chain", {"vpn", "monitor", "lb"});
     }}};

// One timed run; `sharded` rows add what the sharded plane reports.
struct Run {
  double pps = 0;
  double seconds = 0;
  u64 delivered = 0;
  std::string sharded;  // JSON fields, each with its leading comma
  std::string notes;    // the same, for the table
};

// Times plane.run(frames): construction is outside the window, thread
// spawn and join inside it, as when every baseline was taken.
template <class Plane>
Run time_run(Plane& plane, const Frames& frames, const std::string& graph) {
  const auto t0 = std::chrono::steady_clock::now();
  const auto result = plane.run(frames);
  const auto t1 = std::chrono::steady_clock::now();
  if (!result.status.is_ok()) {
    std::fprintf(stderr, "BUG: %s: %s\n", graph.c_str(),
                 result.status.message().c_str());
  }
  Run r;
  r.seconds = std::chrono::duration<double>(t1 - t0).count();
  r.delivered = result.outputs.size() + result.dropped;
  r.pps = r.seconds > 0 ? static_cast<double>(r.delivered) / r.seconds : 0;
  return r;
}

Run run_pipeline(const ServiceGraph& graph, const Frames& frames,
                 const LivePipelineOptions& opts) {
  LivePipeline pipe(graph, {}, opts);
  const Run r = time_run(pipe, frames, graph.name());
  if (pipe.refcnt_underflows() != 0) {
    std::fprintf(stderr, "BUG: refcount underflows detected in %s\n",
                 graph.name().c_str());
  }
  return r;
}

Run run_sharded(const ServiceGraph& graph, const Frames& frames,
                const ShardedDataplaneOptions& opts) {
  ShardedDataplane dp({graph}, {}, opts);
  // Registered before start() (inside run()) so every accounting thread is
  // covered; it is read only after the timed window.
  telemetry::Observatory observatory;
  dp.register_observatory(observatory);
  Run r = time_run(dp, frames, graph.name());
  // The observatory's aggregate bucket shares: where sub-linear series
  // lost their pps.
  const telemetry::ScalabilityReport rep = observatory.report().scalability;
  std::string shares;
  for (std::size_t b = 0; b < telemetry::kCycleBucketCount; ++b) {
    shares += fmt("\"%s\":%.4f,",
                  telemetry::cycle_bucket_name(
                      static_cast<telemetry::CycleBucket>(b)),
                  rep.total_share[b]);
  }
  const u64 hits = dp.microflow_hits();
  const u64 lookups = hits + dp.microflow_misses();
  const double hit_rate =
      lookups > 0 ? static_cast<double>(hits) / static_cast<double>(lookups)
                  : 0;
  const char* pinned = dp.affinity_applied() ? "true" : "false";
  const std::string top = rep.top_contention_source();
  r.sharded = fmt(",\"mf_hit_rate\":%.4f,\"affinity_applied\":%s,"
                  "\"attribution\":{%s\"top_contention_source\":\"%s\"}",
                  hit_rate, pinned, shares.c_str(), top.c_str());
  r.notes = fmt("mf_hit %.1f%%, pinned %s, top %s", hit_rate * 100, pinned,
                top.empty() ? "-" : top.c_str());
  return r;
}

// Prints one JSON row; `fields` follow pps, each with its leading comma.
void emit_row(const std::string& series, const std::string& knobs,
              const Run& r, const std::string& fields) {
  std::printf(
      "{\"bench\":\"shard_scaling\",\"series\":\"%s\",\"meta\":{\"bench\":"
      "\"shard_scaling\",\"timestamp\":\"%s\",\"knobs\":{%s}},\"pps\":%.1f%s,"
      "\"packets\":%llu,\"seconds\":%.4f%s}\n",
      series.c_str(), bench::iso8601_utc_now().c_str(), knobs.c_str(), r.pps,
      fields.c_str(), static_cast<unsigned long long>(r.delivered), r.seconds,
      r.sharded.c_str());
}

// A pps series: the median of kReps timed runs after a discarded warm-up.
struct Series {
  Run median;
  double q1 = 0;
  double q3 = 0;
};

Series repeat(const std::function<Run()>& run_once) {
  run_once();  // warm-up, discarded
  std::vector<Run> runs;
  for (int i = 0; i < kReps; ++i) runs.push_back(run_once());
  std::sort(runs.begin(), runs.end(),
            [](const Run& a, const Run& b) { return a.pps < b.pps; });
  return {runs[kReps / 2], runs[kReps / 4].pps, runs[3 * kReps / 4].pps};
}

void print_series(const std::string& name, const std::string& knobs,
                  const Series& s, const std::string& fields, bool json) {
  std::printf("%-26s %12.0f %12.0f %12.0f  %s\n", name.c_str(), s.median.pps,
              s.q1, s.q3, s.median.notes.c_str());
  if (json) {
    emit_row(name, knobs, s.median,
             fmt(",\"pps_q1\":%.1f,\"pps_q3\":%.1f,\"reps\":%d", s.q1, s.q3,
                 kReps) +
                 fields);
  }
}

// One side of an overhead pair.
struct Side {
  std::string series;
  std::string knobs;
  std::function<Run()> run;
};

// Instrumentation on vs off: a discarded warm-up, then kPairReps reps whose
// first side alternates, each side's run printed as its own JSON line.
void overhead_pair(const Side& on, const Side& off, bool json) {
  on.run();  // warm-up, discarded
  const Side* sides[2] = {&on, &off};
  std::vector<double> overhead;
  for (int rep = 0; rep < kPairReps; ++rep) {
    Run r[2];
    const int first = rep % 2;
    r[first] = sides[first]->run();
    r[1 - first] = sides[1 - first]->run();
    for (int s = 0; json && s < 2; ++s) {
      emit_row(sides[s]->series, sides[s]->knobs, r[s],
               fmt(",\"rep\":%d,\"reps\":%d", rep, kPairReps));
    }
    overhead.push_back(r[1].pps > 0 ? 1 - r[0].pps / r[1].pps : 0);
  }
  std::sort(overhead.begin(), overhead.end());
  std::printf("%-26s median paired overhead %.1f%% over %d reps vs %s\n",
              on.series.c_str(), overhead[kPairReps / 2] * 100, kPairReps,
              off.series.c_str());
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
  const Frames port_frames = make_port_frames(packets);
  const Frames flow_frames = make_flow_frames(packets, flows, skew);

  LivePipelineOptions base;
  base.burst_size = 32;
  base.magazine_size = 256;
  base.ring_depth = 1024;
  base.in_flight_window = 512;
  const auto pipeline = [&](const ServiceGraph& graph,
                            const LivePipelineOptions& opts) {
    return [&graph, &port_frames, opts] {
      return run_pipeline(graph, port_frames, opts);
    };
  };
  const auto sharded = [](const ServiceGraph& graph, const Frames& frames,
                          const ShardedDataplaneOptions& opts) {
    return [&graph, &frames, opts] {
      return run_sharded(graph, frames, opts);
    };
  };

  bench::print_header("Live planes: wall-clock pps, median of repeated runs");
  std::printf("online CPUs: %zu; %d timed runs per series, %d per pair side\n",
              online_cpu_count(), kReps, kPairReps);
  std::printf("%-26s %12s %12s %12s  %s\n", "series", "pps", "pps_q1",
              "pps_q3", "notes");

  for (const Shape& shape : kPipelineShapes) {
    const ServiceGraph graph = shape.make();
    const auto knobs = [&](const char* mode, std::size_t burst) {
      return fmt("\"shape\":\"%s\",\"mode\":\"%s\",\"burst\":%zu,"
                 "\"magazine\":256,\"packets\":%zu",
                 shape.name, mode, burst, packets);
    };
    for (const std::size_t burst : {32, 64}) {
      LivePipelineOptions opts = base;
      opts.burst_size = burst;
      print_series(fmt("%s/burst%zu", shape.name, burst),
                   knobs("batched", burst), repeat(pipeline(graph, opts)), "",
                   json);
    }
    LivePipelineOptions acct_off = base;
    acct_off.cycle_accounting = false;
    overhead_pair({fmt("%s/burst32-acct", shape.name),
                   knobs("batched-acct", 32), pipeline(graph, base)},
                  {fmt("%s/burst32-noacct", shape.name),
                   knobs("batched-noacct", 32), pipeline(graph, acct_off)},
                  json);
    LivePipelineOptions lat_on = base;
    lat_on.latency_sample_every = 64;
    overhead_pair({fmt("%s/lat32-acct", shape.name),
                   knobs("latency-sampled", 32) + ",\"lat_every\":64",
                   pipeline(graph, lat_on)},
                  {fmt("%s/lat32-noacct", shape.name),
                   knobs("latency-off", 32), pipeline(graph, base)},
                  json);
  }

  // One shard isolates the worker, where the epoch-amortized sketch fold
  // lives; the 61x7-port frame mix gives the sketches flow churn.
  const ServiceGraph flow_graph =
      ServiceGraph::sequential("flow", {"monitor", "lb"});
  ShardedDataplaneOptions flow_on;
  flow_on.shards = 1;
  flow_on.pipeline = base;
  ShardedDataplaneOptions flow_off = flow_on;
  flow_off.flow_accounting = false;
  const auto flow_knobs = [&](const char* mode) {
    return fmt("\"shape\":\"sharded\",\"mode\":\"%s\",\"shards\":1,"
               "\"burst\":32,\"magazine\":256,\"packets\":%zu",
               mode, packets);
  };
  overhead_pair({"sharded/flow32-acct", flow_knobs("flow-accounted"),
                 sharded(flow_graph, port_frames, flow_on)},
                {"sharded/flow32-noacct", flow_knobs("flow-off"),
                 sharded(flow_graph, port_frames, flow_off)},
                json);

  for (const Shape& shape : kShardedShapes) {
    const ServiceGraph graph = shape.make();
    for (const ExecMode mode : {ExecMode::kPipelined, ExecMode::kRtc}) {
      const char* mode_name = exec_mode_name(mode);
      double base_pps = 0;  // 1-shard median pps of this (shape, mode)
      for (const std::size_t shards : {1, 2, 4}) {
        ShardedDataplaneOptions opts;
        opts.shards = shards;
        opts.pipeline = base;
        opts.pipeline.exec_mode = mode;
        Series s = repeat(sharded(graph, flow_frames, opts));
        if (shards == 1) base_pps = s.median.pps;
        const double scaling = base_pps > 0 ? s.median.pps / base_pps : 0;
        s.median.notes += fmt(", scaling %.2fx", scaling);
        print_series(
            fmt("%s/%s/shards%zu", shape.name, mode_name, shards),
            fmt("\"shape\":\"%s\",\"mode\":\"%s\",\"shards\":%zu,"
                "\"flows\":%zu,\"skew\":\"%s\",\"packets\":%zu,"
                "\"online_cpus\":%zu",
                shape.name, mode_name, shards, flows, skew_name, packets,
                online_cpu_count()),
            s, fmt(",\"scaling_vs_1shard\":%.3f", scaling), json);
      }
    }
  }
  return 0;
}
