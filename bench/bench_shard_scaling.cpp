// The live bench: wall-clock packets/sec through the sharded live plane on
// this host (real threads, unlike the simulated figure benches).
//
// pps series `<shape>/rtc/shards{1,2,4}`: the sharded plane (flow-consistent
// director, ingest rings, microflow cache, pinned shards, each running
// every packet to completion) on par4 (4 parallel monitors: 3 header
// copies and a 4-arrival merge per packet, the allocator-heavy case), seq4
// (4 monitors: pure hop cost) and chain (vpn>monitor>lb: per-packet AES,
// the compute-bound §6.4 chain).
//
// A single 8-60 ms run swings by tens of percent on a busy host, so every
// series runs a discarded warm-up, then kReps timed runs, and its row
// reports the median run with the quartiles pps_q1 / pps_q3 and reps;
// scaling_vs_1shard divides medians. Every row also carries steal_share
// and system_share: the shares of all CPUs' time that /proc/stat booked
// as stolen by the hypervisor and as kernel time over its timed runs.
//
// Overhead pairs gate telemetry at 5%, each on a 1-shard plane, which
// isolates the shard worker: `<shape>/burst32-acct|noacct` (cycle
// accounting) and `<shape>/lat32-acct|noacct` (latency sampling 1 in 64
// flows) on the pair shapes seq4 (monitor>lb>monitor>lb), par4 and tree
// (1 + 4-NF parallel stage over two versions + 1), and
// `sharded/flow32-acct|noacct` (flow accounting, the worker's sketch
// fold). Run position alone is worth ~1.5x on a small host, so each pair
// runs a discarded warm-up, then kPairReps reps whose first side
// alternates, each side's run printed as its own JSON line.
// scripts/check_hotpath_regression.py gates the median paired overhead
// (--overhead) and compares every pps series against
// bench/baselines/BENCH_shard_scaling.json.
//
// Flags: --json, --packets=N (default 20000), --flows=N (default 256),
//        --skew=uniform|zipf (the sharded series' flow popularity).
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <numeric>
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

// Frames of the overhead pairs: 61 x 7 ports, five sizes.
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
constexpr Shape kPairShapes[] = {
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

// Jiffies of the aggregate "cpu" line of /proc/stat, as a delta between
// two reads: user, nice, system, idle, iowait, irq, softirq, steal (guest
// time is already inside user). All zero where /proc/stat is unreadable.
struct CpuTimes {
  static constexpr std::size_t kSystem = 2;
  static constexpr std::size_t kSteal = 7;
  std::array<u64, 8> jiffies{};

  static CpuTimes now() {
    CpuTimes t;
    std::ifstream stat("/proc/stat");
    std::string cpu;
    stat >> cpu;
    for (u64& j : t.jiffies) stat >> j;
    if (!stat || cpu != "cpu") t.jiffies = {};
    return t;
  }
  CpuTimes& operator+=(const CpuTimes& o) {
    for (std::size_t i = 0; i < jiffies.size(); ++i) jiffies[i] += o.jiffies[i];
    return *this;
  }
  CpuTimes since(const CpuTimes& start) const {
    CpuTimes d;
    for (std::size_t i = 0; i < jiffies.size(); ++i) {
      d.jiffies[i] = jiffies[i] - start.jiffies[i];
    }
    return d;
  }
  double share(std::size_t field) const {
    const u64 total = std::accumulate(jiffies.begin(), jiffies.end(), u64{0});
    return total > 0 ? static_cast<double>(jiffies[field]) /
                           static_cast<double>(total)
                     : 0;
  }
};

// One timed run; `sharded` adds what the sharded plane reports.
struct Run {
  double pps = 0;
  double seconds = 0;
  u64 delivered = 0;
  CpuTimes cpu;         // /proc/stat delta over the run
  std::string sharded;  // JSON fields, each with its leading comma
  std::string notes;    // the same, for the table
};

// Times dp.run(frames): construction is outside the window, thread spawn
// and join inside it, as when every baseline was taken. The /proc/stat
// reads sit just outside the window.
Run time_run(ShardedDataplane& dp, const Frames& frames,
             const std::string& graph) {
  const CpuTimes cpu0 = CpuTimes::now();
  const auto t0 = std::chrono::steady_clock::now();
  const ShardedResult result = dp.run(frames);
  const auto t1 = std::chrono::steady_clock::now();
  const CpuTimes cpu1 = CpuTimes::now();
  if (!result.status.is_ok()) {
    std::fprintf(stderr, "BUG: %s: %s\n", graph.c_str(),
                 result.status.message().c_str());
  }
  Run r;
  r.seconds = std::chrono::duration<double>(t1 - t0).count();
  r.delivered = result.outputs.size() + result.dropped;
  r.pps = r.seconds > 0 ? static_cast<double>(r.delivered) / r.seconds : 0;
  r.cpu = cpu1.since(cpu0);
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
  for (std::size_t s = 0; s < dp.shard_count(); ++s) {
    if (dp.shard_pool(s).refcnt_underflow_total() != 0) {
      std::fprintf(stderr, "BUG: refcount underflows detected in %s\n",
                   graph.name().c_str());
    }
  }
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
// `cpu` is the /proc/stat delta the row's shares come from.
void emit_row(const std::string& series, const std::string& knobs,
              const Run& r, const CpuTimes& cpu, const std::string& fields) {
  std::printf(
      "{\"bench\":\"shard_scaling\",\"series\":\"%s\",\"meta\":{\"bench\":"
      "\"shard_scaling\",\"timestamp\":\"%s\",\"knobs\":{%s}},\"pps\":%.1f%s,"
      "\"packets\":%llu,\"seconds\":%.4f,\"steal_share\":%.4f,"
      "\"system_share\":%.4f%s}\n",
      series.c_str(), bench::iso8601_utc_now().c_str(), knobs.c_str(), r.pps,
      fields.c_str(), static_cast<unsigned long long>(r.delivered), r.seconds,
      cpu.share(CpuTimes::kSteal), cpu.share(CpuTimes::kSystem),
      r.sharded.c_str());
}

// A pps series: the median of kReps timed runs after a discarded warm-up,
// and the /proc/stat delta summed over the timed runs.
struct Series {
  Run median;
  double q1 = 0;
  double q3 = 0;
  CpuTimes cpu;
};

Series repeat(const std::function<Run()>& run_once) {
  run_once();  // warm-up, discarded
  std::vector<Run> runs;
  CpuTimes cpu;
  for (int i = 0; i < kReps; ++i) {
    runs.push_back(run_once());
    cpu += runs.back().cpu;
  }
  std::sort(runs.begin(), runs.end(),
            [](const Run& a, const Run& b) { return a.pps < b.pps; });
  return {runs[kReps / 2], runs[kReps / 4].pps, runs[3 * kReps / 4].pps, cpu};
}

void print_series(const std::string& name, const std::string& knobs,
                  const Series& s, const std::string& fields, bool json) {
  std::printf("%-26s %12.0f %12.0f %12.0f  %s, steal %.1f%%\n", name.c_str(),
              s.median.pps, s.q1, s.q3, s.median.notes.c_str(),
              100 * s.cpu.share(CpuTimes::kSteal));
  if (json) {
    emit_row(name, knobs, s.median, s.cpu,
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
      emit_row(sides[s]->series, sides[s]->knobs, r[s], r[s].cpu,
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

  // Every run: one plane, magazines of 256 slots.
  ShardedDataplaneOptions base;
  base.pipeline.magazine_size = 256;
  const auto sharded = [](const ServiceGraph& graph, const Frames& frames,
                          const ShardedDataplaneOptions& opts) {
    return [&graph, &frames, opts] {
      return run_sharded(graph, frames, opts);
    };
  };

  bench::print_header("Live plane: wall-clock pps, median of repeated runs");
  std::printf("online CPUs: %zu; %d timed runs per series, %d per pair side\n",
              online_cpu_count(), kReps, kPairReps);
  std::printf("%-26s %12s %12s %12s  %s\n", "series", "pps", "pps_q1",
              "pps_q3", "notes");

  // The overhead pairs run on one shard, which isolates the worker: the
  // thread that books the cycle buckets, stamps the latency samples and
  // folds the flow sketches.
  ShardedDataplaneOptions one_shard = base;
  one_shard.shards = 1;
  for (const Shape& shape : kPairShapes) {
    const ServiceGraph graph = shape.make();
    const auto knobs = [&](const char* mode) {
      return fmt("\"shape\":\"%s\",\"mode\":\"%s\",\"shards\":1,"
                 "\"magazine\":256,\"packets\":%zu",
                 shape.name, mode, packets);
    };
    ShardedDataplaneOptions acct_off = one_shard;
    acct_off.pipeline.cycle_accounting = false;
    overhead_pair({fmt("%s/burst32-acct", shape.name),
                   knobs("cycle-accounted"),
                   sharded(graph, port_frames, one_shard)},
                  {fmt("%s/burst32-noacct", shape.name),
                   knobs("cycle-accounting-off"),
                   sharded(graph, port_frames, acct_off)},
                  json);
    ShardedDataplaneOptions lat_on = one_shard;
    lat_on.pipeline.latency_sample_every = 64;
    overhead_pair({fmt("%s/lat32-acct", shape.name),
                   knobs("latency-sampled") + ",\"lat_every\":64",
                   sharded(graph, port_frames, lat_on)},
                  {fmt("%s/lat32-noacct", shape.name), knobs("latency-off"),
                   sharded(graph, port_frames, one_shard)},
                  json);
  }

  // The 61x7-port frame mix is 427 flows on one shard: more than the
  // Space-Saving table's 128 entries, so folds displace entries, but too
  // few to fill an accumulator probe run, so an epoch ends only at an idle
  // streak, the 64Ki-packet backstop or stop. This pair cannot see the
  // probe-overflow folds of a shard with ~10k flows (perfbench ct-churn);
  // bench_micro_components' BM_FlowFold/zipf10k measures those.
  const ServiceGraph flow_graph =
      ServiceGraph::sequential("flow", {"monitor", "lb"});
  ShardedDataplaneOptions flow_off = one_shard;
  flow_off.flow_accounting = false;
  const auto flow_knobs = [&](const char* mode) {
    return fmt("\"shape\":\"sharded\",\"mode\":\"%s\",\"shards\":1,"
               "\"magazine\":256,\"packets\":%zu",
               mode, packets);
  };
  overhead_pair({"sharded/flow32-acct", flow_knobs("flow-accounted"),
                 sharded(flow_graph, port_frames, one_shard)},
                {"sharded/flow32-noacct", flow_knobs("flow-off"),
                 sharded(flow_graph, port_frames, flow_off)},
                json);

  for (const Shape& shape : kShardedShapes) {
    const ServiceGraph graph = shape.make();
    double base_pps = 0;  // 1-shard median pps of this shape
    for (const std::size_t shards : {1, 2, 4}) {
      ShardedDataplaneOptions opts = base;
      opts.shards = shards;
      Series s = repeat(sharded(graph, flow_frames, opts));
      if (shards == 1) base_pps = s.median.pps;
      const double scaling = base_pps > 0 ? s.median.pps / base_pps : 0;
      s.median.notes += fmt(", scaling %.2fx", scaling);
      print_series(
          fmt("%s/rtc/shards%zu", shape.name, shards),
          fmt("\"shape\":\"%s\",\"shards\":%zu,\"flows\":%zu,"
              "\"skew\":\"%s\",\"packets\":%zu,\"online_cpus\":%zu",
              shape.name, shards, flows, skew_name, packets,
              online_cpu_count()),
          s, fmt(",\"scaling_vs_1shard\":%.3f", scaling), json);
    }
  }
  return 0;
}
