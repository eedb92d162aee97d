// Live-pipeline hot-path throughput: real threads, wall-clock packets/sec.
//
// Unlike the figure benches (simulated time), this bench measures the
// actual concurrent hot path on this host: burst ring I/O, per-thread
// magazine caches over the lock-free pool, precomputed fanout plans and
// the sharded merge table, at burst 32 and 64.
//
// Shapes:
//   seq4   monitor>lb>monitor>lb sequential chain (no merger on the path)
//   par4   4 parallel monitors, one packet version each (3 header copies,
//          merge of 4 arrivals per packet — the allocator-heavy case)
//   tree   1 + 4 + 1: sequential hop, 4-NF parallel stage over two
//          versions, sequential hop
//
// Output: one human table row and (with --json / NFP_BENCH_JSON) one JSON
// line per series:
//   {"bench":"hotpath_throughput","series":"par4/burst32",
//    "meta":{...,"knobs":{...}},"pps":...,"packets":...,"seconds":...}
// scripts/check_hotpath_regression.py compares the pps values against
// bench/baselines/BENCH_hotpath_throughput.json in CI.
//
// Each shape also runs an overhead-gate pair: `burst32-acct` (cycle
// accounting on, the shipped default) vs `burst32-noacct` (accounting
// off). Run position is a real confound on small hosts — a later
// identical run can measure 1.5x faster than an earlier one — so the
// pair is interleaved: one discarded warm-up, then acct/noacct
// alternating for three reps, best-of-3 each. check_hotpath_regression.py
// --overhead fails CI when the always-on counters cost more than 5% pps.
//
// A final `sharded/flow32-acct` / `sharded/flow32-noacct` pair gates the
// flow observatory the same way: a 1-shard ShardedDataplane (the worker is
// where the epoch-amortized sketch fold lives) with flow_accounting on vs
// off. This pair emits one JSON line per rep (7 reps, sides alternating)
// so the checker can gate the median of the *paired* per-rep overheads —
// single ~15 ms runs swing by multiple percent on a busy host, but
// back-to-back reps share the load regime and their ratio stays honest.
//
// Flags: --json, --packets=N (default 20000).
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "dataplane/live_pipeline.hpp"
#include "dataplane/sharded_dataplane.hpp"
#include "packet/builder.hpp"

namespace nfp {
namespace {

std::vector<std::vector<u8>> make_frames(std::size_t count) {
  PacketPool pool(2);
  std::vector<std::vector<u8>> frames;
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

ServiceGraph make_seq4() {
  return ServiceGraph::sequential("seq4", {"monitor", "lb", "monitor", "lb"});
}

ServiceGraph make_par4() {
  // Four monitors, one version each: 3 header copies per packet plus a
  // 4-arrival merge — maximal pool and merge-table pressure.
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

struct RunResult {
  double pps = 0;
  double seconds = 0;
  u64 delivered = 0;
  u64 refills = 0;
  u64 flushes = 0;
};

RunResult run_series(const Shape& shape,
                     const std::vector<std::vector<u8>>& frames,
                     const LivePipelineOptions& opts) {
  LivePipeline pipe(shape.make(), {}, opts);
  const auto t0 = std::chrono::steady_clock::now();
  const LiveResult result = pipe.run(frames);
  const auto t1 = std::chrono::steady_clock::now();
  RunResult r;
  r.seconds = std::chrono::duration<double>(t1 - t0).count();
  r.delivered = result.outputs.size() + result.dropped;
  r.pps = r.seconds > 0 ? static_cast<double>(r.delivered) / r.seconds : 0;
  r.refills = pipe.magazine_refills();
  r.flushes = pipe.magazine_flushes();
  if (pipe.refcnt_underflows() != 0) {
    std::fprintf(stderr, "BUG: refcount underflows detected in %s\n",
                 shape.name);
  }
  return r;
}

RunResult run_sharded(const std::vector<std::vector<u8>>& frames,
                      const ShardedDataplaneOptions& opts) {
  ShardedDataplane dp(
      {ServiceGraph::sequential("flow", {"monitor", "lb"})}, {}, opts);
  const auto t0 = std::chrono::steady_clock::now();
  const ShardedResult result = dp.run(frames);
  const auto t1 = std::chrono::steady_clock::now();
  RunResult r;
  r.seconds = std::chrono::duration<double>(t1 - t0).count();
  r.delivered = result.outputs.size() + result.dropped;
  r.pps = r.seconds > 0 ? static_cast<double>(r.delivered) / r.seconds : 0;
  return r;
}

}  // namespace
}  // namespace nfp

int main(int argc, char** argv) {
  using namespace nfp;
  const bool json = bench::json_enabled(argc, argv);
  std::size_t packets = 20000;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--packets=", 10) == 0) {
      packets = std::strtoull(argv[i] + 10, nullptr, 10);
    }
  }

  const auto frames = make_frames(packets);
  const Shape shapes[] = {{"seq4", make_seq4},
                          {"par4", make_par4},
                          {"tree", make_tree}};
  const std::size_t bursts[] = {32, 64};

  bench::print_header("Live hot-path throughput (wall clock, batched)");
  std::printf("%-16s %12s %10s %10s %10s\n", "series", "pps", "seconds",
              "refills", "flushes");

  for (const Shape& shape : shapes) {
    for (const std::size_t burst : bursts) {
      LivePipelineOptions opts;
      opts.burst_size = burst;
      opts.magazine_size = 256;
      opts.ring_depth = 1024;
      opts.in_flight_window = 512;
      const RunResult r = run_series(shape, frames, opts);
      std::printf("%-16s %12.0f %10.3f %10llu %10llu\n",
                  (std::string(shape.name) + "/burst" + std::to_string(burst))
                      .c_str(),
                  r.pps, r.seconds,
                  static_cast<unsigned long long>(r.refills),
                  static_cast<unsigned long long>(r.flushes));
      if (json) {
        std::printf(
            "{\"bench\":\"hotpath_throughput\",\"series\":\"%s/burst%zu\","
            "\"meta\":{\"bench\":\"hotpath_throughput\",\"timestamp\":\"%s\","
            "\"knobs\":{\"shape\":\"%s\",\"mode\":\"batched\",\"burst\":%zu,"
            "\"magazine\":256,\"packets\":%zu}},"
            "\"pps\":%.1f,\"packets\":%llu,\"seconds\":%.4f}\n",
            shape.name, burst, bench::iso8601_utc_now().c_str(), shape.name,
            burst, packets, r.pps,
            static_cast<unsigned long long>(r.delivered), r.seconds);
      }
    }

    // The overhead gate: cycle accounting on (the shipped default) vs off,
    // interleaved so run position cannot masquerade as accounting cost.
    // One warm-up run is discarded, then the pair alternates for three
    // reps; the best pps of each side is what the gate compares —
    // enforced by check_hotpath_regression.py --overhead in CI.
    {
      LivePipelineOptions on_opts;
      on_opts.burst_size = 32;
      on_opts.magazine_size = 256;
      on_opts.ring_depth = 1024;
      on_opts.in_flight_window = 512;
      LivePipelineOptions off_opts = on_opts;
      off_opts.cycle_accounting = false;

      run_series(shape, frames, on_opts);  // warm-up, discarded
      RunResult best_on{};
      RunResult best_off{};
      for (int rep = 0; rep < 3; ++rep) {
        const RunResult on = run_series(shape, frames, on_opts);
        const RunResult off = run_series(shape, frames, off_opts);
        if (on.pps > best_on.pps) best_on = on;
        if (off.pps > best_off.pps) best_off = off;
      }

      const struct {
        const char* suffix;
        const char* mode;
        const RunResult* r;
      } sides[] = {{"burst32-acct", "batched-acct", &best_on},
                   {"burst32-noacct", "batched-noacct", &best_off}};
      for (const auto& side : sides) {
        const RunResult& r = *side.r;
        std::printf("%-16s %12.0f %10.3f %10llu %10llu\n",
                    (std::string(shape.name) + "/" + side.suffix).c_str(),
                    r.pps, r.seconds,
                    static_cast<unsigned long long>(r.refills),
                    static_cast<unsigned long long>(r.flushes));
        if (json) {
          std::printf(
              "{\"bench\":\"hotpath_throughput\","
              "\"series\":\"%s/%s\","
              "\"meta\":{\"bench\":\"hotpath_throughput\","
              "\"timestamp\":\"%s\","
              "\"knobs\":{\"shape\":\"%s\",\"mode\":\"%s\","
              "\"burst\":32,\"magazine\":256,\"packets\":%zu,"
              "\"reps\":3,\"reduce\":\"max\"}},"
              "\"pps\":%.1f,\"packets\":%llu,\"seconds\":%.4f}\n",
              shape.name, side.suffix, bench::iso8601_utc_now().c_str(),
              shape.name, side.mode, packets, r.pps,
              static_cast<unsigned long long>(r.delivered), r.seconds);
        }
      }
    }

    // Second overhead gate: stage-latency sampling (PR 7) at the shipped
    // 1-in-64 rate vs off. Same interleaved best-of-3 protocol; the
    // `lat32-noacct` name keys check_hotpath_regression.py --overhead's
    // auto-pairing against `lat32-acct`.
    {
      LivePipelineOptions on_opts;
      on_opts.burst_size = 32;
      on_opts.magazine_size = 256;
      on_opts.ring_depth = 1024;
      on_opts.in_flight_window = 512;
      on_opts.latency_sample_every = 64;
      LivePipelineOptions off_opts = on_opts;
      off_opts.latency_sample_every = 0;

      run_series(shape, frames, on_opts);  // warm-up, discarded
      RunResult best_on{};
      RunResult best_off{};
      for (int rep = 0; rep < 3; ++rep) {
        const RunResult on = run_series(shape, frames, on_opts);
        const RunResult off = run_series(shape, frames, off_opts);
        if (on.pps > best_on.pps) best_on = on;
        if (off.pps > best_off.pps) best_off = off;
      }

      const struct {
        const char* suffix;
        const char* mode;
        const RunResult* r;
      } sides[] = {{"lat32-acct", "latency-sampled", &best_on},
                   {"lat32-noacct", "latency-off", &best_off}};
      for (const auto& side : sides) {
        const RunResult& r = *side.r;
        std::printf("%-16s %12.0f %10.3f %10llu %10llu\n",
                    (std::string(shape.name) + "/" + side.suffix).c_str(),
                    r.pps, r.seconds,
                    static_cast<unsigned long long>(r.refills),
                    static_cast<unsigned long long>(r.flushes));
        if (json) {
          std::printf(
              "{\"bench\":\"hotpath_throughput\","
              "\"series\":\"%s/%s\","
              "\"meta\":{\"bench\":\"hotpath_throughput\","
              "\"timestamp\":\"%s\","
              "\"knobs\":{\"shape\":\"%s\",\"mode\":\"%s\","
              "\"burst\":32,\"magazine\":256,\"packets\":%zu,"
              "\"lat_every\":64,\"reps\":3,\"reduce\":\"max\"}},"
              "\"pps\":%.1f,\"packets\":%llu,\"seconds\":%.4f}\n",
              shape.name, side.suffix, bench::iso8601_utc_now().c_str(),
              shape.name, side.mode, packets, r.pps,
              static_cast<unsigned long long>(r.delivered), r.seconds);
        }
      }
    }
  }

  // Flow-observatory overhead gate: the sharded worker's per-burst sketch
  // fold (heavy hitters + HLL + per-graph counters) on vs off, same
  // interleaved best-of-3 protocol. One shard isolates the worker cost;
  // the 61x7-port frame mix gives the sketches real flow churn to absorb.
  {
    ShardedDataplaneOptions on_opts;
    on_opts.shards = 1;
    on_opts.pipeline.burst_size = 32;
    on_opts.pipeline.magazine_size = 256;
    on_opts.pipeline.ring_depth = 1024;
    on_opts.pipeline.in_flight_window = 512;
    on_opts.flow_accounting = true;
    ShardedDataplaneOptions off_opts = on_opts;
    off_opts.flow_accounting = false;

    run_sharded(frames, on_opts);  // warm-up, discarded
    // Alternate which side goes first each rep so neither side
    // systematically inherits a warmer cache, and emit every rep as its
    // own JSON line: back-to-back reps share whatever load regime the
    // host is in, so the checker can pair them in order and gate on the
    // *median paired* overhead — robust against the multi-percent noise a
    // single ~15 ms run picks up on a busy box.
    constexpr int kFlowReps = 7;
    RunResult on_reps[kFlowReps];
    RunResult off_reps[kFlowReps];
    for (int rep = 0; rep < kFlowReps; ++rep) {
      for (int side = 0; side < 2; ++side) {
        const bool acct = (side == 0) == (rep % 2 == 0);
        (acct ? on_reps : off_reps)[rep] = run_sharded(
            frames, acct ? on_opts : off_opts);
      }
    }

    const struct {
      const char* suffix;
      const char* mode;
      const RunResult* reps;
    } sides[] = {{"flow32-acct", "flow-accounted", on_reps},
                 {"flow32-noacct", "flow-off", off_reps}};
    for (const auto& side : sides) {
      RunResult best{};
      for (int rep = 0; rep < kFlowReps; ++rep) {
        if (side.reps[rep].pps > best.pps) best = side.reps[rep];
      }
      std::printf("%-16s %12.0f %10.3f %10s %10s\n",
                  (std::string("sharded/") + side.suffix).c_str(), best.pps,
                  best.seconds, "-", "-");
      if (json) {
        for (int rep = 0; rep < kFlowReps; ++rep) {
          const RunResult& r = side.reps[rep];
          std::printf(
              "{\"bench\":\"hotpath_throughput\","
              "\"series\":\"sharded/%s\","
              "\"meta\":{\"bench\":\"hotpath_throughput\","
              "\"timestamp\":\"%s\","
              "\"knobs\":{\"shape\":\"sharded\",\"mode\":\"%s\","
              "\"shards\":1,\"burst\":32,\"magazine\":256,\"packets\":%zu,"
              "\"rep\":%d,\"reps\":%d}},"
              "\"pps\":%.1f,\"packets\":%llu,\"seconds\":%.4f}\n",
              side.suffix, bench::iso8601_utc_now().c_str(), side.mode,
              packets, rep, kFlowReps, r.pps,
              static_cast<unsigned long long>(r.delivered), r.seconds);
        }
      }
    }
  }
  return 0;
}
