// nfp_cli: command-line front end to the orchestrator.
//
//   nfp_cli compile <policy-file>         compile and print the graph
//   nfp_cli tables <policy-file>          print the Fig-4 dataplane tables
//   nfp_cli dot <policy-file>             print Graphviz for the graph
//   nfp_cli plan <policy-file> [cores]    partition across servers (§7)
//   nfp_cli stats                         print the §4.3 pair statistics
//   nfp_cli run <policy-file> [options]   run traffic through the dataplane
//   nfp_cli live <policy-file> [options]  run the policy on the sharded
//                                         multi-core live dataplane (real
//                                         threads, RSS flow sharding)
//   nfp_cli profile <policy-file> [opts]  critical-path bottleneck report
//   nfp_cli top [--port=P] [options]      live terminal dashboard against a
//                                         --serve'd run (pps, per-NF p99,
//                                         utilization, bottleneck share,
//                                         per-shard cycle attribution)
//   nfp_cli scalability [policy] [opts]   sweep shard counts and attribute
//                                         every lost packet-per-second to
//                                         a cycle bucket (useful/starved/
//                                         ring/pool/classifier-miss)
//   nfp_cli latency [policy] [opts]       run the NFP-parallel graph and its
//                                         flattened sequential chain on the
//                                         sharded dataplane, open loop at
//                                         100,000 frames/s, and print the
//                                         stage-resolved latency-reduction
//                                         table (ingest/queue/service/total,
//                                         p50/p99/p99.9); each packet runs
//                                         to completion on one core, so this
//                                         measures NFP's fan-out and merge
//                                         cost, not intra-packet parallelism
//   nfp_cli flows [policy] [opts]         run a zipf elephant/mice workload
//                                         and print the flow view's
//                                         merged top-K heavy hitters, flow
//                                         churn and per-reason drop
//                                         attribution (--pool=N for a
//                                         tail-drop overload demo)
//
// `run` options (telemetry):
//   --metrics          per-component utilization/latency report
//   --trace-every=N    trace every Nth packet; prints the first traced
//                      packet's span timeline
//   --json             metrics as JSON
//   --prometheus       metrics in Prometheus text format
//   --packets=N        packets to inject (default 2000)
//   --rate=PPS         injection rate (default 10000)
//   --size=BYTES       frame size (default 128)
//
// `live` options:
//   --shards=N         shard count (default 0 = one per online CPU)
//   --packets=N        frames per wave (default 20000)
//   --flows=N          distinct 5-tuples in the generated traffic
//   --skew=uniform|zipf  flow-popularity model (default uniform)
//   --size=BYTES       frame size (default 256)
//   --serve=PORT       stream waves forever and serve /metrics,
//                      /timeseries.json, /observatory.json, /healthz —
//                      `nfp_cli top` then shows per-shard pps, core
//                      utilization and stage latency live
//   --lat-every=N      sample every-Nth flow for stage latency (default 8
//                      under --serve, 0 = off otherwise)
//   --scenario=NAME    named traffic preset instead of the generated wave:
//                      bursty | elephant-mice | syn-flood | ddos (ddos also
//                      installs a CT drop rule for the attack subnet)
//   --rules=N          preload N synthetic masked CT rules (classifier
//                      scale testing; verdicts beyond graph range clamp)
//
// `profile` options (in addition to --packets/--rate/--size/--json):
//   --plane=nfp|onv|rtc  which dataplane to profile (default nfp; onv/rtc
//                        flatten the graph into a sequential chain)
//   --trace-every=N      sample every Nth packet (default 1: all)
//   --watch=MS           print interim bottleneck lines every MS of
//                        simulated time while the run progresses
//
// `--serve=PORT` (run and profile) keeps the dataplane alive after the
// first wave, injecting `--packets` more packets every ~200ms and serving
// the live observability endpoints on 127.0.0.1:PORT — /metrics,
// /metrics.json, /timeseries.json, /profile.json, /recorder.json,
// /trace.json (load in ui.perfetto.dev) and /healthz. Ctrl-C stops.
//
// Policy files use the text format of src/policy/parser.hpp.
#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "baseline/onv_dataplane.hpp"
#include "baseline/rtc_dataplane.hpp"
#include "cluster/partition.hpp"
#include "common/cpu_affinity.hpp"
#include "common/json.hpp"
#include "dataplane/nfp_dataplane.hpp"
#include "dataplane/sharded_dataplane.hpp"
#include "nfs/firewall.hpp"
#include "orch/compiler.hpp"
#include "orch/pair_stats.hpp"
#include "orch/table_gen.hpp"
#include "policy/parser.hpp"
#include "telemetry/critical_path.hpp"
#include "telemetry/exporters.hpp"
#include "telemetry/health_sampler.hpp"
#include "telemetry/observatory.hpp"
#include "telemetry/stats_server.hpp"
#include "telemetry/timeseries.hpp"
#include "dataplane/tuple_space_classifier.hpp"
#include "trafficgen/scenarios.hpp"
#include "trafficgen/trafficgen.hpp"

namespace {

using namespace nfp;

int usage() {
  std::fprintf(stderr,
               "usage: nfp_cli compile|tables|dot|plan <policy-file> "
               "[cores]\n       nfp_cli stats\n"
               "       nfp_cli run <policy-file> [--metrics] "
               "[--trace-every=N] [--json]\n"
               "               [--prometheus] [--packets=N] [--rate=PPS] "
               "[--size=BYTES]\n"
               "               [--serve=PORT]\n"
               "       nfp_cli live <policy-file> [--shards=N] [--packets=N] "
               "[--flows=N]\n"
               "               [--skew=uniform|zipf] [--size=BYTES] "
               "[--serve=PORT]\n"
               "               [--scenario=NAME] [--rules=N]\n"
               "       nfp_cli profile <policy-file> [--plane=nfp|onv|rtc] "
               "[--packets=N]\n"
               "               [--rate=PPS] [--size=BYTES] [--trace-every=N] "
               "[--json] [--watch=MS]\n"
               "               [--serve=PORT]\n"
               "       nfp_cli top [--port=P] [--interval=MS] "
               "[--iterations=N]\n"
               "       nfp_cli scalability [policy-file] [--shards=1,2,4] "
               "[--packets=N]\n"
               "               [--flows=N] [--skew=uniform|zipf] "
               "[--size=BYTES] [--json]\n"
               "       nfp_cli latency [policy-file] [--shards=N] "
               "[--packets=N] [--flows=N]\n"
               "               [--skew=uniform|zipf] [--size=BYTES] "
               "[--sample-every=N] [--json]\n"
               "       nfp_cli flows [policy-file] [--shards=N] "
               "[--packets=N] [--flows=N]\n"
               "               [--skew=uniform|zipf] [--top=K] [--pool=N] "
               "[--json]\n");
  return 2;
}

// Parses `--name=value` into out; returns true when argv matches `name`.
bool flag_value(const char* arg, const char* name, u64* out) {
  const std::size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  *out = std::strtoull(arg + len + 1, nullptr, 10);
  return true;
}

// --serve / top run until interrupted.
volatile std::sig_atomic_t g_stop = 0;
void handle_stop_signal(int) { g_stop = 1; }

void install_stop_handler() {
  std::signal(SIGINT, handle_stop_signal);
  std::signal(SIGTERM, handle_stop_signal);
}

// Sleeps `ms` in short slices so Ctrl-C stays responsive.
void interruptible_sleep_ms(u64 ms) {
  while (ms > 0 && g_stop == 0) {
    const u64 slice = ms < 50 ? ms : 50;
    std::this_thread::sleep_for(std::chrono::milliseconds(slice));
    ms -= slice;
  }
}

// Serves `sources` on 127.0.0.1:`port` and runs `wave` every ~200 ms
// until Ctrl-C, with `collector` (and `sampler`, when given) ticking in
// the background; `banner` announces the bound port. `waves` counts the
// waves already run. Returns the exit code: 1 when the server cannot
// start.
int serve_waves(const telemetry::EndpointSources& sources, u64 port,
                telemetry::TimeseriesCollector& collector,
                telemetry::HealthSampler* sampler,
                const std::function<void(unsigned port)>& banner,
                const std::function<void(u64 waves)>& wave, u64 waves) {
  telemetry::StatsServer server;
  telemetry::register_standard_endpoints(server, sources);
  telemetry::StatsServer::Options server_options;
  server_options.port = static_cast<std::uint16_t>(port);
  if (const Status started = server.start(server_options); !started) {
    std::fprintf(stderr, "error: %s\n", started.message().c_str());
    return 1;
  }
  banner(server.port());
  std::fflush(stdout);

  install_stop_handler();
  if (sampler != nullptr) sampler->start();
  collector.start();
  for (; g_stop == 0; ++waves) {
    wave(waves);
    interruptible_sleep_ms(200);
  }
  collector.stop();
  if (sampler != nullptr) sampler->stop();
  server.stop();
  std::printf("\nstopped after %llu waves; served %llu requests\n",
              static_cast<unsigned long long>(waves),
              static_cast<unsigned long long>(server.requests_served()));
  return 0;
}

// Everything serve mode needs from whichever dataplane the caller built.
struct ServeSources {
  sim::Simulator* sim = nullptr;
  telemetry::MetricsRegistry* metrics = nullptr;
  telemetry::Tracer* tracer = nullptr;  // null disables /profile + /trace
  telemetry::FlightRecorder* recorder = nullptr;
  PacketPool* pool = nullptr;
  std::function<void(Packet*)> inject;
  std::function<void()> snapshot;  // refresh point-in-time gauges
};

// Serve mode: inject `packets` per wave forever, with the observability
// plane live on 127.0.0.1:port. The mutex serializes the wave loop (the
// only structural mutator of the registry and tracer ring) against the
// stats-server handlers and the collector tick.
int serve_loop(const ServeSources& src, u64 port, u64 packets,
               double rate_pps, std::size_t frame_size) {
  std::mutex mu;

  telemetry::Watchdog watchdog(*src.recorder);
  watchdog.set_registry(src.metrics);
  watchdog.watch_drop_counter("dataplane", [metrics = src.metrics] {
    u64 total = 0;
    for (const auto& [key, c] : metrics->counters()) {
      if (key.name == "packets_dropped_total") total += c.value.load();
    }
    return total;
  });
  watchdog.watch_pool("pool", [pool = src.pool] { return pool->in_use(); },
                      src.pool->capacity());

  const auto wave = [&](u64 waves) {
    std::lock_guard<std::mutex> lock(mu);
    TrafficConfig traffic;
    traffic.fixed_size = frame_size;
    traffic.rate_pps = rate_pps;
    traffic.packets = packets;
    traffic.seed = 42 + waves;  // vary flows across waves
    traffic.metrics = src.metrics;
    TrafficGenerator gen(*src.sim, *src.pool, traffic);
    gen.start([&](Packet* p) { src.inject(p); });
    src.sim->run();
    src.snapshot();
    watchdog.evaluate();
  };
  // First wave before the server comes up: primes every metric series (so
  // the per-NF probes below can discover components) and seeds the tracer.
  wave(0);

  telemetry::TimeseriesCollector::Options ts_options;
  ts_options.period_ms = 500;
  telemetry::TimeseriesCollector collector(*src.metrics, ts_options);
  collector.publish_derived(src.metrics);
  collector.set_mutex(&mu);
  if (src.tracer != nullptr) {
    // One critical-path report per tick feeds both the merge-wait share
    // and the per-NF bottleneck shares (probes run in registration order,
    // so the cache-refreshing probe goes first).
    auto shares = std::make_shared<std::map<std::string, double>>();
    collector.add_probe(
        "merge_wait_share", {}, [tracer = src.tracer, shares] {
          const telemetry::CriticalPathReport rep =
              telemetry::CriticalPathProfiler(*tracer).report();
          shares->clear();
          for (const telemetry::NfShare& nf : rep.nfs) {
            (*shares)[nf.component] = rep.bottleneck_share(nf);
          }
          return rep.stage_fraction(telemetry::Stage::kMergeWait);
        });
    std::vector<std::string> components;
    for (const auto& [key, h] : src.metrics->histograms()) {
      if (key.name != "nf_service_ns") continue;
      for (const auto& [k, v] : key.labels) {
        if (k == "nf") components.push_back(v);
      }
    }
    std::sort(components.begin(), components.end());
    components.erase(std::unique(components.begin(), components.end()),
                     components.end());
    for (const std::string& component : components) {
      collector.add_probe("bottleneck_share", {{"nf", component}},
                          [shares, component] {
                            const auto it = shares->find(component);
                            return it == shares->end() ? 0.0 : it->second;
                          });
    }
  }

  telemetry::EndpointSources sources;
  sources.registry = src.metrics;
  sources.tracer = src.tracer;
  sources.recorder = src.recorder;
  sources.watchdog = &watchdog;
  sources.timeseries = &collector;
  sources.mu = &mu;
  const auto banner = [](unsigned bound) {
    std::printf(
        "serving on http://127.0.0.1:%u — /metrics /metrics.json "
        "/timeseries.json\n/profile.json /recorder.json /trace.json "
        "/healthz — Ctrl-C to stop\n",
        bound);
  };
  return serve_waves(sources, port, collector, nullptr, banner, wave, 1);
}

// The graph's NF names in segment order: the sequential chain that the
// ONV/RTC baselines and `nfp_cli latency` compare against.
std::vector<std::string> nf_chain(const ServiceGraph& graph) {
  std::vector<std::string> chain;
  for (const Segment& seg : graph.segments()) {
    for (const StageNf& nf : seg.nfs) chain.push_back(nf.name);
  }
  return chain;
}

// Pass-all firewall factory shared by every dataplane the CLI builds
// (synthetic ACL rules would drop traffic-dependent subsets and obscure
// the per-component view).
std::unique_ptr<NetworkFunction> pass_all_factory(const StageNf& nf) {
  if (nf.name == "firewall") {
    AclTable acl;
    acl.set_default_action(AclAction::kPass);
    return std::make_unique<Firewall>(std::move(acl));
  }
  return make_builtin_nf(nf.name, static_cast<u64>(nf.instance_id) + 1);
}

int run_dataplane(const ServiceGraph& graph, int argc, char** argv) {
  bool want_metrics = false;
  bool want_json = false;
  bool want_prometheus = false;
  u64 trace_every = 0;
  u64 packets = 2'000;
  u64 rate_pps = 10'000;
  u64 frame_size = 128;
  u64 serve_port = 0;
  for (int i = 3; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--metrics") == 0) {
      want_metrics = true;
    } else if (std::strcmp(arg, "--json") == 0) {
      want_json = true;
    } else if (std::strcmp(arg, "--prometheus") == 0) {
      want_prometheus = true;
    } else if (flag_value(arg, "--trace-every", &trace_every) ||
               flag_value(arg, "--packets", &packets) ||
               flag_value(arg, "--rate", &rate_pps) ||
               flag_value(arg, "--size", &frame_size) ||
               flag_value(arg, "--serve", &serve_port)) {
      // parsed into the matching variable
    } else {
      std::fprintf(stderr, "unknown run option '%s'\n", arg);
      return usage();
    }
  }
  // Serve mode wants live /profile.json and /trace.json; default the
  // tracer on (sampled) when the caller didn't choose a rate.
  if (serve_port != 0 && trace_every == 0) trace_every = 16;

  sim::Simulator sim;
  DataplaneConfig cfg;
  cfg.trace_every = trace_every;
  cfg.factory = pass_all_factory;
  NfpDataplane dp(sim, graph, std::move(cfg));

  if (serve_port != 0) {
    ServeSources sources;
    sources.sim = &sim;
    sources.metrics = &dp.metrics();
    sources.tracer = dp.tracer();
    sources.recorder = &dp.flight_recorder();
    sources.pool = &dp.pool();
    sources.inject = [&dp](Packet* p) { dp.inject(p); };
    sources.snapshot = [&dp] { dp.snapshot_metrics(); };
    return serve_loop(sources, serve_port, packets,
                      static_cast<double>(rate_pps),
                      static_cast<std::size_t>(frame_size));
  }

  TrafficConfig traffic;
  traffic.fixed_size = static_cast<std::size_t>(frame_size);
  traffic.rate_pps = static_cast<double>(rate_pps);
  traffic.packets = packets;
  traffic.metrics = &dp.metrics();
  TrafficGenerator gen(sim, dp.pool(), traffic);
  gen.start([&](Packet* p) { dp.inject(p); });
  sim.run();
  dp.snapshot_metrics();

  const DataplaneStats& stats = dp.stats();
  std::printf("ran %llu packets through '%s' (%s): delivered=%llu "
              "dropped_nf=%llu dropped_pool=%llu\n",
              static_cast<unsigned long long>(stats.injected),
              graph.name().c_str(), graph.structure().c_str(),
              static_cast<unsigned long long>(stats.delivered),
              static_cast<unsigned long long>(stats.dropped_by_nf),
              static_cast<unsigned long long>(stats.dropped_pool));
  if (want_metrics) {
    std::printf("\n%s", telemetry::component_report(dp.metrics()).c_str());
  }
  if (want_prometheus) {
    std::printf("\n%s", telemetry::to_prometheus(dp.metrics()).c_str());
  }
  if (want_json) {
    std::printf("%s\n", telemetry::to_json(dp.metrics()).c_str());
  }
  if (dp.tracer() != nullptr) {
    const auto pids = dp.tracer()->pids();
    if (pids.empty()) {
      std::printf("\ntracer retained no spans\n");
    } else {
      std::printf("\n%s", dp.tracer()->timeline(pids.front()).c_str());
      std::printf("(%llu spans recorded over %zu traced packets; "
                  "`--trace-every=%llu`)\n",
                  static_cast<unsigned long long>(dp.tracer()->recorded()),
                  pids.size(),
                  static_cast<unsigned long long>(dp.tracer()->every()));
    }
  }
  return 0;
}

// Parses `--name=value` into a string; returns true when argv matches.
bool flag_string(const char* arg, const char* name, std::string* out) {
  const std::size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  *out = arg + len + 1;
  return true;
}

// --- nfp_cli live: the sharded multi-core dataplane on real threads -----

// One wave of frames with the requested flow count / skew / size, built
// through the traffic generator so live and simulated runs share the same
// packet shapes.
std::vector<std::vector<u8>> make_live_frames(u64 packets, u64 flows,
                                              bool zipf, u64 frame_size) {
  sim::Simulator sim;
  PacketPool pool(4);
  TrafficConfig cfg;
  cfg.flows = static_cast<std::size_t>(flows);
  cfg.flow_skew = zipf ? FlowSkew::kZipf : FlowSkew::kUniform;
  TrafficGenerator gen(sim, pool, cfg);
  std::vector<std::vector<u8>> frames;
  frames.reserve(static_cast<std::size_t>(packets));
  for (u64 i = 0; i < packets; ++i) {
    Packet* p = gen.make_packet(pool, gen.next_flow(),
                                static_cast<std::size_t>(frame_size));
    frames.emplace_back(p->data(), p->data() + p->length());
    pool.release(p);
  }
  return frames;
}

void print_live_summary(ShardedDataplane& dp, const ShardedResult& res,
                        double seconds, u64 injected) {
  std::printf("live run: %llu frames, %zu shards (%zu online CPUs, "
              "pinned=%s): delivered=%zu dropped=%llu",
              static_cast<unsigned long long>(injected), dp.shard_count(),
              online_cpu_count(), dp.affinity_applied() ? "yes" : "no",
              res.outputs.size(),
              static_cast<unsigned long long>(res.dropped));
  if (seconds > 0) {
    std::printf(" %.0f pps", static_cast<double>(injected) / seconds);
  }
  std::printf("\n");
  const u64 hits = dp.microflow_hits();
  const u64 misses = dp.microflow_misses();
  if (hits + misses > 0) {
    std::printf("microflow cache: %.1f%% hit rate (%llu hits, %llu misses, "
                "%llu invalidations)\n",
                100.0 * static_cast<double>(hits) /
                    static_cast<double>(hits + misses),
                static_cast<unsigned long long>(hits),
                static_cast<unsigned long long>(misses),
                static_cast<unsigned long long>(dp.microflow_invalidations()));
  }
  std::printf("  %-8s %10s %10s %10s %8s\n", "shard", "rx", "delivered",
              "dropped", "mf hit");
  for (std::size_t s = 0; s < dp.shard_count(); ++s) {
    const u64 sh = dp.shard_hits(s);
    const u64 sm = dp.shard_misses(s);
    const double rate =
        (sh + sm) > 0
            ? static_cast<double>(sh) / static_cast<double>(sh + sm)
            : 0;
    const ShardCounts counts =
        s < res.per_shard.size() ? res.per_shard[s] : ShardCounts{};
    std::printf("  %-8zu %10llu %10llu %10llu %7.1f%%\n", s,
                static_cast<unsigned long long>(dp.shard_received(s)),
                static_cast<unsigned long long>(counts.delivered),
                static_cast<unsigned long long>(counts.dropped), 100.0 * rate);
  }
}

// Sums the per-reason drop taxonomy over every shard and prints the
// non-zero reasons — the line that shows a ddos scenario's attack share
// dying at classification time (classifier_miss) rather than in an NF.
void print_drop_reasons(ShardedDataplane& dp) {
  std::array<u64, telemetry::kDropReasonCount> totals{};
  for (std::size_t s = 0; s < dp.shard_count(); ++s) {
    const telemetry::ShardFlowSnapshot snap = dp.flow_snapshot(s);
    for (std::size_t r = 0; r < totals.size(); ++r) totals[r] += snap.drops[r];
  }
  std::printf("drop reasons:");
  bool any = false;
  for (std::size_t r = 0; r < totals.size(); ++r) {
    if (totals[r] == 0) continue;
    any = true;
    std::printf(" %s=%llu",
                telemetry::drop_reason_name(
                    static_cast<telemetry::DropReason>(r)),
                static_cast<unsigned long long>(totals[r]));
  }
  std::printf("%s\n", any ? "" : " none");
}

int live_dataplane(const ServiceGraph& graph, int argc, char** argv) {
  u64 shards = 0;
  u64 packets = 20'000;
  u64 flows = 64;
  u64 frame_size = 256;
  u64 serve_port = 0;
  u64 lat_every = 0;
  u64 synth_rules = 0;
  bool lat_every_set = false;
  std::string skew = "uniform";
  std::string scenario_name;
  for (int i = 3; i < argc; ++i) {
    const char* arg = argv[i];
    if (flag_value(arg, "--lat-every", &lat_every)) {
      lat_every_set = true;
    } else if (flag_value(arg, "--shards", &shards) ||
               flag_value(arg, "--packets", &packets) ||
               flag_value(arg, "--flows", &flows) ||
               flag_value(arg, "--size", &frame_size) ||
               flag_value(arg, "--serve", &serve_port) ||
               flag_value(arg, "--rules", &synth_rules) ||
               flag_string(arg, "--skew", &skew) ||
               flag_string(arg, "--scenario", &scenario_name)) {
      // parsed into the matching variable
    } else {
      std::fprintf(stderr, "unknown live option '%s'\n", arg);
      return usage();
    }
  }
  // Serve mode defaults the stage-latency sampler on: 1-in-8 flows keeps
  // the panel populated at the default 64-flow workload while the off-path
  // cost stays one branch per packet per hop.
  if (serve_port != 0 && !lat_every_set) lat_every = 8;
  if (skew != "uniform" && skew != "zipf") {
    std::fprintf(stderr, "unknown skew '%s' (uniform|zipf)\n", skew.c_str());
    return usage();
  }
  if (packets == 0) packets = 1;
  if (flows == 0) flows = 1;

  std::optional<Scenario> scenario;
  if (!scenario_name.empty()) {
    scenario = make_scenario(scenario_name, packets, 42);
    if (!scenario) {
      std::fprintf(stderr, "unknown scenario '%s' (", scenario_name.c_str());
      const auto names = scenario_names();
      for (std::size_t i = 0; i < names.size(); ++i) {
        std::fprintf(stderr, "%s%s", i == 0 ? "" : "|", names[i].c_str());
      }
      std::fprintf(stderr, ")\n");
      return usage();
    }
  }
  std::vector<std::vector<u8>> frames;
  if (scenario) {
    frames.reserve(scenario->frames.size());
    for (const auto& f : scenario->frames) frames.push_back(f.bytes);
  } else {
    frames = make_live_frames(packets, flows, skew == "zipf", frame_size);
  }

  ShardedDataplaneOptions opts;
  opts.shards = static_cast<std::size_t>(shards);
  opts.pipeline.latency_sample_every = static_cast<std::size_t>(lat_every);
  ShardedDataplane dp({graph}, pass_all_factory, opts);

  if (synth_rules > 0) {
    dp.add_rules(
        synthetic_ct_rules(static_cast<std::size_t>(synth_rules), 42,
                           dp.graph_count()));
    std::printf("preloaded %llu synthetic CT rules (%zu tuple-space masks)\n",
                static_cast<unsigned long long>(synth_rules),
                dp.classifier_tuple_count());
  }
  if (scenario && scenario->has_attack_subnet) {
    // The scrubbing rule the scenario metadata asks for: everything from
    // the attack subnet dies at classification time, before any NF runs.
    CtRule drop;
    drop.src_ip = scenario->attack_subnet;
    drop.src_mask = scenario->attack_mask;
    drop.priority = 1'000'000;  // outranks every synthetic filler rule
    drop.graph = LiveClassificationTable::kDropGraph;
    dp.add_rule(drop);
  }
  if (scenario) {
    std::printf("scenario '%s': %s (%llu frames, ~%zu flows)\n",
                scenario->name.c_str(), scenario->summary.c_str(),
                static_cast<unsigned long long>(scenario->frames.size()),
                scenario->flows);
  }

  if (serve_port == 0) {
    const auto t0 = std::chrono::steady_clock::now();
    ShardedResult res;
    if (scenario) {
      // Paced replay: honor the preset's inter-frame gaps (sleeping only
      // for the macroscopic off-periods; sub-millisecond gaps are noise
      // next to scheduler latency).
      if (const Status st = dp.start(); !st.is_ok()) {
        std::fprintf(stderr, "error: %s\n", st.message().c_str());
        return 1;
      }
      for (const auto& f : scenario->frames) {
        if (f.gap_ns >= 1'000'000) {
          std::this_thread::sleep_for(std::chrono::nanoseconds(f.gap_ns));
        }
        dp.feed({f.bytes.data(), f.bytes.size()});
      }
      res = dp.drain();
    } else {
      res = dp.run(frames);
    }
    const auto t1 = std::chrono::steady_clock::now();
    if (!res.status.is_ok()) {
      std::fprintf(stderr, "error: %s\n", res.status.message().c_str());
      return 1;
    }
    print_live_summary(dp, res,
                       std::chrono::duration<double>(t1 - t0).count(),
                       frames.size());
    if (scenario || synth_rules > 0) print_drop_reasons(dp);
    return 0;
  }

  // --serve: stream waves of the same flow set forever with the
  // observability plane live. All registry series are created here, before
  // any server or sampler thread can scan the maps; afterwards only the
  // atomic cells are touched.
  telemetry::MetricsRegistry registry;
  telemetry::FlightRecorder recorder;
  telemetry::Watchdog watchdog(recorder);
  watchdog.set_registry(&registry);
  telemetry::HealthSampler sampler(registry);
  sampler.set_watchdog(&watchdog);
  dp.register_health(sampler, &watchdog);

  telemetry::Counter& injected =
      registry.counter("packets_injected_total", {{"plane", "sharded"}});
  telemetry::Counter& dropped_total =
      registry.counter("packets_dropped_total", {{"plane", "sharded"}});
  std::vector<telemetry::Counter*> delivered_counters;
  for (std::size_t s = 0; s < dp.shard_count(); ++s) {
    delivered_counters.push_back(&registry.counter(
        "packets_delivered_total",
        {{"plane", "sharded"}, {"shard", std::to_string(s)}}));
  }

  std::mutex mu;
  telemetry::TimeseriesCollector::Options ts_options;
  ts_options.period_ms = 500;
  telemetry::TimeseriesCollector collector(registry, ts_options);
  collector.publish_derived(&registry);
  collector.set_mutex(&mu);
  collector.add_probe("microflow_hit_rate", {}, [&dp] {
    const u64 hits = dp.microflow_hits();
    const u64 misses = dp.microflow_misses();
    return (hits + misses) > 0 ? static_cast<double>(hits) /
                                     static_cast<double>(hits + misses)
                               : 0.0;
  });

  // Constructed before start() so perf_event's inherit flag covers the
  // dataplane threads about to spawn.
  telemetry::Observatory observatory;
  dp.register_observatory(observatory);
  observatory.register_probes(collector);

  if (const Status st = dp.start(); !st.is_ok()) {
    std::fprintf(stderr, "error: %s\n", st.message().c_str());
    return 1;
  }
  observatory.reset_baseline();

  telemetry::EndpointSources sources;
  sources.registry = &registry;
  sources.recorder = &recorder;
  sources.watchdog = &watchdog;
  sources.timeseries = &collector;
  sources.observatory = &observatory;
  sources.mu = &mu;
  const auto banner = [&dp](unsigned bound) {
    std::printf("live dataplane: %zu shards (%zu online CPUs) "
                "serving on http://127.0.0.1:%u — /metrics "
                "/timeseries.json /observatory.json /scalability.json "
                "/latency.json /flows.json /healthz — `nfp_cli top "
                "--port=%u` for the dashboard, Ctrl-C to stop\n",
                dp.shard_count(), online_cpu_count(), bound, bound);
  };
  std::vector<u64> last_delivered(dp.shard_count(), 0);
  u64 last_dropped = 0;
  const auto wave = [&](u64) {
    for (const auto& frame : frames) {
      if (g_stop != 0) break;
      dp.feed({frame.data(), frame.size()});
      injected.inc();
    }
    for (std::size_t s = 0; s < dp.shard_count(); ++s) {
      const u64 now = dp.shard_delivered(s);
      // Guard the delta against a source reading below the last one (a
      // restarted/reset source): the raw u64 subtraction would wrap and
      // inc() the counter by ~2^64, which reads as a counter that jumped
      // *backwards* and poisons every later :rate sample.
      delivered_counters[s]->inc(now >= last_delivered[s]
                                     ? now - last_delivered[s]
                                     : now);
      last_delivered[s] = now;
    }
    u64 dropped_now = 0;
    for (std::size_t s = 0; s < dp.shard_count(); ++s) {
      dropped_now += dp.shard_dropped(s);
    }
    dropped_total.inc(dropped_now >= last_dropped ? dropped_now - last_dropped
                                                  : dropped_now);
    last_dropped = dropped_now;
  };
  if (const int rc = serve_waves(sources, serve_port, collector, &sampler,
                                 banner, wave, 0);
      rc != 0) {
    return rc;
  }
  const ShardedResult res = dp.drain();
  print_live_summary(dp, res, 0, injected.value.load());
  return res.status.is_ok() ? 0 : 1;
}

int profile_dataplane(const ServiceGraph& graph, int argc, char** argv) {
  std::string plane = "nfp";
  bool want_json = false;
  u64 trace_every = 1;
  u64 packets = 2'000;
  u64 rate_pps = 10'000;
  u64 frame_size = 128;
  u64 watch_ms = 0;
  u64 serve_port = 0;
  for (int i = 3; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--json") == 0) {
      want_json = true;
    } else if (std::strcmp(arg, "--watch") == 0) {
      watch_ms = 10;
    } else if (flag_string(arg, "--plane", &plane) ||
               flag_value(arg, "--trace-every", &trace_every) ||
               flag_value(arg, "--packets", &packets) ||
               flag_value(arg, "--rate", &rate_pps) ||
               flag_value(arg, "--size", &frame_size) ||
               flag_value(arg, "--watch", &watch_ms) ||
               flag_value(arg, "--serve", &serve_port)) {
      // parsed into the matching variable
    } else {
      std::fprintf(stderr, "unknown profile option '%s'\n", arg);
      return usage();
    }
  }
  if (trace_every == 0) trace_every = 1;
  if (plane != "nfp" && plane != "onv" && plane != "rtc") {
    std::fprintf(stderr, "unknown plane '%s' (nfp|onv|rtc)\n", plane.c_str());
    return usage();
  }

  sim::Simulator sim;
  DataplaneConfig cfg;
  cfg.trace_every = trace_every;
  // Retain every span of every sampled packet: attribution needs complete
  // per-packet span sets, so size the ring past eviction.
  cfg.trace_capacity =
      static_cast<std::size_t>(packets / trace_every + 1) * 64;
  cfg.factory = pass_all_factory;

  // ONV/RTC run the graph's NFs as one sequential chain.
  const std::vector<std::string> chain = nf_chain(graph);

  std::unique_ptr<NfpDataplane> nfp_dp;
  std::unique_ptr<baseline::OnvDataplane> onv_dp;
  std::unique_ptr<baseline::RtcDataplane> rtc_dp;
  telemetry::Tracer* tracer = nullptr;
  telemetry::MetricsRegistry* metrics = nullptr;
  std::function<void(Packet*)> inject;
  PacketPool* pool = nullptr;
  if (plane == "nfp") {
    nfp_dp = std::make_unique<NfpDataplane>(sim, graph, std::move(cfg));
    tracer = nfp_dp->tracer();
    metrics = &nfp_dp->metrics();
    pool = &nfp_dp->pool();
    inject = [&dp = *nfp_dp](Packet* p) { dp.inject(p); };
  } else if (plane == "onv") {
    onv_dp = std::make_unique<baseline::OnvDataplane>(sim, chain,
                                                      std::move(cfg));
    tracer = onv_dp->tracer();
    metrics = &onv_dp->metrics();
    pool = &onv_dp->pool();
    inject = [&dp = *onv_dp](Packet* p) { dp.inject(p); };
  } else {
    rtc_dp = std::make_unique<baseline::RtcDataplane>(
        sim, chain, chain.size() + 2, std::move(cfg));
    tracer = rtc_dp->tracer();
    metrics = &rtc_dp->metrics();
    pool = &rtc_dp->pool();
    inject = [&dp = *rtc_dp](Packet* p) { dp.inject(p); };
  }

  if (serve_port != 0) {
    // Baselines have no flight recorder of their own; give the watchdog a
    // local ring so /recorder.json and post-mortems still work.
    telemetry::FlightRecorder local_recorder;
    ServeSources sources;
    sources.sim = &sim;
    sources.metrics = metrics;
    sources.tracer = tracer;
    sources.recorder =
        nfp_dp ? &nfp_dp->flight_recorder() : &local_recorder;
    sources.pool = pool;
    sources.inject = inject;
    sources.snapshot = [&] {
      if (nfp_dp) nfp_dp->snapshot_metrics();
      if (onv_dp) onv_dp->snapshot_metrics();
      if (rtc_dp) rtc_dp->snapshot_metrics();
    };
    return serve_loop(sources, serve_port, packets,
                      static_cast<double>(rate_pps),
                      static_cast<std::size_t>(frame_size));
  }

  TrafficConfig traffic;
  traffic.fixed_size = static_cast<std::size_t>(frame_size);
  traffic.rate_pps = static_cast<double>(rate_pps);
  traffic.packets = packets;
  traffic.metrics = metrics;
  TrafficGenerator gen(sim, *pool, traffic);
  gen.start([&](Packet* p) { inject(p); });

  // --watch: interim bottleneck lines on the simulated clock.
  std::function<void()> watch_tick;
  const SimTime watch_ns = static_cast<SimTime>(watch_ms) * 1'000'000;
  if (watch_ns > 0) {
    watch_tick = [&] {
      const telemetry::CriticalPathReport rep =
          telemetry::CriticalPathProfiler(*tracer).report();
      std::printf("[watch t=%.1fms] attributed=%llu merge-wait=%.1f%%",
                  static_cast<double>(sim.now()) / 1e6,
                  static_cast<unsigned long long>(rep.attributed),
                  100.0 * rep.stage_fraction(telemetry::Stage::kMergeWait));
      if (!rep.nfs.empty()) {
        std::printf(" top=%s (%.1f%% of critical paths)",
                    rep.nfs.front().component.c_str(),
                    100.0 * rep.bottleneck_share(rep.nfs.front()));
      }
      std::printf("\n");
      // Reschedule only while the run still has pending work, so the
      // simulator can drain and exit.
      if (sim.pending() > 0) sim.schedule_after(watch_ns, watch_tick);
    };
    sim.schedule_after(watch_ns, watch_tick);
  }

  sim.run();
  if (nfp_dp) nfp_dp->snapshot_metrics();
  if (onv_dp) onv_dp->snapshot_metrics();
  if (rtc_dp) rtc_dp->snapshot_metrics();

  const telemetry::CriticalPathReport report =
      telemetry::CriticalPathProfiler(*tracer).report();
  if (want_json) {
    std::printf("%s\n", report.to_json().c_str());
  } else {
    std::printf("plane=%s policy='%s' (%s)\n%s", plane.c_str(),
                graph.name().c_str(), graph.structure().c_str(),
                report.to_text().c_str());
  }

  // Anything in the flight recorder means the run hit an anomaly; surface
  // the post-mortem rather than letting it end silently "successful".
  if (nfp_dp && nfp_dp->flight_recorder().recorded() > 0) {
    std::printf("\n%s", nfp_dp->post_mortem("anomalies during profile run")
                            .c_str());
  }
  return 0;
}

// --- nfp_cli top: live dashboard over /timeseries.json + /healthz -------

// One scalability-view shard row: where its accounted time went.
struct TopShardAttribution {
  std::string name;
  std::array<double, telemetry::kCycleBucketCount> share{};  // bucket order
  double pps = 0;
  double projected_pps = 0;
};

// One latency-view stage row (folded across shards).
struct TopLatencyStage {
  std::string name;
  double p50_us = 0;
  double p99_us = 0;
  double p999_us = 0;
  double max_us = 0;
  u64 count = 0;
};

// One flow-view heavy-hitter row (cross-shard merged).
struct TopFlowRow {
  std::string flow;  // rendered 5-tuple
  double packets = 0;
  double bytes = 0;
  double share = 0;  // fraction of counted packets
};

struct TopView {
  double pps_in = 0;
  double pps_out = 0;
  double drops_per_s = 0;
  // Published only by a simulated plane (its critical path); the live
  // plane's merge is fused and never waits.
  std::optional<double> merge_wait_share;
  u64 ticks = 0;
  std::map<std::string, double> util;       // component -> core_util
  std::map<std::string, double> p99_ns;     // nf -> nf_service_ns:p99
  std::map<std::string, double> p999_ns;    // nf -> nf_service_ns:p999
  std::map<std::string, double> bn_share;   // nf -> bottleneck share
  std::vector<double> out_history;          // delivered pps points
  // Filled from /observatory.json when the server exposes it (the sharded
  // live dataplane); empty otherwise — the panels are simply omitted.
  std::vector<TopShardAttribution> shard_attrib;
  std::string top_contention;
  std::vector<TopLatencyStage> latency_stages;
  u64 latency_sampled = 0;
  u64 latency_sample_every = 0;
  double latency_ingest_depth = 0;
  std::vector<TopFlowRow> top_flows;
  double flows_active = 0;
  double flow_packets = 0;
  std::map<std::string, double> flow_drops;  // reason -> total
};

std::string series_label(const json::Value& series, const char* key) {
  const json::Value* labels = series.find("labels");
  if (labels == nullptr) return {};
  return std::string(labels->string_or(key, ""));
}

TopView parse_top_view(const json::Value& doc) {
  TopView view;
  view.ticks = static_cast<u64>(doc.number_or("ticks", 0));
  const json::Value* series = doc.find("series");
  if (series == nullptr || !series->is_array()) return view;
  for (const json::Value& s : series->items()) {
    const std::string name(s.string_or("name", ""));
    const double last = s.number_or("last", 0);
    if (name == "packets_injected_total:rate") {
      view.pps_in += last;
    } else if (name == "packets_delivered_total:rate") {
      view.pps_out += last;
      const json::Value* points = s.find("points");
      if (points != nullptr && points->is_array()) {
        for (const json::Value& p : points->items()) {
          if (p.is_array() && p.size() == 2) {
            view.out_history.push_back(p.items()[1].as_number());
          }
        }
      }
    } else if (name == "packets_dropped_total:rate") {
      view.drops_per_s += last;
    } else if (name == "merge_wait_share") {
      view.merge_wait_share = last;
    } else if (name == "core_util") {
      view.util[series_label(s, "component")] = last;
    } else if (name == "nf_service_ns:p99") {
      view.p99_ns[series_label(s, "nf")] = last;
    } else if (name == "nf_service_ns:p999") {
      view.p999_ns[series_label(s, "nf")] = last;
    } else if (name == "bottleneck_share") {
      view.bn_share[series_label(s, "nf")] = last;
    }
  }
  return view;
}

// Folds /observatory.json's scalability section into the view.
void parse_scalability_view(const json::Value& doc, TopView* view) {
  view->top_contention =
      std::string(doc.string_or("top_contention_source", ""));
  const json::Value* shards = doc.find("shards");
  if (shards == nullptr || !shards->is_array()) return;
  for (const json::Value& s : shards->items()) {
    TopShardAttribution row;
    row.name = std::string(s.string_or("name", "?"));
    row.pps = s.number_or("pps", 0);
    row.projected_pps = s.number_or("projected_pps", 0);
    if (const json::Value* shares = s.find("shares"); shares != nullptr) {
      for (std::size_t b = 0; b < row.share.size(); ++b) {
        const auto bucket = static_cast<telemetry::CycleBucket>(b);
        row.share[b] =
            shares->number_or(telemetry::cycle_bucket_name(bucket), 0);
      }
    }
    view->shard_attrib.push_back(std::move(row));
  }
}

// Folds /observatory.json's latency section into the view.
void parse_latency_view(const json::Value& doc, TopView* view) {
  view->latency_sampled = static_cast<u64>(doc.number_or("sampled", 0));
  view->latency_sample_every =
      static_cast<u64>(doc.number_or("sample_every", 0));
  const json::Value* total = doc.find("total");
  if (total == nullptr) return;
  view->latency_ingest_depth = total->number_or("ingest_queue_depth", 0);
  const json::Value* stages = total->find("stages");
  if (stages == nullptr) return;
  for (std::size_t i = 0; i < telemetry::kLatencyStageCount; ++i) {
    const char* name =
        telemetry::latency_stage_name(static_cast<telemetry::LatencyStage>(i));
    const json::Value* s = stages->find(name);
    if (s == nullptr) continue;
    TopLatencyStage row;
    row.name = name;
    row.count = static_cast<u64>(s->number_or("count", 0));
    row.p50_us = s->number_or("p50_us", 0);
    row.p99_us = s->number_or("p99_us", 0);
    row.p999_us = s->number_or("p999_us", 0);
    row.max_us = s->number_or("max_us", 0);
    view->latency_stages.push_back(std::move(row));
  }
}

// Folds /observatory.json's flows section into the view.
void parse_flows_view(const json::Value& doc, TopView* view) {
  view->flows_active = doc.number_or("flows_active", 0);
  view->flow_packets = doc.number_or("packets", 0);
  const json::Value* top = doc.find("top");
  if (top != nullptr && top->is_array()) {
    for (const json::Value& f : top->items()) {
      TopFlowRow row;
      row.flow = std::string(f.string_or("flow", "?"));
      row.packets = f.number_or("packets", 0);
      row.bytes = f.number_or("bytes", 0);
      row.share = f.number_or("share", 0);
      view->top_flows.push_back(std::move(row));
    }
  }
  if (const json::Value* drops = doc.find("drops"); drops != nullptr) {
    for (std::size_t r = 0; r < telemetry::kDropReasonCount; ++r) {
      const char* reason =
          telemetry::drop_reason_name(static_cast<telemetry::DropReason>(r));
      const double n = drops->number_or(reason, 0);
      if (n > 0) view->flow_drops[reason] = n;
    }
  }
}

std::string util_bar(double fraction, int width = 20) {
  if (fraction < 0) fraction = 0;
  if (fraction > 1) fraction = 1;
  const int filled = static_cast<int>(fraction * width + 0.5);
  std::string bar = "[";
  for (int i = 0; i < width; ++i) bar += i < filled ? '#' : '-';
  return bar + "]";
}

std::string sparkline(const std::vector<double>& points, std::size_t width) {
  static const char kLevels[] = " .:-=+*#%@";
  if (points.empty()) return {};
  const std::size_t start =
      points.size() > width ? points.size() - width : 0;
  double hi = 0;
  for (std::size_t i = start; i < points.size(); ++i) {
    hi = std::max(hi, points[i]);
  }
  std::string out;
  for (std::size_t i = start; i < points.size(); ++i) {
    const double frac = hi > 0 ? points[i] / hi : 0;
    const int level = static_cast<int>(frac * 9 + 0.5);
    out += kLevels[level < 0 ? 0 : level > 9 ? 9 : level];
  }
  return out;
}

void render_top(const TopView& view, const std::string& health_body,
                int health_status, u64 port, bool clear_screen) {
  if (clear_screen) std::printf("\x1b[H\x1b[2J");
  std::printf("nfp top — 127.0.0.1:%llu   tick %llu   ",
              static_cast<unsigned long long>(port),
              static_cast<unsigned long long>(view.ticks));
  if (health_status == 200) {
    std::printf("healthy\n");
  } else {
    std::printf("UNHEALTHY (HTTP %d)\n", health_status);
    const auto health = json::Value::parse(health_body);
    if (health) {
      const json::Value* firing = health.value().find("firing");
      if (firing != nullptr && firing->is_array()) {
        for (const json::Value& f : firing->items()) {
          if (f.is_string()) std::printf("  !! %s\n", f.as_string().c_str());
        }
      }
    }
  }
  std::printf("  in %9.1f pps   out %9.1f pps   drops %7.1f/s",
              view.pps_in, view.pps_out, view.drops_per_s);
  if (view.merge_wait_share) {
    std::printf("   merge-wait %4.1f%%", 100.0 * *view.merge_wait_share);
  }
  std::printf("\n");
  if (!view.out_history.empty()) {
    std::printf("  out pps %s\n", sparkline(view.out_history, 48).c_str());
  }

  // Bottleneck NF: the largest critical-path share.
  std::string bottleneck;
  double bottleneck_share = 0;
  for (const auto& [nf, share] : view.bn_share) {
    if (share > bottleneck_share) {
      bottleneck_share = share;
      bottleneck = nf;
    }
  }
  if (!bottleneck.empty()) {
    std::printf("  bottleneck %s (%.1f%% of critical paths)\n",
                bottleneck.c_str(), 100.0 * bottleneck_share);
  }

  std::printf("\n  %-22s %-22s %6s %12s %12s %10s\n", "component",
              "utilization", "", "p99 service", "p99.9 svc", "bn share");
  for (const auto& [component, util] : view.util) {
    std::printf("  %-22s %s %5.1f%%", component.c_str(),
                util_bar(util).c_str(), 100.0 * util);
    const auto p99 = view.p99_ns.find(component);
    if (p99 != view.p99_ns.end()) {
      std::printf(" %9.1f us", p99->second / 1e3);
    } else {
      std::printf(" %12s", "—");
    }
    const auto p999 = view.p999_ns.find(component);
    if (p999 != view.p999_ns.end()) {
      std::printf(" %9.1f us", p999->second / 1e3);
    } else {
      std::printf(" %12s", "—");
    }
    const auto share = view.bn_share.find(component);
    if (share != view.bn_share.end()) {
      std::printf(" %8.1f%%", 100.0 * share->second);
    }
    std::printf("\n");
  }

  // Stage-resolved tail latency (only when the observatory is served with
  // sampling enabled and at least one sampled packet has completed).
  if (!view.latency_stages.empty() && view.latency_sampled > 0) {
    std::printf("\n  latency (sampled 1/%llu flows, %llu samples)   "
                "ingest depth %.0f\n",
                static_cast<unsigned long long>(
                    view.latency_sample_every ? view.latency_sample_every : 1),
                static_cast<unsigned long long>(view.latency_sampled),
                view.latency_ingest_depth);
    std::printf("  %-12s %9s %9s %9s %9s\n", "stage", "p50us", "p99us",
                "p99.9us", "maxus");
    for (const TopLatencyStage& row : view.latency_stages) {
      if (row.count == 0) continue;
      std::printf("  %-12s %9.1f %9.1f %9.1f %9.1f\n", row.name.c_str(),
                  row.p50_us, row.p99_us, row.p999_us, row.max_us);
    }
  }

  // Heavy hitters + drop taxonomy (only when the observatory is served).
  if (!view.top_flows.empty()) {
    std::printf("\n  top flows (%.0f active)\n", view.flows_active);
    std::printf("  %-4s %-34s %10s %12s %7s\n", "#", "flow", "packets",
                "bytes", "share");
    std::size_t rank = 1;
    for (const TopFlowRow& row : view.top_flows) {
      if (rank > 5) break;  // the dashboard shows the head; flows.json has K
      std::printf("  %-4zu %-34s %10.0f %12.0f %6.1f%%\n", rank,
                  row.flow.c_str(), row.packets, row.bytes,
                  100.0 * row.share);
      ++rank;
    }
  }
  if (!view.flow_drops.empty()) {
    std::printf("  drops by reason:");
    for (const auto& [reason, n] : view.flow_drops) {
      std::printf(" %s=%.0f", reason.c_str(), n);
    }
    std::printf("\n");
  }

  // Per-shard cycle attribution (only when the observatory is served).
  if (!view.shard_attrib.empty()) {
    std::printf("\n  %-10s %10s %10s %7s %7s %7s %7s %7s\n", "shard", "pps",
                "proj pps", "useful", "starve", "ring", "pool", "miss");
    for (const TopShardAttribution& row : view.shard_attrib) {
      std::printf("  %-10s %10.0f %10.0f", row.name.c_str(), row.pps,
                  row.projected_pps);
      for (const double share : row.share) {
        std::printf(" %6.1f%%", 100.0 * share);
      }
      std::printf("\n");
    }
    if (!view.top_contention.empty()) {
      std::printf("  top contention source: %s\n",
                  view.top_contention.c_str());
    }
  }
  std::fflush(stdout);
}

int top_command(int argc, char** argv) {
  u64 port = 9100;
  u64 interval_ms = 1000;
  u64 iterations = 0;  // 0 = until Ctrl-C
  for (int i = 2; i < argc; ++i) {
    const char* arg = argv[i];
    if (flag_value(arg, "--port", &port) ||
        flag_value(arg, "--interval", &interval_ms) ||
        flag_value(arg, "--iterations", &iterations)) {
      // parsed into the matching variable
    } else {
      std::fprintf(stderr, "unknown top option '%s'\n", arg);
      return usage();
    }
  }

  install_stop_handler();
  const bool clear_screen = iterations != 1;
  for (u64 i = 0; (iterations == 0 || i < iterations) && g_stop == 0; ++i) {
    auto ts = telemetry::http_get(static_cast<std::uint16_t>(port),
                                  "/timeseries.json");
    if (!ts) {
      std::fprintf(stderr,
                   "error: %s\n(is `nfp_cli run <policy> --serve=%llu` "
                   "running?)\n",
                   ts.error().c_str(), static_cast<unsigned long long>(port));
      return 1;
    }
    auto health =
        telemetry::http_get(static_cast<std::uint16_t>(port), "/healthz");
    const auto doc = json::Value::parse(ts.value().body);
    if (!doc) {
      std::fprintf(stderr, "error: bad /timeseries.json: %s\n",
                   doc.error().c_str());
      return 1;
    }
    TopView view = parse_top_view(doc.value());
    // Optional: the observatory's three views, from one report so the
    // panels agree. Servers without a sharded dataplane 404.
    if (auto obs = telemetry::http_get(static_cast<std::uint16_t>(port),
                                       "/observatory.json");
        obs && obs.value().status == 200) {
      if (const auto odoc = json::Value::parse(obs.value().body); odoc) {
        for (const auto& [section, parse] :
             {std::pair{"scalability", &parse_scalability_view},
              std::pair{"latency", &parse_latency_view},
              std::pair{"flows", &parse_flows_view}}) {
          if (const json::Value* v = odoc.value().find(section)) {
            parse(*v, &view);
          }
        }
      }
    }
    render_top(view, health ? health.value().body : std::string(),
               health ? health.value().status : 0, port, clear_screen);
    if (iterations != 0 && i + 1 == iterations) break;
    interruptible_sleep_ms(interval_ms);
  }
  return 0;
}

Result<ServiceGraph> load_and_compile(const std::string& path,
                                      CompileReport* report) {
  std::ifstream in(path);
  if (!in) {
    return Result<ServiceGraph>::error("cannot read '" + path + "'");
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  const auto policy = parse_policy(buffer.str());
  if (!policy) return Result<ServiceGraph>::error(policy.error());
  const ActionTable table = ActionTable::with_builtin_nfs();
  return compile_policy(policy.value(), table, {}, report);
}

std::vector<std::size_t> parse_shard_list(const std::string& text) {
  std::vector<std::size_t> out;
  std::stringstream ss(text);
  std::string item;
  while (std::getline(ss, item, ',')) {
    const u64 v = std::strtoull(item.c_str(), nullptr, 10);
    if (v > 0) out.push_back(static_cast<std::size_t>(v));
  }
  return out;
}

// --- nfp_cli scalability | latency | flows: one observed live run -------

// The flags scalability, latency and flows share. Each command sets its
// own defaults before parsing.
struct LiveRunArgs {
  // Without a policy file: 4 parallel monitors with per-branch copies and
  // a 4-arrival merge — the shape whose 2-shard scaling loss motivated the
  // scalability view (BENCH_shard_scaling.json par4).
  ServiceGraph graph = ServiceGraph::parallel(
      "par4", {"monitor", "monitor", "monitor", "monitor"}, {1, 2, 3, 4});
  u64 packets = 20'000;
  u64 flows = 64;
  u64 frame_size = 256;
  std::string skew = "uniform";
  bool json = false;
};

// Parses `nfp_cli <command> [policy-file] [flags]`: the optional policy
// file, --packets, --flows, --size, --skew and --json, and every flag
// `extra` accepts. Returns 0 to go on, otherwise the exit code.
int parse_live_run_args(int argc, char** argv, const char* command,
                        LiveRunArgs* args,
                        const std::function<bool(const char*)>& extra) {
  int first_flag = 2;
  if (argc > 2 && argv[2][0] != '-') {
    CompileReport report;
    auto compiled = load_and_compile(argv[2], &report);
    if (!compiled) {
      std::fprintf(stderr, "error: %s\n", compiled.error().c_str());
      return 1;
    }
    args->graph = compiled.value();
    first_flag = 3;
  }
  for (int i = first_flag; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--json") == 0) {
      args->json = true;
    } else if (!flag_value(arg, "--packets", &args->packets) &&
               !flag_value(arg, "--flows", &args->flows) &&
               !flag_value(arg, "--size", &args->frame_size) &&
               !flag_string(arg, "--skew", &args->skew) && !extra(arg)) {
      std::fprintf(stderr, "unknown %s option '%s'\n", command, arg);
      return usage();
    }
  }
  if (args->skew != "uniform" && args->skew != "zipf") {
    std::fprintf(stderr, "unknown skew '%s' (uniform|zipf)\n",
                 args->skew.c_str());
    return usage();
  }
  if (args->packets == 0) args->packets = 1;
  if (args->flows == 0) args->flows = 1;
  return 0;
}

// One observed live run of `graph`: build the plane, register the
// observatory, start, reset its baseline, feed every frame, wait until
// each is delivered or dropped, report, drain. The report comes before
// drain() joins the workers, so its wall window matches the one the
// threads accounted. With `rate_pps` > 0 the feed is open loop: frame i
// is due i / rate_pps seconds after the first, and the director spins
// until then (a late frame goes at once), so latency reads the graph
// rather than a queue behind the RX ring. 0 feeds back to back. Prints
// the error and returns nullopt on failure.
std::optional<telemetry::ObservatoryReport> run_observed(
    const ServiceGraph& graph, const ShardedDataplaneOptions& opts,
    const std::vector<std::vector<u8>>& frames, std::size_t top_k = 10,
    double rate_pps = 0) {
  ShardedDataplane dp({graph}, pass_all_factory, opts);
  // Registered before start() so perf_event inheritance covers the
  // dataplane threads; baseline after start() to exclude spawn cost.
  telemetry::Observatory observatory(
      {.enable_hw = true, .clock = {}, .top_k = top_k});
  dp.register_observatory(observatory);
  if (const Status st = dp.start(); !st.is_ok()) {
    std::fprintf(stderr, "error: %s\n", st.message().c_str());
    return std::nullopt;
  }
  observatory.reset_baseline();
  const u64 start_ns = telemetry::mono_now_ns();
  for (std::size_t i = 0; i < frames.size(); ++i) {
    if (rate_pps > 0) {
      const auto due = start_ns + static_cast<u64>(static_cast<double>(i) *
                                                   1e9 / rate_pps);
      while (telemetry::mono_now_ns() < due) {
      }
    }
    dp.feed({frames[i].data(), frames[i].size()});
  }
  for (;;) {
    u64 done = 0;
    for (std::size_t s = 0; s < dp.shard_count(); ++s) {
      done += dp.shard_delivered(s) + dp.shard_dropped(s);
    }
    if (done >= frames.size()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  telemetry::ObservatoryReport report = observatory.report();
  const ShardedResult res = dp.drain();
  if (!res.status.is_ok()) {
    std::fprintf(stderr, "error: %s\n", res.status.message().c_str());
    return std::nullopt;
  }
  return report;
}

// `nfp_cli scalability`: sweep shard counts and attribute every lost
// packet-per-second to a cycle bucket.
int scalability_command(int argc, char** argv) {
  LiveRunArgs args;
  std::vector<std::size_t> shard_counts = {1, 2, 4};
  std::string shard_list;
  if (const int rc = parse_live_run_args(
          argc, argv, "scalability", &args,
          [&](const char* arg) {
            if (!flag_string(arg, "--shards", &shard_list)) return false;
            shard_counts = parse_shard_list(shard_list);
            return true;
          });
      rc != 0) {
    return rc;
  }
  if (shard_counts.empty()) {
    std::fprintf(stderr, "bad --shards list '%s'\n", shard_list.c_str());
    return usage();
  }
  const auto frames = make_live_frames(args.packets, args.flows,
                                       args.skew == "zipf", args.frame_size);
  const ServiceGraph& graph = args.graph;
  if (!args.json) {
    std::printf("scalability sweep: policy='%s' (%s), %llu packets, "
                "%llu flows, %s skew, %zu online CPUs\n",
                graph.name().c_str(), graph.structure().c_str(),
                static_cast<unsigned long long>(args.packets),
                static_cast<unsigned long long>(args.flows),
                args.skew.c_str(), online_cpu_count());
  }

  double base_pps = 0;
  for (const std::size_t shards : shard_counts) {
    ShardedDataplaneOptions opts;
    opts.shards = shards;
    const auto run = run_observed(graph, opts, frames);
    if (!run) return 1;
    const telemetry::ScalabilityReport& report = run->scalability;

    if (shards == shard_counts.front()) base_pps = report.total_pps;
    const double scaling =
        base_pps > 0 ? report.total_pps / base_pps : 0;
    if (args.json) {
      std::printf("{\"command\":\"scalability\",\"policy\":\"%s\","
                  "\"shards\":%zu,\"packets\":%llu,"
                  "\"flows\":%llu,\"skew\":\"%s\",\"online_cpus\":%zu,"
                  "\"scaling_vs_first\":%.3f,\"report\":%s}\n",
                  graph.name().c_str(), shards,
                  static_cast<unsigned long long>(args.packets),
                  static_cast<unsigned long long>(args.flows),
                  args.skew.c_str(), online_cpu_count(), scaling,
                  report.to_json().c_str());
    } else {
      std::printf("\n=== shards=%zu  (%.0f pps aggregate, %.2fx vs "
                  "shards=%zu) ===\n%s",
                  shards, report.total_pps, scaling,
                  shard_counts.front(), report.to_text().c_str());
    }
    std::fflush(stdout);
  }
  return 0;
}

// `nfp_cli flows`: a zipf elephant/mice workload and the flow view —
// merged top-K heavy hitters, churn, drops by reason, per-graph
// accounting. --pool=N switches the director to NIC-like tail drops with
// an N-deep RX ring, so the drop table fills under overload.
int flows_command(int argc, char** argv) {
  LiveRunArgs args;
  args.packets = 50'000;
  args.flows = 256;
  args.skew = "zipf";
  u64 shards = 2;
  u64 top_k = 10;
  u64 pool = 0;
  if (const int rc = parse_live_run_args(
          argc, argv, "flows", &args,
          [&](const char* arg) {
            return flag_value(arg, "--shards", &shards) ||
                   flag_value(arg, "--top", &top_k) ||
                   flag_value(arg, "--pool", &pool);
          });
      rc != 0) {
    return rc;
  }
  if (top_k == 0) top_k = 1;
  const auto frames = make_live_frames(args.packets, args.flows,
                                       args.skew == "zipf", args.frame_size);

  ShardedDataplaneOptions opts;
  opts.shards = static_cast<std::size_t>(shards);
  if (pool != 0) {
    // Overload demo: a tiny RX path with tail drops instead of blocking.
    // The constructor raises the pool to cover the ring, burst, magazines
    // and graph, so the ring is the binding constraint and the drop table
    // fills with ring_full.
    opts.ingest_pool_size = static_cast<std::size_t>(pool);
    opts.ingest_ring_depth = static_cast<std::size_t>(pool);
    opts.drop_on_ingest_backpressure = true;
  }
  const auto run = run_observed(args.graph, opts, frames,
                                static_cast<std::size_t>(top_k));
  if (!run) return 1;
  const telemetry::FlowReport& report = run->flows;

  if (args.json) {
    std::printf("%s\n", report.to_json().c_str());
    return 0;
  }
  std::printf("flows: policy='%s' (%s), %llu packets, %llu flows, %s skew, "
              "%zu shards%s\n",
              args.graph.name().c_str(), args.graph.structure().c_str(),
              static_cast<unsigned long long>(args.packets),
              static_cast<unsigned long long>(args.flows), args.skew.c_str(),
              report.shards.size(), pool != 0 ? " (tail-drop ingest)" : "");
  std::printf("%s", report.to_text().c_str());
  return 0;
}

// --- nfp_cli latency: the parallel graph against its chain, live --------
//
// The paper's experiment, on a plane that runs each packet to completion
// on one core: a parallel segment's branches run one after another, so
// the difference to the chain is the graph's fan-out and merge cost.
// Frames go open loop at kLatencyRatePps, like perfbench's ns-paced
// workload, so the planes run unsaturated and a sample's total is its
// own trip, not its wait behind the frames fed before it.
constexpr double kLatencyRatePps = 100'000;

// The graph's NFs flattened into one sequential chain — the ONV/RTC view
// of the same policy — so the comparison isolates graph shape.
ServiceGraph flatten_sequential(const ServiceGraph& graph) {
  return ServiceGraph::sequential(graph.name() + "-chain", nf_chain(graph));
}

int latency_command(int argc, char** argv) {
  LiveRunArgs args;  // default graph: par4, vs. its 4-hop chain
  u64 shards = 2;
  u64 sample_every = 8;
  if (const int rc = parse_live_run_args(
          argc, argv, "latency", &args,
          [&](const char* arg) {
            return flag_value(arg, "--shards", &shards) ||
                   flag_value(arg, "--sample-every", &sample_every);
          });
      rc != 0) {
    return rc;
  }
  if (shards == 0) shards = 1;
  if (sample_every == 0) sample_every = 1;
  const ServiceGraph& graph = args.graph;
  if (graph.is_sequential()) {
    std::fprintf(stderr,
                 "warning: policy '%s' has no parallel stage; both runs "
                 "are sequential chains\n",
                 graph.name().c_str());
  }

  const auto frames = make_live_frames(args.packets, args.flows,
                                       args.skew == "zipf", args.frame_size);
  const ServiceGraph chain = flatten_sequential(graph);

  if (!args.json) {
    std::printf("latency experiment: '%s' (%s) vs sequential chain (%s), "
                "%llu packets/plane at %.0f pps, %llu flows, %s skew, "
                "%zu shards, sampling 1/%llu flows\n",
                graph.name().c_str(), graph.structure().c_str(),
                chain.structure().c_str(),
                static_cast<unsigned long long>(args.packets),
                kLatencyRatePps,
                static_cast<unsigned long long>(args.flows),
                args.skew.c_str(), static_cast<std::size_t>(shards),
                static_cast<unsigned long long>(sample_every));
  }

  ShardedDataplaneOptions opts;
  opts.shards = static_cast<std::size_t>(shards);
  opts.pipeline.latency_sample_every = static_cast<std::size_t>(sample_every);
  const auto seq_run = run_observed(chain, opts, frames, 10, kLatencyRatePps);
  if (!seq_run) return 1;
  const auto par_run = run_observed(graph, opts, frames, 10, kLatencyRatePps);
  if (!par_run) return 1;
  const telemetry::LatencyReport& seq_rep = seq_run->latency;
  const telemetry::LatencyReport& par_rep = par_run->latency;

  using telemetry::LatencyStage;
  const telemetry::HdrSnapshot& st = seq_rep.stage(LatencyStage::kTotal);
  const telemetry::HdrSnapshot& pt = par_rep.stage(LatencyStage::kTotal);
  const auto reduction = [](double seq, double par) {
    return seq > 0 ? 100.0 * (seq - par) / seq : 0.0;
  };
  const double red_p50 = reduction(static_cast<double>(st.quantile(0.50)),
                                   static_cast<double>(pt.quantile(0.50)));
  const double red_p99 = reduction(static_cast<double>(st.quantile(0.99)),
                                   static_cast<double>(pt.quantile(0.99)));
  const double red_p999 = reduction(static_cast<double>(st.quantile(0.999)),
                                    static_cast<double>(pt.quantile(0.999)));
  const double red_mean = reduction(st.mean(), pt.mean());

  if (args.json) {
    std::printf("{\"command\":\"latency\",\"policy\":\"%s\","
                "\"structure\":\"%s\",\"chain_structure\":\"%s\","
                "\"shards\":%zu,\"packets\":%llu,\"flows\":%llu,"
                "\"skew\":\"%s\",\"rate_pps\":%.0f,\"sample_every\":%llu,"
                "\"sequential\":%s,\"parallel\":%s,"
                "\"reduction_pct\":{\"p50\":%.1f,\"p99\":%.1f,"
                "\"p999\":%.1f,\"mean\":%.1f}}\n",
                graph.name().c_str(), graph.structure().c_str(),
                chain.structure().c_str(),
                static_cast<std::size_t>(shards),
                static_cast<unsigned long long>(args.packets),
                static_cast<unsigned long long>(args.flows), args.skew.c_str(),
                kLatencyRatePps, static_cast<unsigned long long>(sample_every),
                seq_rep.to_json().c_str(), par_rep.to_json().c_str(),
                red_p50, red_p99, red_p999, red_mean);
    return 0;
  }

  std::printf("\n=== sequential chain (%s) — %llu sampled ===\n%s",
              chain.structure().c_str(),
              static_cast<unsigned long long>(seq_rep.sampled()),
              seq_rep.to_text().c_str());
  std::printf("\n=== NFP parallel (%s) — %llu sampled ===\n%s",
              graph.structure().c_str(),
              static_cast<unsigned long long>(par_rep.sampled()),
              par_rep.to_text().c_str());
  std::printf("\nlatency reduction (NFP vs sequential, positive = faster): "
              "p50 %.1f%%  p99 %.1f%%  p99.9 %.1f%%  mean %.1f%%\n",
              red_p50, red_p99, red_p999, red_mean);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];

  if (command == "top") {
    return top_command(argc, argv);
  }

  if (command == "scalability") {
    return scalability_command(argc, argv);
  }

  if (command == "latency") {
    return latency_command(argc, argv);
  }

  if (command == "flows") {
    return flows_command(argc, argv);
  }

  if (command == "stats") {
    const ActionTable table = ActionTable::with_builtin_nfs();
    const PairStats stats = compute_pair_stats(table);
    std::printf("%s", pair_stats_table(stats).c_str());
    return 0;
  }

  if (argc < 3) return usage();
  CompileReport report;
  auto graph = load_and_compile(argv[2], &report);
  if (!graph) {
    std::fprintf(stderr, "error: %s\n", graph.error().c_str());
    return 1;
  }
  for (const auto& warning : report.warnings) {
    std::fprintf(stderr, "warning: %s\n", warning.c_str());
  }

  if (command == "compile") {
    std::printf("%s", graph.value().to_string().c_str());
    for (const auto& d : report.decisions) {
      std::printf("  %s | %s -> %s\n", d.nf1.c_str(), d.nf2.c_str(),
                  std::string(pair_parallelism_name(d.verdict)).c_str());
    }
    return 0;
  }
  if (command == "tables") {
    std::printf("%s", tables_to_string(generate_tables(graph.value())).c_str());
    return 0;
  }
  if (command == "dot") {
    std::printf("%s", graph.value().to_dot().c_str());
    return 0;
  }
  if (command == "run") {
    return run_dataplane(graph.value(), argc, argv);
  }
  if (command == "live") {
    return live_dataplane(graph.value(), argc, argv);
  }
  if (command == "profile") {
    return profile_dataplane(graph.value(), argc, argv);
  }
  if (command == "plan") {
    cluster::PartitionOptions options;
    if (argc > 3) {
      options.cores_per_server =
          static_cast<std::size_t>(std::stoul(argv[3]));
    }
    const auto plan = cluster::partition_graph(graph.value(), options);
    if (!plan) {
      std::fprintf(stderr, "error: %s\n", plan.error().c_str());
      return 1;
    }
    std::printf("%s", cluster::plan_to_string(graph.value(), plan.value()).c_str());
    return 0;
  }
  return usage();
}
