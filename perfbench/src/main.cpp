// Live-plane benchmark: runs one named workload and prints its metrics.
//
//   perfbench --workload <ns-small|edge-dc|ct-churn|ns-paced> --seed <n>
//             --seconds <s> --trace <0|1> [--trace-out <file>]
//
// Feeds seeded, pre-generated frames from one bench thread into
// ShardedDataplane (director -> live classifier -> rtc executor -> NFs ->
// drain), exec_mode = rtc, at most 3 shards, so director + shards + the
// ct-churn control thread fit in 4 cores. Pipelined mode is left out: even
// a 1-NF pipelined graph needs director + worker + NF + merger threads per
// shard, which on a 4-core host measures the scheduler.
//
// An episode is one plane's life: set-up (policy parse, compile_policy,
// construction, CT rule preload, start()), feeding the workload's frames,
// drain(). A run is a warm-up episode, then timed episodes until --seconds
// have passed: closed-loop workloads interleave closed-loop episodes
// (throughput) and paced ones (latency), half the time each; ns-paced is
// paced throughout. Every episode's output is checked against a 1-shard
// reference run of the same frames, made after the timed window. The last
// stdout line is the result JSON; the line before it is the host
// fingerprint; stderr gets one line per episode. Exit code 1 when a check
// fails, 2 on bad arguments.
//
// --trace 1 rotates three episode kinds (untraced, traced, all telemetry
// off) in the workload's own loop and traces every latency episode, then
// runs the isolated per-layer replays (layers.hpp) and prints the
// per-layer metrics, derived from the recorded spans and counters.
#include <malloc.h>
#include <pthread.h>
#include <sched.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "actions/action_table.hpp"
#include "common/cpu_affinity.hpp"
#include "dataplane/sharded_dataplane.hpp"
#include "harness.hpp"
#include "layers.hpp"
#include "orch/compiler.hpp"
#include "policy/parser.hpp"
#include "telemetry/scalability_profiler.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace tel = nfp::telemetry;

constexpr std::size_t kFeedBurst = 1024;    // frames per director.feed span
constexpr std::size_t kLatencySampleEvery = 16;
constexpr std::size_t kMinEpisodes = 3;

struct Args {
  std::string workload;
  u64 seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") {
      a.workload = val;
      have_workload = true;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val, nullptr, 10);
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val, nullptr);
    } else if (key == "--trace") {
      a.trace = std::strcmp(val, "1") == 0;
    } else if (key == "--trace-out") {
      a.trace_out = val;
    } else {
      return std::nullopt;
    }
  }
  if (!have_workload || a.seconds <= 0 || argc % 2 == 0) return std::nullopt;
  return a;
}

// CPU placement. Shard workers pin themselves to allowed CPUs 0..S-1; the
// director (bench thread) and the control thread take the CPUs after them.
// The bench thread gets its full mask back before each set-up, because
// threads spawned by start() inherit it.
class Placement {
 public:
  Placement() {
    CPU_ZERO(&original_);
    if (sched_getaffinity(0, sizeof(original_), &original_) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &original_)) cpus_.push_back(c);
      }
    }
  }
  void restore() const {
    if (!cpus_.empty()) {
      pthread_setaffinity_np(pthread_self(), sizeof(original_), &original_);
    }
  }
  bool pin(std::size_t slot) const {
    if (cpus_.empty()) return false;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[slot % cpus_.size()], &one);
    return pthread_setaffinity_np(pthread_self(), sizeof(one), &one) == 0;
  }

 private:
  cpu_set_t original_;
  std::vector<int> cpus_;
};

// Episode kinds of a traced run; an untraced run has only kUntraced.
enum Kind : int { kWarmUp = -1, kUntraced = 0, kTraced = 1, kTelemetryOff = 2 };

struct EpisodeConfig {
  std::size_t shards = 1;
  const Frames* input = nullptr;
  std::size_t frames = 0;  // the first `frames` of *input
  Kind kind = kUntraced;
  bool churn = false;  // control thread issues add_rule mid-run
  bool paced = false;
  Tracer* tracer = nullptr;
};

struct Episode {
  std::string error;  // empty when the plane ran
  Kind kind = kUntraced;
  bool paced = false;
  double setup_s = 0;
  double run_s = 0;   // first feed() -> drain() returns
  double rss_mb = 0;  // right after drain(), when both output copies live
  u64 offered = 0;
  u64 delivered = 0;
  u64 dropped = 0;
  std::array<u64, tel::kDropReasonCount> reasons{};
  MultisetDigest digest;
  tel::ShardLatencySnapshot latency;
  std::vector<double> late_ns;
  tel::ScalabilityReport scal;
  u64 mf_hits = 0;
  u64 mf_misses = 0;
  u64 mf_invalidations = 0;
  std::vector<u64> received;
  u64 busy_ns = 0;
  bool affinity = false;
  double retained_mb = 0;
  std::vector<nfp::ServiceGraph> graphs;
};

u64 loss_of(const Episode& e) {
  using R = tel::DropReason;
  u64 loss = 0;
  for (const R r : {R::kRingFull, R::kPoolExhausted, R::kMergeOverflow,
                    R::kShutdownDrain}) {
    loss += e.reasons[static_cast<std::size_t>(r)];
  }
  return loss;
}

std::optional<std::vector<nfp::ServiceGraph>> compile_all(const Workload& w,
                                                          Tracer& tr,
                                                          int parent) {
  Scope s(tr, "orch.compile", w.policies.size(), parent);
  const nfp::ActionTable table = nfp::ActionTable::with_builtin_nfs();
  std::vector<nfp::ServiceGraph> graphs;
  for (const std::string& text : w.policies) {
    const auto policy = nfp::parse_policy(text);
    if (!policy.is_ok()) return std::nullopt;
    auto graph = nfp::compile_policy(policy.value(), table);
    if (!graph.is_ok()) return std::nullopt;
    graphs.push_back(std::move(graph.value()));
  }
  return graphs;
}

// Points `cfg` at the closed or the paced loop's input.
void set_input(EpisodeConfig& cfg, const Workload& w, bool paced) {
  cfg.input = &w.input(paced);
  cfg.frames = paced ? w.paced_frames : w.frames.size();
}

Episode run_episode(const Workload& w, const EpisodeConfig& cfg,
                    const Placement& pl) {
  static Tracer untraced(false);
  Tracer& tr = cfg.kind == kTraced ? *cfg.tracer : untraced;
  Episode ep;
  ep.kind = cfg.kind;
  ep.paced = cfg.paced;
  malloc_trim(0);  // return the last episode's frames, so RSS restarts low
  pl.restore();

  const u64 t_setup = now_ns();
  const int setup_span = tr.open("setup");
  auto graphs = compile_all(w, tr, setup_span);
  if (!graphs) {
    ep.error = "policy failed to compile";
    return ep;
  }
  nfp::ShardedDataplaneOptions opts;
  opts.shards = cfg.shards;
  opts.pipeline.exec_mode = nfp::ExecMode::kRtc;
  // Paced episodes time every packet, so a latency quantile covers every
  // flow, whichever the seed made hot; closed-loop episodes sample 1 in 16
  // flows, the cost the telemetry overhead share charges.
  const bool telemetry = cfg.kind != kTelemetryOff;
  opts.pipeline.cycle_accounting = telemetry;
  opts.flow_accounting = telemetry;
  opts.pipeline.latency_sample_every =
      !telemetry ? 0 : cfg.paced ? 1 : kLatencySampleEvery;
  auto dp = std::make_unique<nfp::ShardedDataplane>(*graphs, make_factory(w),
                                                    opts);
  {
    Scope s(tr, "classifier.build", 1, setup_span);
    dp->add_rules(w.ct_rules);
  }
  tel::ScalabilityProfiler profiler(tel::ScalabilityProfilerOptions{false, {}});
  dp->register_scalability(profiler);
  if (const nfp::Status st = dp->start(); !st.is_ok()) {
    ep.error = st.message();
    return ep;
  }
  tr.close(setup_span);
  ep.setup_s = static_cast<double>(now_ns() - t_setup) / 1e9;
  profiler.reset_baseline();

  // Control thread (ct-churn): add_rule at evenly spaced frame positions.
  std::atomic<u64> fed{0};
  std::atomic<bool> done{false};
  std::thread control;
  const std::size_t n = cfg.frames;
  if (cfg.churn && w.churn_points > 0) {
    control = std::thread([&] {
      pl.pin(cfg.shards + 1);
      for (std::size_t k = 0; k < w.churn_points; ++k) {
        const u64 at = n * (k + 1) / (w.churn_points + 1);
        // Sleep, not spin: the control core stays free for the host's
        // other tasks, which would otherwise land on a plane core.
        while (fed.load(std::memory_order_acquire) < at &&
               !done.load(std::memory_order_acquire)) {
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
        if (done.load(std::memory_order_acquire)) break;
        const u64 t0 = now_ns();
        dp->add_rule(w.churn_rules[k % w.churn_rules.size()]);
        tr.record("classifier.add_rule", t0, now_ns(), 1, -1, 1);
      }
    });
  }
  pl.pin(cfg.shards);

  const u64 t0 = now_ns();
  if (cfg.paced) {
    // Traced: one span whose length is the summed feed() time, since a
    // burst span would mostly hold the pacing wait.
    const PacedSchedule sched{t0, w.rate_pps};
    ep.late_ns.reserve(n);
    u64 feed_ns = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const u64 due = sched.due_ns(i);
      u64 t = now_ns();
      while (t < due) t = now_ns();
      dp->feed(cfg.input->frame(i));
      if (tr.enabled()) feed_ns += now_ns() - t;
      fed.store(i + 1, std::memory_order_release);
      ep.late_ns.push_back(
          static_cast<double>(PacedSchedule::lateness_ns(due, t)));
    }
    tr.record("director.feed_paced", t0, t0 + feed_ns, n);
  } else {
    for (std::size_t i = 0; i < n; i += kFeedBurst) {
      const std::size_t m = std::min(kFeedBurst, n - i);
      Scope s(tr, "director.feed", m);
      for (std::size_t j = i; j < i + m; ++j) dp->feed(cfg.input->frame(j));
      fed.store(i + m, std::memory_order_release);
    }
  }
  const u64 t_drain = now_ns();
  nfp::ShardedResult res = dp->drain();
  const u64 t1 = now_ns();
  tr.record("egress.drain", t_drain, t1, n);
  ep.rss_mb = rss_mb();
  done.store(true, std::memory_order_release);
  if (control.joinable()) control.join();
  ep.run_s = static_cast<double>(t1 - t0) / 1e9;
  if (!res.status.is_ok()) {
    ep.error = res.status.message();
    return ep;
  }

  ep.offered = n;
  ep.delivered = res.outputs.size();
  ep.dropped = res.dropped;
  double retained = 0;
  for (const auto& f : res.outputs) {
    retained += static_cast<double>(f.size());
    ep.digest.add(f);
  }
  ep.retained_mb = 2 * retained / (1024.0 * 1024.0);  // outputs + per_shard
  for (std::size_t s = 0; s < dp->shard_count(); ++s) {
    const tel::ShardFlowSnapshot flows = dp->flow_snapshot(s);
    for (std::size_t r = 0; r < tel::kDropReasonCount; ++r) {
      ep.reasons[r] += flows.drops[r];
    }
    ep.latency += dp->latency_snapshot(s);
    ep.received.push_back(dp->shard_received(s));
    ep.busy_ns += dp->shard_busy_ns(s);
  }
  ep.scal = profiler.report();
  ep.mf_hits = dp->microflow_hits();
  ep.mf_misses = dp->microflow_misses();
  ep.mf_invalidations = dp->microflow_invalidations();
  ep.affinity = dp->affinity_applied();
  ep.graphs = std::move(*graphs);
  return ep;
}

// Checks one episode against the accounting invariants and the reference
// run of the same frames; returns an empty string when it passes.
std::string check(const Episode& e, const std::map<bool, Episode>& refs) {
  if (!e.error.empty()) return e.error;
  const auto it = refs.find(e.paced);
  if (it == refs.end() || !it->second.error.empty()) {
    return "no reference run for this episode";
  }
  const Episode& ref = it->second;
  if (e.delivered + e.dropped != e.offered) {
    return "delivered + dropped != offered";
  }
  u64 by_reason = 0;
  for (const u64 r : e.reasons) by_reason += r;
  if (by_reason != e.dropped) return "sum(drops_by_reason) != dropped";
  if (loss_of(e) != 0) return "frames lost to a non-policy drop";
  if (!(e.digest == ref.digest)) {
    return "output differs from the 1-shard reference";
  }
  return "";
}

template <typename F>
double median_of(const std::vector<const Episode*>& eps, F f) {
  std::vector<double> v;
  for (const Episode* e : eps) v.push_back(f(*e));
  return median(std::move(v));
}

double tput_mpps(const Episode& e) {
  return static_cast<double>(e.offered) / e.run_s / 1e6;
}

double total_quantile_us(const Episode& e, double q) {
  return hdr_quantile_us(e.latency.stage(tel::LatencyStage::kTotal), q);
}

// Episodes matching `keep`, in run order.
template <typename F>
std::vector<const Episode*> select(const std::vector<Episode>& eps, F keep) {
  std::vector<const Episode*> out;
  for (const Episode& e : eps) {
    if (keep(e)) out.push_back(&e);
  }
  return out;
}

// Throughput and memory come from the workload's own loop (closed, or
// paced for ns-paced), whose episodes all send the same frames; latency
// always from paced episodes, where the plane is not saturated; set-up
// from every episode.
std::map<std::string, double> end_to_end(const Workload& w,
                                         const std::vector<Episode>& eps,
                                         double baseline_mb) {
  const auto all = select(eps, [](const Episode&) { return true; });
  const auto main = select(eps, [&](const Episode& e) {
    return e.paced == w.paced;
  });
  const auto paced = select(eps, [](const Episode& e) { return e.paced; });
  return {
      {"throughput_mpps", median_of(main, tput_mpps)},
      {"latency_p50_us",
       median_of(paced,
                 [](const Episode& e) { return total_quantile_us(e, 0.50); })},
      {"mem_peak_mb",
       median_of(main, [&](const Episode& e) { return e.rss_mb - baseline_mb; })},
      {"setup_s", median_of(all, [](const Episode& e) { return e.setup_s; })},
  };
}

// Per-layer metrics of a traced run: counters and shares from the traced
// episodes of the workload's own loop, stage latencies and generator
// lateness from traced paced episodes, overhead shares from the three
// episode kinds, then the isolated replays.
std::map<std::string, double> per_layer(const Workload& w,
                                        const std::vector<Episode>& eps,
                                        Tracer& tr, const Placement& pl) {
  const auto of_kind = [&](Kind k) {
    return select(eps, [&](const Episode& e) {
      return e.paced == w.paced && e.kind == k;
    });
  };
  const auto untraced = of_kind(kUntraced);
  const auto traced = of_kind(kTraced);
  const auto off = of_kind(kTelemetryOff);
  std::map<std::string, double> m;

  const auto metric = [&](const char* name, auto f) {
    m[name] = median_of(traced, f);
  };
  const auto share = [](tel::CycleBucket b) {
    return [b](const Episode& e) {
      return e.scal.total_share[static_cast<std::size_t>(b)];
    };
  };
  metric("ring.full_events", [](const Episode& e) {
    return static_cast<double>(e.scal.total.ring_full_events);
  });
  metric("shard.useful_share", share(tel::CycleBucket::kUseful));
  metric("shard.starved_share", share(tel::CycleBucket::kStarved));
  metric("shard.ring_wait_share", share(tel::CycleBucket::kRingWait));
  metric("shard.pool_wait_share", share(tel::CycleBucket::kPoolWait));
  metric("shard.classifier_miss_share",
         share(tel::CycleBucket::kClassifierMiss));
  metric("shard.imbalance", [](const Episode& e) {
    double sum = 0;
    double max = 0;
    for (const u64 r : e.received) {
      sum += static_cast<double>(r);
      max = std::max(max, static_cast<double>(r));
    }
    return sum > 0 ? max * static_cast<double>(e.received.size()) / sum : 0;
  });
  metric("classifier.mf_hit_rate", [](const Episode& e) {
    const double all = static_cast<double>(e.mf_hits + e.mf_misses);
    return all > 0 ? static_cast<double>(e.mf_hits) / all : 0.0;
  });
  metric("egress.retained_mb", [](const Episode& e) { return e.retained_mb; });
  metric("ledger.shard_ns_per_pkt", [](const Episode& e) {
    u64 received = 0;
    for (const u64 r : e.received) received += r;
    return received > 0 ? static_cast<double>(e.busy_ns) /
                              static_cast<double>(received)
                        : 0.0;
  });
  const Episode& last = *traced.back();
  m["drops.nf_verdict"] = static_cast<double>(
      last.reasons[static_cast<std::size_t>(tel::DropReason::kNfVerdict)]);
  m["drops.classifier_miss"] = static_cast<double>(
      last.reasons[static_cast<std::size_t>(tel::DropReason::kClassifierMiss)]);
  double lost = 0;
  double offered = 0;
  for (const Episode& e : eps) {
    lost += static_cast<double>(loss_of(e));
    offered += static_cast<double>(e.offered);
  }
  m["loss_ratio"] = offered > 0 ? lost / offered : 0;
  const double tput_untraced = median_of(untraced, tput_mpps);
  m["trace.overhead_share"] = 1 - median_of(traced, tput_mpps) / tput_untraced;
  m["telemetry.overhead_share"] = 1 - tput_untraced / median_of(off, tput_mpps);

  const auto traced_paced = select(eps, [](const Episode& e) {
    return e.paced && e.kind == kTraced;
  });
  m["classifier.mf_invalidations"] =
      median_of(traced_paced, [](const Episode& e) {
        return static_cast<double>(e.mf_invalidations);
      });
  tel::ShardLatencySnapshot lat;
  std::vector<double> late;
  for (const Episode* e : traced_paced) {
    lat += e->latency;
    late.insert(late.end(), e->late_ns.begin(), e->late_ns.end());
  }
  const auto stage_us = [&](tel::LatencyStage s, double q) {
    return hdr_quantile_us(lat.stage(s), q);
  };
  m["latency.ingest_p50_us"] = stage_us(tel::LatencyStage::kIngest, 0.5);
  m["latency.queue_p50_us"] = stage_us(tel::LatencyStage::kQueue, 0.5);
  m["latency.service_p50_us"] = stage_us(tel::LatencyStage::kService, 0.5);
  m["latency.p90_us"] = stage_us(tel::LatencyStage::kTotal, 0.90);
  m["latency.p99_us"] = stage_us(tel::LatencyStage::kTotal, 0.99);
  m["latency.p999_us"] = stage_us(tel::LatencyStage::kTotal, 0.999);
  m["gen.late_p99_us"] = quantile(std::move(late), 0.99) / 1e3;

  // Spans of the traced live episodes.
  m["director.feed_ns"] =
      tr.ns_per_op(w.paced ? "director.feed_paced" : "director.feed");
  m["egress.drain_ms"] = median(tr.durations_ns("egress.drain")) / 1e6;
  m["orch.compile_ms"] = median(tr.durations_ns("orch.compile")) / 1e6;
  m["classifier.build_ms"] = median(tr.durations_ns("classifier.build")) / 1e6;

  // Isolated replays on the bench thread, alone on the host.
  pl.restore();
  replay_layers(w, last.graphs, w.churn_points == 0, tr);
  m["classifier.add_rule_ms"] =
      median(tr.durations_ns("classifier.add_rule")) / 1e6;
  for (const auto& [name, span] :
       std::initializer_list<std::pair<const char*, const char*>>{
           {"parse.ns", "parse"},
           {"packet.alloc_copy_ns", "packet.alloc_copy"},
           {"ring.hop_ns", "ring.hop"},
           {"classifier.hit_ns", "classifier.hit"},
           {"classifier.miss_ns", "classifier.miss"},
           {"merge.ns", "merge"},
           {"packet.header_copy_ns", "packet.header_copy"},
           {"packet.full_copy_ns", "packet.full_copy"},
           {"executor.ns_per_pkt", "executor"}}) {
    m[name] = tr.ns_per_op(span);
  }
  for (const std::string& type : reported_nf_types()) {
    m["nfs." + type + ".ns_per_pkt"] = tr.ns_per_op("nfs." + type);
  }
  m["classifier.tuples"] = tr.counter("classifier.tuples");

  // Ledger: a shard's measured busy ns per frame against the isolated
  // layers a frame crosses on the shard (ring hop, classification at the
  // measured hit rate, rtc executor).
  const double hit = m["classifier.mf_hit_rate"];
  const double isolated = m["ring.hop_ns"] + hit * m["classifier.hit_ns"] +
                          (1 - hit) * m["classifier.miss_ns"] +
                          m["executor.ns_per_pkt"];
  const double shard_ns = m["ledger.shard_ns_per_pkt"];
  m["ledger.residual_share"] = shard_ns > 0 ? 1 - isolated / shard_ns : 0;
  return m;
}

int run(const Args& args) {
  const auto workload = make_workload(args.workload, args.seed);
  if (!workload) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const Workload& w = *workload;
  const std::size_t online_cpus = nfp::online_cpu_count();
  const Placement pl;
  Tracer tracer(args.trace);
  malloc_trim(0);
  const double baseline_mb = rss_mb();

  EpisodeConfig cfg;
  cfg.shards = w.shards;
  cfg.paced = w.paced;
  set_input(cfg, w, w.paced);
  cfg.tracer = &tracer;
  // Warm-up: the first plane in a process runs measurably slower.
  cfg.kind = kWarmUp;
  std::vector<Episode> eps;
  eps.push_back(run_episode(w, cfg, pl));

  // Closed-loop workloads interleave closed and paced (latency) episodes,
  // the next one from whichever loop has had less time, so each gets half
  // the run and both sample the host's speed swings over all of it;
  // ns-paced runs paced episodes only. Traced runs rotate the episode kinds
  // in the workload's own loop and trace every latency episode.
  const u64 start = now_ns();
  const u64 budget = static_cast<u64>(args.seconds * 1e9);
  std::array<u64, 2> spent{};  // ns per loop, [closed, paced]
  std::array<std::size_t, 2> count{};
  bool ok = eps.back().error.empty();
  while (ok) {
    bool paced = w.paced || spent[1] < spent[0];
    if (now_ns() - start >= budget) {
      if (!w.paced && count[0] < kMinEpisodes) {
        paced = false;
      } else if (count[1] < kMinEpisodes) {
        paced = true;
      } else {
        break;
      }
    }
    cfg.paced = paced;
    cfg.churn = paced;
    set_input(cfg, w, paced);
    const std::size_t k = count[paced]++;
    cfg.kind = !args.trace        ? kUntraced
               : paced == w.paced ? static_cast<Kind>(k % 3)
                                  : kTraced;
    const u64 t0 = now_ns();
    eps.push_back(run_episode(w, cfg, pl));
    spent[paced] += now_ns() - t0;
    const Episode& e = eps.back();
    ok = e.error.empty();
    std::fprintf(stderr,
                 "episode %zu: %s kind %d  setup %.4f s  %.4f Mpps  "
                 "p50 %.2f us  p90 %.2f us  rss %.1f MB\n",
                 eps.size() - 1, paced ? "paced" : "closed", e.kind, e.setup_s,
                 ok ? tput_mpps(e) : 0.0, total_quantile_us(e, 0.5),
                 total_quantile_us(e, 0.9), e.rss_mb - baseline_mb);
  }

  // One 1-shard reference per loop that ran, unpaced.
  std::map<bool, Episode> refs;
  for (const bool paced : {false, true}) {
    if (count[paced] == 0) continue;
    EpisodeConfig ref_cfg;
    set_input(ref_cfg, w, paced);
    refs[paced] = run_episode(w, ref_cfg, pl);
  }

  std::string failure;
  u64 attempted = 0;
  u64 failed = 0;
  bool affinity = true;
  for (const Episode& e : eps) {
    const std::string why = check(e, refs);
    if (!why.empty() && failure.empty()) failure = why;
    if (e.kind == kWarmUp) continue;
    attempted += e.offered;
    failed += loss_of(e);
    affinity = affinity && e.affinity;
  }
  // Timed episodes only; the warm-up and reference are not results.
  eps.erase(eps.begin());

  // Print exactly the catalog's metrics for this run.
  std::map<std::string, double> metrics;
  if (failure.empty()) {
    const auto computed = args.trace ? per_layer(w, eps, tracer, pl)
                                     : end_to_end(w, eps, baseline_mb);
    for (const MetricDef& d : metrics_for(w.name, args.trace)) {
      const auto it = computed.find(d.name);
      if (it == computed.end()) {
        failure = "metric " + d.name + " was not computed";
        break;
      }
      metrics[d.name] = it->second;
    }
    if (!failure.empty()) metrics.clear();
  }
  if (args.trace && !args.trace_out.empty() &&
      !tracer.write_chrome_json(args.trace_out)) {
    std::fprintf(stderr, "cannot write trace to %s\n", args.trace_out.c_str());
  }
  if (!failure.empty()) {
    std::fprintf(stderr, "check failed: %s\n", failure.c_str());
  }
  std::printf("{\"host\": %s, \"workload\": \"%s\", \"episodes\": %zu}\n",
              host_fingerprint_json(online_cpus, affinity).c_str(),
              w.name.c_str(), eps.size());
  std::printf("%s\n",
              result_line(failure.empty(), attempted, failed, metrics).c_str());
  return failure.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const auto args = perfbench::parse_args(argc, argv);
  if (!args) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--trace-out <file>]\n");
    return 2;
  }
  return perfbench::run(*args);
}
