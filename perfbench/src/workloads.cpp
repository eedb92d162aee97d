#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/rng.hpp"
#include "nfs/firewall.hpp"
#include "packet/builder.hpp"
#include "sim/simulator.hpp"
#include "trafficgen/trafficgen.hpp"

namespace perfbench {

namespace {

// TrafficGenerator::flow_tuple wraps src_port past this index; staying
// below it keeps every flow's source port distinct.
constexpr std::size_t kMaxFlowId = 55'535;
// Firewall deny rules: a fixed small share of flows, capped so the ACL
// stays near the paper's 100 rules.
constexpr std::size_t kMaxDenyFlows = 20;
constexpr std::size_t kAclFillerRules = 80;
// Seeds ct-churn's site (flows, CT rules, ACL), the same for every --seed.
constexpr u64 kSiteSeed = 0x5173;
// edge-dc's latency frames: the data-center mix's mean size.
constexpr std::size_t kDcMeanFrame = 724;

// The paper's north-south policy without its position(vpn, first) rule:
// compiles to [firewall || monitor] -> lb.
constexpr const char* kNorthSouthPolicy =
    "policy ns_small\n"
    "order(firewall, before, lb)\n"
    "order(monitor, before, lb)\n";

// examples/policies/enterprise_edge.nfp without its position(vpn, first)
// rule: 7 NFs. vpn's AES time per frame swung 1.9x with the host's load
// (ids/ips DPI 1.2x), which spread edge-dc's throughput and latency by
// 33-41 % IQR/median over 10 runs.
constexpr const char* kEnterpriseEdgePolicy =
    "policy enterprise_edge\n"
    "chain(ids, monitor, firewall, gateway, lb)\n"
    "priority(ips > firewall)\n"
    "nf(caching)\n";

constexpr const char* kMonitorPolicy = "policy ct_monitor\nnf(monitor)\n";
constexpr const char* kMonitorLbPolicy =
    "policy ct_monitor_lb\norder(monitor, before, lb)\n";

// `count` distinct flow ids from [0, kMaxFlowId), in seeded order.
std::vector<std::size_t> pick_flow_ids(std::size_t count, nfp::Rng& rng) {
  std::vector<std::size_t> ids(kMaxFlowId);
  std::iota(ids.begin(), ids.end(), std::size_t{0});
  for (std::size_t i = 0; i < count; ++i) {
    std::swap(ids[i], ids[i + rng.bounded(kMaxFlowId - i)]);
  }
  ids.resize(count);
  return ids;
}

Frames build_frames(const std::vector<std::size_t>& flow_ids,
                    const std::vector<double>& zipf_cdf, std::size_t count,
                    nfp::SizeModel sizes, u64 seed,
                    std::size_t fixed_size = 64) {
  nfp::sim::Simulator sim;
  nfp::PacketPool pool(4);
  nfp::TrafficConfig cfg;
  cfg.size_model = sizes;
  cfg.fixed_size = fixed_size;
  cfg.seed = seed;
  nfp::TrafficGenerator gen(sim, pool, cfg);  // for its size model only
  nfp::Rng rng(seed ^ 0xF4A3E5ull);
  Frames frames;
  frames.bytes.reserve(count *
                       (sizes == nfp::SizeModel::kFixed ? fixed_size : 800));
  frames.offsets.reserve(count + 1);
  for (std::size_t i = 0; i < count; ++i) {
    std::size_t rank = 0;
    if (zipf_cdf.empty()) {
      rank = rng.bounded(flow_ids.size());
    } else {
      const auto it =
          std::lower_bound(zipf_cdf.begin(), zipf_cdf.end(), rng.uniform());
      rank = std::min<std::size_t>(
          static_cast<std::size_t>(it - zipf_cdf.begin()), flow_ids.size() - 1);
    }
    const std::size_t flow = flow_ids[rank];
    nfp::PacketSpec spec;
    spec.tuple = nfp::TrafficGenerator::flow_tuple(flow);
    spec.frame_size = gen.next_size();
    spec.payload_byte = static_cast<u8>(flow * 31 + seed);
    nfp::Packet* p = nfp::build_packet(pool, spec);
    frames.push({p->data(), p->length()});
    pool.release(p);
  }
  return frames;
}

// Filler rules that match no generated flow (sources in 172.16/12), then
// one exact deny rule per chosen flow; default pass.
nfp::AclTable make_acl(const std::vector<std::size_t>& flow_ids,
                       nfp::Rng& rng) {
  nfp::AclTable acl;
  for (std::size_t i = 0; i < kAclFillerRules; ++i) {
    nfp::AclRule r;
    r.src_prefix = 0xAC100000u | (static_cast<u32>(rng.bounded(4096)) << 8);
    r.src_prefix_len = 24;
    r.action = nfp::AclAction::kDrop;
    acl.add(r);
  }
  const std::size_t deny =
      std::clamp<std::size_t>(flow_ids.size() / 50, 1, kMaxDenyFlows);
  for (std::size_t i = 0; i < deny; ++i) {
    const nfp::FiveTuple t = nfp::TrafficGenerator::flow_tuple(
        flow_ids[rng.bounded(flow_ids.size())]);
    nfp::AclRule r;
    r.src_prefix = t.src_ip;
    r.src_prefix_len = 32;
    r.dst_prefix = t.dst_ip;
    r.dst_prefix_len = 32;
    r.src_port_lo = r.src_port_hi = t.src_port;
    r.dst_port_lo = r.dst_port_hi = t.dst_port;
    r.proto = t.proto;
    r.action = nfp::AclAction::kDrop;
    acl.add(r);
  }
  return acl;
}

std::vector<double> zipf_cdf(std::size_t n, double s) {
  std::vector<double> cdf(n);
  double total = 0;
  for (std::size_t k = 0; k < n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf[k] = total;
  }
  for (double& c : cdf) c /= total;
  return cdf;
}

nfp::CtRule exact_rule(const nfp::FiveTuple& t, std::size_t graph,
                       int priority) {
  nfp::CtRule r;
  r.src_ip = t.src_ip;
  r.src_mask = 0xFFFFFFFFu;
  r.dst_ip = t.dst_ip;
  r.dst_mask = 0xFFFFFFFFu;
  r.src_port = t.src_port;
  r.match_src_port = true;
  r.dst_port = t.dst_port;
  r.match_dst_port = true;
  r.proto = t.proto;
  r.match_proto = true;
  r.priority = priority;
  r.graph = graph;
  return r;
}

// ct-churn's table: synthetic_ct_rules' ~56 mask shapes over 3 graphs with
// its drop verdicts turned into graph verdicts (they win the /8 priority
// ties and would swallow most traffic), plus exact drop rules for flows
// picked from the zipf tail until they carry `drop_share` of the traffic.
void make_ct_rules(Workload& w, const std::vector<std::size_t>& flow_ids,
                   const std::vector<double>& cdf, std::size_t count,
                   double drop_share, nfp::Rng& rng, u64 seed) {
  w.ct_rules = nfp::synthetic_ct_rules(count, seed, 3);
  for (std::size_t i = 0; i < w.ct_rules.size(); ++i) {
    if (w.ct_rules[i].graph == nfp::kCtDropGraph) w.ct_rules[i].graph = i % 3;
  }
  double mass = 0;
  for (std::size_t rank = 50; rank < flow_ids.size() && mass < drop_share;
       rank += 1 + rng.bounded(8)) {
    mass += cdf[rank] - cdf[rank - 1];
    w.ct_rules.push_back(exact_rule(
        nfp::TrafficGenerator::flow_tuple(flow_ids[rank]), nfp::kCtDropGraph,
        100));
  }
}

// Rules added to a loaded table (mid-run by ct-churn's control thread, in
// isolation by the traced run): sources in 192.168/16 match no generated
// flow, so every verdict stays put while each add still rebuilds the
// snapshot and invalidates every microflow cache.
std::vector<nfp::CtRule> no_match_rules(std::size_t graphs) {
  std::vector<nfp::CtRule> rules;
  for (u32 i = 0; i < 64; ++i) {
    nfp::CtRule r;
    r.src_ip = 0xC0A80000u | (i << 8);
    r.src_mask = 0xFFFFFF00u;
    r.dst_ip = 0x0A200000u;
    r.dst_mask = 0xFFFF0000u;
    r.priority = 15;
    r.graph = i % graphs;
    rules.push_back(r);
  }
  return rules;
}

}  // namespace

void Frames::push(std::span<const u8> frame) {
  bytes.insert(bytes.end(), frame.begin(), frame.end());
  offsets.push_back(static_cast<u32>(bytes.size()));
}

std::optional<Workload> make_workload(const std::string& name, u64 seed) {
  Workload w;
  w.name = name;
  nfp::Rng rng(seed * 0x9E3779B97F4A7C15ull + 7);
  if (name == "ns-small" || name == "ns-paced") {
    const auto ids = pick_flow_ids(1024, rng);
    w.policies = {kNorthSouthPolicy};
    w.acl = make_acl(ids, rng);
    if (name == "ns-small") {
      // 64-B frames, closed loop: per-packet overhead (director, ring,
      // pool, copy, fanout/merge, egress) decides.
      w.shards = 3;
      w.rate_pps = 300'000;
      w.paced_frames = 1u << 19;
      w.frames = build_frames(ids, {}, 1u << 19, nfp::SizeModel::kFixed, seed);
    } else {
      // The one workload whose own loop leaves the plane unsaturated, so
      // per-packet latency and the workers' idle wake-up path show.
      w.shards = 2;
      w.paced = true;
      w.rate_pps = 300'000;
      w.paced_frames = 300'000;
      w.frames = build_frames(ids, {}, 300'000, nfp::SizeModel::kFixed, seed);
    }
  } else if (name == "edge-dc") {
    // NF compute (ids/ips DPI) dominates; the director idles.
    const auto ids = pick_flow_ids(1024, rng);
    w.shards = 2;
    w.rate_pps = 20'000;
    w.policies = {kEnterpriseEdgePolicy};
    w.acl = make_acl(ids, rng);
    w.frames =
        build_frames(ids, {}, 1u << 16, nfp::SizeModel::kDataCenter, seed);
    // Latency episodes send frames of the mix's mean size. The mix's median
    // falls in its sparse 300-900 B band, where 1 % of frames moving across
    // it (delayed by a stolen vCPU, or the seed's draw) moved p50 by 10 %,
    // two to three times the host's swing in throughput. The rate keeps a
    // shard busy under 10 % of the time, so few frames queue.
    w.paced_frames = 4096;
    w.latency_frames = build_frames(ids, {}, w.paced_frames,
                                    nfp::SizeModel::kFixed, seed, kDcMeanFrame);
  } else if (name == "ct-churn") {
    // The only workload where the classifier's hit/miss walk carries the
    // cost, and (paced episodes) where a snapshot rebuild and cache
    // invalidation run beside the reads. The site (flows, CT rules, ACL)
    // is the same for every seed and the seed draws the traffic: with a
    // seeded site, which graph and which tuple-walk depth the hot flows got
    // moved latency p50 by 30 % between seeds.
    nfp::Rng site(kSiteSeed);
    const auto ids = pick_flow_ids(20'000, site);
    // s = 0.8 keeps the hottest flow near 3 % of traffic, so the shards
    // stay near balance; s = 1.0 moved throughput by 20 % between runs.
    const auto cdf = zipf_cdf(ids.size(), 0.8);
    w.shards = 2;
    w.rate_pps = 100'000;
    // Short latency episodes, many per run: a core's speed swings within
    // seconds, and a median over 5 episodes of 2^17 frames spread 30 %.
    w.paced_frames = 1u << 15;
    w.policies = {kNorthSouthPolicy, kMonitorPolicy, kMonitorLbPolicy};
    w.acl = make_acl(ids, site);
    make_ct_rules(w, ids, cdf, 100'000, 0.03, site, kSiteSeed);
    w.churn_points = 1;
    w.frames = build_frames(ids, cdf, 1u << 19, nfp::SizeModel::kFixed, seed);
  } else {
    return std::nullopt;
  }
  w.churn_rules = no_match_rules(w.policies.size());
  return w;
}

nfp::ShardedDataplane::NfFactory make_factory(const Workload& w) {
  nfp::AclTable acl = w.acl;
  return [acl](const nfp::StageNf& meta)
             -> std::unique_ptr<nfp::NetworkFunction> {
    if (meta.name == "firewall") return std::make_unique<nfp::Firewall>(acl);
    auto nf = nfp::make_builtin_nf(meta.name,
                                   static_cast<u64>(meta.instance_id) + 1);
    return nf != nullptr ? std::move(nf) : nfp::make_builtin_nf("monitor");
  };
}

}  // namespace perfbench
