#include "layers.hpp"

#include <algorithm>
#include <cstring>

#include "dataplane/live_classifier.hpp"
#include "dataplane/live_pipeline.hpp"
#include "dataplane/merge_ops.hpp"
#include "dataplane/sharded_dataplane.hpp"
#include "harness.hpp"
#include "packet/packet_pool.hpp"
#include "packet/packet_view.hpp"
#include "ring/spsc_ring.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kBatch = 256;
constexpr std::size_t kMaxReplayFrames = 1u << 16;
// Per-layer time cap for the costly replays (NFs, executor): enough
// batches for a stable mean, bounded for vpn's ~20 us per frame.
constexpr u64 kLayerBudgetNs = 60'000'000;

volatile u64 g_sink = 0;  // keeps replay results observable

std::size_t replay_count(const Workload& w) {
  return std::min(w.frames.size(), kMaxReplayFrames);
}

// Fills `out` with pool copies of frames [first, first + n).
void load_batch(const Workload& w, nfp::PacketPool& pool, std::size_t first,
                std::size_t n, std::vector<nfp::Packet*>& out) {
  out.clear();
  for (std::size_t i = first; i < first + n; ++i) {
    const auto f = w.frames.frame(i);
    nfp::Packet* p = pool.alloc(f.size());
    std::memcpy(p->data(), f.data(), f.size());
    out.push_back(p);
  }
}

void release_all(nfp::PacketPool& pool, std::vector<nfp::Packet*>& pkts) {
  for (nfp::Packet* p : pkts) pool.release(p);
  pkts.clear();
}

std::vector<nfp::FiveTuple> tuples_of(const Workload& w, std::size_t n) {
  std::vector<nfp::FiveTuple> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(nfp::parse_five_tuple(w.frames.frame(i))
                      .value_or(nfp::FiveTuple{}));
  }
  return out;
}

void replay_director(const Workload& w, Tracer& tr) {
  const std::size_t n = replay_count(w);
  u64 sink = 0;
  for (std::size_t i = 0; i < n; i += kBatch) {
    const std::size_t m = std::min(kBatch, n - i);
    Scope s(tr, "parse", m);
    for (std::size_t j = i; j < i + m; ++j) {
      const auto t = nfp::parse_five_tuple(w.frames.frame(j));
      sink += nfp::hash_five_tuple(t.value_or(nfp::FiveTuple{}));
    }
  }
  nfp::PacketPool pool(kBatch * 2);
  std::vector<nfp::Packet*> pkts;
  for (std::size_t i = 0; i < n; i += kBatch) {
    const std::size_t m = std::min(kBatch, n - i);
    Scope s(tr, "packet.alloc_copy", m);
    load_batch(w, pool, i, m, pkts);
    release_all(pool, pkts);
  }
  nfp::SpscRing<nfp::Packet*> ring(1024);
  nfp::Packet* out = nullptr;
  for (std::size_t i = 0; i < n; i += kBatch) {
    const std::size_t m = std::min(kBatch, n - i);
    Scope s(tr, "ring.hop", m);
    for (std::size_t j = 0; j < m; ++j) {
      ring.push(reinterpret_cast<nfp::Packet*>(j + 1));
    }
    for (std::size_t j = 0; j < m; ++j) {
      ring.pop(out);
      sink += reinterpret_cast<std::uintptr_t>(out);
    }
  }
  g_sink = g_sink + sink;
}

void replay_classifier(const Workload& w, std::size_t graph_count,
                       bool isolate_add_rule, Tracer& tr) {
  nfp::LiveClassificationTable ct(graph_count);
  ct.add_rules(w.ct_rules);
  tr.count("classifier.tuples", static_cast<double>(ct.tuple_count()));
  const auto tuples = tuples_of(w, replay_count(w));
  u64 sink = 0;
  for (std::size_t i = 0; i < tuples.size(); i += kBatch) {
    const std::size_t m = std::min(kBatch, tuples.size() - i);
    Scope s(tr, "classifier.miss", m);
    for (std::size_t j = i; j < i + m; ++j) sink += ct.classify(tuples[j]);
  }
  // Hits: at most half the cache's capacity of distinct flows, warmed once.
  const std::size_t capacity = nfp::ShardedDataplaneOptions{}.microflow_capacity;
  nfp::MicroflowCache cache(ct, capacity);
  std::vector<nfp::FiveTuple> hot;
  for (const nfp::FiveTuple& t : tuples) {
    if (hot.size() >= capacity / 2) break;
    if (std::find(hot.begin(), hot.end(), t) == hot.end()) hot.push_back(t);
  }
  for (const nfp::FiveTuple& t : hot) sink += cache.classify(t);
  for (std::size_t done = 0; done < tuples.size() && !hot.empty();
       done += kBatch) {
    Scope s(tr, "classifier.hit", kBatch);
    for (std::size_t j = 0; j < kBatch; ++j) {
      sink += cache.classify(hot[(done + j) % hot.size()]);
    }
  }
  if (isolate_add_rule) {
    for (std::size_t k = 0; k < 5 && k < w.churn_rules.size(); ++k) {
      Scope s(tr, "classifier.add_rule");
      ct.add_rule(w.churn_rules[k]);
    }
  }
  g_sink = g_sink + sink;
}

void replay_executor(const Workload& w,
                     const std::vector<nfp::ServiceGraph>& graphs,
                     Tracer& tr) {
  nfp::LiveClassificationTable ct(graphs.size());
  ct.add_rules(w.ct_rules);
  nfp::LivePipelineOptions opts;
  opts.exec_mode = nfp::ExecMode::kRtc;
  const auto factory = make_factory(w);
  std::vector<std::unique_ptr<nfp::LivePipeline>> pipes;
  for (const nfp::ServiceGraph& g : graphs) {
    pipes.push_back(std::make_unique<nfp::LivePipeline>(g, factory, opts));
    (void)pipes.back()->start();
  }
  const std::size_t n = replay_count(w);
  const u64 deadline = now_ns() + kLayerBudgetNs;
  for (std::size_t i = 0; i < n && now_ns() < deadline; i += kBatch) {
    const std::size_t m = std::min(kBatch, n - i);
    std::vector<std::pair<std::size_t, std::span<const u8>>> routed;
    for (std::size_t j = i; j < i + m; ++j) {
      const auto f = w.frames.frame(j);
      const auto t = nfp::parse_five_tuple(f);
      const std::size_t g = t ? ct.classify(*t) : 0;
      if (g != nfp::kCtDropGraph) routed.emplace_back(g, f);
    }
    Scope s(tr, "executor", std::max<std::size_t>(routed.size(), 1));
    for (const auto& [g, f] : routed) pipes[g]->feed(f);
  }
  for (auto& p : pipes) (void)p->drain();
}

void replay_copies_and_merge(const Workload& w,
                             const std::vector<nfp::ServiceGraph>& graphs,
                             Tracer& tr) {
  const std::size_t n = replay_count(w);
  nfp::PacketPool pool(kBatch * 8);
  std::vector<nfp::Packet*> src;
  std::vector<nfp::Packet*> copies;
  for (const bool full : {false, true}) {
    const char* name = full ? "packet.full_copy" : "packet.header_copy";
    for (std::size_t i = 0; i < n; i += kBatch) {
      const std::size_t m = std::min(kBatch, n - i);
      load_batch(w, pool, i, m, src);
      {
        Scope s(tr, name, m);
        for (nfp::Packet* p : src) {
          nfp::Packet* c =
              full ? pool.clone_full(*p) : pool.clone_header_only(*p);
          pool.release(c);
        }
      }
      release_all(pool, src);
    }
  }
  for (const nfp::ServiceGraph& g : graphs) {
    for (const nfp::Segment& seg : g.segments()) {
      if (!seg.is_parallel()) continue;
      for (std::size_t i = 0; i < n; i += kBatch) {
        const std::size_t m = std::min(kBatch, n - i);
        load_batch(w, pool, i, m, src);
        std::vector<std::vector<std::pair<nfp::Packet*, u8>>> arrivals(m);
        for (std::size_t j = 0; j < m; ++j) {
          std::vector<nfp::Packet*> by_version(seg.num_versions + 1u, src[j]);
          for (u8 v = 2; v <= seg.num_versions; ++v) {
            by_version[v] = seg.version_needs_full_copy(v)
                                ? pool.clone_full(*src[j])
                                : pool.clone_header_only(*src[j]);
            copies.push_back(by_version[v]);
          }
          for (const nfp::StageNf& nf : seg.nfs) {
            arrivals[j].emplace_back(by_version[nf.version], nf.version);
          }
        }
        {
          Scope s(tr, "merge", m);
          for (const auto& a : arrivals) {
            g_sink = g_sink + (nfp::apply_merge_operations(seg, a) != nullptr);
          }
        }
        release_all(pool, copies);
        release_all(pool, src);
      }
    }
  }
}

void replay_nfs(const Workload& w, Tracer& tr) {
  const auto factory = make_factory(w);
  const std::size_t n = replay_count(w);
  nfp::PacketPool pool(kBatch * 2);
  std::vector<nfp::Packet*> pkts;
  for (const std::string& type : reported_nf_types()) {
    nfp::StageNf meta;
    meta.name = type;
    const auto nf = factory(meta);
    const std::string span = "nfs." + type;
    const u64 deadline = now_ns() + kLayerBudgetNs;
    for (std::size_t i = 0; i < n && now_ns() < deadline; i += kBatch) {
      const std::size_t m = std::min(kBatch, n - i);
      load_batch(w, pool, i, m, pkts);
      {
        Scope s(tr, span, m);
        for (nfp::Packet* p : pkts) {
          nfp::PacketView view(*p);
          g_sink = g_sink + static_cast<u64>(nf->process(view));
        }
      }
      release_all(pool, pkts);
    }
  }
}

}  // namespace

const std::vector<std::string>& reported_nf_types() {
  static const std::vector<std::string> types = {
      "firewall", "monitor", "lb", "vpn", "ids", "ips", "gateway", "caching"};
  return types;
}

void replay_layers(const Workload& w,
                   const std::vector<nfp::ServiceGraph>& graphs,
                   bool isolate_add_rule, Tracer& tr) {
  replay_director(w, tr);
  replay_classifier(w, graphs.size(), isolate_add_rule, tr);
  replay_executor(w, graphs, tr);
  replay_copies_and_merge(w, graphs, tr);
  replay_nfs(w, tr);
}

}  // namespace perfbench
