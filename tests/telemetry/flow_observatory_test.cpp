// Tests for the observatory's flow view: Space-Saving exactness within
// capacity and error/presence bounds beyond it, top-10 precision under
// zipf traffic vs exact counts, cross-shard merge exactness under disjoint
// RSS sharding, the HyperLogLog cardinality estimate, the drop-reason
// taxonomy's exactness invariant (sum over reasons == dropped, induced for
// ring_full / pool_exhausted / nf_verdict / classifier_miss /
// shutdown_drain), per-graph tenant accounting, concurrent record/scrape
// (the TSan workload), and the /flows.json loopback endpoint plus
// timeseries probes.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hpp"
#include "common/rng.hpp"
#include "dataplane/sharded_dataplane.hpp"
#include "graph/service_graph.hpp"
#include "nfs/firewall.hpp"
#include "nfs/nf.hpp"
#include "orch/compiler.hpp"
#include "packet/builder.hpp"
#include "policy/policy.hpp"
#include "telemetry/observatory.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/stats_server.hpp"
#include "telemetry/timeseries.hpp"

namespace nfp {
namespace {

using telemetry::DropExemplarRing;
using telemetry::DropReason;
using telemetry::FlowReport;
using telemetry::FlowSample;
using telemetry::HyperLogLog;
using telemetry::kDropReasonCount;
using telemetry::merge_topk;
using telemetry::Observatory;
using telemetry::ShardFlowAccountant;
using telemetry::ShardFlowSnapshot;
using telemetry::SpaceSaving;

u64 splitmix(u64 x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

FiveTuple test_tuple(std::size_t flow) {
  return FiveTuple{0x0A300000 + static_cast<u32>(flow),
                   0x0A400000 + static_cast<u32>(flow % 11),
                   static_cast<u16>(20'000 + flow),
                   static_cast<u16>(443 + flow % 3), kProtoTcp};
}

// Deterministic zipf-ish popularity: flow f contributes weight 1/(f+1).
// Returns per-flow packet counts summing to ~total.
std::vector<u64> zipf_counts(std::size_t flows, u64 total) {
  double h = 0;
  for (std::size_t f = 0; f < flows; ++f) h += 1.0 / static_cast<double>(f + 1);
  std::vector<u64> counts(flows);
  for (std::size_t f = 0; f < flows; ++f) {
    counts[f] = static_cast<u64>(
        static_cast<double>(total) / (static_cast<double>(f + 1) * h));
    if (counts[f] == 0) counts[f] = 1;
  }
  return counts;
}

// `counts[f]` packets of flow f, interleaved round-robin so heavy and
// light flows mix the way live traffic does.
std::vector<std::size_t> interleaved_flow_sequence(
    const std::vector<u64>& counts) {
  std::vector<u64> remaining = counts;
  std::vector<std::size_t> seq;
  bool any = true;
  while (any) {
    any = false;
    for (std::size_t f = 0; f < remaining.size(); ++f) {
      if (remaining[f] == 0) continue;
      --remaining[f];
      seq.push_back(f);
      any = true;
    }
  }
  return seq;
}

std::vector<std::vector<u8>> frames_for_sequence(
    const std::vector<std::size_t>& seq) {
  PacketPool pool(4);
  std::vector<std::vector<u8>> frames;
  frames.reserve(seq.size());
  for (const std::size_t f : seq) {
    PacketSpec spec;
    spec.tuple = test_tuple(f);
    Packet* p = build_packet(pool, spec);
    frames.emplace_back(p->data(), p->data() + p->length());
    pool.release(p);
  }
  return frames;
}

ServiceGraph compile_chain(const std::vector<std::string>& chain) {
  const ActionTable table = ActionTable::with_builtin_nfs();
  auto g = compile_policy(Policy::from_sequential_chain("flowobs", chain),
                          table);
  EXPECT_TRUE(g.is_ok()) << g.error();
  return std::move(g).take();
}

void wait_until_done(ShardedDataplane& dp, std::size_t expected) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (std::chrono::steady_clock::now() < deadline) {
    u64 done = 0;
    for (std::size_t s = 0; s < dp.shard_count(); ++s) {
      done += dp.shard_delivered(s) + dp.shard_dropped(s);
    }
    if (done >= expected) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  FAIL() << "dataplane did not finish " << expected << " frames in 30s";
}

u64 total_dropped(ShardedDataplane& dp) {
  u64 total = 0;
  for (std::size_t s = 0; s < dp.shard_count(); ++s) {
    total += dp.shard_dropped(s);
  }
  return total;
}

// The acceptance invariant: every drop carries a reason, exactly.
void check_drop_sum_invariant(ShardedDataplane& dp, const Observatory& obs) {
  u64 by_reason = 0;
  FlowReport rep = obs.report().flows;
  for (std::size_t r = 0; r < kDropReasonCount; ++r) {
    by_reason += rep.total.drops[r];
  }
  EXPECT_EQ(by_reason, total_dropped(dp))
      << "a drop escaped the reason taxonomy";
  EXPECT_EQ(rep.total_drops(), total_dropped(dp));
}

// --- Space-Saving ---------------------------------------------------------

TEST(FlowObservatoryTest, SpaceSavingExactWithinCapacity) {
  SpaceSaving table(64);
  const auto counts = zipf_counts(32, 10'000);
  for (std::size_t f = 0; f < counts.size(); ++f) {
    const FiveTuple t = test_tuple(f);
    const u64 h = hash_five_tuple(t);
    for (u64 i = 0; i < counts[f]; ++i) table.record(t, h, 1, 100);
  }
  EXPECT_EQ(table.size(), counts.size());
  for (const SpaceSaving::Entry& e : table.entries()) {
    const u64 f = e.tuple.src_port - 20'000u;
    EXPECT_EQ(e.count.packets, counts[f]) << "flow " << f;
    EXPECT_EQ(e.count.bytes, counts[f] * 100);
    EXPECT_EQ(e.error, 0u) << "within capacity nothing is evicted";
  }
}

// One weighted sample of a Space-Saving input: `packets` packets of flow
// `flow` (the accumulator folds same-flow packets into one such sample).
struct StreamSample {
  std::size_t flow = 0;
  u64 packets = 0;
};

// A Space-Saving input stream, the table size it is fed into, and the
// exact per-flow counts it adds up to.
struct SketchStream {
  std::string name;
  std::size_t capacity = 0;
  std::vector<StreamSample> samples;
  std::vector<u64> counts;  // exact, per flow
  u64 n = 0;                // total packets
};

SketchStream make_stream(std::string name, std::size_t capacity,
                         std::size_t flows, std::vector<StreamSample> samples) {
  SketchStream st{std::move(name), capacity, std::move(samples),
                  std::vector<u64>(flows), 0};
  for (const StreamSample& s : st.samples) {
    st.counts[s.flow] += s.packets;
    st.n += s.packets;
  }
  return st;
}

// `samples` draws over `flows` flows, each of 1..max_packets packets; flow
// f has weight 1/(f+1)^s (s = 0: uniform).
SketchStream random_stream(std::string name, std::size_t capacity,
                           std::size_t flows, std::size_t samples, double s,
                           u64 max_packets, u64 seed) {
  std::vector<double> cdf(flows);
  double total = 0;
  for (std::size_t f = 0; f < flows; ++f) {
    total += std::pow(static_cast<double>(f + 1), -s);
    cdf[f] = total;
  }
  Rng rng(seed);
  std::vector<StreamSample> out(samples);
  for (StreamSample& x : out) {
    const auto it =
        std::lower_bound(cdf.begin(), cdf.end(), rng.uniform() * total);
    x.flow = std::min<std::size_t>(
        static_cast<std::size_t>(it - cdf.begin()), flows - 1);
    x.packets = 1 + rng.bounded(max_packets);
  }
  return make_stream(std::move(name), capacity, flows, std::move(out));
}

// The streams every Space-Saving property is checked on: the zipf head of
// a mouse-heavy mix with unit samples, uniform and zipf draws with
// weighted samples (a ct-churn shard's 10k zipf-0.8 flows into the
// shards' 128 entries among them), and one whose flows all fit.
std::vector<SketchStream> sketch_streams() {
  std::vector<SketchStream> out;
  std::vector<StreamSample> unit;
  const auto counts = zipf_counts(200, 20'000);
  for (const std::size_t f : interleaved_flow_sequence(counts)) {
    unit.push_back({f, 1});
  }
  out.push_back(make_stream("zipf200-unit", 16, counts.size(),
                            std::move(unit)));
  out.push_back(random_stream("uniform1000", 16, 1'000, 20'000, 0.0, 4, 11));
  out.push_back(random_stream("zipf10k", 128, 10'000, 40'000, 0.8, 3, 12));
  out.push_back(random_stream("fits100", 128, 100, 5'000, 1.0, 8, 13));
  return out;
}

// Space-Saving's guarantees against the exact counts: the counters sum to
// N; every entry over-counts by at most its error, and its error by at
// most N/K; every flow with more than N/K packets holds an entry; and
// when every flow fits, the counts are exact.
void check_space_saving(const SpaceSaving& table, const SketchStream& st) {
  const std::size_t k = st.capacity;
  const auto entries = table.entries();
  EXPECT_LE(entries.size(), k);
  u64 sum = 0;
  std::set<u64> present;
  for (const SpaceSaving::Entry& e : entries) {
    const u64 f = e.tuple.src_port - 20'000u;
    ASSERT_LT(f, st.counts.size());
    sum += e.count.packets;
    present.insert(e.hash);
    EXPECT_GE(e.count.packets, st.counts[f]) << "flow " << f;
    EXPECT_LE(e.count.packets, st.counts[f] + e.error) << "flow " << f;
    EXPECT_LE(e.error, st.n / k) << "flow " << f;
    EXPECT_EQ(e.count.bytes, e.count.packets * 64) << "flow " << f;
  }
  EXPECT_EQ(sum, st.n) << "every packet lands in exactly one counter";
  std::size_t flows = 0;
  for (std::size_t f = 0; f < st.counts.size(); ++f) {
    if (st.counts[f] == 0) continue;
    ++flows;
    if (st.counts[f] > st.n / k) {
      EXPECT_TRUE(present.contains(hash_five_tuple(test_tuple(f))))
          << "heavy flow " << f << " missing";
    }
  }
  if (flows <= k) {
    EXPECT_EQ(entries.size(), flows);
    for (const SpaceSaving::Entry& e : entries) {
      const u64 f = e.tuple.src_port - 20'000u;
      EXPECT_EQ(e.count.packets, st.counts[f]) << "flow " << f;
      EXPECT_EQ(e.error, 0u) << "within capacity nothing is evicted";
    }
  }
}

SpaceSaving::Candidate candidate(const StreamSample& s) {
  const FiveTuple t = test_tuple(s.flow);
  return {t, hash_five_tuple(t), s.packets, s.packets * 64};
}

TEST(FlowObservatoryTest, SpaceSavingErrorAndPresenceBounds) {
  for (const SketchStream& st : sketch_streams()) {
    SCOPED_TRACE(st.name);
    {
      // Sample by sample; each newcomer must displace a least entry and
      // inherit its count as the error.
      SCOPED_TRACE("record");
      SpaceSaving table(st.capacity);
      for (const StreamSample& s : st.samples) {
        const SpaceSaving::Candidate c = candidate(s);
        const auto before = table.entries();
        u64 least = 0;
        if (before.size() == st.capacity) {
          least = std::min_element(before.begin(), before.end(),
                                   [](const auto& a, const auto& b) {
                                     return a.count.packets < b.count.packets;
                                   })
                      ->count.packets;
        }
        if (!table.record(c.tuple, c.hash, c.packets, c.bytes)) continue;
        for (const SpaceSaving::Entry& e : table.entries()) {
          if (e.hash != c.hash) continue;
          ASSERT_EQ(e.error, least) << "flow " << s.flow;
          ASSERT_EQ(e.count.packets, least + c.packets) << "flow " << s.flow;
        }
      }
      check_space_saving(table, st);
    }
    // In batches: one candidate at a time into a full table, a whole
    // 4,096-sample epoch at once, and sizes drawn from 1..4,096.
    for (const std::size_t batch : {std::size_t{1}, std::size_t{4'096},
                                     std::size_t{0}}) {
      SCOPED_TRACE(batch == 0 ? std::string("batch random")
                              : "batch " + std::to_string(batch));
      SpaceSaving table(st.capacity);
      Rng rng(batch);
      std::vector<SpaceSaving::Candidate> cands;
      for (std::size_t i = 0; i < st.samples.size();) {
        const std::size_t len = std::min<std::size_t>(
            batch != 0 ? batch : 1 + rng.bounded(4'096),
            st.samples.size() - i);
        cands.clear();
        for (std::size_t j = i; j < i + len; ++j) {
          cands.push_back(candidate(st.samples[j]));
        }
        table.replace_min_batch(cands);
        i += len;
      }
      check_space_saving(table, st);
    }
  }
}

TEST(FlowObservatoryTest, ZipfTop10PrecisionAtLeastPoint9) {
  constexpr std::size_t kFlows = 500;
  SpaceSaving table(64);
  const auto counts = zipf_counts(kFlows, 50'000);
  for (const std::size_t f : interleaved_flow_sequence(counts)) {
    const FiveTuple t = test_tuple(f);
    table.record(t, hash_five_tuple(t), 1, 1);
  }
  // zipf_counts is monotone decreasing: the exact top-10 is flows 0..9.
  auto entries = table.entries();
  std::sort(entries.begin(), entries.end(),
            [](const SpaceSaving::Entry& a, const SpaceSaving::Entry& b) {
              return a.count.packets > b.count.packets;
            });
  std::size_t hits = 0;
  for (std::size_t i = 0; i < 10 && i < entries.size(); ++i) {
    if (entries[i].tuple.src_port - 20'000u < 10) ++hits;
  }
  EXPECT_GE(hits, 9u) << "top-10 precision below 0.9";
}

TEST(FlowObservatoryTest, MergeTopkSumsByKeyAndTruncates) {
  SpaceSaving a(8), b(8);
  const FiveTuple shared = test_tuple(1);
  const u64 shared_hash = hash_five_tuple(shared);
  a.record(shared, shared_hash, 10, 1000);
  b.record(shared, shared_hash, 5, 500);
  const FiveTuple only_b = test_tuple(2);
  b.record(only_b, hash_five_tuple(only_b), 3, 300);

  const std::vector<std::vector<SpaceSaving::Entry>> tables = {a.entries(),
                                                               b.entries()};
  const auto merged = merge_topk(tables, 8);
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_EQ(merged[0].hash, shared_hash);
  EXPECT_EQ(merged[0].count.packets, 15u);
  EXPECT_EQ(merged[0].count.bytes, 1500u);
  EXPECT_EQ(merged[1].count.packets, 3u);

  const auto truncated = merge_topk(tables, 1);
  ASSERT_EQ(truncated.size(), 1u);
  EXPECT_EQ(truncated[0].hash, shared_hash);
}

// --- HyperLogLog ----------------------------------------------------------

TEST(FlowObservatoryTest, HllEstimateWithinErrorBound) {
  for (const std::size_t n : {100u, 1'000u, 50'000u}) {
    HyperLogLog hll;
    for (std::size_t i = 0; i < n; ++i) hll.add(splitmix(i));
    const double est = HyperLogLog::estimate(hll.registers());
    // Standard error is 6.5%; 3 sigma plus small-n slack.
    EXPECT_NEAR(est, static_cast<double>(n), 0.25 * static_cast<double>(n))
        << "n=" << n;
  }
}

TEST(FlowObservatoryTest, HllRegistersMergeByMax) {
  HyperLogLog a, b, both;
  for (std::size_t i = 0; i < 5'000; ++i) {
    const u64 h = splitmix(i);
    (i % 2 ? a : b).add(h);
    both.add(h);
  }
  HyperLogLog::Registers merged{};
  for (std::size_t i = 0; i < HyperLogLog::kRegisters; ++i) {
    merged[i] = std::max(a.registers()[i], b.registers()[i]);
  }
  EXPECT_EQ(merged, both.registers());
}

// --- exemplar ring --------------------------------------------------------

TEST(FlowObservatoryTest, ExemplarRingIsBoundedOldestFirst) {
  DropExemplarRing ring(4);
  for (std::size_t i = 0; i < 6; ++i) {
    FlowRef flow;
    flow.tuple = test_tuple(i);
    flow.valid = true;
    ring.record(DropReason::kNfVerdict, "nf:test#0", &flow, 100 + i);
  }
  const auto snap = ring.snapshot();
  ASSERT_EQ(snap.size(), 4u);
  for (std::size_t i = 0; i < snap.size(); ++i) {
    EXPECT_EQ(snap[i].when_ns, 100 + 2 + i) << "oldest-first order";
    EXPECT_EQ(snap[i].reason, DropReason::kNfVerdict);
    EXPECT_EQ(snap[i].stage, "nf:test#0");
    EXPECT_TRUE(snap[i].tuple_valid);
  }
}

// --- accountant churn -----------------------------------------------------

TEST(FlowObservatoryTest, NewFlowCountedOncePerFlow) {
  ShardFlowAccountant acct(32, 1);
  FlowSample s;
  s.tuple = test_tuple(7);
  s.hash = hash_five_tuple(s.tuple);
  s.graph = 0;
  s.packets = 3;
  s.bytes = 300;
  s.tuple_valid = true;
  acct.record_burst({&s, 1});
  acct.record_burst({&s, 1});
  const ShardFlowSnapshot snap = acct.snapshot();
  EXPECT_EQ(snap.new_flows, 1u);
  EXPECT_EQ(snap.packets, 6u);
  EXPECT_EQ(snap.bytes, 600u);
  ASSERT_EQ(snap.graphs.size(), 1u);
  EXPECT_EQ(snap.graphs[0].traffic.packets, 6u);
}

// --- live sharded dataplane ----------------------------------------------

// Runs `frames` on a dataplane and returns the flow report.
FlowReport run_flows(ShardedDataplane& dp, Observatory& obs,
                     const std::vector<std::vector<u8>>& frames) {
  EXPECT_TRUE(dp.start().is_ok());
  obs.reset_baseline();
  for (const auto& frame : frames) {
    dp.feed({frame.data(), frame.size()});
  }
  wait_until_done(dp, frames.size());
  return obs.report().flows;
}

TEST(FlowObservatoryTest, CrossShardMergeMatchesSingleShardExactly) {
  // Flows fit the per-shard tables, so both sides are exact — and because
  // RSS shards flows disjointly, the 2-shard merge must equal the 1-shard
  // table entry-for-entry.
  const auto counts = zipf_counts(48, 6'000);
  const auto frames = frames_for_sequence(interleaved_flow_sequence(counts));

  std::map<u64, u64> merged_counts, single_counts;
  for (const std::size_t shards : {1u, 2u}) {
    ShardedDataplaneOptions opts;
    opts.shards = shards;
    ShardedDataplane dp({compile_chain({"monitor"})}, {}, opts);
    Observatory obs;
    dp.register_observatory(obs);
    const FlowReport rep = run_flows(dp, obs, frames);
    auto& out = shards == 1 ? single_counts : merged_counts;
    for (const SpaceSaving::Entry& e : rep.total.topk) {
      out[e.hash] = e.count.packets;
      EXPECT_EQ(e.error, 0u);
    }
    EXPECT_EQ(rep.total.packets, frames.size());
    const ShardedResult res = dp.drain();
    EXPECT_TRUE(res.status.is_ok());
  }
  EXPECT_EQ(merged_counts, single_counts);
}

TEST(FlowObservatoryTest, LiveZipfHeavyHittersAndChurn) {
  const auto counts = zipf_counts(64, 8'000);
  const auto frames = frames_for_sequence(interleaved_flow_sequence(counts));

  ShardedDataplaneOptions opts;
  opts.shards = 2;
  ShardedDataplane dp({compile_chain({"monitor"})}, {}, opts);
  Observatory obs;
  dp.register_observatory(obs);
  EXPECT_EQ(obs.shard_count(), 2u);
  const FlowReport rep = run_flows(dp, obs, frames);

  EXPECT_EQ(rep.total.packets, frames.size());
  EXPECT_EQ(rep.total.new_flows, 64u);
  // 64 distinct flows fit linear counting exactly at this range.
  EXPECT_NEAR(rep.flows_active(), 64.0, 10.0);
  ASSERT_FALSE(rep.total.topk.empty());
  // zipf head: flow 0 is the elephant and the top entry.
  EXPECT_EQ(rep.total.topk.front().tuple.src_port, 20'000u);
  EXPECT_EQ(rep.total.topk.front().count.packets, counts[0]);
  EXPECT_GT(rep.hh_top1_share(), 0.1);
  check_drop_sum_invariant(dp, obs);
  const ShardedResult res = dp.drain();
  EXPECT_TRUE(res.status.is_ok());
}

// More distinct flows per epoch than the accumulator holds (~7k): its
// probe runs fill, so the epoch folds before any idle streak or the
// staleness backstop, as on a ct-churn shard.
TEST(FlowObservatoryTest, AccumulatorFoldsOnProbeOverflow) {
  constexpr std::size_t kFlows = 20'000;
  ShardFlowAccountant acct(128, 1);
  telemetry::FlowAccumulator acc;
  for (std::size_t f = 0; f < kFlows; ++f) {
    FlowRef flow;
    flow.tuple = test_tuple(f);
    flow.hash = hash_five_tuple(flow.tuple);
    flow.valid = true;
    acc.add(flow, 64, 0, acct);
  }
  const u64 folded = acct.snapshot().packets;
  EXPECT_GT(folded, 0u) << "no probe run overflowed";
  EXPECT_LT(folded, kFlows);
  EXPECT_EQ(folded + acc.pending(), kFlows);
  acc.flush(acct);
  EXPECT_EQ(acc.pending(), 0u);
  const ShardFlowSnapshot snap = acct.snapshot();
  EXPECT_EQ(snap.packets, kFlows);
  EXPECT_EQ(snap.bytes, kFlows * 64);
  EXPECT_EQ(snap.new_flows, kFlows);
  EXPECT_EQ(snap.topk.size(), 128u);
}

TEST(FlowObservatoryTest, LiveHighCardinalityHeavyHitterBounds) {
  // 12,000 zipf flows on one shard: the interleaved feed's first round
  // alone is more distinct flows than the accumulator holds (~7k), so
  // unless the worker idles first its probe runs fill and the epoch folds
  // early; nearly every folded sample displaces the table minimum.
  constexpr std::size_t kFlows = 12'000;
  const auto counts = zipf_counts(kFlows, 60'000);
  const auto frames = frames_for_sequence(interleaved_flow_sequence(counts));

  ShardedDataplaneOptions opts;
  opts.shards = 1;
  ShardedDataplane dp({compile_chain({"monitor"})}, {}, opts);
  Observatory obs;
  dp.register_observatory(obs);
  const FlowReport rep = run_flows(dp, obs, frames);

  const u64 n = frames.size();
  EXPECT_EQ(rep.total.packets, n);
  const std::size_t k = rep.total.topk_capacity;
  ASSERT_GT(k, 0u);
  ASSERT_EQ(rep.total.topk.size(), k);
  std::set<u64> present;
  for (const SpaceSaving::Entry& e : rep.total.topk) {
    const u64 f = e.tuple.src_port - 20'000u;
    ASSERT_LT(f, kFlows);
    present.insert(e.hash);
    EXPECT_GE(e.count.packets, counts[f]) << "flow " << f;
    EXPECT_LE(e.count.packets, counts[f] + e.error) << "flow " << f;
    EXPECT_LE(e.error, n / k) << "flow " << f;
  }
  std::size_t heavy = 0;
  for (std::size_t f = 0; f < kFlows; ++f) {
    if (counts[f] <= n / k) continue;
    ++heavy;
    EXPECT_TRUE(present.contains(hash_five_tuple(test_tuple(f))))
        << "heavy flow " << f << " missing";
  }
  EXPECT_GT(heavy, 1u);
  EXPECT_EQ(rep.total.topk.front().tuple.src_port, 20'000u)
      << "the elephant is the first entry";
  // Three standard errors of a 256-register HyperLogLog (1.04/16 each).
  EXPECT_NEAR(rep.flows_active(), static_cast<double>(kFlows),
              3 * 0.065 * static_cast<double>(kFlows));
  check_drop_sum_invariant(dp, obs);
  const ShardedResult res = dp.drain();
  EXPECT_TRUE(res.status.is_ok());
}

TEST(FlowObservatoryTest, InducedNfVerdictDropsCarryReason) {
  const auto drop_factory =
      [](const StageNf& nf) -> std::unique_ptr<NetworkFunction> {
    if (nf.name == "firewall") {
      AclTable acl;
      acl.set_default_action(AclAction::kDrop);
      return std::make_unique<Firewall>(std::move(acl));
    }
    return make_builtin_nf(nf.name);
  };
  const auto frames =
      frames_for_sequence(interleaved_flow_sequence(zipf_counts(8, 400)));

  ShardedDataplaneOptions opts;
  opts.shards = 2;
  ShardedDataplane dp({compile_chain({"firewall"})}, drop_factory, opts);
  Observatory obs;
  dp.register_observatory(obs);
  const FlowReport rep = run_flows(dp, obs, frames);

  EXPECT_EQ(rep.total.drops[static_cast<std::size_t>(DropReason::kNfVerdict)],
            frames.size());
  EXPECT_EQ(total_dropped(dp), frames.size());
  check_drop_sum_invariant(dp, obs);
  // Exemplars name the NF stage that dropped.
  ASSERT_FALSE(rep.total.exemplars.empty());
  EXPECT_EQ(rep.total.exemplars.front().reason, DropReason::kNfVerdict);
  EXPECT_NE(rep.total.exemplars.front().stage.find("nf:"), std::string::npos);
  const ShardedResult res = dp.drain();
  EXPECT_TRUE(res.status.is_ok());
  EXPECT_EQ(res.dropped, frames.size());
}

TEST(FlowObservatoryTest, InducedRingFullDropsCarryReason) {
  const auto frames =
      frames_for_sequence(interleaved_flow_sequence(zipf_counts(16, 8'000)));

  ShardedDataplaneOptions opts;
  opts.shards = 2;
  opts.ingest_ring_depth = 4;  // tiny RX ring: the director must tail-drop
  opts.drop_on_ingest_backpressure = true;
  ShardedDataplane dp({compile_chain({"monitor"})}, {}, opts);
  Observatory obs;
  dp.register_observatory(obs);
  const FlowReport rep = run_flows(dp, obs, frames);

  // A tight feed loop against 4-deep rings must shed at least something.
  EXPECT_GT(rep.total.drops[static_cast<std::size_t>(DropReason::kRingFull)],
            0u);
  check_drop_sum_invariant(dp, obs);
  const ShardedResult res = dp.drain();
  EXPECT_TRUE(res.status.is_ok());
  EXPECT_EQ(res.dropped, total_dropped(dp));
}

TEST(FlowObservatoryTest, InducedPoolExhaustedDropsCarryReason) {
  // A 4-version parallel stage needs the original plus 3 clones per
  // packet; a 3-slot pool can never satisfy the third clone, so every
  // packet must surface as pool_exhausted — never as silent loss. A
  // ShardedDataplane sizes its shard pools so a fanout never runs dry, so
  // the mid-fanout case is induced on a standalone pipeline's own pool.
  const auto frames =
      frames_for_sequence(interleaved_flow_sequence(zipf_counts(16, 400)));
  LivePipelineOptions opts;
  opts.pool_size = 3;
  opts.magazine_size = 0;  // no per-thread caching of the 3 slots
  LivePipeline pipe(
      ServiceGraph::parallel("par4",
                             {"monitor", "monitor", "monitor", "monitor"},
                             {1, 2, 3, 4}),
      {}, opts);
  DropExemplarRing exemplars;
  pipe.set_drop_exemplar_ring(&exemplars);
  const LiveResult res = pipe.run(frames);
  ASSERT_TRUE(res.status.is_ok());

  EXPECT_TRUE(res.outputs.empty());
  EXPECT_EQ(res.dropped, frames.size());
  EXPECT_EQ(pipe.dropped_by(DropReason::kPoolExhausted), frames.size());
  u64 by_reason = 0;
  for (std::size_t r = 0; r < kDropReasonCount; ++r) {
    by_reason += pipe.dropped_by(static_cast<DropReason>(r));
  }
  EXPECT_EQ(by_reason, res.dropped) << "a drop escaped the reason taxonomy";
  const auto sampled = exemplars.snapshot();
  ASSERT_FALSE(sampled.empty());
  EXPECT_EQ(sampled.back().reason, DropReason::kPoolExhausted);
  EXPECT_EQ(pipe.pool_in_use(), 0u) << "fanout rollback leaked a slot";
}

TEST(FlowObservatoryTest, ClassifierDropRuleCountsClassifierMiss) {
  const std::size_t kFlows = 8;
  const auto frames =
      frames_for_sequence(interleaved_flow_sequence(zipf_counts(kFlows, 400)));

  ShardedDataplaneOptions opts;
  opts.shards = 2;
  ShardedDataplane dp({compile_chain({"monitor"})}, {}, opts);
  // Scrub flow 0 (the elephant) at classification time.
  dp.add_flow_rule(test_tuple(0), LiveClassificationTable::kDropGraph);
  Observatory obs;
  dp.register_observatory(obs);
  const FlowReport rep = run_flows(dp, obs, frames);

  const auto counts = zipf_counts(kFlows, 400);
  EXPECT_EQ(
      rep.total.drops[static_cast<std::size_t>(DropReason::kClassifierMiss)],
      counts[0]);
  // The scrubbed elephant still shows in the heavy-hitter table (that is
  // the point of a drop rule's accounting).
  ASSERT_FALSE(rep.total.topk.empty());
  EXPECT_EQ(rep.total.topk.front().tuple.src_port, 20'000u);
  check_drop_sum_invariant(dp, obs);
  const ShardedResult res = dp.drain();
  EXPECT_TRUE(res.status.is_ok());
  EXPECT_EQ(res.outputs.size(), frames.size() - counts[0]);
}

TEST(FlowObservatoryTest, FeedWhileNotRunningCountsShutdownDrain) {
  ShardedDataplaneOptions opts;
  opts.shards = 2;
  ShardedDataplane dp({compile_chain({"monitor"})}, {}, opts);
  Observatory obs;
  dp.register_observatory(obs);

  const auto frames = frames_for_sequence({0, 1, 2});
  for (const auto& frame : frames) {
    EXPECT_FALSE(dp.feed({frame.data(), frame.size()}));
  }
  const FlowReport rep = obs.report().flows;
  EXPECT_EQ(
      rep.total.drops[static_cast<std::size_t>(DropReason::kShutdownDrain)],
      frames.size());
  EXPECT_EQ(total_dropped(dp), frames.size());
  check_drop_sum_invariant(dp, obs);
}

TEST(FlowObservatoryTest, PerGraphTenantAccounting) {
  const auto drop_factory =
      [](const StageNf& nf) -> std::unique_ptr<NetworkFunction> {
    if (nf.name == "firewall") {
      AclTable acl;
      acl.set_default_action(AclAction::kDrop);
      return std::make_unique<Firewall>(std::move(acl));
    }
    return make_builtin_nf(nf.name);
  };
  const std::size_t kFlows = 12;
  const auto counts = zipf_counts(kFlows, 1'200);
  const auto frames = frames_for_sequence(interleaved_flow_sequence(counts));

  ShardedDataplaneOptions opts;
  opts.shards = 2;
  opts.pipeline.latency_sample_every = 1;
  std::vector<ServiceGraph> graphs;
  graphs.push_back(compile_chain({"monitor"}));
  graphs.push_back(compile_chain({"firewall"}));
  ShardedDataplane dp(std::move(graphs), drop_factory, opts);
  u64 steered = 0;
  for (std::size_t f = 0; f < kFlows; f += 2) {
    dp.add_flow_rule(test_tuple(f), 1);  // even flows -> dropping tenant
    steered += counts[f];
  }
  Observatory obs;
  dp.register_observatory(obs);
  const FlowReport rep = run_flows(dp, obs, frames);

  ASSERT_EQ(rep.total.graphs.size(), 2u);
  EXPECT_EQ(rep.total.graphs[0].traffic.packets, frames.size() - steered);
  EXPECT_EQ(rep.total.graphs[1].traffic.packets, steered);
  EXPECT_EQ(rep.total.graphs[0].drops, 0u);
  EXPECT_EQ(rep.total.graphs[1].drops, steered);
  // Tenant 0's packets were delivered with sampling on: its p99 is live.
  EXPECT_GT(rep.total.graphs[0].latency.count(), 0u);
  check_drop_sum_invariant(dp, obs);
  const ShardedResult res = dp.drain();
  EXPECT_TRUE(res.status.is_ok());
}

// --- concurrency (the TSan workload) --------------------------------------

TEST(FlowObservatoryTest, ConcurrentRecordAndScrape) {
  auto acct = std::make_shared<ShardFlowAccountant>(64, 1);
  Observatory obs;
  obs.add_shard("shard0", [acct] {
    telemetry::ShardSnapshot snap;
    snap.flows = acct->snapshot();
    return snap;
  });
  obs.reset_baseline();

  constexpr int kBursts = 100'000;
  std::atomic<bool> done{false};
  std::thread worker([&] {
    for (int i = 0; i < kBursts; ++i) {
      FlowSample s;
      s.tuple = test_tuple(static_cast<std::size_t>(i % 37));
      s.hash = hash_five_tuple(s.tuple);
      s.graph = 0;
      s.packets = 2;
      s.bytes = 128;
      s.tuple_valid = true;
      acct->record_burst({&s, 1});
      if (i % 64 == 0) {
        FlowRef flow;
        flow.tuple = s.tuple;
        flow.valid = true;
        acct->record_drop(DropReason::kNfVerdict, "nf:test#0", &flow,
                          static_cast<u64>(i));
      }
    }
    done.store(true, std::memory_order_release);
  });
  u64 scrapes = 0;
  u64 last_packets = 0;
  do {
    const FlowReport rep = obs.report().flows;
    EXPECT_GE(rep.total.packets, last_packets) << "scrape went backwards";
    last_packets = rep.total.packets;
    ++scrapes;
  } while (!done.load(std::memory_order_acquire));
  worker.join();
  EXPECT_GT(scrapes, 0u);
  const FlowReport rep = obs.report().flows;
  EXPECT_EQ(rep.total.packets, static_cast<u64>(kBursts) * 2);
  EXPECT_EQ(rep.total.drops[static_cast<std::size_t>(DropReason::kNfVerdict)],
            static_cast<u64>((kBursts + 63) / 64));
}

// --- report surfaces ------------------------------------------------------

TEST(FlowObservatoryTest, ReportJsonAndPrometheusShapes) {
  const auto frames =
      frames_for_sequence(interleaved_flow_sequence(zipf_counts(16, 800)));
  ShardedDataplaneOptions opts;
  opts.shards = 2;
  ShardedDataplane dp({compile_chain({"monitor"})}, {}, opts);
  Observatory obs;
  dp.register_observatory(obs);
  const FlowReport rep = run_flows(dp, obs, frames);

  const auto doc = json::Value::parse(rep.to_json());
  ASSERT_TRUE(doc.is_ok()) << doc.error();
  const json::Value& root = doc.value();
  EXPECT_EQ(root.number_or("packets", -1),
            static_cast<double>(frames.size()));
  EXPECT_EQ(root.number_or("dropped", -1), 0.0);
  EXPECT_GT(root.number_or("flows_active", 0), 0.0);
  const json::Value* top = root.find("top");
  ASSERT_NE(top, nullptr);
  ASSERT_TRUE(top->is_array());
  ASSERT_FALSE(top->items().empty());
  EXPECT_GT(top->items()[0].number_or("packets", 0), 0.0);
  const json::Value* drops = root.find("drops");
  ASSERT_NE(drops, nullptr);
  for (const char* reason :
       {"ring_full", "pool_exhausted", "nf_verdict", "classifier_miss",
        "merge_overflow", "shutdown_drain", "malformed"}) {
    EXPECT_GE(drops->number_or(reason, -1), 0.0) << reason;
  }
  const json::Value* shards = root.find("shards");
  ASSERT_NE(shards, nullptr);
  ASSERT_EQ(shards->items().size(), 2u);

  const std::string text = rep.to_text();
  EXPECT_NE(text.find("flow"), std::string::npos);
  EXPECT_NE(text.find("drops by reason"), std::string::npos);
  const ShardedResult res = dp.drain();
  EXPECT_TRUE(res.status.is_ok());
}

TEST(FlowObservatoryTest, ServesFlowsJsonOverLoopback) {
  const auto frames =
      frames_for_sequence(interleaved_flow_sequence(zipf_counts(8, 500)));
  ShardedDataplaneOptions opts;
  opts.shards = 1;
  ShardedDataplane dp({compile_chain({"monitor"})}, {}, opts);
  Observatory obs;
  dp.register_observatory(obs);
  ASSERT_TRUE(dp.start().is_ok());
  obs.reset_baseline();

  telemetry::StatsServer server;
  telemetry::EndpointSources sources;
  sources.observatory = &obs;
  telemetry::register_standard_endpoints(server, sources);
  ASSERT_TRUE(server.start({}).is_ok());

  for (const auto& frame : frames) {
    dp.feed({frame.data(), frame.size()});
  }
  wait_until_done(dp, frames.size());

  const auto res = telemetry::http_get(server.port(), "/flows.json");
  ASSERT_TRUE(res.is_ok()) << res.error();
  EXPECT_EQ(res.value().status, 200);
  EXPECT_EQ(res.value().content_type, "application/json");
  const auto doc = json::Value::parse(res.value().body);
  ASSERT_TRUE(doc.is_ok()) << doc.error();
  EXPECT_EQ(doc.value().number_or("packets", -1),
            static_cast<double>(frames.size()));

  server.stop();
  const ShardedResult drained = dp.drain();
  EXPECT_TRUE(drained.status.is_ok());
}

TEST(FlowObservatoryTest, RegistersTimeseriesProbes) {
  auto acct = std::make_shared<ShardFlowAccountant>(64, 1);
  Observatory obs;
  obs.add_shard("shard0", [acct] {
    telemetry::ShardSnapshot snap;
    snap.flows = acct->snapshot();
    return snap;
  });

  FlowSample s;
  s.tuple = test_tuple(3);
  s.hash = hash_five_tuple(s.tuple);
  s.graph = 0;
  s.packets = 5;
  s.bytes = 640;
  s.tuple_valid = true;
  acct->record_burst({&s, 1});
  FlowRef flow;
  flow.tuple = s.tuple;
  flow.valid = true;
  acct->record_drop(DropReason::kRingFull, "director", &flow, 1);

  telemetry::MetricsRegistry reg;
  u64 now = 1'000'000'000;
  telemetry::TimeseriesCollector::Options copts;
  copts.clock = [&now] { return now; };
  telemetry::TimeseriesCollector collector(reg, copts);
  obs.register_probes(collector);
  collector.sample_once();

  const auto active = collector.history("flows_active", {});
  ASSERT_EQ(active.size(), 1u);
  EXPECT_GT(active[0].value, 0.0);
  const auto top1 = collector.history("hh_top1_share", {});
  ASSERT_EQ(top1.size(), 1u);
  EXPECT_GT(top1[0].value, 0.99);  // one flow owns all counted packets
  const auto ring_full = collector.history("drops_ring_full_total", {});
  ASSERT_EQ(ring_full.size(), 1u);
  EXPECT_EQ(ring_full[0].value, 1.0);
  const auto nf_verdict = collector.history("drops_nf_verdict_total", {});
  ASSERT_EQ(nf_verdict.size(), 1u);
  EXPECT_EQ(nf_verdict[0].value, 0.0);
}

}  // namespace
}  // namespace nfp
