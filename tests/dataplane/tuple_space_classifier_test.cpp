// Tuple-space classifier: differential correctness against the retained
// linear scan, pruning edge cases, and the lock-free snapshot-swap read
// path under concurrent rule mutation (the TSan CI job runs this suite
// with -R TupleSpaceClassifier).
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "dataplane/live_classifier.hpp"
#include "dataplane/tuple_space_classifier.hpp"
#include "packet/headers.hpp"
#include "trafficgen/trafficgen.hpp"

namespace nfp {
namespace {

constexpr std::size_t kGraphs = 4;

// Random mask in one of three shapes: wildcard, contiguous prefix, or a
// non-contiguous bit soup (legal in a CtRule; must bypass trie pruning).
u32 random_mask(Rng& rng) {
  switch (rng.bounded(3)) {
    case 0:
      return 0;
    case 1: {
      const u32 len = static_cast<u32>(rng.range(1, 32));
      return 0xFFFFFFFFu << (32 - len);
    }
    default:
      return static_cast<u32>(rng.next());
  }
}

CtRule random_rule(Rng& rng) {
  CtRule r;
  r.src_mask = random_mask(rng);
  // Small address pools make rule/probe collisions (and thus interesting
  // overlaps) common instead of vanishingly rare.
  r.src_ip = 0x0A000000u | static_cast<u32>(rng.bounded(64));
  r.dst_mask = random_mask(rng);
  r.dst_ip = 0x0B000000u | static_cast<u32>(rng.bounded(64));
  r.match_src_port = rng.bounded(2) == 0;
  r.src_port = static_cast<u16>(1000 + rng.bounded(8));
  r.match_dst_port = rng.bounded(2) == 0;
  r.dst_port = static_cast<u16>(80 + rng.bounded(4));
  r.match_proto = rng.bounded(2) == 0;
  r.proto = rng.bounded(2) == 0 ? kProtoTcp : kProtoUdp;
  // Heavy priority collisions: the tie-break (earliest inserted wins) is
  // the part a tuple-space walk gets wrong most easily.
  r.priority = static_cast<int>(rng.bounded(4));
  switch (rng.bounded(16)) {
    case 0:
      r.graph = LiveClassificationTable::kDropGraph;
      break;
    case 1:
      r.graph = kGraphs + rng.bounded(10);  // out of range: clamps to 0
      break;
    default:
      r.graph = rng.bounded(kGraphs);
  }
  return r;
}

// Probe pool drawn from the same small address space as the rules, plus
// per-rule "fill the wildcards" hits so masked paths are exercised even
// when random draws would miss.
FiveTuple random_probe(Rng& rng) {
  FiveTuple t;
  t.src_ip = 0x0A000000u | static_cast<u32>(rng.bounded(64));
  t.dst_ip = 0x0B000000u | static_cast<u32>(rng.bounded(64));
  t.src_port = static_cast<u16>(1000 + rng.bounded(8));
  t.dst_port = static_cast<u16>(80 + rng.bounded(4));
  t.proto = rng.bounded(2) == 0 ? kProtoTcp : kProtoUdp;
  return t;
}

FiveTuple hit_probe(const CtRule& r, Rng& rng) {
  FiveTuple t;
  t.src_ip =
      (r.src_ip & r.src_mask) | (static_cast<u32>(rng.next()) & ~r.src_mask);
  t.dst_ip =
      (r.dst_ip & r.dst_mask) | (static_cast<u32>(rng.next()) & ~r.dst_mask);
  t.src_port =
      r.match_src_port ? r.src_port : static_cast<u16>(rng.bounded(65'536));
  t.dst_port =
      r.match_dst_port ? r.dst_port : static_cast<u16>(rng.bounded(65'536));
  t.proto = r.match_proto ? r.proto
                          : (rng.bounded(2) == 0 ? kProtoTcp : kProtoUdp);
  return t;
}

TEST(TupleSpaceClassifier, DifferentialFuzzMatchesLinearScan) {
  Rng rng(0xF00D);
  for (int round = 0; round < 20; ++round) {
    LiveClassificationTable tuple_table(kGraphs);
    LinearCtScan linear(kGraphs);
    std::vector<CtRule> rules;
    const std::size_t rule_count = 1 + rng.bounded(60);
    for (std::size_t i = 0; i < rule_count; ++i) {
      rules.push_back(random_rule(rng));
    }
    // Mix the two insertion paths: bulk for the bulk of it, singles after.
    const std::size_t split = rules.size() / 2;
    tuple_table.add_rules({rules.begin(), rules.begin() + split});
    for (std::size_t i = split; i < rules.size(); ++i) {
      tuple_table.add_rule(rules[i]);
    }
    for (const CtRule& r : rules) linear.add_rule(r);
    for (int e = 0; e < 4; ++e) {
      const FiveTuple f = random_probe(rng);
      const std::size_t g = rng.bounded(kGraphs + 2);  // may clamp
      tuple_table.add_exact(f, g);
      linear.add_exact(f, g);
    }

    for (int p = 0; p < 200; ++p) {
      const FiveTuple probe = random_probe(rng);
      ASSERT_EQ(tuple_table.classify(probe), linear.classify(probe))
          << "round " << round << " probe " << p;
    }
    for (const CtRule& r : rules) {
      const FiveTuple probe = hit_probe(r, rng);
      ASSERT_EQ(tuple_table.classify(probe), linear.classify(probe))
          << "round " << round << " hit-probe";
    }
  }
}

TEST(TupleSpaceClassifier, TableScaleMatchesLinearScan) {
  // The fuzz test above keeps a handful of keys per tuple. This one has
  // ct-churn's shape at a fifth of its size: thousands of cells per tuple,
  // so long probe runs and runs that wrap past the end of a tuple's cells
  // occur, plus exact-match drop rules at priority 100 and rules added
  // one at a time after the bulk load.
  constexpr std::size_t kCtGraphs = 3;
  std::vector<CtRule> rules = synthetic_ct_rules(20'000, 0x5173, kCtGraphs);
  for (std::size_t flow = 3; flow < 20'000; flow += 97) {
    const FiveTuple t = TrafficGenerator::flow_tuple(flow);
    CtRule drop;
    drop.src_ip = t.src_ip;
    drop.src_mask = 0xFFFFFFFFu;
    drop.dst_ip = t.dst_ip;
    drop.dst_mask = 0xFFFFFFFFu;
    drop.src_port = t.src_port;
    drop.match_src_port = true;
    drop.dst_port = t.dst_port;
    drop.match_dst_port = true;
    drop.proto = t.proto;
    drop.match_proto = true;
    drop.priority = 100;
    drop.graph = kCtDropGraph;
    rules.push_back(drop);
  }
  const std::size_t singles = 24;
  LiveClassificationTable ct(kCtGraphs);
  ct.add_rules({rules.begin(), rules.end() - singles});
  for (auto it = rules.end() - singles; it != rules.end(); ++it) {
    ct.add_rule(*it);
  }
  LinearCtScan linear(kCtGraphs);
  linear.add_rules(rules);
  ASSERT_EQ(ct.rule_entries(), rules.size());

  std::size_t drops = 0;
  for (std::size_t flow = 0; flow < 20'000; flow += 7) {
    const FiveTuple probe = TrafficGenerator::flow_tuple(flow);
    const std::size_t want = linear.classify(probe);
    ASSERT_EQ(ct.classify(probe), want) << "flow " << flow;
    drops += want == kCtDropGraph;
  }
  EXPECT_GT(drops, 0u) << "the exact drop rules must be reachable";
  // A hit probe for every rule: only a few keys per tuple sit in a probe
  // run that wraps past the end of the tuple's cells or runs three deep,
  // and a probe for every 50th rule reached none of them.
  Rng rng(0x7AB1E);
  for (std::size_t i = 0; i < rules.size(); ++i) {
    const FiveTuple probe = hit_probe(rules[i], rng);
    ASSERT_EQ(ct.classify(probe), linear.classify(probe)) << "rule " << i;
  }
  for (int i = 0; i < 500; ++i) {
    FiveTuple miss = random_probe(rng);
    miss.src_ip = 0xC0A80000u | static_cast<u32>(rng.bounded(65'536));
    ASSERT_EQ(ct.classify(miss), 0u);
    ASSERT_EQ(linear.classify(miss), 0u);
  }
}

TEST(TupleSpaceClassifier, PriorityTieResolvesToEarliestInserted) {
  LiveClassificationTable ct(kGraphs);
  // Same priority, different mask signatures, both matching the probe: the
  // rule inserted first must win even though its tuple is walked later.
  CtRule wide;
  wide.src_ip = 0x0A000000;
  wide.src_mask = 0xFF000000;
  wide.priority = 5;
  wide.graph = 1;
  CtRule narrow;
  narrow.src_ip = 0x0A000005;
  narrow.src_mask = 0xFFFFFFFF;
  narrow.priority = 5;
  narrow.graph = 2;
  ct.add_rule(wide);
  ct.add_rule(narrow);
  EXPECT_EQ(ct.classify({0x0A000005, 0, 1, 2, kProtoTcp}), 1u);

  // Same signature and same masked key too: first insertion still wins.
  LiveClassificationTable ct2(kGraphs);
  CtRule a = wide;
  a.graph = 3;
  CtRule b = wide;
  b.graph = 2;
  ct2.add_rule(a);
  ct2.add_rule(b);
  EXPECT_EQ(ct2.classify({0x0A000005, 0, 1, 2, kProtoTcp}), 3u);
}

TEST(TupleSpaceClassifier, DropRuleVerdictSurvives) {
  LiveClassificationTable ct(kGraphs);
  CtRule scrub;
  scrub.src_ip = 0xCB007100;  // 203.0.113.0/24
  scrub.src_mask = 0xFFFFFF00;
  scrub.priority = 100;
  scrub.graph = LiveClassificationTable::kDropGraph;
  ct.add_rule(scrub);
  EXPECT_EQ(ct.classify({0xCB007142, 0, 1, 2, kProtoTcp}),
            LiveClassificationTable::kDropGraph);
  EXPECT_EQ(ct.classify({0xCB007242, 0, 1, 2, kProtoTcp}), 0u);
}

TEST(TupleSpaceClassifier, NonContiguousMasksBypassTriePruning) {
  LiveClassificationTable ct(kGraphs);
  // A mask with holes can't live in the prefix trie; the classifier must
  // still probe its tuple for every packet rather than wrongly pruning it.
  CtRule holes;
  holes.src_ip = 0x0A0000AA;
  holes.src_mask = 0x00FF00FF;  // non-contiguous
  holes.priority = 1;
  holes.graph = 2;
  ct.add_rule(holes);
  // These sources share no leading prefix with the rule's src_ip but do
  // match under the holey mask (masked value 0x000000AA in both).
  EXPECT_EQ(ct.classify({0xFF0012AA, 0, 1, 2, kProtoTcp}), 2u);
  EXPECT_EQ(ct.classify({0xDE00BEAA, 0, 1, 2, kProtoTcp}), 2u);
  // And one that does not (second byte breaks the masked equality).
  EXPECT_EQ(ct.classify({0xFF0112AA, 0, 1, 2, kProtoTcp}), 0u);
}

TEST(TupleSpaceClassifier, TupleCountTracksDistinctMaskSignatures) {
  LiveClassificationTable ct(kGraphs);
  EXPECT_EQ(ct.tuple_count(), 0u);
  CtRule r;
  r.src_ip = 0x0A000000;
  r.src_mask = 0xFF000000;
  ct.add_rule(r);
  r.src_ip = 0x0B000000;  // same signature, different value: same tuple
  ct.add_rule(r);
  EXPECT_EQ(ct.tuple_count(), 1u);
  r.src_mask = 0xFFFF0000;  // new mask: new tuple
  ct.add_rule(r);
  EXPECT_EQ(ct.tuple_count(), 2u);
  r.match_proto = true;  // same masks, new predicate flag: new tuple
  r.proto = kProtoTcp;
  ct.add_rule(r);
  EXPECT_EQ(ct.tuple_count(), 3u);

  const auto synth = synthetic_ct_rules(5'000, 7, kGraphs);
  LiveClassificationTable big(kGraphs);
  big.add_rules(synth);
  EXPECT_EQ(big.rule_entries(), 5'000u);
  // The whole point: tuple count stays tiny relative to rule count.
  EXPECT_LE(big.tuple_count(), 64u);
  EXPECT_GE(big.tuple_count(), 8u);
}

// The TSan workload: readers classify lock-free (direct and through a
// MicroflowCache) while the main thread keeps mutating rules. Any data
// race between snapshot publication, epoch pinning and reclamation shows
// up here; the final verdicts must also match a reference built from the
// same end-state rules.
TEST(TupleSpaceClassifier, ConcurrentClassifyMutateIsRaceFreeAndConverges) {
  constexpr int kReaders = 3;
  constexpr int kMutations = 60;
  LiveClassificationTable ct(kGraphs);
  LinearCtScan reference(kGraphs);

  Rng seed_rng(0xBEEF);
  std::vector<CtRule> all_rules;
  for (int i = 0; i < kMutations; ++i) all_rules.push_back(random_rule(seed_rng));

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&ct, &stop, t] {
      Rng rng(100 + static_cast<u64>(t));
      MicroflowCache cache(ct, 128);
      u64 sink = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        cache.sync_generation();
        for (int i = 0; i < 64; ++i) {
          const FiveTuple probe = random_probe(rng);
          sink += ct.classify(probe);
          sink += cache.classify(probe);
        }
      }
      // Keep the compiler honest about the loop above.
      volatile u64 keep = sink;
      (void)keep;
    });
  }

  for (const CtRule& r : all_rules) {
    ct.add_rule(r);
    reference.add_rule(r);
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& th : readers) th.join();

  Rng rng(0xD1FF);
  for (int p = 0; p < 500; ++p) {
    const FiveTuple probe = random_probe(rng);
    EXPECT_EQ(ct.classify(probe), reference.classify(probe));
  }
}

}  // namespace
}  // namespace nfp
