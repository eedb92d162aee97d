// Property-based tests: random policies compile into graphs that always
// satisfy NFP's structural invariants, whatever the rule mix.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "actions/dependency.hpp"
#include "common/rng.hpp"
#include "orch/compiler.hpp"
#include "policy/policy.hpp"
#include "../support/random_policy.hpp"

namespace nfp {
namespace {

const std::vector<std::string>& nf_universe() {
  static const std::vector<std::string> kNfs = {
      "monitor", "firewall", "lb",    "vpn",         "ids",   "gateway",
      "nat",     "caching",  "proxy", "compression", "shaper"};
  return kNfs;
}

class CompilerPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(CompilerPropertyTest, RandomPoliciesYieldWellFormedGraphs) {
  Rng rng(static_cast<u64>(GetParam()) * 7919 + 13);
  const ActionTable table = ActionTable::with_builtin_nfs();
  const Policy policy = test_support::random_policy(rng, nf_universe());

  CompileReport report;
  auto result = compile_policy(policy, table, {}, &report);
  ASSERT_TRUE(result.is_ok()) << result.error() << "\n" << policy.to_string();
  const ServiceGraph& graph = result.value();

  // (1) Every NF appears exactly once.
  std::multiset<std::string> in_graph;
  for (const Segment& seg : graph.segments()) {
    for (const StageNf& nf : seg.nfs) in_graph.insert(nf.name);
  }
  const auto names = policy.nf_names();
  EXPECT_EQ(in_graph.size(), names.size());
  for (const auto& name : names) {
    EXPECT_EQ(in_graph.count(name), 1u) << name;
  }

  // (2) Structural invariants per segment.
  std::map<std::string, std::size_t> segment_of;
  for (std::size_t s = 0; s < graph.segments().size(); ++s) {
    const Segment& seg = graph.segments()[s];
    ASSERT_FALSE(seg.nfs.empty());
    bool has_v1 = false;
    for (const StageNf& nf : seg.nfs) {
      segment_of[nf.name] = s;
      ASSERT_GE(nf.version, 1);
      ASSERT_LE(nf.version, seg.num_versions);
      has_v1 |= nf.version == 1;
      // Payload-touching NFs off version 1 need full copies.
      const auto& profile = table.profile(nf.name);
      if (nf.version != 1 && (profile.reads(Field::kPayload) ||
                              profile.writes(Field::kPayload))) {
        EXPECT_TRUE(seg.version_needs_full_copy(nf.version))
            << nf.name << " in " << graph.to_string();
      }
    }
    EXPECT_TRUE(has_v1) << "version 1 must have a consumer";
    if (seg.is_parallel()) {
      EXPECT_EQ(seg.merge.total_count, seg.nfs.size());
      for (const MergeOp& op : seg.merge.ops) {
        EXPECT_GT(op.src_version, 1);
        EXPECT_LE(op.src_version, seg.num_versions);
      }
    } else {
      EXPECT_EQ(seg.num_versions, 1);
    }
  }

  // (3) Order rules over non-parallelizable pairs stay sequential and
  //     keep their direction.
  for (const Rule& rule : policy.rules()) {
    const auto* o = std::get_if<OrderRule>(&rule);
    if (o == nullptr) continue;
    if (!segment_of.contains(o->before) || !segment_of.contains(o->after)) {
      continue;
    }
    const PairAnalysis analysis = analyze_pair(table.profile(o->before),
                                               table.profile(o->after));
    if (!analysis.parallelizable) {
      EXPECT_LT(segment_of[o->before], segment_of[o->after])
          << rule_to_string(rule) << "\n"
          << graph.to_string();
    } else {
      EXPECT_LE(segment_of[o->before], segment_of[o->after])
          << rule_to_string(rule) << "\n"
          << graph.to_string();
    }
  }

  // (4) Copies accounted consistently.
  std::size_t copies = 0;
  for (const Segment& seg : graph.segments()) copies += seg.copies();
  EXPECT_EQ(copies, graph.copies_per_packet());
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompilerPropertyTest,
                         ::testing::Range(0, 40));

}  // namespace
}  // namespace nfp
