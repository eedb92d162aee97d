// Tests for the policy compiler: the service-graph construction workflow of
// paper §4.4, validated against the paper's own examples (Fig 1(b), Fig 13).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "orch/compiler.hpp"
#include "policy/parser.hpp"

namespace nfp {
namespace {

class CompilerTest : public ::testing::Test {
 protected:
  ServiceGraph compile(const std::string& text,
                       const CompilerOptions& options = {}) {
    const auto parsed = parse_policy(text);
    EXPECT_TRUE(parsed.is_ok()) << parsed.error();
    auto result = compile_policy(parsed.value(), table_, options, &report_);
    EXPECT_TRUE(result.is_ok()) << result.error();
    return std::move(result).take();
  }

  const StageNf* find_nf(const Segment& seg, const std::string& name) {
    const auto it =
        std::find_if(seg.nfs.begin(), seg.nfs.end(),
                     [&](const StageNf& nf) { return nf.name == name; });
    return it == seg.nfs.end() ? nullptr : &*it;
  }

  ActionTable table_ = ActionTable::with_builtin_nfs();
  CompileReport report_;
};

TEST_F(CompilerTest, NorthSouthChainMatchesFig1b) {
  // Paper Fig 1: VPN -> Monitor -> Firewall -> LB compiles to
  // VPN -> {Monitor ∥ Firewall} -> LB with zero packet copies.
  const ServiceGraph g =
      compile("policy ns\nchain(vpn, monitor, firewall, lb)");
  ASSERT_EQ(g.equivalent_length(), 3u) << g.to_string();
  EXPECT_EQ(g.segments()[0].nfs[0].name, "vpn");
  ASSERT_TRUE(g.segments()[1].is_parallel());
  EXPECT_NE(find_nf(g.segments()[1], "monitor"), nullptr);
  EXPECT_NE(find_nf(g.segments()[1], "firewall"), nullptr);
  EXPECT_EQ(g.segments()[2].nfs[0].name, "lb");
  EXPECT_EQ(g.copies_per_packet(), 0u) << "paper: 0% resource overhead";
  EXPECT_EQ(g.structure(), "1+2+1");
}

TEST_F(CompilerTest, Fig1bPolicyFormCompilesTheSame) {
  // The Table 1 policy for the Fig 1(b) service graph.
  const ServiceGraph g = compile(
      "policy ns\nposition(vpn, first)\norder(firewall, before, lb)\n"
      "order(monitor, before, lb)");
  ASSERT_EQ(g.equivalent_length(), 3u) << g.to_string();
  EXPECT_EQ(g.segments()[0].nfs[0].name, "vpn");
  ASSERT_TRUE(g.segments()[1].is_parallel());
  EXPECT_EQ(g.segments()[2].nfs[0].name, "lb");
  EXPECT_EQ(g.copies_per_packet(), 0u);
}

TEST_F(CompilerTest, WestEastChainParallelizesWithOneCopy) {
  // Paper Fig 13: IDS -> Monitor -> LB gives one 64 B copy (8.8% overhead).
  const ServiceGraph g = compile("policy we\nchain(ids, monitor, lb)");
  ASSERT_EQ(g.equivalent_length(), 1u) << g.to_string();
  const Segment& seg = g.segments()[0];
  ASSERT_EQ(seg.nfs.size(), 3u);
  EXPECT_EQ(seg.copies(), 1u);
  // IDS reads the payload, so it must stay on version 1 (the original).
  const StageNf* ids = find_nf(seg, "ids");
  const StageNf* lb = find_nf(seg, "lb");
  ASSERT_NE(ids, nullptr);
  ASSERT_NE(lb, nullptr);
  EXPECT_EQ(ids->version, 1);
  EXPECT_EQ(lb->version, 2);
  EXPECT_FALSE(seg.version_needs_full_copy(2))
      << "LB touches only headers; a 64B header copy suffices";
  // The merger takes the LB's rewritten addresses.
  bool sip_from_v2 = false;
  for (const MergeOp& op : seg.merge.ops) {
    if (op.kind == MergeOp::Kind::kModify && op.field == Field::kSrcIp) {
      sip_from_v2 = op.src_version == 2;
    }
  }
  EXPECT_TRUE(sip_from_v2);
  EXPECT_EQ(seg.merge.total_count, 3u);
}

TEST_F(CompilerTest, SequentialOnlyChainStaysSequential) {
  // NAT writes the ports the LB reads; VPN must precede readers.
  const ServiceGraph g = compile("policy s\nchain(nat, lb)");
  EXPECT_EQ(g.equivalent_length(), 2u);
  EXPECT_TRUE(g.is_sequential());
}

TEST_F(CompilerTest, PriorityRuleForcesParallelWithPriorities) {
  const ServiceGraph g = compile("policy p\npriority(ips > firewall)");
  ASSERT_EQ(g.equivalent_length(), 1u);
  const Segment& seg = g.segments()[0];
  ASSERT_EQ(seg.nfs.size(), 2u);
  const StageNf* ips = find_nf(seg, "ips");
  const StageNf* fw = find_nf(seg, "firewall");
  ASSERT_NE(ips, nullptr);
  ASSERT_NE(fw, nullptr);
  EXPECT_GT(ips->priority, fw->priority);
  EXPECT_EQ(seg.merge.drop_resolution, DropResolution::kPriority);
  EXPECT_EQ(seg.copies(), 0u) << "both NFs only read";
}

TEST_F(CompilerTest, OrderDerivedParallelismUsesAnyDropResolution) {
  const ServiceGraph g = compile("policy o\nchain(monitor, firewall)");
  ASSERT_EQ(g.equivalent_length(), 1u);
  EXPECT_EQ(g.segments()[0].merge.drop_resolution, DropResolution::kAnyDrop);
}

TEST_F(CompilerTest, NoCopyModeSequencesCopyPairs) {
  CompilerOptions opt;
  opt.parallelize_with_copy = false;
  const ServiceGraph g = compile("policy we\nchain(ids, monitor, lb)", opt);
  // IDS ∥ Monitor still free; LB needs a copy => pushed to a second stage.
  ASSERT_EQ(g.equivalent_length(), 2u) << g.to_string();
  EXPECT_TRUE(g.segments()[0].is_parallel());
  EXPECT_EQ(g.segments()[1].nfs[0].name, "lb");
  EXPECT_EQ(g.copies_per_packet(), 0u);
}

TEST_F(CompilerTest, PositionLastPinsToTail) {
  const ServiceGraph g = compile(
      "policy t\nposition(lb, last)\norder(monitor, before, firewall)");
  ASSERT_EQ(g.equivalent_length(), 2u);
  EXPECT_EQ(g.segments().back().nfs[0].name, "lb");
  EXPECT_TRUE(g.segments()[0].is_parallel());
}

TEST_F(CompilerTest, FreeNfsJoinTheParallelStage) {
  const ServiceGraph g = compile(
      "policy f\norder(monitor, before, firewall)\nnf(shaper)");
  ASSERT_EQ(g.equivalent_length(), 1u) << g.to_string();
  EXPECT_EQ(g.segments()[0].nfs.size(), 3u);
}

TEST_F(CompilerTest, RuleFreeDependentPairsAreSequencedWithWarning) {
  // NAT and LB have no rule but depend on each other: declaration order
  // decides and a warning is emitted.
  const ServiceGraph g = compile("policy w\nnf(nat)\nnf(lb)");
  EXPECT_EQ(g.equivalent_length(), 2u);
  EXPECT_EQ(g.segments()[0].nfs[0].name, "nat");
  EXPECT_FALSE(report_.warnings.empty());
}

TEST_F(CompilerTest, PayloadReaderVersusPayloadWriterFullCopy) {
  // NIDS reads the payload, compression rewrites it: parallelizable, but
  // the copy must be a full-packet copy and the merger takes the payload
  // from the compression NF's version.
  const ServiceGraph g = compile("policy pc\nchain(nids, compression)");
  ASSERT_EQ(g.equivalent_length(), 1u) << g.to_string();
  const Segment& seg = g.segments()[0];
  ASSERT_EQ(seg.nfs.size(), 2u);
  const StageNf* comp = find_nf(seg, "compression");
  ASSERT_NE(comp, nullptr);
  EXPECT_EQ(comp->version, 2);
  EXPECT_TRUE(seg.version_needs_full_copy(2));
  bool payload_op = false;
  for (const MergeOp& op : seg.merge.ops) {
    payload_op |= op.kind == MergeOp::Kind::kModify &&
                  op.field == Field::kPayload && op.src_version == 2;
  }
  EXPECT_TRUE(payload_op);
}

TEST_F(CompilerTest, PayloadWriterSharesItsVersionWithNoOne) {
  // Compression rewrites only the payload and the firewall reads only
  // headers, so they parallelize — but a payload rewrite may resize the
  // packet under the firewall's parse, so the firewall takes a header copy
  // instead of sharing version 1 (in the paper's deployment they run on
  // two cores at once).
  const ServiceGraph g = compile("policy pw\nchain(compression, firewall)");
  ASSERT_EQ(g.equivalent_length(), 1u) << g.to_string();
  const Segment& seg = g.segments()[0];
  const StageNf* comp = find_nf(seg, "compression");
  const StageNf* fw = find_nf(seg, "firewall");
  ASSERT_NE(comp, nullptr);
  ASSERT_NE(fw, nullptr);
  EXPECT_EQ(comp->version, 1);
  EXPECT_EQ(fw->version, 2);
  EXPECT_FALSE(seg.version_needs_full_copy(2));
}

TEST_F(CompilerTest, VpnStaysOnOriginalVersionMonitorTakesTheCopy) {
  // Monitor (reads headers) ∥ VPN (encrypts payload, adds AH): the compiler
  // keeps the payload-touching VPN on version 1 — the copy then only needs
  // the 64 B header region for the monitor, and since the VPN's version *is*
  // the base, no merge operations are required at all.
  const ServiceGraph g = compile("policy v\nchain(monitor, vpn)");
  ASSERT_EQ(g.equivalent_length(), 1u) << g.to_string();
  const Segment& seg = g.segments()[0];
  const StageNf* vpn = find_nf(seg, "vpn");
  const StageNf* mon = find_nf(seg, "monitor");
  ASSERT_NE(vpn, nullptr);
  ASSERT_NE(mon, nullptr);
  EXPECT_EQ(vpn->version, 1);
  EXPECT_EQ(mon->version, 2);
  EXPECT_FALSE(seg.version_needs_full_copy(2))
      << "the monitor reads only headers";
  EXPECT_TRUE(seg.merge.ops.empty()) << "v1 already carries every change";
}

TEST_F(CompilerTest, ErrorsOnUnknownNf) {
  const auto parsed = parse_policy("order(bogus, before, lb)");
  ASSERT_TRUE(parsed.is_ok());
  const auto result = compile_policy(parsed.value(), table_);
  ASSERT_FALSE(result.is_ok());
  EXPECT_NE(result.error().find("bogus"), std::string::npos);
}

TEST_F(CompilerTest, ErrorsOnConflictingPolicy) {
  const auto parsed =
      parse_policy("order(monitor, before, lb)\norder(lb, before, monitor)");
  ASSERT_TRUE(parsed.is_ok());
  const auto result = compile_policy(parsed.value(), table_);
  ASSERT_FALSE(result.is_ok());
}

TEST_F(CompilerTest, ErrorsOnEmptyPolicy) {
  EXPECT_FALSE(compile_policy(Policy{}, table_).is_ok());
}

TEST_F(CompilerTest, PositionOrderContradictionWarns) {
  const ServiceGraph g = compile(
      "policy pw\nposition(vpn, first)\norder(monitor, before, vpn)");
  (void)g;
  ASSERT_FALSE(report_.warnings.empty());
  EXPECT_NE(report_.warnings[0].find("Position"), std::string::npos);
}

TEST_F(CompilerTest, PrioritySplitAcrossSegmentsWarns) {
  // The chain rules level firewall (with monitor and vpn) a segment ahead
  // of ips, so no merge can enforce Priority(ips > firewall): the report
  // names the rule and both segments. The other two Priority pairs share
  // a segment and draw no such warning.
  const ServiceGraph g = compile(
      "policy split\nchain(ips, nat)\nchain(monitor, vpn)\n"
      "chain(monitor, nat)\nchain(vpn, nat)\npriority(ips > firewall)\n"
      "priority(firewall > vpn)\npriority(ips > lb)");
  const auto segment_of = [&](const std::string& nf) {
    for (std::size_t s = 0; s < g.segments().size(); ++s) {
      if (find_nf(g.segments()[s], nf) != nullptr) return s;
    }
    return g.segments().size();
  };
  const std::size_t ips = segment_of("ips");
  const std::size_t firewall = segment_of("firewall");
  ASSERT_NE(ips, firewall) << g.to_string();
  ASSERT_EQ(segment_of("vpn"), firewall) << g.to_string();
  ASSERT_EQ(segment_of("lb"), ips) << g.to_string();
  std::vector<std::string> split;
  for (const std::string& w : report_.warnings) {
    if (w.find("spans two segments") != std::string::npos) split.push_back(w);
  }
  ASSERT_EQ(split.size(), 1u);
  EXPECT_NE(split[0].find("Priority(ips > firewall)"), std::string::npos)
      << split[0];
  EXPECT_NE(split[0].find("'ips' runs in segment [" + std::to_string(ips) +
                          "]"),
            std::string::npos)
      << split[0];
  EXPECT_NE(split[0].find("'firewall' in segment [" +
                          std::to_string(firewall) + "]"),
            std::string::npos)
      << split[0];
}

TEST_F(CompilerTest, LongRealisticChainCompiles) {
  // A 7-NF chain (the paper cites chains up to length seven).
  const ServiceGraph g = compile(
      "policy long\nchain(vpn, monitor, ids, firewall, gateway, lb, shaper)");
  EXPECT_LT(g.equivalent_length(), 7u)
      << "some parallelism must be found: " << g.to_string();
  EXPECT_EQ(g.nf_count(), 7u);
  // Every NF appears exactly once.
  std::size_t seen = 0;
  for (const Segment& s : g.segments()) seen += s.nfs.size();
  EXPECT_EQ(seen, 7u);
}

TEST_F(CompilerTest, ReportListsDecisions) {
  compile("policy d\nchain(ids, monitor, lb)");
  EXPECT_GE(report_.decisions.size(), 3u);
  const auto it = std::find_if(
      report_.decisions.begin(), report_.decisions.end(),
      [](const PairDecision& d) {
        return d.nf1 == "ids" && d.nf2 == "monitor";
      });
  ASSERT_NE(it, report_.decisions.end());
  EXPECT_EQ(it->verdict, PairParallelism::kNoCopy);
}

}  // namespace
}  // namespace nfp
