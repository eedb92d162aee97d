// Monitor NF: per-flow packet/byte counters keyed by the 5-tuple
// (paper §6.1: "maintains per-flow counters ... the counter table uses the
// hash value of the 5-tuple as the key"), NetFlow-style.
//
// Counting is delegated to ExactFlowCounters (flow/flow_counters.hpp) — the
// same unit and accumulator the flow observatory's heavy-hitter and tenant
// accounting use, so there is exactly one flow-counting code path. State is
// exportable/importable so an overloaded monitor can be scaled out with
// flow migration (paper §7's "migrate some states ... redirect some flows
// to the new instance").
#pragma once

#include <utility>
#include <vector>

#include "flow/flow_counters.hpp"
#include "nfs/nf.hpp"

namespace nfp {

class Monitor final : public NetworkFunction {
 public:
  // Kept as an alias so existing callers (and migrated state) read in the
  // shared counting unit.
  using FlowStats = PacketByteCount;
  using ExportedFlow = ExactFlowCounters::ExportedFlow;

  explicit Monitor(std::size_t flow_capacity = 65536)
      : flows_(flow_capacity) {}

  std::string_view type_name() const override { return "monitor"; }

  NfVerdict process(PacketView& packet) override {
    flows_.record(packet.five_tuple(), packet.frame_length());
    return NfVerdict::kPass;
  }

  ActionProfile declared_profile() const override {
    ActionProfile p;
    p.add_read(Field::kSrcIp);
    p.add_read(Field::kDstIp);
    p.add_read(Field::kSrcPort);
    p.add_read(Field::kDstPort);
    p.add_read(Field::kProto);  // 5-tuple flow key
    return p;
  }

  std::size_t flow_count() const noexcept { return flows_.size(); }
  u64 total_packets() const noexcept { return flows_.total_packets(); }
  u64 evictions() const noexcept { return flows_.evictions(); }
  const FlowStats* flow(const FiveTuple& t) const { return flows_.flow(t); }

  // Read-only view for telemetry scans (top-N, exact-vs-sketch checks).
  const ExactFlowCounters& counters() const noexcept { return flows_; }

  // --- state migration (§7 scaling) ------------------------------------------
  // Removes and returns every flow for which `pred(key)` holds.
  template <typename Pred>
  std::vector<ExportedFlow> extract_flows(Pred&& pred) {
    return flows_.extract_if(std::forward<Pred>(pred));
  }

  void absorb_flows(const std::vector<ExportedFlow>& flows) {
    flows_.absorb(flows);
  }

 private:
  ExactFlowCounters flows_;
};

}  // namespace nfp
