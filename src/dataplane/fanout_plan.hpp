// Segment entry, the first half of the segment kernel (merge_ops.hpp has
// the second): the fanout plan and the copies it makes. Shared by the
// simulated NfpDataplane and both live executors (pipelined and rtc).
//
// Entering a segment means distributing one upstream packet to the
// segment's NFs: versions >= 2 with at least one consumer get a copy (full
// or header-only per the segment's copy mask, the paper's §5.2 Header-Only
// Copying), and versions shared by several NFs carry extra references.
// Resolving that copy list and the per-version reference counts once at
// construction keeps the per-packet path free of counting loops — every
// plane walks the same precomputed plan.
#pragma once

#include <algorithm>
#include <array>
#include <vector>

#include "common/types.hpp"
#include "graph/service_graph.hpp"
#include "packet/packet.hpp"

namespace nfp {

struct FanoutPlan {
  struct Copy {
    u8 version = 0;
    bool full = false;
  };
  std::vector<Copy> copies;     // versions >= 2 with consumers
  std::vector<u32> extra_refs;  // [version] -> consumers - 1
  std::vector<u8> nf_version;   // [nf index] -> version consumed
};

inline FanoutPlan build_fanout_plan(const Segment& seg) {
  FanoutPlan plan;
  // The metadata word has 4 version bits: no packet can carry more.
  const auto versions = std::min<std::size_t>(seg.num_versions,
                                              Metadata::kMaxVersion);
  std::vector<u32> consumers(versions + 1, 0);
  for (const StageNf& nf : seg.nfs) {
    const auto v = static_cast<std::size_t>(nf.version);
    if (v >= 1 && v <= versions) ++consumers[v];
    plan.nf_version.push_back(
        static_cast<u8>(std::clamp<std::size_t>(v, 1, versions)));
  }
  plan.extra_refs.assign(versions + 1, 0);
  for (std::size_t v = 1; v <= versions; ++v) {
    if (consumers[v] == 0) continue;
    plan.extra_refs[v] = consumers[v] - 1;
    if (v >= 2) {
      plan.copies.push_back(FanoutPlan::Copy{
          static_cast<u8>(v),
          seg.version_needs_full_copy(static_cast<u8>(v))});
    }
  }
  return plan;
}

// One packet's versions inside a segment: [1] is the packet that entered,
// [v] its copy for version v (null when the plan makes none); [0] unused.
using VersionPackets = std::array<Packet*, Metadata::kMaxVersion + 1>;

// Makes the plan's copies of versions[1] through `alloc` — a PacketPool or
// a thread's PacketMagazine — calling on_copy(plan_copy, new_packet) after
// each (the simulated plane bills its cost model there, so a fanout the
// pool cuts short still bills the copies it made). With `consumer_refs`
// every version then gets one extra reference per additional NF consuming
// it, for planes whose branches release their versions independently
// (simulated, pipelined); rtc runs the branches one after another and
// takes none. On a dry pool the copies already made are released again
// and false is returned; versions[1] stays with the caller either way.
template <typename Alloc, typename OnCopy>
bool fan_out(const FanoutPlan& plan, VersionPackets& versions, Alloc& alloc,
             bool consumer_refs, OnCopy&& on_copy) {
  const Packet& pkt = *versions[1];
  for (std::size_t i = 0; i < plan.copies.size(); ++i) {
    const FanoutPlan::Copy& c = plan.copies[i];
    Packet* copy =
        c.full ? alloc.clone_full(pkt) : alloc.clone_header_only(pkt);
    if (copy == nullptr) {
      for (std::size_t j = 0; j < i; ++j) {
        alloc.release(versions[plan.copies[j].version]);
      }
      return false;
    }
    copy->meta().set_version(c.version);
    versions[c.version] = copy;
    on_copy(c, *copy);
  }
  if (consumer_refs) {
    for (std::size_t v = 1; v < plan.extra_refs.size(); ++v) {
      for (u32 r = 0; r < plan.extra_refs[v]; ++r) alloc.add_ref(versions[v]);
    }
  }
  return true;
}

template <typename Alloc>
bool fan_out(const FanoutPlan& plan, VersionPackets& versions, Alloc& alloc,
             bool consumer_refs) {
  return fan_out(plan, versions, alloc, consumer_refs,
                 [](const FanoutPlan::Copy&, const Packet&) {});
}

}  // namespace nfp
