// Segment exit, the second half of the segment kernel (fanout_plan.hpp has
// the first): drop resolution and the byte-level merge operations (paper
// §5.2-5.3, Fig 6). Shared by the simulated NfpDataplane and the live
// pipeline.
#pragma once

#include <span>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "graph/service_graph.hpp"
#include "packet/packet.hpp"

namespace nfp {

// One NF's output arriving at a segment's merge: the packet reference plus
// the sender stage's metadata needed for drop resolution. The drop intent
// travels here rather than on the packet (§5.2's nil bit): parallel NFs
// sharing one packet version would otherwise race writing it, and one
// sender's intent could clobber another's.
struct MergeArrival {
  Packet* pkt = nullptr;
  i32 priority = 0;
  u8 version = 1;
  bool can_drop = false;
  bool drop_intent = false;
};

// Resolves one packet's drop verdict over its arrivals (§5.2 nil packets):
// any-drop ORs every intent (order-derived parallelism keeps sequential
// semantics); priority adopts the intent of the highest-priority NF that
// can drop. A surviving packet gets the segment's merge operations.
// Returns the survivor — the version-1 packet — or nullptr when the packet
// is dropped or no version-1 arrival exists (a malformed hand-built graph).
// The arrivals' references stay with the caller.
Packet* merge_segment(const Segment& seg,
                      std::span<const MergeArrival> arrivals);

// Releases every arrival's reference except one on `survivor` (null: all
// of them), the release pattern of planes whose fan_out took consumer refs.
template <typename Alloc>
void release_arrivals(std::span<const MergeArrival> arrivals,
                      const Packet* survivor, Alloc& alloc) {
  bool kept_one = false;
  for (const MergeArrival& a : arrivals) {
    if (a.pkt == survivor && !kept_one) {
      kept_one = true;
      continue;
    }
    alloc.release(a.pkt);
  }
}

// `arrivals` lists (packet, version) pairs received by the merger; several
// arrivals may reference the same packet. Applies the segment's merge
// operations onto the version-1 packet and returns it; nullptr when no
// version-1 packet is present (malformed hand-built graph). Allocates
// nothing, and ignores versions above min(num_versions, kMaxVersion),
// also as an op's source.
// Checksums are left exactly as the winning NFs wrote them so the merged
// packet is byte-identical to the sequential execution (§6.4).
Packet* apply_merge_operations(
    const Segment& seg, const std::vector<std::pair<Packet*, u8>>& arrivals);

}  // namespace nfp
