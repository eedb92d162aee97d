#include "dataplane/merge_ops.hpp"

#include <algorithm>
#include <array>
#include <cstring>

#include "packet/packet_view.hpp"

namespace nfp {

namespace {

// One packet's arrivals indexed by version, bounded by the segment's
// version count and the metadata word's 4 version bits.
class ByVersion {
 public:
  explicit ByVersion(const Segment& seg)
      : top_(std::min<std::size_t>(seg.num_versions, Metadata::kMaxVersion)) {}

  void add(Packet* pkt, u8 version) noexcept {
    if (version <= top_) pkt_[version] = pkt;
    if (version == 1) base_ = pkt;
  }
  Packet* base() const noexcept { return base_; }
  Packet* get(u8 version) const noexcept {
    return version <= top_ ? pkt_[version] : nullptr;
  }

 private:
  std::size_t top_;
  std::array<Packet*, Metadata::kMaxVersion + 1> pkt_{};
  Packet* base_ = nullptr;
};

Packet* apply_ops(const Segment& seg, const ByVersion& by_version) {
  Packet* base = by_version.base();
  if (base == nullptr) return nullptr;

  PacketView base_view(*base);
  for (const MergeOp& op : seg.merge.ops) {
    Packet* src = by_version.get(op.src_version);
    if (src == nullptr) continue;
    PacketView src_view(*src);
    if (!src_view.valid() || !base_view.valid()) continue;
    switch (op.kind) {
      case MergeOp::Kind::kModify:
        switch (op.field) {
          case Field::kSrcIp: base_view.set_src_ip(src_view.src_ip()); break;
          case Field::kDstIp: base_view.set_dst_ip(src_view.dst_ip()); break;
          case Field::kSrcPort:
            base_view.set_src_port(src_view.src_port());
            break;
          case Field::kDstPort:
            base_view.set_dst_port(src_view.dst_port());
            break;
          case Field::kTtl: base_view.set_ttl(src_view.ttl()); break;
          case Field::kTos: base_view.set_tos(src_view.tos()); break;
          case Field::kPayload: {
            const auto src_body = src_view.payload();
            base_view.resize_payload(src_body.size());
            auto dst_body = base_view.mutable_payload();
            std::memcpy(dst_body.data(), src_body.data(), src_body.size());
            break;
          }
          default:
            break;
        }
        break;
      case MergeOp::Kind::kSyncAh: {
        if (src_view.has_ah() && !base_view.has_ah()) {
          // add(v2.AH, after, v1.IP) — paper Fig 6.
          AhView src_ah(src->data() + src_view.l3_offset() + kIpv4HeaderLen);
          AhView dst_ah =
              base_view.add_ah_header(src_ah.spi(), src_ah.sequence());
          std::memcpy(dst_ah.icv(), src_ah.icv(), 12);
          dst_ah.set_next_header(src_ah.next_header());
        } else if (!src_view.has_ah() && base_view.has_ah()) {
          base_view.remove_ah_header();
        }
        break;
      }
    }
  }
  return base;
}

}  // namespace

Packet* merge_segment(const Segment& seg,
                      std::span<const MergeArrival> arrivals) {
  bool dropped = false;
  if (seg.merge.drop_resolution == DropResolution::kAnyDrop) {
    for (const MergeArrival& a : arrivals) dropped |= a.drop_intent;
  } else {
    i32 best = -1;
    for (const MergeArrival& a : arrivals) {
      if (a.can_drop && a.priority > best) {
        best = a.priority;
        dropped = a.drop_intent;
      }
    }
  }
  if (dropped) return nullptr;

  ByVersion by_version(seg);
  for (const MergeArrival& a : arrivals) by_version.add(a.pkt, a.version);
  return apply_ops(seg, by_version);
}

Packet* apply_merge_operations(
    const Segment& seg, const std::vector<std::pair<Packet*, u8>>& arrivals) {
  ByVersion by_version(seg);
  for (const auto& [pkt, version] : arrivals) by_version.add(pkt, version);
  return apply_ops(seg, by_version);
}

}  // namespace nfp
