#include "packet/packet_pool.hpp"

#include <algorithm>

#include "common/logging.hpp"
#include "packet/headers.hpp"
#include "packet/packet_view.hpp"

namespace nfp {

void PacketPool::copy_packet_full(Packet& dst, const Packet& src) noexcept {
  std::memcpy(dst.data(), src.data(), src.length());
  dst.meta() = src.meta();
  dst.set_inject_time(src.inject_time());
  dst.lat() = src.lat();
  dst.flow() = src.flow();
}

std::size_t header_copy_len(const Packet& src) noexcept {
  std::size_t len = kHeaderCopyBytes;
  if (src.length() > kEthHeaderLen + kIpv4HeaderLen &&
      src.data()[kEthHeaderLen + 9] == kProtoAh) {
    // The parse only reads; PacketView takes a mutable packet because NFs
    // write through it.
    const PacketView view(const_cast<Packet&>(src));
    if (view.valid()) len = std::max(len, view.payload_offset());
  }
  return std::min(src.length(), len);
}

void PacketPool::copy_packet_header_only(Packet& dst,
                                         const Packet& src) noexcept {
  const std::size_t copy_len = dst.length();
  std::memcpy(dst.data(), src.data(), copy_len);
  dst.meta() = src.meta();
  dst.set_inject_time(src.inject_time());
  dst.lat() = src.lat();
  dst.flow() = src.flow();

  // Fix up the copied IP total-length so the truncated copy is a valid
  // packet from the parallel NF's point of view (§5.2 "copy" action).
  if (copy_len >= kEthHeaderLen + kIpv4HeaderLen) {
    Ipv4View ip(dst.data() + kEthHeaderLen);
    if (ip.version() == 4) {
      const std::size_t ip_bytes = copy_len - kEthHeaderLen;
      ip.set_total_length(static_cast<u16>(ip_bytes));
    }
  }
}

Packet* PacketPool::clone_header_only(const Packet& src) noexcept {
  Packet* dst = alloc(header_copy_len(src));
  if (dst == nullptr) return nullptr;
  copy_packet_header_only(*dst, src);
  return dst;
}

void PacketPool::note_underflow(u32 slot) noexcept {
  if (underflow_total_.fetch_add(1, std::memory_order_relaxed) == 0) {
    log_error("PacketPool: refcount underflow on slot ", slot,
              " (double release?) — slot withheld from the free list");
  }
}

}  // namespace nfp
