// NAT NF: source NAT with per-flow port allocation (the iptables row of
// paper Table 2 — rewrites the whole 5-tuple). Bindings live in a bounded
// LRU flow table like a real conntrack table.
#pragma once

#include "flow/flow_table.hpp"
#include "nfs/nf.hpp"

namespace nfp {

class Nat final : public NetworkFunction {
 public:
  explicit Nat(u32 external_ip = 0xC0A80001, u16 port_base = 20000,
               std::size_t binding_capacity = 65536)
      : external_ip_(external_ip),
        port_base_(port_base == 0 ? u16{1} : port_base),
        next_port_(port_base_),
        bindings_(binding_capacity) {}

  std::string_view type_name() const override { return "nat"; }

  NfVerdict process(PacketView& packet) override {
    const FiveTuple t = packet.five_tuple();
    u16& binding = bindings_.get_or_create(t);
    if (binding == 0) binding = allocate_port();
    packet.set_src_ip(external_ip_);
    packet.set_src_port(binding);
    // DNAT leg: map the destination onto the internal server pool.
    packet.set_dst_ip(packet.dst_ip() ^ kDnatMask);
    packet.set_dst_port(packet.dst_port());
    return NfVerdict::kPass;
  }

  ActionProfile declared_profile() const override {
    ActionProfile p;
    p.add_read(Field::kSrcIp);
    p.add_write(Field::kSrcIp);
    p.add_read(Field::kDstIp);
    p.add_write(Field::kDstIp);
    p.add_read(Field::kSrcPort);
    p.add_write(Field::kSrcPort);
    p.add_read(Field::kDstPort);
    p.add_write(Field::kDstPort);
    p.add_read(Field::kProto);  // 5-tuple binding key
    return p;
  }

  std::size_t binding_count() const noexcept { return bindings_.size(); }
  u64 evictions() const noexcept { return bindings_.evictions(); }

  static constexpr u32 kDnatMask = 0x00000100;

 private:
  // Hands out ports port_base..65535 in turn, then wraps to port_base;
  // never 0, the table's "unassigned" marker. Once more than
  // 65536 - port_base flows are live, live bindings share ports.
  u16 allocate_port() {
    const u16 port = next_port_;
    next_port_ = port == 0xFFFF ? port_base_ : static_cast<u16>(port + 1);
    return port;
  }

  u32 external_ip_;
  u16 port_base_;
  u16 next_port_;
  FlowTable<u16> bindings_;  // 0 = unassigned
};

}  // namespace nfp
