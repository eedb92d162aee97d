// Firewall NF: first-match ACL filter (paper §6.1: "similar to the Click
// IPFilter element ... Access Control List (ACL) containing 100 rules").
// Its AclTable is a bit-vector classifier (acl/acl.hpp): four binary
// searches and an AND of five ⌈N/64⌉-word bitmaps per packet instead of a
// scan of the rules, in an index of at most ~20 KB at 100 rules (N² growth).
#pragma once

#include "acl/acl.hpp"
#include "nfs/nf.hpp"

namespace nfp {

class Firewall final : public NetworkFunction {
 public:
  explicit Firewall(AclTable acl) : acl_(std::move(acl)) {}
  static Firewall with_synthetic_rules(std::size_t count = 100, u64 seed = 2) {
    return Firewall(AclTable::with_synthetic_rules(count, 0.5, seed));
  }

  std::string_view type_name() const override { return "firewall"; }

  NfVerdict process(PacketView& packet) override {
    const AclAction action = acl_.evaluate(packet.five_tuple());
    if (action == AclAction::kDrop) {
      ++dropped_;
      return NfVerdict::kDrop;
    }
    ++passed_;
    return NfVerdict::kPass;
  }

  ActionProfile declared_profile() const override {
    ActionProfile p;
    p.add_read(Field::kSrcIp);
    p.add_read(Field::kDstIp);
    p.add_read(Field::kSrcPort);
    p.add_read(Field::kDstPort);
    p.add_read(Field::kProto);  // 5-tuple ACL key
    p.add_drop();
    return p;
  }

  u64 dropped() const noexcept { return dropped_; }
  u64 passed() const noexcept { return passed_; }

 private:
  AclTable acl_;
  u64 dropped_ = 0;
  u64 passed_ = 0;
};

}  // namespace nfp
