// IDS / IPS NFs: signature matching over the payload (paper §6.1: "a simple
// NF similar to the core signature matching component of the Snort intrusion
// detection system with 100 signature inspection rules").
//
// The IDS only raises alerts (detection); the IPS variant additionally drops
// matching packets — the pair used by the paper's Priority(IPS > Firewall)
// example (§3).
#pragma once

#include <string>
#include <vector>

#include "common/rng.hpp"
#include "dpi/aho_corasick.hpp"
#include "nfs/nf.hpp"

namespace nfp {

class Ids : public NetworkFunction {
 public:
  explicit Ids(const std::vector<std::string>& signatures)
      : matcher_(signatures) {}

  static std::vector<std::string> synthetic_signatures(std::size_t count = 100,
                                                       u64 seed = 3) {
    Rng rng(seed);
    std::vector<std::string> sigs;
    sigs.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      std::string s;
      const std::size_t len = rng.range(6, 12);
      for (std::size_t j = 0; j < len; ++j) {
        s.push_back(static_cast<char>('A' + rng.bounded(26)));
      }
      sigs.push_back(std::move(s));
    }
    return sigs;
  }

  std::string_view type_name() const override { return "ids"; }

  NfVerdict process(PacketView& packet) override {
    if (match(packet)) ++alerts_;
    return NfVerdict::kPass;
  }

  ActionProfile declared_profile() const override {
    ActionProfile p;
    p.add_read(Field::kSrcIp);
    p.add_read(Field::kDstIp);
    p.add_read(Field::kSrcPort);
    p.add_read(Field::kDstPort);
    p.add_read(Field::kProto);  // flow context for alerts
    p.add_read(Field::kPayload);
    return p;
  }

  u64 alerts() const noexcept { return alerts_; }

 protected:
  bool match(PacketView& packet) {
    // Reads the 5-tuple (flow context for the alert) plus the payload;
    // all signatures are matched in one Aho-Corasick pass, as Snort's core
    // matcher does.
    (void)packet.five_tuple();
    return matcher_.contains(packet.payload());
  }

 private:
  AhoCorasick matcher_;
  u64 alerts_ = 0;
};

class Ips final : public Ids {
 public:
  using Ids::Ids;

  std::string_view type_name() const override { return "ips"; }

  NfVerdict process(PacketView& packet) override {
    if (match(packet)) {
      ++blocked_;
      return NfVerdict::kDrop;
    }
    return NfVerdict::kPass;
  }

  ActionProfile declared_profile() const override {
    ActionProfile p = Ids::declared_profile();
    p.add_drop();
    return p;
  }

  u64 blocked() const noexcept { return blocked_; }

 private:
  u64 blocked_ = 0;
};

}  // namespace nfp
