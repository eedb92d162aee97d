// The remaining Table 2 NFs: gateway, caching, proxy, compression, traffic
// shaper — plus DelayNf, the configurable-cost firewall variant used by the
// paper's complexity sweep (Fig 9: "busily loops for a given number of
// cycles after modifying the packet").
#pragma once

#include <algorithm>
#include <unordered_set>
#include <vector>

#include "nfs/nf.hpp"
#include "qos/token_bucket.hpp"

namespace nfp {

// Gateway (Cisco MGX row): reads src/dst addresses to select an uplink.
class Gateway final : public NetworkFunction {
 public:
  std::string_view type_name() const override { return "gateway"; }

  NfVerdict process(PacketView& packet) override {
    last_uplink_ = (packet.src_ip() ^ packet.dst_ip()) & 0x3;
    ++forwarded_;
    return NfVerdict::kPass;
  }

  ActionProfile declared_profile() const override {
    ActionProfile p;
    p.add_read(Field::kSrcIp);
    p.add_read(Field::kDstIp);
    return p;
  }

  u32 last_uplink() const noexcept { return last_uplink_; }
  u64 forwarded() const noexcept { return forwarded_; }

 private:
  u32 last_uplink_ = 0;
  u64 forwarded_ = 0;
};

// Caching (nginx row): tracks hot objects keyed by destination + payload
// fingerprint; read-only on the packet.
class Caching final : public NetworkFunction {
 public:
  std::string_view type_name() const override { return "caching"; }

  NfVerdict process(PacketView& packet) override {
    u64 key = (static_cast<u64>(packet.dst_ip()) << 16) | packet.dst_port();
    const auto body = packet.payload();
    for (std::size_t i = 0; i < body.size() && i < 16; ++i) {
      key = key * 31 + body[i];
    }
    if (!cache_.insert(key).second) ++hits_;
    return NfVerdict::kPass;
  }

  ActionProfile declared_profile() const override {
    ActionProfile p;
    p.add_read(Field::kDstIp);
    p.add_read(Field::kDstPort);
    p.add_read(Field::kPayload);
    return p;
  }

  u64 hits() const noexcept { return hits_; }
  std::size_t entries() const noexcept { return cache_.size(); }

 private:
  std::unordered_set<u64> cache_;
  u64 hits_ = 0;
};

// Proxy (squid row): terminates the client side and re-originates the
// connection — rewrites both addresses.
class Proxy final : public NetworkFunction {
 public:
  explicit Proxy(u32 proxy_ip = 0x0A0A0A0A, u32 origin_ip = 0x0A0A0A0B)
      : proxy_ip_(proxy_ip), origin_ip_(origin_ip) {}

  std::string_view type_name() const override { return "proxy"; }

  NfVerdict process(PacketView& packet) override {
    (void)packet.src_ip();
    (void)packet.dst_ip();
    packet.set_src_ip(proxy_ip_);
    packet.set_dst_ip(origin_ip_);
    return NfVerdict::kPass;
  }

  ActionProfile declared_profile() const override {
    ActionProfile p;
    p.add_read(Field::kSrcIp);
    p.add_write(Field::kSrcIp);
    p.add_read(Field::kDstIp);
    p.add_write(Field::kDstIp);
    return p;
  }

 private:
  u32 proxy_ip_;
  u32 origin_ip_;
};

// Compression (Cisco IOS row): run-length encodes the payload in place —
// a payload writer, used to exercise full-copy parallelism.
class Compression final : public NetworkFunction {
 public:
  std::string_view type_name() const override { return "compression"; }

  NfVerdict process(PacketView& packet) override {
    auto body = packet.mutable_payload();
    if (body.size() < 2) return NfVerdict::kPass;
    // In-place RLE: byte,count pairs; falls back to no-op if it would grow.
    std::vector<u8> out;
    out.reserve(body.size());
    std::size_t i = 0;
    while (i < body.size() && out.size() + 2 <= body.size()) {
      const u8 value = body[i];
      std::size_t run = 1;
      while (i + run < body.size() && body[i + run] == value && run < 255) {
        ++run;
      }
      out.push_back(value);
      out.push_back(static_cast<u8>(run));
      i += run;
    }
    if (i < body.size()) return NfVerdict::kPass;  // incompressible
    std::copy(out.begin(), out.end(), body.begin());
    packet.resize_payload(out.size());
    ++compressed_;
    return NfVerdict::kPass;
  }

  ActionProfile declared_profile() const override {
    ActionProfile p;
    p.add_read(Field::kPayload);
    p.add_write(Field::kPayload);
    return p;
  }

  u64 compressed() const noexcept { return compressed_; }

 private:
  u64 compressed_ = 0;
};

// Traffic shaper (linux tc row): token-bucket profile measurement; touches
// no packet fields (the pacing delay itself is applied by the simulator's
// cost model). The default mode only *marks* non-conforming traffic in its
// statistics, matching Table 2's shaper (no drop action); policing mode
// (drop out-of-profile packets, like `tc police`) is opt-in and changes the
// declared profile accordingly.
class TrafficShaper final : public NetworkFunction {
 public:
  explicit TrafficShaper(u64 rate_bytes_per_sec = 1'250'000'000,
                         u64 burst_bytes = 64 * 1024, bool policing = false)
      : bucket_(rate_bytes_per_sec, burst_bytes), policing_(policing) {}

  std::string_view type_name() const override { return "shaper"; }

  NfVerdict process(PacketView& packet) override {
    const std::size_t len = packet.frame_length();
    bytes_seen_ += len;
    // Arrival time: the injection timestamp carried on the buffer.
    const bool conforms = bucket_.conform(packet.inject_time(), len);
    if (!conforms) {
      ++out_of_profile_;
      if (policing_) return NfVerdict::kDrop;
    }
    return NfVerdict::kPass;
  }

  ActionProfile declared_profile() const override {
    ActionProfile p;
    if (policing_) p.add_drop();
    return p;
  }

  u64 bytes_seen() const noexcept { return bytes_seen_; }
  u64 out_of_profile() const noexcept { return out_of_profile_; }
  u64 rate() const noexcept { return bucket_.rate(); }

 private:
  TokenBucket bucket_;
  bool policing_;
  u64 bytes_seen_ = 0;
  u64 out_of_profile_ = 0;
};

// DelayNf: the paper's modified Firewall whose per-packet processing cost is
// a configurable number of CPU cycles (Fig 9). It performs the firewall's
// field reads plus a write (the paper's variant "modif[ies] the packet"),
// and its `cycles` parameter drives the simulator's service time.
class DelayNf final : public NetworkFunction {
 public:
  explicit DelayNf(u32 cycles) : cycles_(cycles) {}

  std::string_view type_name() const override { return "delaynf"; }

  NfVerdict process(PacketView& packet) override {
    (void)packet.five_tuple();
    packet.set_tos(static_cast<u8>(packet.tos() | 0x4));  // mark as inspected
    // The busy loop is virtual: the simulator charges `cycles_` of service
    // time; a small real loop keeps the functional path honest.
    volatile u32 sink = 0;
    for (u32 i = 0; i < cycles_ % 64; ++i) sink = sink + i;
    return NfVerdict::kPass;
  }

  ActionProfile declared_profile() const override {
    ActionProfile p;
    p.add_read(Field::kSrcIp);
    p.add_read(Field::kDstIp);
    p.add_read(Field::kSrcPort);
    p.add_read(Field::kDstPort);
    p.add_read(Field::kProto);
    p.add_read(Field::kTos);
    p.add_write(Field::kTos);
    return p;
  }

  u32 cycles() const noexcept { return cycles_; }

 private:
  u32 cycles_;
};

}  // namespace nfp
