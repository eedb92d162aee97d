// PacketView: the accessor layer through which NFs read and modify packets.
//
// This is NFP's "DPDK based interfaces for NFs to access and modify packets"
// (paper §5.4). Every access goes through a typed getter/setter so that the
// action inspector can attach an ActionRecorder and derive an NF's action
// profile automatically (reads, writes, header add/remove, drops) — the
// same mechanism the paper's inspection tool uses on the packet data
// structure calls.
#pragma once

#include <optional>
#include <span>

#include "common/hash.hpp"
#include "common/types.hpp"
#include "packet/fields.hpp"
#include "packet/headers.hpp"
#include "packet/packet.hpp"

namespace nfp {

// Receives a callback for each packet access; implemented by the inspector.
class ActionRecorder {
 public:
  virtual ~ActionRecorder() = default;
  virtual void on_read(Field field) = 0;
  virtual void on_write(Field field) = 0;
  virtual void on_add_remove(Field field) = 0;
};

class PacketView {
 public:
  explicit PacketView(Packet& pkt, ActionRecorder* recorder = nullptr)
      : pkt_(&pkt), rec_(recorder) {
    parse();
  }

  bool valid() const noexcept { return valid_; }

  // --- packet metadata -------------------------------------------------------
  // Not Table 2 header fields, so the recorder logs nothing: the frame's
  // length in bytes and its arrival time (simulated ns on the simulated
  // plane, monotonic ns on the live planes).
  std::size_t frame_length() const noexcept { return pkt_->length(); }
  SimTime inject_time() const noexcept { return pkt_->inject_time(); }

  // --- L3 fields -------------------------------------------------------------
  u32 src_ip() const {
    record_read(Field::kSrcIp);
    return ip().src_ip();
  }
  u32 dst_ip() const {
    record_read(Field::kDstIp);
    return ip().dst_ip();
  }
  u8 ttl() const {
    record_read(Field::kTtl);
    return ip().ttl();
  }
  u8 tos() const {
    record_read(Field::kTos);
    return ip().tos();
  }
  u8 protocol() const {
    record_read(Field::kProto);
    return proto_;
  }

  void set_src_ip(u32 v) {
    record_write(Field::kSrcIp);
    ip().set_src_ip(v);
  }
  void set_dst_ip(u32 v) {
    record_write(Field::kDstIp);
    ip().set_dst_ip(v);
  }
  void set_ttl(u8 v) {
    record_write(Field::kTtl);
    ip().set_ttl(v);
  }
  void set_tos(u8 v) {
    record_write(Field::kTos);
    ip().set_tos(v);
  }

  // --- L4 fields ---------------------------------------------------------------
  u16 src_port() const {
    record_read(Field::kSrcPort);
    return l4_port(0);
  }
  u16 dst_port() const {
    record_read(Field::kDstPort);
    return l4_port(2);
  }
  void set_src_port(u16 v) {
    record_write(Field::kSrcPort);
    set_l4_port(0, v);
  }
  void set_dst_port(u16 v) {
    record_write(Field::kDstPort);
    set_l4_port(2, v);
  }

  FiveTuple five_tuple() const {
    return FiveTuple{src_ip(), dst_ip(), src_port(), dst_port(), protocol()};
  }

  // --- payload -----------------------------------------------------------------
  std::span<const u8> payload() const {
    record_read(Field::kPayload);
    return {pkt_->data() + payload_off_, payload_len()};
  }
  std::span<u8> mutable_payload() {
    // A mutable span both exposes the current bytes and accepts new ones;
    // in-place transforms (encryption, compression) read and write.
    record_read(Field::kPayload);
    record_write(Field::kPayload);
    return {pkt_->data() + payload_off_, payload_len()};
  }
  // Resizes the payload in place (e.g. the compressor NF); `new_len` must not
  // exceed the buffer capacity.
  void resize_payload(std::size_t new_len);

  // --- AH header (VPN NF) --------------------------------------------------------
  bool has_ah() const noexcept { return ah_off_.has_value(); }
  // Inserts an IPsec AH between the IPv4 header and the L4 segment;
  // updates IP protocol/total-length fields. Returns the AH view.
  AhView add_ah_header(u32 spi, u32 sequence);
  // Removes the AH, restoring the original next protocol.
  void remove_ah_header();
  AhView ah() {
    record_read(Field::kAhHeader);
    return AhView(pkt_->data() + *ah_off_);
  }

  // --- checksums ------------------------------------------------------------------
  // Recomputes the IPv4 (and, when requested, L4) checksums after writes.
  void update_checksums(bool include_l4 = false);
  bool verify_ip_checksum() const;

  // --- raw offsets (used by the merger and tests) ------------------------------------
  std::size_t l3_offset() const noexcept { return l3_off_; }
  std::size_t l4_offset() const noexcept { return l4_off_; }
  std::size_t payload_offset() const noexcept { return payload_off_; }
  std::size_t payload_len() const noexcept {
    return pkt_->length() > payload_off_ ? pkt_->length() - payload_off_ : 0;
  }

  // Re-parses after structural changes done outside this view.
  void reparse() { parse(); }

 private:
  void parse();

  Ipv4View ip() const noexcept { return Ipv4View(pkt_->data() + l3_off_); }

  u16 l4_port(std::size_t off) const noexcept {
    return load_be16(pkt_->data() + l4_off_ + off);
  }
  void set_l4_port(std::size_t off, u16 v) noexcept {
    store_be16(pkt_->data() + l4_off_ + off, v);
  }

  void record_read(Field f) const {
    if (rec_ != nullptr) rec_->on_read(f);
  }
  void record_write(Field f) const {
    if (rec_ != nullptr) rec_->on_write(f);
  }
  void record_add_remove(Field f) const {
    if (rec_ != nullptr) rec_->on_add_remove(f);
  }

  Packet* pkt_;
  ActionRecorder* rec_;
  bool valid_ = false;
  u8 proto_ = 0;
  std::size_t l3_off_ = 0;
  std::size_t l4_off_ = 0;
  std::size_t payload_off_ = 0;
  std::optional<std::size_t> ah_off_;
};

}  // namespace nfp
