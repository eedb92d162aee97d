// Unit tests for the packet buffer, metadata word, pool and builder.
#include <gtest/gtest.h>

#include "packet/builder.hpp"
#include "packet/packet.hpp"
#include "packet/packet_magazine.hpp"
#include "packet/packet_pool.hpp"
#include "packet/packet_view.hpp"

namespace nfp {
namespace {

TEST(Metadata, PacksAndUnpacksAllFields) {
  Metadata m;
  m.set_mid(0x12345);
  m.set_pid(0x12'3456'789AULL);
  m.set_version(0xD);
  EXPECT_EQ(m.mid(), 0x12345u);
  EXPECT_EQ(m.pid(), 0x12'3456'789AULL);
  EXPECT_EQ(m.version(), 0xD);
}

TEST(Metadata, FieldsAreIndependent) {
  Metadata m;
  m.set_mid(Metadata::kMaxMid);
  m.set_pid(Metadata::kMaxPid);
  m.set_version(Metadata::kMaxVersion);
  m.set_pid(7);
  EXPECT_EQ(m.mid(), Metadata::kMaxMid);
  EXPECT_EQ(m.pid(), 7u);
  EXPECT_EQ(m.version(), Metadata::kMaxVersion);
  m.set_mid(0);
  EXPECT_EQ(m.pid(), 7u);
  EXPECT_EQ(m.version(), Metadata::kMaxVersion);
}

TEST(Metadata, TruncatesToBitWidths) {
  Metadata m;
  m.set_mid(0xFFFFFFFF);
  EXPECT_EQ(m.mid(), Metadata::kMaxMid);
  m.set_version(0xFF);
  EXPECT_EQ(m.version(), 0xF);
}

TEST(PacketPool, AllocateReleaseCycle) {
  PacketPool pool(4);
  EXPECT_EQ(pool.available(), 4u);
  Packet* a = pool.alloc(100);
  Packet* b = pool.alloc(100);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_NE(a, b);
  EXPECT_EQ(pool.in_use(), 2u);
  pool.release(a);
  pool.release(b);
  EXPECT_EQ(pool.in_use(), 0u);
}

TEST(PacketPool, ExhaustionReturnsNull) {
  PacketPool pool(2);
  Packet* a = pool.alloc();
  Packet* b = pool.alloc();
  EXPECT_EQ(pool.alloc(), nullptr);
  pool.release(a);
  EXPECT_NE(pool.alloc(), nullptr);
  pool.release(b);
}

TEST(PacketPool, RefCountingDelaysReuse) {
  PacketPool pool(1);
  Packet* p = pool.alloc(64);
  pool.add_ref(p);
  EXPECT_EQ(p->ref_count(), 2);
  pool.release(p);
  EXPECT_EQ(pool.alloc(), nullptr) << "still referenced";
  pool.release(p);
  EXPECT_NE(pool.alloc(), nullptr);
}

TEST(Packet, PrependAndTrim) {
  PacketPool pool(1);
  Packet* p = pool.alloc(100);
  const u8* orig = p->data();
  u8* front = p->prepend(24);
  EXPECT_EQ(front + 24, orig);
  EXPECT_EQ(p->length(), 124u);
  p->trim_front(24);
  EXPECT_EQ(p->data(), orig);
  EXPECT_EQ(p->length(), 100u);
  pool.release(p);
}

TEST(Packet, InsertShiftsLeadingBytes) {
  PacketPool pool(1);
  Packet* p = pool.alloc(8);
  for (u8 i = 0; i < 8; ++i) p->data()[i] = i;
  u8* gap = p->insert(4, 2);
  gap[0] = 0xAA;
  gap[1] = 0xBB;
  EXPECT_EQ(p->length(), 10u);
  const u8 expect[] = {0, 1, 2, 3, 0xAA, 0xBB, 4, 5, 6, 7};
  for (std::size_t i = 0; i < 10; ++i) EXPECT_EQ(p->data()[i], expect[i]) << i;
  p->erase(4, 2);
  for (u8 i = 0; i < 8; ++i) EXPECT_EQ(p->data()[i], i) << int(i);
  pool.release(p);
}

TEST(Builder, ProducesValidTcpFrame) {
  PacketPool pool(4);
  PacketSpec spec;
  spec.frame_size = 128;
  Packet* p = build_packet(pool, spec);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->length(), 128u);

  PacketView v(*p);
  ASSERT_TRUE(v.valid());
  EXPECT_EQ(v.src_ip(), spec.tuple.src_ip);
  EXPECT_EQ(v.dst_ip(), spec.tuple.dst_ip);
  EXPECT_EQ(v.src_port(), spec.tuple.src_port);
  EXPECT_EQ(v.dst_port(), spec.tuple.dst_port);
  EXPECT_EQ(v.protocol(), kProtoTcp);
  EXPECT_TRUE(v.verify_ip_checksum());
  pool.release(p);
}

TEST(Builder, ProducesValidUdpFrame) {
  PacketPool pool(4);
  PacketSpec spec;
  spec.tuple.proto = kProtoUdp;
  spec.frame_size = 200;
  Packet* p = build_packet(pool, spec);
  ASSERT_NE(p, nullptr);
  PacketView v(*p);
  ASSERT_TRUE(v.valid());
  EXPECT_EQ(v.protocol(), kProtoUdp);
  EXPECT_EQ(v.payload_offset(),
            kEthHeaderLen + kIpv4HeaderLen + kUdpHeaderLen);
  pool.release(p);
}

TEST(Builder, MinimumFrameSizeIs64) {
  PacketPool pool(1);
  PacketSpec spec;
  spec.frame_size = 10;
  Packet* p = build_packet(pool, spec);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->length(), 64u);
  pool.release(p);
}

TEST(Builder, PayloadBytesAreWritten) {
  PacketPool pool(1);
  PacketSpec spec;
  spec.frame_size = 96;
  const u8 payload[] = {1, 2, 3, 4, 5};
  Packet* p = build_packet_with_payload(pool, spec, payload);
  ASSERT_NE(p, nullptr);
  PacketView v(*p);
  auto body = v.payload();
  ASSERT_GE(body.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_EQ(body[i], payload[i]);
  EXPECT_EQ(body[5], 0) << "padded with zeros";
  pool.release(p);
}

TEST(HeaderOnlyCopy, CopiesHeadersAndFixesLength) {
  PacketPool pool(2);
  PacketSpec spec;
  spec.frame_size = 1000;
  Packet* orig = build_packet(pool, spec);
  ASSERT_NE(orig, nullptr);

  Packet* copy = pool.clone_header_only(*orig);
  ASSERT_NE(copy, nullptr);
  EXPECT_EQ(copy->length(), kHeaderCopyBytes);
  EXPECT_EQ(copy->meta().pid(), orig->meta().pid());

  PacketView v(*copy);
  ASSERT_TRUE(v.valid());
  EXPECT_EQ(v.src_ip(), spec.tuple.src_ip);
  EXPECT_EQ(v.dst_port(), spec.tuple.dst_port);
  // Paper §5.2: the copy's IP length must describe the copy itself.
  Ipv4View ip(copy->data() + kEthHeaderLen);
  EXPECT_EQ(ip.total_length(), kHeaderCopyBytes - kEthHeaderLen);
  pool.release(orig);
  pool.release(copy);
}

TEST(HeaderOnlyCopy, ExtendsThroughL4HeaderBehindAh) {
  // An upstream VPN's AH header (24 B) pushes the TCP header past the
  // first 64 bytes; the copy must still carry the ports, or an NF on it
  // (an LB hashing the 5-tuple) diverges from the sequential chain.
  PacketPool pool(4);
  PacketSpec spec;
  spec.frame_size = 600;
  Packet* orig = build_packet(pool, spec);
  ASSERT_NE(orig, nullptr);
  PacketView(*orig).add_ah_header(/*spi=*/7, /*seq=*/1);
  const std::size_t l4_end =
      kEthHeaderLen + kIpv4HeaderLen + kAhHeaderLen + kTcpHeaderLen;
  EXPECT_EQ(header_copy_len(*orig), l4_end);

  PacketMagazine mag(pool, 0);
  for (Packet* copy : {pool.clone_header_only(*orig),
                       mag.clone_header_only(*orig)}) {
    ASSERT_NE(copy, nullptr);
    EXPECT_EQ(copy->length(), l4_end);
    PacketView v(*copy);
    ASSERT_TRUE(v.valid());
    EXPECT_TRUE(v.has_ah());
    EXPECT_EQ(v.src_port(), spec.tuple.src_port);
    EXPECT_EQ(v.dst_port(), spec.tuple.dst_port);
    pool.release(copy);
  }
  pool.release(orig);
}

TEST(HeaderOnlyCopy, SmallPacketCopiedWhole) {
  PacketPool pool(2);
  PacketSpec spec;
  spec.frame_size = 64;
  Packet* orig = build_packet(pool, spec);
  Packet* copy = pool.clone_header_only(*orig);
  ASSERT_NE(copy, nullptr);
  EXPECT_EQ(copy->length(), 64u);
  EXPECT_EQ(0, std::memcmp(copy->data(), orig->data(), 64));
  pool.release(orig);
  pool.release(copy);
}

TEST(FullCopy, DuplicatesEntirePacket) {
  PacketPool pool(2);
  PacketSpec spec;
  spec.frame_size = 700;
  Packet* orig = build_packet(pool, spec);
  Packet* copy = pool.clone_full(*orig);
  ASSERT_NE(copy, nullptr);
  EXPECT_EQ(copy->length(), orig->length());
  EXPECT_EQ(0, std::memcmp(copy->data(), orig->data(), orig->length()));
  pool.release(orig);
  pool.release(copy);
}

}  // namespace
}  // namespace nfp
