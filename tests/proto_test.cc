// Tests for the NetCache packet format: construction, header swapping, wire
// sizes, and byte-level serialization round trips (including fuzz-ish
// malformed input handling).

#include <array>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "proto/key.h"
#include "proto/packet.h"
#include "proto/value.h"

namespace netcache {
namespace {

TEST(KeyTest, FromUint64RoundTrip) {
  Key k = Key::FromUint64(0xdeadbeefcafeull);
  EXPECT_EQ(k.AsUint64(), 0xdeadbeefcafeull);
}

TEST(KeyTest, EqualityAndHash) {
  Key a = Key::FromUint64(1);
  Key b = Key::FromUint64(1);
  Key c = Key::FromUint64(2);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(a.Hash(), b.Hash());
  EXPECT_NE(a.Hash(), c.Hash());
}

TEST(KeyTest, FromStringDeterministicAndSpread) {
  Key a = Key::FromString("user:1234");
  Key b = Key::FromString("user:1234");
  Key c = Key::FromString("user:1235");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(KeyTest, ToHexLength) {
  EXPECT_EQ(Key::FromUint64(0).ToHex().size(), 2 * kKeySize);
}

TEST(ValueTest, FromStringTruncatesAtMax) {
  std::string big(200, 'x');
  Value v = Value::FromString(big);
  EXPECT_EQ(v.size(), kMaxValueSize);
}

TEST(ValueTest, NumUnits) {
  EXPECT_EQ(Value::FromString("").NumUnits(), 0u);
  EXPECT_EQ(Value::FromString("a").NumUnits(), 1u);
  EXPECT_EQ(Value::FromString(std::string(16, 'a')).NumUnits(), 1u);
  EXPECT_EQ(Value::FromString(std::string(17, 'a')).NumUnits(), 2u);
  EXPECT_EQ(Value::Filler(1, 128).NumUnits(), 8u);
}

TEST(ValueTest, FillerDeterministic) {
  EXPECT_EQ(Value::Filler(7, 64), Value::Filler(7, 64));
  EXPECT_NE(Value::Filler(7, 64), Value::Filler(8, 64));
}

// The byte-at-a-time formula Value::Filler replaced, kept as its reference:
// all kMaxValueSize bytes, zero past the (clamped) size.
std::array<uint8_t, kMaxValueSize> ReferenceFillerBytes(uint64_t tag, size_t size) {
  std::array<uint8_t, kMaxValueSize> bytes{};
  for (size_t i = 0; i < size && i < kMaxValueSize; ++i) {
    bytes[i] = static_cast<uint8_t>((tag >> ((i % 8) * 8)) ^ (i * 0x9d));
  }
  return bytes;
}

std::vector<uint64_t> FillerTags() {
  std::vector<uint64_t> tags = {0, 1, 0xff, 0x8000000000000000ull, ~0ull, 0x0123456789abcdefull,
                                7 * 0x9e3779b97f4a7c15ull + 3};
  Rng rng(19);
  for (int i = 0; i < 16; ++i) {
    tags.push_back(rng.Next());
  }
  return tags;
}

TEST(ValueTest, FillerMatchesByteFormulaWithZeroTail) {
  for (uint64_t tag : FillerTags()) {
    for (size_t size = 0; size <= kMaxValueSize; ++size) {
      Value v = Value::Filler(tag, size);
      ASSERT_EQ(v.size(), size);
      std::array<uint8_t, kMaxValueSize> want = ReferenceFillerBytes(tag, size);
      ASSERT_EQ(std::memcmp(v.data(), want.data(), kMaxValueSize), 0)
          << "tag " << tag << " size " << size;
    }
  }
}

TEST(ValueTest, FillerClampsAboveMax) {
  for (uint64_t tag : FillerTags()) {
    for (size_t size : {kMaxValueSize + 1, size_t{200}, size_t{255}, size_t{256}, size_t{4096}}) {
      Value v = Value::Filler(tag, size);
      ASSERT_EQ(v.size(), kMaxValueSize);
      std::array<uint8_t, kMaxValueSize> want = ReferenceFillerBytes(tag, kMaxValueSize);
      ASSERT_EQ(std::memcmp(v.data(), want.data(), kMaxValueSize), 0)
          << "tag " << tag << " size " << size;
    }
  }
}

TEST(PacketTest, MakeGetUsesUdp) {
  Packet p = MakeGet(1, 2, Key::FromUint64(9), 42);
  EXPECT_EQ(p.l4.protocol, L4Protocol::kUdp);  // §4.1: reads over UDP
  EXPECT_EQ(p.nc.op, OpCode::kGet);
  EXPECT_EQ(p.ip.src, 1u);
  EXPECT_EQ(p.ip.dst, 2u);
  EXPECT_EQ(p.l4.dst_port, kNetCachePort);
  EXPECT_FALSE(p.nc.has_value);
}

TEST(PacketTest, MakePutUsesTcp) {
  Packet p = MakePut(1, 2, Key::FromUint64(9), Value::Filler(9, 32), 43);
  EXPECT_EQ(p.l4.protocol, L4Protocol::kTcp);  // §4.1: writes over TCP
  EXPECT_EQ(p.nc.op, OpCode::kPut);
  EXPECT_TRUE(p.nc.has_value);
  EXPECT_EQ(p.nc.value.size(), 32u);
}

TEST(PacketTest, SwapSrcDst) {
  Packet p = MakeGet(10, 20, Key::FromUint64(1), 1);
  p.l4.src_port = 1111;
  p.l4.dst_port = 2222;
  p.SwapSrcDst();
  EXPECT_EQ(p.ip.src, 20u);
  EXPECT_EQ(p.ip.dst, 10u);
  EXPECT_EQ(p.eth.src, 20u);
  EXPECT_EQ(p.eth.dst, 10u);
  EXPECT_EQ(p.l4.src_port, 2222);
  EXPECT_EQ(p.l4.dst_port, 1111);
}

TEST(PacketTest, WireSizeGrowsWithValue) {
  Packet get = MakeGet(1, 2, Key::FromUint64(1), 1);
  Packet reply = get;
  reply.nc.has_value = true;
  reply.nc.value = Value::Filler(1, 128);
  EXPECT_EQ(reply.WireSize(), get.WireSize() + 128);
}

TEST(PacketTest, TcpFramingLargerThanUdp) {
  Packet udp = MakeGet(1, 2, Key::FromUint64(1), 1);
  Packet tcp = MakeDelete(1, 2, Key::FromUint64(1), 1);
  EXPECT_EQ(tcp.WireSize(), udp.WireSize() + 12);  // TCP(20) - UDP(8)
}

TEST(PacketSerializationTest, GetRoundTrip) {
  Packet p = MakeGet(3, 4, Key::FromUint64(77), 5);
  Result<Packet> back = ParsePacket(SerializePacket(p));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->ip.src, p.ip.src);
  EXPECT_EQ(back->ip.dst, p.ip.dst);
  EXPECT_EQ(back->nc.op, p.nc.op);
  EXPECT_EQ(back->nc.seq, p.nc.seq);
  EXPECT_EQ(back->nc.key, p.nc.key);
  EXPECT_EQ(back->nc.has_value, p.nc.has_value);
}

TEST(PacketSerializationTest, RandomPacketsRoundTrip) {
  Rng rng(99);
  for (int i = 0; i < 500; ++i) {
    Packet p;
    p.eth.src = rng.Next();
    p.eth.dst = rng.Next();
    p.ip.src = static_cast<IpAddress>(rng.Next());
    p.ip.dst = static_cast<IpAddress>(rng.Next());
    p.ip.ttl = static_cast<uint8_t>(rng.NextBounded(256));
    p.l4.protocol = rng.NextBernoulli(0.5) ? L4Protocol::kTcp : L4Protocol::kUdp;
    p.l4.src_port = static_cast<uint16_t>(rng.Next());
    p.l4.dst_port = static_cast<uint16_t>(rng.Next());
    p.is_netcache = true;
    p.nc.op = static_cast<OpCode>(rng.NextBounded(12));
    p.nc.seq = static_cast<uint32_t>(rng.Next());
    p.nc.key = Key::FromUint64(rng.Next());
    p.nc.has_value = rng.NextBernoulli(0.5);
    if (p.nc.has_value) {
      p.nc.value = Value::Filler(rng.Next(), rng.NextBounded(kMaxValueSize + 1));
    }
    Result<Packet> back = ParsePacket(SerializePacket(p));
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_EQ(back->nc.op, p.nc.op);
    EXPECT_EQ(back->nc.key, p.nc.key);
    if (p.nc.has_value) {
      EXPECT_EQ(back->nc.value, p.nc.value);
    }
  }
}

TEST(PacketSerializationTest, NonNetCachePacketRoundTrip) {
  Packet p;
  p.is_netcache = false;
  p.ip.src = 8;
  p.ip.dst = 9;
  Result<Packet> back = ParsePacket(SerializePacket(p));
  ASSERT_TRUE(back.ok());
  EXPECT_FALSE(back->is_netcache);
  EXPECT_EQ(back->ip.dst, 9u);
}

TEST(PacketSerializationTest, TruncatedInputRejected) {
  Packet p = MakePut(1, 2, Key::FromUint64(3), Value::Filler(3, 64), 4);
  std::vector<uint8_t> bytes = SerializePacket(p);
  for (size_t cut : {0ul, 5ul, 20ul, bytes.size() - 10, bytes.size() - 1}) {
    std::vector<uint8_t> truncated(bytes.begin(), bytes.begin() + static_cast<ptrdiff_t>(cut));
    EXPECT_FALSE(ParsePacket(truncated).ok()) << "cut=" << cut;
  }
}

TEST(PacketSerializationTest, BadOpCodeRejected) {
  Packet p = MakeGet(1, 2, Key::FromUint64(3), 4);
  std::vector<uint8_t> bytes = SerializePacket(p);
  // op byte sits right after the headers: find and corrupt it.
  // Header layout: eth(16) + ip(9) + l4(5) + is_nc(1) = offset 31.
  bytes[31] = 0xee;
  EXPECT_FALSE(ParsePacket(bytes).ok());
}

TEST(OpCodeTest, NamesAndPredicates) {
  EXPECT_STREQ(OpCodeName(OpCode::kGet), "GET");
  EXPECT_STREQ(OpCodeName(OpCode::kCacheUpdateReject), "CACHE_UPDATE_REJECT");
  EXPECT_TRUE(IsReadOp(OpCode::kGet));
  EXPECT_FALSE(IsReadOp(OpCode::kGetReply));
  EXPECT_TRUE(IsWriteOp(OpCode::kPut));
  EXPECT_TRUE(IsWriteOp(OpCode::kCachedDelete));
  EXPECT_FALSE(IsWriteOp(OpCode::kGet));
  EXPECT_TRUE(IsReplyOp(OpCode::kGetReply));
  EXPECT_TRUE(IsReplyOp(OpCode::kPutReply));
  EXPECT_FALSE(IsReplyOp(OpCode::kCacheUpdate));
}

}  // namespace
}  // namespace netcache
