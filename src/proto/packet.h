// NetCache packet format (paper Fig 2(b)).
//
// NetCache is an application-level protocol embedded in the L4 payload; a
// reserved L4 port (kNetCachePort) tells NetCache switches to invoke the
// custom processing. Reads use UDP, writes use TCP (§4.1). We model the
// L2/L3/L4 headers with enough structure to (a) route in the simulator,
// (b) charge correct wire sizes for serialization delay, and (c) perform the
// switch's address-swap when it answers a read directly.

#ifndef NETCACHE_PROTO_PACKET_H_
#define NETCACHE_PROTO_PACKET_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "proto/key.h"
#include "proto/key_digest.h"
#include "proto/value.h"

namespace netcache {

// Reserved L4 port for the NetCache protocol.
inline constexpr uint16_t kNetCachePort = 50000;

// Query / message types carried in the OP field.
enum class OpCode : uint8_t {
  kGet = 0,
  kGetReply = 1,
  kPut = 2,
  kPutReply = 3,
  kDelete = 4,
  kDeleteReply = 5,
  // The switch rewrites Put/Delete to these when the key is cached, so the
  // server knows it must push the new value to the switch (§4.3).
  kCachedPut = 6,
  kCachedDelete = 7,
  // Data-plane cache update from server agent to switch, and its ack.
  kCacheUpdate = 8,
  kCacheUpdateAck = 9,
  // Heavy-hitter report from the switch data plane to the controller.
  kHotReport = 10,
  // Data-plane update rejected: the new value needs more register slots than
  // the cached one owns; the control plane must re-insert (§4.3).
  kCacheUpdateReject = 11,
};

const char* OpCodeName(OpCode op);

inline bool IsReadOp(OpCode op) { return op == OpCode::kGet; }
inline bool IsWriteOp(OpCode op) {
  return op == OpCode::kPut || op == OpCode::kDelete || op == OpCode::kCachedPut ||
         op == OpCode::kCachedDelete;
}
inline bool IsReplyOp(OpCode op) {
  return op == OpCode::kGetReply || op == OpCode::kPutReply || op == OpCode::kDeleteReply;
}

// L2 address. 48 bits in reality; modeled as a node id.
using MacAddress = uint64_t;
// L3 address. We use flat 32-bit node addresses.
using IpAddress = uint32_t;

struct EthernetHeader {
  MacAddress dst = 0;
  MacAddress src = 0;
};

struct Ipv4Header {
  IpAddress dst = 0;
  IpAddress src = 0;
  uint8_t ttl = 64;
};

enum class L4Protocol : uint8_t { kUdp = 0, kTcp = 1 };

struct L4Header {
  L4Protocol protocol = L4Protocol::kUdp;
  uint16_t src_port = 0;
  uint16_t dst_port = 0;
};

// The NetCache application header inside the L4 payload.
struct NetCacheHeader {
  OpCode op = OpCode::kGet;
  // Sequence number for UDP reads (reliability / reply matching) and value
  // version for TCP writes (§4.1).
  uint32_t seq = 0;
  Key key{};
  bool has_value = false;
  Value value{};
};

struct Packet {
  EthernetHeader eth;
  Ipv4Header ip;
  L4Header l4;
  NetCacheHeader nc;
  // True when this packet carries the NetCache header (dst or src port is
  // kNetCachePort). Non-NetCache traffic can flow through the same switch.
  bool is_netcache = true;
  // Simulation-only metadata, not a wire field (WireSize/Serialize/Parse
  // ignore it — the hardware analogue is PHV scratch computed by the ingress
  // hash engine). Empty until a switch computes it from nc.key; every later
  // table/sketch index on this packet's path derives from it.
  KeyDigest digest{};

  // Bytes on the wire: L2+L3+L4 framing plus the NetCache fields.
  size_t WireSize() const;

  // Swaps src/dst in L2-L4 (the switch does this when bouncing a cache-hit
  // reply straight back to the client, Alg 1 / §4.2).
  void SwapSrcDst();

  std::string Summary() const;
};

// Byte-level serialization. The simulator passes Packet structs around for
// speed, but the wire codec is the source of truth for WireSize and is
// exercised in tests end-to-end.
std::vector<uint8_t> SerializePacket(const Packet& pkt);
Result<Packet> ParsePacket(const std::vector<uint8_t>& bytes);

// Stable per-query trace id, computable at every hop from the packet alone:
// the issuing client's address and its sequence number. Requests carry the
// client in ip.src; replies (post address-swap) carry it in ip.dst.
inline uint64_t TraceQueryId(const Packet& pkt) {
  IpAddress client = IsReplyOp(pkt.nc.op) ? pkt.ip.dst : pkt.ip.src;
  return (static_cast<uint64_t>(client) << 32) | pkt.nc.seq;
}

// Convenience constructors.
// Reply skeleton for `req`: L2-L4 headers copied with src/dst swapped,
// op/seq/key preserved, and no value payload. Callers set the reply op.
// Avoids copying the (up to 128-byte) request value into a reply that would
// immediately discard it.
//
// In-place alternative: when the request is a mutable pool-owned packet,
// call pkt.SwapSrcDst() and rewrite it into the reply with no copy at all.
// The server and cache node answer Gets this way; the switch answers cache
// updates (ack/reject) and write-back Puts this way too, clearing the value
// so the reply matches this shell (a client hands a Put reply's value to
// its callback). Contract for such rewrites — fields that survive from the
// request and must remain valid for the reply:
//   - eth/ip/l4 (swapped), is_netcache, nc.seq, nc.key: same as this shell.
//   - digest: MAY be retained even though this shell clears it. The digest
//     is a pure function of nc.key (proto/key_digest.h), so a retained
//     digest is bit-identical to what any switch ingress would recompute.
//   - nc.op and nc.has_value MUST be set explicitly. A miss reply may keep
//     the request's nc.value bytes: has_value=false excludes them from
//     WireSize/Serialize, so the wire image matches a cleared value.
Packet MakeReplyShell(const Packet& req);
Packet MakeGet(IpAddress client, IpAddress server, const Key& key, uint32_t seq);
Packet MakePut(IpAddress client, IpAddress server, const Key& key, const Value& value,
               uint32_t seq);
Packet MakeDelete(IpAddress client, IpAddress server, const Key& key, uint32_t seq);

}  // namespace netcache

#endif  // NETCACHE_PROTO_PACKET_H_
