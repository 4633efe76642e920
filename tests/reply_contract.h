// Shared assertion for the switch's in-place replies (proto/packet.h, the
// MakeReplyShell contract note): a reply the switch answers with is its
// request rewritten in place, and must put on the wire exactly what the
// MakeReplyShell reply would after one switch hop.

#ifndef NETCACHE_TESTS_REPLY_CONTRACT_H_
#define NETCACHE_TESTS_REPLY_CONTRACT_H_

#include <gtest/gtest.h>

#include "dataplane/netcache_switch.h"
#include "proto/packet.h"

namespace netcache {

// `emit` serializes like MakeReplyShell(request) with op `op` and the TTL
// one lower, and carries no value bytes (a client hands a Put reply's value
// to its callback).
inline void ExpectInPlaceReply(const Packet& request, const NetCacheSwitch::Emit& emit,
                               OpCode op) {
  Packet expected = MakeReplyShell(request);
  expected.nc.op = op;
  --expected.ip.ttl;
  EXPECT_EQ(emit.pkt.nc.op, op);
  EXPECT_EQ(SerializePacket(emit.pkt), SerializePacket(expected));
  EXPECT_EQ(emit.pkt.nc.value.size(), 0u);
}

}  // namespace netcache

#endif  // NETCACHE_TESTS_REPLY_CONTRACT_H_
