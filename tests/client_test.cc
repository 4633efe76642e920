// Tests for the client library: reply matching, timeouts, latency recording,
// and the string-key convenience API.

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "client/client.h"
#include "net/link.h"
#include "net/simulator.h"

namespace netcache {
namespace {

constexpr IpAddress kClientIp = 0x0b000001;
constexpr IpAddress kServerIp = 0x0a000001;

Key K(uint64_t id) { return Key::FromUint64(id); }

// Echo peer: answers Gets with a canned value, Puts/Deletes with acks;
// optionally swallows queries to simulate loss.
class EchoPeer : public Node {
 public:
  EchoPeer() : Node("echo") {}
  void HandlePacket(const Packet& pkt, uint32_t) override {
    queries.push_back(pkt);
    if (swallow) {
      return;
    }
    Packet reply = pkt;
    reply.SwapSrcDst();
    switch (pkt.nc.op) {
      case OpCode::kGet:
        reply.nc.op = OpCode::kGetReply;
        reply.nc.has_value = respond_found;
        reply.nc.value = respond_found ? Value::Filler(7, 24) : Value{};
        break;
      case OpCode::kPut:
        reply.nc.op = OpCode::kPutReply;
        reply.nc.has_value = false;
        break;
      case OpCode::kDelete:
        reply.nc.op = OpCode::kDeleteReply;
        reply.nc.has_value = false;
        break;
      default:
        return;
    }
    Send(0, reply);
  }

  bool swallow = false;
  bool respond_found = true;
  std::vector<Packet> queries;
};

class ClientTest : public ::testing::Test {
 protected:
  ClientTest() {
    ClientConfig cfg;
    cfg.ip = kClientIp;
    cfg.reply_timeout = 1 * kMillisecond;
    client_ = std::make_unique<Client>(&sim_, "client", cfg);
    link_ = std::make_unique<Link>(&sim_, LinkConfig{});
    link_->Connect(client_.get(), 0, &peer_, 0);
  }

  Simulator sim_;
  EchoPeer peer_;
  std::unique_ptr<Client> client_;
  std::unique_ptr<Link> link_;
};

TEST_F(ClientTest, GetDeliversValueToCallback) {
  Status got_status = Status::Internal("never called");
  Value got_value;
  client_->Get(kServerIp, K(1), [&](const Status& s, const Value& v) {
    got_status = s;
    got_value = v;
  });
  sim_.RunAll();
  EXPECT_TRUE(got_status.ok());
  EXPECT_EQ(got_value, Value::Filler(7, 24));
  EXPECT_EQ(client_->stats().replies, 1u);
  EXPECT_EQ(client_->Outstanding(), 0u);
}

TEST_F(ClientTest, NotFoundSurfaced) {
  peer_.respond_found = false;
  Status got = Status::Ok();
  client_->Get(kServerIp, K(2), [&](const Status& s, const Value&) { got = s; });
  sim_.RunAll();
  EXPECT_EQ(got.code(), StatusCode::kNotFound);
  EXPECT_EQ(client_->stats().not_found, 1u);
}

TEST_F(ClientTest, PutAndDeleteComplete) {
  int done = 0;
  client_->Put(kServerIp, K(3), Value::Filler(3, 16),
               [&](const Status& s, const Value&) { done += s.ok() ? 1 : 0; });
  client_->Delete(kServerIp, K(3), [&](const Status& s, const Value&) { done += s.ok() ? 1 : 0; });
  sim_.RunAll();
  EXPECT_EQ(done, 2);
  EXPECT_EQ(client_->stats().puts_sent, 1u);
  EXPECT_EQ(client_->stats().deletes_sent, 1u);
}

TEST_F(ClientTest, TimeoutWhenPeerSilent) {
  peer_.swallow = true;
  Status got = Status::Ok();
  client_->Get(kServerIp, K(4), [&](const Status& s, const Value&) { got = s; });
  sim_.RunAll();
  EXPECT_EQ(got.code(), StatusCode::kUnavailable);
  EXPECT_EQ(client_->stats().timeouts, 1u);
  EXPECT_EQ(client_->Outstanding(), 0u);
}

TEST_F(ClientTest, LateReplyAfterTimeoutIgnored) {
  peer_.swallow = true;
  client_->Get(kServerIp, K(5), [](const Status&, const Value&) {});
  sim_.RunAll();  // times out
  ASSERT_EQ(peer_.queries.size(), 1u);
  Packet late = peer_.queries[0];
  late.SwapSrcDst();
  late.nc.op = OpCode::kGetReply;
  late.nc.has_value = true;
  peer_.Send(0, late);
  sim_.RunAll();
  EXPECT_EQ(client_->stats().replies, 0u);  // dropped, no crash
}

TEST_F(ClientTest, SequenceNumbersDistinguishInflightQueries) {
  peer_.swallow = true;  // hold replies; answer manually out of order
  std::vector<int> done_order;
  client_->Get(kServerIp, K(1), [&](const Status&, const Value&) { done_order.push_back(1); });
  client_->Get(kServerIp, K(2), [&](const Status&, const Value&) { done_order.push_back(2); });
  sim_.RunUntil(100 * kMicrosecond);
  ASSERT_EQ(peer_.queries.size(), 2u);
  // Reply to the second query first.
  for (size_t i : {1ul, 0ul}) {
    Packet reply = peer_.queries[i];
    reply.SwapSrcDst();
    reply.nc.op = OpCode::kGetReply;
    reply.nc.has_value = true;
    peer_.Send(0, reply);
  }
  sim_.RunUntil(200 * kMicrosecond);
  EXPECT_EQ(done_order, (std::vector<int>{2, 1}));
}

// Answers query `i` of those the peer swallowed.
void ReplyTo(EchoPeer& peer, size_t i) {
  Packet reply = peer.queries[i];
  reply.SwapSrcDst();
  reply.nc.op = OpCode::kGetReply;
  reply.nc.has_value = true;
  peer.Send(0, reply);
}

TEST_F(ClientTest, ManyInflightQueriesEachMatchTheirReply) {
  // More queries in flight than the outstanding ring's first size, answered
  // in reverse order.
  peer_.swallow = true;
  constexpr int kQueries = 300;
  std::vector<int> done_order;
  for (int i = 0; i < kQueries; ++i) {
    client_->Get(kServerIp, K(i), [&done_order, i](const Status& s, const Value&) {
      if (s.ok()) {
        done_order.push_back(i);
      }
    });
  }
  EXPECT_EQ(client_->Outstanding(), static_cast<size_t>(kQueries));
  sim_.RunUntil(100 * kMicrosecond);
  ASSERT_EQ(peer_.queries.size(), static_cast<size_t>(kQueries));
  for (int i = kQueries - 1; i >= 0; --i) {
    ReplyTo(peer_, static_cast<size_t>(i));
  }
  sim_.RunAll();
  ASSERT_EQ(done_order.size(), static_cast<size_t>(kQueries));
  for (int i = 0; i < kQueries; ++i) {
    EXPECT_EQ(done_order[static_cast<size_t>(i)], kQueries - 1 - i);
  }
  EXPECT_EQ(client_->Outstanding(), 0u);
  EXPECT_EQ(client_->stats().timeouts, 0u);
}

TEST_F(ClientTest, HeldQueryOutlivesManyLaterOnes) {
  // One unanswered query while hundreds of later ones complete: the live
  // sequence numbers span more than the ring's first size, and the held
  // query must still match its reply.
  peer_.swallow = true;
  Status held = Status::Internal("never called");
  client_->Get(kServerIp, K(0), [&](const Status& s, const Value&) { held = s; });
  sim_.RunUntil(10 * kMicrosecond);
  peer_.swallow = false;
  int answered = 0;
  for (int i = 1; i <= 200; ++i) {
    client_->Get(kServerIp, K(i), [&](const Status& s, const Value&) { answered += s.ok() ? 1 : 0; });
    sim_.RunUntil(sim_.Now() + 2 * kMicrosecond);
  }
  EXPECT_EQ(answered, 200);
  EXPECT_EQ(client_->Outstanding(), 1u);
  ReplyTo(peer_, 0);
  sim_.RunAll();
  EXPECT_TRUE(held.ok());
  EXPECT_EQ(client_->Outstanding(), 0u);
  EXPECT_EQ(client_->stats().timeouts, 0u);
}

TEST_F(ClientTest, LatencyRecorded) {
  client_->Get(kServerIp, K(1), [](const Status&, const Value&) {});
  sim_.RunAll();
  EXPECT_EQ(client_->latency().count(), 1u);
  EXPECT_GT(client_->latency().Mean(), 0.0);
}

TEST_F(ClientTest, StringKeyApi) {
  Status got = Status::Internal("pending");
  client_->Get(kServerIp, "user:42", [&](const Status& s, const Value&) { got = s; });
  sim_.RunAll();
  EXPECT_TRUE(got.ok());
  ASSERT_EQ(peer_.queries.size(), 1u);
  EXPECT_EQ(peer_.queries[0].nc.key, Key::FromString("user:42"));
}

}  // namespace
}  // namespace netcache
