#include "client/client.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "common/trace_recorder.h"

namespace netcache {

Client::Client(Simulator* sim, std::string name, const ClientConfig& config)
    : Node(std::move(name)), sim_(sim), config_(config), outstanding_(kInitialOutstandingSlots) {
  NC_CHECK(sim != nullptr);
  timeout_lane_ = sim_->OpenLane(this, config_.reply_timeout);
}

void Client::Get(IpAddress server, const Key& key, ResponseCallback cb) {
  ++stats_.gets_sent;
  SendQuery(MakeGet(config_.ip, server, key, next_seq_), std::move(cb));
}

void Client::Put(IpAddress server, const Key& key, const Value& value, ResponseCallback cb) {
  ++stats_.puts_sent;
  SendQuery(MakePut(config_.ip, server, key, value, next_seq_), std::move(cb));
}

void Client::Delete(IpAddress server, const Key& key, ResponseCallback cb) {
  ++stats_.deletes_sent;
  SendQuery(MakeDelete(config_.ip, server, key, next_seq_), std::move(cb));
}

void Client::SendQuery(Packet pkt, ResponseCallback cb) {
  uint32_t seq = next_seq_++;
  pkt.nc.seq = seq;
  if (outstanding_[seq & (outstanding_.size() - 1)].live) {
    GrowOutstanding(seq);
  }
  outstanding_[seq & (outstanding_.size() - 1)] = Pending{std::move(cb), sim_->Now(), seq, true};
  ++live_;
  if (TraceEnabled()) {
    TraceSpan(TraceEvent::kClientSend, TraceQueryId(pkt), sim_->Now(), config_.ip,
              static_cast<uint64_t>(pkt.nc.op));
  }
  Send(0, pkt);

  // Node-affine: the lane runs in this client's partition.
  sim_->ScheduleInLane(timeout_lane_, [this, seq] {
    Pending* live = FindOutstanding(seq);
    if (live == nullptr) {
      return;  // answered in time
    }
    Pending pending = TakeOutstanding(live);
    ++stats_.timeouts;
    if (TraceEnabled()) {
      TraceSpan(TraceEvent::kClientTimeout,
                (static_cast<uint64_t>(config_.ip) << 32) | seq, sim_->Now(), config_.ip);
    }
    if (pending.cb) {
      pending.cb(Status::Unavailable("query timed out"), Value{});
    }
  });
}

void Client::HandlePacket(const Packet& pkt, uint32_t /*in_port*/) {
  if (!pkt.is_netcache || !IsReplyOp(pkt.nc.op)) {
    return;
  }
  Pending* live = FindOutstanding(pkt.nc.seq);
  if (live == nullptr) {
    return;  // late reply after timeout; drop
  }
  Pending pending = TakeOutstanding(live);
  ++stats_.replies;
  latency_.Record(sim_->Now() - pending.sent_at);
  if (TraceEnabled()) {
    TraceSpan(TraceEvent::kClientReply, TraceQueryId(pkt), sim_->Now(), config_.ip,
              static_cast<uint64_t>(pkt.nc.op));
  }

  Status status = Status::Ok();
  if (pkt.nc.op == OpCode::kGetReply && !pkt.nc.has_value) {
    ++stats_.not_found;
    status = Status::NotFound("no such key");
  }
  if (pending.cb) {
    pending.cb(status, pkt.nc.value);
  }
}

Client::Pending* Client::FindOutstanding(uint32_t seq) {
  Pending& p = outstanding_[seq & (outstanding_.size() - 1)];
  return p.live && p.seq == seq ? &p : nullptr;
}

Client::Pending Client::TakeOutstanding(Pending* p) {
  Pending taken = std::move(*p);
  *p = Pending{};
  --live_;
  return taken;
}

void Client::GrowOutstanding(uint32_t seq) {
  // Live sequence numbers all lie in (seq - span, seq]; a ring larger than
  // that span gives each its own slot.
  uint32_t span = 0;
  for (const Pending& p : outstanding_) {
    if (p.live) {
      span = std::max(span, seq - p.seq);
    }
  }
  size_t size = outstanding_.size();
  while (size <= span) {
    size *= 2;
  }
  std::vector<Pending> grown(size);
  for (Pending& p : outstanding_) {
    if (p.live) {
      grown[p.seq & (size - 1)] = std::move(p);
    }
  }
  outstanding_ = std::move(grown);
}

void Client::RegisterMetrics(MetricsRegistry& registry, const std::string& prefix,
                             MetricsRegistry::Labels labels) const {
  const ClientStats& s = stats_;
  registry.AddCounter(prefix + ".gets_sent", &s.gets_sent, labels);
  registry.AddCounter(prefix + ".puts_sent", &s.puts_sent, labels);
  registry.AddCounter(prefix + ".deletes_sent", &s.deletes_sent, labels);
  registry.AddCounter(prefix + ".replies", &s.replies, labels);
  registry.AddCounter(prefix + ".not_found", &s.not_found, labels);
  registry.AddCounter(prefix + ".timeouts", &s.timeouts, labels);
  registry.AddGauge(
      prefix + ".outstanding", [this] { return static_cast<double>(live_); },
      labels);
  registry.AddHistogram(prefix + ".latency", &latency_, labels);
}

}  // namespace netcache
