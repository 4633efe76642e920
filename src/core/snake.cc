#include "core/snake.h"

#include <string>

#include "common/logging.h"
#include "net/node.h"

namespace netcache {

namespace {
constexpr IpAddress kSenderIp = 0x0c000001;
constexpr IpAddress kReceiverIp = 0x0c000002;
}  // namespace

// Traffic endpoint: injects queries and/or counts + verifies replies.
class SnakeHarness::Endpoint : public Node {
 public:
  Endpoint(std::string name, const SnakeHarness* harness)
      : Node(std::move(name)), harness_(harness) {}

  void HandlePacket(const Packet& pkt, uint32_t /*in_port*/) override {
    if (!pkt.is_netcache || pkt.nc.op != OpCode::kGetReply) {
      return;
    }
    ++received_;
    if (pkt.nc.has_value) {
      uint64_t id = pkt.nc.key.AsUint64();
      if (pkt.nc.value == WorkloadGenerator::ValueFor(id, harness_->value_size_)) {
        ++value_ok_;
      }
    }
  }

  uint64_t received() const { return received_; }
  uint64_t value_ok() const { return value_ok_; }

 private:
  // The snake harness never partitions: every node runs in LP 1, so these
  // are touched only by LP 1's windows and by serial instants.
  NC_LP_SHARED const SnakeHarness* harness_;
  NC_LP_OWNED uint64_t received_ = 0;
  NC_LP_OWNED uint64_t value_ok_ = 0;
};

SnakeHarness::SnakeHarness(const SwitchConfig& config, size_t num_ports)
    : num_ports_(num_ports) {
  NC_CHECK(num_ports >= 4 && num_ports % 2 == 0) << "snake needs an even port count >= 4";
  SwitchConfig cfg = config;
  if (cfg.num_pipes * cfg.ports_per_pipe < num_ports) {
    cfg.ports_per_pipe = (num_ports + cfg.num_pipes - 1) / cfg.num_pipes;
  }
  switch_ = std::make_unique<NetCacheSwitch>(&sim_, "snake-tor", cfg);
  sender_ = std::make_unique<Endpoint>("sender", this);
  receiver_ = std::make_unique<Endpoint>("receiver", this);

  // Endpoints on the first and last port.
  LinkConfig fast;
  fast.bandwidth_gbps = 100.0;
  fast.propagation = 50;
  auto near = std::make_unique<Link>(&sim_, fast);
  near->Connect(sender_.get(), 0, switch_.get(), 0);
  links_.push_back(std::move(near));
  auto far = std::make_unique<Link>(&sim_, fast);
  far->Connect(switch_.get(), static_cast<uint32_t>(num_ports - 1), receiver_.get(), 0);
  links_.push_back(std::move(far));

  // Loopback cables between port pairs (1,2), (3,4), ..., (n-3, n-2).
  for (uint32_t p = 1; p + 1 < num_ports - 1; p += 2) {
    auto loop = std::make_unique<Link>(&sim_, fast);
    loop->Connect(switch_.get(), p, switch_.get(), p + 1);
    links_.push_back(std::move(loop));
  }

  // Snake forwarding: ingress 0 -> egress 1, ingress 2 -> egress 3, ...;
  // values are stripped on intermediate hops and kept on the final one.
  for (uint32_t in = 0; in + 2 < num_ports; in += 2) {
    NC_CHECK(switch_->SetSnakeForward(in, in + 1, /*strip_value=*/true).ok());
  }
  NC_CHECK(switch_->SetSnakeForward(static_cast<uint32_t>(num_ports - 2),
                                    static_cast<uint32_t>(num_ports - 1),
                                    /*strip_value=*/false)
               .ok());

  NC_CHECK(switch_->AddRoute(kSenderIp, 0).ok());
  NC_CHECK(
      switch_->AddRoute(kReceiverIp, static_cast<uint32_t>(num_ports - 1)).ok());
}

SnakeHarness::~SnakeHarness() = default;

Status SnakeHarness::CacheItems(size_t count, size_t value_size) {
  cached_items_ = count;
  value_size_ = value_size;
  for (uint64_t id = 0; id < count; ++id) {
    Status st = switch_->InsertCacheEntry(Key::FromUint64(id),
                                          WorkloadGenerator::ValueFor(id, value_size),
                                          kReceiverIp);
    if (!st.ok()) {
      return st;
    }
  }
  return Status::Ok();
}

SnakeResult SnakeHarness::Run(uint64_t queries, SimDuration pacing) {
  NC_CHECK(cached_items_ > 0) << "call CacheItems first";
  switch_->ResetCounters();
  for (uint64_t i = 0; i < queries; ++i) {
    Packet* get = sim_.packet_pool().Acquire();
    *get = MakeGet(kSenderIp, kReceiverIp, Key::FromUint64(i % cached_items_),
                   static_cast<uint32_t>(i));
    sim_.ScheduleAt(i * pacing, [this, get] {
      sender_->Send(0, *get);
      sim_.packet_pool().Release(get);
    });
  }
  sim_.RunAll();

  SnakeResult result;
  result.sent = queries;
  result.received = receiver_->received();
  result.value_ok = receiver_->value_ok();
  result.pipeline_reads = switch_->counters().reads;
  result.passes = num_ports_ / 2;
  result.amplification =
      queries > 0 ? static_cast<double>(result.pipeline_reads) / static_cast<double>(queries)
                  : 0.0;
  return result;
}

}  // namespace netcache
