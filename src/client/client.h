// NetCache client library (§3 "Clients"): a Get/Put/Delete interface in the
// style of Memcached/Redis that translates calls into NetCache packets and
// matches replies back to callbacks by sequence number.
//
// The client is oblivious to the cache: it addresses every query to the
// storage server that owns the key (per the hash partitioning) and the ToR
// switch transparently answers reads it can serve (§4.1 "without any
// knowledge of NetCache").

#ifndef NETCACHE_CLIENT_CLIENT_H_
#define NETCACHE_CLIENT_CLIENT_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/histogram.h"
#include "common/lp_ownership.h"
#include "common/metrics.h"
#include "common/status.h"
#include "common/time_units.h"
#include "net/node.h"
#include "net/simulator.h"
#include "proto/packet.h"

namespace netcache {

struct ClientConfig {
  IpAddress ip = 0;
  // Outstanding queries older than this are reported as kUnavailable (packet
  // loss); reads are UDP, so loss is expected under overload.
  SimDuration reply_timeout = 2 * kMillisecond;
};

struct ClientStats {
  uint64_t gets_sent = 0;
  uint64_t puts_sent = 0;
  uint64_t deletes_sent = 0;
  uint64_t replies = 0;
  uint64_t not_found = 0;
  uint64_t timeouts = 0;
};

class Client : public Node {
 public:
  // Callback for every operation: status is Ok / NotFound / Unavailable
  // (timeout); `value` is meaningful for successful Gets.
  using ResponseCallback = std::function<void(const Status&, const Value&)>;

  Client(Simulator* sim, std::string name, const ClientConfig& config);

  void Get(IpAddress server, const Key& key, ResponseCallback cb);
  void Put(IpAddress server, const Key& key, const Value& value, ResponseCallback cb);
  void Delete(IpAddress server, const Key& key, ResponseCallback cb);

  // String-key convenience overloads (§5: variable-length keys are hashed to
  // fixed 16-byte keys).
  void Get(IpAddress server, std::string_view key, ResponseCallback cb) {
    Get(server, Key::FromString(key), std::move(cb));
  }
  void Put(IpAddress server, std::string_view key, std::string_view value, ResponseCallback cb) {
    Put(server, Key::FromString(key), Value::FromString(value), std::move(cb));
  }
  void Delete(IpAddress server, std::string_view key, ResponseCallback cb) {
    Delete(server, Key::FromString(key), std::move(cb));
  }

  void HandlePacket(const Packet& pkt, uint32_t in_port) override;

  const ClientStats& stats() const { return stats_; }
  void ResetStats() { stats_ = ClientStats{}; }
  // Latency of completed queries, in nanoseconds of simulated time.
  const Histogram& latency() const { return latency_; }
  Histogram& latency() { return latency_; }
  size_t Outstanding() const { return live_; }

  // Registers every ClientStats field, the outstanding-query gauge, and the
  // latency histogram under `prefix` (e.g. "client.0.latency").
  void RegisterMetrics(MetricsRegistry& registry, const std::string& prefix,
                       MetricsRegistry::Labels labels = {}) const;

  const ClientConfig& config() const { return config_; }

 private:
  static constexpr size_t kInitialOutstandingSlots = 64;  // a power of two

  struct Pending {
    ResponseCallback cb;
    SimTime sent_at = 0;
    uint32_t seq = 0;
    bool live = false;
  };

  void SendQuery(Packet pkt, ResponseCallback cb);
  // The live query with sequence number `seq`, or nullptr.
  Pending* FindOutstanding(uint32_t seq);
  // Takes the live query `p` out of the ring.
  Pending TakeOutstanding(Pending* p);
  // Regrows the ring so every live query and `seq` get slots of their own.
  void GrowOutstanding(uint32_t seq);

  // LP ownership: everything mutable is driven from this client's own events
  // (queries, replies, timeouts), all scheduled node-affine: reply timeouts
  // through the client's lane, which runs in its partition.
  NC_LP_SHARED Simulator* sim_;
  NC_LP_SHARED ClientConfig config_;
  // Every query arms one reply timeout at the same delay, so thousands stay
  // pending; a lane keeps them off the simulator's event heap. Opened at
  // construction, immutable after.
  NC_LP_SHARED Simulator::Lane* timeout_lane_ = nullptr;
  NC_LP_OWNED uint32_t next_seq_ = 1;
  // Outstanding queries in a ring indexed by seq & (size - 1). Sequence
  // numbers are issued in order and every query resolves within
  // reply_timeout, so the ring only grows to the span of live sequence
  // numbers and then recycles its slots: no allocation per query.
  NC_LP_OWNED std::vector<Pending> outstanding_;
  NC_LP_OWNED size_t live_ = 0;
  NC_LP_OWNED ClientStats stats_;
  NC_LP_OWNED Histogram latency_;
};

}  // namespace netcache

#endif  // NETCACHE_CLIENT_CLIENT_H_
