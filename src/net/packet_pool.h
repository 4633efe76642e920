// Per-simulator freelist of Packet objects.
//
// A Packet is ~190 bytes of inline state (headers + the 128-byte value
// buffer). Capturing one by value in a scheduled closure forces the event
// queue to heap-allocate per event; a pooled Packet* keeps the closure within
// InlineFunction's inline budget and recycles the buffers instead of churning
// the allocator. The pool itself is single-threaded: in a parallel sweep every
// trial has its own Simulator, and under parallel DES the Simulator keeps one
// pool shard per partition, each touched only by the thread executing that
// partition (sim->packet_pool() resolves to the executing shard). Releasing a
// packet into a different shard than acquired it is memory-safe — chunks are
// owned by the acquiring pool and every shard lives as long as the Simulator —
// so cross-partition deliveries simply migrate buffers between freelists.
//
// Usage on a hot path:
//   Packet* copy = sim->packet_pool().Acquire(pkt);
//   sim->Schedule(delay, [this, copy] { ...; sim_->packet_pool().Release(copy); });
//
// Release is optional-but-recommended: un-released packets are still reclaimed
// when the pool is destroyed (the pool owns every chunk it ever allocated),
// they just can't be reused in the meantime.

#ifndef NETCACHE_NET_PACKET_POOL_H_
#define NETCACHE_NET_PACKET_POOL_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/lp_ownership.h"
#include "proto/packet.h"

namespace netcache {

class PacketPool {
 public:
  PacketPool() = default;

  PacketPool(const PacketPool&) = delete;
  PacketPool& operator=(const PacketPool&) = delete;

  // Returns a packet from the freelist (contents unspecified) or allocates a
  // fresh chunk when empty.
  Packet* Acquire() {
    NC_LP_CHECK("PacketPool::Acquire", "packet pool shard", owner_lp_);
    ++acquires_;
    if (free_.empty()) {
      Grow();
    }
    Packet* p = free_.back();
    free_.pop_back();
    return p;
  }

  // Acquire + copy-assign in one step; the common call shape on the wire path.
  Packet* Acquire(const Packet& src) {
    Packet* p = Acquire();
    *p = src;
    return p;
  }

  void Release(Packet* p) {
    NC_LP_CHECK("PacketPool::Release", "packet pool shard", owner_lp_);
    free_.push_back(p);
  }

  // Pre-sizes the pool so the first burst of traffic doesn't grow it.
  void Reserve(size_t packets) {
    while (chunks_.size() * kChunkPackets < packets) {
      Grow();
    }
  }

  uint64_t acquires() const { return acquires_; }
  size_t allocated() const { return chunks_.size() * kChunkPackets; }
  size_t free_count() const { return free_.size(); }

  // Labels the shard with the LP whose thread may touch it (0 = the global
  // stream's shard). Set by the Simulator when it creates the context.
  void set_owner_lp(uint32_t lp) { owner_lp_ = lp; }
  uint32_t owner_lp() const { return owner_lp_; }

 private:
  // Packets are allocated in chunks to amortize allocator traffic and keep
  // recycled packets adjacent in memory.
  static constexpr size_t kChunkPackets = 64;

  void Grow() {
    chunks_.push_back(std::make_unique<Packet[]>(kChunkPackets));
    Packet* base = chunks_.back().get();
    free_.reserve(free_.size() + kChunkPackets);
    for (size_t i = kChunkPackets; i > 0; --i) {
      free_.push_back(base + (i - 1));
    }
  }

  NC_LP_OWNED std::vector<std::unique_ptr<Packet[]>> chunks_;
  NC_LP_OWNED std::vector<Packet*> free_;
  NC_LP_OWNED uint64_t acquires_ = 0;
  NC_LP_SHARED uint32_t owner_lp_ = 0;  // written once before events run
};

}  // namespace netcache

#endif  // NETCACHE_NET_PACKET_POOL_H_
