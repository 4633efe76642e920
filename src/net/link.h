// Full-duplex point-to-point link with per-direction serialization delay,
// propagation delay, and a drop-tail byte queue.
//
// Model: each direction owns a transmitter that serializes one packet at a
// time at `bandwidth_gbps`. Packets arriving while the transmitter is busy
// wait in a FIFO bounded by `queue_bytes`; overflow is dropped (drop-tail),
// which is how the paper's emulated servers shed excess load (§7.1). A
// packet holds its queue space until its serialization ends; the link
// schedules no event for that: each Transmit first frees the space of every
// packet whose serialization ended at or before Now().
//
// Transmit deadlines accumulate in integer picoseconds, not floating point:
// a busy transmitter chains each packet's deadline off the previous one, and
// repeated FP adds drift — after enough back-to-back packets a computed
// deadline could land a ULP before Now() and trip the simulator's
// no-scheduling-into-the-past check. Picosecond integers make the chain
// exact (40 Gb/s is exactly 200 ps/byte) and deadlines are ceiled to the
// simulator's ns grid, so they never precede the instant that produced them.

#ifndef NETCACHE_NET_LINK_H_
#define NETCACHE_NET_LINK_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/lp_ownership.h"
#include "common/rng.h"
#include "common/time_units.h"
#include "net/node.h"
#include "net/simulator.h"
#include "proto/packet.h"

namespace netcache {

struct LinkConfig {
  double bandwidth_gbps = 40.0;           // line rate per direction
  SimDuration propagation = 300;          // ns; ~60 m of fiber
  size_t queue_bytes = 512 * 1024;        // drop-tail buffer per direction
  // Random per-packet corruption/loss probability (failure injection for
  // tests; real links lose packets too, which is why the server agent's
  // cache-update channel retries, §6).
  double loss_rate = 0.0;
  uint64_t loss_seed = 0x10553;
};

class Link {
 public:
  Link(Simulator* sim, const LinkConfig& config);

  // Attaches end 0 to (a, a_port) and end 1 to (b, b_port).
  void Connect(Node* a, uint32_t a_port, Node* b, uint32_t b_port);

  // Transmits from end `from_end` (0 or 1) toward the other end.
  void Transmit(int from_end, const Packet& pkt);

  // Ships direction `from_end`'s open transmit group as one delivery (see
  // Simulator::OpenEgressGroup). Called by the simulator's dispatcher, in
  // the context that opened the group, once its clock leaves the group's
  // instant.
  void CloseGroup(int from_end);

  // Books `count` completed deliveries totalling `bytes` on direction
  // `from_end`. Called by the simulator's delivery dispatcher (the accounting
  // the delivery closure used to do inline before deliveries became typed
  // events); a burst record books its whole transmit group in one call. Runs in
  // the RECEIVING node's partition under parallel DES, which is why
  // `in_flight` is the one atomic field (see DirectionStats).
  void AccountDelivery(int from_end, uint32_t bytes, uint32_t count = 1) {
    // Delivery accounting belongs to the receiving end's partition (the
    // dispatcher books it alongside handler dispatch).
    NC_LP_CHECK("Link::AccountDelivery", ends_[1 - from_end].node->name().c_str(),
                ends_[1 - from_end].node->lp());
    dirs_[from_end].stats.in_flight.fetch_sub(count, std::memory_order_relaxed);
    dirs_[from_end].stats.delivered += count;
    dirs_[from_end].stats.bytes += bytes;
  }

  // Per-direction counters. Single-writer under parallel DES except
  // `in_flight`: offered/dropped/lost are bumped by Transmit in the sending
  // node's partition, delivered/bytes by AccountDelivery in the receiving
  // node's, but in_flight is touched by both — hence the atomic. Readers
  // (checkers, metrics) only run in serial instants, ordered by the window
  // barrier, so plain fields need no synchronization.
  struct DirectionStats {
    uint64_t offered = 0;    // every Transmit attempt
    uint64_t delivered = 0;
    uint64_t dropped = 0;   // queue overflow
    uint64_t lost = 0;      // random loss injection
    std::atomic<uint64_t> in_flight{0};  // accepted, not yet handed to the far node
    uint64_t bytes = 0;
  };
  // Conservation invariant, checked by the packet-conservation checker at
  // any instant between events: offered == delivered + dropped + lost +
  // in_flight.
  const DirectionStats& stats(int from_end) const { return dirs_[from_end].stats; }

  // Test-only mutable stats, used by the seeded-corruption self-test to
  // break the conservation equation and prove the checker fires.
  DirectionStats& TestOnlyStats(int from_end) { return dirs_[from_end].stats; }

  const LinkConfig& config() const { return config_; }

  // Endpoint node of end 0 or 1 (null before Connect). ConfigurePartitions
  // walks registered links to find partition-crossing ones for the lookahead.
  Node* end_node(int end) const { return ends_[end].node; }

 private:
  struct Endpoint {
    Node* node = nullptr;
    uint32_t port = 0;
  };
  // An accepted packet holding queue space: its serialization end and wire
  // bytes.
  struct Queued {
    SimTime tx_done;
    uint32_t bytes;
  };
  struct Direction {
    uint64_t busy_until_ps = 0;  // transmitter deadline, integer picoseconds
    // Bytes of the packets in `queue`.
    size_t queued_bytes = 0;
    // The accepted packets whose serialization had not ended at the last
    // Transmit, oldest first (the deadline chain is monotone, so that is
    // tx_done order): a ring over a power-of-two vector that doubles when
    // full, so steady state allocates nothing.
    std::vector<Queued> queue;
    size_t queue_head = 0;
    size_t queue_len = 0;
    // The transmit group accepting members: opened by the first
    // transmission accepted at an instant, joined by every later one at the
    // same instant, closed by CloseGroup. Owned by the sending end's LP like
    // the rest of the transmitter state.
    EgressBurst* group = nullptr;
    DirectionStats stats;
  };

  // Drops the packets whose serialization ended at or before `now` from
  // dir's queue, freeing their bytes.
  static void RetireSent(Direction& dir, SimTime now);
  static void PushQueued(Direction& dir, Queued q);

  // Ships a closed transmit group as one delivery record (a plain record for
  // a lone packet, a burst record otherwise) at the group's shared delivery
  // instant: last member's serialization end + propagation. Runs in the
  // sending end's partition.
  void FlushGroup(EgressBurst* g, int from_end);

  NC_LP_SHARED Simulator* sim_;
  NC_LP_SHARED LinkConfig config_;
  NC_LP_SHARED uint64_t ps_per_byte_;
  // One loss stream per direction: under parallel DES the two directions are
  // driven from different partitions, and a shared generator would be both a
  // data race and a thread-count-dependent draw order. loss_rng_[i] and
  // dirs_[i] are owned by end i's LP (checked in Transmit), except
  // dirs_[i].stats.delivered/bytes/in_flight which the receiving partition
  // books via AccountDelivery — in_flight is the one field both ends touch,
  // hence the atomic in DirectionStats.
  NC_LP_OWNED Rng loss_rng_[2];
  NC_LP_SHARED Endpoint ends_[2];  // wiring-time, immutable after Connect
  NC_LP_OWNED Direction dirs_[2];  // dirs_[i] carries traffic from end i to end 1-i
};

}  // namespace netcache

#endif  // NETCACHE_NET_LINK_H_
