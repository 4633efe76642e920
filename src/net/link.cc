#include "net/link.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/profiler.h"

namespace netcache {

Link::Link(Simulator* sim, const LinkConfig& config)
    : sim_(sim),
      config_(config),
      loss_rng_{Rng(config.loss_seed), Rng(config.loss_seed ^ 0x6a09e667f3bcc909ULL)} {
  NC_CHECK(config.bandwidth_gbps > 0.0);
  NC_CHECK(config.loss_rate >= 0.0 && config.loss_rate < 1.0);
  // 8 bits/byte over gbps == exactly 8000/gbps picoseconds per byte. The
  // double->integer conversion happens once here instead of per packet, so
  // deadline chains accumulate exactly (40 Gb/s -> exactly 200 ps/byte).
  ps_per_byte_ = std::max<uint64_t>(1, static_cast<uint64_t>(std::llround(8000.0 / config.bandwidth_gbps)));
  sim_->RegisterLink(this);
}

void Link::Connect(Node* a, uint32_t a_port, Node* b, uint32_t b_port) {
  ends_[0] = Endpoint{a, a_port};
  ends_[1] = Endpoint{b, b_port};
  a->AttachLink(a_port, this, 0);
  b->AttachLink(b_port, this, 1);
}

void Link::Transmit(int from_end, const Packet& pkt) {
  NC_CHECK(from_end == 0 || from_end == 1);
  NC_CHECK(ends_[0].node != nullptr && ends_[1].node != nullptr) << "link not connected";
  // The transmitter (busy_until chain, queue occupancy, loss RNG draw order)
  // is owned by the sending end's LP; a foreign LP driving it would make the
  // RNG draw order and the deadline chain schedule-dependent.
  NC_LP_CHECK("Link::Transmit", ends_[from_end].node->name().c_str(),
              ends_[from_end].node->lp());
  Direction& dir = dirs_[from_end];
  size_t bytes = pkt.WireSize();
  ++dir.stats.offered;

  if (config_.loss_rate > 0.0 && loss_rng_[from_end].NextBernoulli(config_.loss_rate)) {
    ++dir.stats.lost;
    return;
  }
  SimTime now = sim_->Now();
  RetireSent(dir, now);
  if (dir.queued_bytes + bytes > config_.queue_bytes) {
    ++dir.stats.dropped;
    return;
  }
  dir.queued_bytes += bytes;
  dir.stats.in_flight.fetch_add(1, std::memory_order_relaxed);

  uint64_t now_ps = static_cast<uint64_t>(now) * 1000;
  uint64_t start_ps = std::max(now_ps, dir.busy_until_ps);
  uint64_t tx_done_ps = start_ps + static_cast<uint64_t>(bytes) * ps_per_byte_;
  dir.busy_until_ps = tx_done_ps;
  // Ceil back to the simulator's ns grid: tx_done_ps >= now_ps guarantees
  // tx_done >= Now(), so the schedule-into-the-past check can never fire no
  // matter how long the back-to-back chain gets.
  SimTime tx_done = static_cast<SimTime>((tx_done_ps + 999) / 1000);
  PushQueued(dir, Queued{tx_done, static_cast<uint32_t>(bytes)});

  // The in-flight copy lives in the simulator's packet pool. Every
  // transmission accepted within one instant joins the direction's open
  // transmit group; the whole group is delivered together at the LAST
  // member's serialization end plus propagation (the far NIC raises one
  // interrupt for the back-to-back train). The first transmission of an
  // instant opens the group with the executing context, which closes it
  // (CloseGroup) when its clock leaves this instant. Delivery accounting
  // happens in Link::AccountDelivery.
  Packet* in_flight = sim_->packet_pool().Acquire(pkt);
  if (dir.group == nullptr) {
    dir.group = sim_->OpenEgressGroup(this, from_end);
  }
  // The deadline chain is monotone, so this member's tx_done is the group's
  // new serialization end.
  dir.group->entries.emplace_back(in_flight, static_cast<uint32_t>(bytes));
  dir.group->last_tx_done = tx_done;
}

void Link::CloseGroup(int from_end) {
  NC_LP_CHECK("Link::CloseGroup", ends_[from_end].node->name().c_str(),
              ends_[from_end].node->lp());
  Direction& dir = dirs_[from_end];
  EgressBurst* g = dir.group;
  dir.group = nullptr;
  FlushGroup(g, from_end);
}

void Link::RetireSent(Direction& dir, SimTime now) {
  const size_t mask = dir.queue.size() - 1;
  while (dir.queue_len > 0 && dir.queue[dir.queue_head].tx_done <= now) {
    dir.queued_bytes -= dir.queue[dir.queue_head].bytes;
    dir.queue_head = (dir.queue_head + 1) & mask;
    --dir.queue_len;
  }
}

void Link::PushQueued(Direction& dir, Queued q) {
  const size_t size = dir.queue.size();
  if (dir.queue_len == size) {
    // Full (or empty storage): double it. The ring runs from queue_head to
    // the old end, then wraps to just before queue_head; copying that
    // wrapped prefix past the old end makes the run contiguous again.
    dir.queue.resize(size == 0 ? 16 : 2 * size);
    std::copy(dir.queue.begin(), dir.queue.begin() + static_cast<std::ptrdiff_t>(dir.queue_head),
              dir.queue.begin() + static_cast<std::ptrdiff_t>(size));
  }
  dir.queue[(dir.queue_head + dir.queue_len) & (dir.queue.size() - 1)] = q;
  ++dir.queue_len;
}

void Link::FlushGroup(EgressBurst* g, int from_end) {
  ProfScope prof(ProfCat::kEgressFlush);
  prof.set_arg(g->entries.size());
  Endpoint to = ends_[1 - from_end];
  SimTime deliver_at = g->last_tx_done + config_.propagation;
  if (g->entries.size() == 1) {
    // Degenerate group: one plain record, identical to the pre-group model.
    auto [pkt, bytes] = g->entries[0];
    sim_->ScheduleDeliveryAt(deliver_at,
                             Simulator::DeliveryRec{to.node, to.port, pkt, this, from_end, bytes});
    sim_->ReleaseEgressBurst(g);
    return;
  }
  // The group rides as one record; the dispatcher weighs it as
  // entries.size() events and the receiver releases the buffer.
  uint32_t total = 0;
  for (const auto& [pkt, bytes] : g->entries) {
    total += bytes;
  }
  sim_->ScheduleDeliveryAt(
      deliver_at, Simulator::DeliveryRec{to.node, to.port, nullptr, this, from_end, total, g});
}

}  // namespace netcache
