#include "net/simulator.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "common/lp_ownership.h"
#include "common/profiler.h"
#include "net/link.h"

namespace netcache {

namespace {

// A delivery record's event weight: a burst record stands for its whole
// transmit group, so it counts as entries.size() events everywhere a packet
// counts as one (events_processed, pending counts, queue peaks, link
// delivery accounting).
inline uint64_t RecWeight(const Simulator::DeliveryRec& r) {
  return r.burst != nullptr ? r.burst->entries.size() : 1;
}

}  // namespace

Simulator::Simulator() {
  AddLps(1);
  exec_ = streams_[0];
}

void Simulator::AddLps(size_t num_lps) {
  const size_t n = num_lps + 1;
  while (ctxs_.size() < n) {
    Ctx& c = ctxs_.emplace_back();
    c.index = static_cast<uint32_t>(ctxs_.size() - 1);
    c.now = ctxs_.front().now;
    // The global stream and LP 1 carry every event of an unpartitioned run.
    const size_t reserve = c.index <= 1 ? kDefaultReserveEvents : kDefaultReserveEvents / 4;
    c.heap.reserve(reserve);
    c.free_slots.reserve(reserve);
    // Label the pool shard for the runtime ownership sanitizer: only the
    // thread executing LP i may acquire from / release into shard i.
    c.pool.set_owner_lp(c.index);
    streams_.push_back(&c);
  }
  // Per-LP counters answer for the global stream too (always 0). Every
  // array is empty of state here: nothing is pending (ConfigurePartitions).
  stride_ = n;
  outbox_.clear();
  outbox_.resize(2 * n * n);
  summaries_.resize(n);
  senders_.resize(n);
  for (size_t i = 1; i < n; ++i) {
    summaries_[i].mail.reserve(n);
    senders_[i].reserve(n);
  }
  home_.assign(n, 0);
  dist_.assign(n * n, kNeverTime);
  lp_next_.assign(n, kNeverTime);
  next_.assign(n, kNeverTime);
  mail_min_.assign(n, kNeverTime);
  horizon_.assign(n, kNeverTime);
  windows_merged_.assign(n, 0);
  participants_.reserve(num_lps);
}

Simulator::~Simulator() { StopWorkers(); }

void Simulator::ScheduleAt(SimTime at, EventFn fn) {
  Ctx* c = cur();
  NC_CHECK(at >= c->now) << "scheduling into the past: event at t=" << at
                         << " ns but Now() is t=" << c->now
                         << " ns; events must never be scheduled before the "
                            "current simulated time (causality / determinism)";
  Route(*c, *c, at, NextKey(*c), std::move(fn));
}

void Simulator::ScheduleAtFor(Node* node, SimTime at, EventFn fn) {
  Ctx* c = cur();
  NC_CHECK(at >= c->now) << "scheduling into the past: event at t=" << at
                         << " ns but Now() is t=" << c->now << " ns";
  Route(*c, LpOf(node), at, NextKey(*c), std::move(fn));
}

void Simulator::ScheduleGlobalAt(SimTime at, EventFn fn) {
  Ctx* c = cur();
  NC_CHECK(at >= c->now) << "scheduling into the past: event at t=" << at
                         << " ns but Now() is t=" << c->now << " ns";
  Route(*c, *streams_[0], at, NextKey(*c), std::move(fn));
}

void Simulator::ScheduleDeliveryAt(SimTime at, const DeliveryRec& rec) {
  Ctx* c = cur();
  NC_CHECK(at >= c->now) << "scheduling into the past: delivery at t=" << at
                         << " ns but Now() is t=" << c->now << " ns";
  Route(*c, LpOf(rec.node), at, NextKey(*c), rec);
}

Simulator::Lane* Simulator::OpenLane(Node* node, SimDuration delay) {
  NC_CHECK(!partitioned()) << node->name()
                           << " opens a lane after ConfigurePartitions; lanes are "
                              "wiring-time state";
  Lane& lane = lanes_.emplace_back();
  lane.node = node;
  lane.delay = delay;
  lane.ctx = streams_[1];
  lane.ctx->lanes.push_back(&lane);
  return &lane;
}

void Simulator::ScheduleInLane(Lane* lane, EventFn fn) {
  Ctx* c = cur();
  Ctx& to = *lane->ctx;
  Handle h{c->now + lane->delay, NextKey(*c), nullptr};
  std::deque<Handle>& q = lane->events;
  // The ScheduleAtFor path, taken when the lane cannot hold the event: it
  // would sort before the tail (a same-instant append stamped from a lower
  // stream), or another LP's worker owns the lane during this round.
  if ((c != &to && in_window_) || (!q.empty() && h.Before(q.back()))) {
    Route(*c, to, h.time, h.key, std::move(fn));
    return;
  }
  h.ev = NewSlot(to);
  h.ev->Set(std::move(fn));
  q.push_back(h);
  ++to.lane_events;
}

template <typename Payload>
void Simulator::Route(Ctx& from, Ctx& to, SimTime at, uint64_t key, Payload&& payload) {
  // Inside a round each context belongs to its own worker, so a cross-
  // partition event is staged into the producer's per-destination outbox
  // bucket (this round's parity side) and drained by the destination — or,
  // for the global stream, by the coordinator at the boundary. Merge order
  // cannot matter: keys are a total order, and a binary heap's pop sequence
  // depends only on its content set — which is also why --sim-threads=1 and
  // =N produce byte-identical schedules.
  if (&from == &to || !in_window_) {
    Event* slot = NewSlot(to);
    slot->Set(std::forward<Payload>(payload));
    PushHeap(to, Handle{at, key, slot});
    return;
  }
  OutBucket& bucket = Bucket(parity_, from.index, to.index);
  if (bucket.mail.empty()) {
    summaries_[from.index].mail.push_back(MailNote{to.index, 0});
    bucket.min_time = at;
  } else if (at < bucket.min_time) {
    bucket.min_time = at;
  }
  bucket.mail.push_back(Mail{at, key, Event(std::forward<Payload>(payload))});
}

void Simulator::ConfigurePartitions(size_t num_lps, size_t threads) {
  NC_CHECK(!partitioned()) << "partitions already configured";
  NC_CHECK(num_lps >= 1 && num_lps < (1u << 16)) << "num_lps out of range";
  NC_CHECK(threads >= 1);
  // Wiring time: an event or a transmit group already in a context would
  // belong to the layout being replaced.
  for (const Ctx& c : ctxs_) {
    NC_CHECK(c.heap.empty() && c.lane_events == 0 && c.open_groups.empty())
        << "ConfigurePartitions with events pending; partition the topology "
           "at wiring time, before anything is scheduled";
  }
  AddLps(num_lps);
  for (Ctx& c : ctxs_) {
    c.lanes.clear();
  }
  for (Lane& lane : lanes_) {
    lane.ctx = &LpOf(lane.node);
    lane.ctx->lanes.push_back(&lane);
  }
  // Lookahead: minimum propagation delay over inter-partition links. Links
  // inside one partition don't constrain the horizon. The link's
  // integer-picosecond transmit grid guarantees every delivery lands at least
  // propagation + 1 ns after the instant that produced it, so any delivery
  // scheduled inside a round lands at or beyond every horizon derived from
  // these distances. kNeverTime (no cross links at all) means rounds are
  // bounded only by the global stream.
  //
  // Per-LP channel clocks need the transitive closure of link propagation
  // delays: influence can relay through an idle intermediate LP, so a
  // horizon derived from direct in-edges alone would be unsound.
  // Floyd–Warshall over at most 2^16 LPs at wiring time is negligible next
  // to any run.
  const size_t n = stride_;
  SimDuration look = kNeverTime;
  for (Link* link : links_) {
    Node* a = link->end_node(0);
    Node* b = link->end_node(1);
    if (a == nullptr || b == nullptr) {
      continue;
    }
    const uint32_t la = LpOf(a).index;
    const uint32_t lb = LpOf(b).index;
    if (la == lb) {
      continue;
    }
    const SimDuration prop = link->config().propagation;
    NC_CHECK(prop > 0) << "the link " << a->name() << " -- " << b->name() << " joins LPs "
                       << la << " and " << lb
                       << " with zero propagation delay: a zero lookahead leaves no "
                          "window room to progress; keep both ends in one LP";
    look = std::min(look, prop);
    dist_[la * n + lb] = std::min(dist_[la * n + lb], prop);
    dist_[lb * n + la] = std::min(dist_[lb * n + la], prop);
  }
  for (size_t k = 1; k < n; ++k) {
    for (size_t i = 1; i < n; ++i) {
      SimDuration ik = dist_[i * n + k];
      if (ik == kNeverTime) {
        continue;
      }
      for (size_t j = 1; j < n; ++j) {
        SimDuration kj = dist_[k * n + j];
        if (kj == kNeverTime || kj >= kNeverTime - ik) {
          continue;
        }
        SimDuration& ij = dist_[i * n + j];
        ij = std::min(ij, ik + kj);
      }
    }
  }
  lookahead_ = look;
  threads_ = std::min(threads, num_lps);
  for (size_t i = 1; i < n; ++i) {
    home_[i] = static_cast<uint32_t>((i - 1) % threads_);
  }
}

void Simulator::SetGlobalLookahead(SimDuration g) {
  NC_CHECK(g > 0) << "global lookahead must be positive";
  global_lookahead_ = g;
}

void Simulator::DispatchIn(Ctx& c, Event* ev, bool coalesce) {
  // The slab never moves a slot, so the handler may schedule freely while
  // its own event runs in place.
  if (ev->is_delivery) {
    RunDelivery(c, ev->del, coalesce);
  } else {
    ev->fn();
  }
  FreeSlot(c, ev);
}

bool Simulator::CloseGroups(Ctx& c) {
  if (c.open_groups.empty()) {
    return false;
  }
  for (const OpenGroup& g : c.open_groups) {
    g.link->CloseGroup(g.from_end);
  }
  c.open_groups.clear();
  return true;
}

void Simulator::RunUntil(SimTime until) { RunWindowed(until); }

void Simulator::RunAll() { RunWindowed(kNeverTime); }

void Simulator::RunWindowed(SimTime until) {
  // Top-level code may have scheduled into any LP since the last run, and
  // any transmit it made opened its group in the global context. That
  // group is complete unless a global event is due at the same instant: a
  // serial instant then runs first and closes it at its end.
  lp_next_stale_ = true;
  Ctx& global = *streams_[0];
  if (!global.open_groups.empty() && NextTime(global) != global.now) {
    CloseGroups(global);
  }
  // This thread's profiler spans are chained (Profiler::RecordSince): each
  // starts where the previous one ended, so window setup, summary
  // publication and span recording are booked to a bucket, not lost
  // between them.
  uint64_t tick = Profiler::TickIfEnabled();
  for (;;) {
    SimTime tg = kNeverTime;
    bool serial = false;
    bool exit_loop = false;
    {
      // Round boundary: single-threaded coordinator work — fold last round's
      // summaries, advance the channel clocks, pick this round's participants
      // and horizons, release the workers. Touches the participants' summary
      // slots and arrays indexed by LP, never an idle LP's context or a
      // staged event.
      FoldSummaries();
      const size_t n = stride_;
      if (lp_next_stale_) {
        for (size_t i = 1; i < n; ++i) {
          lp_next_[i] = NextTime(*streams_[i]);
        }
        lp_next_stale_ = false;
      }
      SimTime t0 = kNeverTime;
      for (size_t i = 1; i < n; ++i) {
        next_[i] = std::min(lp_next_[i], mail_min_[i]);
        t0 = std::min(t0, next_[i]);
      }
      tg = NextTime(global);
      t0 = std::min(t0, tg);
      if (t0 == kNeverTime || t0 > until) {
        // Leave every event in a heap so PendingEvents and a later RunUntil
        // see canonical state.
        DrainAllMail();
        exit_loop = true;
      } else if (tg <= t0) {
        // A global event is next: it may touch any partition, so the whole
        // instant runs serially on this thread, with all mail delivered.
        DrainAllMail();
        serial = true;
      } else if (!BuildRound(t0, tg, until)) {
        // Every LP's earliest work sits at or beyond its horizon and no mail
        // is pending — only the global stream can advance time. (With a
        // finite horizon below tg this cannot happen: the t0 LP always
        // clears its own t0 event. Defensive for kNeverTime arithmetic.)
        DrainAllMail();
        serial = true;
      } else {
        StartRound();
      }
      tick = Profiler::RecordSince(ProfCat::kCoordinate, 0, tick, participants_.size());
    }
    if (exit_loop) {
      break;
    }
    if (serial) {
      if (tg == kNeverTime || tg > until) {
        break;
      }
      RunSerialInstant(tg);
      tick = Profiler::TickIfEnabled();
      continue;
    }
    RunRound(tick);
  }
  // Sync every context's clock to the run's end so Now() is well-defined
  // from any calling context afterwards: `until` for a bounded run, the
  // globally last dispatched instant for an unbounded one.
  SimTime end = until;
  if (until == kNeverTime) {
    end = 0;
    for (const Ctx& c : ctxs_) {
      end = std::max(end, c.now);
    }
  }
  for (Ctx& c : ctxs_) {
    if (c.now < end) {
      c.now = end;
    }
  }
}

void Simulator::FoldSummaries() {
  // Boundary bookkeeping for the round that just finished (outbox side
  // parity_). Participants drained their inbound mail at the start of their
  // window, so their mail clocks and sender lists reset before new mail is
  // recorded; everyone else's carry over untouched.
  for (uint32_t idx : participants_) {
    mail_min_[idx] = kNeverTime;
    senders_[idx].clear();
  }
  // Ascending participants make every sender list ascending, so a
  // destination drains its buckets in stream order.
  for (uint32_t idx : participants_) {
    const LpSummary& slot = summaries_[idx];
    lp_next_[idx] = slot.next;
    for (const MailNote& note : slot.mail) {
      if (note.dest == 0) {
        DeliverGlobalMail(idx);
        continue;
      }
      mail_min_[note.dest] = std::min(mail_min_[note.dest], note.min_time);
      senders_[note.dest].push_back(idx);
    }
  }
  participants_.clear();
}

void Simulator::DeliverGlobalMail(uint32_t src) {
  // Global mail is delivered at the boundary: the coordinator owns the
  // global heap between rounds, and serial instants must see it. The sender
  // contract (delay >= global lookahead) guarantees it lands beyond
  // everything any LP has executed.
  SimTime max_now = 0;
  for (const Ctx& c : ctxs_) {
    max_now = std::max(max_now, c.now);
  }
  std::vector<Mail>& mail = Bucket(parity_, src, 0).mail;
  for (Mail& m : mail) {
    NC_CHECK(m.time >= max_now)
        << "ScheduleGlobal from an LP lands at t=" << m.time
        << " ns but an LP already executed t=" << max_now
        << " ns; LP-context global schedules must carry at least the "
           "global lookahead (SetGlobalLookahead / control-plane "
           "latency)";
    PushMail(*streams_[0], m);
  }
  mail.clear();
}

bool Simulator::BuildRound(SimTime t0, SimTime tg, SimTime until) {
  // Horizon cap shared by every LP: the next pending global event, the
  // earliest instant a NEW global event could be scheduled for (t0 + G), and
  // the run bound. When no global lookahead was declared the t0 + G term is
  // omitted entirely — most workloads never ScheduleGlobal from LP context,
  // and capping at t0 + link-lookahead would pin every horizon to the legacy
  // fixed window. The contract stays enforced: DeliverGlobalMail fatally
  // rejects any LP-context global event that lands at or below an executed
  // instant, so a workload that does need the cap fails loudly until it
  // calls SetGlobalLookahead.
  SimTime cap = tg;
  if (global_lookahead_ != 0 && global_lookahead_ < kNeverTime - t0) {
    cap = std::min(cap, t0 + global_lookahead_);
  }
  if (until != kNeverTime) {
    cap = std::min(cap, until + 1);  // events at exactly `until` still run
  }
  const size_t n = stride_;
  // Per-LP safe horizons: nothing another stream executes this round can
  // land in i below min_j next_j + Dist(j, i) (channel-clock argument, see
  // the header). One pass per source row j, saturating at kNeverTime. The
  // j == i term is NOT skipped: Dist(i, i) is the shortest cycle through i
  // (Floyd–Warshall's diagonal), and i's own sends can round-trip back to
  // it — a request at next_i returns no earlier than next_i + that cycle,
  // which bounds how far i itself may run ahead.
  SimTime* horizon = horizon_.data();
  std::fill(horizon + 1, horizon + n, cap);
  for (size_t j = 1; j < n; ++j) {
    const SimTime nj = next_[j];
    if (nj == kNeverTime) {
      continue;
    }
    const SimDuration* row = dist_.data() + j * n;
    for (size_t i = 1; i < n; ++i) {
      SimTime h = nj + row[i];
      h = h < nj ? kNeverTime : h;
      horizon[i] = std::min(horizon[i], h);
    }
  }
  // The legacy global window end, min(T0) + lookahead; kNeverTime when it
  // does not exist, so no horizon counts as merged.
  SimTime legacy_end = kNeverTime;
  if (lookahead_ != kNeverTime && lookahead_ < kNeverTime - t0) {
    legacy_end = t0 + lookahead_;
  }
  for (size_t i = 1; i < n; ++i) {
    if (mail_min_[i] == kNeverTime && lp_next_[i] >= horizon[i]) {
      continue;  // idle LP: skips the round entirely, no stall spin
    }
    if (horizon[i] > legacy_end) {
      ++windows_merged_[i];
    }
    participants_.push_back(static_cast<uint32_t>(i));
  }
  if (participants_.empty()) {
    return false;
  }
  ++windows_;
  if (lp::ChecksEnabled()) {
    lp::SetCurrentWindow(windows_);  // diagnostics for violation reports
  }
  // Flip the outbox side: this round's producers write the fresh side while
  // destinations drain the side FoldSummaries just recorded.
  parity_ ^= 1;
  return true;
}

void Simulator::DrainAllMail() {
  // Deliver every undelivered outbox event into its destination heap (both
  // parity sides; at most one per pair is nonempty). Coordinator-only, between
  // rounds: before serial instants — whose handlers may inspect any heap —
  // and at run exit. Heaps change here and in the serial instant that may
  // follow, so the cached next times are re-read at the next boundary.
  NC_LP_CHECK_COORDINATOR("Simulator::DrainAllMail");
  for (size_t b = 0; b < outbox_.size(); ++b) {
    std::vector<Mail>& mail = outbox_[b].mail;
    if (mail.empty()) {
      continue;
    }
    Ctx& to = *streams_[b % stride_];
    for (Mail& m : mail) {
      NC_CHECK(m.time >= to.now)
          << "cross-partition event lands at t=" << m.time
          << " ns, before its destination LP already reached t=" << to.now
          << " ns; cross-partition schedules must carry at least the "
             "link-path propagation distance (run with --sim-threads=0 "
             "if the workload cannot)";
      PushMail(to, m);
    }
    mail.clear();
  }
  std::fill(mail_min_.begin(), mail_min_.end(), kNeverTime);
  for (std::vector<uint32_t>& senders : senders_) {
    senders.clear();
  }
  participants_.clear();
  lp_next_stale_ = true;
}

void Simulator::RunSerialInstant(SimTime t) {
  // Drain every event at exactly `t`, across all heaps, in (key) order.
  // Handlers may schedule more events at `t` (into any partition — no round
  // is active); the rescan picks them up in canonical order.
  ProfScope prof(ProfCat::kSerialFence);
  uint64_t executed = 0;
  for (;;) {
    Ctx* best = nullptr;
    uint64_t best_key = 0;
    for (Ctx& c : ctxs_) {
      const Handle* next = Peek(c);
      if (next == nullptr || next->time != t) {
        continue;
      }
      if (best == nullptr || next->key < best_key) {
        best = &c;
        best_key = next->key;
      }
    }
    if (best == nullptr) {
      break;
    }
    if (best->now != t) {
      SamplePeak(*best);
    }
    Handle h = Take(*best);
    best->now = t;
    ++best->events;
    ++executed;
    // The event's home context executes it, so nested schedules stamp the
    // right stream (an LP's event re-arming itself stays in that LP).
    exec_ = best;
    DispatchIn(*best, h.ev, /*coalesce=*/false);
  }
  // Every event at t has run, so every group opened at t is complete. Each
  // context stamps its own groups' deliveries, which land after t.
  for (Ctx& c : ctxs_) {
    exec_ = &c;
    CloseGroups(c);
  }
  exec_ = streams_[0];
  prof.set_arg(executed);
}

bool Simulator::InlineRound() const {
  // One thread (or a round too small to be worth a barrier): the
  // coordinator runs the identical schedule alone. Content and counters
  // cannot differ — this is the --sim-threads=1 byte-identity path.
  return threads_ <= 1 || participants_.size() == 1;
}

void Simulator::StartRound() {
  in_window_ = true;
  if (InlineRound()) {
    return;
  }
  StartWorkers();
  // Until the round ends, cur() reads the LP each thread's window installs.
  exec_ = nullptr;
  for (BarrierNode& node : barrier_) {
    node.count.store(0, std::memory_order_relaxed);
  }
  epoch_.store(epoch_.load(std::memory_order_relaxed) + 1, std::memory_order_release);
}

void Simulator::RunRound(uint64_t& tick) {
  if (InlineRound()) {
    for (uint32_t idx : participants_) {
      exec_ = streams_[idx];
      RunLpWindow(*exec_, tick);
    }
  } else {
    RunHomeWindows(0, tick);
    const uint64_t epoch = epoch_.load(std::memory_order_relaxed);
    int spins = 0;
    while (round_done_.load(std::memory_order_acquire) != epoch) {
      if (++spins >= 256) {
        std::this_thread::yield();
        spins = 0;
      }
    }
    tick = Profiler::RecordSince(ProfCat::kBarrierWait, 0, tick);
  }
  exec_ = streams_[0];
  in_window_ = false;
}

void Simulator::RunHomeWindows(size_t slot, uint64_t& tick) {
  // Every LP always runs on the same worker, so its heap, lanes, pool shard
  // and nodes stay in that core's cache from round to round.
  for (uint32_t idx : participants_) {
    if (home_[idx] == slot) {
      tls_ctx_ = streams_[idx];
      RunLpWindow(*tls_ctx_, tick);
    }
  }
  tls_ctx_ = nullptr;
}

void Simulator::RunLpWindow(Ctx& lp, uint64_t& tick) {
  // The caller installed lp as the executing context (see cur()). Publish the executing LP for the runtime ownership sanitizer: every
  // NC_LP_CHECK fired from events in this round compares owners against
  // lp.index. Serial instants and boundary drains deliberately run with LP 0
  // (the coordinator), which the sanitizer lets touch anything.
  lp::ScopedExecutor lp_exec(lp.index);
  LpSummary& slot = summaries_[lp.index];
  const SimTime wend = horizon_[lp.index];
  // Window setup and the inbox drain are booked as merge.
  slot.mail.clear();  // the boundary folded last window's notes
  const uint64_t merged = DrainInbox(lp);
  const Handle* next = Peek(lp);
  tick = Profiler::RecordSince(ProfCat::kMerge, lp.index, tick, merged);
  if (next == nullptr || next->time >= wend) {
    // Participated (mail forced the turn) but nothing executable below the
    // horizon. Counted (sim metric + profiler histogram bin 0) but never
    // timed — stalls are too cheap to clock; the chain books the stall
    // check to whatever span follows.
    ++slot.stalls;
    Profiler::CountWindowStall(lp.index);
    slot.next = next == nullptr ? kNeverTime : next->time;
    return;
  }
  const uint64_t before = lp.events;
  for (;;) {
    const bool runs = next != nullptr && next->time < wend;
    if (!runs || next->time != lp.now) {
      // The groups opened at lp.now close before the clock moves or the
      // window ends, and a delivery they ship to this LP may land below the
      // horizon, so it still runs in this window.
      if (CloseGroups(lp)) {
        next = Peek(lp);
        continue;
      }
      if (!runs) {
        break;
      }
      SamplePeak(lp);
    }
    Handle h = Take(lp);
    lp.now = h.time;
    ++lp.events;
    DispatchIn(lp, h.ev, /*coalesce=*/true);
    next = Peek(lp);
  }
  // The summary the boundary folds, booked as execute: next pending time
  // and each written bucket's earliest event, read from this LP's own
  // outbox row.
  slot.next = next == nullptr ? kNeverTime : next->time;
  for (MailNote& note : slot.mail) {
    note.min_time = Bucket(parity_, lp.index, note.dest).min_time;
  }
  tick = Profiler::RecordSince(ProfCat::kLpExecute, lp.index, tick, lp.events - before);
}

uint64_t Simulator::DrainInbox(Ctx& lp) {
  // Merge last round's mail addressed to this LP — the outbox side producers
  // are NOT writing this round — into the local heap, visiting only the
  // senders the boundary recorded. Runs on the LP's own worker, so the
  // coordinator's boundary section pays no per-event merge work. Mail
  // always lands at or beyond the destination's horizon; the check against
  // lp.now is the exact causality condition and fires identically at every
  // worker count (the schedule is content-determined).
  uint64_t merged = 0;
  const uint32_t side = parity_ ^ 1;
  for (uint32_t src : senders_[lp.index]) {
    std::vector<Mail>& mail = Bucket(side, src, lp.index).mail;
    for (Mail& m : mail) {
      NC_CHECK(m.time >= lp.now)
          << "cross-partition event lands at t=" << m.time
          << " ns, before its destination LP already reached t=" << lp.now
          << " ns; cross-partition schedules must carry at least the "
             "link-path propagation distance (run with --sim-threads=0 if "
             "the workload cannot)";
      ++merged;
      PushMail(lp, m);
    }
    mail.clear();
  }
  return merged;
}

void Simulator::StartWorkers() {
  if (!workers_.empty()) {
    return;
  }
  // Barrier tree over the W = threads_-1 workers, kBarrierArity children per
  // node, leaves first; the root arrival publishes the epoch to round_done_.
  const size_t nworkers = threads_ - 1;
  barrier_level_.clear();
  size_t level_width = nworkers;
  for (;;) {
    size_t nodes = (level_width + kBarrierArity - 1) / kBarrierArity;
    barrier_level_.push_back(barrier_.size());
    for (size_t i = 0; i < nodes; ++i) {
      barrier_.emplace_back();
      barrier_.back().expect = static_cast<uint32_t>(
          std::min(kBarrierArity, level_width - i * kBarrierArity));
    }
    if (nodes == 1) {
      break;
    }
    level_width = nodes;
  }
  workers_.reserve(nworkers);
  for (size_t slot = 1; slot < threads_; ++slot) {
    workers_.emplace_back([this, slot] { WorkerMain(slot); });
  }
}

void Simulator::StopWorkers() {
  if (workers_.empty()) {
    return;
  }
  shutdown_.store(true, std::memory_order_release);
  for (std::thread& t : workers_) {
    t.join();
  }
  workers_.clear();
}

void Simulator::BarrierArrive(size_t worker, uint64_t epoch) {
  size_t level = 0;
  size_t idx = worker / kBarrierArity;
  for (;;) {
    BarrierNode& node = barrier_[barrier_level_[level] + idx];
    // acq_rel: the completing arrival must observe the siblings' LP writes
    // before propagating (and ultimately publishing) completion.
    if (node.count.fetch_add(1, std::memory_order_acq_rel) + 1 != node.expect) {
      return;
    }
    if (level + 1 == barrier_level_.size()) {
      round_done_.store(epoch, std::memory_order_release);
      return;
    }
    idx /= kBarrierArity;
    ++level;
  }
}

void Simulator::WorkerMain(size_t slot) {
  uint64_t seen = 0;
  // This thread's spans are chained like the coordinator's (RunWindowed):
  // the barrier span runs from the end of the worker's last window, through
  // its arrival, to the next round's release. A spin that ends in shutdown
  // is simulator teardown, not a stall, and is never recorded — it would
  // book the whole post-run idle tail as barrier-wait.
  uint64_t tick = Profiler::TickIfEnabled();
  for (;;) {
    uint64_t e;
    int spins = 0;
    while ((e = epoch_.load(std::memory_order_acquire)) == seen) {
      if (shutdown_.load(std::memory_order_acquire)) {
        return;
      }
      if (++spins >= 256) {
        std::this_thread::yield();
        spins = 0;
      }
    }
    seen = e;
    tick = Profiler::RecordSince(ProfCat::kBarrierWait, 0, tick);
    RunHomeWindows(slot, tick);
    BarrierArrive(slot - 1, seen);
  }
}

void Simulator::RunDelivery(Ctx& c, const DeliveryRec& first, bool coalesce) {
  c.batch.clear();
  c.batch.push_back(first);
  // The pop site counted this record as one event; a burst record stands for
  // its whole transmit group, so top up to the per-packet weight.
  c.events += RecWeight(first) - 1;
  if (coalesce) {
    // Extend the burst only while the stream's next event is a delivery to
    // the same node at the same instant. Anything else — a closure event, a
    // later timestamp, another destination — ends the batch, which is what
    // makes burst processing output-equivalent to the sequential schedule
    // (see the header comment). In parallel mode a node's deliveries all land
    // in its own LP heap, so LP-local adjacency is global adjacency. A lane
    // event is a closure, so one that sorts next ends the batch too.
    for (const Handle* front = Peek(c); front != nullptr; front = Peek(c)) {
      const Event& ev = *front->ev;
      if (!ev.is_delivery || front->time != c.now || ev.del.node != first.node) {
        break;
      }
      Handle h = Take(c);
      c.events += RecWeight(h.ev->del);  // each coalesced delivery still counts
      c.batch.push_back(h.ev->del);
      FreeSlot(c, h.ev);
    }
  }
  // The destination node's handler (and its delivery accounting below) must
  // execute in the node's own partition — the routing in ScheduleDeliveryAt
  // guarantees it, and the sanitizer re-checks at dispatch so a handler that
  // re-entered the dispatcher from a foreign LP aborts here.
  NC_LP_CHECK("Node packet dispatch", first.node->name().c_str(), first.node->lp());
  // Book the link-side delivery accounting for the whole batch up front.
  // Safe for the batch > 1 case: no other event runs between these
  // deliveries in the sequential schedule either, so nothing can observe
  // the intermediate stat states this reorders across. A burst record books
  // its whole group in one call (same totals, same instant).
  for (const DeliveryRec& r : c.batch) {
    if (r.link != nullptr) {
      r.link->AccountDelivery(r.from_end, r.bytes, static_cast<uint32_t>(RecWeight(r)));
    }
  }
  // Expand records into arrivals in record order — a burst record's entries
  // sit exactly where its per-packet twin records would have — and retire
  // consumed group buffers into this context's freelist (buffers migrate
  // across partitions like PacketPool payloads; the delivery event itself
  // orders the handoff).
  c.arrivals.clear();
  for (const DeliveryRec& r : c.batch) {
    if (r.burst != nullptr) {
      for (const auto& [pkt, bytes] : r.burst->entries) {
        c.arrivals.push_back(BurstArrival{pkt, r.port});
      }
      c.burst_free.push_back(r.burst);
    } else {
      c.arrivals.push_back(BurstArrival{r.pkt, r.port});
    }
  }
  // Every delivery is a burst, a lone packet included. The burst counters
  // book only multi-packet deliveries of the coalescing dispatchers (serial
  // instants do not coalesce).
  if (coalesce && c.arrivals.size() > 1) {
    ++c.bursts;
    c.burst_pkts += c.arrivals.size();
  }
  first.node->HandleBurst(c.arrivals.data(), c.arrivals.size());
  // A handler may steal a packet (rewrite and re-schedule it) by nulling the
  // pointer; everything still here goes back to the pool.
  for (const BurstArrival& a : c.arrivals) {
    if (a.pkt != nullptr) {
      c.pool.Release(a.pkt);
    }
  }
}

size_t Simulator::PendingEvents() const {
  size_t n = 0;
  for (const Ctx& c : ctxs_) {
    n += c.heap.size() + c.heap_extra + c.lane_events;
  }
  // Outbox mail is rare enough to weigh per event (burst records count as
  // their group size, matching the heap accounting above).
  for (const OutBucket& bucket : outbox_) {
    for (const Mail& m : bucket.mail) {
      n += m.ev.is_delivery ? RecWeight(m.ev.del) : 1;
    }
  }
  return n;
}

uint64_t Simulator::events_processed() const {
  uint64_t n = 0;
  for (const Ctx& c : ctxs_) {
    n += c.events;
  }
  return n;
}

uint64_t Simulator::bursts_dispatched() const {
  uint64_t n = 0;
  for (const Ctx& c : ctxs_) {
    n += c.bursts;
  }
  return n;
}

uint64_t Simulator::burst_packets() const {
  uint64_t n = 0;
  for (const Ctx& c : ctxs_) {
    n += c.burst_pkts;
  }
  return n;
}

uint64_t Simulator::lp_window_stalls(size_t lp) const {
  NC_CHECK(lp <= num_lps()) << "no logical process " << lp << "; " << num_lps()
                            << " are configured";
  return summaries_[lp].stalls;
}

uint64_t Simulator::lp_windows_merged(size_t lp) const {
  NC_CHECK(lp <= num_lps()) << "no logical process " << lp << "; " << num_lps()
                            << " are configured";
  return windows_merged_[lp];
}

uint64_t Simulator::lp_events(size_t lp) const {
  NC_CHECK(lp <= num_lps()) << "no logical process " << lp << "; " << num_lps()
                            << " are configured";
  return streams_[lp]->events;
}

uint64_t Simulator::event_queue_peak() const {
  uint64_t peak = 0;
  for (const Ctx& c : ctxs_) {
    peak = std::max(peak, c.peak);
  }
  return peak;
}

void Simulator::PushMail(Ctx& to, Mail& m) {
  Event* slot = NewSlot(to);
  *slot = std::move(m.ev);
  PushHeap(to, Handle{m.time, m.key, slot});
}

void Simulator::PushHeap(Ctx& c, Handle h) {
  if (h.ev->is_delivery && h.ev->del.burst != nullptr) {
    c.heap_extra += h.ev->del.burst->entries.size() - 1;
  }
  std::vector<Handle>& q = c.heap;
  // Hole-style sift-up: one move per level instead of the three a swap costs.
  q.push_back(h);
  size_t hole = q.size() - 1;
  while (hole > 0) {
    size_t parent = (hole - 1) / 2;
    if (!h.Before(q[parent])) {
      break;
    }
    q[hole] = q[parent];
    hole = parent;
  }
  q[hole] = h;
}

const Simulator::Handle* Simulator::Peek(Ctx& c) {
  const Handle* best = c.heap.empty() ? nullptr : &c.heap.front();
  c.peeked_lane = nullptr;
  for (Lane* lane : c.lanes) {
    if (lane->events.empty()) {
      continue;
    }
    const Handle& front = lane->events.front();
    if (best == nullptr || front.Before(*best)) {
      best = &front;
      c.peeked_lane = lane;
    }
  }
  return best;
}

Simulator::Handle Simulator::Take(Ctx& c) {
  Lane* lane = c.peeked_lane;
  if (lane == nullptr) {
    return PopHeap(c);
  }
  Handle h = lane->events.front();
  lane->events.pop_front();
  --c.lane_events;
  return h;
}

Simulator::Handle Simulator::PopHeap(Ctx& c) {
  std::vector<Handle>& q = c.heap;
  const Handle top = q.front();
  if (top.ev->is_delivery && top.ev->del.burst != nullptr) {
    c.heap_extra -= top.ev->del.burst->entries.size() - 1;
  }
  // Hole-style sift-down of the displaced last element.
  const Handle last = q.back();
  q.pop_back();
  const size_t n = q.size();
  if (n == 0) {
    return top;
  }
  size_t hole = 0;
  size_t left = 1;
  while (left < n) {
    size_t smallest = (left + 1 < n && q[left + 1].Before(q[left])) ? left + 1 : left;
    if (!q[smallest].Before(last)) {
      break;
    }
    q[hole] = q[smallest];
    hole = smallest;
    left = 2 * hole + 1;
  }
  q[hole] = last;
  return top;
}

}  // namespace netcache
