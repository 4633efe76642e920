// Discrete-event simulation engine: one dispatch loop, conservative per-LP
// rounds (adaptive horizons, deterministic merge), on any number of threads.
//
// Deterministic: events fire in canonical (time, key) order, so runs are
// reproducible bit for bit. All times are nanoseconds of simulated time.
//
// Hot-path design (the per-event cost bounds every packet-level experiment):
//   - events hold an InlineFunction, so closures up to kInlineFunctionBytes
//     capture bytes never touch the heap (std::function allocated per event);
//   - an event is built once, in a slot of its context's slab (pointer-
//     stable, recycled through a free list, so a steady-state run allocates
//     nothing), and runs where it sits. The queues order 24-byte handles
//     {time, key, slot}: each context's general queue is an explicit binary
//     heap of handles, so a sift level moves a handle, never an event;
//   - a producer that keeps thousands of events pending at one constant
//     delay (a client's reply timeouts) schedules them into a lane instead
//     (OpenLane / ScheduleInLane): a FIFO of handles that is in (time, key)
//     order by construction, so an append or a pop never sifts. Lane
//     storage is a std::deque, whose blocks come from the allocator;
//   - the dispatch loop reads the next event through one Peek/Take pair that
//     merges the heap front with the context's lane fronts in (time, key)
//     order, so the pop sequence is exactly that of a single heap holding
//     every pending event;
//   - a link keeps no event per transmitted packet: its transmit groups
//     register with the executing context, which closes them when its clock
//     leaves the instant that opened them (see OpenEgressGroup);
//   - a per-context PacketPool recycles the Packet buffers that in-flight
//     closures reference (see net/packet_pool.h);
//   - packet deliveries are typed events (DeliveryRec in a union with the
//     closure), which lets the dispatcher coalesce same-instant deliveries
//     to one node into a burst (VPP-style vector processing). Every delivery
//     — one packet or many — is handed to Node::HandleBurst;
//   - the executing context is one member load whenever a single thread runs
//     events (see cur()).
//
// Burst formation and determinism: a burst is formed ONLY from delivery
// events that are adjacent in the executing LP's (time, key) order — same
// timestamp, same destination node, with no other event between them.
// Newly scheduled events always receive a larger key than everything pending
// in their stream, so in the sequential schedule those deliveries would have
// run back-to-back with nothing observable in between; processing them as one
// burst (with each packet's side effects issued at its own in-order turn, see
// NetCacheSwitch::ProcessBurst) is therefore output-equivalent.
//
// Streams and logical processes. Nodes run in logical processes (LPs), each
// with its own event heap, lanes, packet pool and event-sequence counter. A
// new Simulator has one LP, LP 1, which every node runs in; a topology that
// wants parallelism labels its nodes (Node::set_lp) and calls
// ConfigurePartitions at wiring time. The global stream holds what belongs to
// no node: events scheduled by top-level code and ScheduleGlobal
// (controllers, pollers, invariant checkers). Every event carries a canonical
// 64-bit key = (stream << 48) | local_seq, where stream 0 is the global
// stream and stream i is LP i, so (time, key) is a total order over all
// events.
//
// Execution alternates two phases, whatever the layout and worker count:
//   - serial instants: whenever the earliest pending event lives in the
//     global stream, the coordinator drains every event at exactly that
//     timestamp — from all heaps, in canonical key order — on one thread.
//     Global events may touch any node, so they serialize the whole
//     simulation for their instant; an idle control plane costs no fences.
//   - adaptive rounds (per-LP horizons, null-message-free Chandy–Misra-style
//     conservative sync): with next_j the earliest pending event time of LP j
//     (its next event by Peek, or undelivered cross-LP mail addressed to j,
//     whichever is earlier), every LP i gets its own safe horizon
//
//         horizon_i = min( tg,                      // next global event
//                          t0 + G,                  // earliest possible NEW
//                                                   // global event (t0 =
//                                                   // min_j next_j, G the
//                                                   // global lookahead)
//                          min_j next_j + D(j, i) ) // channel clocks
//
//     where D(j, i) is the all-pairs shortest-path propagation distance over
//     cross-partition links (Floyd–Warshall at ConfigurePartitions time; the
//     transitive closure is what makes the bound sound when influence relays
//     through an idle intermediate LP). Each participating LP executes its
//     local events with time < horizon_i in one window; LPs with no work
//     before their horizon and no pending mail skip the round entirely. The
//     link's integer-picosecond serialization grid guarantees any delivery
//     lands at least propagation + 1 ns after the instant that produced it,
//     so mail always lands at or beyond the destination's horizon (re-checked
//     fatally at drain time). With one LP only tg, t0 + G and the run bound
//     cap the horizon: a round runs everything before the next global event,
//     or the next one that could be scheduled.
//
// Cross-partition events produced inside a round are buffered in per-
// (source, destination) outbox buckets, double-buffered by round parity: the
// producer appends to this round's side while the destination drains the
// previous round's side into its own heap at the start of its next turn.
// Each LP window ends by publishing a summary into its own cache line: its
// next pending time and, per bucket it wrote, the destination and the
// earliest staged time. The coordinator's boundary section folds only the
// participants' summaries, reuses the cached next times of LPs that sat the
// round out (every context is re-read only when a run starts and after
// DrainAllMail, i.e. around serial instants), and records per destination
// which senders wrote mail, so a destination drains only those buckets. No
// staged event and no idle LP's context is touched at the boundary. An LP
// with pending mail always participates in the next round, which is what
// bounds every bucket's lifetime to one round per side. Each LP runs on a
// fixed home worker, (lp - 1) mod threads, so its heap and node state stay
// in one core's cache (a round with a single participant, and every round of
// an unpartitioned simulator, runs inline on the coordinator, without a
// barrier). Because keys are a total order, a context's pop sequence (heap
// and lanes merged by Peek) depends only on its content set, so merge order
// is irrelevant and the parallel run is byte-identical to the same round
// schedule on one thread (--sim-threads=1).
//
// Cross-LP scheduling contract (enforced fatally at drain time): a packet
// delivery satisfies it by construction; a direct cross-LP ScheduleAtFor
// must carry at least D(src, dst); ScheduleGlobal from LP context requires a
// declared global lookahead G (SetGlobalLookahead) and a delay of at least
// G. Topologies that never ScheduleGlobal from LP context leave G unset and
// horizons uncapped by the global stream. A cross-partition link with zero
// propagation would give a zero horizon, so ConfigurePartitions rejects it.
//
// Parallel sweeps still run one Simulator per trial on worker threads
// (core/sweep.h); a Simulator instance is externally single-threaded — the
// internal round workers are invisible to callers.

#ifndef NETCACHE_NET_SIMULATOR_H_
#define NETCACHE_NET_SIMULATOR_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <new>
#include <thread>
#include <utility>
#include <vector>

#include "common/inline_function.h"
#include "common/logging.h"
#include "common/lp_ownership.h"
#include "common/time_units.h"
#include "net/node.h"
#include "net/packet_pool.h"

namespace netcache {

class Link;

// One link direction's transmit group: every transmission ACCEPTED by that
// direction within one simulated instant. The transmitter serializes the
// group back-to-back and the far NIC raises one interrupt for the lot —
// the whole group is delivered at the LAST member's serialization end plus
// propagation (interrupt-coalescing analogue; see Link::Transmit). A
// multi-packet group travels as ONE delivery record carrying these entries.
// Buffers are pooled per simulator context and migrate between contexts the
// way PacketPool payloads do.
struct EgressBurst {
  SimTime last_tx_done = 0;  // latest member's serialization end (ns grid)
  std::vector<std::pair<Packet*, uint32_t>> entries;  // (payload, wire bytes)
};

class Simulator {
 public:
  // Closure type for scheduled events. Captures larger than
  // kInlineFunctionBytes still work (single heap allocation); keep hot-path
  // captures inside the budget by pooling bulky payloads (packet_pool()).
  using EventFn = InlineFunction<void()>;

  // A packet delivery as plain data instead of a closure: the dispatcher
  // needs to see through delivery events to coalesce them, and a struct it
  // can inspect is also cheaper than a captured lambda. `link`/`from_end`/
  // `bytes` let the dispatcher book the link's delivery accounting that the
  // old closure performed inline.
  struct DeliveryRec {
    Node* node = nullptr;
    uint32_t port = 0;
    Packet* pkt = nullptr;  // owned by a packet pool shard; released after dispatch
    Link* link = nullptr;
    int from_end = 0;
    uint32_t bytes = 0;  // wire bytes; for a burst record, the group total
    // Non-null: this record carries a whole multi-packet transmit group;
    // `pkt` is null and the payloads ride in burst->entries. The dispatcher
    // weighs the record as entries.size() events, so events_processed and
    // queue-peak metrics count packets, not records.
    EgressBurst* burst = nullptr;
  };

  // A constant-delay event lane (see OpenLane). Callers hold only the
  // pointer; the definition follows Ctx, whose events it stores.
  struct Lane;

  Simulator();
  ~Simulator();

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  // Simulated now of the executing context (all contexts agree whenever code
  // that can observe more than one of them runs: serial instants and between
  // RunUntil calls).
  SimTime Now() const { return cur()->now; }

  // Schedules `fn` to run `delay` ns from now, in the stream of whatever
  // context is executing: the running event's LP, or the global stream for
  // top-level code and global events.
  void Schedule(SimDuration delay, EventFn fn) {
    ScheduleAt(Now() + delay, std::move(fn));
  }

  // Schedules `fn` at absolute time `at`. Scheduling into the past would
  // silently misorder the causal chain, so `at < Now()` is a fatal error.
  void ScheduleAt(SimTime at, EventFn fn);

  // Node-affine scheduling: the event runs in `node`'s LP regardless of
  // which context schedules it. Self-rescheduling per-node machinery (a
  // workload driver's send loop, a server's service completion) must use
  // these, or a chain started by top-level code would stay in the global
  // stream and run every step as a serial instant. Targeting a FOREIGN LP
  // from inside a round must carry at least the link-path distance
  // D(src, dst) (see the header comment).
  void ScheduleFor(Node* node, SimDuration delay, EventFn fn) {
    ScheduleAtFor(node, Now() + delay, std::move(fn));
  }
  void ScheduleAtFor(Node* node, SimTime at, EventFn fn);

  // Schedules into the global stream explicitly: control-plane work that may
  // touch nodes in several partitions (controller queue pumps, invariant
  // checkers). Runs in a serial instant. Calling this from LP context
  // requires SetGlobalLookahead, with `delay` at least that lookahead
  // (enforced fatally at drain time).
  void ScheduleGlobal(SimDuration delay, EventFn fn) {
    ScheduleGlobalAt(Now() + delay, std::move(fn));
  }
  void ScheduleGlobalAt(SimTime at, EventFn fn);

  // Opens a lane for events that all run `delay` ns after they are
  // scheduled, in `node`'s LP. Call at wiring time, before
  // ConfigurePartitions, which moves every lane to its node's LP (until then
  // every lane lives in LP 1). The Simulator owns the lane.
  Lane* OpenLane(Node* node, SimDuration delay);

  // ScheduleFor(lane's node, lane's delay, fn) with the same key, pop order
  // and pending counts, but the event joins the lane's FIFO instead of the
  // heap. An append that would sort before the lane's tail (a same-instant
  // schedule from a lower stream), or one made inside a round from another
  // LP, takes the ordinary heap/outbox path, so order stays exact.
  void ScheduleInLane(Lane* lane, EventFn fn);

  // Schedules a packet delivery at absolute time `at` (Link::Transmit's
  // delivery leg). Runs in the destination node's LP.
  void ScheduleDeliveryAt(SimTime at, const DeliveryRec& rec);

  // Called by Link's constructor so ConfigurePartitions can compute the
  // lookahead from the topology.
  void RegisterLink(Link* link) { links_.push_back(link); }

  // Splits the simulation into `num_lps` logical processes executed by
  // `threads` threads (clamped to num_lps; 1 runs the round schedule on
  // the calling thread, which is what makes --sim-threads=1 vs =N
  // byte-identical). Nodes must already be labeled via Node::set_lp with
  // values in [1, num_lps]. Wiring time only: nothing may be pending. A
  // cross-partition link with zero propagation delay is fatal (a zero
  // horizon would stop every window from making progress).
  void ConfigurePartitions(size_t num_lps, size_t threads);

  // Declares a lower bound on the delay of any LP-context ScheduleGlobal,
  // which becomes the t0+G cap on round horizons. Unset (the default) means
  // "no LP ever schedules into the global stream": horizons are then capped
  // only by pending global events and per-LP channel clocks, and an
  // LP-context ScheduleGlobal dies at drain time. A topology whose LP->
  // global producers carry a physical control-plane latency (e.g. the cache
  // controller's control_op_latency) declares that latency here, at wiring
  // time; must be > 0.
  void SetGlobalLookahead(SimDuration g);

  // ConfigurePartitions ran; sim_threads() is 0 until then (one LP, run
  // inline, no workers).
  bool partitioned() const { return threads_ != 0; }
  size_t num_lps() const { return ctxs_.size() - 1; }
  size_t sim_threads() const { return threads_; }

  // Opens a transmit group for `link`'s direction `from_end`: returns an
  // empty group buffer and registers the group with the executing context.
  // Every transmission that direction accepts before the context's clock
  // leaves this instant joins the group; then the dispatcher closes it
  // (Link::CloseGroup), which ships it as one delivery. A dispatch loop also
  // closes its groups before it stops — at `until`, at a window's end, at
  // the end of a serial instant — and runs on if a flushed delivery lands
  // below its bound. Group buffers are pooled like packet_pool(): acquired
  // in the sending LP, released wherever the group is consumed (buffers
  // migrate).
  EgressBurst* OpenEgressGroup(Link* link, int from_end) {
    Ctx* c = cur();
    c->open_groups.push_back(OpenGroup{link, from_end});
    if (c->burst_free.empty()) {
      return &c->burst_arena.emplace_back();
    }
    EgressBurst* g = c->burst_free.back();
    c->burst_free.pop_back();
    g->entries.clear();
    return g;
  }
  void ReleaseEgressBurst(EgressBurst* g) { cur()->burst_free.push_back(g); }

  // Runs events until every queue is empty or simulated time would exceed
  // `until`. Events at exactly `until` are executed.
  void RunUntil(SimTime until);

  // Runs until the event queues drain completely.
  void RunAll();

  // Events in every heap, lane and outbox; a burst record counts as its
  // packets.
  size_t PendingEvents() const;

  // Total events executed since construction. Deterministic for a fixed seed,
  // so benches report it as their work measure (events/sec). Every delivery
  // in a coalesced burst still counts as one event here.
  uint64_t events_processed() const;

  // Burst diagnostics: deliveries of two or more packets dispatched in LP
  // windows (serial instants do not coalesce), and the packets they
  // carried. Deliberately NOT wired into any metrics registry: coalescing
  // must stay invisible in exported JSON.
  uint64_t bursts_dispatched() const;
  uint64_t burst_packets() const;

  // Event-queue pressure, exported as sim.* metrics by Rack. The peak counts
  // one context's heap and lane events together and is sampled when the
  // dispatcher advances to a new timestamp — NOT per push — so it is
  // identical across --sim-threads values (the determinism legs diff
  // metrics JSON byte-for-byte). A window stall is a round an LP
  // participated in (forced by pending mail) but found no event below its
  // horizon; a merged window is a round whose per-LP horizon exceeded the
  // legacy global min(T0)+lookahead window end; an LP's events are those of
  // its stream, serial instants included. All three are schedule
  // properties, identical across worker counts. `lp` must be at most
  // num_lps() (0 is the global stream, which never stalls or merges).
  uint64_t event_queue_peak() const;
  uint64_t lp_window_stalls(size_t lp) const;
  uint64_t lp_windows_merged(size_t lp) const;
  uint64_t lp_events(size_t lp) const;
  uint64_t windows_run() const { return windows_; }

  // Freelist for Packet payloads referenced by in-flight closures: the
  // executing context's shard.
  PacketPool& packet_pool() { return cur()->pool; }

 private:
  static constexpr size_t kDefaultReserveEvents = 4096;
  static constexpr int kStreamShift = 48;
  static constexpr SimTime kNeverTime = ~SimTime{0};
  static constexpr size_t kBarrierArity = 4;

  // An event's payload: a closure or a delivery record. A pending event sits
  // in a slot of its context's slab and runs there; a free slot holds a
  // (trivially destructible) record, so only a pending closure has anything
  // to destroy — the slab's destructor frees what a run left pending.
  struct Event {
    bool is_delivery = true;
    union {
      EventFn fn;       // active when !is_delivery
      DeliveryRec del;  // active when is_delivery
    };

    Event() : del() {}
    explicit Event(EventFn&& f) : is_delivery(false), fn(std::move(f)) {}
    explicit Event(const DeliveryRec& d) : del(d) {}
    Event(Event&& other) noexcept : Event() { *this = std::move(other); }
    Event& operator=(Event&& other) noexcept {
      if (this != &other) {
        Clear();
        if (other.is_delivery) {
          Set(other.del);
        } else {
          Set(std::move(other.fn));
        }
      }
      return *this;
    }
    ~Event() { Clear(); }

    // Builds the payload in a cleared slot.
    void Set(EventFn&& f) {
      ::new (&fn) EventFn(std::move(f));
      is_delivery = false;
    }
    void Set(const DeliveryRec& d) { ::new (&del) DeliveryRec(d); }

    // Ends a closure's life (a boxed capture is freed here); the slot holds
    // a record again.
    void Clear() {
      if (!is_delivery) {
        fn.~EventFn();
        is_delivery = true;
      }
    }
  };

  // What the queues order: an event's place in the canonical (time, key)
  // order and the slot holding it.
  struct Handle {
    SimTime time;
    uint64_t key;  // (stream << kStreamShift) | per-stream sequence
    Event* ev;

    // Min-heap order: earliest time first, canonical key within one instant.
    // With a single stream the key degenerates to insertion sequence (FIFO).
    bool Before(const Handle& other) const {
      if (time != other.time) {
        return time < other.time;
      }
      return key < other.key;
    }
  };

  // An event crossing partitions inside a round: no slot yet, because only
  // the destination's thread may take one from its slab (DrainInbox does).
  struct Mail {
    SimTime time;
    uint64_t key;
    Event ev;
  };

  // One side of a per-(source, destination) cross-partition mail bucket.
  // Buckets are double-buffered by round parity: the producing LP appends to
  // side (round & 1) during a round; the destination drains side
  // (1 - round & 1) — last round's mail — at the start of its next
  // participating turn. Each side has its own cache line, so a producer
  // filling one side never shares a line with the destination draining the
  // other, and the window barrier's release/acquire chain orders the
  // handoff.
  struct alignas(64) OutBucket {
    std::vector<Mail> mail;
    SimTime min_time = 0;  // valid while mail is nonempty
  };

  // A transmit group open in a context: the link direction it belongs to.
  struct OpenGroup {
    Link* link;
    int from_end;
  };

  // A bucket an LP window wrote: its destination and earliest staged time.
  struct MailNote {
    uint32_t dest;
    SimTime min_time;
  };

  // What one LP window leaves for the round boundary. Written only by the
  // thread running that LP's window, read by the coordinator at the next
  // boundary (barrier-ordered); one cache line per LP, so workers publishing
  // neighbouring LPs never share one.
  struct alignas(64) LpSummary {
    NC_LP_OWNED SimTime next = kNeverTime;  // the LP's next event after the window
    NC_LP_OWNED uint64_t stalls = 0;        // participating rounds with no local work
    // Buckets this window's mail went to: Route appends a note at a bucket's
    // first event of the round, the window's end fills in the minima, and
    // the LP clears the list at the start of its next window.
    NC_LP_OWNED std::vector<MailNote> mail;
  };

  // One event stream. ctxs_[0] is the global stream; ctxs_[1..P] are the
  // logical processes. Each is touched by exactly one thread at a time: its
  // round worker inside a round, the coordinator everywhere else (handoffs
  // ordered by the round barrier). Cache-line aligned, so workers running
  // neighbouring LPs never share a line.
  struct alignas(64) Ctx {
    NC_LP_SHARED uint32_t index = 0;  // wiring-time, immutable after setup
    NC_LP_OWNED SimTime now = 0;
    NC_LP_OWNED uint64_t next_lseq = 0;
    NC_LP_OWNED uint64_t events = 0;
    NC_LP_OWNED uint64_t peak = 0;    // max heap size, sampled at timestamp advances
    NC_LP_OWNED uint64_t bursts = 0;
    NC_LP_OWNED uint64_t burst_pkts = 0;
    NC_LP_OWNED std::vector<Handle> heap;  // explicit binary min-heap
    // Every event pending in this context — heap, lanes — sits in a slot of
    // `slab`. A deque, so slots never move while handles point at them;
    // `free_slots` recycles them, so steady state allocates nothing.
    NC_LP_OWNED std::deque<Event> slab;
    NC_LP_OWNED std::vector<Event*> free_slots;
    // Transmit groups opened at `now`, in opening order (OpenEgressGroup).
    NC_LP_OWNED std::vector<OpenGroup> open_groups;
    // Scratch buffers for RunDelivery, members so steady state allocates
    // nothing per burst.
    NC_LP_OWNED std::vector<DeliveryRec> batch;
    NC_LP_OWNED std::vector<BurstArrival> arrivals;
    NC_LP_OWNED PacketPool pool;
    // Extra event weight carried by burst records currently in `heap`
    // (entries.size() - 1 each): heap.size() + heap_extra counts pending
    // packets, not records, for event_queue_peak and PendingEvents.
    // Maintained by PushHeap/PopHeap.
    NC_LP_OWNED uint64_t heap_extra = 0;
    // Lanes living in this context (wiring-time list, see OpenLane), the
    // events they hold, and the lane the last Peek's event sits in (nullptr:
    // the heap front), which is where Take pops from.
    NC_LP_SHARED std::vector<Lane*> lanes;
    NC_LP_OWNED uint64_t lane_events = 0;
    NC_LP_OWNED Lane* peeked_lane = nullptr;
    // Transmit-group buffer pool shard (see AcquireEgressBurst). The arena
    // owns storage — pointer-stable, freed wholesale at destruction, so a
    // group still sitting in a queue at teardown leaks nothing. The freelist
    // holds recycled buffers; like PacketPool payloads, buffers migrate to
    // the consuming context's freelist.
    NC_LP_OWNED std::deque<EgressBurst> burst_arena;
    NC_LP_OWNED std::vector<EgressBurst*> burst_free;
  };

 public:
  // One constant-delay lane: every event in it was scheduled `delay` ns ahead
  // by ScheduleInLane, so appends arrive in (time, key) order and the deque
  // stays sorted without a sift. It lives in LP 1 until ConfigurePartitions
  // moves it to its node's LP.
  struct Lane {
    NC_LP_SHARED Node* node = nullptr;  // wiring-time, immutable after setup
    NC_LP_SHARED SimDuration delay = 0;
    NC_LP_SHARED Ctx* ctx = nullptr;    // moved by ConfigurePartitions
    NC_LP_OWNED std::deque<Handle> events;  // slots in ctx's slab
  };

 private:
  // Sense-reversing tree barrier node (arity kBarrierArity), padded to a
  // cache line so sibling arrivals don't false-share. The "sense" is the
  // round's epoch: the coordinator zeroes all counts before releasing the
  // next epoch, so a node never carries state across rounds.
  struct alignas(64) BarrierNode {
    std::atomic<uint32_t> count{0};
    uint32_t expect = 0;
  };

  // Appends contexts until there are `num_lps` LPs and sizes every per-stream
  // array for them (construction and ConfigurePartitions).
  void AddLps(size_t num_lps);
  // Heap primitives operate on c.heap and keep c.heap_extra in sync with the
  // burst records passing through (see Ctx::heap_extra).
  static void PushHeap(Ctx& c, Handle h);
  static Handle PopHeap(Ctx& c);
  // Moves a drained mail event into a slot of `to` and pushes it.
  static void PushMail(Ctx& to, Mail& m);

  // Slab slots of c: a cleared slot to build an event in, and the return of
  // one whose event ran (its closure is destroyed here).
  static Event* NewSlot(Ctx& c) {
    if (c.free_slots.empty()) {
      return &c.slab.emplace_back();
    }
    Event* ev = c.free_slots.back();
    c.free_slots.pop_back();
    return ev;
  }
  static void FreeSlot(Ctx& c, Event* ev) {
    ev->Clear();
    c.free_slots.push_back(ev);
  }

  // The one dispatch rule: Peek returns c's next event in (time, key) order —
  // the heap front or the earliest lane front — or nullptr when c holds
  // none; Take pops the event the last Peek(c) returned. Nothing may be
  // scheduled into c between the two.
  static const Handle* Peek(Ctx& c);
  static Handle Take(Ctx& c);
  static SimTime NextTime(Ctx& c) {
    const Handle* h = Peek(c);
    return h == nullptr ? kNeverTime : h->time;
  }

  // The executing context. Whenever one thread runs events — top-level code
  // (the global stream), serial instants, inline rounds — it is exec_, one
  // member load. A multi-threaded round clears exec_ for its duration, and
  // each thread then reads the LP its window installed in tls_ctx_.
  Ctx* cur() const {
    Ctx* c = exec_;
    return c != nullptr ? c : tls_ctx_;
  }

  // The context running `node`'s events: its LP. Nodes are labeled before
  // ConfigurePartitions, which checks the links' endpoints; this catches a
  // label beyond the configured LPs at its first schedule.
  Ctx& LpOf(const Node* node) {
    const uint32_t lp = node->lp();
    NC_CHECK(lp != 0 && lp < stride_)
        << node->name() << " labeled with LP " << lp << " but only " << num_lps()
        << " logical processes are configured";
    return *streams_[lp];
  }

  uint64_t NextKey(Ctx& c) {
    return (static_cast<uint64_t>(c.index) << kStreamShift) | c.next_lseq++;
  }

  // The bucket side `side` of mail from stream `src` to stream `dest`.
  OutBucket& Bucket(uint32_t side, size_t src, size_t dest) {
    return outbox_[(side * stride_ + src) * stride_ + dest];
  }

  // Builds the event stamped (at, key) for context `to`: in a slot of `to`'s
  // slab, or as mail when a round forbids touching `to`. `Payload` is an
  // EventFn or a DeliveryRec.
  template <typename Payload>
  void Route(Ctx& from, Ctx& to, SimTime at, uint64_t key, Payload&& payload);
  // The one dispatch loop: serial instants of the global stream and LP
  // rounds, until nothing is left at or below `until`.
  void RunWindowed(SimTime until);
  void RunSerialInstant(SimTime t);
  void FoldSummaries();
  void DeliverGlobalMail(uint32_t src);
  bool BuildRound(SimTime t0, SimTime tg, SimTime until);
  void DrainAllMail();
  // A round's windows run inline on the coordinator when this holds.
  bool InlineRound() const;
  void StartRound();
  // Window runners take the calling thread's profiler chain tick (see
  // Profiler::RecordSince) and advance it past the spans they record.
  void RunRound(uint64_t& tick);
  void RunHomeWindows(size_t slot, uint64_t& tick);
  void RunLpWindow(Ctx& lp, uint64_t& tick);
  uint64_t DrainInbox(Ctx& lp);
  // Closes the transmit groups open in c (each ships its delivery, stamped
  // from c's stream; c must be the executing context). Returns whether there
  // were any, i.e. whether c's next event may have changed.
  static bool CloseGroups(Ctx& c);
  // Runs the event in its slot, then frees the slot.
  void DispatchIn(Ctx& c, Event* ev, bool coalesce);
  void RunDelivery(Ctx& c, const DeliveryRec& first, bool coalesce);
  void StartWorkers();
  void StopWorkers();
  void WorkerMain(size_t slot);
  void BarrierArrive(size_t worker, uint64_t epoch);
  void SamplePeak(Ctx& c) {
    size_t sz = c.heap.size() + c.heap_extra + c.lane_events;
    if (sz > c.peak) {
      c.peak = sz;
    }
  }

  // The executing context while one thread runs events; nullptr during a
  // multi-threaded round (see cur()). Written by the coordinator outside the
  // parallel region, so the round barrier orders it for the workers.
  NC_LP_FENCED Ctx* exec_ = nullptr;
  // True only between a round's kick and its barrier; cross-partition
  // schedules are staged into outbox buckets instead of pushed while set.
  // Written by the coordinator outside the parallel region, so the barrier's
  // release/acquire pair orders it for the workers.
  NC_LP_FENCED bool in_window_ = false;
  // Round parity selecting the outbox side producers write (flipped by the
  // coordinator at each boundary; the other side is being drained).
  NC_LP_FENCED uint32_t parity_ = 0;
  NC_LP_SHARED size_t threads_ = 0;  // 0 until ConfigurePartitions
  NC_LP_SHARED SimDuration lookahead_ = kNeverTime;  // no cross-partition link yet
  NC_LP_SHARED SimDuration global_lookahead_ = 0;  // 0 = no t0+G horizon cap
  NC_LP_FENCED uint64_t windows_ = 0;     // coordinator-only, between rounds
  NC_LP_SHARED std::deque<Ctx> ctxs_;  // deque: Ctx owns a PacketPool and must never move
  NC_LP_SHARED std::vector<Ctx*> streams_;  // &ctxs_[i], one load per lookup
  NC_LP_SHARED std::vector<Link*> links_;  // wiring-time registry
  NC_LP_SHARED std::deque<Lane> lanes_;   // wiring-time; deque: lanes never move

  // Wiring-time layout, all indexed by stream (P+1 of them; stride_ is that
  // count). The outbox holds both parity sides of
  // every (source, destination) bucket; a side belongs to whichever thread
  // runs its producer (this round's side) or its destination (the other),
  // see OutBucket. Each LP has one summary slot, written by its window, and
  // one home worker slot, (lp - 1) mod threads_ (the coordinator is slot 0).
  // Entry 0, the global stream, runs no window: its counters stay 0.
  NC_LP_SHARED size_t stride_ = 0;
  NC_LP_SHARED std::vector<OutBucket> outbox_;  // 2 * (P+1)^2: [side][src][dest]
  NC_LP_SHARED std::vector<LpSummary> summaries_;
  NC_LP_SHARED std::vector<uint32_t> home_;

  // Per-link-clock state, coordinator-only between rounds (workers read
  // horizon_, senders_ and participants_ after the epoch acquire):
  //   - dist_: all-pairs shortest-path propagation distances (wiring-time,
  //     immutable after ConfigurePartitions);
  //   - lp_next_: each LP's next event as of its last summary, valid while
  //     lp_next_stale_ is false (RunWindowed entry and DrainAllMail set it:
  //     top-level code and serial instants schedule into heaps directly);
  //   - next_: each LP's earliest pending time, mail included;
  //   - mail_min_ and senders_: per destination, the earliest undelivered
  //     mail and the streams whose bucket holds it;
  //   - horizon_: this round's per-LP window end;
  //   - windows_merged_: per LP, rounds wider than the legacy window;
  //   - participants_: the current round's LPs, ascending.
  NC_LP_SHARED std::vector<SimDuration> dist_;  // (P+1)^2, row-major
  NC_LP_FENCED std::vector<SimTime> lp_next_;
  NC_LP_FENCED bool lp_next_stale_ = true;
  NC_LP_FENCED std::vector<SimTime> next_;
  NC_LP_FENCED std::vector<SimTime> mail_min_;
  NC_LP_FENCED std::vector<std::vector<uint32_t>> senders_;
  NC_LP_FENCED std::vector<SimTime> horizon_;
  NC_LP_FENCED std::vector<uint64_t> windows_merged_;
  NC_LP_FENCED std::vector<uint32_t> participants_;

  // Persistent spin-barrier round workers (slots 1..threads_-1; the
  // coordinator executes slot 0). Each runs the participating LPs whose home
  // is its slot. Spawned lazily on the first multi-threaded
  // round, joined in the destructor. Workers park on epoch_ and arrive
  // through the barrier tree; the root arrival publishes the epoch into
  // round_done_.
  NC_LP_SHARED std::vector<std::thread> workers_;  // coordinator start/join only
  NC_LP_SHARED std::atomic<uint64_t> epoch_{0};
  NC_LP_SHARED std::atomic<uint64_t> round_done_{0};
  NC_LP_SHARED std::atomic<bool> shutdown_{false};
  NC_LP_SHARED std::deque<BarrierNode> barrier_;   // tree levels, leaves first
  NC_LP_SHARED std::vector<size_t> barrier_level_; // start index of each level

  // The LP a thread's window runs during a multi-threaded round.
  static inline thread_local Ctx* tls_ctx_ = nullptr;
};

}  // namespace netcache

#endif  // NETCACHE_NET_SIMULATOR_H_
