// Low-overhead wall-clock profiler: scoped timers writing fixed-size
// per-thread span buffers, exported as Chrome trace-event JSON (loadable in
// Perfetto / chrome://tracing) plus an aggregate summary block that
// tools/profile_report.py turns into a stall-attribution table.
//
// Why this exists: the conservative parallel DES is barrier-bound (~2 events
// per lookahead window on the 16-rack leaf-spine leg), and end-of-run counters
// cannot say where the worker nanoseconds go. The profiler attributes every
// span to one of a fixed set of categories — per-LP window execution, barrier
// waits, cross-partition merges, global-stream serial fences, and the switch
// pipeline's burst stages — so the scheduler work the ROADMAP points at can
// start from a quantified baseline (docs/PERFORMANCE.md, "Where the
// wall-clock goes").
//
// Design rules, in order:
//   1. Never perturb the simulation. The profiler reads the wall clock and
//      writes its own buffers; it never touches simulator state, and no
//      simulation decision may depend on it. This file and profiler.cc are
//      the only places outside bench/ allowed to read steady_clock (the
//      determinism lint carves out exactly this pair). determinism_test runs
//      its legs with --profile-out on to enforce the contract end to end.
//   2. Zero heap allocation on the hot path. Each recording thread owns a
//      lane with a fixed-capacity span vector, reserved once when the thread
//      first records; when the buffer fills, further spans are counted as
//      dropped but per-category aggregate totals keep accumulating, so the
//      attribution table stays exact even when the timeline is truncated.
//   3. Compile to nothing when disabled. With -DNETCACHE_DISABLE_PROFILING
//      every ProfScope is an empty object; without it, an uninstalled
//      profiler costs one relaxed atomic load per scope (the pointer is
//      atomic — unlike the single-threaded trace recorder, DES window
//      workers read it concurrently with Install/uninstall).
//
// Ownership: the installer (tools/netcache_sim.cpp, bench/bench_harness.cc)
// must keep the Profiler alive until after the simulator that recorded into
// it is destroyed — a worker thread may still hold the pointer it loaded at
// scope entry when the profiler is uninstalled.

#ifndef NETCACHE_COMMON_PROFILER_H_
#define NETCACHE_COMMON_PROFILER_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <vector>

#include "common/thread_annotations.h"

namespace netcache {

// Span categories. The first five are the parallel-DES buckets the
// attribution table is defined over; the switch_* stages nest inside
// lp_execute spans and are reported as a breakdown within execute, never
// added to the wall-clock buckets (that would double-count).
enum class ProfCat : uint8_t {
  kLpExecute = 0,    // one LP draining its heap inside a round
  kBarrierWait = 1,  // coordinator or worker spinning at the round barrier
  kMerge = 2,        // an LP draining last round's inbound cross-LP mail
  kSerialFence = 3,  // global-stream serial instant (whole sim serialized)
  kCoordinate = 4,   // round boundary: channel clocks, horizons, participants
  kSwitchDigest = 5,      // burst stage 1: key digest + match prefetch
  kSwitchMatchPeek = 6,   // burst stage 2: match/peek + stats/value prefetch
  kSwitchValueServe = 7,  // burst stage 3: stats + value read + emit
  kServerLookup = 8,      // server: store lookup, and its warm hints (arg 0), under the store mutex
  kServerReply = 9,       // server service: in-place reply rewrite + send
  kEgressFlush = 10,      // link: transmit-group close + delivery scheduling
};
inline constexpr size_t kNumProfCats = 11;

// Stable names used in the JSON output ("lp_execute", "barrier_wait", ...).
const char* ProfCatName(ProfCat cat);

// One closed span on a lane's timeline. 32 bytes so a full lane stays cache-
// and memory-friendly; times are nanoseconds relative to Profiler
// construction (Chrome trace `ts` wants small numbers anyway).
struct ProfSpanRecord {
  uint64_t start_ns = 0;
  uint64_t dur_ns = 0;
  uint64_t arg = 0;  // events dispatched / packets in burst
  uint32_t lp = 0;   // LP id for DES spans, 0 for global/switch spans
  uint32_t cat = 0;  // ProfCat
};

class Profiler {
 public:
  struct Options {
    // Timeline spans kept per recording thread; overflow is dropped (and
    // counted), aggregates keep accumulating. 2^18 spans = 8 MiB per lane.
    size_t spans_per_lane = size_t{1} << 18;
    // Recording threads; a thread past the cap records nothing (counted).
    size_t max_lanes = 64;
    // Per-LP execute accounting table, indexed by LP id; ids at or past the
    // cap still count in the lane/category totals, just not per-LP.
    size_t max_lps = 256;
  };

  explicit Profiler(const Options& options);

  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  // Wall nanoseconds on the monotonic clock. The profiler's one clock read;
  // every stored timestamp is relative to the construction instant.
  static uint64_t NowNs() {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

  // Appends one closed span [start_ns, end_ns) from the calling thread's
  // lane. `arg` is the category's count tag (events dispatched for DES
  // categories, packets for switch stages). Lock-free: each thread writes
  // only its own lane; per-LP slots are written only by the thread that owns
  // that LP's window (the simulator's barrier orders the handoff).
  void RecordSpan(ProfCat cat, uint32_t lp, uint64_t start_ns, uint64_t end_ns,
                  uint64_t arg);

  // A lookahead window in which `lp` had no local event: counts into the
  // events-per-window histogram (bin 0) and the LP's stall tally without
  // reading the clock — stalled windows are too cheap to time individually.
  void RecordWindowStall(uint32_t lp);

  // Post-run accessors (call only after recording threads are quiescent).
  size_t lanes_used() const;
  uint64_t spans_recorded() const;
  uint64_t spans_dropped() const;

  // Writes the whole profile as Chrome trace-event JSON:
  //   {"traceEvents":[...], "displayTimeUnit":"ms", "netcache":{...}}
  // Perfetto ignores the extra "netcache" key; profile_report.py reads the
  // aggregates from it so the report survives timeline truncation.
  void WriteChromeTrace(std::ostream& out) const;

  // --- static helpers for call sites that cannot use a scope object ---

  // Wall tick if a profiler is installed, 0 otherwise. Pair with
  // RecordSince: the worker barrier spin captures the tick before parking
  // and records only when woken by a new window (a spin that ends in
  // shutdown is simulator teardown, not a barrier stall).
  static uint64_t TickIfEnabled();
  // Records [start_ns, now) unless start_ns is 0, and returns now (0 when no
  // profiler is installed). Feeding the result back as the next span's
  // start chains a thread's spans end to end, so the time spent recording
  // one span is booked to the next instead of falling between buckets.
  static uint64_t RecordSince(ProfCat cat, uint32_t lp, uint64_t start_ns,
                              uint64_t arg = 0);
  static void CountWindowStall(uint32_t lp);

 private:
  struct CatAgg {
    uint64_t ns = 0;
    uint64_t count = 0;
    uint64_t arg = 0;
  };

  // Events-per-window histogram bins: bin 0 = stalled window (0 events),
  // bin k >= 1 covers [2^(k-1), 2^k) events, last bin is open-ended.
  static constexpr size_t kWindowBins = 18;

  struct Lane {
    std::vector<ProfSpanRecord> spans;
    uint64_t dropped = 0;
    uint64_t first_ns = ~uint64_t{0};  // extent of recorded activity
    uint64_t last_ns = 0;
    std::array<CatAgg, kNumProfCats> cats{};
    std::array<uint64_t, kWindowBins> window_events_bins{};
  };

  struct LpAgg {
    uint64_t exec_ns = 0;
    uint64_t windows = 0;  // windows with work (stalls counted separately)
    uint64_t events = 0;
    uint64_t stalls = 0;
  };

  // The calling thread's lane, acquired on first use; nullptr once max_lanes
  // threads have registered.
  Lane* LaneForThisThread();

  // Thread → lane binding, keyed by a process-unique profiler id (NOT the
  // address: a later Profiler constructed at a recycled address would
  // otherwise inherit a stale lane pointer into freed memory).
  struct TlsSlot {
    uint64_t owner_id = 0;  // 0 = unbound; profiler ids start at 1
    Lane* lane = nullptr;
  };
  static thread_local TlsSlot tls_slot_;

  const Options options_;
  const uint64_t id_;
  const uint64_t t0_ns_;
  std::vector<Lane> lanes_;
  std::vector<LpAgg> lps_;
  // Lane registry: reg_mu_ serializes lane handout (each thread pays it once,
  // on its first span) and guards the count the serializer reads; the lanes
  // themselves stay lock-free — after registration a Lane is written by
  // exactly one thread, and the window barrier orders it for the serializer.
  mutable Mutex reg_mu_;
  size_t lane_count_ NC_GUARDED_BY(reg_mu_) = 0;
  std::atomic<uint64_t> unassigned_drops_{0};  // spans from threads past max_lanes
};

namespace internal {
// Atomic, unlike the trace recorder's plain pointer: DES window workers load
// it concurrently with the main thread's Install/uninstall. Relaxed is
// enough — span visibility to the serializer is ordered by the simulator's
// window barrier, not by this pointer.
extern std::atomic<Profiler*> g_profiler;
}  // namespace internal

// Installs `profiler` as the process-global sink (nullptr disables
// profiling). Returns the previously installed profiler.
Profiler* InstallProfiler(Profiler* profiler);
Profiler* GetProfiler();

inline bool ProfilingEnabled() {
#ifdef NETCACHE_DISABLE_PROFILING
  return false;
#else
  return internal::g_profiler.load(std::memory_order_relaxed) != nullptr;
#endif
}

// RAII span: captures the installed profiler and a start tick at
// construction, records on destruction. When no profiler is installed the
// whole object is one relaxed load and a branch; with
// -DNETCACHE_DISABLE_PROFILING it is empty.
class ProfScope {
 public:
  explicit ProfScope(ProfCat cat, uint32_t lp = 0) {
#ifdef NETCACHE_DISABLE_PROFILING
    (void)cat;
    (void)lp;
#else
    prof_ = internal::g_profiler.load(std::memory_order_relaxed);
    if (prof_ != nullptr) {
      cat_ = cat;
      lp_ = lp;
      start_ns_ = Profiler::NowNs();
    }
#endif
  }

  ~ProfScope() {
#ifndef NETCACHE_DISABLE_PROFILING
    if (prof_ != nullptr) {
      prof_->RecordSpan(cat_, lp_, start_ns_, Profiler::NowNs(), arg_);
    }
#endif
  }

  ProfScope(const ProfScope&) = delete;
  ProfScope& operator=(const ProfScope&) = delete;

  // Sets the span's count tag (events dispatched / packets in the burst).
  void set_arg(uint64_t arg) {
#ifdef NETCACHE_DISABLE_PROFILING
    (void)arg;
#else
    arg_ = arg;
#endif
  }

 private:
#ifndef NETCACHE_DISABLE_PROFILING
  Profiler* prof_ = nullptr;
  uint64_t start_ns_ = 0;
  uint64_t arg_ = 0;
  ProfCat cat_ = ProfCat::kLpExecute;
  uint32_t lp_ = 0;
#endif
};

}  // namespace netcache

#endif  // NETCACHE_COMMON_PROFILER_H_
