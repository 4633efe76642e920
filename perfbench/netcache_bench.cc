// netcache_bench — driver of the repository benchmark. Runs ONE workload per
// process and prints one JSON object on stdout; perfbench/run.py repeats,
// interleaves and aggregates these runs, and perfbench/README.md is the
// metric dictionary.
//
//   netcache_bench --workload=NAME [--seed=N] [--scale=F]
//                  [--trace --profile-out=FILE]
//
// Every input is generated here from --seed; the library only ever sees the
// generated traffic. Simulated traffic is an open loop at a fixed rate in
// simulated time, so host speed never changes what is simulated — only how
// long it takes. --scale multiplies simulated time (and switch-burst's packet
// count): 1 is the benchmark, small values are the smoke configuration.
//
// Host time: a set-up runs from topology construction to the first simulated
// query, and setup_s is the median of kSetups of them; timed_s covers the
// traffic section only, and `ops` is the work done in it (queries completed,
// or pipeline packets for switch-burst).
//
// --trace adds four bench-side measurements, all outside src/: a timing
// proxy in front of every Rack node, timing of the query generator, the
// library's wall-clock Profiler (installed for the traffic section, written
// to --profile-out for the runner to aggregate), and per-phase setup timers.
// None of them may change a simulated outcome: sim_digest hashes every
// deterministic counter and latency quantile, and the runner requires it to
// be identical across untraced and traced runs of one seed.
//
// Correctness checks run after the timed section; any failure exits 1.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "client/workload_driver.h"
#include "common/cli.h"
#include "common/histogram.h"
#include "common/json_writer.h"
#include "common/logging.h"
#include "common/profiler.h"
#include "common/simd.h"
#include "core/fabric.h"
#include "core/rack.h"
#include "dataplane/netcache_switch.h"
#include "net/link.h"
#include "net/node.h"
#include "verify/checker_runner.h"
#include "workload/generator.h"
#include "workload/partition.h"

namespace netcache {
namespace {

constexpr size_t kValueSize = 128;

uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

double Seconds(uint64_t ns) { return static_cast<double>(ns) / 1e9; }

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// FNV-1a over 64-bit words: the run's fingerprint of deterministic outputs.
class Digest {
 public:
  void Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ = (h_ ^ ((v >> (8 * i)) & 0xff)) * 0x100000001b3ULL;
    }
  }
  void Add(double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    Add(bits);
  }
  void Add(const Histogram& h) {
    Add(h.count());
    Add(h.min());
    Add(h.max());
    Add(h.Mean());
    for (uint64_t q : h.Quantiles({0.5, 0.9, 0.99, 0.999, 0.9999})) {
      Add(q);
    }
  }
  std::string Hex() const {
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

void AddCounters(Digest& d, const SwitchCounters& c) {
  for (uint64_t v : {c.packets, c.netcache_queries, c.reads, c.writes, c.cache_hits,
                     c.cache_invalid, c.cache_misses, c.invalidations, c.cache_updates,
                     c.update_rejects, c.write_back_hits, c.hot_reports, c.forwarded,
                     c.unroutable, c.ttl_drops, c.pipe_overload_drops}) {
    d.Add(v);
  }
}

void AddCounters(Digest& d, const ServerStats& s) {
  for (uint64_t v : {s.received, s.enqueued, s.dropped, s.reads, s.read_misses, s.writes,
                     s.deferred_writes, s.cache_updates_sent, s.cache_update_acks,
                     s.cache_update_rejects, s.cache_update_retries}) {
    d.Add(v);
  }
}

void AddCounters(Digest& d, const ClientStats& s) {
  for (uint64_t v : {s.gets_sent, s.puts_sent, s.deletes_sent, s.replies, s.not_found,
                     s.timeouts}) {
    d.Add(v);
  }
}

void AddCounters(Digest& d, const ControllerStats& s) {
  for (uint64_t v : {s.reports_received, s.reports_ignored, s.insertions,
                     s.insertion_failures, s.evictions, s.defrag_moves, s.epochs,
                     s.reject_reinserts, s.dirty_flushes, s.threshold_raises,
                     s.threshold_drops}) {
    d.Add(v);
  }
}

struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

// Everything one run reports. `layers` holds the per-layer values the driver
// measures itself; the runner adds the Profiler-derived ones from
// --profile-out. Layers that a workload does not have read 0.
struct Result {
  double setup_s = 0;  // median over the set-ups (RepeatedSetup)
  double timed_s = 0;
  uint64_t ops = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double hit_ratio = 0;
  double server_imbalance = 0;
  Histogram latency;  // simulated client latency, ns
  uint64_t events = 0;
  Digest digest;
  std::vector<Check> checks;
  std::vector<std::pair<std::string, double>> layers;

  void Layer(const std::string& name, double value) { layers.emplace_back(name, value); }
  void AddCheck(std::string name, bool ok, std::string detail) {
    checks.push_back(Check{std::move(name), ok, std::move(detail)});
  }
};

// Highest per-server load over the mean (1 = perfectly balanced).
double Imbalance(const std::vector<uint64_t>& loads) {
  uint64_t total = 0;
  uint64_t peak = 0;
  for (uint64_t l : loads) {
    total += l;
    peak = std::max(peak, l);
  }
  return Ratio(static_cast<double>(peak) * static_cast<double>(loads.size()),
               static_cast<double>(total));
}

// Host time of one set-up's phases.
struct SetupTimes {
  double build_s = 0;
  double populate_s = 0;
  double warm_s = 0;
};

// Every workload sets up kSetups times per process, each time after the
// previous state is destroyed (so peak RSS stays that of one set-up), and
// runs its traffic on the last. setup_s and the core.* phases are medians: the
// first set-up in a process pays its page faults cold and reads 10-35% slower
// on the rack, up to 3x on the fabric's 10 ms one.
constexpr int kSetups = 3;
static_assert(kSetups % 2 == 1, "Median() takes the middle sample");

double Median(std::vector<double> v) {
  std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
  return v[v.size() / 2];
}

// `make(times)` builds one workload state, filling in its phase times.
template <typename MakeFn>
auto RepeatedSetup(MakeFn make, Result& r) {
  std::vector<SetupTimes> times(kSetups);
  decltype(make(times[0])) state;
  for (SetupTimes& t : times) {
    state.reset();
    state = make(t);
  }
  std::vector<double> total, build, populate, warm;
  for (const SetupTimes& t : times) {
    total.push_back(t.build_s + t.populate_s + t.warm_s);
    build.push_back(t.build_s);
    populate.push_back(t.populate_s);
    warm.push_back(t.warm_s);
  }
  r.setup_s = Median(total);
  r.Layer("core.build_s", Median(build));
  r.Layer("core.populate_s", Median(populate));
  r.Layer("core.warm_s", Median(warm));
  return state;
}

struct Options {
  uint64_t seed = 42;
  double scale = 1.0;
  Profiler* profiler = nullptr;  // non-null = traced run
  bool traced() const { return profiler != nullptr; }
};

// Installs the profiler for the traffic section only, so its aggregates
// describe the same interval as timed_s.
class ProfilerInstall {
 public:
  explicit ProfilerInstall(Profiler* p) : p_(p) {
    if (p_ != nullptr) {
      InstallProfiler(p_);
    }
  }
  ~ProfilerInstall() {
    if (p_ != nullptr) {
      InstallProfiler(nullptr);
    }
  }
  ProfilerInstall(const ProfilerInstall&) = delete;
  ProfilerInstall& operator=(const ProfilerInstall&) = delete;

 private:
  Profiler* p_;
};

// Wall time and packets one layer's handler calls took.
struct LayerClock {
  uint64_t ns = 0;
  uint64_t calls = 0;
  uint64_t pkts = 0;
  uint64_t burst_pkts = 0;  // packets that arrived in a burst of two or more
};

// Generator timing: wraps the QuerySource so the traced run can split the
// generator's cost out of the event loop.
WorkloadDriver::QuerySource TimedSource(WorkloadGenerator* gen, LayerClock* clock) {
  if (clock == nullptr) {
    return [gen] { return gen->Next(); };
  }
  return [gen, clock] {
    uint64_t t0 = NowNs();
    Query q = gen->Next();
    clock->ns += NowNs() - t0;
    ++clock->calls;
    return q;
  };
}

// Bench-side timing proxy for one Rack node. Both ends of every rack link
// are re-attached to proxies (Node::AttachLink refuses a second attach on the
// real node), so every delivery to a node passes through its proxy, which
// forwards it unchanged — the same arrivals array, so packet stealing still
// works — and books the handler's wall time to the node's layer. The real
// nodes keep their original port slots, so their own Send()s are unaffected.
class TimingProxy : public Node {
 public:
  TimingProxy(Node* real, LayerClock* clock) : Node(real->name()), real_(real), clock_(clock) {
    set_lp(real->lp());
  }

  void HandlePacket(const Packet& pkt, uint32_t in_port) override {
    uint64_t t0 = NowNs();
    real_->HandlePacket(pkt, in_port);
    Book(t0, 1);
  }

  void HandleBurst(BurstArrival* arrivals, size_t count) override {
    uint64_t t0 = NowNs();
    real_->HandleBurst(arrivals, count);
    Book(t0, count);
  }

 private:
  void Book(uint64_t t0, size_t count) {
    clock_->ns += NowNs() - t0;
    ++clock_->calls;
    clock_->pkts += count;
    if (count > 1) {
      clock_->burst_pkts += count;
    }
  }

  Node* real_;
  LayerClock* clock_;
};

// Proxies for every node of a Rack, wired right after construction: link i
// joins ToR port i to server i (i < num_servers), then ToR port
// num_servers + j to client j (core/rack.cc).
class RackProxies {
 public:
  explicit RackProxies(Rack& rack) {
    size_t ns = rack.num_servers();
    tor_ = std::make_unique<TimingProxy>(&rack.tor(), &tor_clock);
    for (size_t i = 0; i < rack.num_links(); ++i) {
      Link& link = rack.link(i);
      bool to_server = i < ns;
      Node* far = to_server ? static_cast<Node*>(&rack.server(i))
                            : static_cast<Node*>(&rack.client(i - ns));
      NC_CHECK(link.end_node(0) == &rack.tor() && link.end_node(1) == far)
          << "rack link " << i << " is not wired as core/rack.cc lays it out";
      ends_.push_back(
          std::make_unique<TimingProxy>(far, to_server ? &server_clock : &client_clock));
      link.Connect(tor_.get(), static_cast<uint32_t>(i), ends_.back().get(), 0);
    }
  }

  LayerClock tor_clock;
  LayerClock server_clock;
  LayerClock client_clock;

 private:
  std::unique_ptr<TimingProxy> tor_;
  std::vector<std::unique_ptr<TimingProxy>> ends_;
};

// ---------------------------------------------------------------- rack ----

struct RackSpec {
  double zipf_alpha;
  double write_ratio;  // writes follow the read skew
  double offered_qps;
  double duration_s;
};

constexpr size_t kRackServers = 32;
constexpr uint64_t kRackKeys = 1'000'000;
constexpr size_t kRackCache = 10'000;

// What one rack set-up builds before the first query.
struct RackState {
  std::unique_ptr<Rack> rack;
  std::unique_ptr<RackProxies> proxies;
  std::unique_ptr<WorkloadGenerator> gen;
  LayerClock gen_clock;
  std::unique_ptr<WorkloadDriver> driver;
};

Result RunRack(const RackSpec& spec, const Options& opt) {
  Result r;
  RackConfig cfg;
  cfg.num_servers = kRackServers;
  cfg.switch_config.num_pipes = 1;
  cfg.switch_config.cache_capacity = kRackCache;
  cfg.switch_config.indexes_per_pipe = kRackCache;
  cfg.switch_config.stats.counter_slots = kRackCache;
  cfg.server_template.service_rate_qps = 50e3;
  cfg.server_template.num_cores = 1;
  cfg.client_template.reply_timeout = 10 * kMillisecond;
  cfg.controller_config.cache_capacity = kRackCache;
  cfg.sim_threads = 0;
  WorkloadConfig wl;
  wl.num_keys = kRackKeys;
  wl.zipf_alpha = spec.zipf_alpha;
  wl.write_ratio = spec.write_ratio;
  wl.skewed_writes = true;
  wl.value_size = kValueSize;
  wl.seed = opt.seed;
  DriverConfig dc;
  dc.rate_qps = spec.offered_qps;

  std::unique_ptr<RackState> state = RepeatedSetup(
      [&](SetupTimes& times) {
        uint64_t t_build = NowNs();
        auto s = std::make_unique<RackState>();
        s->rack = std::make_unique<Rack>(cfg);
        if (opt.traced()) {
          s->proxies = std::make_unique<RackProxies>(*s->rack);
        }
        uint64_t t_populate = NowNs();
        s->rack->Populate(kRackKeys, kValueSize);
        uint64_t t_warm = NowNs();
        s->gen = std::make_unique<WorkloadGenerator>(wl);
        // DES caches start warmed with the exact top-K keys.
        std::vector<Key> hot;
        for (uint64_t id : s->gen->popularity().TopKeys(kRackCache)) {
          hot.push_back(Key::FromUint64(id));
        }
        s->rack->WarmCache(hot);
        s->rack->StartController();
        s->driver = std::make_unique<WorkloadDriver>(
            &s->rack->sim(), &s->rack->client(0),
            TimedSource(s->gen.get(), opt.traced() ? &s->gen_clock : nullptr),
            s->rack->OwnerFn(), dc);
        uint64_t t_done = NowNs();
        times = SetupTimes{Seconds(t_populate - t_build), Seconds(t_warm - t_populate),
                           Seconds(t_done - t_warm)};
        return s;
      },
      r);
  Rack& rack = *state->rack;
  WorkloadDriver& driver = *state->driver;
  const LayerClock& gen_clock = state->gen_clock;
  uint64_t t_start = NowNs();

  SimTime until = static_cast<SimTime>(spec.duration_s * opt.scale * 1e9);
  {
    ProfilerInstall install(opt.profiler);
    driver.Start();
    rack.sim().RunUntil(until);
    driver.Stop();
    rack.sim().RunUntil(rack.sim().Now() + 20 * kMillisecond);
  }
  uint64_t t_end = NowNs();

  // Correctness at quiesce, outside the timed section.
  CheckerRunner& runner = rack.EnableInvariantChecks(0);
  runner.RunOnce();
  r.AddCheck("invariants", runner.total_violations() == 0,
             std::to_string(runner.total_violations()) + " violations over " +
                 std::to_string(runner.num_checkers()) + " checkers");
  r.AddCheck("driver_conservation", driver.sent() == driver.completed() + driver.failed(),
             "sent " + std::to_string(driver.sent()) + ", completed " +
                 std::to_string(driver.completed()) + ", failed " +
                 std::to_string(driver.failed()));

  const SwitchCounters& sc = rack.tor().counters();
  const Simulator& sim = rack.sim();
  r.timed_s = Seconds(t_end - t_start);
  r.ops = driver.completed();
  r.attempted = driver.sent();
  r.failed = driver.sent() - driver.completed();
  r.hit_ratio = Ratio(static_cast<double>(sc.cache_hits), static_cast<double>(sc.reads));
  r.latency = rack.client(0).latency();
  r.events = sim.events_processed();

  std::vector<uint64_t> loads;
  uint64_t server_received = 0, shed = 0, deferred = 0, retries = 0;
  for (size_t i = 0; i < rack.num_servers(); ++i) {
    const ServerStats& s = rack.server(i).stats();
    loads.push_back(s.reads + s.writes);
    server_received += s.received;
    shed += s.dropped;
    deferred += s.deferred_writes;
    retries += s.cache_update_retries;
    AddCounters(r.digest, s);
  }
  r.server_imbalance = Imbalance(loads);
  uint64_t link_drops = 0;
  for (size_t i = 0; i < rack.num_links(); ++i) {
    for (int end : {0, 1}) {
      const Link::DirectionStats& ls = rack.link(i).stats(end);
      link_drops += ls.dropped + ls.lost;
      for (uint64_t v : {ls.offered, ls.delivered, ls.dropped, ls.lost, ls.bytes}) {
        r.digest.Add(v);
      }
    }
  }
  const ControllerStats& cs = rack.controller().stats();
  for (uint64_t v : {driver.sent(), driver.completed(), driver.failed(), r.events,
                     sim.event_queue_peak(), sim.bursts_dispatched(), sim.burst_packets()}) {
    r.digest.Add(v);
  }
  AddCounters(r.digest, sc);
  AddCounters(r.digest, rack.client(0).stats());
  AddCounters(r.digest, cs);
  r.digest.Add(r.latency);

  double timed_ns = static_cast<double>(t_end - t_start);
  r.Layer("workload.next_ns", Ratio(static_cast<double>(gen_clock.ns),
                                    static_cast<double>(gen_clock.calls)));
  r.Layer("net.events", static_cast<double>(r.events));
  r.Layer("net.events_per_query",
          Ratio(static_cast<double>(r.events), static_cast<double>(driver.sent())));
  r.Layer("net.bursts", static_cast<double>(sim.bursts_dispatched()));
  r.Layer("net.pkts_per_burst", Ratio(static_cast<double>(sim.burst_packets()),
                                      static_cast<double>(sim.bursts_dispatched())));
  r.Layer("net.queue_peak", static_cast<double>(sim.event_queue_peak()));
  r.Layer("net.link_drops", static_cast<double>(link_drops));
  r.Layer("net.events_per_round", 0.0);  // serial dispatcher: no rounds
  r.Layer("dataplane.pkts", static_cast<double>(sc.packets));
  r.Layer("dataplane.hot_reports", static_cast<double>(sc.hot_reports));
  r.Layer("dataplane.invalid_hits", static_cast<double>(sc.cache_invalid));
  r.Layer("dataplane.invalidations", static_cast<double>(sc.invalidations));
  r.Layer("dataplane.cache_updates", static_cast<double>(sc.cache_updates));
  r.Layer("dataplane.update_rejects", static_cast<double>(sc.update_rejects));
  r.Layer("dataplane.pipe_drops", static_cast<double>(sc.pipe_overload_drops));
  r.Layer("server.pkts", static_cast<double>(server_received));
  r.Layer("server.shed", static_cast<double>(shed));
  r.Layer("server.deferred_writes", static_cast<double>(deferred));
  r.Layer("server.cache_update_retries", static_cast<double>(retries));
  r.Layer("client.timeouts", static_cast<double>(rack.client(0).stats().timeouts));
  r.Layer("controller.insertions", static_cast<double>(cs.insertions));
  r.Layer("controller.evictions", static_cast<double>(cs.evictions));
  r.Layer("controller.epochs", static_cast<double>(cs.epochs));
  r.Layer("controller.reports_received", static_cast<double>(cs.reports_received));
  if (state->proxies != nullptr) {
    // The rack split: the three node layers, the generator, and everything
    // else (event dispatch, scheduled closures — server service completions,
    // switch egress, link flushes — and the controller) as net self time.
    const LayerClock& tor = state->proxies->tor_clock;
    const LayerClock& srv = state->proxies->server_clock;
    const LayerClock& cli = state->proxies->client_clock;
    double inside = static_cast<double>(tor.ns + srv.ns + cli.ns + gen_clock.ns);
    r.Layer("net.self_frac", Ratio(timed_ns - inside, timed_ns));
    r.Layer("dataplane.handle_frac", Ratio(static_cast<double>(tor.ns), timed_ns));
    r.Layer("dataplane.burst_path_frac", Ratio(static_cast<double>(tor.burst_pkts),
                                               static_cast<double>(tor.pkts)));
    r.Layer("server.handle_frac", Ratio(static_cast<double>(srv.ns), timed_ns));
    r.Layer("client.handle_frac", Ratio(static_cast<double>(cli.ns), timed_ns));
  }
  return r;
}

// -------------------------------------------------------------- fabric ----

// What one fabric set-up builds before the first query.
struct FabricState {
  std::unique_ptr<Fabric> fabric;
  std::vector<std::unique_ptr<WorkloadGenerator>> gens;
  std::vector<LayerClock> gen_clocks;  // sized once: the sources point into it
  std::vector<std::unique_ptr<WorkloadDriver>> drivers;
};

Result RunFabric(const Options& opt) {
  // The fig10f packet-level leg at its 16-rack speedup configuration.
  constexpr uint64_t kKeys = 10'000;
  constexpr size_t kWarmKeys = 64;
  Result r;
  FabricConfig cfg;
  cfg.num_racks = 16;
  cfg.servers_per_rack = 4;
  cfg.num_spines = 4;
  cfg.mode = FabricCacheMode::kSpineOnly;
  for (SwitchConfig* sc : {&cfg.tor_config, &cfg.spine_config}) {
    sc->num_pipes = 1;
    sc->cache_capacity = 1024;
    sc->indexes_per_pipe = 1024;
    sc->stats.counter_slots = 1024;
  }
  cfg.controller_config.cache_capacity = kWarmKeys;
  cfg.server_template.service_rate_qps = 200e3;
  cfg.fabric_propagation = 2 * kMicrosecond;
  cfg.sim_threads = 4;
  DriverConfig dc;
  dc.rate_qps = 400e3;

  std::unique_ptr<FabricState> state = RepeatedSetup(
      [&](SetupTimes& times) {
        uint64_t t_build = NowNs();
        auto st = std::make_unique<FabricState>();
        st->fabric = std::make_unique<Fabric>(cfg);
        Fabric& fabric = *st->fabric;
        uint64_t t_populate = NowNs();
        fabric.Populate(kKeys, kValueSize);
        uint64_t t_warm = NowNs();
        // One open-loop generator per spine client: same popularity law,
        // decorrelated streams, no generator shared across partitions.
        st->gen_clocks.resize(fabric.num_clients());
        for (size_t s = 0; s < fabric.num_clients(); ++s) {
          WorkloadConfig wl;
          wl.num_keys = kKeys;
          wl.zipf_alpha = 0.99;
          wl.seed = opt.seed + 1000 * (s + 1);
          st->gens.push_back(std::make_unique<WorkloadGenerator>(wl));
          st->drivers.push_back(std::make_unique<WorkloadDriver>(
              &fabric.sim(), &fabric.client(s),
              TimedSource(st->gens.back().get(), opt.traced() ? &st->gen_clocks[s] : nullptr),
              fabric.OwnerFn(), dc));
        }
        std::vector<Key> hot;
        for (uint64_t id : st->gens[0]->popularity().TopKeys(kWarmKeys)) {
          hot.push_back(Key::FromUint64(id));
        }
        fabric.WarmCaches(hot);
        uint64_t t_done = NowNs();
        times = SetupTimes{Seconds(t_populate - t_build), Seconds(t_warm - t_populate),
                           Seconds(t_done - t_warm)};
        return st;
      },
      r);
  Fabric& fabric = *state->fabric;
  const std::vector<std::unique_ptr<WorkloadDriver>>& drivers = state->drivers;
  uint64_t t_start = NowNs();

  SimTime until = static_cast<SimTime>(1.0 * opt.scale * 1e9);
  {
    ProfilerInstall install(opt.profiler);
    for (auto& d : drivers) {
      d->Start();
    }
    fabric.sim().RunUntil(until);
    for (auto& d : drivers) {
      d->Stop();
    }
    fabric.sim().RunUntil(fabric.sim().Now() + 20 * kMillisecond);
  }
  uint64_t t_end = NowNs();

  uint64_t sent = 0, completed = 0, failed = 0;
  for (const auto& d : drivers) {
    sent += d->sent();
    completed += d->completed();
    failed += d->failed();
  }
  r.AddCheck("driver_conservation", sent == completed + failed,
             "sent " + std::to_string(sent) + ", completed " + std::to_string(completed) +
                 ", failed " + std::to_string(failed));
  r.AddCheck("partitioned", fabric.sim().partitioned(),
             "sim_threads=" + std::to_string(fabric.sim().sim_threads()) + ", " +
                 std::to_string(fabric.sim().num_lps()) + " LPs");

  const Simulator& sim = fabric.sim();
  r.timed_s = Seconds(t_end - t_start);
  r.ops = completed;
  r.attempted = sent;
  r.failed = sent - completed;
  r.hit_ratio = Ratio(static_cast<double>(fabric.TotalSpineHits()), static_cast<double>(sent));
  r.events = sim.events_processed();
  uint64_t timeouts = 0;
  for (size_t s = 0; s < fabric.num_clients(); ++s) {
    r.latency.Merge(fabric.client(s).latency());
    AddCounters(r.digest, fabric.client(s).stats());
    timeouts += fabric.client(s).stats().timeouts;
  }
  std::vector<uint64_t> loads;
  uint64_t server_received = 0, shed = 0, deferred = 0, retries = 0;
  for (size_t i = 0; i < fabric.num_servers(); ++i) {
    const ServerStats& s = fabric.server(i).stats();
    loads.push_back(s.reads + s.writes);
    server_received += s.received;
    shed += s.dropped;
    deferred += s.deferred_writes;
    retries += s.cache_update_retries;
    AddCounters(r.digest, s);
  }
  r.server_imbalance = Imbalance(loads);
  SwitchCounters sw;  // summed over every ToR and spine
  auto add_switch = [&](const NetCacheSwitch& s) {
    const SwitchCounters& c = s.counters();
    AddCounters(r.digest, c);
    sw.packets += c.packets;
    sw.cache_invalid += c.cache_invalid;
    sw.invalidations += c.invalidations;
    sw.cache_updates += c.cache_updates;
    sw.update_rejects += c.update_rejects;
    sw.hot_reports += c.hot_reports;
    sw.pipe_overload_drops += c.pipe_overload_drops;
  };
  for (size_t k = 0; k < cfg.num_racks; ++k) {
    add_switch(fabric.tor(k));
  }
  for (size_t s = 0; s < cfg.num_spines; ++s) {
    add_switch(fabric.spine(s));
  }
  for (uint64_t v : {sent, completed, failed, r.events, sim.event_queue_peak(),
                     sim.windows_run(), sim.bursts_dispatched(), sim.burst_packets()}) {
    r.digest.Add(v);
  }
  r.digest.Add(r.latency);

  uint64_t gen_ns = 0, gen_calls = 0;
  for (const LayerClock& c : state->gen_clocks) {
    gen_ns += c.ns;
    gen_calls += c.calls;
  }
  r.Layer("workload.next_ns", Ratio(static_cast<double>(gen_ns), static_cast<double>(gen_calls)));
  r.Layer("net.events", static_cast<double>(r.events));
  r.Layer("net.events_per_query", Ratio(static_cast<double>(r.events), static_cast<double>(sent)));
  r.Layer("net.bursts", static_cast<double>(sim.bursts_dispatched()));
  r.Layer("net.pkts_per_burst", Ratio(static_cast<double>(sim.burst_packets()),
                                      static_cast<double>(sim.bursts_dispatched())));
  r.Layer("net.queue_peak", static_cast<double>(sim.event_queue_peak()));
  r.Layer("net.link_drops", 0.0);  // Fabric does not expose its links
  r.Layer("net.events_per_round",
          Ratio(static_cast<double>(r.events), static_cast<double>(sim.windows_run())));
  r.Layer("dataplane.pkts", static_cast<double>(sw.packets));
  r.Layer("dataplane.hot_reports", static_cast<double>(sw.hot_reports));
  r.Layer("dataplane.invalid_hits", static_cast<double>(sw.cache_invalid));
  r.Layer("dataplane.invalidations", static_cast<double>(sw.invalidations));
  r.Layer("dataplane.cache_updates", static_cast<double>(sw.cache_updates));
  r.Layer("dataplane.update_rejects", static_cast<double>(sw.update_rejects));
  r.Layer("dataplane.pipe_drops", static_cast<double>(sw.pipe_overload_drops));
  r.Layer("server.pkts", static_cast<double>(server_received));
  r.Layer("server.shed", static_cast<double>(shed));
  r.Layer("server.deferred_writes", static_cast<double>(deferred));
  r.Layer("server.cache_update_retries", static_cast<double>(retries));
  r.Layer("client.timeouts", static_cast<double>(timeouts));
  for (const char* name : {"controller.insertions", "controller.evictions", "controller.epochs",
                           "controller.reports_received"}) {
    r.Layer(name, 0.0);  // static spine caches: no controller runs
  }
  if (opt.traced()) {
    // Fabric keeps its links private, so there are no node proxies here; the
    // Profiler's DES categories carry this workload's split instead.
    for (const char* name : {"net.self_frac", "dataplane.handle_frac", "dataplane.burst_path_frac",
                             "server.handle_frac", "client.handle_frac"}) {
      r.Layer(name, 0.0);
    }
  }
  return r;
}

// -------------------------------------------------------- switch-burst ----

// Cheap order-independent fingerprint of one served value (16 independent
// multiply-adds, so it stays small next to the pipeline's per-packet cost).
uint64_t ValueChecksum(const uint8_t* data, size_t size) {
  uint64_t sum = size;
  for (size_t off = 0; off < size; off += 8) {
    uint64_t w = 0;
    std::memcpy(&w, data + off, std::min<size_t>(8, size - off));
    sum += w * (2 * off + 1);
  }
  return sum;
}

constexpr IpAddress kBurstClientIp = 0x0b000001;
constexpr IpAddress kBurstServerIpBase = 0x0a000000;

// Counts the pipeline's emits: replies to the client port are cache hits
// (their values are checksummed), everything else is a miss forwarded to a
// server port. Burst-owned packets live in the bench arena, so nothing is
// released here.
class BurstSink : public NetCacheSwitch::EmitSink {
 public:
  BurstSink(uint32_t client_port, size_t num_ports)
      : per_port_(num_ports, 0), client_port_(client_port) {}

  void OnEmit(uint32_t port, Packet* pkt, bool /*from_burst*/) override {
    if (port == client_port_) {
      ++hits_;
      if (pkt->nc.has_value) {
        checksum_ += ValueChecksum(pkt->nc.value.data(), pkt->nc.value.size());
      }
    } else if (port < per_port_.size()) {
      ++per_port_[port];
    }
  }

  uint64_t hits_ = 0;
  uint64_t checksum_ = 0;
  std::vector<uint64_t> per_port_;  // misses forwarded to each server port

 private:
  uint32_t client_port_;
};

// What one switch-burst set-up builds before the first packet.
struct SwitchState {
  std::unique_ptr<NetCacheSwitch> sw;
  std::vector<Packet> protos;  // the input ring
  uint64_t ring_checksum = 0;  // of the values one pass over the ring serves
  uint64_t ring_hits = 0;
  LayerClock gen_clock;
};

Result RunSwitchBurst(const Options& opt) {
  constexpr size_t kBurst = 32;
  constexpr uint64_t kKeys = 1'000'000;
  constexpr size_t kCached = 10'000;
  constexpr uint32_t kServers = 32;
  constexpr uint32_t kClientPort = kServers;
  Result r;
  uint64_t packets = static_cast<uint64_t>(static_cast<double>(uint64_t{1} << 25) * opt.scale);
  packets = std::max<uint64_t>(kBurst, packets / kBurst * kBurst);
  uint64_t ring = std::min<uint64_t>(uint64_t{1} << 18, packets);

  SwitchConfig cfg;
  cfg.num_pipes = 1;
  cfg.cache_capacity = kCached;
  cfg.indexes_per_pipe = kCached;
  cfg.stats.counter_slots = kCached;
  WorkloadConfig wl;
  wl.num_keys = kKeys;
  wl.zipf_alpha = 0.99;
  wl.seed = opt.seed;

  std::unique_ptr<SwitchState> state = RepeatedSetup(
      [&](SetupTimes& times) {
        uint64_t t_build = NowNs();
        auto st = std::make_unique<SwitchState>();
        st->sw = std::make_unique<NetCacheSwitch>(nullptr, "tor", cfg);
        NetCacheSwitch& sw = *st->sw;
        for (uint32_t i = 0; i < kServers; ++i) {
          NC_CHECK(sw.AddRoute(kBurstServerIpBase + i, i).ok());
        }
        NC_CHECK(sw.AddRoute(kBurstClientIp, kClientPort).ok());
        HashPartitioner partitioner(kServers);
        uint64_t t_warm = NowNs();
        WorkloadGenerator gen(wl);
        for (uint64_t id : gen.popularity().TopKeys(kCached)) {
          Key key = Key::FromUint64(id);
          IpAddress owner =
              kBurstServerIpBase + static_cast<IpAddress>(partitioner.PartitionOf(key));
          NC_CHECK(
              sw.InsertCacheEntry(key, WorkloadGenerator::ValueFor(id, kValueSize), owner).ok());
        }
        // The input ring, built before timing, with the checksum one pass
        // over it must serve (recomputed from ValueFor, not read back from
        // the switch).
        uint64_t t_populate = NowNs();
        st->protos.reserve(ring);
        for (uint64_t n = 0; n < ring; ++n) {
          uint64_t t0 = opt.traced() ? NowNs() : 0;
          Query q = gen.Next();
          if (opt.traced()) {
            st->gen_clock.ns += NowNs() - t0;
            ++st->gen_clock.calls;
          }
          IpAddress owner =
              kBurstServerIpBase + static_cast<IpAddress>(partitioner.PartitionOf(q.key));
          st->protos.push_back(MakeGet(kBurstClientIp, owner, q.key, static_cast<uint32_t>(n)));
          if (sw.IsCached(q.key)) {
            Value v = WorkloadGenerator::ValueFor(q.key_id, kValueSize);
            st->ring_checksum += ValueChecksum(v.data(), v.size());
            ++st->ring_hits;
          }
        }
        uint64_t t_done = NowNs();
        times = SetupTimes{Seconds(t_warm - t_build), Seconds(t_done - t_populate),
                           Seconds(t_populate - t_warm)};
        return st;
      },
      r);
  NetCacheSwitch& sw = *state->sw;
  const std::vector<Packet>& protos = state->protos;
  std::vector<Packet> arena(kBurst);
  std::vector<BurstArrival> arrivals(kBurst);
  BurstSink sink(kClientPort, kServers);
  uint64_t t_start = NowNs();

  {
    ProfilerInstall install(opt.profiler);
    uint64_t pos = 0;
    for (uint64_t done = 0; done < packets; done += kBurst) {
      for (size_t i = 0; i < kBurst; ++i) {
        arena[i] = protos[pos + i];
        arrivals[i] = BurstArrival{&arena[i], 0};
      }
      sw.ProcessBurst(std::span<BurstArrival>(arrivals.data(), kBurst), sink);
      pos += kBurst;
      if (pos == ring) {
        pos = 0;
        sw.ResetStatistics();
      }
    }
  }
  uint64_t t_end = NowNs();

  const SwitchCounters& sc = sw.counters();
  uint64_t passes = packets / ring;
  uint64_t tail = packets % ring;  // a partial last pass (scaled runs only)
  uint64_t expect_checksum = state->ring_checksum * passes;
  uint64_t expect_hits = state->ring_hits * passes;
  for (uint64_t n = 0; n < tail; ++n) {
    const Packet& p = protos[n];
    if (sw.IsCached(p.nc.key)) {
      Value v = WorkloadGenerator::ValueFor(p.nc.key.AsUint64(), kValueSize);
      expect_checksum += ValueChecksum(v.data(), v.size());
      ++expect_hits;
    }
  }
  uint64_t misses = 0;
  for (uint64_t m : sink.per_port_) {
    misses += m;
  }
  r.AddCheck("served_values", sink.checksum_ == expect_checksum && sink.hits_ == expect_hits,
             std::to_string(sink.hits_) + " hits served, " + std::to_string(expect_hits) +
                 " expected; checksum " + (sink.checksum_ == expect_checksum ? "ok" : "MISMATCH"));
  r.AddCheck("hits_plus_misses", sc.cache_hits + sc.cache_misses == packets &&
                                     sink.hits_ + misses == packets,
             "hits " + std::to_string(sc.cache_hits) + " + misses " +
                 std::to_string(sc.cache_misses) + " vs " + std::to_string(packets) +
                 " packets");

  r.timed_s = Seconds(t_end - t_start);
  r.ops = packets;
  r.attempted = packets;
  r.failed = packets - std::min(packets, sink.hits_ + misses);
  r.hit_ratio = Ratio(static_cast<double>(sc.cache_hits), static_cast<double>(packets));
  r.server_imbalance = Imbalance(sink.per_port_);
  AddCounters(r.digest, sc);
  r.digest.Add(sink.checksum_);
  for (uint64_t m : sink.per_port_) {
    r.digest.Add(m);
  }

  r.Layer("workload.next_ns", Ratio(static_cast<double>(state->gen_clock.ns),
                                    static_cast<double>(state->gen_clock.calls)));
  for (const char* name : {"net.events", "net.events_per_query", "net.bursts",
                           "net.pkts_per_burst", "net.queue_peak", "net.link_drops",
                           "net.events_per_round"}) {
    r.Layer(name, 0.0);  // no simulator
  }
  r.Layer("dataplane.pkts", static_cast<double>(sc.packets));
  r.Layer("dataplane.hot_reports", static_cast<double>(sc.hot_reports));
  r.Layer("dataplane.invalid_hits", static_cast<double>(sc.cache_invalid));
  r.Layer("dataplane.invalidations", static_cast<double>(sc.invalidations));
  r.Layer("dataplane.cache_updates", static_cast<double>(sc.cache_updates));
  r.Layer("dataplane.update_rejects", static_cast<double>(sc.update_rejects));
  r.Layer("dataplane.pipe_drops", static_cast<double>(sc.pipe_overload_drops));
  if (opt.traced()) {
    r.Layer("dataplane.handle_frac", 1.0);  // the timed section is the pipeline
    r.Layer("dataplane.burst_path_frac", 1.0);
    for (const char* name : {"net.self_frac", "server.handle_frac", "client.handle_frac"}) {
      r.Layer(name, 0.0);
    }
  }
  for (const char* name : {"server.pkts", "server.shed", "server.deferred_writes",
                           "server.cache_update_retries", "client.timeouts",
                           "controller.insertions", "controller.evictions",
                           "controller.epochs", "controller.reports_received"}) {
    r.Layer(name, 0.0);  // no servers, clients or controller
  }
  return r;
}

// ---------------------------------------------------------------- main ----

void WriteResult(const std::string& workload, const Options& opt, const Result& r) {
  JsonWriter w(std::cout);
  w.BeginObject();
  w.Field("workload", workload);
  w.Field("seed", opt.seed);
  w.Field("scale", opt.scale);
  w.Field("traced", opt.traced());
  w.Name("provenance");
  w.BeginObject();
  w.Field("build_type", NETCACHE_BENCH_BUILD_TYPE);
  w.Field("sanitizer", NETCACHE_BENCH_SANITIZE);
  w.Field("lp_checks_compiled", NETCACHE_LP_CHECKS != 0);
#if defined(__clang__)
  w.Field("compiler", "clang " __clang_version__);
#elif defined(__GNUC__)
  w.Field("compiler", "gcc " __VERSION__);
#else
  w.Field("compiler", "unknown");
#endif
  w.Field("simd_level", ActiveSimdLevelName());
  w.Field("hardware_threads", static_cast<uint64_t>(std::thread::hardware_concurrency()));
  w.EndObject();
  w.Field("setup_s", r.setup_s);
  w.Field("timed_s", r.timed_s);
  w.Field("ops", r.ops);
  w.Field("attempted", r.attempted);
  w.Field("failed", r.failed);
  w.Name("sim");
  w.BeginObject();
  w.Field("hit_ratio", r.hit_ratio);
  w.Field("server_imbalance", r.server_imbalance);
  std::vector<uint64_t> q = r.latency.Quantiles({0.5, 0.9999});
  w.Field("latency_p50_us", static_cast<double>(q[0]) / 1e3);
  w.Field("latency_p9999_us", static_cast<double>(q[1]) / 1e3);
  w.Field("latency_samples", r.latency.count());
  w.Field("events", r.events);
  w.EndObject();
  w.Field("sim_digest", r.digest.Hex());
  w.Name("checks");
  w.BeginArray();
  for (const Check& c : r.checks) {
    w.BeginObject();
    w.Field("name", c.name);
    w.Field("ok", c.ok);
    w.Field("detail", c.detail);
    w.EndObject();
  }
  w.EndArray();
  w.Name("layers");
  w.BeginObject();
  for (const auto& [name, value] : r.layers) {
    w.Field(name, value);
  }
  w.EndObject();
  w.EndObject();
  std::cout << "\n";
}

int Main(int argc, char** argv) {
  ArgParser args(argc, argv);
  std::string workload = args.GetString("workload", "");
  Options opt;
  opt.seed = static_cast<uint64_t>(args.GetInt("seed", 42));
  opt.scale = args.GetDouble("scale", 1.0);
  bool trace = args.GetBool("trace", false);
  std::string profile_out = args.GetString("profile-out", "");
  if (!args.ok() || !(opt.scale > 0 && opt.scale <= 1) || (trace && profile_out.empty())) {
    for (const std::string& err : args.errors()) {
      std::fprintf(stderr, "error: %s\n", err.c_str());
    }
    std::fprintf(stderr,
                 "usage: %s --workload=NAME [--seed=N] [--scale=F in (0,1]] "
                 "[--trace --profile-out=FILE]\n",
                 argv[0]);
    return 2;
  }

  // Spans per lane stay tiny: the runner reads only the exact per-category
  // aggregates, which keep accumulating past the timeline cap. Declared
  // before any simulator so it outlives them (common/profiler.h).
  std::unique_ptr<Profiler> profiler;
  if (trace) {
    Profiler::Options popts;
    popts.spans_per_lane = 1;
    profiler = std::make_unique<Profiler>(popts);
    opt.profiler = profiler.get();
  }

  Result r;
  if (workload == "rack-read-skew") {
    r = RunRack(RackSpec{0.99, 0.0, 2.0e6, 1.0}, opt);
  } else if (workload == "rack-write-skew") {
    r = RunRack(RackSpec{0.99, 0.1, 600e3, 2.0}, opt);
  } else if (workload == "rack-uniform") {
    r = RunRack(RackSpec{0.0, 0.0, 1.2e6, 1.0}, opt);
  } else if (workload == "fabric16-par4") {
    r = RunFabric(opt);
  } else if (workload == "switch-burst") {
    r = RunSwitchBurst(opt);
  } else {
    std::fprintf(stderr,
                 "unknown --workload '%s' (rack-read-skew, rack-write-skew, rack-uniform, "
                 "fabric16-par4, switch-burst)\n",
                 workload.c_str());
    return 2;
  }

  if (profiler != nullptr) {
    std::ofstream out(profile_out);
    profiler->WriteChromeTrace(out);
    out << "\n";
    if (!out.good()) {
      std::fprintf(stderr, "cannot write profile '%s'\n", profile_out.c_str());
      return 1;
    }
  }
  WriteResult(workload, opt, r);
  bool ok = std::all_of(r.checks.begin(), r.checks.end(), [](const Check& c) { return c.ok; });
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace netcache

int main(int argc, char** argv) { return netcache::Main(argc, argv); }
