// netcache_sim — command-line front end to the NetCache simulation library.
//
// Subcommands:
//   rack       packet-level rack simulation (DES): goodput, latency, hits
//   sweep      grid of independent rack trials (zipf x cache x reps), run on
//              a thread pool; output is byte-identical to --serial
//   saturate   capacity-model saturation throughput for one configuration
//   multirack  multi-rack scalability model (NoCache/LeafCache/LeafSpine)
//   snake      §7.1 snake-test harness
//
// Every subcommand accepts --metrics-out=FILE.json for a machine-readable
// result; `rack` additionally supports time-sampled metrics
// (--metrics-interval, Fig-11-style per-bin dynamics) and packet-lifecycle
// tracing (--trace-out=FILE.jsonl, --trace-limit). With a fixed --seed two
// runs produce byte-identical metrics output.
//
// Examples:
//   netcache_sim rack --servers=16 --rate=50000 --zipf=0.99 --cache=200
//                     --offered=400000 --duration=0.5
//                     --metrics-out=m.json --metrics-interval=0.1
//                     --trace-out=t.jsonl --trace-limit=100000
//   netcache_sim saturate --partitions=128 --rate=1e7 --zipf=0.95 --cache=10000
//   netcache_sim multirack --racks=16 --mode=leafspine
//   netcache_sim snake --ports=64 --queries=1000

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "client/workload_driver.h"
#include "common/cli.h"
#include "common/json_writer.h"
#include "common/lp_ownership.h"
#include "common/metrics.h"
#include "common/profiler.h"
#include "common/simd.h"
#include "common/trace_recorder.h"
#include "core/multirack.h"
#include "core/rack.h"
#include "core/saturation.h"
#include "core/snake.h"
#include "core/sweep.h"
#include "verify/checker_runner.h"
#include "verify/rack_checkers.h"
#include "workload/trace.h"

namespace netcache {
namespace {

int Usage(const char* program) {
  std::fprintf(stderr,
               "usage: %s <rack|sweep|saturate|multirack|snake> [--flag=value ...]\n"
               "\n"
               "rack:      --servers --rate --keys --zipf --cache --offered --duration\n"
               "           --write-ratio --skewed-writes --no-cache --cores --seed\n"
               "           --sim-threads=N (parallel DES: one logical process per\n"
               "                            server plus one for switch+clients, run\n"
               "                            on N threads; 0=every node in one LP,\n"
               "                            run inline; byte-identical for every\n"
               "                            N >= 1)\n"
               "           --trace=FILE (replay a G/P/D trace instead of synthetic load)\n"
               "sweep:     --zipf=A[,B...] --cache=N[,M...] --reps --seed --threads\n"
               "           --serial --servers --rate --keys --offered --duration\n"
               "           --write-ratio --skewed-writes --cores\n"
               "saturate:  --partitions --rate --keys --zipf --cache --write-ratio\n"
               "           --skewed-writes --write-back\n"
               "multirack: --racks --servers-per-rack --rate --spines --cache\n"
               "           --mode=nocache|leaf|leafspine\n"
               "snake:     --ports --queries --cache --value-size\n"
               "\n"
               "observability (all subcommands):\n"
               "           --metrics-out=FILE.json   structured result / registry dump\n"
               "           --check-invariants[=SECS] runtime invariant checking; on rack,\n"
               "                                     re-check every SECS simulated seconds\n"
               "                                     (default 0.05) plus a final sweep;\n"
               "                                     exits 1 on any violation\n"
               "           --lp-checks               runtime LP-ownership sanitizer: abort\n"
               "                                     with an attributed diagnostic if any\n"
               "                                     event touches state owned by another\n"
               "                                     logical process (parallel DES)\n"
               "rack only: --metrics-interval=SECS   time-series sampling bin (default 0.1)\n"
               "           --trace-out=FILE.jsonl    packet-lifecycle span events\n"
               "           --trace-limit=N           trace ring-buffer capacity (default 65536)\n"
               "           --profile-out=FILE.json   wall-clock profile (Chrome trace JSON,\n"
               "                                     Perfetto-loadable; aggregate with\n"
               "                                     tools/profile_report.py)\n"
               "           --profile-limit=N         timeline spans kept per thread\n"
               "                                     (default 262144; aggregates are exact\n"
               "                                     regardless)\n",
               program);
  return 2;
}

// Parses --check-invariants[=SECS]. Returns true when the flag is present and
// stores the re-check interval (simulated seconds; 0.05 when given bare) in
// *interval_s. Stores a negative value on a malformed interval.
bool ParseCheckInvariants(ArgParser& args, double* interval_s) {
  if (!args.Has("check-invariants")) {
    return false;
  }
  // Bare `--check-invariants` is stored as "true" by the parser; GetDouble on
  // it would record a parse error, so read the raw string.
  std::string raw = args.GetString("check-invariants", "true");
  if (raw == "true") {
    *interval_s = 0.05;
    return true;
  }
  char* end = nullptr;
  double secs = std::strtod(raw.c_str(), &end);
  if (end == raw.c_str() || *end != '\0' || !(secs > 0)) {
    std::fprintf(stderr, "--check-invariants interval '%s' is not a positive number\n",
                 raw.c_str());
    *interval_s = -1;
    return true;
  }
  *interval_s = secs;
  return true;
}

// Prints the checker-runner summary line and returns the process exit code
// contribution: 1 when any invariant was violated, 0 otherwise.
int ReportInvariantResults(const CheckerRunner& runner) {
  std::printf("invariants      %llu checks over %llu sweeps, %llu violations\n",
              static_cast<unsigned long long>(runner.checks_run()),
              static_cast<unsigned long long>(runner.runs()),
              static_cast<unsigned long long>(runner.total_violations()));
  return runner.total_violations() > 0 ? 1 : 0;
}

// Opens `path` for writing, runs `fill(writer)` on a JsonWriter over it, and
// reports failures on stderr. Returns false on I/O errors.
template <typename Fill>
bool WriteJsonFile(const std::string& path, Fill&& fill) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot open '%s' for writing\n", path.c_str());
    return false;
  }
  JsonWriter w(out);
  fill(w);
  out << "\n";
  return out.good();
}

int RunRack(ArgParser& args) {
  RackConfig cfg;
  cfg.num_servers = static_cast<size_t>(args.GetInt("servers", 8, 1));
  cfg.cache_enabled = !args.GetBool("no-cache", false);
  cfg.switch_config.num_pipes = 1;
  size_t cache = static_cast<size_t>(args.GetInt("cache", 1000));
  cfg.switch_config.cache_capacity = std::max<size_t>(4096, cache);
  cfg.switch_config.indexes_per_pipe = cfg.switch_config.cache_capacity;
  cfg.switch_config.stats.counter_slots = cfg.switch_config.cache_capacity;
  cfg.server_template.service_rate_qps = args.GetDouble("rate", 50e3, ArgParser::kPositive);
  cfg.server_template.num_cores = static_cast<size_t>(args.GetInt("cores", 1, 1));
  cfg.client_template.reply_timeout = 10 * kMillisecond;
  cfg.controller_config.cache_capacity = cache;

  uint64_t num_keys = static_cast<uint64_t>(args.GetInt("keys", 100000, 1));
  double duration_s = args.GetDouble("duration", 0.5, ArgParser::kPositive);
  std::string metrics_out = args.GetString("metrics-out", "");
  double metrics_interval_s = args.GetDouble("metrics-interval", 0.1, ArgParser::kPositive);
  std::string trace_out = args.GetString("trace-out", "");
  std::string profile_out = args.GetString("profile-out", "");
  size_t profile_limit = static_cast<size_t>(args.GetInt("profile-limit", 1 << 18));
  cfg.sim_threads = static_cast<size_t>(args.GetInt("sim-threads", 0));
  // --trace-out no longer constrains --sim-threads: every record carries a
  // (stream, seq) stamp and WriteJsonl sorts by (t, stream, seq), so the
  // serialized trace is byte-identical at any worker count as long as the
  // ring did not wrap (checked after the run).
  size_t trace_limit = static_cast<size_t>(args.GetInt("trace-limit", 65536));
  WorkloadConfig wl;
  wl.num_keys = num_keys;
  wl.zipf_alpha = args.GetDouble("zipf", 0.99);
  wl.write_ratio = args.GetDouble("write-ratio", 0.0, 0.0, 1.0);
  wl.skewed_writes = args.GetBool("skewed-writes", false);
  wl.seed = static_cast<uint64_t>(args.GetInt("seed", 42));
  DriverConfig dc;
  dc.rate_qps = args.GetDouble("offered", 100e3, ArgParser::kPositive);
  std::string trace_path = args.GetString("trace", "");
  double check_interval_s = 0;
  bool check_invariants = ParseCheckInvariants(args, &check_interval_s);
  // Every flag is read above, so a malformed one stops the run before any
  // simulation or output file.
  if (!args.ok()) {
    return 2;
  }
  if (check_invariants && check_interval_s < 0) {
    return 2;
  }

  // Declared before the Rack so it outlives the simulator: a window worker
  // may still hold the profiler pointer it loaded at span entry when the
  // profiler is uninstalled (see common/profiler.h, "Ownership").
  std::unique_ptr<Profiler> profiler;

  Rack rack(cfg);
  if (!profile_out.empty()) {
    Profiler::Options popts;
    popts.spans_per_lane = profile_limit;
    popts.max_lps = rack.sim().num_lps() + 1;
    profiler = std::make_unique<Profiler>(popts);
    InstallProfiler(profiler.get());
  }
  rack.Populate(num_keys, 128);
  if (check_invariants) {
    rack.EnableInvariantChecks(static_cast<SimDuration>(check_interval_s * 1e9));
  }

  // Install the trace ring before any traffic so the first client_send of
  // each early query is captured too.
  std::unique_ptr<TraceRecorder> tracer;
  if (!trace_out.empty()) {
    tracer = std::make_unique<TraceRecorder>(trace_limit);
    InstallTraceRecorder(tracer.get());
  }

  WorkloadGenerator gen(wl);

  if (cfg.cache_enabled) {
    std::vector<Key> hot;
    for (uint64_t id : gen.popularity().TopKeys(std::min<uint64_t>(cache, num_keys))) {
      hot.push_back(Key::FromUint64(id));
    }
    rack.WarmCache(hot);
    rack.StartController();
  }

  std::unique_ptr<TraceReplayer> replay;
  if (!trace_path.empty()) {
    std::ifstream in(trace_path);
    if (!in) {
      std::fprintf(stderr, "cannot open trace '%s'\n", trace_path.c_str());
      return 1;
    }
    Result<std::vector<TraceRecord>> records = ParseTrace(in);
    if (!records.ok()) {
      std::fprintf(stderr, "trace error: %s\n", records.status().ToString().c_str());
      return 1;
    }
    if (records->empty()) {
      std::fprintf(stderr, "trace '%s' contains no records\n", trace_path.c_str());
      return 1;
    }
    replay = std::make_unique<TraceReplayer>(std::move(*records), /*loop=*/true);
  }
  WorkloadDriver::QuerySource source =
      replay ? WorkloadDriver::QuerySource([&replay] { return *replay->Next(); })
             : WorkloadDriver::QuerySource([&gen] { return gen.Next(); });
  WorkloadDriver driver(&rack.sim(), &rack.client(0), std::move(source), rack.OwnerFn(), dc);

  std::unique_ptr<MetricsPoller> poller;
  if (!metrics_out.empty()) {
    poller = std::make_unique<MetricsPoller>(
        &rack.sim(), &rack.metrics(),
        static_cast<SimDuration>(metrics_interval_s * 1e9));
    poller->Start();
  }

  driver.Start();
  rack.sim().RunUntil(static_cast<SimTime>(duration_s * 1e9));
  driver.Stop();
  if (poller != nullptr) {
    poller->Stop();
  }
  rack.sim().RunUntil(rack.sim().Now() + 20 * kMillisecond);
  if (check_invariants) {
    // Final sweep at quiesce: all packets drained, so conservation and
    // coherence must hold exactly.
    rack.invariant_runner()->Stop();
    rack.invariant_runner()->RunOnce();
  }

  const Histogram& lat = rack.client(0).latency();
  const SwitchCounters& sc = rack.tor().counters();
  std::printf("sent            %llu\n", static_cast<unsigned long long>(driver.sent()));
  std::printf("completed       %llu (%.1f%% of sent)\n",
              static_cast<unsigned long long>(driver.completed()),
              100.0 * static_cast<double>(driver.completed()) /
                  static_cast<double>(std::max<uint64_t>(driver.sent(), 1)));
  std::printf("goodput         %.0f q/s\n",
              static_cast<double>(driver.completed()) / duration_s);
  std::printf("latency         avg %.1f us, p50 %.1f us, p99 %.1f us\n", lat.Mean() / 1e3,
              static_cast<double>(lat.Quantile(0.5)) / 1e3,
              static_cast<double>(lat.Quantile(0.99)) / 1e3);
  std::printf("switch          hits %llu, misses %llu, invalid %llu, hot reports %llu\n",
              static_cast<unsigned long long>(sc.cache_hits),
              static_cast<unsigned long long>(sc.cache_misses),
              static_cast<unsigned long long>(sc.cache_invalid),
              static_cast<unsigned long long>(sc.hot_reports));
  uint64_t dropped = 0;
  for (size_t i = 0; i < rack.num_servers(); ++i) {
    dropped += rack.server(i).stats().dropped;
  }
  std::printf("servers         shed %llu queries\n", static_cast<unsigned long long>(dropped));
  if (cfg.cache_enabled) {
    std::printf("controller      %llu insertions, %llu evictions\n",
                static_cast<unsigned long long>(rack.controller().stats().insertions),
                static_cast<unsigned long long>(rack.controller().stats().evictions));
  }

  int rc = 0;
  if (check_invariants) {
    rc = std::max(rc, ReportInvariantResults(*rack.invariant_runner()));
  }
  if (tracer != nullptr) {
    InstallTraceRecorder(nullptr);
    std::ofstream out(trace_out);
    if (!out) {
      std::fprintf(stderr, "cannot open '%s' for writing\n", trace_out.c_str());
      rc = 1;
    } else {
      tracer->WriteJsonl(out);
      std::printf("trace           %llu events to %s (%llu overwritten)\n",
                  static_cast<unsigned long long>(tracer->size()), trace_out.c_str(),
                  static_cast<unsigned long long>(tracer->dropped()));
      if (tracer->dropped() > 0 && cfg.sim_threads > 1) {
        std::fprintf(stderr,
                     "warning: trace ring wrapped under a multi-worker run; "
                     "WHICH events survived is schedule-dependent — raise "
                     "--trace-limit for a byte-stable trace\n");
      }
    }
  }
  if (profiler != nullptr) {
    InstallProfiler(nullptr);
    std::ofstream out(profile_out);
    if (!out) {
      std::fprintf(stderr, "cannot open '%s' for writing\n", profile_out.c_str());
      rc = 1;
    } else {
      profiler->WriteChromeTrace(out);
      out << "\n";
      if (!out.good()) {
        std::fprintf(stderr, "write to '%s' failed\n", profile_out.c_str());
        rc = 1;
      } else {
        std::printf("profile         %llu spans in %zu lane(s) to %s (%llu dropped)\n",
                    static_cast<unsigned long long>(profiler->spans_recorded()),
                    profiler->lanes_used(), profile_out.c_str(),
                    static_cast<unsigned long long>(profiler->spans_dropped()));
      }
    }
  }
  if (!metrics_out.empty()) {
    bool ok = WriteJsonFile(metrics_out, [&](JsonWriter& w) {
      w.BeginObject();
      w.Field("command", "rack");
      // Execution config that affects comparability.
      // `sim_threads_effective` appears only when the simulator clamped the
      // requested --sim-threads to the LP count — an unconditional field
      // would break the determinism legs that byte-diff --sim-threads=1
      // against =4.
      w.Name("config");
      w.BeginObject();
      if (rack.sim().sim_threads() != cfg.sim_threads) {
        w.Field("sim_threads_effective", static_cast<uint64_t>(rack.sim().sim_threads()));
      }
      // "sse2" | "scalar": the build's vector level. Results never depend
      // on it.
      w.Field("simd_level", ActiveSimdLevelName());
      w.EndObject();
      w.Field("sim_time_ns", static_cast<uint64_t>(rack.sim().Now()));
      w.Field("duration_s", duration_s);
      w.Field("sent", driver.sent());
      w.Field("completed", driver.completed());
      w.Name("metrics");
      w.BeginObject();
      rack.metrics().WriteJson(w);
      w.EndObject();
      w.Name("timeseries");
      w.BeginObject();
      poller->WriteJson(w);
      w.EndObject();
      w.EndObject();
    });
    if (!ok) {
      rc = 1;
    } else {
      std::printf("metrics         %zu series x %llu samples to %s\n",
                  poller->series().size(),
                  static_cast<unsigned long long>(poller->samples_taken()),
                  metrics_out.c_str());
    }
  }
  return rc;
}

// Splits a comma-separated flag value ("0.9,0.95,0.99") into doubles.
// Returns false (and reports on stderr) on any malformed or non-finite
// element.
bool ParseDoubleList(const std::string& raw, const char* flag, std::vector<double>* out) {
  size_t start = 0;
  while (start <= raw.size()) {
    size_t comma = raw.find(',', start);
    std::string piece = raw.substr(start, comma == std::string::npos ? comma : comma - start);
    char* end = nullptr;
    double v = std::strtod(piece.c_str(), &end);
    if (piece.empty() || end == piece.c_str() || *end != '\0' || !std::isfinite(v)) {
      std::fprintf(stderr, "--%s: '%s' is not a finite number\n", flag, piece.c_str());
      return false;
    }
    out->push_back(v);
    if (comma == std::string::npos) {
      break;
    }
    start = comma + 1;
  }
  return !out->empty();
}

bool ParseSizeList(const std::string& raw, const char* flag, std::vector<size_t>* out) {
  std::vector<double> values;
  if (!ParseDoubleList(raw, flag, &values)) {
    return false;
  }
  for (double v : values) {
    if (v < 0 || v != static_cast<double>(static_cast<uint64_t>(v))) {
      std::fprintf(stderr, "--%s: '%g' is not a non-negative integer\n", flag, v);
      return false;
    }
    out->push_back(static_cast<size_t>(v));
  }
  return true;
}

// Trial-independent sweep parameters (shared read-only across workers).
struct SweepShared {
  size_t servers = 8;
  size_t cores = 1;
  double rate = 50e3;
  uint64_t keys = 10'000;
  double offered = 100e3;
  double duration_s = 0.1;
  double write_ratio = 0.0;
  bool skewed_writes = false;
};

// One grid point: a (zipf, cache-size) configuration and its repetition id.
struct SweepPoint {
  double zipf = 0.99;
  size_t cache = 1000;
  size_t rep = 0;
};

// Paper metrics of one finished trial. Every field is a deterministic
// function of (shared, point, seed) — no wall-clock anywhere, so serial and
// parallel sweeps print byte-identical tables.
struct SweepOutcome {
  SweepPoint point;
  uint64_t seed = 0;
  uint64_t sent = 0;
  uint64_t completed = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t dropped = 0;
  double avg_us = 0;
  double p50_us = 0;
  double p99_us = 0;
  uint64_t events = 0;
};

SweepOutcome RunSweepTrial(const SweepShared& shared, const SweepPoint& point, uint64_t seed) {
  RackConfig cfg;
  cfg.num_servers = shared.servers;
  cfg.switch_config.num_pipes = 1;
  cfg.switch_config.cache_capacity = std::max<size_t>(4096, point.cache);
  cfg.switch_config.indexes_per_pipe = cfg.switch_config.cache_capacity;
  cfg.switch_config.stats.counter_slots = cfg.switch_config.cache_capacity;
  cfg.server_template.service_rate_qps = shared.rate;
  cfg.server_template.num_cores = shared.cores;
  cfg.client_template.reply_timeout = 10 * kMillisecond;
  cfg.controller_config.cache_capacity = point.cache;

  Rack rack(cfg);
  rack.Populate(shared.keys, 128);

  WorkloadConfig wl;
  wl.num_keys = shared.keys;
  wl.zipf_alpha = point.zipf;
  wl.write_ratio = shared.write_ratio;
  wl.skewed_writes = shared.skewed_writes;
  wl.seed = seed;
  WorkloadGenerator gen(wl);

  std::vector<Key> hot;
  for (uint64_t id : gen.popularity().TopKeys(std::min<uint64_t>(point.cache, shared.keys))) {
    hot.push_back(Key::FromUint64(id));
  }
  rack.WarmCache(hot);
  rack.StartController();

  DriverConfig dc;
  dc.rate_qps = shared.offered;
  WorkloadDriver driver(&rack.sim(), &rack.client(0),
                        WorkloadDriver::QuerySource([&gen] { return gen.Next(); }),
                        rack.OwnerFn(), dc);
  driver.Start();
  rack.sim().RunUntil(static_cast<SimTime>(shared.duration_s * 1e9));
  driver.Stop();
  rack.sim().RunUntil(rack.sim().Now() + 20 * kMillisecond);

  SweepOutcome out;
  out.point = point;
  out.seed = seed;
  out.sent = driver.sent();
  out.completed = driver.completed();
  const SwitchCounters& sc = rack.tor().counters();
  out.hits = sc.cache_hits;
  out.misses = sc.cache_misses;
  for (size_t i = 0; i < rack.num_servers(); ++i) {
    out.dropped += rack.server(i).stats().dropped;
  }
  const Histogram& lat = rack.client(0).latency();
  out.avg_us = lat.Mean() / 1e3;
  out.p50_us = static_cast<double>(lat.Quantile(0.5)) / 1e3;
  out.p99_us = static_cast<double>(lat.Quantile(0.99)) / 1e3;
  out.events = rack.sim().events_processed();
  return out;
}

int RunSweep(ArgParser& args) {
  SweepShared shared;
  shared.servers = static_cast<size_t>(args.GetInt("servers", 8, 1));
  shared.cores = static_cast<size_t>(args.GetInt("cores", 1, 1));
  shared.rate = args.GetDouble("rate", 50e3, ArgParser::kPositive);
  shared.keys = static_cast<uint64_t>(args.GetInt("keys", 10'000, 1));
  shared.offered = args.GetDouble("offered", 100e3, ArgParser::kPositive);
  shared.duration_s = args.GetDouble("duration", 0.1, ArgParser::kPositive);
  shared.write_ratio = args.GetDouble("write-ratio", 0.0, 0.0, 1.0);
  shared.skewed_writes = args.GetBool("skewed-writes", false);

  std::vector<double> zipfs;
  std::vector<size_t> caches;
  if (!ParseDoubleList(args.GetString("zipf", "0.9,0.95,0.99"), "zipf", &zipfs) ||
      !ParseSizeList(args.GetString("cache", "1000"), "cache", &caches)) {
    return 2;
  }
  size_t reps = static_cast<size_t>(args.GetInt("reps", 1, 1));

  SweepOptions opts;
  opts.root_seed = static_cast<uint64_t>(args.GetInt("seed", 42));
  opts.threads = static_cast<size_t>(args.GetInt("threads", 0));
  opts.serial = args.GetBool("serial", false);
  std::string metrics_out = args.GetString("metrics-out", "");
  if (!args.ok()) {
    return 2;
  }

  std::vector<SweepPoint> grid;
  for (double zipf : zipfs) {
    for (size_t cache : caches) {
      for (size_t rep = 0; rep < reps; ++rep) {
        grid.push_back(SweepPoint{zipf, cache, rep});
      }
    }
  }

  // NOTE: output deliberately never mentions thread count or timing — the
  // determinism test diffs --serial against --threads=N byte-for-byte.
  std::vector<SweepOutcome> outcomes = RunSweep(
      grid, opts,
      [&shared](const SweepPoint& point, uint64_t seed, size_t /*index*/) {
        return RunSweepTrial(shared, point, seed);
      });

  std::printf("sweep           %zu trials (%zu zipf x %zu cache x %zu reps)\n", grid.size(),
              zipfs.size(), caches.size(), reps);
  for (const SweepOutcome& o : outcomes) {
    std::printf("zipf=%.3f cache=%zu rep=%zu sent=%llu completed=%llu hits=%llu misses=%llu "
                "shed=%llu avg_us=%.2f p50_us=%.2f p99_us=%.2f events=%llu\n",
                o.point.zipf, o.point.cache, o.point.rep,
                static_cast<unsigned long long>(o.sent),
                static_cast<unsigned long long>(o.completed),
                static_cast<unsigned long long>(o.hits),
                static_cast<unsigned long long>(o.misses),
                static_cast<unsigned long long>(o.dropped), o.avg_us, o.p50_us, o.p99_us,
                static_cast<unsigned long long>(o.events));
  }

  if (!metrics_out.empty()) {
    bool ok = WriteJsonFile(metrics_out, [&](JsonWriter& w) {
      w.BeginObject();
      w.Field("command", "sweep");
      w.Field("root_seed", opts.root_seed);
      w.Field("trials", static_cast<uint64_t>(grid.size()));
      w.Field("duration_s", shared.duration_s);
      w.Name("results");
      w.BeginArray();
      for (const SweepOutcome& o : outcomes) {
        w.BeginObject();
        w.Field("zipf", o.point.zipf);
        w.Field("cache", static_cast<uint64_t>(o.point.cache));
        w.Field("rep", static_cast<uint64_t>(o.point.rep));
        w.Field("seed", o.seed);
        w.Field("sent", o.sent);
        w.Field("completed", o.completed);
        w.Field("cache_hits", o.hits);
        w.Field("cache_misses", o.misses);
        w.Field("server_shed", o.dropped);
        w.Field("latency_avg_us", o.avg_us);
        w.Field("latency_p50_us", o.p50_us);
        w.Field("latency_p99_us", o.p99_us);
        w.Field("events", o.events);
        w.EndObject();
      }
      w.EndArray();
      w.EndObject();
    });
    if (!ok) {
      return 1;
    }
  }
  return 0;
}

int RunSaturate(ArgParser& args) {
  SaturationConfig cfg;
  cfg.num_partitions = static_cast<size_t>(args.GetInt("partitions", 128));
  cfg.server_rate_qps = args.GetDouble("rate", 10e6, ArgParser::kPositive);
  cfg.num_keys = static_cast<uint64_t>(args.GetInt("keys", 100'000'000));
  cfg.zipf_alpha = args.GetDouble("zipf", 0.99);
  cfg.cache_size = static_cast<size_t>(args.GetInt("cache", 10'000));
  cfg.write_ratio = args.GetDouble("write-ratio", 0.0, 0.0, 1.0);
  cfg.skewed_writes = args.GetBool("skewed-writes", false);
  cfg.write_back = args.GetBool("write-back", false);
  cfg.exact_ranks = std::max<size_t>(cfg.cache_size, 262'144);
  std::string metrics_out = args.GetString("metrics-out", "");
  double check_interval_s = 0;
  bool check_invariants = ParseCheckInvariants(args, &check_interval_s);
  if (!args.ok()) {
    return 2;
  }
  if (check_invariants && check_interval_s < 0) {
    return 2;
  }
  SaturationResult r = SolveSaturation(cfg);
  int rc = 0;
  if (check_invariants) {
    // Closed-form model sanity: no simulated time here, so validate the
    // solver's outputs against the model's own conservation laws.
    uint64_t violations = 0;
    auto violation = [&violations](const char* msg) {
      std::fprintf(stderr, "[invariant:model_sanity] %s\n", msg);
      ++violations;
    };
    if (!(r.cache_hit_fraction >= 0.0 && r.cache_hit_fraction <= 1.0)) {
      violation("cache_hit_fraction outside [0, 1]");
    }
    if (!std::isfinite(r.total_qps) || r.total_qps < 0 ||
        !std::isfinite(r.cache_qps) || r.cache_qps < 0 ||
        !std::isfinite(r.server_qps) || r.server_qps < 0) {
      violation("non-finite or negative throughput component");
    }
    double tol = 1e-6 * std::max(r.total_qps, 1.0);
    if (std::abs(r.total_qps - (r.cache_qps + r.server_qps)) > tol) {
      violation("total_qps != cache_qps + server_qps (query conservation)");
    }
    double per_server_sum = 0;
    for (double qps : r.per_server_qps) {
      per_server_sum += qps;
      if (!std::isfinite(qps) || qps < 0) {
        violation("per-server load non-finite or negative");
      }
      if (qps > cfg.server_rate_qps * (1.0 + 1e-6)) {
        violation("per-server load exceeds server capacity at the solution");
      }
    }
    if (r.per_server_qps.size() != cfg.num_partitions) {
      violation("per_server_qps size != num_partitions");
    }
    if (r.bottleneck_server >= cfg.num_partitions) {
      violation("bottleneck_server out of range");
    }
    std::printf("invariants      %d checks, %llu violations\n", 7,
                static_cast<unsigned long long>(violations));
    if (violations > 0) {
      rc = 1;
    }
  }
  std::printf("total       %.3e q/s\n", r.total_qps);
  std::printf("cache       %.3e q/s (hit fraction %.3f)\n", r.cache_qps,
              r.cache_hit_fraction);
  std::printf("servers     %.3e q/s\n", r.server_qps);
  std::printf("limited by  %s (bottleneck server %zu)\n", r.limited_by.c_str(),
              r.bottleneck_server);
  if (!metrics_out.empty()) {
    bool ok = WriteJsonFile(metrics_out, [&](JsonWriter& w) {
      w.BeginObject();
      w.Field("command", "saturate");
      w.Field("total_qps", r.total_qps);
      w.Field("cache_qps", r.cache_qps);
      w.Field("server_qps", r.server_qps);
      w.Field("cache_hit_fraction", r.cache_hit_fraction);
      w.Field("bottleneck_server", static_cast<uint64_t>(r.bottleneck_server));
      w.Field("limited_by", r.limited_by);
      w.Name("per_server_qps");
      w.BeginArray();
      for (double qps : r.per_server_qps) {
        w.Double(qps);
      }
      w.EndArray();
      w.EndObject();
    });
    if (!ok) {
      return 1;
    }
  }
  return rc;
}

int RunMultiRack(ArgParser& args) {
  MultiRackConfig cfg;
  cfg.num_racks = static_cast<size_t>(args.GetInt("racks", 32));
  cfg.servers_per_rack = static_cast<size_t>(args.GetInt("servers-per-rack", 128));
  cfg.server_rate_qps = args.GetDouble("rate", 10e6, ArgParser::kPositive);
  cfg.num_spines = static_cast<size_t>(args.GetInt("spines", cfg.num_racks / 2 + 1));
  cfg.cache_items_per_switch = static_cast<size_t>(args.GetInt("cache", 10'000));
  std::string mode = args.GetString("mode", "leafspine");
  if (mode == "nocache") {
    cfg.mode = MultiRackMode::kNoCache;
  } else if (mode == "leaf") {
    cfg.mode = MultiRackMode::kLeafCache;
  } else if (mode == "leafspine") {
    cfg.mode = MultiRackMode::kLeafSpineCache;
  } else {
    std::fprintf(stderr, "unknown --mode '%s'\n", mode.c_str());
    return 2;
  }
  double check_interval_s = 0;
  bool check_invariants = ParseCheckInvariants(args, &check_interval_s);
  if (!args.ok()) {
    return 2;
  }
  if (check_invariants && check_interval_s < 0) {
    return 2;
  }
  MultiRackResult r = SolveMultiRack(cfg);
  int rc = 0;
  if (check_invariants) {
    uint64_t violations = 0;
    auto violation = [&violations](const char* msg) {
      std::fprintf(stderr, "[invariant:model_sanity] %s\n", msg);
      ++violations;
    };
    if (!std::isfinite(r.total_qps) || r.total_qps < 0 || !std::isfinite(r.spine_qps) ||
        r.spine_qps < 0 || !std::isfinite(r.tor_qps) || r.tor_qps < 0 ||
        !std::isfinite(r.server_qps) || r.server_qps < 0) {
      violation("non-finite or negative throughput component");
    }
    double tol = 1e-6 * std::max(r.total_qps, 1.0);
    if (std::abs(r.total_qps - (r.spine_qps + r.tor_qps + r.server_qps)) > tol) {
      violation("total_qps != spine + tor + server (query conservation)");
    }
    if (r.limited_by.empty()) {
      violation("limited_by not reported");
    }
    std::printf("invariants      %d checks, %llu violations\n", 3,
                static_cast<unsigned long long>(violations));
    if (violations > 0) {
      rc = 1;
    }
  }
  std::printf("%s, %zu racks x %zu servers:\n", MultiRackModeName(cfg.mode), cfg.num_racks,
              cfg.servers_per_rack);
  std::printf("total    %.3e q/s\n", r.total_qps);
  std::printf("spine    %.3e q/s\n", r.spine_qps);
  std::printf("tor      %.3e q/s\n", r.tor_qps);
  std::printf("servers  %.3e q/s\n", r.server_qps);
  std::printf("limited by %s\n", r.limited_by.c_str());
  std::string metrics_out = args.GetString("metrics-out", "");
  if (!metrics_out.empty()) {
    bool ok = WriteJsonFile(metrics_out, [&](JsonWriter& w) {
      w.BeginObject();
      w.Field("command", "multirack");
      w.Field("mode", MultiRackModeName(cfg.mode));
      w.Field("num_racks", static_cast<uint64_t>(cfg.num_racks));
      w.Field("servers_per_rack", static_cast<uint64_t>(cfg.servers_per_rack));
      w.Field("total_qps", r.total_qps);
      w.Field("spine_qps", r.spine_qps);
      w.Field("tor_qps", r.tor_qps);
      w.Field("server_qps", r.server_qps);
      w.Field("limited_by", r.limited_by);
      w.EndObject();
    });
    if (!ok) {
      return 1;
    }
  }
  return rc;
}

int RunSnake(ArgParser& args) {
  size_t ports = static_cast<size_t>(args.GetInt("ports", 64));
  uint64_t queries = static_cast<uint64_t>(args.GetInt("queries", 1000));
  size_t cache = static_cast<size_t>(args.GetInt("cache", 1024));
  size_t value_size = static_cast<size_t>(args.GetInt("value-size", 128));
  double check_interval_s = 0;
  bool check_invariants = ParseCheckInvariants(args, &check_interval_s);
  if (!args.ok()) {
    return 2;
  }
  if (check_invariants && check_interval_s < 0) {
    return 2;
  }
  SwitchConfig cfg;
  cfg.num_pipes = 1;
  cfg.cache_capacity = std::max<size_t>(cache, 1024);
  cfg.indexes_per_pipe = cfg.cache_capacity;
  cfg.stats.counter_slots = cfg.cache_capacity;
  SnakeHarness snake(cfg, ports);
  if (check_invariants) {
    // Shadow tracking must precede traffic so the soundness checker has
    // ground-truth counts for every sampled query.
    snake.tor().query_stats().EnableShadowTracking();
  }
  Status st = snake.CacheItems(cache, value_size);
  if (!st.ok()) {
    std::fprintf(stderr, "cache population failed: %s\n", st.ToString().c_str());
    return 1;
  }
  SnakeResult r = snake.Run(queries, 1 * kMicrosecond);
  int rc = 0;
  if (check_invariants) {
    // The snake has no servers or clients; the switch-local invariants
    // (slot-allocator consistency, sketch soundness) are the meaningful ones.
    CheckerRunner runner;
    runner.AddChecker(std::make_unique<SlotConsistencyChecker>(&snake.tor()));
    runner.AddChecker(std::make_unique<SketchSoundnessChecker>(&snake.tor().query_stats()));
    runner.RunOnce();
    rc = ReportInvariantResults(runner);
  }
  std::printf("ports           %zu (%zu pipeline passes per query)\n", ports, r.passes);
  std::printf("injected        %llu\n", static_cast<unsigned long long>(r.sent));
  std::printf("pipeline reads  %llu (x%.0f amplification)\n",
              static_cast<unsigned long long>(r.pipeline_reads), r.amplification);
  std::printf("delivered       %llu (%llu value-exact)\n",
              static_cast<unsigned long long>(r.received),
              static_cast<unsigned long long>(r.value_ok));
  std::string metrics_out = args.GetString("metrics-out", "");
  if (!metrics_out.empty()) {
    MetricsRegistry registry;
    snake.tor().RegisterMetrics(registry, "switch", {{"component", "switch"}});
    bool ok = WriteJsonFile(metrics_out, [&](JsonWriter& w) {
      w.BeginObject();
      w.Field("command", "snake");
      w.Field("ports", static_cast<uint64_t>(ports));
      w.Field("passes", static_cast<uint64_t>(r.passes));
      w.Field("sent", r.sent);
      w.Field("received", r.received);
      w.Field("value_ok", r.value_ok);
      w.Field("pipeline_reads", r.pipeline_reads);
      w.Field("amplification", r.amplification);
      w.Name("metrics");
      w.BeginObject();
      registry.WriteJson(w);
      w.EndObject();
      w.EndObject();
    });
    if (!ok) {
      return 1;
    }
  }
  return rc;
}

int Main(int argc, char** argv) {
  ArgParser args(argc, argv);
  if (args.positional().empty()) {
    return Usage(argv[0]);
  }
  const std::string& command = args.positional()[0];
  if (args.GetBool("lp-checks", false)) {
#if NETCACHE_LP_CHECKS
    lp::SetChecksEnabled(true);
#else
    std::fprintf(stderr,
                 "--lp-checks ignored: built with -DNETCACHE_LP_CHECKS=OFF\n");
#endif
  }
  int rc;
  if (command == "rack") {
    rc = RunRack(args);
  } else if (command == "sweep") {
    rc = RunSweep(args);
  } else if (command == "saturate") {
    rc = RunSaturate(args);
  } else if (command == "multirack") {
    rc = RunMultiRack(args);
  } else if (command == "snake") {
    rc = RunSnake(args);
  } else {
    return Usage(argv[0]);
  }
  for (const std::string& err : args.errors()) {
    std::fprintf(stderr, "error: %s\n", err.c_str());
  }
  return args.ok() ? rc : 2;
}

}  // namespace
}  // namespace netcache

int main(int argc, char** argv) { return netcache::Main(argc, argv); }
