// Shared benchmark harness: machine-readable results for every fig*/abl*/tab*
// bench, feeding the JSON regression gate (scripts/bench_regress.py).
//
// Each bench registers one TrialRecord per table row / configuration point:
// a stable label, the numeric config axes, and the paper metrics it
// reproduces. DES-driven benches wrap their simulation in a TrialTimer, which
// adds wall-clock milliseconds and (via SetEvents) the simulator's
// events-processed count, from which the writer derives events_per_sec — the
// throughput measure the perf regression gate watches.
//
// Flags (parsed from main's argv; unknown flags are ignored so google-benchmark
// style flags can coexist, and a malformed value exits 2 before any trial):
//   --json=PATH        write {bench, seed, config, trials:[...]} JSON
//   --seed=N           root seed for randomized benches (default 42)
//   --threads=N        worker threads for ParallelSweep-driven benches
//   --serial           force serial trial execution
//   --sim-threads=N    parallel-DES threads inside each trial's simulator
//                      (0 = every node in one LP, run inline)
//   --profile-out=FILE wall-clock profile of the whole run as Chrome
//                      trace-event JSON (Perfetto-loadable; aggregate with
//                      tools/profile_report.py) — installed for the process
//                      lifetime, so every trial's spans land in one file
//   --profile-limit=N  timeline spans kept per recording thread
//
// The threading knobs are recorded in the JSON's top-level "config" object —
// including `sim_threads_effective`, which DES benches set to what actually
// ran (RecordEffectiveSimThreads) when the simulator clamps the worker count
// to its LP count — along with `simd_level` ("sse2" | "scalar"), the
// target's baseline vector ISA. scripts/bench_regress.py refuses to compare
// documents whose run configs differ, so a partitioned run can never be
// graded against a one-LP baseline (or vice versa), nor an x86-64 run
// against a non-x86 one, nor against a run whose parallel request was
// clamped.
//
// Wall-clock calls live only in bench/ — the simulation library and tools are
// wall-clock-free by lint rule; benches are the one place timing is the point.

#ifndef NETCACHE_BENCH_BENCH_HARNESS_H_
#define NETCACHE_BENCH_BENCH_HARNESS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/profiler.h"
#include "core/sweep.h"

namespace netcache {
namespace bench {

struct TrialRecord {
  std::string label;
  // Ordered (name, value) pairs: insertion order is preserved so JSON output
  // is deterministic for a fixed seed.
  std::vector<std::pair<std::string, double>> config;
  std::vector<std::pair<std::string, double>> metrics;
  double wall_ms = 0;   // wall-clock of the timed section; 0 = untimed
  uint64_t events = 0;  // simulator events executed; 0 = closed-form bench

  TrialRecord& Config(const std::string& name, double value) {
    config.emplace_back(name, value);
    return *this;
  }
  TrialRecord& Metric(const std::string& name, double value) {
    metrics.emplace_back(name, value);
    return *this;
  }
};

class BenchHarness {
 public:
  BenchHarness(int argc, char** argv, std::string name);

  uint64_t seed() const { return seed_; }

  // Thread options for benches that fan trials out via RunSweep.
  SweepOptions sweep_options() const {
    SweepOptions opts;
    opts.threads = threads_;
    opts.serial = serial_;
    opts.root_seed = seed_;
    return opts;
  }

  // Parallel-DES threads for each trial's own simulator (RackConfig/
  // FabricConfig::sim_threads). Orthogonal to sweep_options(): --threads fans
  // trials out, --sim-threads parallelizes inside one trial.
  size_t sim_threads() const { return sim_threads_; }

  // DES benches report the worker count their simulator actually used
  // (Simulator::sim_threads(), clamped to its LP count). Thread-safe: trials
  // may run on sweep workers. Defaults to the requested --sim-threads when
  // never called.
  void RecordEffectiveSimThreads(size_t effective) {
    effective_sim_threads_.store(effective, std::memory_order_relaxed);
  }

  // Adds a trial; the reference stays valid for the harness's lifetime
  // (records live in a deque, which never relocates existing elements).
  TrialRecord& AddTrial(const std::string& label);

  // Moves a fully-built record in (for sweep-produced results).
  void AddTrialRecord(TrialRecord record);

  // Writes the JSON file when --json was given. Returns main()'s exit code
  // contribution: 0 on success or when no JSON was requested, 1 on I/O error.
  int Finish() const;

 private:
  std::string name_;
  std::string json_path_;
  std::string profile_out_;
  uint64_t seed_ = 42;
  size_t threads_ = 0;
  size_t sim_threads_ = 0;
  std::atomic<size_t> effective_sim_threads_{0};
  bool serial_ = false;
  std::deque<TrialRecord> trials_;
  // Destroyed after every trial's simulator (trials are function-local).
  std::unique_ptr<Profiler> profiler_;
};

// RAII wall-clock scope for one trial's simulation section.
class TrialTimer {
 public:
  explicit TrialTimer(TrialRecord* trial)
      : trial_(trial), start_(std::chrono::steady_clock::now()) {}
  ~TrialTimer() {
    std::chrono::duration<double, std::milli> elapsed =
        std::chrono::steady_clock::now() - start_;
    trial_->wall_ms = elapsed.count();
  }

  TrialTimer(const TrialTimer&) = delete;
  TrialTimer& operator=(const TrialTimer&) = delete;

  void SetEvents(uint64_t events) { trial_->events = events; }

 private:
  TrialRecord* trial_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace bench
}  // namespace netcache

#endif  // NETCACHE_BENCH_BENCH_HARNESS_H_
