#include "bench/bench_harness.h"

#include <cstdio>
#include <fstream>

#include "common/cli.h"
#include "common/json_writer.h"
#include "common/simd.h"

namespace netcache {
namespace bench {

BenchHarness::BenchHarness(int argc, char** argv, std::string name)
    : name_(std::move(name)) {
  ArgParser args(argc, argv);
  json_path_ = args.GetString("json", "");
  profile_out_ = args.GetString("profile-out", "");
  seed_ = static_cast<uint64_t>(args.GetInt("seed", 42));
  threads_ = static_cast<size_t>(args.GetInt("threads", 0));
  sim_threads_ = static_cast<size_t>(args.GetInt("sim-threads", 0));
  effective_sim_threads_.store(sim_threads_, std::memory_order_relaxed);
  serial_ = args.GetBool("serial", false);
  if (!profile_out_.empty()) {
    Profiler::Options popts;
    popts.spans_per_lane =
        static_cast<size_t>(args.GetInt("profile-limit", 1 << 18));
    profiler_ = std::make_unique<Profiler>(popts);
    InstallProfiler(profiler_.get());
  }
}

TrialRecord& BenchHarness::AddTrial(const std::string& label) {
  trials_.push_back(TrialRecord{});
  trials_.back().label = label;
  return trials_.back();
}

void BenchHarness::AddTrialRecord(TrialRecord record) {
  trials_.push_back(std::move(record));
}

int BenchHarness::Finish() const {
  int rc = 0;
  if (profiler_ != nullptr) {
    InstallProfiler(nullptr);
    std::ofstream prof_out(profile_out_);
    if (!prof_out) {
      std::fprintf(stderr, "bench_harness: cannot open '%s' for writing\n",
                   profile_out_.c_str());
      rc = 1;
    } else {
      profiler_->WriteChromeTrace(prof_out);
      prof_out << "\n";
      if (!prof_out.good()) {
        std::fprintf(stderr, "bench_harness: write to '%s' failed\n", profile_out_.c_str());
        rc = 1;
      } else {
        std::printf("profile         %llu spans in %zu lane(s) to %s (%llu dropped)\n",
                    static_cast<unsigned long long>(profiler_->spans_recorded()),
                    profiler_->lanes_used(), profile_out_.c_str(),
                    static_cast<unsigned long long>(profiler_->spans_dropped()));
      }
    }
  }
  if (json_path_.empty()) {
    return rc;
  }
  std::ofstream out(json_path_);
  if (!out) {
    std::fprintf(stderr, "bench_harness: cannot open '%s' for writing\n", json_path_.c_str());
    return 1;
  }
  JsonWriter w(out);
  w.BeginObject();
  w.Field("bench", name_);
  w.Field("seed", seed_);
  // Run configuration. bench_regress.py hard-errors when two documents
  // disagree here: wall-clock (and, for --sim-threads, tie-break schedules)
  // are not comparable across threading setups or across hosts whose CPUs
  // run different digest levels.
  w.Name("config");
  w.BeginObject();
  w.Field("threads", static_cast<uint64_t>(threads_));
  w.Field("sim_threads", static_cast<uint64_t>(sim_threads_));
  // What the DES trials actually ran with (zero-lookahead topologies fall
  // back to the serial dispatcher); equals sim_threads unless a bench
  // reported otherwise via RecordEffectiveSimThreads.
  w.Field("sim_threads_effective",
          static_cast<uint64_t>(effective_sim_threads_.load(std::memory_order_relaxed)));
  w.Field("serial", serial_ ? 1 : 0);
  // "sse2" | "scalar" — the build's vector level (scalar off x86-64).
  w.Field("simd_level", ActiveSimdLevelName());
  w.EndObject();
  w.Name("trials");
  w.BeginArray();
  for (const TrialRecord& t : trials_) {
    w.BeginObject();
    w.Field("label", t.label);
    w.Name("config");
    w.BeginObject();
    for (const auto& [key, value] : t.config) {
      w.Field(key, value);
    }
    w.EndObject();
    w.Name("metrics");
    w.BeginObject();
    for (const auto& [key, value] : t.metrics) {
      w.Field(key, value);
    }
    w.EndObject();
    if (t.wall_ms > 0) {
      w.Field("wall_ms", t.wall_ms);
      if (t.events > 0) {
        w.Field("events", t.events);
        w.Field("events_per_sec", static_cast<double>(t.events) / (t.wall_ms / 1e3));
      }
    }
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  out << "\n";
  if (!out.good()) {
    std::fprintf(stderr, "bench_harness: write to '%s' failed\n", json_path_.c_str());
    return 1;
  }
  std::printf("json            trial results to %s\n", json_path_.c_str());
  return rc;
}

}  // namespace bench
}  // namespace netcache
