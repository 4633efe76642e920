// Tests for the wall-clock profiler: span recording and aggregation,
// capacity/drop accounting, the events-per-window histogram, multi-threaded
// lane assignment, the install/uninstall hook, and the Chrome trace JSON
// shape tools/profile_report.py and Perfetto both consume.

#include <atomic>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/profiler.h"

namespace netcache {
namespace {

Profiler::Options SmallOptions(size_t spans_per_lane = 64) {
  Profiler::Options opts;
  opts.spans_per_lane = spans_per_lane;
  opts.max_lanes = 8;
  opts.max_lps = 16;
  return opts;
}

TEST(ProfilerTest, RecordsSpansAndAggregates) {
  Profiler prof(SmallOptions());
  uint64_t t0 = Profiler::NowNs();
  prof.RecordSpan(ProfCat::kLpExecute, /*lp=*/3, t0, t0 + 1000, /*arg=*/5);
  prof.RecordSpan(ProfCat::kLpExecute, /*lp=*/3, t0 + 2000, t0 + 2500, /*arg=*/2);
  prof.RecordSpan(ProfCat::kMerge, /*lp=*/0, t0 + 2500, t0 + 2600, /*arg=*/7);

  EXPECT_EQ(prof.lanes_used(), 1u);
  EXPECT_EQ(prof.spans_recorded(), 3u);
  EXPECT_EQ(prof.spans_dropped(), 0u);

  std::ostringstream out;
  prof.WriteChromeTrace(out);
  std::string json = out.str();
  // Aggregates: lp_execute 1500 ns over 2 spans with 7 events; merge 100 ns.
  EXPECT_NE(json.find("\"lp_execute\":{\"ns\":1500,\"count\":2,\"arg\":7}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"merge\":{\"ns\":100,\"count\":1,\"arg\":7}"),
            std::string::npos)
      << json;
  // Per-LP table: both execute spans landed on LP 3.
  EXPECT_NE(json.find("\"lp\":3,\"exec_ns\":1500,\"windows\":2,\"events\":7"),
            std::string::npos)
      << json;
}

TEST(ProfilerTest, CapacityOverflowDropsTimelineButKeepsAggregates) {
  Profiler prof(SmallOptions(/*spans_per_lane=*/4));
  uint64_t t0 = Profiler::NowNs();
  for (uint64_t i = 0; i < 10; ++i) {
    prof.RecordSpan(ProfCat::kLpExecute, 1, t0 + i * 100, t0 + i * 100 + 10, 1);
  }
  EXPECT_EQ(prof.spans_recorded(), 4u);
  EXPECT_EQ(prof.spans_dropped(), 6u);

  std::ostringstream out;
  prof.WriteChromeTrace(out);
  std::string json = out.str();
  // All 10 spans aggregate even though only 4 made the timeline.
  EXPECT_NE(json.find("\"lp_execute\":{\"ns\":100,\"count\":10,\"arg\":10}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"spans_dropped\":6"), std::string::npos) << json;
}

TEST(ProfilerTest, WindowStallHistogramBins) {
  Profiler prof(SmallOptions());
  uint64_t t0 = Profiler::NowNs();
  prof.RecordWindowStall(2);
  prof.RecordWindowStall(2);
  prof.RecordSpan(ProfCat::kLpExecute, 2, t0, t0 + 10, /*arg=*/1);    // bin 1
  prof.RecordSpan(ProfCat::kLpExecute, 2, t0, t0 + 10, /*arg=*/3);    // bin 2
  prof.RecordSpan(ProfCat::kLpExecute, 2, t0, t0 + 10, /*arg=*/4);    // bin 3
  prof.RecordSpan(ProfCat::kLpExecute, 2, t0, t0 + 10, /*arg=*/200);  // bin 8

  std::ostringstream out;
  prof.WriteChromeTrace(out);
  std::string json = out.str();
  // Bins: [stalls=2, 1, {2,3}=1, {4..7}=1, 0, 0, 0, 0, {128..255}=1, ...].
  EXPECT_NE(json.find("\"window_events_bins\":[2,1,1,1,0,0,0,0,1,0"),
            std::string::npos)
      << json;
  // Stalls show in the LP table but never contribute to windows/events.
  EXPECT_NE(json.find("\"lp\":2,\"exec_ns\":40,\"windows\":4,\"events\":208,"
                      "\"stall_windows\":2"),
            std::string::npos)
      << json;
}

TEST(ProfilerTest, ThreadsGetDistinctLanes) {
  Profiler prof(SmallOptions());
  constexpr int kThreads = 4;
  constexpr int kSpansEach = 50;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&prof, t] {
      uint64_t base = Profiler::NowNs();
      for (int i = 0; i < kSpansEach; ++i) {
        prof.RecordSpan(ProfCat::kBarrierWait, 0, base + i * 10, base + i * 10 + 5,
                        0);
      }
    });
  }
  for (std::thread& th : threads) {
    th.join();
  }
  EXPECT_EQ(prof.lanes_used(), static_cast<size_t>(kThreads));
  EXPECT_EQ(prof.spans_recorded(),
            static_cast<uint64_t>(kThreads * kSpansEach));
  EXPECT_EQ(prof.spans_dropped(), 0u);
}

TEST(ProfilerTest, LanePastCapIsCountedNotStored) {
  Profiler::Options opts = SmallOptions();
  opts.max_lanes = 1;
  Profiler prof(opts);
  uint64_t t0 = Profiler::NowNs();
  prof.RecordSpan(ProfCat::kLpExecute, 1, t0, t0 + 10, 1);  // main: lane 0
  std::thread overflow([&prof, t0] {
    prof.RecordSpan(ProfCat::kLpExecute, 1, t0, t0 + 10, 1);  // past the cap
  });
  overflow.join();
  EXPECT_EQ(prof.lanes_used(), 1u);
  EXPECT_EQ(prof.spans_recorded(), 1u);
  EXPECT_EQ(prof.spans_dropped(), 1u);
}

TEST(ProfilerTest, ChromeTraceShape) {
  Profiler prof(SmallOptions());
  uint64_t t0 = Profiler::NowNs();
  prof.RecordSpan(ProfCat::kSwitchDigest, 0, t0 + 5000, t0 + 7000, /*arg=*/32);

  std::ostringstream out;
  prof.WriteChromeTrace(out);
  std::string json = out.str();
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  // Thread-name metadata plus the span itself, ts/dur in microseconds.
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"name\":\"switch_digest\",\"cat\":\"switch\","
                      "\"ph\":\"X\""),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"dur\":2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"netcache\":{\"version\":1"), std::string::npos) << json;
}

TEST(ProfilerTest, InstallHookAndScopes) {
  ASSERT_EQ(GetProfiler(), nullptr);
  {
    // No profiler installed: scopes and statics are inert.
    ProfScope scope(ProfCat::kLpExecute, 1);
    scope.set_arg(3);
    EXPECT_FALSE(ProfilingEnabled());
    EXPECT_EQ(Profiler::TickIfEnabled(), 0u);
    // Must not crash; a chain cannot start without a profiler.
    EXPECT_EQ(Profiler::RecordSince(ProfCat::kBarrierWait, 0, 123), 0u);
    Profiler::CountWindowStall(1);
  }

  Profiler prof(SmallOptions());
  EXPECT_EQ(InstallProfiler(&prof), nullptr);
#ifdef NETCACHE_DISABLE_PROFILING
  EXPECT_FALSE(ProfilingEnabled());
  { ProfScope scope(ProfCat::kLpExecute, 1); }
  EXPECT_EQ(prof.spans_recorded(), 0u);
  InstallProfiler(nullptr);
#else
  EXPECT_TRUE(ProfilingEnabled());
  {
    ProfScope scope(ProfCat::kLpExecute, 1);
    scope.set_arg(9);
  }
  EXPECT_EQ(prof.spans_recorded(), 1u);
  uint64_t tick = Profiler::TickIfEnabled();
  EXPECT_GT(tick, 0u);
  // RecordSince returns its end tick, the next chained span's start.
  uint64_t next = Profiler::RecordSince(ProfCat::kBarrierWait, 0, tick);
  EXPECT_GE(next, tick);
  EXPECT_EQ(prof.spans_recorded(), 2u);
  EXPECT_GE(Profiler::RecordSince(ProfCat::kMerge, 0, next), next);
  EXPECT_EQ(prof.spans_recorded(), 3u);
  // A zero start records nothing but still starts a chain.
  EXPECT_GT(Profiler::RecordSince(ProfCat::kMerge, 0, 0), 0u);
  EXPECT_EQ(prof.spans_recorded(), 3u);
  Profiler::CountWindowStall(1);

  EXPECT_EQ(InstallProfiler(nullptr), &prof);
  EXPECT_FALSE(ProfilingEnabled());
  { ProfScope scope(ProfCat::kLpExecute, 1); }
  EXPECT_EQ(prof.spans_recorded(), 3u);  // uninstalled: nothing recorded
#endif
}

TEST(ProfilerTest, TlsSlotIsKeyedByProfiler) {
  // A thread that recorded into one profiler must never write a stale lane
  // pointer into a different instance: the thread-local binding is keyed by
  // profiler, and switching back costs a fresh lane (fine in practice — one
  // profiler is installed per process lifetime).
  Profiler a(SmallOptions());
  Profiler b(SmallOptions());
  uint64_t t0 = Profiler::NowNs();
  a.RecordSpan(ProfCat::kLpExecute, 1, t0, t0 + 10, 1);
  b.RecordSpan(ProfCat::kMerge, 0, t0, t0 + 20, 2);
  a.RecordSpan(ProfCat::kLpExecute, 1, t0 + 10, t0 + 30, 1);
  EXPECT_EQ(a.spans_recorded(), 2u);
  EXPECT_EQ(b.spans_recorded(), 1u);
  EXPECT_EQ(b.lanes_used(), 1u);
  EXPECT_EQ(a.lanes_used(), 2u);  // re-acquired after b: second lane
  EXPECT_EQ(a.spans_dropped(), 0u);
}

}  // namespace
}  // namespace netcache
