#!/usr/bin/env python3
"""Aggregate a netcache profile (--profile-out JSON) into a stall-attribution report.

The profile is Chrome trace-event JSON (loadable in Perfetto / chrome://tracing)
with an extra top-level "netcache" object carrying exact per-lane and per-LP
aggregates maintained by the profiler itself.  This tool reads only that
summary block, so the report is exact even when the per-lane span buffers
overflowed (spans_dropped > 0 merely truncates the *timeline*, never the
aggregates).

Default mode prints:
  * per-lane wall-clock attribution: what fraction of each recording thread's
    active extent went to round execution, barrier waits, inbound-mail merge,
    serial fences, and round-boundary coordination (the five buckets that
    partition a DES worker's life);
  * the switch-pipeline breakdown (digest / match+peek / value-serve), which
    nests *inside* lp_execute spans and is therefore reported as a
    within-execute breakdown, never added to the lane buckets;
  * per-LP busy table (exec ms, windows, events/window, stalled windows);
  * the events-per-window histogram (bin 0 = stalled window, bin k covers
    [2^(k-1), 2^k - 1] events);
  * the unstaged execute time per lane: execute minus every nested stage,
    i.e. the event engine, clients and workload, which no stage span books.
    It is exact only while no stage span nests inside another, so the report
    checks the timeline for such nesting and says so when it finds any;
  * a one-line limiting-layer verdict: the largest attributed bucket and its
    share.  A profile with two or more DES lanes is judged by the five DES
    buckets over the DES lanes' extent.  With one DES lane (--sim-threads=0
    or 1) nothing waits at a barrier and execute holds nearly all the time,
    so the verdict names the largest nested switch/server/egress stage, or
    the unstaged time when that is larger, over the recording lanes' extent
    instead.

Modes:
  --validate         structural validation only (for CI): checks the trace is
                     well-formed and self-consistent, exit 0/1.
  --min-attributed=F fail (exit 1) unless the DES-active lanes' attributed
                     fraction (execute+barrier+merge+fence+coordinate over
                     lane extents) is at least F (e.g. 0.9).
  --scaling-baseline=BASE.json
                     also print a scaling-efficiency line: this profile's
                     events/s against the (typically 1-worker) baseline
                     profile's, and the per-worker parallel efficiency.

Usage:
  tools/profile_report.py PROFILE.json
  tools/profile_report.py --validate PROFILE.json
  tools/profile_report.py --min-attributed=0.9 PROFILE.json
  tools/profile_report.py --scaling-baseline=prof_1worker.json prof_8worker.json
"""

import argparse
import json
import signal
import sys

# Die quietly when piped into `head` and friends.
signal.signal(signal.SIGPIPE, signal.SIG_DFL)

# Must match ProfCat / ProfCatName in src/common/profiler.h.
DES_CATS = ("lp_execute", "barrier_wait", "merge", "serial_fence", "coordinate")
SWITCH_CATS = ("switch_digest", "switch_match_peek", "switch_value_serve")
# Server service stages and link egress-flush; nested inside lp_execute like
# the switch stages (service completions and transmit-group flushes dispatch
# from LP events), so they are a breakdown of execute, never an extra bucket.
SERVER_CATS = ("server_lookup", "server_reply", "egress_flush")
STAGE_CATS = SWITCH_CATS + SERVER_CATS
ALL_CATS = DES_CATS + STAGE_CATS
# Execute time that no stage books; a verdict name, not a span category.
UNSTAGED = "unstaged"


def fail(msg: str) -> "NoReturn":
    print(f"profile_report: error: {msg}", file=sys.stderr)
    sys.exit(1)


def load(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except OSError as e:
        fail(f"cannot read '{path}': {e}")
    except json.JSONDecodeError as e:
        fail(f"'{path}' is not valid JSON: {e}")
    if not isinstance(doc, dict):
        fail(f"'{path}': top level is not an object")
    return doc


def validate(doc: dict) -> list:
    """Returns a list of problem strings (empty = structurally sound)."""
    problems = []

    def check(cond, msg):
        if not cond:
            problems.append(msg)
        return cond

    check(doc.get("displayTimeUnit") == "ms", "displayTimeUnit != 'ms'")
    events = doc.get("traceEvents")
    if check(isinstance(events, list), "traceEvents missing or not a list"):
        n_spans = 0
        for i, ev in enumerate(events):
            if not isinstance(ev, dict) or "ph" not in ev:
                problems.append(f"traceEvents[{i}]: not an event object")
                break
            ph = ev["ph"]
            if ph == "M":
                continue
            if ph != "X":
                problems.append(f"traceEvents[{i}]: unexpected phase '{ph}'")
                break
            n_spans += 1
            if not (isinstance(ev.get("ts"), (int, float)) and ev["ts"] >= 0 and
                    isinstance(ev.get("dur"), (int, float)) and ev["dur"] >= 0 and
                    isinstance(ev.get("tid"), int) and ev.get("name") in ALL_CATS):
                problems.append(f"traceEvents[{i}]: malformed X event: {ev}")
                break

    nc = doc.get("netcache")
    if not check(isinstance(nc, dict), "netcache summary block missing"):
        return problems
    check(nc.get("version") == 1, f"unsupported summary version {nc.get('version')!r}")
    lanes = nc.get("lanes")
    if not check(isinstance(lanes, list) and lanes, "netcache.lanes missing or empty"):
        return problems

    total_spans = 0
    for lane in lanes:
        lid = lane.get("lane")
        total_spans += lane.get("spans", 0)
        cats = lane.get("cats")
        if not check(isinstance(cats, dict), f"lane {lid}: cats missing"):
            continue
        for cat in ALL_CATS:
            c = cats.get(cat)
            if not check(isinstance(c, dict), f"lane {lid}: cat '{cat}' missing"):
                continue
            check(c.get("ns", -1) >= 0 and c.get("count", -1) >= 0,
                  f"lane {lid}: cat '{cat}' has negative aggregates")
            if c.get("count", 0) > 0 and not c.get("ns", 0) >= 0:
                problems.append(f"lane {lid}: cat '{cat}' counted but ns invalid")
        if lane.get("spans", 0) > 0:
            check(lane.get("last_ns", 0) >= lane.get("first_ns", 0),
                  f"lane {lid}: last_ns < first_ns")
            cat_ns = sum(cats.get(c, {}).get("ns", 0) for c in DES_CATS)
            extent = lane.get("last_ns", 0) - lane.get("first_ns", 0)
            # Switch spans nest inside lp_execute, so DES cats alone must fit
            # the extent (tiny slack for the final span's own duration).
            check(cat_ns <= extent + cat_ns * 0.01 + 1_000_000,
                  f"lane {lid}: bucket ns {cat_ns} exceeds extent {extent}")
        bins = lane.get("window_events_bins")
        check(isinstance(bins, list) and all(isinstance(b, int) and b >= 0 for b in bins),
              f"lane {lid}: window_events_bins malformed")

    # Every span in the timeline must be accounted for by the lane summaries.
    if isinstance(events, list):
        n_x = sum(1 for ev in events if isinstance(ev, dict) and ev.get("ph") == "X")
        check(n_x == total_spans,
              f"timeline has {n_x} spans but lane summaries claim {total_spans}")

    for lp in nc.get("lps", []):
        check(isinstance(lp, dict) and lp.get("exec_ns", -1) >= 0 and
              lp.get("windows", -1) >= 0 and lp.get("events", -1) >= 0 and
              lp.get("stall_windows", -1) >= 0,
              f"lps entry malformed: {lp}")
    return problems


def ms(ns: float) -> float:
    return ns / 1e6


def pct(part: float, whole: float) -> str:
    return f"{100.0 * part / whole:5.1f}%" if whole > 0 else "    -"


def bin_label(k: int) -> str:
    if k == 0:
        return "0 (stall)"
    lo, hi = 1 << (k - 1), (1 << k) - 1
    return str(lo) if lo == hi else f"{lo}-{hi}"


def des_throughput(doc: dict):
    """(events, extent_ns, des_lanes) for a profile's DES work.

    Events counts everything dispatched by the scheduler: per-LP round
    execution (lp_execute arg) plus global-stream serial instants
    (serial_fence arg).  Extent is the union of the DES lanes' activity.
    """
    lanes = doc["netcache"]["lanes"]
    des = [l for l in lanes if any(l["cats"][c]["count"] > 0 for c in DES_CATS)]
    if not des:
        return 0, 0, 0
    events = sum(l["cats"]["lp_execute"]["arg"] + l["cats"]["serial_fence"]["arg"]
                 for l in des)
    extent = max(l["last_ns"] for l in des) - min(l["first_ns"] for l in des)
    return events, extent, len(des)


def scaling_report(doc: dict, baseline: dict) -> None:
    ev, ext, workers = des_throughput(doc)
    bev, bext, bworkers = des_throughput(baseline)
    if ext == 0 or bext == 0 or bworkers == 0:
        print("\nscaling: baseline or profile has no DES activity; skipping")
        return
    rate = ev / (ext / 1e9)
    brate = bev / (bext / 1e9)
    speedup = rate / brate if brate else 0.0
    # Per-worker efficiency: how much of the ideal linear speedup over the
    # baseline's worker count this run achieved.
    eff = speedup / (workers / bworkers) if workers else 0.0
    print(f"\nScaling vs baseline ({bworkers} lane(s), {brate:,.0f} events/s)")
    print(f"  this profile: {workers} lane(s), {rate:,.0f} events/s "
          f"({rate / workers:,.0f} per lane)")
    print(f"  speedup {speedup:.2f}x over baseline -> "
          f"{100.0 * eff:.1f}% per-worker scaling efficiency")


def unstaged_ns(lane: dict) -> int:
    """A lane's execute time that no nested stage books."""
    cats = lane["cats"]
    return max(0, cats["lp_execute"]["ns"] - sum(cats[c]["ns"] for c in STAGE_CATS))


def nested_stage_spans(events: list) -> int:
    """Counts the timeline's stage spans that start inside an earlier stage
    span of the same lane.  Unstaged time subtracts every stage from execute
    once, which double-counts a stage that runs inside another."""
    spans = sorted((ev["tid"], round(ev["ts"] * 1e3), -round(ev["dur"] * 1e3))
                   for ev in events
                   if ev.get("ph") == "X" and ev.get("name") in STAGE_CATS)
    nested = 0
    lane, reach = None, 0
    for tid, start, neg_dur in spans:
        if tid != lane:
            lane, reach = tid, start
        if start < reach:
            nested += 1
        reach = max(reach, start - neg_dur)
    return nested


def limiting_layer(lanes: list, des_lanes: list) -> str:
    """The verdict line: the largest attributed bucket with its share.

    Several DES lanes: the round buckets say which part of the schedule
    limits the run.  One DES lane: "execute" would say nothing, so the
    largest nested stage, or the unstaged rest of execute, is named instead.
    """
    if len(des_lanes) > 1:
        cats, pool, whole = DES_CATS, des_lanes, "DES-lane wall-clock"
    else:
        cats = STAGE_CATS + (UNSTAGED,)
        pool = [l for l in lanes if l.get("spans", 0) > 0]
        whole = "profiled wall-clock (one DES lane, nested stages)"
    extent = sum(l["last_ns"] - l["first_ns"] for l in pool)
    totals = {c: sum(unstaged_ns(l) if c == UNSTAGED else l["cats"][c]["ns"] for l in pool)
              for c in cats}
    top = max(cats, key=lambda c: totals[c])
    if extent <= 0 or totals[top] == 0:
        return "Limiting layer: none (no attributed spans)"
    return f"Limiting layer: {top} at {pct(totals[top], extent).strip()} of {whole}"


def report(doc: dict, min_attributed: float) -> int:
    nc = doc["netcache"]
    lanes = nc["lanes"]
    dropped = nc.get("spans_dropped", 0)
    if dropped:
        print(f"note: {dropped} timeline spans dropped (buffer full); "
              "aggregates below are still exact\n")

    # A lane participates in DES attribution when it recorded any of the five
    # scheduler buckets; a hypothetical switch-only thread would not.
    des_lanes = [l for l in lanes
                 if any(l["cats"][c]["count"] > 0 for c in DES_CATS)]

    print("Per-lane wall-clock attribution (extent = first span start .. last span end)")
    hdr = (f"  {'lane':<6} {'extent_ms':>10} {'execute':>8} {'barrier':>8} "
           f"{'merge':>8} {'fence':>8} {'coord':>8} {'other':>8} {'attributed':>11}")
    print(hdr)
    total_extent = 0
    total_attr = 0
    for lane in lanes:
        extent = lane["last_ns"] - lane["first_ns"]
        cats = lane["cats"]
        bucket_ns = {c: cats[c]["ns"] for c in DES_CATS}
        attr = sum(bucket_ns.values())
        other = max(0, extent - attr)
        in_des = lane in des_lanes
        if in_des:
            total_extent += extent
            total_attr += attr
        print(f"  {lane['lane']:<6} {ms(extent):>10.1f} "
              f"{pct(bucket_ns['lp_execute'], extent):>8} "
              f"{pct(bucket_ns['barrier_wait'], extent):>8} "
              f"{pct(bucket_ns['merge'], extent):>8} "
              f"{pct(bucket_ns['serial_fence'], extent):>8} "
              f"{pct(bucket_ns['coordinate'], extent):>8} "
              f"{pct(other, extent):>8} "
              f"{pct(attr, extent) if in_des else '  (no DES)':>11}")
    overall = total_attr / total_extent if total_extent else 0.0
    print(f"  overall: {100.0 * overall:.1f}% of DES-lane wall-clock attributed "
          f"to execute+barrier+merge+fence+coordinate ({len(des_lanes)} lane(s))")
    # Worker balance: how evenly the DES lanes (one per worker thread) share
    # the execute time. Per-LP busy time (below) measures the topology's load
    # split instead; an uneven LP split can still run on balanced workers.
    exec_ns = [l["cats"]["lp_execute"]["ns"] for l in des_lanes]
    if exec_ns and sum(exec_ns) > 0:
        balance = max(exec_ns) / (sum(exec_ns) / len(exec_ns))
        print(f"  worker balance: max/mean execute {balance:.2f} over "
              f"{len(exec_ns)} DES lane(s)")

    # Switch pipeline: nested inside lp_execute, reported as a breakdown of it.
    switch_total = sum(l["cats"][c]["ns"] for l in lanes for c in SWITCH_CATS)
    if switch_total > 0:
        exec_total = sum(l["cats"]["lp_execute"]["ns"] for l in lanes)
        print("\nSwitch pipeline (nested inside execute; not an extra bucket)")
        print(f"  {'stage':<20} {'ms':>9} {'spans':>10} {'packets':>12} {'ns/packet':>10}")
        for cat in SWITCH_CATS:
            ns_sum = sum(l["cats"][cat]["ns"] for l in lanes)
            count = sum(l["cats"][cat]["count"] for l in lanes)
            pkts = sum(l["cats"][cat]["arg"] for l in lanes)
            per_pkt = f"{ns_sum / pkts:>10.0f}" if pkts else f"{'-':>10}"
            print(f"  {cat:<20} {ms(ns_sum):>9.2f} {count:>10} {pkts:>12} {per_pkt}")
        print(f"  switch stages cover {pct(switch_total, exec_total).strip()} "
              "of execute time")

    # Server service + egress flush: same nesting as the switch stages.
    server_total = sum(l["cats"][c]["ns"] for l in lanes for c in SERVER_CATS)
    if server_total > 0:
        exec_total = sum(l["cats"]["lp_execute"]["ns"] for l in lanes)
        print("\nServer & egress stages (nested inside execute; not an extra bucket)")
        print(f"  {'stage':<20} {'ms':>9} {'spans':>10} {'packets':>12} {'ns/packet':>10}")
        for cat in SERVER_CATS:
            ns_sum = sum(l["cats"][cat]["ns"] for l in lanes)
            count = sum(l["cats"][cat]["count"] for l in lanes)
            pkts = sum(l["cats"][cat]["arg"] for l in lanes)
            per_pkt = f"{ns_sum / pkts:>10.0f}" if pkts else f"{'-':>10}"
            print(f"  {cat:<20} {ms(ns_sum):>9.2f} {count:>10} {pkts:>12} {per_pkt}")
        print(f"  server/egress stages cover {pct(server_total, exec_total).strip()} "
              "of execute time")

    # What execute spends outside every stage: the event engine, clients and
    # workload. Exact only while stages never nest in one another.
    exec_lanes = [l for l in lanes if l["cats"]["lp_execute"]["ns"] > 0]
    if exec_lanes and switch_total + server_total > 0:
        print("\nUnstaged execute (execute minus the nested stages above)")
        print(f"  {'stage':<10} {'lane':>6} {'execute_ms':>11} {'ms':>9} {'of execute':>11}")
        for lane in exec_lanes:
            exec_ns = lane["cats"]["lp_execute"]["ns"]
            print(f"  {UNSTAGED:<10} {lane['lane']:>6} {ms(exec_ns):>11.2f} "
                  f"{ms(unstaged_ns(lane)):>9.2f} {pct(unstaged_ns(lane), exec_ns):>11}")
        nested = nested_stage_spans(doc.get("traceEvents", []))
        if nested:
            print(f"  note: {nested} timeline stage span(s) nest inside another stage, "
                  "so unstaged time reads low")

    lps = nc.get("lps", [])
    if lps:
        run_extent = max(l["last_ns"] for l in lanes) - min(l["first_ns"] for l in lanes)
        print("\nPer-LP execution (busy% is exec time over the whole run's extent)")
        print(f"  {'lp':<4} {'exec_ms':>9} {'windows':>9} {'events':>10} "
              f"{'ev/window':>10} {'stalls':>9} {'busy':>6}")
        for lp in lps:
            evw = lp["events"] / lp["windows"] if lp["windows"] else 0.0
            print(f"  {lp['lp']:<4} {ms(lp['exec_ns']):>9.1f} {lp['windows']:>9} "
                  f"{lp['events']:>10} {evw:>10.2f} {lp['stall_windows']:>9} "
                  f"{pct(lp['exec_ns'], run_extent):>6}")

    bins = [0] * max(len(l["window_events_bins"]) for l in lanes)
    for lane in lanes:
        for k, b in enumerate(lane["window_events_bins"]):
            bins[k] += b
    total_windows = sum(bins)
    if total_windows:
        print("\nEvents per LP-window (all lanes; stalled windows execute nothing)")
        width = 40
        peak = max(bins)
        for k, b in enumerate(bins):
            if b == 0 and not any(bins[k:]):
                break
            bar = "#" * max(1 if b else 0, round(width * b / peak))
            print(f"  {bin_label(k):>12} {b:>10} {pct(b, total_windows):>7}  {bar}")

    print("\n" + limiting_layer(lanes, des_lanes))

    if min_attributed is not None and overall < min_attributed:
        print(f"\nprofile_report: FAIL: attributed fraction {overall:.3f} "
              f"< required {min_attributed:.3f}", file=sys.stderr)
        return 1
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(
        description="Aggregate a netcache --profile-out trace into a "
                    "stall-attribution report.")
    ap.add_argument("profile", help="Chrome trace-event JSON from --profile-out")
    ap.add_argument("--validate", action="store_true",
                    help="structural validation only; exit 0/1 (for CI)")
    ap.add_argument("--min-attributed", type=float, default=None, metavar="F",
                    help="fail unless DES lanes' attributed fraction >= F")
    ap.add_argument("--scaling-baseline", default=None, metavar="BASE.json",
                    help="print events/s scaling efficiency vs this "
                         "(typically 1-worker) baseline profile")
    args = ap.parse_args()

    doc = load(args.profile)
    problems = validate(doc)
    if problems:
        for p in problems:
            print(f"profile_report: invalid: {p}", file=sys.stderr)
        return 1
    if args.validate:
        nc = doc["netcache"]
        n_spans = sum(l["spans"] for l in nc["lanes"])
        print(f"OK: {n_spans} spans in {len(nc['lanes'])} lane(s), "
              f"{len(nc.get('lps', []))} LPs, {nc.get('spans_dropped', 0)} dropped")
        return 0
    rc = report(doc, args.min_attributed)
    if args.scaling_baseline is not None:
        base = load(args.scaling_baseline)
        base_problems = validate(base)
        if base_problems:
            for p in base_problems:
                print(f"profile_report: invalid baseline: {p}", file=sys.stderr)
            return 1
        scaling_report(doc, base)
    return rc


if __name__ == "__main__":
    sys.exit(main())
