#!/usr/bin/env python3
"""Compare two bench-harness JSON files and fail on metric regressions.

Every bench under bench/ accepts --json=PATH and writes
    {"bench": ..., "seed": ..., "trials": [{"label", "config", "metrics",
     "wall_ms"?, "events"?, "events_per_sec"?}, ...]}
(see bench/bench_harness.h). This script diffs a candidate file against a
baseline, matching trials by label and metrics by name:

    python3 scripts/bench_regress.py BENCH_baseline.json new.json
    python3 scripts/bench_regress.py --tolerance 0.05 old.json new.json
    python3 scripts/bench_regress.py --perf --perf-tolerance 0.3 old.json new.json
    python3 scripts/bench_regress.py --scaling micro.json

With --scaling, a SINGLE document is inspected instead of diffing two: the
'ParallelDes/sim_threads=1' and 'ParallelDes/sim_threads=8' trials (written
by bench/micro_datastructures) must show the 8-worker run achieving at least
--scaling-factor times the 1-worker events_per_sec. This is a wall-clock
gate; run it only on a machine with >= 8 cores (CI skips it otherwise).

Model metrics (the "metrics" map) are deterministic for a fixed seed, so the
default tolerance is tight; any |new - old| > tolerance * max(|old|, eps)
is a regression. Wall-clock numbers (wall_ms, events_per_sec) vary with the
machine and are only compared when --perf is given, against the looser
--perf-tolerance, and only in the slower direction (faster is never flagged).

Both documents may carry a top-level "config" object recording the run setup
({"threads", "sim_threads", "sim_threads_effective", "serial", "simd_level"},
written by bench_harness). When both sides have one and they disagree, the
comparison is refused outright: wall-clock numbers are meaningless across
threading setups, --sim-threads>=1 runs a different (windowed) event
schedule than the legacy serial dispatcher, and simd_level names the
build's vector level, so "scalar" vs "sse2" means one run came from a
non-x86 build. Re-run the candidate with the baseline's flags on a host
of the baseline's architecture instead.

Exit status: 0 when everything matches, 1 on any regression, missing trial,
or missing metric. New trials/metrics present only in the candidate are
reported but do not fail (they are additions, not regressions).
"""

import argparse
import difflib
import json
import sys

EPS = 1e-12


def closest(name, pool, n=3):
    """Suggestion suffix listing the closest-matching names, if any.

    Renamed trials are the common cause of a missing-label failure (a bench
    tweak changes a config string baked into the label); pointing at the
    near-miss makes the fix obvious without opening both JSON files.
    """
    matches = difflib.get_close_matches(name, pool, n=n, cutoff=0.4)
    if not matches:
        return ""
    return " (closest in candidate: %s)" % ", ".join(repr(m) for m in matches)


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        sys.exit(f"bench_regress: cannot read {path}: {e}")
    if not isinstance(doc, dict) or "trials" not in doc:
        sys.exit(f"bench_regress: {path} is not a bench-harness JSON file")
    return doc


def trial_map(doc, path):
    trials = {}
    for t in doc["trials"]:
        label = t.get("label", "")
        if label in trials:
            sys.exit(f"bench_regress: duplicate trial label {label!r} in {path}")
        trials[label] = t
    return trials


def rel_delta(old, new):
    return (new - old) / max(abs(old), EPS)


def scaling_check(path, factor):
    """Single-document gate: 8-worker DES must out-run 1-worker by `factor`.

    Matches trials by their sim_threads config rather than hard-coding the
    label prefix count, so adding more worker-count trials to the bench never
    breaks the gate.
    """
    doc = load(path)
    rates = {}
    for t in doc["trials"]:
        if not t.get("label", "").startswith("ParallelDes/"):
            continue
        st = t.get("config", {}).get("sim_threads")
        eps = t.get("events_per_sec")
        if st is not None and eps:
            rates[int(st)] = eps
    if 1 not in rates or 8 not in rates:
        sys.exit(f"bench_regress: {path} lacks ParallelDes sim_threads=1/=8 "
                 f"trials with events_per_sec (found worker counts: "
                 f"{sorted(rates) or 'none'})")
    speedup = rates[8] / rates[1]
    if speedup < factor:
        print(f"bench_regress: FAIL — 8-worker DES speedup {speedup:.2f}x "
              f"over 1 worker (events/s {rates[1]:g} -> {rates[8]:g}), "
              f"required >= {factor:g}x")
        return 1
    print(f"bench_regress: OK — 8-worker DES speedup {speedup:.2f}x "
          f"(events/s {rates[1]:g} -> {rates[8]:g}, required >= {factor:g}x)")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline", help="baseline JSON (e.g. BENCH_baseline.json); "
                    "with --scaling, the single document to inspect")
    ap.add_argument("candidate", nargs="?", default=None,
                    help="candidate JSON from a fresh run (omitted with "
                    "--scaling)")
    ap.add_argument(
        "--tolerance", type=float, default=0.01,
        help="relative tolerance for model metrics (default: %(default)s; "
        "deterministic benches should match far tighter than this)")
    ap.add_argument(
        "--perf", action="store_true",
        help="also compare wall_ms / events_per_sec (machine-dependent; "
        "off by default so CI on shared runners stays stable)")
    ap.add_argument(
        "--perf-tolerance", type=float, default=0.5,
        help="allowed relative slowdown for --perf comparisons "
        "(default: %(default)s)")
    ap.add_argument(
        "--scaling", action="store_true",
        help="single-document mode: require the 8-worker ParallelDes trial "
        "to reach --scaling-factor x the 1-worker events_per_sec")
    ap.add_argument(
        "--scaling-factor", type=float, default=2.0,
        help="minimum 8-worker/1-worker events_per_sec ratio for --scaling "
        "(default: %(default)s)")
    args = ap.parse_args()

    if args.scaling:
        if args.candidate is not None:
            ap.error("--scaling takes a single JSON document")
        return scaling_check(args.baseline, args.scaling_factor)
    if args.candidate is None:
        ap.error("candidate JSON is required (or pass --scaling)")

    base_doc = load(args.baseline)
    cand_doc = load(args.candidate)
    base_cfg = base_doc.get("config")
    cand_cfg = cand_doc.get("config")
    if base_cfg is not None and cand_cfg is not None and base_cfg != cand_cfg:
        sys.exit(
            "bench_regress: run configs differ — refusing to compare.\n"
            f"  baseline  {args.baseline}: {json.dumps(base_cfg, sort_keys=True)}\n"
            f"  candidate {args.candidate}: {json.dumps(cand_cfg, sort_keys=True)}\n"
            "  Re-run the candidate with the baseline's --threads/--sim-threads/"
            "--serial flags (simd_level differs only by architecture: run on a "
            "host of the baseline's architecture).")
    if base_doc.get("bench") != cand_doc.get("bench"):
        print(f"note: comparing different benches: {base_doc.get('bench')!r} "
              f"vs {cand_doc.get('bench')!r}")
    base = trial_map(base_doc, args.baseline)
    cand = trial_map(cand_doc, args.candidate)

    failures = []
    compared = 0

    for label, bt in base.items():
        ct = cand.get(label)
        if ct is None:
            failures.append(f"trial {label!r}: missing from candidate"
                            + closest(label, cand))
            continue
        for name, old in bt.get("metrics", {}).items():
            if name not in ct.get("metrics", {}):
                failures.append(f"trial {label!r}: metric {name!r} missing "
                                "from candidate"
                                + closest(name, ct.get("metrics", {})))
                continue
            new = ct["metrics"][name]
            compared += 1
            delta = rel_delta(old, new)
            if abs(delta) > args.tolerance:
                failures.append(
                    f"trial {label!r}: {name} {old:g} -> {new:g} "
                    f"({delta:+.2%}, tolerance ±{args.tolerance:.2%})")
        if args.perf:
            # Slower wall_ms / lower events_per_sec is a regression;
            # the other direction is an improvement and never flagged.
            old_ms, new_ms = bt.get("wall_ms"), ct.get("wall_ms")
            if old_ms and new_ms:
                compared += 1
                delta = rel_delta(old_ms, new_ms)
                if delta > args.perf_tolerance:
                    failures.append(
                        f"trial {label!r}: wall_ms {old_ms:g} -> {new_ms:g} "
                        f"({delta:+.2%} slower, tolerance "
                        f"+{args.perf_tolerance:.2%})")
            old_eps, new_eps = bt.get("events_per_sec"), ct.get("events_per_sec")
            if old_eps and new_eps:
                compared += 1
                delta = rel_delta(old_eps, new_eps)
                if delta < -args.perf_tolerance:
                    failures.append(
                        f"trial {label!r}: events_per_sec {old_eps:g} -> "
                        f"{new_eps:g} ({delta:+.2%}, tolerance "
                        f"-{args.perf_tolerance:.2%})")

    additions = [label for label in cand if label not in base]
    if additions:
        print(f"note: {len(additions)} trial(s) only in candidate "
              f"(not compared): {', '.join(repr(a) for a in additions)}")

    if failures:
        print(f"bench_regress: {len(failures)} regression(s) against "
              f"{args.baseline}:")
        for f in failures:
            print(f"  FAIL {f}")
        return 1
    print(f"bench_regress: OK — {compared} value(s) within tolerance "
          f"across {len(base)} trial(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
