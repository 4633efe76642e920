#!/usr/bin/env python3
"""The repository benchmark: builds perfbench/netcache_bench and runs it.

  python3 perfbench/run.py
      every workload, --reps untraced runs each (round-robin, so host drift
      hits every workload alike), then one traced run each; prints every
      metric with its median, q1, q3 and n, and writes a JSON report
  python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
      one workload, repeated until S seconds are used; with --trace 1 the
      runs alternate untraced and traced
  python3 perfbench/run.py --scale 0.02 --reps 1
      the smoke configuration (every workload, checks and digests, ~20 s)
  python3 perfbench/run.py --compare A.json B.json
      one row per workload x metric with a verdict by the BENCHMARK.json bounds

The last line of standard output is one JSON object: correct, attempted,
failed, and metrics — the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1 (prefixed by workload when several ran). The exit
code is 0 only when every correctness check passed. perfbench/README.md is
the metric dictionary.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_DIR = os.path.join(BUILD_DIR, "runs")
DEFAULT_REPORT = os.path.join(BUILD_DIR, "report.json")
REP_TIMEOUT_S = 150

# Parallel DES categories of the library's Profiler (common/profiler.h).
DES_CATS = {
    "net.execute_frac": "lp_execute",
    "net.barrier_frac": "barrier_wait",
    "net.merge_frac": "merge",
    "net.coordinate_frac": "coordinate",
    "net.fence_frac": "serial_fence",
}
# Categories nested inside handlers and events, as shares of simulator
# thread time.
NESTED_CATS = {
    "net.egress_flush_frac": "egress_flush",
    "dataplane.digest_frac": "switch_digest",
    "dataplane.peek_frac": "switch_match_peek",
    "dataplane.serve_frac": "switch_value_serve",
    "kvstore.lookup_frac": "server_lookup",
    "server.reply_frac": "server_reply",
}
# Simulated-time guardrails reported beside BENCHMARK.json's metrics: they
# must read identically on both sides of a simulator-only change.
GUARDRAILS = [
    ("sim_latency_p50_us", "us"),
    ("sim_latency_p9999_us", "us"),
    ("sim_latency_samples", "count"),
    ("failed_frac", "fraction"),
]
# Needs one core per simulation thread; time-slicing it would measure the
# host's scheduler, not the simulator.
PARALLEL_WORKLOADS = {"fabric16-par4": 4}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    spec["workload_names"] = [w["name"] for w in spec["workloads"]]
    return spec


# ------------------------------------------------------------------ build --

def build():
    """Configures and builds the driver (both no-ops when current); returns
    its path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        raise SystemExit("perfbench: cmake configure failed")
    cmd = ["cmake", "--build", BUILD_DIR, "--target", "netcache_bench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        raise SystemExit("perfbench: build failed")
    return os.path.join(BUILD_DIR, "netcache_bench")


# -------------------------------------------------------------------- run --

def wait_child(proc, timeout_s):
    """Waits for `proc` and returns (exit status, peak RSS in KiB).

    os.wait4 gives the child's own rusage. It blocks rather than polls, so
    the runner takes no core from fabric16-par4's four simulation threads;
    a timer kills the child at the timeout.
    """
    watchdog = threading.Timer(timeout_s, proc.kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode == -signal.SIGKILL:
        raise RuntimeError(f"driver killed by SIGKILL (the timeout is {timeout_s} s)")
    return proc.returncode, usage.ru_maxrss


def profile_layers(path, timed_s):
    """Per-layer metrics from the Profiler's exact per-category aggregates."""
    with open(path) as f:
        nc = json.load(f)["netcache"]
    lanes = nc["lanes"]
    des = [l for l in lanes if any(l["cats"][c]["count"] for c in DES_CATS.values())]
    extent = sum(l["last_ns"] - l["first_ns"] for l in des)
    # Simulator thread time: the DES lanes' extents when the parallel
    # scheduler ran, else the one thread's timed section.
    thread_ns = extent if extent else timed_s * 1e9
    out = {}
    for name, cat in DES_CATS.items():
        out[name] = sum(l["cats"][cat]["ns"] for l in des) / extent if extent else 0.0
    out["net.attributed_frac"] = sum(out[name] for name in DES_CATS)
    for name, cat in NESTED_CATS.items():
        out[name] = sum(l["cats"][cat]["ns"] for l in lanes) / thread_ns if thread_ns else 0.0
    busy = [lp["exec_ns"] for lp in nc["lps"] if lp["windows"]]
    out["net.lp_imbalance"] = max(busy) / statistics.mean(busy) if busy else 0.0
    return out


def run_rep(binary, workload, seed, scale, traced, index):
    """One driver process; returns its result dict plus runner-side fields."""
    os.makedirs(RUN_DIR, exist_ok=True)
    stem = os.path.join(RUN_DIR, f"{workload}.{index}")
    cmd = [binary, f"--workload={workload}", f"--seed={seed}", f"--scale={scale}"]
    if traced:
        cmd += ["--trace", f"--profile-out={stem}.profile.json"]
    with open(f"{stem}.out", "w") as out:
        proc = subprocess.Popen(cmd, stdout=out, stderr=sys.stderr)
        try:
            code, rss_kib = wait_child(proc, REP_TIMEOUT_S)
        finally:
            if proc.returncode is None:
                proc.kill()
                os.wait4(proc.pid, 0)
    with open(f"{stem}.out") as f:
        lines = [l for l in f.read().splitlines() if l.strip()]
    if not lines:
        raise RuntimeError(f"{workload}: driver exited {code} without a result")
    rep = json.loads(lines[-1])
    rep["exit"] = code
    rep["peak_rss_mib"] = rss_kib / 1024.0
    if traced:
        rep["layers"].update(profile_layers(f"{stem}.profile.json", rep["timed_s"]))
    return rep


# ---------------------------------------------------------------- metrics --

def summarize(values):
    values = list(values)
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    return {"median": median, "q1": q1, "q3": q3, "n": len(values), "values": values}


def end_to_end(rep):
    return {
        "ops_per_wall_s": rep["ops"] / rep["timed_s"],
        "setup_s": rep["setup_s"],
        "peak_rss_mib": rep["peak_rss_mib"],
        "sim_hit_ratio": rep["sim"]["hit_ratio"],
        "sim_server_imbalance": rep["sim"]["server_imbalance"],
    }


def guardrails(rep):
    sim = rep["sim"]
    return {
        "sim_latency_p50_us": sim["latency_p50_us"],
        "sim_latency_p9999_us": sim["latency_p9999_us"],
        "sim_latency_samples": sim["latency_samples"],
        "failed_frac": rep["failed"] / rep["attempted"] if rep["attempted"] else 0.0,
    }


def evaluate(spec, workload, reps):
    """Aggregates one workload's runs and checks them; returns its report."""
    plain = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    problems = []
    for r in reps:
        kind = "traced" if r["traced"] else "untraced"
        if r["exit"] != 0:
            problems.append(f"{kind} run exited {r['exit']}")
        for c in r["checks"]:
            if not c["ok"]:
                problems.append(f"{kind} run: check {c['name']} failed: {c['detail']}")
    digests = sorted({r["sim_digest"] for r in reps})
    if len(digests) != 1:
        problems.append(f"sim_digest differs across runs of one seed: {digests}")

    metrics = {}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update(dict(GUARDRAILS))
    if plain:
        for source in (end_to_end, guardrails):
            per_rep = [source(r) for r in plain]
            for name in per_rep[0]:
                metrics[name] = summarize(p[name] for p in per_rep)
    if traced:
        layer_reps = [dict(r["layers"]) for r in traced]
        if plain:
            plain_wall = statistics.median(r["timed_s"] for r in plain)
            plain_rate = metrics["ops_per_wall_s"]["median"]
            for r, layers in zip(traced, layer_reps):
                layers["net.events_per_wall_s"] = r["sim"]["events"] / plain_wall
                layers["trace.overhead_frac"] = 1.0 - (r["ops"] / r["timed_s"]) / plain_rate
        for m in spec["per_layer"]:
            if m["name"] not in layer_reps[0]:
                if m["name"] in ("net.events_per_wall_s", "trace.overhead_frac") and not plain:
                    continue  # needs an untraced run to compare against
                problems.append(f"per-layer metric {m['name']} was not measured")
                continue
            metrics[m["name"]] = summarize(l[m["name"]] for l in layer_reps)
    for name, m in metrics.items():
        m["unit"] = units.get(name, "")
    if traced and workload in PARALLEL_WORKLOADS:
        attributed = metrics.get("net.attributed_frac", {}).get("median", 0.0)
        if attributed < 0.9:
            log(f"warning: {workload}: the Profiler attributes only {attributed:.1%} "
                "of DES thread time (expected >= 90%)")
    return {
        "status": "ok" if not problems else "failed",
        "correct": not problems,
        "problems": problems,
        "sim_digest": digests[0] if len(digests) == 1 else digests,
        "attempted": sum(r["attempted"] for r in reps),
        "failed": sum(r["failed"] for r in reps),
        "runs": {"untraced": len(plain), "traced": len(traced)},
        "metrics": metrics,
    }


def print_table(workload, result, spec):
    print(f"\n{workload}: {result['status']}, {result['runs']['untraced']} untraced + "
          f"{result['runs']['traced']} traced runs, sim_digest {result['sim_digest']}")
    for p in result["problems"]:
        print(f"  PROBLEM: {p}")
    order = ([m["name"] for m in spec["end_to_end"]] + [g for g, _ in GUARDRAILS] +
             [m["name"] for m in spec["per_layer"]])
    print(f"  {'metric':<30} {'unit':<9} {'median':>14} {'q1':>14} {'q3':>14} {'n':>3}")
    for name in order:
        m = result["metrics"].get(name)
        if m is None:
            continue
        print(f"  {name:<30} {m['unit']:<9} {m['median']:>14.6g} {m['q1']:>14.6g} "
              f"{m['q3']:>14.6g} {m['n']:>3}")


# ------------------------------------------------------------- provenance --

def provenance(binary_prov):
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                           text=True)
        if r.returncode == 0:
            commit = r.stdout.strip()
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    prov = {"git_commit": commit, "nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version()}
    prov.update(binary_prov)
    return prov


def warn_on_build(prov):
    if prov.get("build_type") in ("Debug", ""):
        log(f"warning: driver built as '{prov.get('build_type')}': timings are not "
            "comparable to an optimized build")
    if prov.get("sanitizer", "OFF") != "OFF":
        log(f"warning: sanitizer '{prov['sanitizer']}' compiled in: timings are not "
            "comparable")


# ---------------------------------------------------------------- compare --

def verdict(a, b, better, bound):
    """Worse/better by the bound, or unresolved when either side's own
    spread exceeds the bound (unless every B run beats every A run)."""
    base = abs(a["median"])
    if base == 0:
        return "unchanged" if b["median"] == 0 else "changed"
    sign = 1.0 if better == "higher" else -1.0
    gain = sign * (b["median"] - a["median"]) / base
    spread = max((s["q3"] - s["q1"]) / abs(s["median"]) if s["median"] else 0.0
                 for s in (a, b))
    if spread > bound:
        if better == "higher" and min(b["values"]) > max(a["values"]):
            return "improved"
        if better == "lower" and max(b["values"]) < min(a["values"]):
            return "improved"
        return "unresolved"
    if gain < -bound:
        return "regressed"
    if gain > bound:
        return "improved"
    return "unchanged"


def compare(spec, path_a, path_b):
    with open(path_a) as f:
        a = json.load(f)
    with open(path_b) as f:
        b = json.load(f)
    for side, doc in (("A", a), ("B", b)):
        p = doc["provenance"]
        print(f"{side}: commit {p['git_commit'][:12]}, {p['build_type']}, {p['compiler']}, "
              f"simd {p['simd_level']}, nproc {p['nproc']}, {p['cpu_model']}")
    rows = [(m["name"], m["better"], m["bound"]) for m in spec["end_to_end"]]
    rows += [(g, "identical", None) for g, _ in GUARDRAILS]
    rows += [(m["name"], m["better"], None) for m in spec["per_layer"]]
    regressed = 0
    print(f"\n{'workload':<16} {'metric':<30} {'A median [q1, q3]':>34} "
          f"{'B median [q1, q3]':>34} {'delta':>8}  verdict")
    for w in spec["workload_names"]:
        wa = a["workloads"].get(w, {}).get("metrics", {})
        wb = b["workloads"].get(w, {}).get("metrics", {})
        for name, better, bound in rows:
            if name not in wa or name not in wb:
                continue
            ma, mb = wa[name], wb[name]
            delta = ((mb["median"] - ma["median"]) / abs(ma["median"])
                     if ma["median"] else 0.0)
            if bound is not None:
                v = verdict(ma, mb, better, bound)
            elif better == "identical":
                v = "identical" if ma["values"] == mb["values"] else "changed"
            else:
                v = "-"
            regressed += v == "regressed"
            fa = f"{ma['median']:.5g} [{ma['q1']:.5g}, {ma['q3']:.5g}]"
            fb = f"{mb['median']:.5g} [{mb['q1']:.5g}, {mb['q3']:.5g}]"
            print(f"{w:<16} {name:<30} {fa:>34} {fb:>34} {delta:>+8.2%}  {v}")
    for w in spec["workload_names"]:
        da = a["workloads"].get(w, {}).get("sim_digest")
        db = b["workloads"].get(w, {}).get("sim_digest")
        if da and db:
            print(f"{w:<16} sim_digest {da} vs {db}: "
                  f"{'identical' if da == db else 'changed'}")
    return 1 if regressed else 0


# ------------------------------------------------------------------- main --

def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", help="run only this workload (default: all)")
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--reps", type=int, default=5, help="untraced runs per workload")
    ap.add_argument("--seconds", type=float,
                    help="instead of --reps: repeat each workload for this long")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=None,
                    help="1: add traced runs and report the per-layer metrics "
                         "(default 1 with --reps, 0 with --seconds)")
    ap.add_argument("--scale", type=float, default=1.0,
                    help="simulated-time multiplier in (0, 1]; 0.02 is the smoke run")
    ap.add_argument("--out", default=DEFAULT_REPORT, help="JSON report path")
    ap.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = ap.parse_args()

    spec = load_spec()
    if args.compare:
        return compare(spec, *args.compare)
    if not 0 < args.scale <= 1:
        ap.error("--scale must be in (0, 1]")
    if args.reps < 1 or (args.seconds is not None and args.seconds <= 0):
        ap.error("--reps and --seconds must be positive")
    trace = args.trace if args.trace is not None else int(args.seconds is None)
    if args.workload is not None and args.workload not in spec["workload_names"]:
        ap.error(f"unknown workload {args.workload!r}; one of {spec['workload_names']}")
    workloads = [args.workload] if args.workload else list(spec["workload_names"])

    binary = build()
    nproc = os.cpu_count() or 1
    skipped = []
    if args.workload is None:
        skipped = [w for w in workloads if PARALLEL_WORKLOADS.get(w, 0) > nproc]
        workloads = [w for w in workloads if w not in skipped]
    elif PARALLEL_WORKLOADS.get(args.workload, 0) > nproc:
        log(f"warning: {args.workload} needs {PARALLEL_WORKLOADS[args.workload]} cores, "
            f"this host has {nproc}: its host times are time-sliced")
    for w in skipped:
        log(f"skipping {w}: needs {PARALLEL_WORKLOADS[w]} cores, this host has {nproc}")

    reps = {w: [] for w in workloads}
    count = 0

    def one(w, traced):
        nonlocal count
        count += 1
        t0 = time.monotonic()
        rep = run_rep(binary, w, args.seed, args.scale, traced, count)
        reps[w].append(rep)
        return time.monotonic() - t0

    if args.seconds is None:
        # Round-robin, so slow drift of the host hits every workload alike.
        for _ in range(args.reps):
            for w in workloads:
                one(w, False)
        if trace:
            for w in workloads:
                one(w, True)
    else:
        for w in workloads:
            used, longest, n = 0.0, 0.0, 0
            # At least one untraced run (and one traced with --trace 1); then
            # more while another run still fits in the budget.
            while n < 1 + trace or used + longest <= args.seconds:
                took = one(w, bool(trace) and n % 2 == 1)
                used += took
                longest = max(longest, took)
                n += 1

    results = {w: evaluate(spec, w, reps[w]) for w in workloads}
    first = next(r for w in workloads for r in reps[w])
    prov = provenance(first["provenance"])
    warn_on_build(prov)
    report = {
        "provenance": prov,
        "config": {"seed": args.seed, "scale": args.scale, "reps": args.reps,
                   "seconds": args.seconds, "trace": trace},
        "workloads": results,
    }
    for w in skipped:
        report["workloads"][w] = {"status": "skipped", "correct": True,
                                  "problems": [f"needs {PARALLEL_WORKLOADS[w]} cores"],
                                  "metrics": {}}
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as f:
        json.dump(report, f, indent=1)
        f.write("\n")

    print(f"provenance: {json.dumps(prov, sort_keys=True)}")
    for w in workloads:
        print_table(w, results[w], spec)
    print(f"\nreport: {args.out}")

    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    line = {"correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {}}
    for w in workloads:
        prefix = "" if len(workloads) == 1 else f"{w}/"
        for name in names:
            m = results[w]["metrics"].get(name)
            if m is not None:
                line["metrics"][prefix + name] = {"value": m["median"], "unit": units[name]}
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    # Forward termination to the running driver process (run_rep kills and
    # reaps it on the way out).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.exit(main())
