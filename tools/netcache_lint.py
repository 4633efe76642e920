#!/usr/bin/env python3
"""netcache_lint: repo-specific static checks for the NetCache codebase.

Rules (see docs/STATIC_ANALYSIS.md for the rationale):

  determinism-rng     No direct randomness (rand, srand, std::random_device,
                      std::mt19937, drand48, ...) outside src/common/rng.*.
                      All randomness must flow through the seeded Rng so that
                      same-seed runs stay byte-identical.
  determinism-clock   No wall-clock reads (std::chrono ::now clocks, time(),
                      gettimeofday, clock_gettime) outside
                      src/common/time_units.h and the profiler
                      (src/common/profiler.{h,cc} — observability only; it
                      may never feed a simulation decision). Simulated time
                      comes from Simulator::Now().
  no-naked-assert     No bare assert(); use NC_CHECK from common/logging.h,
                      which logs context and fires in release builds too.
                      (static_assert is fine.)
  include-guards      Headers under src/ use NETCACHE_<PATH>_H_ include
                      guards, not #pragma once, and the guard matches the
                      file's path.
  no-stdio-logging    No std::cout/std::cerr/printf logging inside src/;
                      library code logs through NC_LOG. Tools, examples,
                      benchmarks, and tests may print.
  no-using-namespace  No `using namespace std;` anywhere.
  metric-naming       Metric names registered in src/ (AddCounter, AddGauge,
                      AddHistogram, RegisterMetrics prefixes) are lowercase
                      dotted snake_case: only [a-z0-9_] segments joined by
                      dots (a leading/trailing dot is fine in a literal
                      fragment that concatenates with a runtime prefix or
                      index). No brackets, no uppercase — names must be
                      stable jq paths. Full literal names must also be
                      unique within their file (MetricsRegistry::Add enforces
                      registry-wide uniqueness at runtime; the lint catches
                      copy-paste duplicates before a run does).
  digest-fast-path    No per-probe SeededHash/SeededHashBytes on the switch
                      fast path (sketches, stats, match table, switch data
                      plane). Those files index through the per-packet
                      KeyDigest (proto/key_digest.h): the key is hashed once
                      at ingress and every downstream slot is derived with a
                      Kirsch-Mitzenmacher probe. A new seeded hash there
                      silently reintroduces the per-probe cost the digest
                      removed.
  simd-intrinsics     No raw x86 intrinsics (_mm*_ calls, vector types, the
                      <*intrin.h> headers) anywhere in the tree, the
                      kernel layer src/common/simd* included. Every kernel
                      is portable code; an intrinsic has no fallback on
                      non-x86 builds and needs a measured end-to-end win
                      (and this rule's change) to come back.
  hot-path-alloc      No heap-allocating constructs (new expressions,
                      make_unique/make_shared, std::string objects,
                      std::to_string, std::vector object declarations) in
                      the fast-path allowlist TUs: the digest kernel, the
                      value store, the link transmit/flush path, and the
                      simulator dispatch loop. Those files run per packet or
                      per event; state lives in members or pooled scratch
                      reserved once (references to vectors are fine). A new
                      allocation there is a silent per-packet malloc that
                      the serve-stage profile has to rediscover the hard way.

Usage: python3 tools/netcache_lint.py [--root DIR] [--only RULE] [--list-rules]
Prints findings as `path:line: [rule] message` and exits 1 if any.
"""

import argparse
import os
import re
import sys

CXX_EXTENSIONS = (".h", ".cc", ".cpp")

RULES = {
    "determinism-rng":
        "no direct randomness outside common/rng.*; use the seeded Rng",
    "determinism-clock":
        "no wall-clock reads outside time_units.h / the profiler",
    "no-naked-assert":
        "no bare assert(); use NC_CHECK from common/logging.h",
    "include-guards":
        "headers use NETCACHE_<PATH>_H_ guards matching the file path",
    "no-stdio-logging":
        "no std::cout/printf logging inside src/; use NC_LOG",
    "no-using-namespace":
        "no `using namespace std;` anywhere",
    "metric-naming":
        "metric names are lowercase dotted snake_case, unique per file",
    "digest-fast-path":
        "no per-probe SeededHash on the switch fast path; use KeyDigest",
    "simd-intrinsics":
        "no raw x86 intrinsics anywhere; kernels are portable code",
    "hot-path-alloc":
        "no heap allocation in the fast-path TUs; use members/pooled scratch",
}

RNG_PATTERN = re.compile(
    r"(?<![\w.])(?:rand|srand|rand_r|drand48|lrand48|random)\s*\("
    r"|std::random_device"
    r"|std::mt19937"
    r"|std::minstd_rand"
    r"|std::default_random_engine"
)

CLOCK_PATTERN = re.compile(
    r"std::chrono::(?:system_clock|steady_clock|high_resolution_clock)"
    r"|(?<![\w.])(?:time|gettimeofday|clock_gettime|clock|localtime|gmtime)\s*\("
)

ASSERT_PATTERN = re.compile(r"(?<!\w)assert\s*\(")

STDIO_PATTERN = re.compile(
    r"std::cout|std::cerr|(?<!\w)(?:printf|fprintf|puts|fputs)\s*\("
)

USING_NAMESPACE_STD = re.compile(r"using\s+namespace\s+std\s*;")

SEEDED_HASH_PATTERN = re.compile(r"(?<![\w.])SeededHash(?:Bytes)?\s*\(")

# Raw x86 SIMD surface: intrinsic calls (_mm<width>_<op>), the 128/256/512-bit
# vector types and their i/d variants, and the <*intrin.h> headers.
SIMD_INTRINSIC_PATTERN = re.compile(
    r"(?<!\w)_mm\d*_\w+\s*\("
    r"|(?<!\w)__m\d{3}[id]?\b"
    r"|#\s*include\s*<(?:imm|emm|smm|tmm|xmm|avx|avx2|x86)intrin\.h>"
)

# Fast-path TUs held to the no-heap-allocation rule: every function in these
# files runs per packet, per event, or per transmit — cold setup lives in the
# classes' headers/other TUs, so the whole file can be held to the bar.
HOT_PATH_ALLOC_FILES = (
    "src/common/simd.cc",
    "src/dataplane/value_store.cc",
    "src/net/link.cc",
    "src/net/simulator.cc",
)

# Allocating constructs: new expressions (incl. placement-free operator new),
# the make_* wrappers, std::string objects/temporaries, std::to_string, and
# std::vector OBJECT declarations. `std::vector<T>&` references to member
# scratch are the sanctioned idiom and do not match (the `>` must be followed
# by whitespace and an identifier, not `&`/`*`).
HOT_PATH_ALLOC_PATTERN = re.compile(
    r"(?<!\w)new\s+[A-Za-z_:(]"
    r"|std::make_unique\b"
    r"|std::make_shared\b"
    r"|std::string\b"
    r"|std::to_string\s*\("
    r"|std::vector<[^;]*>\s+[A-Za-z_]"
)

METRIC_REGISTER_PATTERN = re.compile(
    r"(?:AddCounter|AddGauge|AddHistogram|RegisterMetrics)\s*\(")
STRING_LITERAL_PATTERN = re.compile(r'"((?:[^"\\]|\\.)*)"')
# A literal fragment is valid when every dot-separated segment it fully
# contains is lowercase snake_case; leading/trailing dots mark open ends that
# concatenate with a runtime prefix or index.
METRIC_FRAGMENT_PATTERN = re.compile(r"^\.?[a-z0-9_]+(?:\.[a-z0-9_]+)*\.?$|^\.$")
# A complete name (no open ends) — the unit of the uniqueness check.
METRIC_FULL_NAME_PATTERN = re.compile(r"^[a-z0-9_]+(?:\.[a-z0-9_]+)+$")

# Switch fast-path files: one hash per packet, all indices via KeyDigest.
DIGEST_FAST_PATH_PREFIXES = (
    "src/dataplane/netcache_switch.",
    "src/dataplane/stats.",
    "src/dataplane/match_table.",
    "src/sketch/count_min.",
    "src/sketch/bloom.",
    "src/sketch/heavy_hitter.",
)


def strip_comments_and_strings(line):
    """Best-effort removal of string/char literals and // comments.

    Keeps the line length-stable where possible is NOT attempted; findings
    report the original line number only, so mangling columns is fine.
    """
    out = []
    i = 0
    n = len(line)
    while i < n:
        c = line[i]
        if c == "/" and i + 1 < n and line[i + 1] == "/":
            break  # rest is a line comment
        if c == "/" and i + 1 < n and line[i + 1] == "*":
            end = line.find("*/", i + 2)
            if end == -1:
                break
            i = end + 2
            continue
        if c in "\"'":
            quote = c
            i += 1
            while i < n:
                if line[i] == "\\":
                    i += 2
                    continue
                if line[i] == quote:
                    i += 1
                    break
                i += 1
            out.append(quote + quote)  # keep an empty literal as a token
            continue
        out.append(c)
        i += 1
    return "".join(out)


def strip_line_comment(line):
    """Removes // and /* */ comment text but keeps string literals intact."""
    out = []
    i = 0
    n = len(line)
    while i < n:
        c = line[i]
        if c == "/" and i + 1 < n and line[i + 1] == "/":
            break
        if c == "/" and i + 1 < n and line[i + 1] == "*":
            end = line.find("*/", i + 2)
            if end == -1:
                break
            i = end + 2
            continue
        if c in "\"'":
            quote = c
            j = i + 1
            while j < n:
                if line[j] == "\\":
                    j += 2
                    continue
                if line[j] == quote:
                    j += 1
                    break
                j += 1
            out.append(line[i:j])
            i = j
            continue
        out.append(c)
        i += 1
    return "".join(out)


def check_metric_naming(rel, raw_lines, findings):
    """Lowercase dotted snake_case metric names, unique per file.

    Scans registration calls (AddCounter/AddGauge/AddHistogram and the
    RegisterMetrics prefix helpers) and checks every string literal that
    feeds them. Literal fragments concatenated around a runtime index keep
    their open end as a leading/trailing dot ("server." + i, i + ".latency");
    anything with brackets, uppercase or spaces is a finding.
    """
    full_names = {}
    n = len(raw_lines)
    for i in range(n):
        code = strip_line_comment(raw_lines[i])
        m = METRIC_REGISTER_PATTERN.search(code)
        if not m:
            continue
        is_add = "RegisterMetrics" not in code[m.start():m.end()]
        # The call's argument text: from the opening paren to the statement's
        # ';', capped at 4 lines (registration calls are short).
        pieces = []
        for j in range(i, min(i + 4, n)):
            text = code if j == i else strip_line_comment(raw_lines[j])
            if j == i:
                text = text[m.end():]
            semi = text.find(";")
            if semi != -1:
                pieces.append(text[:semi])
                break
            pieces.append(text)
        chunk = " ".join(pieces)
        for lit in STRING_LITERAL_PATTERN.findall(chunk):
            if not METRIC_FRAGMENT_PATTERN.match(lit):
                findings.append(
                    (rel, i + 1, "metric-naming",
                     "metric name %r is not lowercase dotted snake_case "
                     "([a-z0-9_] segments joined by dots)" % lit))
            elif is_add and METRIC_FULL_NAME_PATTERN.match(lit):
                if lit in full_names:
                    findings.append(
                        (rel, i + 1, "metric-naming",
                         "metric name %r already registered at line %d"
                         % (lit, full_names[lit])))
                else:
                    full_names[lit] = i + 1


def relpath(path, root):
    return os.path.relpath(path, root).replace(os.sep, "/")


def guard_for(rel):
    """src/dataplane/value_store.h -> NETCACHE_DATAPLANE_VALUE_STORE_H_."""
    assert rel.startswith("src/")
    stem = rel[len("src/"):]
    token = re.sub(r"[^A-Za-z0-9]", "_", stem).upper()
    return "NETCACHE_" + token + "_"


def check_file(path, rel, findings):
    with open(path, encoding="utf-8", errors="replace") as f:
        raw_lines = f.read().splitlines()

    in_src = rel.startswith("src/")
    in_tools = rel.startswith("tools/")
    lines = [(i + 1, strip_comments_and_strings(l)) for i, l in enumerate(raw_lines)]

    if (in_src or in_tools) and rel not in (
        "src/common/rng.h",
        "src/common/rng.cc",
    ):
        for num, text in lines:
            if RNG_PATTERN.search(text):
                findings.append(
                    (rel, num, "determinism-rng",
                     "direct randomness; use the seeded Rng in common/rng.h"))

    if (in_src or in_tools) and rel not in (
        "src/common/time_units.h",
        # The profiler is the one sanctioned wall-clock consumer in src/:
        # it observes the simulation (scoped timers for the Perfetto
        # export) and by contract never feeds state back into it —
        # determinism_test runs with --profile-out on to enforce that.
        "src/common/profiler.h",
        "src/common/profiler.cc",
    ):
        for num, text in lines:
            if CLOCK_PATTERN.search(text):
                findings.append(
                    (rel, num, "determinism-clock",
                     "wall-clock read; simulated time comes from Simulator::Now()"))

    for num, text in lines:
        if ASSERT_PATTERN.search(text):
            findings.append(
                (rel, num, "no-naked-assert",
                 "bare assert(); use NC_CHECK from common/logging.h"))

    if in_src and not any(
        rel.startswith(p)
        for p in ("src/common/logging.", "src/common/json_writer.")
    ):
        for num, text in lines:
            if STDIO_PATTERN.search(text):
                findings.append(
                    (rel, num, "no-stdio-logging",
                     "stdio logging in library code; use NC_LOG"))

    if any(rel.startswith(p) for p in DIGEST_FAST_PATH_PREFIXES):
        for num, text in lines:
            if SEEDED_HASH_PATTERN.search(text):
                findings.append(
                    (rel, num, "digest-fast-path",
                     "per-probe seeded hash on the switch fast path; derive "
                     "the index from the packet's KeyDigest instead"))

    for num, text in lines:
        if SIMD_INTRINSIC_PATTERN.search(text):
            findings.append(
                (rel, num, "simd-intrinsics",
                 "raw x86 intrinsic; write the kernel as portable code"))

    if rel in HOT_PATH_ALLOC_FILES:
        for num, text in lines:
            if HOT_PATH_ALLOC_PATTERN.search(text):
                findings.append(
                    (rel, num, "hot-path-alloc",
                     "heap-allocating construct in a fast-path TU; keep "
                     "state in members or pooled scratch reserved once"))

    for num, text in lines:
        if USING_NAMESPACE_STD.search(text):
            findings.append(
                (rel, num, "no-using-namespace",
                 "`using namespace std;` pollutes every includer"))

    if in_src:
        check_metric_naming(rel, raw_lines, findings)

    if in_src and rel.endswith(".h"):
        check_include_guard(rel, raw_lines, findings)


def check_include_guard(rel, raw_lines, findings):
    guard = guard_for(rel)
    ifndef_re = re.compile(r"^\s*#\s*ifndef\s+(\S+)")
    define_re = re.compile(r"^\s*#\s*define\s+(\S+)")
    ifndef_line = None
    ifndef_name = None
    for num, line in enumerate(raw_lines, start=1):
        if re.match(r"^\s*#\s*pragma\s+once", line):
            findings.append(
                (rel, num, "include-guards",
                 "#pragma once; use a NETCACHE_..._H_ guard"))
            return
        m = ifndef_re.match(line)
        if m:
            ifndef_line = num
            ifndef_name = m.group(1)
            break
        if line.strip() and not line.lstrip().startswith("//"):
            break  # first non-comment line is not a guard
    if ifndef_line is None:
        findings.append((rel, 1, "include-guards", "missing include guard"))
        return
    if ifndef_name != guard:
        findings.append(
            (rel, ifndef_line, "include-guards",
             "guard %s does not match expected %s" % (ifndef_name, guard)))
        return
    # The #define must immediately follow.
    if ifndef_line >= len(raw_lines):
        findings.append((rel, ifndef_line, "include-guards", "guard has no #define"))
        return
    m = define_re.match(raw_lines[ifndef_line])
    if not m or m.group(1) != guard:
        findings.append(
            (rel, ifndef_line + 1, "include-guards",
             "#define after #ifndef must define %s" % guard))
    # Closing #endif should carry the guard name as a trailing comment.
    for num in range(len(raw_lines), 0, -1):
        line = raw_lines[num - 1].strip()
        if not line:
            continue
        if line.startswith("#endif"):
            if guard not in line:
                findings.append(
                    (rel, num, "include-guards",
                     "closing #endif should carry `// %s`" % guard))
        else:
            findings.append(
                (rel, num, "include-guards",
                 "file does not end with the guard's #endif"))
        break


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--root",
        default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        help="repository root (default: parent of this script's directory)")
    parser.add_argument("--only", metavar="RULE", action="append", default=None,
                        help="restrict output to RULE (repeatable)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule names and exit")
    args = parser.parse_args()

    if args.list_rules:
        for rule in sorted(RULES):
            print("%-20s %s" % (rule, RULES[rule]))
        return 0
    if args.only:
        unknown = [r for r in args.only if r not in RULES]
        if unknown:
            print("netcache_lint: unknown rule(s): %s (see --list-rules)" %
                  ", ".join(unknown), file=sys.stderr)
            return 2

    root = os.path.abspath(args.root)

    findings = []
    scanned = 0
    for top in ("src", "tools", "tests", "examples", "bench"):
        top_dir = os.path.join(root, top)
        if not os.path.isdir(top_dir):
            continue
        for dirpath, dirnames, filenames in os.walk(top_dir):
            # Lint/analyzer self-test fixtures plant violations on purpose;
            # they are scanned by their own ctests with --root pointed at the
            # fixture tree, never as part of the repo walk.
            dirnames[:] = [d for d in dirnames if not d.endswith("_fixtures")]
            for name in sorted(filenames):
                if not name.endswith(CXX_EXTENSIONS):
                    continue
                path = os.path.join(dirpath, name)
                check_file(path, relpath(path, root), findings)
                scanned += 1

    if args.only:
        findings = [f for f in findings if f[2] in set(args.only)]
    findings.sort()
    for rel, num, rule, msg in findings:
        print("%s:%d: [%s] %s" % (rel, num, rule, msg))
    print("netcache_lint: %d file(s) scanned, %d finding(s)"
          % (scanned, len(findings)), file=sys.stderr)
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
