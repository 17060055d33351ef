#!/usr/bin/env python3
"""Host wall-clock benchmark of the risotto DBT.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload suite|cold|serve --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

The script builds perfbench/ (and the library sources under src/) with
CMake into $CARGO_TARGET_DIR (default .bench_build), runs one workload
for S seconds and prints every metric by name with its unit. Its last
line is one JSON object {correct, attempted, failed, metrics}: the
end-to-end metrics with --trace 0, which this script computes from the
binary's raw samples, and the binary's per-layer metrics with --trace 1.
End-to-end times are scaled to a reference host speed, measured by a
fixed probe loop run before every op (perfbench/speedprobe.hh); the
unscaled wall-clock figures are printed as info lines.

Every op is checked against the reference interpreter inside the binary.
This script adds the cross-run determinism check: the deterministic
counters of a (binary, workload, seed) must repeat exactly in every
later run; a mismatch is reported as a nondeterminism bug and the run
fails. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("suite", "cold", "serve")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
CHILDREN = 3
# The speed probe's time on the reference host, a 4-vCPU KVM guest on an
# Intel Xeon at 2.1 GHz: the end-to-end times read as if every op had run
# at the speed the host had when the probe took this long.
REFERENCE_PROBE_MS = 3.0
# Speed-probe samples on each side of an op that set its scale.
PROBE_NEIGHBOURS = 2
# Op time grows as probe time to this power when the host's speed
# changes: fit on that host's slow and fast states over all three
# workloads (1.23-1.42; see perfbench/README.md).
PROBE_EXPONENT = 1.3


def fail(message, code=1):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Configure and build; returns the binary's path. Configuring every
    time is cheap once the cache exists and refreshes the git_sha key;
    the tree is named after the checkout, so two checkouts sharing
    $CARGO_TARGET_DIR never build each other's sources."""
    if not os.path.isfile(os.path.join(ROOT, "src", "dbt", "dbt.hh")):
        fail("no risotto sources under %s/src; run from a source checkout"
             % ROOT, 2)
    tree = os.path.join(build_dir(), "perfbench-" + hashlib.sha256(
        ROOT.encode()).hexdigest()[:12])
    steps = [["cmake", "-S", HERE, "-B", tree, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", tree, "-j4"]]
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail("build step %s failed: %s" % (step[:2], e), 2)
        if done.returncode != 0:
            fail("build step %s failed" % " ".join(step[:2]), 2)
    binary = os.path.join(tree, "perfbench")
    if not os.path.isfile(binary):
        fail("build produced no perfbench binary", 2)
    return binary


def out_dir():
    path = os.path.join(build_dir(), "perfbench-out")
    os.makedirs(path, exist_ok=True)
    return path


def run_binary(binary, workload, seed, seconds, trace, extra=()):
    """Run one workload; returns (exit code, stdout lines, report). The
    report is the binary's raw samples, or None when it wrote none."""
    report_path = os.path.join(out_dir(), "%s_s%d_t%d.report.json"
                               % (workload, seed, trace))
    if os.path.exists(report_path):
        os.remove(report_path)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out-dir", out_dir()] + list(extra)
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    report = None
    if os.path.isfile(report_path):
        with open(report_path) as f:
            report = json.load(f)
    return done.returncode, done.stdout.splitlines(), report


def sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def check_determinism(binary, workload, seed, counters, tiny):
    """Compare a run's deterministic counters with the first run of the
    same (binary, workload, seed); record them when there is none."""
    key = "%s/%s/%d%s" % (sha256(binary)[:16], workload, seed,
                          "/tiny" if tiny else "")
    store_path = os.path.join(out_dir(), "determinism.json")
    store = {}
    if os.path.isfile(store_path):
        with open(store_path) as f:
            store = json.load(f)
    first = store.get(key)
    if first is None:
        store[key] = counters
        tmp = store_path + ".tmp"
        with open(tmp, "w") as f:
            json.dump(store, f, sort_keys=True)
        os.replace(tmp, store_path)
        return []
    return ["nondeterminism bug: %s %s = %s, first run had %s"
            % (key, name, counters.get(name), first.get(name))
            for name in sorted(set(first) | set(counters))
            if first.get(name) != counters.get(name)]


def declared_metrics():
    """(end_to_end names, per_layer names) from BENCHMARK.json, if any."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return ([m["name"] for m in spec["end_to_end"]],
            [m["name"] for m in spec["per_layer"]])


def quantile(values, q):
    """Linear-interpolation quantile (q in [0, 1])."""
    if not values:
        return 0.0
    values = sorted(values)
    pos = q * (len(values) - 1)
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (pos - lo) * (values[hi] - values[lo])


def speed_scales(samples):
    """Per sample, in run order: (REFERENCE_PROBE_MS / p) **
    PROBE_EXPONENT, where p is the median speed-probe time of the samples
    within PROBE_NEIGHBOURS of it. The median damps the probe's own
    jitter; the neighbours ran within a second or so of the sample, so
    they saw the same host speed."""
    probes = [s["probe_ms"] for s in samples]
    k = PROBE_NEIGHBOURS
    return [(REFERENCE_PROBE_MS /
             quantile(probes[max(0, i - k):i + k + 1], 0.5)) ** PROBE_EXPONENT
            for i in range(len(probes))]


def end_to_end(reports):
    """The end-to-end metrics over the raw samples of every child run,
    each time scaled to the reference host speed (see speedprobe.hh).
    A failed op is missing from the latency samples. Also returns the
    unscaled wall-clock figures, which are printed as info lines."""
    op_ms, wall_ms, setups, insns = [], [], [], 0
    for r in reports:
        ops = r["ops"]
        scales = speed_scales(ops)
        passes = {}
        for s, scale in zip(ops, scales):
            passes[s["pass"]] = passes.get(s["pass"], 0.0) + \
                s["setup_ms"] * scale
            if s["ok"]:
                op_ms.append(s["ms"] * scale)
                wall_ms.append(s["ms"])
                insns += s["guest_insns"]
        if r["prepares"]:
            setups += [p["ms"] * scale for p, scale in
                       zip(r["prepares"], speed_scales(r["prepares"]))]
        else:
            setups += passes.values()
    metrics = {
        "setup_s": (quantile(setups, 0.5) / 1e3, "s"),
        "op_p50_ms": (quantile(op_ms, 0.5), "ms"),
        "op_p90_ms": (quantile(op_ms, 0.9), "ms"),
        "guest_mips": (insns / sum(op_ms) / 1e3 if op_ms else 0.0,
                       "Minsn/s"),
        "sim_mcycles_per_op": (reports[0]["sim_mcycles_per_op"], "Mcycles"),
        "peak_rss_mb": (quantile([r["peak_rss_mb"] for r in reports], 0.5),
                        "MiB"),
    }
    probes = [s["probe_ms"] for r in reports for s in r["ops"]]
    wall = {
        "wall_op_p50_ms": quantile(wall_ms, 0.5),
        "wall_op_p90_ms": quantile(wall_ms, 0.9),
        "probe_p50_ms": quantile(probes, 0.5),
    }
    return metrics, wall


def run(args):
    binary = build()
    declared = declared_metrics()
    # The untraced run is split over CHILDREN processes, one after the
    # other, and their samples pooled: on a shared host, a process's
    # speed varies with where its memory lands, and one process would
    # carry that luck into every number it reports.
    children = 1 if args.trace else CHILDREN
    reports, problems = [], []
    code = 0
    for child in range(children):
        code, lines, report = run_binary(binary, args.workload, args.seed,
                                         args.seconds / children, args.trace)
        if child == 0:
            for line in lines:
                print(line)
        if report is None:
            fail("%s wrote no report (exit %d)" % (args.workload, code))
        reports.append(report)
        if code != 0:
            break
        problems += check_determinism(binary, args.workload, args.seed,
                                      report["deterministic"], False)
    if args.trace:
        metrics = {name: (m["value"], m["unit"])
                   for name, m in reports[0]["layers"].items()}
    else:
        metrics, wall = end_to_end(reports)
        for name, value in wall.items():
            print("info %s.%s = %r" % (args.workload, name, value))
        for name, (value, unit) in metrics.items():
            print("metric %s = %r %s" % (name, value, unit))
    if declared is not None:
        wanted = declared[1] if args.trace else declared[0]
        missing = [n for n in wanted if n not in metrics]
        if missing:
            problems.append("metrics not emitted: " + ", ".join(missing))
    for problem in problems:
        print("perfbench: " + problem, file=sys.stderr)
    if problems:
        sys.exit(1)
    print(json.dumps({
        "correct": all(r["correct"] for r in reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    sys.exit(code)


def self_test():
    """Tiny-size runs: every declared metric is emitted with a finite value,
    a wrong expected result trips the output check, and the cross-run
    determinism check holds on a repeated seed."""
    binary = build()
    declared = declared_metrics()
    if declared is None:
        fail("self-test needs BENCHMARK.json at the checkout root")
    errors = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, _, report = run_binary(binary, workload, 3, 1, trace,
                                         ["--tiny"])
            if code != 0 or not report or not report["correct"]:
                errors.append("%s trace %d: exit %d" % (workload, trace, code))
                continue
            names = declared[trace]
            got = ({n: m["value"] for n, m in report["layers"].items()}
                   if trace else
                   {n: v for n, (v, _) in end_to_end([report])[0].items()})
            if sorted(got) != sorted(names):
                errors.append("%s trace %d: emitted %s, declared %s"
                              % (workload, trace, sorted(got), sorted(names)))
            for name, value in got.items():
                if not math.isfinite(value):
                    errors.append("%s: %s is not finite" % (workload, name))
            errors += check_determinism(binary, workload, 3,
                                        report["deterministic"], True)
        code, _, report = run_binary(binary, workload, 3, 1, 0,
                                     ["--tiny", "--corrupt-oracle"])
        if code == 0 or not report or report["correct"] or \
                report["failed"] != report["attempted"]:
            errors.append("%s: a wrong expected result did not fail every op"
                          % workload)
    for error in errors:
        print("self-test: " + error, file=sys.stderr)
    if errors:
        sys.exit(1)
    print("self-test passed: %d workloads, every declared metric emitted, "
          "corrupted oracle detected, determinism repeated" % len(WORKLOADS))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        self_test()
    elif args.workload is None:
        parser.error("--workload is required")
    elif args.seed < 0 or not 1 <= args.seconds <= 3600:
        parser.error("--seed must be >= 0 and --seconds in 1..3600")
    else:
        run(args)


if __name__ == "__main__":
    main()
