#!/usr/bin/env python3
"""Repository benchmark: kv-read, kv-churn and cache-stall over Epoch,
Hyaline and Hyaline-S.

    python3 perfbench/run.py --workload kv-read --seed 1 --seconds 21 --trace 0

Run from the root of a checkout. Builds the library and the benchmark binary from
source into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench),
runs the instrument self-test, then 15 rounds of one benchmark process
per scheme (scheme order rotated per round), each measuring --seconds / 45
seconds (split in an untraced and a traced half with --trace 1). Every
metric is the median over the rounds. Prints a human-readable summary, then as
its last line one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1. A traced run also leaves the last round's spans of each scheme
as CSV in spans/<workload>-<scheme>.csv under the build directory.
Exits 1 when a correctness check fails and 2 when the benchmark
cannot be built or run; no result line is printed in the latter case.
See perfbench/README.md for the workloads and the metric map.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

SCHEMES = ["epoch", "hyaline", "hyaline-s"]
WORKLOADS = ["kv-read", "kv-churn", "cache-stall"]
SETTLE_S = 10  # pause after a build that compiled something
ROUNDS = 15  # benchmark processes per scheme; metrics are medians over rounds

E2E = [  # (name, unit) per scheme
    ("throughput_mops", "Mops/s"),
    ("lat_p50_ns", "ns"),
    ("lat_p99_ns", "ns"),
    ("unreclaimed_mean", "count"),
]
LAYER_UNITS = {
    "smr.enter_ns": "ns",
    "smr.leave_ns": "ns",
    "smr.leave_p99_ns": "ns",
    "smr.retired_per_kop": "count/kop",
    "smr.scans_per_kop": "count/kop",
    "smr.finalizes_per_kop": "count/kop",
    "smr.era_advances_per_kop": "count/kop",
    "smr.freed_per_pass": "count",
    "smr.unreclaimed_max": "count",
    "smr.recovery_ms": "ms",
    "smr.lag_p99_ns": "ns",
    "ds.get_ns": "ns",
    "ds.insert_ns": "ns",
    "ds.remove_ns": "ns",
    "ds.remove_p99_ns": "ns",
    "ds.write_ok_ratio": "ratio",
    "core.slab_chunks": "count",
    "core.remote_flushes_per_kop": "count/kop",
    "svc.get_ns": "ns",
    "svc.write_ns": "ns",
    "svc.start_late_p50_ns": "ns",
    "svc.start_late_p99_ns": "ns",
    "svc.shard_imbalance": "ratio",
    "bench.loop_ns": "ns",
    "bench.reconcile_err": "ratio",
}

HERE = os.path.dirname(os.path.abspath(__file__))


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(base), "perfbench")


def build(out):
    """Configure and build the benchmark and self-test into `out`.

    Configures on every call: the library reads the git revision it reports
    in the provenance at configure time, so a build configured before a
    commit would print the old one. A reconfigure with nothing changed
    recompiles nothing."""
    cache = os.path.join(out, "CMakeCache.txt")
    gen = []
    if os.path.exists(cache):
        with open(cache, encoding="utf-8", errors="replace") as f:
            home = [l.split("=", 1)[1].strip() for l in f
                    if l.startswith("CMAKE_HOME_DIRECTORY:")]
        if home != [HERE]:
            shutil.rmtree(out)  # configured for another source tree
    if not os.path.exists(cache) and shutil.which("ninja"):
        gen = ["-G", "Ninja"]
    r = subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + gen,
                       stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        fail("cmake configure failed")
    binary = os.path.join(out, "perfbench")
    before = os.path.getmtime(binary) if os.path.exists(binary) else None
    r = subprocess.run(["cmake", "--build", out, "-j", "4", "--target",
                        "perfbench", "perfbench_selftest"],
                       stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        fail("build failed")
    if os.path.getmtime(binary) != before:
        # A compile just kept every core busy; let the host settle before
        # timing so the first run after a build is not the odd one out.
        time.sleep(SETTLE_S)


def run_scheme(out, args, scheme, seconds):
    cmd = [os.path.join(out, "perfbench"), "--workload", args.workload,
           "--scheme", scheme, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--trace", str(args.trace)]
    if args.trace:
        # Each round overwrites the file, so the last round's spans stay.
        spans = os.path.join(out, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans-out",
                os.path.join(spans, f"{args.workload}-{scheme}.csv")]
    try:
        r = subprocess.run(cmd, capture_output=True, text=True, timeout=150)
    except subprocess.TimeoutExpired:
        fail(f"{scheme}: benchmark process timed out")
    sys.stderr.write(r.stderr)
    lines = r.stdout.strip().splitlines()
    if r.returncode not in (0, 1) or not lines:
        fail(f"{scheme}: benchmark process exited {r.returncode}")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seconds <= 0 or args.seed < 0:
        fail("--seconds must be positive and --seed non-negative")

    out = build_dir()
    build(out)
    selftest = subprocess.run([os.path.join(out, "perfbench_selftest")],
                              capture_output=True, text=True, timeout=60)
    sys.stderr.write(selftest.stderr)

    # --seconds is the measured time of the whole run: split over rounds
    # and schemes, and on a traced run over its untraced and traced phases.
    # Interleaving the schemes in rounds spreads host drift over all of
    # them; each round is a new process, so memory layout varies too.
    per_phase = (args.seconds / ROUNDS / len(SCHEMES) /
                 (2 if args.trace else 1))
    runs = {s: [] for s in SCHEMES}
    for rnd in range(ROUNDS):
        for s in SCHEMES[rnd % 3:] + SCHEMES[:rnd % 3]:
            runs[s].append(run_scheme(out, args, s, per_phase))

    def med(s, part, key):
        return statistics.median(r[part][key] for r in runs[s])

    everything = [r for rs in runs.values() for r in rs]
    correct = selftest.returncode == 0 and all(r["correct"]
                                               for r in everything)
    attempted = sum(r["attempted"] for r in everything)
    failed = sum(r["failed"] for r in everything)
    overdue = sum(r["overdue"] for r in everything)
    setup = {s: statistics.median(x for r in runs[s] for x in r["setup_s"])
             for s in SCHEMES}

    prov = everything[0]["provenance"]
    print(f"# perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print(f"# git {prov['git_sha']} | cpu {prov['cpu_model']} | "
          f"nproc {prov['nproc']} | {prov['compiler']}")
    print(f"# self-test {'ok' if selftest.returncode == 0 else 'FAILED'}; "
          f"ops_failed_ratio {failed / max(1, attempted):.3g} "
          f"({failed} of {attempted} due; {overdue} run after the stop)")
    for s in SCHEMES:
        print(f"# {s:10s} correct={all(r['correct'] for r in runs[s])} "
              f"lat_samples={sum(int(r['info']['lat_samples']) for r in runs[s])} "
              f"mem_samples={sum(int(r['info']['mem_samples']) for r in runs[s])} "
              f"(skipped, a worker descheduled: "
              f"{sum(int(r['info']['mem_skipped']) for r in runs[s])}) "
              f"clock_read_ns={med(s, 'info', 'clock_read_ns'):.1f} "
              f"setup_s(median)={setup[s]:.4g}")
        if "lat_from_intended_p50_ns" in runs[s][0]["info"]:
            print(f"# {s:10s} latency from intended start: p50 "
                  f"{med(s, 'info', 'lat_from_intended_p50_ns'):.0f} ns, p99 "
                  f"{med(s, 'info', 'lat_from_intended_p99_ns'):.0f} ns")
        for r in runs[s]:
            for v in r["violations"]:
                print(f"#   VIOLATION: {v}")

    metrics = {}
    if args.trace == 0:
        for s in SCHEMES:
            for name, unit in E2E:
                metrics[f"{name}.{s}"] = {"value": med(s, "e2e", name),
                                          "unit": unit}
        metrics["setup_s"] = {"value": sum(setup.values()), "unit": "s"}
        metrics["rss_peak_mib"] = {
            "value": max(med(s, "info", "rss_peak_mib") for s in SCHEMES),
            "unit": "MiB"}
        metrics["ops_ok_ratio"] = {
            "value": (attempted - failed - overdue) / max(1, attempted),
            "unit": "ratio"}
    else:
        for s in SCHEMES:
            print(f"# {s:10s} traced_ops="
                  f"{sum(int(r['info']['traced_ops']) for r in runs[s])} "
                  f"spans_dropped="
                  f"{sum(int(r['info']['spans_dropped']) for r in runs[s])} "
                  f"span_ns_per_op={med(s, 'info', 'span_ns_per_op'):.1f} "
                  f"untraced_ns_per_op="
                  f"{med(s, 'info', 'untraced_ns_per_op'):.1f}")
            for name, unit in LAYER_UNITS.items():
                metrics[f"{name}.{s}"] = {"value": med(s, "layer", name),
                                          "unit": unit}
        untraced = sum(1 / med(s, "info", "untraced_thread_ns_per_op")
                       for s in SCHEMES)
        traced = sum(1 / med(s, "info", "traced_thread_ns_per_op")
                     for s in SCHEMES)
        metrics["bench.trace_overhead"] = {"value": traced / untraced - 1,
                                           "unit": "ratio"}

    for name, m in metrics.items():
        print(f"{name:36s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
