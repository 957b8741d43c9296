#!/usr/bin/env python3
"""The simulator's benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload nexmark-w10 --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --compare OLD.json NEW.json
    python3 perfbench/run.py --self-test

The first call in a checkout builds the simulator and the benchmark with
sbt into `.bench_build/` and `target/` directories; later calls reuse the
build while no source file changed. Every metric is a median over the
passes of one call. The last stdout line is the result; a copy with
per-pass samples and per-cell fingerprints is written to
`.bench_build/results/`. See perfbench/README.md for the workloads and
metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ["nexmark-w10", "q3-w50-latefail", "reach-w5", "mst-w10"]
END_TO_END = {
    "setup_s": "s", "run_s": "s", "events_per_s": "1/s", "cpu_s": "s",
    "alloc_mb": "MB", "retained_heap_mb": "MB",
}
# One JVM, run sequentially, with a fixed heap so GC work does not depend
# on how much memory the machine happens to have free. The heap is touched
# at start-up and backed by transparent huge pages where the kernel allows
# them: the simulator's hash maps and event heap are memory-bound, and with
# 4 KB pages the same seed spread about twice as much from one JVM to the
# next.
JVM_FLAGS = ["-Xms2g", "-Xmx2g", "-XX:+UseParallelGC", "-XX:ParallelGCThreads=2",
             "-XX:+UseTransparentHugePages", "-XX:+AlwaysPreTouch"]
# Per-layer metrics of the traced run (see README.md for what each moves).
PER_LAYER = dict(
    [(k, "s") for k in (
        "nexmark.gen_s", "dataflow.build_s", "dataflow.self_s",
        "queries.on_record_s", "queries.snapshot_s", "queries.restore_s",
        "checkpoint.piggyback_s", "checkpoint.before_apply_s", "checkpoint.marker_s",
        "checkpoint.timer_s", "checkpoint.other_s", "checkpoint.plan_s",
        "metrics.freeze_s", "core.mst_s", "core.mst_s.q1", "core.mst_s.q3",
        "core.mst_s.q8", "core.mst_s.q12", "jvm.gc_s", "tracing.run_s",
        "tracing.overhead_s")]
    + [(k, "count") for k in (
        "nexmark.events", "dataflow.data_messages", "dataflow.max_inbox",
        "dataflow.dedup_dropped", "queries.on_record_calls", "queries.snapshot_calls",
        "checkpoint.plan_nodes", "checkpoint.checkpoints", "checkpoint.forced",
        "checkpoint.rolled_back", "checkpoint.replayed_messages",
        "checkpoint.log_messages", "metrics.latency_samples", "jvm.gc_count")]
    + [(k, "MB") for k in ("queries.snapshot_alloc_mb", "queries.state_mb", "checkpoint.log_mb")]
    + [(k, "1/s") for k in ("core.mst_rate.q1", "core.mst_rate.q3", "core.mst_rate.q8",
                            "core.mst_rate.q12")])
DEADLINE_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def source_files():
    """Every file the build reads, for the build stamp."""
    roots = [os.path.join(ROOT, "src", "main"), os.path.join(BENCH, "src"),
             os.path.join(ROOT, "project"), os.path.join(BENCH, "project")]
    files = [os.path.join(ROOT, "build.sbt"), os.path.join(BENCH, "build.sbt")]
    for r in roots:
        for d, dirs, names in os.walk(r):
            dirs[:] = [x for x in dirs if x != "target"]
            files += [os.path.join(d, n) for n in names]
    return sorted(files)


def build():
    """Compile with sbt unless an identical build exists; returns the classpath."""
    if not os.path.isdir(os.path.join(ROOT, "src", "main", "scala")):
        sys.exit("perfbench: no simulator sources (src/main/scala) next to the benchmark")
    h = hashlib.sha256()
    for f in source_files():
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(fh.read())
    stamp = h.hexdigest()
    cp_file = os.path.join(BUILD, "classpath-" + stamp[:16] + ".txt")
    if not os.path.exists(cp_file):
        log("perfbench: building with sbt ...")
        os.makedirs(BUILD, exist_ok=True)
        env = dict(os.environ)
        env.setdefault("COURSIER_MODE", "offline")
        cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true",
               "-Dsbt.global.base=" + os.path.join(BUILD, "sbt"), "writeClasspath"]
        try:
            r = subprocess.run(cmd, cwd=BENCH, env=env, stdout=sys.stderr, timeout=850)
        except (OSError, subprocess.TimeoutExpired) as e:
            sys.exit("perfbench: build failed: %s" % e)
        if r.returncode != 0:
            sys.exit("perfbench: build failed (sbt exit %d)" % r.returncode)
        for old in os.listdir(BUILD):
            if old.startswith("classpath-"):
                os.remove(os.path.join(BUILD, old))
        shutil.copy(os.path.join(BENCH, "target", "classpath.txt"), cp_file)
    with open(cp_file) as fh:
        return fh.read().strip()


def java():
    home = os.environ.get("JAVA_HOME")
    return os.path.join(home, "bin", "java") if home else "java"


def jvm(cp, args, started):
    """Run one benchmark JVM; returns its parsed last stdout line."""
    cmd = [java()] + JVM_FLAGS + ["-cp", cp, "repro.perfbench.Main"] + args
    left = DEADLINE_S - (time.time() - started)
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                           timeout=max(1.0, left))
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: benchmark JVM did not finish in time")
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        sys.exit("perfbench: benchmark JVM failed (exit %d)" % r.returncode)
    return json.loads(lines[-1])


def median(passes, key):
    """Median over the passes that measured `key` (retained heap: the first)."""
    return statistics.median(p[key] for p in passes if key in p)


def run(args):
    cp = build()
    started = time.time()
    results_dir = os.path.join(BUILD, "results")
    os.makedirs(results_dir, exist_ok=True)
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    spans = ["--spans", os.path.join(results_dir, tag + "-spans.jsonl")] if args.trace else []
    out = jvm(cp, ["--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)] + spans, started)
    passes, traced, cells = out["passes"], out["traced_passes"], out["cells"]

    for p in passes:
        p["events_per_s"] = p["events"] / p["run_s"]
    if args.trace:
        # Layer times come from one traced pass, the median one, so that they
        # still add up to its tracing.run_s.
        mid = sorted(traced, key=lambda p: p["tracing.run_s"])[(len(traced) - 1) // 2] \
            if traced else {}
        metrics = {k: mid.get(k, 0.0) for k in PER_LAYER}
        for k in ("jvm.gc_s", "jvm.gc_count"):
            metrics[k] = median(passes, k)
        for k in [k for k in metrics if k.startswith("core.")]:
            metrics[k] = median(passes, k) if k in passes[0] else 0.0
        metrics["tracing.overhead_s"] = \
            metrics["tracing.run_s"] - median(passes, "run_s") if traced else 0.0
        units = PER_LAYER
    else:
        metrics = {k: median(passes, k) for k in END_TO_END}
        units = END_TO_END
    failed = [c for c in cells if c["failure"]]
    for c in failed:
        log("perfbench: cell %s FAILED: %s" % (c["cell"], c["failure"]))
    result = {
        "correct": not failed,
        "attempted": len(cells),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    with open(os.path.join(results_dir, tag + ".json"), "w") as fh:
        json.dump(dict(result, workload=args.workload, seed=args.seed, passes=passes,
                       traced_passes=traced, cells=cells), fh, indent=1)
    log("perfbench: %d passes; results in %s" % (len(passes), os.path.relpath(
        os.path.join(results_dir, tag + ".json"), ROOT)))
    print(json.dumps(result))


def compare(a, b):
    """List every cell whose fingerprint or sink digest differs."""
    def cells(path):
        with open(path) as fh:
            return {c["cell"]: c for c in json.load(fh)["cells"]}
    ca, cb = cells(a), cells(b)
    diff = 0
    for name in sorted(set(ca) | set(cb)):
        x, y = ca.get(name), cb.get(name)
        if x is None or y is None:
            print("%s: only in %s" % (name, a if y is None else b))
        elif (x["fingerprint"], x["digest"]) != (y["fingerprint"], y["digest"]):
            print("%s: %s %s -> %s %s" % (name, x["fingerprint"], x["digest"],
                                          y["fingerprint"], y["digest"]))
        else:
            continue
        diff += 1
    print("%d of %d cells differ" % (diff, len(set(ca) | set(cb))))
    return 1 if diff else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=55)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.compare:
        sys.exit(compare(*args.compare))
    if args.self_test:
        cp = build()
        sys.exit(subprocess.run([java()] + JVM_FLAGS +
                                ["-cp", cp, "repro.perfbench.SelfTest"]).returncode)
    if not args.workload:
        ap.error("--workload is required")
    run(args)


if __name__ == "__main__":
    main()
