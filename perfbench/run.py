#!/usr/bin/env python3
"""End-to-end benchmark of the BAT stack: one command per workload.

    python3 perfbench/run.py --workload update_heavy --seed 1 --trace 0
    python3 perfbench/run.py --workload skewed_hot --seed 1 --seconds 10 --trace 1
    python3 perfbench/run.py --selftest

Builds perfbench/ (a CMake package over ../src) into .bench_build/, then
runs perfbench_driver in fresh processes and prints one JSON object as the
last line of stdout: {"correct", "attempted", "failed", "metrics"}.

--trace 0 measures the two structures a user would pick, `bat`
(BAT-EagerDel) and `forest` (Sharded16-BAT-Lin), and reports the end-to-end
metrics.  Each structure runs in REPS[workload] fresh processes
(alternating which goes first); each process sets up once and measures
seconds / (2 * REPS[workload]).  --seconds defaults to BENCHMARK.json's
run_seconds, the length the bounds and reference figures were measured at.

--trace 1 reports the per-layer metrics: bat and forest again with a traced
window after the untraced one (spans go to .bench_build/out/), plus the
rungs BAT, ChromaticSet and Sharded16-BAT that the ratios divide by.

See perfbench/README.md for the workloads and the layer -> end-to-end map.
"""

import argparse
import glob
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(BUILD, "out")
DRIVER = os.path.join(BUILD, "perfbench_driver")
SELFTEST = os.path.join(BUILD, "perfbench_selftest")

WORKLOADS = ("update_heavy", "query_heavy", "skewed_hot")
BAT = "BAT-EagerDel"
FOREST = "Sharded16-BAT-Lin"
# Fresh processes per structure in an end-to-end run.  Set-up is cheap on
# the 10k-key workload, whose prefill footprint (mem_mib, the least over
# the processes) moves with EBR stalls, so it takes more of them.
REPS = {"update_heavy": 4, "query_heavy": 4, "skewed_hot": 10}
DEADLINE_S = 165    # a run must end within 180 s once built


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures once, then builds (a no-op when nothing changed).

    The compiler's temporary files go under the build tree too."""
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    return subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                          stdout=sys.stderr, env=env).returncode == 0


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def compiler_and_flags():
    cache = {}
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            for line in f:
                if "=" in line and not line.startswith(("#", "//")):
                    key, val = line.rstrip("\n").split("=", 1)
                    cache[key.split(":")[0]] = val
    except OSError:
        pass
    cxx = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([cxx, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = cxx
    flags = " ".join(x for x in (cache.get("CMAKE_CXX_FLAGS", ""),
                                 cache.get("CMAKE_BUILD_TYPE", "")) if x)
    return version, (flags or "-O2 -g (repo default)")


def source_id():
    """git SHA when the tree is a checkout, plus a hash of the sources."""
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        sha = r.stdout.strip() or None
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "**", "*"),
                                 recursive=True)):
        if os.path.isfile(path):
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return sha, h.hexdigest()[:16]


def record(args):
    compiler, flags = compiler_and_flags()
    sha, src = source_id()
    return {"hardware_threads": os.cpu_count(), "cpu_model": cpu_model(),
            "compiler": compiler, "flags": flags, "git_sha": sha,
            "source_sha256": src, "seed": args.seed,
            "workload": args.workload, "seconds": args.seconds,
            "trace": args.trace, "client_threads": 4}


class RunFailed(Exception):
    pass


def drive(deadline, structure, workload, seed, window_s, traced=False):
    """Runs one fresh driver process; returns its parsed JSON line."""
    cmd = [DRIVER, "--structure", structure, "--workload", workload,
           "--seed", str(seed), "--window-s", f"{window_s:.3f}"]
    if traced:
        os.makedirs(OUT, exist_ok=True)
        spans = os.path.join(
            OUT, f"spans-{workload}-{seed}-{structure}.json")
        cmd += ["--spans", spans]
    left = deadline - time.monotonic()
    if left <= 0:
        raise RunFailed("out of time before " + structure)
    try:
        r = subprocess.run(cmd, capture_output=True, text=True, timeout=left)
    except subprocess.TimeoutExpired:
        raise RunFailed(f"{structure} did not finish in time")
    if r.returncode != 0 or not r.stdout.strip():
        raise RunFailed(f"{structure} exited {r.returncode}: {r.stderr.strip()}")
    res = json.loads(r.stdout.strip().splitlines()[-1])
    if traced and not res["spans_written"]:
        raise RunFailed(f"{structure} could not write {res['spans_file']}")
    return res


def end_to_end(args, deadline):
    reps = REPS[args.workload]
    window = args.seconds / (2 * reps)
    runs = {BAT: [], FOREST: []}
    for rep in range(reps):
        order = (BAT, FOREST) if rep % 2 == 0 else (FOREST, BAT)
        for s in order:
            runs[s].append(drive(deadline, s, args.workload,
                                 args.seed * 16 + rep, window))
    med = statistics.median
    metrics = {"setup_s": (med(b["setup_s"] + f["setup_s"]
                               for b, f in zip(runs[BAT], runs[FOREST])), "s")}
    for prefix, s in (("bat", BAT), ("forest", FOREST)):
        rs = runs[s]
        w = [r["window"] for r in rs]
        metrics[prefix + ".ops_per_s"] = (
            med([x for ww in w for x in ww["sub_rates"]]), "1/s")
        for m, cls, q in (("update_p50_us", "update", "p50_us"),
                          ("update_p99_us", "update", "p99_us"),
                          ("find_p50_us", "find", "p50_us"),
                          ("query_p50_us", "query", "p50_us"),
                          ("query_p99_us", "query", "p99_us")):
            metrics[f"{prefix}.{m}"] = (med(ww[cls][q] for ww in w), "us")
        # A stall in the prefill only ever adds EBR garbage, so the least of
        # the processes is the closest to the structure's own footprint.
        metrics[prefix + ".mem_mib"] = (min(r["mem_mib"] for r in rs), "MiB")
    return [r for rs in runs.values() for r in rs], metrics


def per_layer(args, deadline):
    window = args.seconds / 7
    wl, seed = args.workload, args.seed
    bat = drive(deadline, BAT, wl, seed, window, traced=True)
    forest = drive(deadline, FOREST, wl, seed, window, traced=True)
    plain = drive(deadline, "BAT", wl, seed, window)
    chrom = drive(deadline, "ChromaticSet", wl, seed, window)
    sharded = drive(deadline, "Sharded16-BAT", wl, seed, window)

    def rate(r, key="window"):
        return r[key]["ops"] / r[key]["seconds"]

    def ratio(a, b):
        return a / b if b else 0.0

    c = bat["counters"]
    upd = max(bat["window"]["updates"], 1)
    layers = bat["layers"]
    fl = forest["layers"]
    m = {
        "llxscx.scx_per_update": (c["scx"] / upd, "count"),
        "llxscx.scx_fail_ratio": (ratio(c["scx_fail"], c["scx"]), "ratio"),
        "chromatic.rebalance_steps_per_update": (
            c["rebalance_steps"] / upd, "count"),
        "chromatic.update_p50_us": (chrom["window"]["update"]["p50_us"], "us"),
        "core.propagate_nodes_per_update": (c["propagate_nodes"] / upd, "count"),
        "core.refresh_cas_per_update": (c["refresh_cas"] / upd, "count"),
        "core.nil_refreshes_per_update": (c["nil_refreshes"] / upd, "count"),
        "core.refresh_cas_fail_ratio": (
            ratio(c["refresh_cas_fail"], c["refresh_cas"]), "ratio"),
        "core.delegations_per_update": (c["delegations"] / upd, "count"),
        "core.delegation_timeouts_per_update": (
            c["delegation_timeouts"] / upd, "count"),
        "core.augmentation_cost": (ratio(
            bat["window"]["update"]["p50_us"],
            chrom["window"]["update"]["p50_us"]), "ratio"),
        "core.delegation_gain": (ratio(rate(bat), rate(plain)), "ratio"),
        "shard.snapshot_acquire_p50_us": (
            fl["shard.snapshot_acquire"]["p50_us"], "us"),
        "shard.snapshot_query_p50_us": (
            fl["shard.snapshot_query"]["p50_us"], "us"),
        "shard.lin_query_cost": (ratio(
            forest["window"]["query"]["p50_us"],
            sharded["window"]["query"]["p50_us"]), "ratio"),
        "shard.lin_update_cost": (ratio(
            forest["window"]["update"]["p50_us"],
            sharded["window"]["update"]["p50_us"]), "ratio"),
        "shard.forest_gain": (ratio(rate(sharded), rate(plain)), "ratio"),
        "reclamation.limbo_objects": (bat["limbo_objects"], "count"),
        "reclamation.pressure_events": (c["ebr_pressure_events"], "count"),
        "reclamation.window_mem_mib": (bat["window_mem_mib"], "MiB"),
        "reclamation.guard_ns": (
            layers["reclamation.guard_x8"]["p50_us"] * 1e3 / 8, "ns"),
        "trace.overhead": (ratio(rate(bat), rate(bat, "traced")), "ratio"),
    }
    for op in ("find", "rank", "select", "range_count", "range_aggregate"):
        m[f"core.{op}_p50_us"] = (layers.get(f"core.{op}", {}).get("p50_us", 0.0),
                                  "us")
    log("spans: " + ", ".join(r["spans_file"] for r in (bat, forest)))
    return [bat, forest, plain, chrom, sharded], m


def print_table(metrics, runs):
    width = max(len(k) for k in metrics)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<{width}}  {value:>14.4f} {unit}")
    print(f"  attempted {sum(r['checks'] for r in runs)}, "
          f"failed {sum(r['failures'] for r in runs)}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        run_seconds = json.load(f)["run_seconds"]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=run_seconds)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="prove the oracle catches two planted faults")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")
    if not 0 < args.seconds <= 60 or args.seed < 0:
        ap.error("--seconds must be in (0, 60] and --seed non-negative")

    if not build():
        log("perfbench: build failed")
        return 2
    if args.selftest:
        return subprocess.run([SELFTEST]).returncode
    deadline = time.monotonic() + DEADLINE_S

    print(json.dumps({"record": record(args)}))
    try:
        runs, metrics = (per_layer if args.trace else end_to_end)(args, deadline)
    except RunFailed as e:
        log(f"perfbench: {e}")
        return 1
    print_table(metrics, runs)
    failed = sum(r["failures"] for r in runs)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["checks"] for r in runs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
