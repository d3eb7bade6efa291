#!/usr/bin/env python3
"""saisim host-time benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest
    python3 perfbench/run.py ... --record-baseline FILE

Run from the root of a source tree. The first call builds the package in
perfbench/ (CMake) into .bench_build/perfbench; later calls reuse it.

--trace 0 times experiments with no instrumentation and prints the
end-to-end metrics. --trace 1 runs the untraced driver for a third of the
time (the reference) and the span-traced driver for the rest, and prints
the per-layer metrics. Either way the last line of stdout is one JSON
object {"correct", "attempted", "failed", "metrics"}; the lines before it
carry the stamp (commit, dirty flag, CPU count, governor) and the simulated
reference outputs. README.md explains the workloads and every metric.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
PINNED = BENCH_DIR / "pinned.json"

# Experiment host times are rescaled by the calibration pass timed next to
# them (src/calibration.hpp) to a host on which one pass takes this long,
# about its quiet-time value on the 4-core recording host.
REFERENCE_PASS_S = 0.1

# The paper's reported SAIs bandwidth gain at its §V.A headline point.
PAPER_SAIS_GAIN_PCT = 23.57

LAYERS = ["mem", "sim", "pfs.client", "pfs.server", "net", "apic", "cpu",
          "trace", "core", "workload"]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail(msg, code=2):
    log(f"perfbench: {msg}")
    sys.exit(code)


# ---------------------------------------------------------------- build

def build(targets):
    if not (ROOT / "src" / "core" / "experiment.hpp").exists():
        fail(f"no saisim sources under {ROOT / 'src'}")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        BUILD_DIR.mkdir(parents=True, exist_ok=True)
        r = subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                            "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                           stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            fail("cmake configure failed")
    r = subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j", jobs,
                        "--target", *targets],
                       stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        fail("build failed")


def run_driver(binary, args, timeout=170):
    cmd = [str(BUILD_DIR / binary), *args]
    r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                       text=True, timeout=timeout)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        fail(f"{binary} exited with {r.returncode}", 1)
    return json.loads(lines[-1])


# ---------------------------------------------------------------- stamp

def git(*args):
    try:
        r = subprocess.run(["git", "-C", str(ROOT), *args],
                           capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return r.stdout.strip() if r.returncode == 0 else None


def source_digest():
    """sha256 over the simulator's and the benchmark's sources."""
    h = hashlib.sha256()
    for base in (ROOT / "src", BENCH_DIR):
        for p in sorted(base.rglob("*")):
            if p.is_file():
                h.update(str(p.relative_to(ROOT)).encode() + b"\0")
                h.update(p.read_bytes())
    return h.hexdigest()[:16]


def stamp():
    commit = git("rev-parse", "HEAD") if (ROOT / ".git").exists() else None
    dirty = None
    if commit is not None:
        dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    try:
        governor = Path("/sys/devices/system/cpu/cpu0/cpufreq/"
                        "scaling_governor").read_text().strip()
    except OSError:
        governor = "unavailable"
    return {"commit": commit, "dirty": dirty, "source_sha256": source_digest(),
            "cpus": os.cpu_count(), "governor": governor}


# ---------------------------------------------------------------- pins

def pins_for(workload, seed):
    """--pin arguments when `seed` is the pinned default seed."""
    pinned = json.loads(PINNED.read_text())
    if seed != pinned["seed"]:
        return []
    entry = pinned["workloads"].get(workload, {})
    if "same_as" in entry:
        entry = pinned["workloads"][entry["same_as"]]
    return [a for policy, fp in sorted(entry.items())
            for a in ("--pin", f"{policy}={fp}")]


# ---------------------------------------------------------------- metrics

def median(xs):
    return statistics.median(xs) if xs else 0.0


def ratio(num, den):
    return num / den if den else 0.0


def metric(value, unit):
    return {"value": value, "unit": unit}


def calibrated(times, passes):
    """Median of host times, each rescaled to the reference host speed by
    the calibration pass timed next to it."""
    return median([t / c * REFERENCE_PASS_S for t, c in zip(times, passes)])


def calibrated_wall_s(d):
    return calibrated(d["wall_s"], d["calibration_s"])


def end_to_end(d):
    wall = calibrated_wall_s(d)
    return {
        "wall_s": metric(wall, "s"),
        "sim_s_per_wall_s": metric(ratio(d["sim_s"], wall), "s/s"),
        "setup_s": metric(calibrated(d["setup_s"], d["setup_calibration_s"]), "s"),
        "peak_rss_mb": metric(d["peak_rss_kb"] / 1024.0, "MB"),
    }


def per_layer(ref, traced):
    """Per-experiment layer metrics from the traced run, with the untraced
    run as the timing reference."""
    n = max(1, traced["experiments"])
    c = traced["counters"]
    ref_wall = calibrated_wall_s(ref)
    traced_wall = calibrated_wall_s(traced)
    layers = traced.get("layers", {})
    out = {}
    self_ms_total = 0.0
    for layer in LAYERS:
        l = layers.get(layer, {"calls": 0, "self_ns": 0})
        self_ms = l["self_ns"] / n / 1e6
        self_ms_total += self_ms
        out[f"{layer}.self_ms"] = metric(self_ms, "ms")
        out[f"{layer}.calls"] = metric(l["calls"] / n, "count")
    events = c.get("sim.events_executed", 0)
    sync_wait_ns = sum(v for k, v in c.items()
                       if k.startswith("sim.shard") and k.endswith(".sync_wait_ns"))
    out.update({
        "mem.l2_miss_rate": metric(ratio(sum(r["l2_miss_rate"] for r in traced["runs"]),
                                         len(traced["runs"])), "ratio"),
        "mem.c2c_transfers": metric(c.get("mem.c2c_transfers", 0), "count"),
        "mem.dram_line_reads": metric(c.get("mem.dram_line_reads", 0), "count"),
        "sim.events": metric(events, "count"),
        "sim.ns_per_event": metric(ratio(ref_wall * 1e9, events), "ns"),
        "sim.rounds": metric(c.get("sim.rounds", 0), "count"),
        "sim.cross_shard_posts": metric(c.get("sim.cross_shard_posts", 0), "count"),
        "sim.sync_wait_frac": metric(ratio(sync_wait_ns / 1e9, median(traced["wall_s"])),
                                     "frac"),
        "pfs.client.strips": metric(c.get("pfs.strips_received", 0), "count"),
        "pfs.client.retransmits": metric(c.get("pfs.retransmits", 0), "count"),
        "pfs.client.duplicate_strips": metric(c.get("pfs.duplicate_strips", 0), "count"),
        "pfs.client.redirects": metric(c.get("pfs.sched_redirects", 0), "count"),
        "pfs.client.hedge_won_ratio": metric(
            ratio(c.get("pfs.hedges_won", 0), c.get("pfs.hedges_issued", 0)), "ratio"),
        "pfs.server.requests": metric(c.get("server.requests", 0)
                                      + c.get("server.write_requests", 0), "count"),
        "pfs.server.sched_tasks": metric(c.get("server.sched_tasks", 0), "count"),
        "pfs.server.block_hit_ratio": metric(
            ratio(c.get("server.cache.block_hits", 0),
                  c.get("server.cache.block_hits", 0)
                  + c.get("server.cache.block_misses", 0)), "ratio"),
        "pfs.server.readahead_useful_ratio": metric(
            ratio(c.get("server.cache.readahead_useful", 0),
                  c.get("server.cache.readahead_issued", 0)), "ratio"),
        "pfs.server.flushed_blocks": metric(c.get("server.cache.flushed_blocks", 0), "count"),
        "net.interrupts": metric(c.get("nic.interrupts", 0), "count"),
        "net.rx_dropped": metric(c.get("nic.rx_dropped", 0), "count"),
        "net.fault_dropped": metric(c.get("fault.packets_dropped", 0), "count"),
        "apic.raised": metric(c.get("apic.raised", 0), "count"),
        "apic.hinted_share": metric(
            ratio(c.get("apic.hinted_routes", 0), c.get("apic.raised", 0)), "ratio"),
        "cpu.items_completed": metric(c.get("cpu.items_completed", 0), "count"),
        "cpu.preemptions": metric(c.get("cpu.preemptions", 0), "count"),
        "trace.samples": metric(c.get("telemetry.samples", 0), "count"),
        "trace_overhead_frac": metric(ratio(traced_wall, ref_wall) - 1.0, "frac"),
        "residual_ms": metric(sum(traced["wall_s"]) / n * 1e3 - self_ms_total, "ms"),
    })
    return out


def reference_outputs(d):
    """Simulated outputs: checked, printed for reference, never metrics."""
    c = d["counters"]
    ref = {"wall_s_uncalibrated": median(d["wall_s"]),
           "calibration_pass_s": median(d["calibration_s"]),
           "runs": [{k: r[k] for k in ("policy", "fingerprint", "bandwidth_mbps",
                                       "p99_read_latency_us", "hedges_won",
                                       "hedges_issued")} for r in d["runs"]],
           "block_hit_ratio": ratio(c.get("server.cache.block_hits", 0),
                                    c.get("server.cache.block_hits", 0)
                                    + c.get("server.cache.block_misses", 0)),
           "exp_failed_frac": ratio(d["failed"], d["experiments"])}
    bw = {r["policy"]: r["bandwidth_mbps"] for r in d["runs"]}
    if "irqbalance" in bw and "source-aware" in bw:
        gain = 100.0 * (bw["source-aware"] - bw["irqbalance"]) / bw["irqbalance"]
        ref["sais_gain_pct"] = gain
        ref["paper_sais_gain_pct"] = PAPER_SAIS_GAIN_PCT
        ref["sais_gain_error_pct_points"] = gain - PAPER_SAIS_GAIN_PCT
    return ref


def verdict(*runs):
    failures = [f for d in runs for f in d["setup_failures"] + d["failures"]]
    for f in failures:
        log(f"check failed: {f}")
    failed = sum(d["failed"] for d in runs)
    correct = failed == 0 and not any(d["setup_failures"] for d in runs)
    return correct, sum(d["experiments"] for d in runs), failed


# ---------------------------------------------------------------- modes

def selftest():
    build(["perfbench_selftest", "perfbench_driver", "perfbench_traced"])
    r = subprocess.run([str(BUILD_DIR / "perfbench_selftest")])
    ok = r.returncode == 0
    smoke = run_driver("perfbench_driver", ["--smoke", "--seed", "42"])
    for w in smoke["smoke"]:
        log(f"smoke {w['workload']}: {'ok' if w['ok'] else w['failures']}")
    ok = ok and smoke["ok"]
    # The traced build must reproduce the pinned outputs exactly, and the
    # metrics run.py reports must be the ones BENCHMARK.json declares.
    pinned = json.loads(PINNED.read_text())
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in declared["workloads"]:
        name = w["name"]
        d = run_driver("perfbench_traced", ["--workload", name, "--seed",
                                            str(pinned["seed"]), "--seconds", "0",
                                            *pins_for(name, pinned["seed"])])
        good = d["failed"] == 0 and not d["setup_failures"] and d["layers"]
        log(f"traced {name}: {'ok' if good else d['failures']}")
        ok = ok and bool(good)
    for kind, got in (("end_to_end", end_to_end(d)), ("per_layer", per_layer(d, d))):
        want = {m["name"]: m["unit"] for m in declared[kind]}
        have = {k: v["unit"] for k, v in got.items()}
        if want != have:
            log(f"{kind} metrics differ from BENCHMARK.json: {sorted(set(want.items()) ^ set(have.items()))}")
            ok = False
    print("perfbench selftest:", "ok" if ok else "FAILED")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description="saisim host-time benchmark")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="run the benchmark's own tests and exit")
    ap.add_argument("--record-baseline", metavar="FILE",
                    help="also write the stamped result to FILE; refused "
                         "unless the tree is a clean git checkout")
    args = ap.parse_args()
    if args.selftest:
        return selftest()
    if not args.workload:
        fail("--workload is required")

    st = stamp()
    if args.record_baseline and (st["commit"] is None or st["dirty"]):
        fail("refusing to record a baseline from a dirty or unversioned tree "
             f"(commit={st['commit']}, dirty={st['dirty']})", 3)

    common = ["--workload", args.workload, "--seed", str(args.seed),
              *pins_for(args.workload, args.seed)]
    if args.trace == 0:
        build(["perfbench_driver"])
        d = run_driver("perfbench_driver", [*common, "--seconds", str(args.seconds)])
        runs = [d]
        metrics = end_to_end(d)
    else:
        build(["perfbench_driver", "perfbench_traced"])
        spans = BUILD_DIR / "spans" / f"{args.workload}-seed{args.seed}.csv"
        spans.parent.mkdir(parents=True, exist_ok=True)
        ref = run_driver("perfbench_driver",
                         [*common, "--seconds", str(args.seconds / 3)])
        traced = run_driver("perfbench_traced",
                            [*common, "--seconds", str(args.seconds * 2 / 3),
                             "--spans-out", str(spans)])
        runs = [ref, traced]
        d = traced
        metrics = per_layer(ref, traced)
        log(f"spans of the traced run: {spans} ({traced['kept_spans']} kept, "
            f"{traced['dropped_spans']} beyond the cap)")
        for s in traced["top_symbols"][:8]:
            log(f"  {s['layer']:<10} {s['self_ns'] / 1e6 / max(1, traced['experiments']):9.2f} "
                f"ms/exp  {s['calls'] // max(1, traced['experiments']):>9} calls  "
                f"{s['name'][:80]}")

    correct, attempted, failed = verdict(*runs)
    record = {"stamp": st, "workload": args.workload, "seed": args.seed,
              "trace": args.trace, "reference": reference_outputs(d),
              "metrics": metrics}
    print(json.dumps({"stamp": st}))
    print(json.dumps({"reference": record["reference"]}))
    results = BUILD_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    if args.record_baseline:
        Path(args.record_baseline).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
