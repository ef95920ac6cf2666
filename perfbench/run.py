#!/usr/bin/env python3
"""Host-cost benchmark of the imoltp libraries: one experiment cell per
process, repeated for a fixed time, medians reported.

    python3 perfbench/run.py --workload tpcc-shore-mt --seed 42 \\
        --seconds 35 --trace 0

Run from the repository root. The first call configures and builds
perfbench/ (which compiles ../src) into $CARGO_TARGET_DIR, default
.bench_build. Each cell runs in a fresh perfbench_cell process, so its
peak RSS and set-up time are its own.

--trace 0  repeats untraced cells until --seconds have passed and
           reports the end-to-end metrics (medians over cells).
--trace 1  alternates untraced and traced cells, then (single-machine
           workloads) one capture cell whose reference stream is
           re-simulated; reports the per-layer metrics (medians over
           traced cells) and the tracing overhead. Spans are written to
           .bench_out/spans-<workload>.json.

Every cell of a run must repeat the same exact simulated signature
(instructions, commits, aborts, invariant checksums, cluster
fingerprint), pass its invariant audit, and agree on the simulated-time
metrics within SIM_RTOL; seeds listed in reference.json must also match
the stored reference. The last line of stdout is the result object.

    python3 perfbench/run.py --write-reference   # regenerate reference.json
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
REFERENCE = os.path.join(BENCH_DIR, "reference.json")
OUT_DIR = os.path.join(ROOT, ".bench_out")

WORKLOADS = ("tpcc-shore-mt", "tpcb-hyper", "tpcc-cluster3-hyper")
CAPTURE_WORKLOADS = ("tpcc-shore-mt", "tpcb-hyper")
# The default seed and the held-out seed (never tune on the latter).
REFERENCE_SEEDS = (42, 1009)

# Simulated-time metrics drift with host heap placement across
# processes (the simulator models host addresses); misses moved up to
# ~1% between same-seed processes when this was written.
SIM_RTOL = 0.03
MIN_CELLS = 3
MIN_TRACE_CELLS = 2
MAX_CELLS = 40
CELL_TIMEOUT_S = 150

EXACT_KEYS = ("instructions", "committed", "aborted", "attempted",
              "checksum", "fingerprint")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                             ".bench_build"))


def build():
    """Configures (once) and builds perfbench_cell; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("no library sources at %s/src" % ROOT)
    bdir = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", bdir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", bdir, "-j", jobs,
                    "--target", "perfbench_cell"],
                   check=True, stdout=sys.stderr)
    return os.path.join(bdir, "perfbench_cell")


def run_cell(binary, workload, seed, mode):
    """Runs one cell process; returns (its JSON object, wall seconds)."""
    start = time.monotonic()
    proc = subprocess.run(
        [binary, "--workload=" + workload, "--seed=%d" % seed,
         "--mode=" + mode, "--out-dir=" + OUT_DIR],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=CELL_TIMEOUT_S)
    wall = time.monotonic() - start
    if proc.returncode != 0:
        raise RuntimeError("%s cell failed (exit %d): %s" %
                           (mode, proc.returncode, proc.stderr.strip()))
    return json.loads(proc.stdout.strip().splitlines()[-1]), wall


def load_reference():
    if not os.path.isfile(REFERENCE):
        return {}
    with open(REFERENCE) as f:
        return json.load(f)


def check_cells(cells, reference):
    """Returns the list of correctness failures over a run's cells."""
    errors = []
    first = cells[0]
    for c in cells:
        ex = c["exact"]
        tag = "%s cell" % c["mode"]
        if not ex["invariants_ok"]:
            errors.append(tag + ": invariant audit failed")
        if ex["committed"] + ex["aborted"] != ex["attempted"]:
            errors.append(tag + ": committed + aborted != attempted")
        for k in EXACT_KEYS:
            if ex[k] != first["exact"][k]:
                errors.append("%s: %s %r != %r (not deterministic)" %
                              (tag, k, ex[k], first["exact"][k]))
        for k, v in c["sim"].items():
            ref = first["sim"][k]
            if abs(v - ref) > SIM_RTOL * abs(ref):
                errors.append("%s: %s %.6g vs %.6g beyond %.0f%%" %
                              (tag, k, v, ref, SIM_RTOL * 100))
        if c["mode"] == "capture" and not c["resim_identical"]:
            errors.append("capture: re-simulated counters differ from "
                          "the live run")
    ref = reference.get(first["workload"], {}).get(str(first["seed"]))
    if ref is not None:
        for k in EXACT_KEYS:
            if first["exact"][k] != ref["exact"][k]:
                errors.append("reference: %s %r != %r" %
                              (k, first["exact"][k], ref["exact"][k]))
        for k, v in ref["sim"].items():
            got = first["sim"].get(k)
            if got is None or abs(got - v) > SIM_RTOL * abs(v):
                errors.append("reference: %s %r vs %r" % (k, got, v))
    return errors


def repeat_cells(binary, workload, seed, modes, seconds, min_each):
    """Runs cells cycling through `modes` until starting another would
    overrun `seconds` (each mode gets at least `min_each` cells)."""
    start = time.monotonic()
    cells = {m: [] for m in modes}
    walls = []
    while True:
        for m in modes:
            cell, wall = run_cell(binary, workload, seed, m)
            cells[m].append(cell)
            walls.append(wall)
        done = min(len(v) for v in cells.values())
        next_round = statistics.median(walls) * len(modes)
        elapsed = time.monotonic() - start
        if done >= min_each and elapsed + next_round > seconds:
            break
        if done >= MAX_CELLS:
            break
    return cells


def median_of(cells, section, key):
    return statistics.median(c[section].get(key, 0.0) for c in cells)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=REFERENCE_SEEDS[0])
    ap.add_argument("--seconds", type=float, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true",
                    help="regenerate reference.json for REFERENCE_SEEDS")
    args = ap.parse_args()
    if args.workload is None and not args.write_reference:
        ap.error("--workload is required")

    spec = load_spec()
    binary = build()
    os.makedirs(OUT_DIR, exist_ok=True)

    if args.write_reference:
        ref = {}
        for w in WORKLOADS:
            for seed in REFERENCE_SEEDS:
                cell, _ = run_cell(binary, w, seed, "plain")
                ref.setdefault(w, {})[str(seed)] = {
                    "exact": {k: cell["exact"][k] for k in EXACT_KEYS},
                    "sim": cell["sim"]}
                log("reference %s seed %d done" % (w, seed))
        with open(REFERENCE, "w") as f:
            json.dump(ref, f, indent=1, sort_keys=True)
            f.write("\n")
        return 0

    if args.trace:
        cells = repeat_cells(binary, args.workload, args.seed,
                             ("plain", "traced"), args.seconds,
                             MIN_TRACE_CELLS)
        plain, traced = cells["plain"], cells["traced"]
        checked = plain + traced
        layers = {}
        for k in traced[0]["layers"]:
            layers[k] = median_of(traced, "layers", k)
        if args.workload in CAPTURE_WORKLOADS:
            capture, _ = run_cell(binary, args.workload, args.seed, "capture")
            checked.append(capture)
            layers.update(capture["layers"])
        for k, v in traced[0]["sim"].items():
            layers[k] = median_of(traced, "sim", k)
        layers["bench.trace_overhead_ratio"] = (
            median_of(traced, "host", "cell_s") /
            median_of(plain, "host", "cell_s"))
        wanted, values = spec["per_layer"], layers
        measured = traced
    else:
        cells = repeat_cells(binary, args.workload, args.seed, ("plain",),
                             args.seconds, MIN_CELLS)
        checked = measured = cells["plain"]
        values = {m["name"]: median_of(measured, "host", m["name"])
                  for m in spec["end_to_end"]}
        wanted = spec["end_to_end"]

    errors = check_cells(checked, load_reference())
    for e in errors:
        log("CHECK FAILED: " + e)
    metrics = {}
    for m in wanted:
        # A per-layer metric of a layer this workload never runs (dist.*
        # off the cluster, resimulation on the cluster) reads 0.
        metrics[m["name"]] = {"value": float(values.get(m["name"], 0.0)),
                              "unit": m["unit"]}
    log("%s seed %d: %d measured cells; %s" % (
        args.workload, args.seed, len(measured),
        ", ".join("%s=%.6g" % (k, v["value"])
                  for k, v in list(metrics.items())[:8])))
    result = {
        "correct": not errors,
        "attempted": sum(c["exact"]["attempted"] for c in checked),
        "failed": sum(c["exact"]["aborted"] for c in checked),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, OSError, subprocess.SubprocessError) as e:
        log("perfbench: %s" % e)
        sys.exit(1)
