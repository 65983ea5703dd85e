#!/usr/bin/env python3
"""End-to-end benchmark of fastbfs: builds the library and the driver from
source, runs one workload and prints one JSON result line.

Run from the root of a source tree:

    python3 perfbench/run.py --workload rmat-graph500 --seed 1 --seconds 10 --trace 0

The last line of standard output is
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.

    python3 perfbench/run.py --workload grid-topdown --repeat 5 --seconds 10

runs a workload with seeds seed .. seed+4 and prints, per metric, the
median and quartiles of the runs and their spread (IQR / median), which is
what the bounds in BENCHMARK.json are set from.

See perfbench/README.md for the workloads and metrics.
"""
import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "BENCHMARK.json"
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
DATA_DIR = ROOT / ".bench_data"
DRIVER = BUILD_DIR / "perfbench_driver"
BUILD_TYPE = "RelWithDebInfo"  # the root project's default
WORKLOADS = ["rmat-graph500", "grid-topdown", "rmat-batch", "serve-tcp"]
# Files the build cannot do without; checked before anything is built so a
# tree without the library stops with a clear message.
REQUIRED = [
    "CMakeLists.txt",
    "src/CMakeLists.txt",
    "src/core/api.h",
    "src/graph/parallel_builder.h",
    "src/apps/components.h",
    "src/apps/pagerank.h",
    "src/serve/server.h",
    "perfbench/CMakeLists.txt",
]
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def check_sources():
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        fail("library sources missing, cannot build: " + ", ".join(missing))


def source_id():
    """The git commit when the tree is a git checkout, else a digest of the
    sources the driver is built from."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, check=True).stdout.strip()
        if sha:
            return sha
    except (OSError, subprocess.CalledProcessError):
        pass
    h = hashlib.sha256()
    for top in ["CMakeLists.txt", "src", "perfbench"]:
        path = ROOT / top
        files = [path] if path.is_file() else sorted(p for p in path.rglob("*") if p.is_file())
        for f in files:
            h.update(str(f.relative_to(ROOT)).encode())
            h.update(f.read_bytes())
    return "src-" + h.hexdigest()[:16]


def build():
    check_sources()
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD_DIR),
                      f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target", "perfbench_driver",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only results.
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def manifest_metrics(trace):
    """(name, unit) of every metric BENCHMARK.json lists for this mode."""
    try:
        manifest = json.loads(MANIFEST.read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read {MANIFEST.name}: {e}")
    return [(m["name"], m["unit"]) for m in manifest["per_layer" if trace else "end_to_end"]]


def conform(res, workload, trace):
    """Puts the driver's metrics in the manifest's form: every listed
    metric, in its unit, and no other. An end-to-end metric must be
    measured and positive on every workload. A per-layer metric the
    workload does not report is a layer it does not run: it reads 0."""
    got = res["metrics"]
    out = {}
    for name, unit in manifest_metrics(trace):
        m = got.get(name)
        if m is None:
            if not trace:
                fail(f"{workload}: end-to-end metric {name} was not measured")
            m = {"value": 0.0, "unit": unit}
        if m["unit"] != unit:
            fail(f"{workload}: {name} in {m['unit']}, the manifest says {unit}")
        if not trace and not m["value"] > 0:
            fail(f"{workload}: end-to-end metric {name} is {m['value']}")
        out[name] = {"value": m["value"], "unit": unit}
    res["metrics"] = out
    return res


def run_once(workload, seed, seconds, trace, source, echo):
    cmd = [str(DRIVER), "--workload", workload, "--seed", str(seed), "--seconds",
           str(seconds), "--trace", str(trace), "--data-dir", str(DATA_DIR),
           "--source", source]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, text=True, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} seed {seed} did not finish in {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{workload} seed {seed}: driver exited with {proc.returncode}")
    if echo:
        print("\n".join(lines[:-1]))
    return conform(json.loads(lines[-1]), workload, trace)


def repeat(args, source):
    values, units, failed, attempted = {}, {}, 0, 0
    for i in range(args.repeat):
        seed = args.seed + i
        res = run_once(args.workload, seed, args.seconds, args.trace, source, False)
        failed += res["failed"]
        attempted += res["attempted"]
        line = []
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
            line.append(f"{name}={m['value']:.4g}")
        print(f"seed {seed}: correct={res['correct']} " + " ".join(line), flush=True)
    print(f"\n{args.workload}: {args.repeat} runs, {failed}/{attempted} operations failed")
    print(f"{'metric':28} {'unit':16} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
    for name in sorted(values):
        v = values[name]
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0], 0, v[0])
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{name:28} {units[name]:16} {med:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.3f}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--repeat", type=int, default=0,
                    help="run N seeds and print each metric's median and quartiles")
    args = ap.parse_args()
    build()
    source = source_id()
    if args.repeat > 0:
        repeat(args, source)
        return
    res = run_once(args.workload, args.seed, args.seconds, args.trace, source, True)
    print(json.dumps(res), flush=True)


if __name__ == "__main__":
    main()
