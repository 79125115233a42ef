#!/usr/bin/env python3
"""Build and run the repository benchmark.

One run:
    python3 perfbench/run.py --workload ls_tall --seed 1 --seconds 24 --trace 0

builds the benchmark from the checkout's sources (first run only; later runs
rebuild incrementally), runs one workload and passes its output through: the
last stdout line is the JSON result. --trace 1 reports the per-layer metrics
instead and writes the spans to .bench_build/perfbench-out/.

Steadiness self-check:
    python3 perfbench/run.py --steadiness 10 [--workloads ls_tall,batch_small]

repeats the workloads, alternating them with a new seed each round, and prints
each end-to-end metric's median, quartiles and spread against its bound in
BENCHMARK.json — the data the bounds are set from. Run it from the repository
root; everything it writes stays under .bench_build/.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
OUT = ROOT / ".bench_build" / "perfbench-out"
BINARY = BUILD / "perfbench"

# Library knobs that change the measured program (the binary refuses them
# too; checking here fails before a build).
REFUSED = ("THREADS", "TREE", "SIMD", "PIN", "AFFINE_STEAL", "TRACE", "HEALTH", "METRICS")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def refuse_knobs():
    for name in sorted(os.environ):
        if any(name.startswith("TILEDQR_" + k) for k in REFUSED):
            print(f"perfbench: refusing to run with {name} set: it changes the measured "
                  "program, so the numbers would not compare with other runs. Unset it "
                  "and rerun.", file=sys.stderr)
            sys.exit(2)


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no library sources next to {HERE.name}/ (expected {ROOT}/CMakeLists.txt "
             "and src/); run from a full checkout")
    BUILD.mkdir(parents=True, exist_ok=True)
    log = BUILD / "build.log"
    with open(log, "a") as out:
        if not (BUILD / "CMakeCache.txt").is_file():
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            configure = ["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release",
                         *generator]
            if subprocess.call(configure, stdout=out, stderr=subprocess.STDOUT) != 0:
                fail(f"configure failed; see {log}")
        jobs = str(max(1, os.cpu_count() or 1))
        if subprocess.call(["cmake", "--build", str(BUILD), "--target", "perfbench", "-j", jobs],
                           stdout=out, stderr=subprocess.STDOUT) != 0:
            fail(f"build failed; see {log}")


def run_once(workload, seed, seconds, trace, echo):
    """Runs the binary; returns (exit code, parsed result or None)."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--out", str(OUT)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    lines = []
    for line in proc.stdout:
        lines.append(line)
        if echo:
            sys.stdout.write(line)
            sys.stdout.flush()
    code = proc.wait()
    if code != 0 or not lines:
        return code or 1, None
    return code, json.loads(lines[-1])


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def steadiness(args):
    spec = load_spec()
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values = {w: {} for w in workloads}
    for rnd in range(args.steadiness):
        for w in workloads:
            seed = args.seed + rnd
            code, result = run_once(w, seed, args.seconds, 0, echo=False)
            if result is None or not result["correct"]:
                fail(f"{w} seed {seed}: run failed (exit {code})")
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            print(f"round {rnd + 1}/{args.steadiness} {w} seed {seed}: " +
                  " ".join(f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()),
                  flush=True)
    summary = {}
    print(f"\n{'workload':14} {'metric':16} {'median':>11} {'q1':>11} {'q3':>11} "
          f"{'spread':>7} {'bound':>6}")
    for w in workloads:
        for name, vs in values[w].items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med
            bound = bounds.get(name, float("nan"))
            flag = "" if spread < bound / 3 else "  <-- above a third of the bound"
            print(f"{w:14} {name:16} {med:11.5g} {q1:11.5g} {q3:11.5g} {spread:7.3f} "
                  f"{bound:6.2f}{flag}")
            summary.setdefault(w, {})[name] = {"median": med, "q1": q1, "q3": q3,
                                               "spread": spread, "values": vs}
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / "steadiness.json").write_text(json.dumps(summary, indent=1) + "\n")
    print(f"\nwritten to {OUT / 'steadiness.json'}")


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, metavar="ROUNDS")
    parser.add_argument("--workloads", help="steadiness: comma-separated subset")
    args = parser.parse_args()
    refuse_knobs()
    if not args.steadiness and not args.workload:
        parser.error("--workload or --steadiness is required")
    if args.seconds is None:
        args.seconds = load_spec()["run_seconds"]
    build()
    if args.steadiness:
        steadiness(args)
        return 0
    code, result = run_once(args.workload, args.seed, args.seconds, args.trace, echo=True)
    return 0 if result is not None else code


if __name__ == "__main__":
    sys.exit(main())
