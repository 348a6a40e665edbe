"""qlmass benchmark: runs one workload for a fixed time and prints one
JSON result line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; qlmass is imported from `src/`.
Each pass of the workload runs in a fresh process (see passes.py), one at
a time: a closed loop with one caller.  The runner starts passes while
the next one is expected to end within S seconds, then checks every
pass's outputs against checks.py.

--trace 0 reports the end-to-end metrics, each the median over the run:
setup_s (process start until qlmass is imported and the inputs built,
from the passes and from extra set-up-only processes), wall_s and cpu_s
of a pass, and peak_rss_mib of the pass process.  --trace 1 runs one
untraced pass and then traced passes, requires their outputs to be
bitwise identical, and reports the per-layer metrics of tracing.py.
Spans are written to .bench_out/trace-<workload>-<seed>.json and the
per-pass figures to .bench_out/result-<workload>-<seed>-trace<0|1>.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import checks
import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = Path(".bench_out")
SETUP_PROBES = 3  # set-up-only processes per run, besides the passes
DEADLINE_S = 170.0  # every child is killed by then


def _environment():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ("src", env.get("PYTHONPATH")) if p)
    # one BLAS thread: steady timings on a shared machine, as QLM_THREADS=1
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


class Runner:
    def __init__(self, workload, seed, scratch, started):
        self.workload = workload
        self.seed = seed
        self.scratch = scratch
        self.started = started
        self.env = _environment()
        self.count = 0

    def spawn(self, *flags):
        """Run one pass process; returns its result dict and outputs."""
        self.count += 1
        out = str(Path(self.scratch) / f"pass{self.count}")
        cmd = [sys.executable, str(BENCH_DIR / "passes.py"), self.workload,
               str(self.seed), out, "--spawned-at", repr(time.monotonic()),
               *flags]
        timeout = DEADLINE_S - (time.monotonic() - self.started)
        if timeout <= 0:
            raise RuntimeError("benchmark deadline passed")
        proc = subprocess.run(cmd, env=self.env, timeout=timeout,
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            raise RuntimeError(f"pass process failed:\n{proc.stderr}")
        with open(out + ".json") as fh:
            result = json.load(fh)
        if "--setup-only" in flags:
            return result, None
        with np.load(out + ".npz", allow_pickle=False) as npz:
            outputs = {key: npz[key] for key in npz.files}
        if result["error"]:
            print(result["error"], file=sys.stderr)
        return result, outputs


def _check(workload, seed, outputs, oracle):
    if workload == "mass-search":
        return checks.check_mass_search(outputs, seed)
    if workload == "asymptotics-ladder":
        return checks.check_asymptotics_ladder(outputs, seed)
    return checks.check_interior_identity(outputs, seed, oracle)


def _identical(a, b):
    return a.keys() == b.keys() and all(
        a[k].dtype == b[k].dtype and np.array_equal(a[k], b[k]) for k in a)


def run(workload, seed, seconds, trace):
    if not (Path("src") / "qlmass" / "__init__.py").is_file():
        raise SystemExit("error: run from the root of a qlmass checkout "
                         "(src/qlmass not found)")
    started = time.monotonic()
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as scratch:
        runner = Runner(workload, seed, scratch, started)
        runner.spawn("--setup-only")  # untimed: fills the bytecode cache
        setups = [runner.spawn("--setup-only")[0]["setup_s"]
                  for _ in range(SETUP_PROBES)]
        window = time.monotonic()
        passes = []  # (result, outputs, traced)
        longest = 0.0
        while (not passes or (trace and len(passes) < 2)
               or time.monotonic() - window + longest <= seconds):
            traced = trace and bool(passes)
            begun = time.monotonic()
            result, outputs = runner.spawn(*(["--trace"] if traced else []))
            longest = max(longest, time.monotonic() - begun)
            passes.append((result, outputs, traced))

    oracle = (checks.polar_grid_solution()
              if workload == "interior-identity" else None)
    attempted = failed = 0
    correct = True
    for result, outputs, _ in passes:
        attempted += result["steps"]
        failed += result["steps"] - result["completed"]
        if result["error"] is None:
            for name, ok, detail in _check(workload, seed, outputs, oracle):
                if not ok:
                    correct = False
                    print(f"check failed: {name}: {detail}", file=sys.stderr)
    if trace and passes[0][0]["error"] is None:
        reference = passes[0][1]
        for result, outputs, _ in passes[1:]:
            if result["error"] is None and not _identical(reference, outputs):
                correct = False
                print("check failed: traced outputs differ from untraced",
                      file=sys.stderr)

    if not trace:
        values = {
            "setup_s": statistics.median(
                setups + [r["setup_s"] for r, _, _ in passes]),
            "wall_s": statistics.median(r["wall_s"] for r, _, _ in passes),
            "cpu_s": statistics.median(r["cpu_s"] for r, _, _ in passes),
            "peak_rss_mib": statistics.median(
                r["peak_rss_mib"] for r, _, _ in passes),
        }
        units = {"setup_s": "s", "wall_s": "s", "cpu_s": "s",
                 "peak_rss_mib": "MiB"}
    else:
        traced = [r for r, _, t in passes if t]
        per_pass = [tracing.layer_metrics(r["spans"], r["wall_s"])
                    for r in traced]
        units = dict(tracing.metric_names())
        values = {name: statistics.median(p[name] for p in per_pass)
                  for name in units}
        values["pass.untraced_s"] = passes[0][0]["wall_s"]
        with open(OUT_DIR / f"trace-{workload}-{seed}.json", "w") as fh:
            json.dump([s for r in traced for s in r["spans"]], fh)
    summary = {
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }
    record = dict(summary, workload=workload, seed=seed, seconds=seconds,
                  trace=trace, setup_probes_s=setups,
                  passes=[{k: r[k] for k in ("setup_s", "wall_s", "cpu_s",
                                             "peak_rss_mib")}
                          | {"traced": t} for r, _, t in passes])
    with open(OUT_DIR / f"result-{workload}-{seed}-trace{int(trace)}.json",
              "w") as fh:
        json.dump(record, fh, indent=1)
    return summary


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
