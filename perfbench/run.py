"""corrdyn benchmark: closed-loop CLI jobs on bundled correspondences.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a corrdyn checkout.  One client in this process runs
one job at a time (a closed loop): each job is one or more in-process
``corrdyn.cli.main`` calls on a generated config, and the next job starts
only when the previous one has finished.  Every job's reports are checked;
all jobs of a run use the same seed, so their results digests must match.

With ``--trace 0`` the last stdout line carries the end-to-end metrics
(job_s, setup_s, peak_rss_mb).  With ``--trace 1`` untraced and traced
jobs alternate, and it carries the per-layer metrics of the traced jobs.
The line before it is a summary with the job-time quartiles, the failure
ratio and the accuracy error against the workload's reference value.

A shared host's speed drifts (by 20-40% within minutes on the 2-vCPU
host README.md describes), so every timed CLI call and set-up probe is
bracketed by a short fixed loop (``host_loop``), and job_s and setup_s
are reported in host-normalised seconds: wall seconds times HOST_REF_S
over the loop time around them.  The raw wall times are in the summary
line.
"""

from __future__ import annotations

import os

# The bench, its set-up probes and the host loop all run on one CPU, so
# the loop sees the speed of the CPU the timed work ran on.
os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

#: BLAS/OpenMP thread cap, set before numpy is imported.
THREADS = len(os.sched_getaffinity(0))
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
DATA = SRC / "corrdyn" / "data"
RUN_DIR = ROOT / ".bench_run"

#: Fresh-interpreter set-up measurements per run (after one warm-up).
SETUP_PROBES = 25

#: Nominal time of ``host_loop``; a host on which the loop takes this long
#: reports wall seconds unchanged.  The loop takes 20-28 ms on the host
#: described in README.md.
HOST_REF_S = 0.020

sys.path.insert(0, str(BENCH_DIR))
from workloads import check_report, results_digest, workloads, write_config  # noqa: E402


_HOST_POLY = np.array([1.0 + 0.5j, -0.3j, 0.7, 1.0])


def host_loop() -> float:
    """Seconds one pass of a fixed loop takes: scalar complex arithmetic
    plus small numpy calls, the kind of work corrdyn's hot paths do."""
    started = time.perf_counter()
    acc = 0j
    for k in range(12000):
        z = complex((k % 97) / 97.0, 0.3)
        acc += (z * z + 1.0) / (z + 2.0) + abs(z)
        if k % 4 == 0:
            acc += complex(np.polyval(_HOST_POLY, z))
    return time.perf_counter() - started


def normalised(walls: list[float], loops: list[float]) -> float:
    """Sum of wall times, each scaled by HOST_REF_S over the mean of the
    host loops timed just before and just after it."""
    return sum(w * 2.0 * HOST_REF_S / (before + after)
               for w, before, after in zip(walls, loops, loops[1:]))


def run_job(workload, config_path: Path, seed: int, out_dir: Path, tracer=None):
    """Run one job; return (wall seconds, host-normalised seconds, results
    by command, problems)."""
    import corrdyn.cli

    problems: list[str] = []
    captured = io.StringIO()
    walls: list[float] = []
    loops = [host_loop()]
    patches = tracer.installed() if tracer is not None else contextlib.nullcontext()
    with patches, contextlib.redirect_stdout(captured), \
            contextlib.redirect_stderr(captured):
        for key, command, call_seed in workload.calls(seed):
            started = time.perf_counter()
            try:
                rc = corrdyn.cli.main([command, "--config", str(config_path),
                                       "--seed", str(call_seed),
                                       "--out", str(out_dir / key)])
            except Exception:  # a crashing job is a failed job, not a dead run
                problems.append(traceback.format_exc())
            else:
                if rc != 0:
                    problems.append(f"{key}: exit code {rc}")
            walls.append(time.perf_counter() - started)
            loops.append(host_loop())
            if problems:
                break
    results = {}
    if not problems:
        for key, command, _ in workload.calls(seed):
            try:
                results[key], found = check_report(command, out_dir / key)
            except (OSError, ValueError) as err:
                found = [f"{key}: unreadable report: {err}"]
            problems.extend(found)
    if problems:
        problems.append(captured.getvalue()[-2000:])
    return sum(walls), normalised(walls, loops), results, problems


def measure_setup(config_path: Path) -> tuple[list[float], list[float]]:
    """Wall and host-normalised seconds of each set-up probe."""
    probe = [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(SRC),
             str(config_path)]
    walls, scaled = [], []
    subprocess.run(probe, capture_output=True, timeout=120, check=True)  # warm-up
    loops = [host_loop()]
    for _ in range(SETUP_PROBES):
        done = subprocess.run(probe, capture_output=True, text=True,
                              timeout=120, check=True)
        walls.append(float(done.stdout.strip()))
        loops.append(host_loop())
        scaled.append(normalised(walls[-1:], loops[-2:]))
    return walls, scaled


def job_time_summary(walls: list[float]) -> dict:
    """Median and quartiles, plus the highest percentile with at least ten
    samples beyond it (omitted below 20 jobs)."""
    out = {"count": len(walls), "median": statistics.median(walls),
           "min": min(walls), "max": max(walls)}
    if len(walls) >= 2:
        q1, _, q3 = statistics.quantiles(walls, n=4)
        out.update(q1=q1, q3=q3)
    supported = [p for p in (50, 75, 90, 95, 99) if len(walls) * (100 - p) >= 1000]
    if supported:
        p = supported[-1]
        out[f"p{p}"] = statistics.quantiles(walls, n=100)[p - 1]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke shrinks every input for the bench's own test")
    args = parser.parse_args(argv)

    if not (SRC / "corrdyn" / "cli.py").is_file():
        print(f"run.py: no corrdyn sources under {SRC}", file=sys.stderr)
        return 2
    table = workloads(args.size)
    if args.workload not in table:
        print(f"run.py: unknown workload {args.workload!r}; "
              f"choose from {sorted(table)}", file=sys.stderr)
        return 2
    workload = table[args.workload]

    sys.path.insert(0, str(SRC))
    import corrdyn.cli  # noqa: F401  (import cost stays out of job_s)
    from tracer import COUNT_METRICS, LAYER_UNITS, Tracer, layer_metrics

    run_dir = RUN_DIR / workload.name
    shutil.rmtree(run_dir, ignore_errors=True)
    config_path = write_config(workload, DATA, run_dir / "config.json")
    setup_walls, setup = ([], []) if args.trace else measure_setup(config_path)

    walls = {False: [], True: []}
    scaled_walls = {False: [], True: []}
    layer_runs: list[dict] = []
    failures: list[str] = []
    digests = []
    headline = None
    attempted = 0
    loop_started = time.perf_counter()
    while True:
        traced = bool(args.trace) and attempted % 2 == 1
        tracer = Tracer() if traced else None
        if tracer is not None:
            tracer.calibrate()
        out_dir = run_dir / f"job{attempted}"
        gc.collect()
        wall, scaled, results, problems = run_job(workload, config_path,
                                                  args.seed, out_dir, tracer)
        attempted += 1
        walls[traced].append(wall)
        scaled_walls[traced].append(scaled)
        if not problems:
            digests.append(results_digest(results))
            if digests[-1] != digests[0]:
                problems.append("results differ from the first job's with the same seed")
        if tracer is not None:
            layer_runs.append(layer_metrics(tracer))
            if len(layer_runs) == 1:
                tracer.write(run_dir / "spans.npz")
            first = layer_runs[0]
            drift = [m for m in COUNT_METRICS if layer_runs[-1][m] != first[m]]
            if drift:
                problems.append(f"per-layer counts changed for a fixed seed: {drift}")
        if problems:
            failures.append(f"job {attempted - 1}: " + "\n".join(problems))
        elif headline is None:
            headline = workload.headline_value(results)
        if attempted > 1:
            shutil.rmtree(out_dir, ignore_errors=True)

        elapsed = time.perf_counter() - loop_started
        expected = statistics.median(walls[False] + walls[True])
        if attempted >= 2 and (not args.trace or attempted % 2 == 0) \
                and elapsed + expected > args.seconds:
            break

    for failure in failures:
        print(failure, file=sys.stderr)

    summary = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "size": args.size, "blas_threads": THREADS,
        "job_s": job_time_summary(scaled_walls[False]),
        "job_wall_s": job_time_summary(walls[False]),
        "fail_ratio": len(failures) / attempted,
        "headline": headline, "reference": workload.reference,
        "reference_source": workload.reference_source,
        "abs_err": None if headline is None else abs(headline - workload.reference),
    }
    if args.trace:
        summary["traced_job_s"] = job_time_summary(scaled_walls[True])
        summary["traced_job_wall_s"] = job_time_summary(walls[True])
        metrics = {}
        for name, unit in LAYER_UNITS.items():
            if name == "trace.overhead_s":
                # Traced wall time minus the untraced job at the traced
                # jobs' host speed, taken from the host-normalised times.
                value = statistics.median(walls[True]) * (
                    1.0 - statistics.median(scaled_walls[False])
                    / statistics.median(scaled_walls[True]))
            elif name == "trace.job_s":
                value = statistics.median(walls[True])
            elif name in COUNT_METRICS:
                value = layer_runs[0][name]
            else:
                value = statistics.median(run[name] for run in layer_runs)
            metrics[name] = {"value": value, "unit": unit}
    else:
        summary["setup_s"] = setup
        summary["setup_wall_s"] = setup_walls
        metrics = {
            "job_s": {"value": statistics.median(scaled_walls[False]), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "unit": "MB"},
        }
    (run_dir / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    print(json.dumps({"summary": summary}))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
