"""Digest of every CLI result over a fixed matrix of calls.

Usage:
    python3 tools/output_digest.py [--root CHECKOUT] [--jobs N] > digest.json
    python3 tools/output_digest.py [--root CHECKOUT] [--jobs N] --compare BASE.json

Runs ``corrdyn`` from ``CHECKOUT/src`` (default: the checkout this file
lives in), each call in a fresh interpreter and a fresh output directory:

- the three benchmark workload configs (``perfbench/workloads.py``) at
  seeds 1-3, every call of one job each;
- the smoke-size ``spectral-z2_plus_z3`` workload's ``ruelle`` (400 cells,
  6 pullback levels, cap 1024) on z2_plus_z3, on z2 with ``probe_pairs``
  1, so the expansivity probe reads one pair, and on z2_plus_z3 with
  ``probe_pairs`` 400, so it probes every active center, those on the
  negative real axis too, whose backward rows the stacked root solver
  declines (``SMOKE_CONFIGS``), at seeds 0 and 3;
- the README config for every command, ``orbits`` in both directions,
  ``ruelle`` at depth 4 with f = re and ``variational`` with f = re, on
  all five bundled correspondences at seeds 0 and 3.  The f = re
  ``ruelle`` calls give the only ``mu0`` cylinder measures with
  non-uniform branch weights, and the only ones deeper than depth 2;
- ``entropy`` and ``pressure`` with f = re on mobius_pair, z2_plus_z3 and
  z2 at seeds 0 and 3, on unsorted schedules of three depths whose pools
  are thinned at some depths and whole at others (``POOL_CONFIGS``; z2's
  single-valued tree is never thinned), so pools of ``pressure_estimate``
  grown from whole and from thinned pools are digested, and
  ``pressure`` with f = im, const:0.25 and log_abs on the z2 and mobius_pair
  pools (``POOL_FUNCTIONS``), so every built-in function is digested;
- ``entropy`` and ``pressure`` with f = re on z2 and mobius_pair at seeds
  0 and 3, on whole pools whose eps shrinks with depth and on pools whose
  eps grows with depth (``INHERIT_SCHEDULES``), so the close pairs a
  grown pool takes from its source at a larger eps are digested, and so
  are those a grown pool must search for again;
- ``ds-measure`` and ``ruelle`` (f = re, depth 3) from the real start
  0.5 on z2 and z2_plus_z3 at seeds 0 and 3 (``REAL_START_CORRESPONDENCES``).
  Its preimage trees reach the negative real axis, where roots have
  argument pi, so the pullback levels take the scalar root fallback
  there, which the README start never does;
- ``ds-measure`` on z3 from the tiny start 1e-300 at seeds 0 and 3
  (``TINY_START_CORRESPONDENCES``), whose backward fiber polynomial
  z^3 - 1e-300 has a constant term far below the start circle of the
  scalar root iteration;
- ``ds-measure`` on z3 from 1e-13 at 3 levels, seed 0 (``SHALLOW_START``),
  whose support fails the backward invariance check, so the call exits 4;
- ``variational`` from the real-axis start -0.5 and from infinity on all
  five bundled correspondences at seeds 0 and 3 (``WALK_STARTS``): walks
  along the real axis, where chart values carry signed zeros, and from a
  fixed point in the reciprocal chart;
- the README ``ds-measure``, ``ruelle`` and backward ``orbits`` at seeds 0
  and 3 on (w - z^3 + 0.5 z) + (w - z^2 - z) (``NON_BINOMIAL``, written to
  the work directory).  Every bundled backward fiber is a binomial z^d = y,
  which the stacked root iteration solves from its start; these fibers
  are not, so the iteration runs;
- the README ``ds-measure``, ``ruelle`` and ``orbits`` in both directions
  at seeds 0 and 3 on 2 (w^2 - z^3) + (w - z^2 - z) (``MULTIPLICITY_TWO``,
  written to the work directory): the only digested component of
  multiplicity above 1 and of forward fiber degree above 1, so the only
  branch slots past 1 + j and the only sorted forward fibers.  Its
  ``ruelle`` exits 4 (a preimage outside the support).

It prints one JSON object keyed by call, holding the exit code and the
sha256 of the ``results`` section of report.json and of every CSV the
call wrote.  Timings (metadata.json) and the config echo (which holds
absolute paths) are left out, so two checkouts that compute the same
numbers print the same bytes, and comparing them is one ``diff``.  With
``--compare BASE.json`` it prints, instead of the digest, one line for
every call whose entry differs from BASE.json's: its id and the names of
the entries that differ (``exit``, ``results``, CSV names), or which side
alone has the call.  It ends with an ``N of M calls differ`` line on
stderr and exits 1 if any call differs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE / "perfbench"))
from workloads import workloads  # noqa: E402

BENCH_SEEDS = (1, 2, 3)
README_SEEDS = (0, 3)
CORRESPONDENCES = ("mobius", "z2", "z3", "z2_plus_z3", "mobius_pair")
COMMANDS = ("degrees", "orbits", "ds-measure", "entropy", "pressure", "ruelle",
            "variational")

#: The config example of README.md, without its correspondence path.
README_CONFIG = {
    "n_cells": 2000,
    "seed": 0,
    "entropy": {"schedule": [[4, 0.05], [8, 0.05]], "start_points": 256,
                "starts": "circle", "cap": 4096},
    "pressure": {"f": "re", "schedule": [[4, 0.05], [8, 0.05]],
                 "start_points": 256, "starts": "circle"},
    "orbits": {"start": [0.5, 0.3], "depth": 6, "direction": "backward"},
    "ds_measure": {"start": [0.5, 0.3], "levels": 12, "cap": 8192,
                   "threshold": 0.5},
    "ruelle": {"f": "zero", "tol": 1e-10, "depth": 2, "n_max": 40,
               "convergence_g": "re",
               "pullback": {"start": [0.5, 0.3], "levels": 10, "cap": 4096}},
    "variational": {"f": "zero", "depth": 4, "empirical": 2,
                    "n_keep": 5000, "start": [0.5, 0.3],
                    "pressure": {"schedule": [[4, 0.05], [8, 0.05]],
                                 "start_points": 64}},
}

#: (correspondence, ``ruelle`` section) over the bench's smoke spectral
#: config, by call name.
SMOKE_CONFIGS = {"z2_plus_z3": ("z2_plus_z3", {}), "z2": ("z2", {"probe_pairs": 1}),
                 "z2_plus_z3-probe400": ("z2_plus_z3", {"probe_pairs": 400})}

#: Truncated, unsorted, multi-depth path-pool schedules, by correspondence.
POOL_CONFIGS = {
    "mobius_pair": {"schedule": [[6, 0.05], [4, 0.05], [8, 0.05], [4, 0.1]],
                    "start_points": 7, "starts": "circle", "cap": 20},
    "z2_plus_z3": {"schedule": [[5, 0.05], [3, 0.05], [7, 0.05], [3, 0.1]],
                   "start_points": 16, "starts": "circle", "cap": 24},
    "z2": {"schedule": [[6, 0.05], [3, 0.05], [9, 0.05], [3, 0.1]],
           "start_points": 64, "starts": "circle", "cap": 24},
}

#: ``pressure`` functions besides re run on some pools, by call-id suffix.
POOL_FUNCTIONS = {"im": "im", "const": "const:0.25", "log_abs": "log_abs"}

#: Pools on which the ``POOL_FUNCTIONS`` run.
POOL_FUNCTION_CORRESPONDENCES = ("z2", "mobius_pair")


#: Untruncated three-depth schedules by call-id suffix: "shrink" takes
#: each depth's close pairs from the depth before it, at a larger eps and
#: then the same one; every eps of "grow" exceeds the eps before it.
INHERIT_SCHEDULES = {"shrink": [[3, 0.1], [6, 0.05], [9, 0.05]],
                     "grow": [[3, 0.05], [6, 0.1], [9, 0.2]]}

#: Starts of the ``INHERIT_SCHEDULES`` pools, by correspondence.
INHERIT_STARTS = {"z2": 64, "mobius_pair": 5}


#: Correspondences run from the real start 0.5 (``REAL_START``).
REAL_START_CORRESPONDENCES = ("z2", "z2_plus_z3")
REAL_START = [0.5, 0.0]

#: Correspondences whose ``ds-measure`` runs from the tiny start ``TINY_START``.
TINY_START_CORRESPONDENCES = ("z3",)
TINY_START = [1e-300, 0.0]

#: z3 ``ds-measure`` section whose support is not backward invariant.
SHALLOW_START = {**README_CONFIG["ds_measure"], "start": [1e-13, 0.0], "levels": 3}

#: ``variational`` starts of the empirical walks, by config name prefix.
WALK_STARTS = {"axis": [-0.5, 0.0], "inf": "inf"}

#: (w - z^3 + 0.5 z) + (w - z^2 - z): backward fibers of degree 3 and 2
#: that are not binomials.
NON_BINOMIAL = """\
1
0 1 1 0
3 0 -1 0
1 0 0.5 0

1
0 1 1 0
2 0 -1 0
1 0 -1 0
"""

#: Commands run on ``NON_BINOMIAL`` with the README config.
NON_BINOMIAL_COMMANDS = ("ds-measure", "ruelle", "orbits")

#: 2 (w^2 - z^3) + (w - z^2 - z): fibers of degree 3 and 2 backward, 2 and
#: 1 forward, the first component counted twice.
MULTIPLICITY_TWO = """\
2
0 2 1 0
3 0 -1 0

1
0 1 1 0
2 0 -1 0
1 0 -1 0
"""

#: Commands run on ``MULTIPLICITY_TWO`` with the README config; ``orbits``
#: runs forward too.
MULTIPLICITY_TWO_COMMANDS = ("ds-measure", "ruelle", "orbits")


def _configs(data: Path, work: Path) -> dict[str, dict]:
    out = {}
    for w in workloads().values():
        out[f"bench-{w.name}"] = {**w.config,
                                  "correspondence": str(data / w.correspondence)}
    smoke = workloads("smoke")["spectral-z2_plus_z3"].config
    for name, (corr, extra) in SMOKE_CONFIGS.items():
        out[f"smoke-{name}"] = {**smoke, "correspondence": str(data / f"{corr}.corr"),
                                "ruelle": {**smoke["ruelle"], **extra}}
    for name in CORRESPONDENCES:
        config = {**README_CONFIG, "correspondence": str(data / f"{name}.corr")}
        out[f"readme-{name}"] = config
        out[f"readme-{name}-forward"] = {
            **config, "orbits": {**config["orbits"], "direction": "forward"}}
        out[f"readme-{name}-re"] = {
            **config,
            "ruelle": {**config["ruelle"], "f": "re", "depth": 4},
            "variational": {**config["variational"], "f": "re"}}
    for name in REAL_START_CORRESPONDENCES:
        ruelle = README_CONFIG["ruelle"]
        out[f"real-{name}"] = {
            **README_CONFIG, "correspondence": str(data / f"{name}.corr"),
            "ds_measure": {**README_CONFIG["ds_measure"], "start": REAL_START},
            "ruelle": {**ruelle, "f": "re", "depth": 3,
                       "pullback": {**ruelle["pullback"], "start": REAL_START}}}
    for name in TINY_START_CORRESPONDENCES:
        out[f"tiny-{name}"] = {
            **README_CONFIG, "correspondence": str(data / f"{name}.corr"),
            "ds_measure": {**README_CONFIG["ds_measure"], "start": TINY_START}}
    out["shallow-z3"] = {**README_CONFIG, "correspondence": str(data / "z3.corr"),
                         "ds_measure": SHALLOW_START}
    for prefix, start in WALK_STARTS.items():
        for name in CORRESPONDENCES:
            out[f"{prefix}-{name}"] = {
                **README_CONFIG, "correspondence": str(data / f"{name}.corr"),
                "variational": {**README_CONFIG["variational"], "start": start}}
    for name, section in POOL_CONFIGS.items():
        out[f"pools-{name}"] = {"correspondence": str(data / f"{name}.corr"),
                                "n_cells": 2000, "entropy": section,
                                "pressure": {**section, "f": "re"}}
    for name in POOL_FUNCTION_CORRESPONDENCES:
        for suffix, f in POOL_FUNCTIONS.items():
            out[f"pools-{name}-{suffix}"] = {
                **out[f"pools-{name}"], "pressure": {**POOL_CONFIGS[name], "f": f}}
    for name, start_points in INHERIT_STARTS.items():
        for suffix, schedule in INHERIT_SCHEDULES.items():
            section = {"schedule": schedule, "start_points": start_points,
                       "starts": "circle"}
            out[f"inherit-{name}-{suffix}"] = {
                "correspondence": str(data / f"{name}.corr"), "n_cells": 2000,
                "entropy": section, "pressure": {**section, "f": "re"}}
    (work / "non_binomial.corr").write_text(NON_BINOMIAL)
    out["non_binomial"] = {**README_CONFIG,
                           "correspondence": str(work / "non_binomial.corr")}
    (work / "multiplicity_two.corr").write_text(MULTIPLICITY_TWO)
    out["multiplicity_two"] = {**README_CONFIG,
                               "correspondence": str(work / "multiplicity_two.corr")}
    out["multiplicity_two-forward"] = {
        **out["multiplicity_two"],
        "orbits": {**README_CONFIG["orbits"], "direction": "forward"}}
    return out


def _calls() -> list[tuple[str, str, str, int]]:
    """(call id, config name, command, seed) of every call."""
    calls = []
    for w in workloads().values():
        for seed in BENCH_SEEDS:
            for key, command, call_seed in w.calls(seed):
                calls.append((f"bench/{w.name}/seed{seed}/{key}",
                              f"bench-{w.name}", command, call_seed))
    for name in SMOKE_CONFIGS:
        for seed in README_SEEDS:
            calls.append((f"smoke/{name}/seed{seed}/ruelle", f"smoke-{name}",
                          "ruelle", seed))
    for name in CORRESPONDENCES:
        for seed in README_SEEDS:
            for command in COMMANDS:
                calls.append((f"readme/{name}/seed{seed}/{command}",
                              f"readme-{name}", command, seed))
            calls.append((f"readme/{name}/seed{seed}/orbits-forward",
                          f"readme-{name}-forward", "orbits", seed))
            for command in ("ruelle", "variational"):
                calls.append((f"readme/{name}/seed{seed}/{command}-re",
                              f"readme-{name}-re", command, seed))
    for name in REAL_START_CORRESPONDENCES:
        for seed in README_SEEDS:
            for command in ("ds-measure", "ruelle"):
                calls.append((f"real/{name}/seed{seed}/{command}",
                              f"real-{name}", command, seed))
    for name in TINY_START_CORRESPONDENCES:
        for seed in README_SEEDS:
            calls.append((f"tiny/{name}/seed{seed}/ds-measure", f"tiny-{name}",
                          "ds-measure", seed))
    calls.append(("shallow/z3/seed0/ds-measure", "shallow-z3", "ds-measure", 0))
    for prefix in WALK_STARTS:
        for name in CORRESPONDENCES:
            for seed in README_SEEDS:
                calls.append((f"{prefix}/{name}/seed{seed}/variational",
                              f"{prefix}-{name}", "variational", seed))
    for name in POOL_CONFIGS:
        for seed in README_SEEDS:
            for command in ("entropy", "pressure"):
                calls.append((f"pools/{name}/seed{seed}/{command}",
                              f"pools-{name}", command, seed))
    for name in POOL_FUNCTION_CORRESPONDENCES:
        for seed in README_SEEDS:
            for suffix in POOL_FUNCTIONS:
                calls.append((f"pools/{name}/seed{seed}/pressure-{suffix}",
                              f"pools-{name}-{suffix}", "pressure", seed))
    for name in INHERIT_STARTS:
        for suffix in INHERIT_SCHEDULES:
            for seed in README_SEEDS:
                for command in ("entropy", "pressure"):
                    calls.append((f"inherit/{name}/seed{seed}/{command}-{suffix}",
                                  f"inherit-{name}-{suffix}", command, seed))
    for seed in README_SEEDS:
        for command in NON_BINOMIAL_COMMANDS:
            calls.append((f"non_binomial/seed{seed}/{command}", "non_binomial",
                          command, seed))
        for command in MULTIPLICITY_TWO_COMMANDS:
            calls.append((f"multiplicity_two/seed{seed}/{command}", "multiplicity_two",
                          command, seed))
        calls.append((f"multiplicity_two/seed{seed}/orbits-forward",
                      "multiplicity_two-forward", "orbits", seed))
    return calls


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(src: Path, work: Path, call) -> tuple[str, dict]:
    call_id, config_name, command, seed = call
    out = work / "out" / call_id
    env = {**os.environ, "PYTHONPATH": str(src)}
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    done = subprocess.run(
        [sys.executable, "-m", "corrdyn.cli", command,
         "--config", str(work / f"{config_name}.json"),
         "--seed", str(seed), "--out", str(out)],
        env=env, capture_output=True)
    entry = {"exit": done.returncode}
    report = out / "report.json"
    if report.is_file():
        results = json.loads(report.read_text())["results"]
        entry["results"] = _sha(json.dumps(results, sort_keys=True).encode())
    for csv in sorted(out.glob("*.csv")):
        entry[csv.name] = _sha(csv.read_bytes())
    return call_id, entry


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=HERE,
                        help="checkout whose src/ runs (default: this one)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="calls run side by side")
    parser.add_argument("--compare", type=Path, default=None, metavar="BASE.json",
                        help="print the calls whose digests differ from this "
                             "digest file, and exit 1 if any do")
    args = parser.parse_args(argv)
    base = None if args.compare is None else json.loads(args.compare.read_text())
    src = args.root.resolve() / "src"
    with tempfile.TemporaryDirectory(prefix="corrdyn-digest-") as tmp:
        work = Path(tmp)
        for name, config in _configs(src / "corrdyn" / "data", work).items():
            (work / f"{name}.json").write_text(json.dumps(config, indent=2))
        with ThreadPoolExecutor(max(1, args.jobs)) as pool:
            digest = dict(pool.map(lambda call: _run(src, work, call), _calls()))
    if base is None:
        print(json.dumps(digest, sort_keys=True, indent=1))
        return 0
    differ = sorted(key for key in digest.keys() | base.keys()
                    if digest.get(key) != base.get(key))
    for key in differ:
        if key not in base:
            print(f"{key}: not in {args.compare}")
        elif key not in digest:
            print(f"{key}: only in {args.compare}")
        else:
            new, old = digest[key], base[key]
            names = sorted((name for name in new.keys() | old.keys()
                            if new.get(name) != old.get(name)),
                           key=lambda name: (name.endswith(".csv"), name))
            print(f"{key}: {', '.join(names)}")
    print(f"{len(differ)} of {len(digest)} calls differ from {args.compare}",
          file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
