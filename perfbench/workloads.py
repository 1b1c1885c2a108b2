"""Workload definitions for the corrdyn benchmark.

A workload is a list of ``corrdyn`` CLI commands that make up one job, the
config they share, the headline field that is compared against a known
reference value, and the checks every job's reports must pass.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

#: log(lambda) of the z2 transfer operator for f = re.  It comes from
#: ``corrdyn ruelle`` on z2 with f = re: 1.067693 at n_cells = 2000 and
#: 1.067628 at n_cells = 8000, so the grid moves it by less than 1e-4.
Z2_RE_TRANSFER_LOG_LAMBDA = 1.0677


@dataclass(frozen=True)
class Workload:
    name: str
    correspondence: str
    commands: tuple[str, ...]
    config: dict
    headline: tuple[str, str]
    reference: float
    reference_source: str
    #: Traced span names this workload exercises (the workload x layer
    #: matrix); each records at least one call on it.
    layers: tuple[str, ...]
    #: Times the command list runs in one job, each time with its own seed
    #: derived from the run seed.
    repeats: int = 1

    def calls(self, seed: int) -> list[tuple[str, str, int]]:
        """(output key, command, seed) of every CLI call in one job."""
        out = []
        for k in range(self.repeats):
            for command in self.commands:
                key = command if self.repeats == 1 else f"{command}.{k}"
                out.append((key, command, seed * self.repeats + k))
        return out

    def headline_value(self, results: dict) -> float:
        """Mean headline over the job's repeats."""
        command, field = self.headline
        values = [results[key][field] for key, cmd, _ in self.calls(0)
                  if cmd == command]
        return sum(values) / len(values)


_COMMON = ("cli", "correspondence.fiber", "sphere.roots", "sphere.sph_dist")
_PATHS = ("paths.enumerate", "paths.separated", "paths.spanning",
          "pressure.estimate")


def _ruelle_section(levels: int, cap: int) -> dict:
    return {"f": "zero", "tol": 1e-10, "depth": 2, "n_max": 40,
            "convergence_g": "re",
            "pullback": {"start": [0.5, 0.3], "levels": levels, "cap": cap}}


def _variational_section(n_keep: int, start_points: int) -> dict:
    return {"f": "zero", "depth": 4, "empirical": 2, "n_keep": n_keep,
            "start": [0.5, 0.3],
            "pressure": {"schedule": [[4, 0.05], [8, 0.05]],
                         "start_points": start_points}}


def workloads(size: str = "full") -> dict[str, Workload]:
    """The benchmark workloads; ``size="smoke"`` shrinks every input."""
    full = size == "full"
    # Calls are kept to about a second or less (the README's ruelle and
    # pressure sizes take 10 s and 6 s), so the host-speed loop timed
    # between calls sees the host state each call ran in.
    out = [
        Workload(
            name="spectral-z2_plus_z3",
            correspondence="z2_plus_z3.corr",
            commands=("ruelle",),
            config={"n_cells": 2000 if full else 400,
                    "ruelle": _ruelle_section(6, 1024)},
            headline=("ruelle", "lambda"),
            reference=5.0,
            reference_source="lambda = d_top = 5 for f = zero",
            layers=_COMMON + ("correspondence.probe", "grid.cell_index",
                              "grid.dilate", "pullback.iterate",
                              "pullback.support", "transfer.kernel",
                              "transfer.power", "transfer.normalize",
                              "transfer.adjoint", "transfer.convergence",
                              "transfer.holder", "measures.from_particles",
                              "measures.distance"),
        ),
        Workload(
            name="entropy-mobius_pair",
            correspondence="mobius_pair.corr",
            commands=("entropy",),
            # Starts closer than about eps merge their whole 2^n path trees,
            # so one call's work moves in steps of (256 paths)^2 with the
            # seed; 24 small calls average that out.  The saturation bias
            # of S starts is log(S)/n, which vanishes only at S = 1.
            config={"n_cells": 2000,
                    "entropy": {"schedule": [[4, 0.05], [8, 0.05]] if full
                                else [[3, 0.05], [5, 0.05]],
                                "start_points": 6,
                                "starts": "circle", "cap": 4096}},
            repeats=24 if full else 2,
            headline=("entropy", "pressure"),
            reference=math.log(2.0),
            reference_source="log 2: two Moebius branches, topological "
                             "entropy log d_fwd",
            layers=_COMMON + _PATHS,
        ),
        Workload(
            name="pressure-z2",
            correspondence="z2.corr",
            commands=("pressure", "variational"),
            config={"n_cells": 2000,
                    "pressure": {"f": "re",
                                 "schedule": [[4, 0.05], [8, 0.05], [12, 0.05]]
                                 if full else [[4, 0.05], [8, 0.05]],
                                 "start_points": 500 if full else 60,
                                 "starts": "circle"},
                    "variational": _variational_section(5000 if full else 500,
                                                        64 if full else 16)},
            headline=("pressure", "pressure"),
            reference=Z2_RE_TRANSFER_LOG_LAMBDA,
            reference_source="transfer-operator log lambda for f = re on z2",
            layers=_COMMON + _PATHS + ("grid.cell_index", "measures.distance",
                                       "measures.empirical",
                                       "measures.variational"),
        ),
    ]
    return {w.name: w for w in out}


def write_config(workload: Workload, data_dir: Path, path: Path) -> Path:
    config = dict(workload.config)
    config["correspondence"] = str(data_dir / workload.correspondence)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(config, sort_keys=True, indent=2) + "\n")
    return path


# ---------------------------------------------------------------------------
# Report checks
# ---------------------------------------------------------------------------

_RESULT_FIELDS = {
    "ruelle": ("lambda", "iterations", "residual", "row_sum_error",
               "adjoint_unique", "convergence_rate", "final_error",
               "active_cells"),
    "entropy": ("pressure", "rows", "truncated", "start_points"),
    "pressure": ("pressure", "rows", "truncated", "start_points"),
    "variational": ("pressure", "rows", "all_within", "best_value", "best_gap"),
}


def _finite_rows(path: Path) -> bool:
    with path.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    return bool(rows) and all(math.isfinite(float(v))
                              for row in rows for v in row.values())


def check_report(command: str, out_dir: Path) -> tuple[dict, list[str]]:
    """Read one command's report.json and list every failed check."""
    report = json.loads((out_dir / "report.json").read_text())
    problems = [f"{command}: report.json lacks {key!r}"
                for key in ("command", "version", "config", "results")
                if key not in report]
    if report.get("command") != command:
        problems.append(f"{command}: report names command {report.get('command')!r}")
    results = report.get("results", {})
    missing = [f for f in _RESULT_FIELDS[command] if f not in results]
    if missing:
        problems.append(f"{command}: missing result fields {missing}")
        return results, problems
    if command == "ruelle":
        if abs(results["lambda"] - 5.0) > 1e-6:
            problems.append(f"ruelle: lambda {results['lambda']} is not 5")
        if results["row_sum_error"] > 1e-9:
            problems.append(f"ruelle: row_sum_error {results['row_sum_error']}")
        if results["adjoint_unique"] is not True:
            problems.append("ruelle: adjoint fixed point not unique")
    elif command in ("entropy", "pressure"):
        if not math.isfinite(results["pressure"]):
            problems.append(f"{command}: pressure is not finite")
        if not _finite_rows(out_dir / f"{command}_rows.csv"):
            problems.append(f"{command}: non-finite pressure rows")
    elif command == "variational":
        if not math.isfinite(results["pressure"]):
            problems.append("variational: pressure is not finite")
    return results, problems


def results_digest(results_by_command: dict) -> str:
    """Digest of the results sections, which hold no output paths."""
    blob = json.dumps(results_by_command, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()
