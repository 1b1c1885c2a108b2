"""Batch command-line front end.

Usage: corrdyn <command> --config <file> [--seed N] [--out DIR]

Commands: degrees, orbits, ds-measure, entropy, pressure, ruelle,
variational.  Configuration is a JSON document; every run writes a
deterministic report.json plus flat CSV tables into the output
directory, with wall-clock timings isolated in metadata.json so that
identical configs and seeds reproduce byte-identical result files on
one host class.  numpy's SIMD dispatch can still move the last bits
between CPUs: on an AVX-512 host with numpy 2.4.6, disabling AVX-512
(``NPY_DISABLE_CPU_FEATURES=X86_V4``) moves 22 of the 270 calls of
``tools/output_digest.py``, through ``np.exp``, ``np.arctan2`` /
``np.angle`` and ``np.log``.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .correspondence import Correspondence, expansivity_probe, parse_correspondence
from .errors import (ConfigMismatch, CorrdynError, DegenerateStart,
                     InvalidComponent, NonConvergence, NotConverged,
                     ParseError, PreimageOutsideSupport, TrajectoryEscape)
from .functions import named_function
from .grid import SphereGrid
from .measures import (PathMeasure, SpherePartition, VariationalEntry,
                       check_shift_invariance, empirical_invariant_measure,
                       pushforward, variational_check)
from .paths import ForwardPath, enumerate_backward_paths, enumerate_forward_paths
from .pressure import check_schedule, circle_starts, grid_starts, pressure_estimate
from .pullback import (check_backward_invariance, check_support_bounds, ds_support,
                       pullback_iterate)
from .sphere import SpherePoint, sph_dist
from .transfer import (ActiveGrid, GridFunction, TransferKernel, _HOLDER_BLOCK,
                       adjoint_fixed_point, convergence_check, holder_norm,
                       normalize, power_iteration)

EXIT_CONFIG = 2
EXIT_PRECONDITION = 3
EXIT_NUMERICAL = 4
EXIT_MISMATCH = 5

_DEFAULTS = {
    "n_cells": 2000,
    "seed": 0,
}


class RunConfig:
    """Effective configuration: file values over defaults, CLI overrides."""

    def __init__(self, raw: dict, seed=None, out=None, base_dir: Path | None = None):
        self.base_dir = base_dir or Path.cwd()
        merged = dict(_DEFAULTS)
        merged.update(_object(raw, "config"))
        if seed is not None:
            merged["seed"] = seed
        if out is not None:
            merged["out"] = str(out)
        if "correspondence" not in merged:
            raise ConfigMismatch("config is missing the correspondence path")
        _string(merged["correspondence"], "correspondence")
        _string(merged.setdefault("out", "corrdyn-out"), "out")
        merged["seed"] = _number(merged["seed"], "seed", int)
        self.effective = merged
        self._out: Path | None = None
        self._grid: SphereGrid | None = None

    def __getitem__(self, key):
        return self.effective[key]

    def section(self, name: str) -> dict:
        return _object(self.effective.get(name, {}), name)

    def resolve(self, value) -> Path:
        """A path from the config, relative ones taken from the config's
        directory."""
        path = Path(value)
        return path if path.is_absolute() else self.base_dir / path

    def load_correspondence(self) -> Correspondence:
        return parse_correspondence(
            self.resolve(self.effective["correspondence"]).read_text())

    def grid(self) -> SphereGrid:
        """The grid of the config, built on first use."""
        if self._grid is None:
            self._grid = SphereGrid(_number(self.effective["n_cells"], "n_cells", int))
        return self._grid

    def out_dir(self) -> Path:
        """The output directory, created on first use."""
        if self._out is None:
            path = Path(self.effective["out"])
            path.mkdir(parents=True, exist_ok=True)
            self._out = path
        return self._out


def _number(value, key: str, kind):
    """A number of the config as ``kind`` (int or float).  JSON true and
    false, null, strings, lists and objects are not numbers here, and an
    int key takes only integral numbers."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigMismatch(f"{key} must be a number, got {value!r}")
    if kind is int and isinstance(value, float) and not value.is_integer():
        raise ConfigMismatch(f"{key} must be an integer, got {value!r}")
    return kind(value)


def _string(value, key: str) -> str:
    """A string of the config: a function name or a path."""
    if not isinstance(value, str):
        raise ConfigMismatch(f"{key} must be a string, got {value!r}")
    return value


def _object(value, key: str) -> dict:
    """A JSON object of the config: the config itself or a section."""
    if not isinstance(value, dict):
        raise ConfigMismatch(f"{key} must be an object, got {type(value).__name__}")
    return value


def _point_from_config(value) -> SpherePoint:
    """A point from "inf", a real number or a [re, im] pair of numbers;
    JSON true and false are not numbers here."""
    if value == "inf":
        return SpherePoint.infinity()
    parts = value if isinstance(value, (list, tuple)) else (value, 0.0)
    if len(parts) != 2 or not all(isinstance(x, (int, float)) and not isinstance(x, bool)
                                  for x in parts):
        raise ConfigMismatch(f"cannot read a sphere point from {value!r}")
    point = SpherePoint.from_complex(complex(*parts))
    if not np.isfinite(point.unit_vector()).all():
        raise ValueError(f"sphere point {value!r} is not a point of the sphere")
    return point


def _point_angles(p: SpherePoint):
    x, y, z = p.unit_vector()
    theta = math.acos(max(-1.0, min(1.0, z)))
    phi = math.atan2(y, x) % (2.0 * math.pi)
    return theta, phi


def _write_csv(path: Path, header, rows):
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(v) if type(v) is float
                             else repr(float(v)) if isinstance(v, (float, np.floating))
                             else v for v in row])


def _write_measure_csv(path: Path, measure):
    cells = np.nonzero(measure.weights)[0]
    _write_csv(path, ("cell", "theta", "phi", "weight"),
               zip(cells.tolist(), *measure.grid.center_angles(cells),
                   measure.weights[cells].tolist()))


def _write_paths_csv(path: Path, paths):
    rows = []
    for pid, p in enumerate(paths):
        for step, point in enumerate(p.points):
            theta, phi = _point_angles(point)
            symbol = p.symbols[step - 1] if step >= 1 else ""
            branch = p.branches[step - 1] if step >= 1 else ""
            rows.append((pid, step, float(theta), float(phi), symbol, branch))
    _write_csv(path, ("path", "step", "theta", "phi", "symbol", "branch"), rows)


def _write_cylinders_csv(path: Path, mu: PathMeasure):
    """``_write_csv``'s bytes for the words in lexicographic order and
    their weights, each row formatted from the arrays by one format
    string: no field of a word row needs quoting."""
    flat = mu.words.reshape(len(mu.words), -1)
    order = np.lexsort(flat.T[::-1])
    row = "|".join(["%d:%d"] * mu.words.shape[1]) + ",%r\r\n"
    path.write_text("word,weight\r\n" + "".join(
        row % (*word, weight) for word, weight
        in zip(flat[order].tolist(), mu.weights[order].tolist())), newline="")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _cmd_degrees(config: RunConfig, corr: Correspondence) -> dict:
    d_fwd, d_top, per = corr.degrees()
    report = {
        "components": corr.n_components,
        "d_fwd": d_fwd,
        "d_top": d_top,
        "per_component": [
            {"lambda": lam, "delta": delta, "multiplicity": m}
            for lam, delta, m in per
        ],
    }
    out = config.out_dir()
    _write_csv(out / "degrees.csv",
               ("component", "lambda", "delta", "multiplicity"),
               [(t + 1, lam, delta, m) for t, (lam, delta, m) in enumerate(per)])
    return report


def _cmd_orbits(config: RunConfig, corr: Correspondence) -> dict:
    section = config.section("orbits")
    start = _point_from_config(section.get("start", [0.5, 0.3]))
    depth = _number(section.get("depth", 6), "depth", int)
    cap = _number(section.get("cap", 512), "cap", int)
    direction = section.get("direction", "forward")
    seed = config["seed"]
    if direction == "forward":
        paths, truncated = enumerate_forward_paths(corr, start, depth, cap=cap,
                                                   seed=seed)
    elif direction == "backward":
        paths, truncated = enumerate_backward_paths(corr, start, depth, cap=cap,
                                                    seed=seed)
    else:
        raise ConfigMismatch(f"unknown orbit direction {direction!r}")
    _write_paths_csv(config.out_dir() / "paths.csv", paths)
    return {"direction": direction, "depth": depth, "count": len(paths),
            "truncated": truncated}


def _pullback_stage(config: RunConfig, corr: Correspondence, section: dict,
                    levels_default: int, cap_default: int):
    """The pullback levels and their support, from the start, levels, cap,
    threshold and cert_bound of section, levels and cap defaulting to the
    command's own values."""
    start = _point_from_config(section.get("start", [0.5, 0.3]))
    n = _number(section.get("levels", levels_default), "levels", int)
    cap = _number(section.get("cap", cap_default), "cap", int)
    threshold = _number(section.get("threshold", 0.5), "threshold", float)
    cert_bound = _number(section.get("cert_bound", 0.05), "cert_bound", float)
    check_support_bounds(threshold, cert_bound)  # before the pullback
    levels = pullback_iterate(corr, start, n=n, cap=cap, seed=config["seed"],
                              grid=config.grid())
    return levels, ds_support(levels, threshold=threshold, cert_bound=cert_bound)


def _cmd_ds_measure(config: RunConfig, corr: Correspondence) -> dict:
    section = config.section("ds_measure")
    grid = config.grid()
    samples = _number(section.get("samples", 64), "samples", int)
    if samples < 1:  # before the pullback, which would run in vain
        raise ValueError(f"samples must be at least 1, got {samples}")
    levels, support = _pullback_stage(config, corr, section, 12, 8192)
    invariance = check_backward_invariance(corr, support.cells, grid,
                                           samples=samples, seed=config["seed"])
    if not invariance.passed:
        raise PreimageOutsideSupport(
            f"support is not backward invariant: {invariance.violations} of "
            f"{invariance.total} sampled backward images fell outside its "
            f"one-ring dilation")
    out = config.out_dir()
    _write_measure_csv(out / "final_level.csv", levels[-1])
    _write_csv(out / "support_cells.csv", ("cell",),
               [(c,) for c in sorted(support.cells)])
    return {
        "levels": len(levels) - 1,
        "certificate": support.certificate,
        "support_cells": len(support.cells),
        "core_cells": len(support.core),
        "backward_invariance": {
            "violations": invariance.violations,
            "total": invariance.total,
            "passed": invariance.passed,
        },
    }


def _starts_config(section: dict, config: RunConfig, count: int, schedule: list):
    """The ``count`` start points of a section, drawn with the config seed
    once the start mode, the grid or radius, and then ``schedule`` pass."""
    mode = section.get("starts", "grid")
    if mode == "grid":
        grid = config.grid()
        check_schedule(schedule)
        return grid_starts(grid, count, config["seed"])
    if mode == "circle":
        radius = _number(section.get("radius", 1.0), "radius", float)
        if math.isfinite(radius):  # else ``circle_starts`` raises first
            check_schedule(schedule)
        return circle_starts(count, config["seed"], radius)
    raise ConfigMismatch(f"unknown start sampler {mode!r}")


def _pressure_like(config: RunConfig, corr: Correspondence, name: str,
                   section: dict) -> dict:
    """``entropy`` or ``pressure`` from ``section``, the config section of
    that name or variational's inline one.  Entropy is the pressure of
    ``zero``."""
    schedule = section.get("schedule", [[4, 0.05], [8, 0.05]])
    if not isinstance(schedule, list) or not all(
            isinstance(row, list) and len(row) == 2 for row in schedule):
        raise ConfigMismatch(f"schedule must be a list of [n, eps] rows, got "
                             f"{schedule!r}")
    schedule = [(_number(n, "schedule n", int), _number(eps, "schedule eps", float))
                for n, eps in schedule]
    f_label = _string(section.get("f", "zero"), "f") if name == "pressure" else "zero"
    f_fn = named_function(f_label)
    start_points = _number(section.get("start_points", 64), "start_points", int)
    cap = _number(section.get("cap", 4096), "cap", int)
    report = pressure_estimate(corr, f_fn, schedule,
                               _starts_config(section, config, start_points, schedule),
                               seed=config["seed"], cap=cap)
    rows = [(r.n, r.eps, r.sep_value, r.span_value, r.n_paths, r.n_separated,
             r.n_spanning, int(r.truncated)) for r in report.rows]
    _write_csv(config.out_dir() / f"{name}_rows.csv",
               ("n", "eps", "sep_sum", "span_sum", "paths", "sep_count",
                "span_count", "truncated"), rows)
    return {
        "pressure": report.pressure,
        "f": f_label,
        "rows": len(report.rows),
        "truncated": report.truncated,
        "start_points": report.n_starts,
    }


def _nearest_center(active: ActiveGrid, idx: np.ndarray) -> np.ndarray:
    """For each active position in idx, the position of the active center
    nearest to that center by sph_dist, other than itself; of equal
    distances the first in center order wins, as with ``min`` over all
    centers.

    Each distinct position is searched once, its chords to every center
    taken in blocks of ``_HOLDER_BLOCK`` rows by ``np.linalg.norm``'s own
    operations.  The chord between unit vectors is sph_dist up to
    rounding, so scalar sph_dist only ranks the centers where more than
    one lies within 1e-12 of the nearest chord.
    """
    vecs = active._center_vectors
    searched, back = np.unique(idx, return_inverse=True)
    nearest = np.empty(len(searched), dtype=np.int64)
    for lo in range(0, len(searched), _HOLDER_BLOCK):
        rows = searched[lo:lo + _HOLDER_BLOCK]
        d = vecs[None, :, :] - vecs[rows, None, :]
        gaps = np.sqrt(np.add.reduce(d * d, axis=2))
        gaps[np.arange(len(rows)), rows] = np.inf
        near = gaps <= gaps.min(axis=1)[:, None] + 1e-12
        nearest[lo:lo + len(rows)] = near.argmax(axis=1)
        for r in np.flatnonzero(near.sum(axis=1) > 1).tolist():
            center = active.centers[rows[r]]
            nearest[lo + r] = min(np.flatnonzero(near[r]).tolist(),
                                  key=lambda k: sph_dist(center, active.centers[k]))
    return nearest[back]


def _cmd_ruelle(config: RunConfig, corr: Correspondence) -> dict:
    section = config.section("ruelle")
    counts = {key: _number(section.get(key, default), key, int) for key, default in
              (("probe_pairs", 50), ("depth", 2), ("n_max", 40), ("holder_scales", 10),
               ("max_iter", 2000))}
    for key, value in counts.items():
        if value < 1:  # before the pullback, which would run in vain
            raise ValueError(f"{key} must be at least 1, got {value}")
    tol = _number(section.get("tol", 1e-10), "tol", float)
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    f_label = _string(section.get("f", "zero"), "f")
    f_fn = named_function(f_label)
    g_fn = named_function(_string(section.get("convergence_g", "re"), "convergence_g"))
    grid = config.grid()
    pb = _object(section.get("pullback", {}), "ruelle pullback")
    _, support = _pullback_stage(config, corr, pb, 10, 4096)
    active = ActiveGrid(grid, support.core)
    kernel = TransferKernel(corr, active)
    f = GridFunction.from_callable(active, f_fn)
    rng = np.random.default_rng(config["seed"])
    first = np.array([rng.integers(active.n_active)
                      for _ in range(counts["probe_pairs"])], dtype=np.int64)
    try:
        probe = expansivity_probe(active.charts, kernel.fibers,
                                  (first, _nearest_center(active, first)))
    except CorrdynError:
        probe = None
    spectral = power_iteration(kernel, f, tol=tol,
                               max_iter=counts["max_iter"],
                               seed=config["seed"], expansivity=probe)
    weights = normalize(f, spectral, kernel)
    adjoint = adjoint_fixed_point(kernel, f, spectral, tol=tol,
                                  seed=config["seed"],
                                  depth=counts["depth"])
    g = GridFunction.from_callable(active, g_fn)
    conv = convergence_check(kernel, f, g, spectral, adjoint.nu,
                             n_max=counts["n_max"])
    invariance = check_shift_invariance(adjoint.mu0, tol=10.0 * tol)
    lam_probe = probe.lambda_estimate if probe and probe.is_expansive else 2.0
    holder = holder_norm(f, lam=min(max(lam_probe, 1.5), 4.0),
                         k_max=counts["holder_scales"])

    out = config.out_dir()
    _write_csv(out / "spectral.csv", ("cell", "theta", "phi", "h", "nu"),
               zip(active.cells, *grid.center_angles(active.cells),
                   spectral.h.values.tolist(),
                   adjoint.nu.weights[list(active.cells)].tolist()))
    _write_csv(out / "convergence.csv", ("n", "error"),
               list(enumerate(conv.errors, start=1)))
    _write_cylinders_csv(out / "mu0_cylinders.csv", adjoint.mu0)
    return {
        "f": f_label,
        "lambda": spectral.lam,
        "iterations": spectral.iterations,
        "residual": spectral.residual,
        "gap_estimate": spectral.gap_estimate,
        "row_sum_error": float(np.abs(weights.row_sums - 1.0).max()),
        "adjoint_unique": adjoint.unique,
        "invariance_defect": invariance.defect,
        "convergence_rate": conv.rate,
        "final_error": conv.errors[-1],
        "expansive": None if probe is None else probe.is_expansive,
        "holder_member": holder.is_member,
        "holder_norm": holder.alpha_norm,
        "active_cells": active.n_active,
    }


def _variational_counts(section: dict) -> dict:
    """The counts of a variational section, checked as the library checks
    them, before any work: the walk checks only when walks run."""
    counts = {key: _number(section.get(key, default), key, int) for key, default in
              (("n_max", 4), ("depth", 4), ("empirical", 2), ("n_burn", 50),
               ("n_keep", 5000))}
    if counts["n_max"] < 1:
        raise ValueError(f"n_max must be at least 1, got {counts['n_max']}")
    if counts["depth"] < 1:
        raise ValueError(f"depth must be at least 1, got {counts['depth']}")
    if counts["empirical"] < 0:
        raise ValueError(f"empirical must be >= 0, got {counts['empirical']}")
    if counts["empirical"] > 0:
        if counts["n_burn"] < 0:
            raise ValueError(f"n_burn must be >= 0, got {counts['n_burn']}")
        if counts["n_keep"] < counts["depth"]:
            raise ValueError(f"n_keep must be at least the cylinder depth, got "
                             f"{counts['n_keep']} < {counts['depth']}")
    return counts


def _variational_entries(config: RunConfig, corr: Correspondence,
                         grid: SphereGrid, section: dict, counts: dict):
    entries = []
    depth = counts["depth"]
    # Dirac path measures at the fixed points of every component.
    for point, _ in corr.fixed_points():
        t = min(range(1, corr.n_components + 1),
                key=lambda t: corr.incidence_residual(point, point, t))
        if corr.incidence_residual(point, point, t) > 1e-8:
            continue
        fiber = corr.forward_images(point)
        branch = min((b for b in fiber.branches if b.component == t),
                     key=lambda b: sph_dist(b.point, point), default=None)
        if branch is None or sph_dist(branch.point, point) > 1e-6:
            continue
        path = ForwardPath((point,) * (depth + 1), (t,) * depth,
                           (branch.branch_index,) * depth)
        mu = PathMeasure.from_paths(grid, [path])
        label = "fixed_inf" if point.is_infinity else f"fixed_{point.to_complex():.3f}"
        entries.append(VariationalEntry(label, pushforward(mu, 0), (mu,)))
    # Empirical invariant measures from random trajectories.
    for k in range(counts["empirical"]):
        mu = empirical_invariant_measure(
            corr, _point_from_config(section.get("start", [0.5, 0.3])),
            n_burn=counts["n_burn"], n_keep=counts["n_keep"],
            depth=depth, seed=config["seed"] + k, grid=grid)
        entries.append(VariationalEntry(f"empirical_{k}", pushforward(mu, 0), (mu,)))
    return entries


def _cmd_variational(config: RunConfig, corr: Correspondence) -> dict:
    section = config.section("variational")
    counts = _variational_counts(section)  # before the pressure run or read
    slack = _number(section.get("slack", 0.05), "slack", float)
    if math.isnan(slack):  # no value is within a NaN slack of the pressure
        raise ValueError(f"slack must be a number, got {slack!r}")
    grid = config.grid()
    f_label = _string(section.get("f", "zero"), "f")
    f_fn = named_function(f_label)
    report_path = section.get("pressure_report")
    if report_path is not None:
        stored = json.loads(config.resolve(_string(report_path, "pressure_report"))
                            .read_text())
        stored = _object(stored, "pressure_report").get("results", {})
        stored_f = _object(stored, "pressure_report results").get("f")
        if stored_f != f_label:
            raise ConfigMismatch(
                f"pressure report was computed with f={stored_f!r}, "
                f"variational config uses f={f_label!r}")
        pressure_value = _number(stored.get("pressure"), "pressure_report results.pressure",
                                 float)
    else:
        sub = dict(_object(section.get("pressure", {}), "variational pressure"))
        if sub.setdefault("f", f_label) != f_label:
            raise ConfigMismatch(
                f"variational pressure f={sub['f']!r} differs from variational "
                f"f={f_label!r}")
        pressure_value = _pressure_like(config, corr, "pressure", sub)["pressure"]

    entries = _variational_entries(config, corr, grid, section, counts)
    partitions = [SpherePartition.trivial(grid),
                  SpherePartition.sectors(grid, 2, 4)]
    report = variational_check(f_fn, entries,
                               pressure_value, partitions=partitions,
                               n_max=counts["n_max"],
                               slack=slack)
    rows = [(r.label, r.entropy, r.integral, r.value, r.gap, int(r.within))
            for r in report.rows]
    _write_csv(config.out_dir() / "variational.csv",
               ("label", "entropy", "integral", "value", "gap", "within"), rows)
    return {
        "f": f_label,
        "pressure": report.pressure,
        "rows": len(report.rows),
        "all_within": report.all_within,
        "best_value": report.best_value,
        "best_gap": report.best_gap,
    }


_PIPELINES = {
    "degrees": _cmd_degrees,
    "orbits": _cmd_orbits,
    "ds-measure": _cmd_ds_measure,
    "entropy": lambda cfg, corr: _pressure_like(cfg, corr, "entropy",
                                                cfg.section("entropy")),
    "pressure": lambda cfg, corr: _pressure_like(cfg, corr, "pressure",
                                                 cfg.section("pressure")),
    "ruelle": _cmd_ruelle,
    "variational": _cmd_variational,
}


def cmd_pipeline(config: RunConfig, command: str) -> dict:
    if command not in _PIPELINES:
        raise ConfigMismatch(f"unknown command {command!r}")
    corr = config.load_correspondence()
    return _PIPELINES[command](config, corr)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _exit_code(err: Exception) -> int:
    if isinstance(err, ConfigMismatch):
        return EXIT_MISMATCH
    if isinstance(err, (ParseError, InvalidComponent)):
        return EXIT_CONFIG
    if isinstance(err, ValueError):
        return EXIT_PRECONDITION
    if isinstance(err, (NonConvergence, NotConverged, DegenerateStart,
                        TrajectoryEscape, PreimageOutsideSupport)):
        return EXIT_NUMERICAL
    return 1


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call of the process."""
    parser = argparse.ArgumentParser(
        prog="corrdyn",
        description="Batch dynamics of holomorphic correspondences")
    parser.add_argument("command", choices=list(_PIPELINES))
    parser.add_argument("--config", required=True, help="JSON configuration file")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    parser.add_argument("--out", default=None, help="output directory")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    started = time.time()
    try:
        config_path = Path(args.config)
        raw = json.loads(config_path.read_text())
        config = RunConfig(raw, seed=args.seed, out=args.out,
                           base_dir=config_path.resolve().parent)
        results = cmd_pipeline(config, args.command)
    except json.JSONDecodeError as err:
        print(f"corrdyn: config parse failure: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as err:
        print(f"corrdyn: cannot read input: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (CorrdynError, ValueError) as err:
        # Other ValueError subclasses (a config that is not UTF-8) keep
        # the generic label.
        name = type(err).__name__ if isinstance(err, CorrdynError) else "ValueError"
        print(f"corrdyn: {name}: {err}", file=sys.stderr)
        return _exit_code(err)

    elapsed = time.time() - started
    out = config.out_dir()
    report = {
        "command": args.command,
        "version": __version__,
        "config": config.effective,
        "results": results,
    }
    (out / "report.json").write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")
    metadata = {
        "started": datetime.fromtimestamp(started, timezone.utc).isoformat(),
        "wall_seconds": elapsed,
    }
    (out / "metadata.json").write_text(json.dumps(metadata, sort_keys=True, indent=2) + "\n")
    print(json.dumps({"command": args.command, **results}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
