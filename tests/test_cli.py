import contextlib
import csv
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import corrdyn
from corrdyn import transfer as transfer_mod
from corrdyn.cli import _point_from_config, _write_cylinders_csv, main
from corrdyn.correspondence import Correspondence, ExpansivityResult, Fiber
from corrdyn.datasets import bundled_text
from corrdyn.grid import SphereGrid
from corrdyn.measures import PathMeasure
from corrdyn.sphere import sph_dist
from corrdyn.transfer import ActiveGrid

DATA = {name: bundled_text(name)
        for name in ("mobius", "z2", "z3", "z2_plus_z3", "mobius_pair")}


@pytest.fixture()
def workspace(tmp_path):
    for name, text in DATA.items():
        (tmp_path / f"{name}.corr").write_text(text)
    return tmp_path


def write_config(workspace, name, payload):
    path = workspace / f"{name}.json"
    payload = dict(payload)
    payload.setdefault("out", str(workspace / f"out_{name}"))
    path.write_text(json.dumps(payload))
    return path


def run(argv):
    return main([str(a) for a in argv])


def read_report(out_dir):
    return json.loads((Path(out_dir) / "report.json").read_text())


class TestDegrees:
    @pytest.mark.parametrize("name,expected", [
        ("mobius", (1, 1)),
        ("z2", (1, 2)),
        ("z3", (1, 3)),
        ("z2_plus_z3", (2, 5)),
    ])
    def test_bundled_degrees(self, workspace, name, expected, capsys):
        cfg = write_config(workspace, f"deg_{name}",
                           {"correspondence": f"{name}.corr"})
        assert run(["degrees", "--config", cfg]) == 0
        out = json.loads(capsys.readouterr().out)
        assert (out["d_fwd"], out["d_top"]) == expected

    def test_malformed_file(self, workspace):
        (workspace / "broken.corr").write_text("1\n0 1 1\n")
        cfg = write_config(workspace, "broken", {"correspondence": "broken.corr"})
        assert run(["degrees", "--config", cfg]) == 2

    def test_missing_file(self, workspace):
        cfg = write_config(workspace, "missing", {"correspondence": "nope.corr"})
        assert run(["degrees", "--config", cfg]) == 2


class TestPipelines:
    def test_orbits(self, workspace):
        out = workspace / "orbits_out"
        cfg = write_config(workspace, "orbits", {
            "correspondence": "mobius_pair.corr",
            "orbits": {"start": [0.0, 0.0], "depth": 3, "cap": 64},
            "out": str(out),
        })
        assert run(["orbits", "--config", cfg]) == 0
        report = read_report(out)
        assert report["results"]["count"] == 8
        assert (out / "paths.csv").exists()

    def test_backward_orbits(self, workspace):
        out = workspace / "orbits_back"
        cfg = write_config(workspace, "orbitsb", {
            "correspondence": "z2.corr",
            "orbits": {"start": [16.0, 0.0], "depth": 2, "cap": 16,
                       "direction": "backward"},
            "out": str(out),
        })
        assert run(["orbits", "--config", cfg]) == 0
        assert read_report(out)["results"]["count"] == 4

    def test_ds_measure_and_reproducibility(self, workspace):
        out1 = workspace / "ds1"
        out2 = workspace / "ds2"
        cfg = write_config(workspace, "ds", {
            "correspondence": "z2.corr",
            "n_cells": 1000,
            "ds_measure": {"start": [0.5, 0.3], "levels": 10, "cap": 4096},
            "out": str(out1),
        })
        assert run(["ds-measure", "--config", cfg]) == 0
        assert run(["ds-measure", "--config", cfg, "--out", out2]) == 0
        report = read_report(out1)
        assert report["results"]["certificate"] <= 0.05
        assert report["results"]["backward_invariance"]["passed"]
        body1 = (out1 / "final_level.csv").read_bytes()
        body2 = (out2 / "final_level.csv").read_bytes()
        assert body1 == body2
        cells1 = (out1 / "support_cells.csv").read_bytes()
        cells2 = (out2 / "support_cells.csv").read_bytes()
        assert cells1 == cells2

    def test_ds_measure_from_tiny_start(self, workspace):
        # The start's fiber z^3 = 1e-300 has roots near 1e-100, which the
        # scalar root iteration reaches only after rescaling.
        out = workspace / "ds_tiny"
        cfg = write_config(workspace, "ds_tiny", {
            "correspondence": "z3.corr",
            "n_cells": 2000,
            "ds_measure": {"start": [1e-300, 0.0], "levels": 12, "cap": 8192,
                           "threshold": 0.5},
            "out": str(out),
        })
        assert run(["ds-measure", "--config", cfg]) == 0
        results = read_report(out)["results"]
        assert results["certificate"] <= 0.05
        assert results["backward_invariance"]["passed"]

    def test_ds_measure_fails_on_invariance_violations(self, workspace, capsys):
        # Three levels from next to the critical value 0 leave a support
        # whose sampled backward images all fall outside its one-ring.
        out = workspace / "ds_shallow"
        cfg = write_config(workspace, "ds_shallow", {
            "correspondence": "z3.corr",
            "n_cells": 2000,
            "ds_measure": {"start": [1e-13, 0.0], "levels": 3, "cap": 8192,
                           "threshold": 0.5},
            "out": str(out),
        })
        assert run(["ds-measure", "--config", cfg, "--seed", "0"]) == 4
        err = capsys.readouterr().err
        assert "PreimageOutsideSupport" in err and "192 of 192" in err
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("samples", [0, -3])
    def test_ds_measure_rejects_bad_samples(self, workspace, samples, capsys):
        out = workspace / "ds_samples"
        cfg = write_config(workspace, "ds_samples", {
            "correspondence": "z2.corr",
            "n_cells": 1000,
            "ds_measure": {"start": [0.5, 0.3], "levels": 10, "cap": 4096,
                           "samples": samples},
            "out": str(out),
        })
        assert run(["ds-measure", "--config", cfg]) == 3
        assert f"samples must be at least 1, got {samples}" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("samples", [0, -3])
    def test_ds_measure_checks_samples_before_pullback(self, workspace, samples,
                                                       capsys, monkeypatch):
        def pullback_iterate(*args, **kwargs):
            raise AssertionError("pullback ran before the samples check")

        monkeypatch.setattr("corrdyn.cli.pullback_iterate", pullback_iterate)
        cfg = write_config(workspace, "ds_early", {
            "correspondence": "z2.corr",
            "ds_measure": {"levels": 10, "samples": samples},
        })
        assert run(["ds-measure", "--config", cfg]) == 3
        assert f"samples must be at least 1, got {samples}" in capsys.readouterr().err

    def test_ds_measure_degenerate_start_exits_4(self, workspace, monkeypatch, capsys):
        monkeypatch.setattr(Correspondence, "backward_images",
                            lambda self, y: Fiber((), degenerate=True))
        out = workspace / "ds_degenerate"
        cfg = write_config(workspace, "ds_degenerate", {
            "correspondence": "z2.corr",
            "ds_measure": {"levels": 4},
            "out": str(out),
        })
        assert run(["ds-measure", "--config", cfg]) == 4
        assert "DegenerateStart: no generic start found" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    def test_ds_measure_rejects_mobius(self, workspace):
        cfg = write_config(workspace, "dsmob", {
            "correspondence": "mobius.corr",
            "ds_measure": {"start": [0.5, 0.3], "levels": 4},
        })
        assert run(["ds-measure", "--config", cfg]) == 3

    def test_entropy_on_pair(self, workspace):
        out = workspace / "ent_out"
        cfg = write_config(workspace, "ent", {
            "correspondence": "mobius_pair.corr",
            "entropy": {"schedule": [[4, 0.05], [8, 0.05]], "start_points": 1,
                        "cap": 512},
            "out": str(out),
        })
        assert run(["entropy", "--config", cfg]) == 0
        report = read_report(out)
        assert abs(report["results"]["pressure"] - math.log(2)) < 0.05
        assert (out / "entropy_rows.csv").exists()

    def test_ruelle_pipeline(self, workspace):
        out = workspace / "ruelle_out"
        cfg = write_config(workspace, "ruelle", {
            "correspondence": "z2.corr",
            "n_cells": 1000,
            "ruelle": {"f": "zero", "tol": 1e-9, "n_max": 20,
                       "pullback": {"start": [0.5, 0.3], "levels": 10,
                                    "cap": 4096}},
            "out": str(out),
        })
        assert run(["ruelle", "--config", cfg]) == 0
        report = read_report(out)
        assert report["results"]["lambda"] == pytest.approx(2.0, abs=1e-6)
        assert report["results"]["adjoint_unique"]
        assert report["results"]["expansive"]
        assert report["results"]["holder_member"]
        assert (out / "spectral.csv").exists()
        assert (out / "convergence.csv").exists()

    def test_variational_runs(self, workspace, monkeypatch):
        out = workspace / "var_out"
        made = []
        mkdir = Path.mkdir

        def counted_mkdir(path, *args, **kwargs):
            made.append(path)
            return mkdir(path, *args, **kwargs)
        monkeypatch.setattr(Path, "mkdir", counted_mkdir)
        cfg = write_config(workspace, "var", {
            "correspondence": "mobius_pair.corr",
            "n_cells": 400,
            "variational": {"f": "zero", "depth": 3,
                            "empirical": 1, "n_keep": 2000, "start": [1.0, 0.0],
                            "pressure": {"schedule": [[4, 0.05], [6, 0.05]],
                                         "start_points": 1, "cap": 256}},
            "out": str(out),
        })
        assert run(["variational", "--config", cfg]) == 0
        # The inner pressure run writes to the same directory, made once.
        assert made == [out]
        report = read_report(out)
        assert report["results"]["rows"] >= 3
        assert report["results"]["all_within"]
        assert (out / "variational.csv").exists()

    @pytest.mark.parametrize("key,value", [("n_max", 0), ("n_max", -1),
                                           ("n_burn", -3), ("n_burn", -300)])
    def test_variational_rejects_bad_counts(self, workspace, key, value, capsys):
        # n_max 0 gave every row entropy 0.0; a negative n_burn wrapped the
        # window to the end of the walk (exit 0), or past its start (exit 1).
        out = workspace / "var_bad"
        cfg = write_config(workspace, "var_bad", {
            "correspondence": "z2.corr",
            "n_cells": 400,
            "variational": {"f": "zero", "depth": 4, "empirical": 1,
                            "n_keep": 200, key: value,
                            "pressure": {"schedule": [[4, 0.05]],
                                         "start_points": 4, "cap": 64}},
            "out": str(out),
        })
        assert run(["variational", "--config", cfg]) == 3
        message = ("n_max must be at least 1" if key == "n_max"
                   else "n_burn must be >= 0")
        assert f"{message}, got {value}" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("counts,message", [
        ({"n_max": 0}, "n_max must be at least 1, got 0"),
        ({"n_max": -1}, "n_max must be at least 1, got -1"),
        ({"n_burn": -3}, "n_burn must be >= 0, got -3"),
        ({"depth": 0, "empirical": 0}, "depth must be at least 1, got 0"),
        ({"n_keep": 3}, "n_keep must be at least the cylinder depth, got 3 < 4"),
        ({"empirical": -1}, "empirical must be >= 0, got -1")])
    @pytest.mark.parametrize("stored", [False, True])
    def test_variational_checks_counts_before_pressure(self, workspace, counts, message,
                                                       stored, capsys, monkeypatch):
        # Neither the inner pressure estimate nor the stored report (which
        # does not exist) is reached.
        def pressure_estimate(*args, **kwargs):
            raise AssertionError("pressure ran before the count check")

        monkeypatch.setattr("corrdyn.cli.pressure_estimate", pressure_estimate)
        section = {"f": "zero", "depth": 4, "empirical": 1, "n_keep": 200, **counts}
        if stored:
            section["pressure_report"] = str(workspace / "no_such_report.json")
        cfg = write_config(workspace, "var_early", {"correspondence": "z2.corr",
                                                    "variational": section})
        assert run(["variational", "--config", cfg]) == 3
        assert message in capsys.readouterr().err

    def test_variational_walk_counts_need_walks(self, workspace):
        # Without walks, n_burn and n_keep are not used, so not checked.
        cfg = write_config(workspace, "var_nowalk", {
            "correspondence": "z2.corr",
            "n_cells": 400,
            "variational": {"f": "zero", "depth": 4, "empirical": 0,
                            "n_burn": -3, "n_keep": 1,
                            "pressure": {"schedule": [[4, 0.05]],
                                         "start_points": 4, "cap": 64}},
            "out": str(workspace / "var_nowalk"),
        })
        assert run(["variational", "--config", cfg]) == 0

    def test_variational_rejects_negative_empirical(self, workspace, capsys):
        # range(-1) ran no walk: z2 exited 0 with the fixed-point rows alone.
        out = workspace / "var_negative"
        cfg = write_config(workspace, "var_negative", {
            "correspondence": "z2.corr",
            "n_cells": 400,
            "variational": {"f": "zero", "depth": 4, "empirical": -1,
                            "pressure": {"schedule": [[4, 0.05]],
                                         "start_points": 4, "cap": 64}},
            "out": str(out),
        })
        assert run(["variational", "--config", cfg]) == 3
        assert "empirical must be >= 0, got -1" in capsys.readouterr().err
        assert not (out / "variational.csv").exists()
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("key", ["n_max", "holder_scales", "depth", "probe_pairs"])
    @pytest.mark.parametrize("value", [0, -2])
    def test_ruelle_checks_counts_before_pullback(self, workspace, key, value,
                                                  capsys, monkeypatch):
        def pullback_iterate(*args, **kwargs):
            raise AssertionError(f"pullback ran before the {key} check")

        monkeypatch.setattr("corrdyn.cli.pullback_iterate", pullback_iterate)
        cfg = write_config(workspace, "ruelle_early", {
            "correspondence": "z2.corr",
            "ruelle": {key: value},
        })
        assert run(["ruelle", "--config", cfg]) == 3
        assert f"{key} must be at least 1, got {value}" in capsys.readouterr().err

    @pytest.mark.parametrize("setting,message", [
        ({"tol": -1}, "tol must be positive and finite, got -1.0"),
        ({"tol": 0}, "tol must be positive and finite, got 0.0"),
        ({"tol": math.nan}, "tol must be positive and finite, got nan"),
        ({"tol": math.inf}, "tol must be positive and finite, got inf"),
        ({"max_iter": 0}, "max_iter must be at least 1, got 0")])
    def test_ruelle_checks_iteration_before_pullback(self, workspace, setting, message,
                                                     capsys, monkeypatch):
        # These ran the whole pullback and every power step, then exited 4.
        def pullback_iterate(*args, **kwargs):
            raise AssertionError("pullback ran before the iteration check")

        monkeypatch.setattr("corrdyn.cli.pullback_iterate", pullback_iterate)
        cfg = write_config(workspace, "ruelle_iter", {
            "correspondence": "z2.corr",
            "ruelle": setting,
        })
        assert run(["ruelle", "--config", cfg]) == 3
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["f", "convergence_g"])
    def test_ruelle_checks_functions_before_pullback(self, workspace, key, capsys,
                                                     monkeypatch):
        def pullback_iterate(*args, **kwargs):
            raise AssertionError(f"pullback ran before the {key} check")

        monkeypatch.setattr("corrdyn.cli.pullback_iterate", pullback_iterate)
        cfg = write_config(workspace, "ruelle_fn", {
            "correspondence": "z2.corr",
            "ruelle": {key: "bogus"},
        })
        assert run(["ruelle", "--config", cfg]) == 3
        assert "unknown function spec 'bogus'" in capsys.readouterr().err

    def test_variational_mismatched_f(self, workspace):
        out = workspace / "var_pr"
        cfg = write_config(workspace, "varpr", {
            "correspondence": "mobius_pair.corr",
            "pressure": {"f": "re", "schedule": [[4, 0.05]], "start_points": 1},
            "out": str(out),
        })
        assert run(["pressure", "--config", cfg]) == 0
        cfg2 = write_config(workspace, "varmis", {
            "correspondence": "mobius_pair.corr",
            "variational": {"f": "zero",
                            "pressure_report": str(out / "report.json")},
        })
        assert run(["variational", "--config", cfg2]) == 5

    def test_variational_relative_pressure_report(self, workspace, tmp_path_factory,
                                                  monkeypatch):
        # A relative pressure_report is read from the config's directory,
        # like the correspondence path, whatever the working directory.
        cfg = write_config(workspace, "relpr", {
            "correspondence": "mobius_pair.corr",
            "pressure": {"f": "zero", "schedule": [[4, 0.05]], "start_points": 1},
            "out": str(workspace / "relpr_out"),
        })
        assert run(["pressure", "--config", cfg]) == 0
        out = workspace / "relvar_out"
        cfg2 = write_config(workspace, "relvar", {
            "correspondence": "mobius_pair.corr",
            "n_cells": 400,
            "variational": {"f": "zero", "depth": 3, "empirical": 1,
                            "n_keep": 2000, "start": [1.0, 0.0],
                            "pressure_report": "relpr_out/report.json"},
            "out": str(out),
        })
        monkeypatch.chdir(tmp_path_factory.mktemp("elsewhere"))
        assert run(["variational", "--config", cfg2]) == 0
        stored = read_report(workspace / "relpr_out")["results"]["pressure"]
        assert read_report(out)["results"]["pressure"] == stored


class TestReportHygiene:
    def test_reports_echo_config_and_version(self, workspace):
        out = workspace / "echo_out"
        cfg = write_config(workspace, "echo", {
            "correspondence": "z2.corr",
            "out": str(out),
        })
        assert run(["degrees", "--config", cfg]) == 0
        report = read_report(out)
        assert report["version"]
        assert report["config"]["correspondence"] == "z2.corr"
        assert report["config"]["seed"] == 0
        assert report["config"]["n_cells"] == 2000
        meta = json.loads((out / "metadata.json").read_text())
        assert "wall_seconds" in meta

    def test_seed_override_changes_effective_config(self, workspace):
        out = workspace / "seed_out"
        cfg = write_config(workspace, "seed", {
            "correspondence": "mobius_pair.corr",
            "orbits": {"start": [0.0, 0.0], "depth": 2},
            "out": str(out),
        })
        assert run(["orbits", "--config", cfg, "--seed", 99]) == 0
        assert read_report(out)["config"]["seed"] == 99

    def test_report_json_deterministic(self, workspace):
        out1 = workspace / "det1"
        out2 = workspace / "det2"
        cfg = write_config(workspace, "det", {
            "correspondence": "mobius_pair.corr",
            "entropy": {"schedule": [[3, 0.05]], "start_points": 4, "cap": 64},
            "out": str(out1),
        })
        assert run(["entropy", "--config", cfg]) == 0
        shutil.copy(out1 / "report.json", workspace / "first.json")
        assert run(["entropy", "--config", cfg]) == 0
        first = (workspace / "first.json").read_bytes()
        again = (out1 / "report.json").read_bytes()
        assert first == again
        assert run(["entropy", "--config", cfg, "--out", out2]) == 0
        rows1 = (out1 / "entropy_rows.csv").read_bytes()
        rows2 = (out2 / "entropy_rows.csv").read_bytes()
        assert rows1 == rows2

    @pytest.mark.parametrize("schedule", [
        [[4, 0.05], [8, math.nan]],
        [[4, math.nan], [8, math.nan]],
        [[4, 0.05], [8, math.inf]],
    ])
    def test_non_finite_eps_exits_3(self, workspace, schedule, capsys):
        out = workspace / "nan_eps"
        cfg = write_config(workspace, "nan_eps", {
            "correspondence": "z2.corr",
            "entropy": {"schedule": schedule, "start_points": 4, "cap": 64},
            "out": str(out),
        })
        assert run(["entropy", "--config", cfg]) == 3
        assert "invalid schedule row" in capsys.readouterr().err
        assert not (out / "entropy_rows.csv").exists()

    @pytest.mark.parametrize("command", ["pressure", "variational"])
    def test_non_finite_constant_exits_3(self, workspace, command, capsys):
        out = workspace / f"nan_f_{command}"
        small = {"schedule": [[4, 0.05]], "start_points": 4}
        cfg = write_config(workspace, f"nan_f_{command}", {
            "correspondence": "z2.corr",
            "n_cells": 400,
            "pressure": {"f": "const:nan", **small},
            "variational": {"f": "const:nan", "pressure": small},
            "out": str(out),
        })
        assert run([command, "--config", cfg]) == 3
        assert "const:nan" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("start", [[math.nan, 0.3], [math.inf, math.inf]])
    def test_non_finite_start_exits_3(self, workspace, start, capsys):
        out = workspace / "nan_start"
        cfg = write_config(workspace, "nan_start", {
            "correspondence": "z2.corr",
            "orbits": {"start": start, "depth": 2, "direction": "forward"},
            "out": str(out),
        })
        assert run(["orbits", "--config", cfg]) == 3
        assert repr(start) in capsys.readouterr().err
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("command", ["entropy", "pressure"])
    @pytest.mark.parametrize("key,value,message", [
        ("radius", math.nan, "circle radius must be finite, got nan"),
        ("radius", math.inf, "circle radius must be finite, got inf"),
        ("start_points", 0, "start_points must be at least 1, got 0"),
        ("start_points", -2, "start_points must be at least 1, got -2")])
    def test_bad_start_sample_exits_3(self, workspace, command, key, value, message,
                                      capsys):
        out = workspace / "bad_starts"
        section = {"schedule": [[4, 0.05]], "starts": "circle", "start_points": 4,
                   key: value}
        cfg = write_config(workspace, "bad_starts", {
            "correspondence": "z2.corr",
            "n_cells": 400,
            command: section,
            "out": str(out),
        })
        assert run([command, "--config", cfg]) == 3
        assert message in capsys.readouterr().err
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("starts,code,message", [
        ({"starts": "spiral", "start_points": 0}, 5, "unknown start sampler 'spiral'"),
        ({"starts": "circle", "radius": math.nan, "start_points": 0}, 3,
         "circle radius must be finite, got nan"),
        ({"starts": "circle", "start_points": 0}, 3, "BAD_SCHEDULE"),
        ({"starts": "grid", "start_points": -2}, 3, "BAD_SCHEDULE")])
    @pytest.mark.parametrize("schedule,schedule_message", [
        ([], "schedule must contain at least one (n, eps) row"),
        ([[0, 0.05]], "invalid schedule row (0, 0.05)")])
    def test_start_checks_around_schedule_check(self, workspace, starts, code, message,
                                                schedule, schedule_message, capsys):
        """The start mode and radius are checked before the schedule, the
        start count after it."""
        out = workspace / "order"
        cfg = write_config(workspace, "order", {
            "correspondence": "z2.corr",
            "n_cells": 400,
            "entropy": {"schedule": schedule, **starts},
            "out": str(out),
        })
        assert run(["entropy", "--config", cfg]) == code
        want = schedule_message if message == "BAD_SCHEDULE" else message
        assert want in capsys.readouterr().err
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("start", [["a", "b"], [1, None], [True, 0], [0, False],
                                       True, None, "1", [0.5], [0.5, 0.3, 0.0]])
    def test_start_that_is_not_numbers_exits_5(self, workspace, start, capsys):
        out = workspace / "text_start"
        cfg = write_config(workspace, "text_start", {
            "correspondence": "z2.corr",
            "orbits": {"start": start, "depth": 2, "direction": "forward"},
            "out": str(out),
        })
        assert run(["orbits", "--config", cfg]) == 5
        assert f"cannot read a sphere point from {start!r}" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("command,setting,message", [
        ("orbits", {"orbits": {"depth": [2]}}, "depth must be a number, got [2]"),
        ("orbits", {"orbits": {"cap": True}}, "cap must be a number, got True"),
        ("orbits", {"orbits": {"depth": 2.5}}, "depth must be an integer, got 2.5"),
        ("orbits", {"seed": 1.5}, "seed must be an integer, got 1.5"),
        ("ds-measure", {"n_cells": [400]}, "n_cells must be a number, got [400]"),
        ("ds-measure", {"ds_measure": {"levels": "3"}}, "levels must be a number, got '3'"),
        ("ds-measure", {"ds_measure": {"threshold": None}},
         "threshold must be a number, got None"),
        ("ds-measure", {"ds_measure": {"samples": {"n": 3}}},
         "samples must be a number, got {'n': 3}"),
        ("entropy", {"entropy": {"start_points": False}},
         "start_points must be a number, got False"),
        ("entropy", {"entropy": {"schedule": [[4.5, 0.05]]}},
         "schedule n must be an integer, got 4.5"),
        ("entropy", {"entropy": {"schedule": [4, 0.05]}},
         "schedule must be a list of [n, eps] rows, got [4, 0.05]"),
        ("pressure", {"pressure": {"cap": [64]}}, "cap must be a number, got [64]"),
        ("pressure", {"pressure": {"starts": "circle", "radius": "1"}},
         "radius must be a number, got '1'"),
        ("ruelle", {"ruelle": {"tol": [1e-10]}}, "tol must be a number, got [1e-10]"),
        ("ruelle", {"ruelle": {"depth": 2.5}}, "depth must be an integer, got 2.5"),
        ("ruelle", {"ruelle": {"pullback": {"levels": True}}},
         "levels must be a number, got True"),
        ("ruelle", {"ruelle": {"pullback": {"cap": None}}}, "cap must be a number, got None"),
        ("ruelle", {"ruelle": {"pullback": [6]}}, "ruelle pullback must be an object"),
        ("variational", {"variational": {"n_keep": "5000"}},
         "n_keep must be a number, got '5000'"),
        ("variational", {"variational": {"slack": [0.05]}},
         "slack must be a number, got [0.05]")])
    def test_number_that_is_not_a_number_exits_5(self, workspace, command, setting,
                                                 message, capsys, monkeypatch):
        # A list died with a TypeError (exit 1); true was read as 1, 2.5 as 2.
        def refuse(*args, **kwargs):
            raise AssertionError("work ran before the config check")

        for name in ("pullback_iterate", "pressure_estimate",
                     "enumerate_backward_paths", "enumerate_forward_paths"):
            monkeypatch.setattr(f"corrdyn.cli.{name}", refuse)
        out = workspace / "not_a_number"
        cfg = write_config(workspace, "not_a_number", {
            "correspondence": "z2.corr", **setting, "out": str(out)})
        assert run([command, "--config", cfg]) == 5
        assert message in capsys.readouterr().err
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("command,config,files,message", [
        ("variational", {"variational": {"pressure": [1]}}, {},
         "variational pressure must be an object, got list"),
        ("pressure", {"pressure": {"f": ["re"]}}, {}, "f must be a string, got ['re']"),
        ("ruelle", {"ruelle": {"convergence_g": 3}}, {},
         "convergence_g must be a string, got 3"),
        ("variational", {"variational": {"f": None}}, {}, "f must be a string, got None"),
        ("variational", {"variational": {"pressure_report": 5}}, {},
         "pressure_report must be a string, got 5"),
        ("ds-measure", {"correspondence": 5}, {}, "correspondence must be a string, got 5"),
        ("ds-measure", [1, 2], {}, "config must be an object, got list"),
        ("variational", {"variational": {"pressure_report": "listed.json"}},
         {"listed.json": [1, 2]}, "pressure_report must be an object, got list"),
        ("variational", {"variational": {"f": "zero", "pressure": {"f": "const:5"}}}, {},
         "variational pressure f='const:5' differs from variational f='zero'"),
        ("variational", {"variational": {"pressure_report": "ruelle.json"}},
         {"ruelle.json": {"command": "ruelle", "results": {"f": "zero", "lambda": 2.0}}},
         "pressure_report results.pressure must be a number, got None"),
        ("pressure", {"out": 5}, {}, "out must be a string, got 5"),
        ("pressure", {"out": []}, {}, "out must be a string, got []"),
        ("pressure", {"out": None}, {}, "out must be a string, got None"),
        ("pressure", {"out": True}, {}, "out must be a string, got True")])
    def test_config_value_of_the_wrong_type_exits_5(self, workspace, command, config,
                                                    files, message, capsys, monkeypatch):
        # Each died with a traceback and exit 1, except the inline pressure
        # f, which ran with it and exited 0.
        def refuse(*args, **kwargs):
            raise AssertionError("work ran before the config check")

        for name in ("pullback_iterate", "pressure_estimate"):
            monkeypatch.setattr(f"corrdyn.cli.{name}", refuse)
        monkeypatch.chdir(workspace)  # a list config writes to corrdyn-out here
        for name, payload in files.items():
            (workspace / name).write_text(json.dumps(payload))
        if isinstance(config, dict):
            config = {"correspondence": "z2.corr", "n_cells": 400,
                      "out": str(workspace / "wrong_type"), **config}
        cfg = workspace / "wrong_type.json"
        cfg.write_text(json.dumps(config))
        assert run([command, "--config", cfg]) == 5
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err
        assert not list(workspace.rglob("report.json"))
        assert not (workspace / "wrong_type").exists()
        assert not (workspace / "corrdyn-out").exists()

    @pytest.mark.parametrize("command,setting,key", [
        ("ds-measure", {"ds_measure": {"cert_bound": math.nan}}, "cert_bound"),
        ("ds-measure", {"ds_measure": {"threshold": math.nan}}, "threshold"),
        ("ruelle", {"ruelle": {"pullback": {"levels": 2, "cert_bound": math.nan}}},
         "cert_bound"),
        ("ruelle", {"ruelle": {"pullback": {"threshold": math.nan}}}, "threshold"),
        ("variational", {"variational": {"slack": math.nan}}, "slack")])
    def test_nan_bound_exits_3(self, workspace, command, setting, key, capsys,
                               monkeypatch):
        # JSON reads NaN, and no certificate or value compares above it: z2
        # ruelle at pullback levels 2 stops at NotConverged under the bound
        # 0.05, and passed the gate under NaN.
        def refuse(*args, **kwargs):
            raise AssertionError("work ran before the config check")

        for name in ("pullback_iterate", "pressure_estimate"):
            monkeypatch.setattr(f"corrdyn.cli.{name}", refuse)
        out = workspace / "nan_bound"
        cfg = write_config(workspace, "nan_bound", {
            "correspondence": "z2.corr", "n_cells": 400, **setting, "out": str(out)})
        assert run([command, "--config", cfg]) == 3
        assert f"{key} must be a number, got nan" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    def test_levels_two_not_converged(self, workspace, capsys):
        # The gate of test_nan_bound_exits_3 fires under a numeric bound.
        cfg = write_config(workspace, "two_levels", {
            "correspondence": "z2.corr", "n_cells": 400,
            "ruelle": {"pullback": {"levels": 2, "cert_bound": 0.05}}})
        assert run(["ruelle", "--config", cfg]) == 4
        assert "NotConverged: last levels differ by" in capsys.readouterr().err

    @pytest.mark.parametrize("command,setting", [
        ("ds-measure", {"ds_measure": {"cap": 0}}),
        ("ruelle", {"ruelle": {"pullback": {"cap": 0}}})])
    def test_pullback_cap_below_one_exits_3(self, workspace, command, setting, capsys):
        # These died in the thinning with a ZeroDivisionError and exit 1.
        out = workspace / "cap0"
        cfg = write_config(workspace, "cap0", {
            "correspondence": "z2.corr", "n_cells": 400, **setting, "out": str(out)})
        assert run([command, "--config", cfg]) == 3
        err = capsys.readouterr().err
        assert "cap must be at least 1, got 0" in err
        assert "Traceback" not in err
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("command", ["orbits", "pressure", "ds-measure"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_coefficient_exits_2(self, workspace, command, value, capsys):
        # With "0 0 nan 0" orbits and pressure exited 0 (NaN angles, a
        # report.json holding NaN) and ds-measure 3; "inf" likewise.
        text = DATA["z2"] + f"0 0 {value} 0\n"
        line = text.splitlines().index(f"0 0 {value} 0") + 1
        (workspace / "non_finite.corr").write_text(text)
        out = workspace / "non_finite"
        cfg = write_config(workspace, "non_finite", {
            "correspondence": "non_finite.corr", "n_cells": 400, "out": str(out)})
        assert run([command, "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert f"line {line}: coefficient is not finite" in err
        assert "Traceback" not in err
        assert not (out / "report.json").exists()

    def test_integral_floats_are_integers(self, workspace):
        out = workspace / "float_counts"
        cfg = write_config(workspace, "float_counts", {
            "correspondence": "z2.corr", "seed": 3.0,
            "orbits": {"depth": 2.0, "cap": 64.0, "direction": "backward"},
            "out": str(out)})
        assert run(["orbits", "--config", cfg]) == 0
        report = read_report(out)
        assert report["results"]["count"] == 4
        assert report["config"]["seed"] == 3

    @pytest.mark.parametrize("start", ["inf", math.inf, [math.inf, 0.3],
                                       [0.3, -math.inf]])
    def test_infinite_start_is_the_point_at_infinity(self, start):
        assert _point_from_config(start).unit_vector().tolist() == [0.0, 0.0, 1.0]

    def test_csv_cells_parse(self, workspace):
        # Every cell is an int or a float, except the documented string columns.
        out = workspace / "var_csv"
        cfg = write_config(workspace, "var_csv", {
            "correspondence": "z2.corr",
            "n_cells": 400,
            "variational": {"f": "zero", "depth": 3, "empirical": 1,
                            "n_keep": 2000, "start": [0.5, 0.3],
                            "pressure": {"schedule": [[4, 0.05]],
                                         "start_points": 8}},
            "out": str(out),
        })
        assert run(["variational", "--config", cfg]) == 0
        strings = {"variational.csv": {"label"}}
        files = sorted(out.glob("*.csv"))
        assert {f.name for f in files} >= {"variational.csv", "pressure_rows.csv"}
        for path in files:
            with path.open(newline="") as fh:
                rows = list(csv.reader(fh))
            header = rows[0]
            assert len(rows) > 1
            for row in rows[1:]:
                assert len(row) == len(header)
                for column, cell in zip(header, row):
                    if column in strings.get(path.name, ()):
                        continue
                    try:
                        int(cell)
                    except ValueError:
                        float(cell)


#: Small values for every key of each config section, so that each run
#: is quick; each differs from the CLI's default for its key.
SMALL_SECTIONS = {
    "orbits": {"start": [0.2, 0.1], "depth": 3, "cap": 16, "direction": "backward"},
    "ds_measure": {"samples": 8, "start": [0.6, 0.2], "levels": 8, "cap": 256,
                   "threshold": 0.4, "cert_bound": 0.1},
    "entropy": {"schedule": [[2, 0.1], [3, 0.1]], "start_points": 4, "cap": 16,
                "starts": "circle", "radius": 0.9},
    "pressure": {"f": "re", "schedule": [[2, 0.1], [3, 0.1]], "start_points": 4,
                 "cap": 16, "starts": "circle", "radius": 0.9},
    "ruelle": {"probe_pairs": 5, "depth": 1, "n_max": 5, "holder_scales": 3,
               "max_iter": 500, "tol": 1e-8, "f": "re", "convergence_g": "im",
               "pullback": {"start": [0.6, 0.2], "levels": 8, "cap": 512,
                            "threshold": 0.4, "cert_bound": 0.1}},
    "variational": {"n_max": 2, "depth": 2, "empirical": 1, "n_burn": 5,
                    "n_keep": 200, "slack": 0.1, "f": "re", "start": [0.2, 0.1],
                    "pressure": {"schedule": [[2, 0.1]], "start_points": 4, "cap": 16,
                                 "starts": "circle", "radius": 0.9}},
}

_PULLBACK_DEFAULTS = {"start": [0.5, 0.3], "threshold": 0.5, "cert_bound": 0.05}
_STARTS_DEFAULTS = {"schedule": [[4, 0.05], [8, 0.05]], "start_points": 64,
                    "cap": 4096, "starts": "grid", "radius": 1.0}

#: (command, correspondence, path of the config section, the CLI's default
#: of each key of that section).
CLI_DEFAULTS = [
    ("orbits", "z2_plus_z3", ("orbits",),
     {"start": [0.5, 0.3], "depth": 6, "cap": 512, "direction": "forward"}),
    ("ds-measure", "z2", ("ds_measure",),
     {"samples": 64, "levels": 12, "cap": 8192, **_PULLBACK_DEFAULTS}),
    ("entropy", "z2", ("entropy",), _STARTS_DEFAULTS),
    ("pressure", "z2", ("pressure",), {"f": "zero", **_STARTS_DEFAULTS}),
    ("ruelle", "z2", ("ruelle",),
     {"probe_pairs": 50, "depth": 2, "n_max": 40, "holder_scales": 10,
      "max_iter": 2000, "tol": 1e-10, "f": "zero", "convergence_g": "re",
      "pullback": {}}),
    ("ruelle", "z2", ("ruelle", "pullback"),
     {"levels": 10, "cap": 4096, **_PULLBACK_DEFAULTS}),
    ("variational", "z2", ("variational",),
     {"n_max": 4, "depth": 4, "empirical": 2, "n_burn": 50, "n_keep": 5000,
      "slack": 0.05, "f": "zero", "start": [0.5, 0.3], "pressure": {}}),
    ("variational", "z2", ("variational", "pressure"), _STARTS_DEFAULTS),
]


class TestConfigDefaults:
    @pytest.mark.parametrize("command,corr,path,key,default", [
        pytest.param(command, corr, path, key, default, id=f"{'.'.join(path)}.{key}")
        for command, corr, path, defaults in CLI_DEFAULTS
        for key, default in defaults.items()])
    def test_omitted_key_reads_the_cli_default(self, workspace, command, corr, path,
                                               key, default):
        # The CLI passes each value on, so no library default takes over.
        written = []
        for name in ("omitted", "explicit"):
            sections = json.loads(json.dumps(SMALL_SECTIONS))
            section = sections[path[0]]
            for part in path[1:]:
                section = section[part]
            assert section.pop(key) != default
            if name == "explicit":
                section[key] = default
            out = workspace / name
            cfg = write_config(workspace, name, {
                "correspondence": f"{corr}.corr", "n_cells": 400,
                path[0]: sections[path[0]], "out": str(out)})
            assert run([command, "--config", cfg]) == 0
            written.append((read_report(out)["results"],
                            {f.name: f.read_bytes() for f in sorted(out.glob("*.csv"))}))
        assert written[0] == written[1]
        assert written[0][1]


def csv_writer_cylinders(mu) -> bytes:
    """Reference copy of ``_write_cylinders_csv`` as it was: word rows
    joined per pair and written by ``csv.writer`` in lexicographic order."""
    flat = mu.words.reshape(len(mu.words), -1)
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(("word", "weight"))
    for k in np.lexsort(flat.T[::-1]):
        writer.writerow(("|".join(f"{c}:{s}" for c, s in mu.words[k].tolist()),
                         repr(float(mu.weights[k]))))
    return text.getvalue().encode()


class TestCylindersCsv:
    @pytest.mark.parametrize("depth", [1, 3])
    @pytest.mark.parametrize("weights", [[1e-05, 0.1, 1.0 - 0.1 - 1e-05],
                                         [1.0, 5e-324, 0.0]])
    def test_bytes_equal_csv_writer(self, tmp_path, depth, weights):
        # Cells past 9 and symbols past 1, given out of order, so the
        # numeric row order is not the text order.
        rng = np.random.default_rng(depth)
        words = np.stack([rng.choice([1999, 10, 2, 0], size=(3, depth)),
                          rng.choice([1, 2, 12], size=(3, depth))], axis=2)
        words[1, 0] = (10, 2)
        words[2, 0] = (2, 12)
        mu = PathMeasure(SphereGrid(2000), words, weights)
        _write_cylinders_csv(tmp_path / "mu.csv", mu)
        assert (tmp_path / "mu.csv").read_bytes() == csv_writer_cylinders(mu)


class TestProbePairs:
    @pytest.mark.parametrize("n_cells,count", [(400, 60), (2000, 300), (12, 12)])
    def test_nearest_center_matches_min(self, n_cells, count):
        # The probe partners of the ruelle pipeline: the position of the
        # same center as a min over every other center by scalar sph_dist,
        # for every center, asked in random order and with repeats (300
        # distinct centers take two blocks).
        rng = np.random.default_rng(n_cells)
        active = ActiveGrid(SphereGrid(n_cells),
                            rng.choice(n_cells, size=count, replace=False).tolist())
        idx = rng.permutation(np.concatenate([np.arange(count),
                                              rng.integers(count, size=count)]))
        got = active.nearest_other(idx)
        assert got.shape == idx.shape
        centers = [active.grid.cell_center(c) for c in active.cells]
        for i, k in zip(idx.tolist(), got.tolist()):
            expected = min((j for j in range(count) if j != i),
                           key=lambda j: sph_dist(centers[i], centers[j]))
            assert k == expected


#: A small ruelle run: 400 cells, 6 pullback levels.
SMALL_RUELLE = {"correspondence": "z2.corr", "n_cells": 400,
                "ruelle": {"probe_pairs": 5, "n_max": 5,
                           "pullback": {"levels": 6, "cap": 1024}}}


class TestRuelleChain:
    def test_warns_on_non_expansive_probe(self, workspace, monkeypatch):
        # The probe verdict is ruelle's to report: a probe that is not
        # expansive warns, and the run still finishes.
        monkeypatch.setattr("corrdyn.cli.expansivity_probe",
                            lambda *args: ExpansivityResult(False, 1.0, 5, 1.0))
        out = workspace / "probe_warn"
        cfg = write_config(workspace, "probe_warn", {**SMALL_RUELLE, "out": str(out)})
        text = ("correspondence fails the expansivity probe; spectral conclusions "
                "may not hold")
        with pytest.warns(UserWarning, match=f"^{re.escape(text)}$") as caught:
            assert run(["ruelle", "--config", cfg]) == 0
        assert len(caught) == 1
        assert read_report(out)["results"]["expansive"] is False

    def test_normalizes_and_dilates_once(self, workspace, monkeypatch):
        # The adjoint takes the weights ruelle normalized, and the kernel
        # the ring the support dilated.
        calls = {"normalize": 0, "dilate": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapper
        normalize = counted("normalize", transfer_mod.normalize)
        monkeypatch.setattr(transfer_mod, "normalize", normalize)
        monkeypatch.setattr("corrdyn.cli.normalize", normalize)
        monkeypatch.setattr(SphereGrid, "dilate", counted("dilate", SphereGrid.dilate))
        cfg = write_config(workspace, "ruelle_once", SMALL_RUELLE)
        assert run(["ruelle", "--config", cfg]) == 0
        assert calls == {"normalize": 1, "dilate": 1}


class TestNegativeSeed:
    @pytest.mark.parametrize("command", ["degrees", "orbits", "ds-measure", "entropy",
                                         "pressure", "ruelle", "variational"])
    @pytest.mark.parametrize("where", ["config", "flag"])
    def test_rejected_before_any_work(self, workspace, command, where, capsys,
                                      monkeypatch):
        # numpy rejected it deep in the run, without naming the seed, and
        # an orbits run whose tree was never thinned drew no numbers and
        # exited 0.
        def refuse(*args, **kwargs):
            raise AssertionError("work ran before the seed check")

        monkeypatch.setattr("corrdyn.cli.parse_correspondence", refuse)
        out = workspace / "negative_seed"
        cfg = write_config(workspace, "negative_seed", {
            "correspondence": "mobius_pair.corr", "out": str(out),
            **({"seed": -1} if where == "config" else {})})
        flag = ["--seed", "-1"] if where == "flag" else []
        assert run([command, "--config", cfg, *flag]) == 3
        assert "seed must be non-negative, got -1" in capsys.readouterr().err
        assert not (out / "report.json").exists()


def _numpy_on_openblas() -> bool:
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        np.show_config()
    return "openblas" in text.getvalue().lower()


@pytest.mark.skipif(not _numpy_on_openblas(), reason="numpy is not on OpenBLAS")
class TestBlasKernel:
    @pytest.mark.parametrize("command,config", [
        ("ruelle", {"correspondence": "z2_plus_z3.corr", "n_cells": 400,
                    "ruelle": {"f": "re", "pullback": {"levels": 6, "cap": 1024}}}),
        ("orbits", {"correspondence": "mobius.corr",
                    "orbits": {"start": [0.5, 0.3], "depth": 6,
                               "direction": "forward"}})])
    def test_csv_bytes_independent_of_blas_kernel(self, workspace, command,
                                                      config):
        # OpenBLAS picks its product kernel by CPU; results use no matrix
        # product, so a forced older kernel writes the same bytes.
        src = str(Path(corrdyn.__file__).resolve().parents[1])
        cfg = write_config(workspace, command, config)
        written = []
        for coretype in (None, "Prescott"):
            env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
            env.pop("OPENBLAS_CORETYPE", None)
            if coretype:
                env["OPENBLAS_CORETYPE"] = coretype
            out = workspace / f"{command}_{coretype}"
            done = subprocess.run(
                [sys.executable, "-m", "corrdyn.cli", command, "--config", str(cfg),
                 "--seed", "1", "--out", str(out)], env=env, capture_output=True)
            assert done.returncode == 0, done.stderr.decode()
            written.append({f.name: f.read_bytes() for f in sorted(out.glob("*.csv"))})
        assert written[0] and written[0] == written[1]
