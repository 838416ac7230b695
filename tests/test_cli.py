"""End-to-end tests of the command line interface."""

import dataclasses
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from curv import __version__, inequality
from curv.cli import build_parser, main
from curv.fields import Paraboloid, random_trig_field, sample_to_grid


def run_json(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr().out
    return rc, json.loads(out)


def reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


class TestReportContract:
    """The meta block of each subcommand: command, echoed config, seed and
    tolerances."""

    @pytest.mark.parametrize("argv, meta", [
        (
            ["point", "--field", "paraboloid", "--at", "1,0"],
            {"command": "point", "seed": None, "tolerances": {},
             "config": {"ambient": "flat", "at": "1,0", "dim": 2, "field": "paraboloid"}},
        ),
        (
            ["slice", "--field", "paraboloid", "--eps", "0.5", "--rays", "6"],
            {"command": "slice", "seed": 0, "tolerances": {"gap": 1e-8, "minor": 1e-8},
             "config": {"dim": 2, "eps": "0.5", "field": "paraboloid", "rays": 6, "seed": 0}},
        ),
        (
            ["verify", "identity", "--n", "3-5", "--trials", "2000"],
            {"command": "verify identity", "seed": 0, "tolerances": {"residual": 1e-10},
             "config": {"n": "3-5", "seed": 0, "trials": 2000}},
        ),
        (
            ["verify", "minor", "--fields", "3", "--points", "4"],
            {"command": "verify minor", "seed": 0,
             "tolerances": {"analytic": 1e-8, "fd": 1e-4},
             "config": {"dim": 2, "fd": False, "fd_step": 0.01, "fields": 3, "points": 4,
                        "seed": 0}},
        ),
        (
            ["verify", "inequality", "--which", "prod", "--fields", "3", "--rays", "5"],
            {"command": "verify inequality", "seed": 0, "tolerances": {"gap": 1e-8},
             "config": {"dim": 2, "fields": 3, "levels": 2, "rays": 5, "seed": 0,
                        "which": "prod"}},
        ),
        (
            ["barrier", "--field", "radial:S-u:0.5", "--radial", "64", "--angular", "16"],
            {"command": "barrier", "seed": 0,
             "tolerances": {"gradient_bound": 1e-6, "ring": 1e-8, "touch": 1e-8},
             "config": {"a": 0.5, "angular": 16, "aprime": None, "dim": 2,
                        "field": "radial:S-u:0.5", "negate": False,
                        "radial": 64, "seed": 0}},
        ),
        (
            ["example", "--name", "euclid-cone", "--count", "50"],
            {"command": "example", "seed": None,
             "tolerances": {"junction": 1e-3, "locus": 1e-6, "scalar_floor": 1e-10},
             "config": {"a": 0.5, "count": 50, "name": "euclid-cone"}},
        ),
    ])
    def test_meta_block(self, capsys, argv, meta):
        rc, doc = run_json(capsys, argv)
        assert rc == 0
        assert doc["meta"] == {"tool": "curv", "version": __version__, **meta}


class TestPoint:
    def test_flat_paraboloid(self, capsys):
        rc, doc = run_json(capsys, ["point", "--field", "paraboloid", "--at", "1,0"])
        assert rc == 0
        assert doc["meta"]["tool"] == "curv"
        row = doc["results"][0]
        assert row["mean_curvature"] == pytest.approx(3.0 / (2.0 * np.sqrt(2.0)))
        assert row["w"] == pytest.approx(np.sqrt(2.0))

    def test_spherical_hemisphere_is_minimal(self, capsys):
        rc, doc = run_json(
            capsys,
            ["point", "--field", "hemisphere:1", "--ambient", "spherical", "--at", "0.3,0.2"],
        )
        assert rc == 0
        row = doc["results"][0]
        assert abs(row["mean_curvature"]) <= 1e-10
        assert row["route_residual"] <= 1e-8
        assert row["scalar_curvature"] == pytest.approx(2.0, abs=1e-10)

    def test_constant_ambient(self, capsys):
        rc, doc = run_json(
            capsys,
            ["point", "--field", "paraboloid", "--ambient", "constant:2.0", "--at", "1,0"],
        )
        assert rc == 0
        row = doc["results"][0]
        assert row["mean_curvature"] == pytest.approx(2.0 * 3.0 / (2.0 * np.sqrt(2.0)))

    def test_grid_field(self, capsys, tmp_path):
        grid = sample_to_grid(
            Paraboloid(2), origin=np.array([-1.5, -1.5]), h=0.05, counts=(61, 61)
        )
        path = tmp_path / "parab.csv"
        grid.write(path)
        rc, doc = run_json(capsys, ["point", "--field", f"grid:{path}", "--at", "1,0"])
        assert rc == 0
        row = doc["results"][0]
        assert row["mean_curvature"] == pytest.approx(3.0 / (2.0 * np.sqrt(2.0)), abs=1e-8)


class TestSlice:
    def test_paraboloid_level(self, capsys):
        rc, doc = run_json(
            capsys, ["slice", "--field", "paraboloid", "--eps", "0.5", "--rays", "6"]
        )
        assert rc == 0
        rows = doc["results"]
        assert len(rows) > 1
        summary = rows[-1]
        assert summary["worst_minor_residual"] <= 1e-8
        assert summary["passed"]

    def test_csv_format(self, capsys):
        rc = main(
            ["slice", "--field", "paraboloid", "--eps", "0.5", "--rays", "4", "--format", "csv"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        lines = out.strip().splitlines()
        assert "," in lines[0]
        assert len(lines) >= 2

    def test_grid_roots_inside_the_evaluation_margin(self, capsys, tmp_path):
        # a root between the ray's end and the grid's 2h band used to abort the sweep
        path = tmp_path / "g5.csv"
        sample_to_grid(random_trig_field(2, 5), origin=(-1, -1), h=0.05, counts=(41, 41)).write(path)
        rc, doc = run_json(capsys, ["slice", "--field", f"grid:{path}", "--eps=-0.09999999999999998"])
        assert rc == 0
        assert doc["results"][-1]["points"] > 0

    @pytest.mark.parametrize("eps, rc, points", [("0.5", 1, 0), ("0.8", 0, 16)])
    def test_e_f_rays_start_inside_the_hole(self, capsys, eps, rc, points):
        # every ray starts at the center, where the E-f inverse has no value; this exited 2
        got, doc = run_json(capsys, ["slice", "--field", "radial:E-f", "--eps", eps])
        assert (got, doc["results"][-1]["points"]) == (rc, points)

    def test_no_points_fails(self, capsys):
        rc, doc = run_json(capsys, ["slice", "--field", "paraboloid", "--eps", "-1"])
        assert rc == 1
        summary = doc["results"][-1]
        assert summary["points"] == 0
        assert summary["min_gap"] is None
        assert not summary["passed"]


class TestVerify:
    def test_identity(self, capsys):
        rc, doc = run_json(
            capsys, ["verify", "identity", "--n", "3-5", "--trials", "2000"]
        )
        assert rc == 0
        assert doc["results"][0]["max_rel_residual"] <= 1e-12

    def test_identity_tolerance_floor(self, capsys):
        rc = main(["verify", "identity", "--trials", "100", "--tol", "1e-15"])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["slice", "--field", "paraboloid", "--eps", "0.5", "--tol"],
        ["slice", "--field", "paraboloid", "--eps", "0.5", "--gap-tol"],
        ["verify", "minor", "--fields", "1", "--tol"],
        ["verify", "minor", "--fields", "1", "--fd-tol"],
        ["verify", "inequality", "--which", "prod", "--fields", "1", "--gap-tol"],
        ["barrier", "--field", "radial:S-u:0.5", "--touch-tol"],
    ])
    def test_tolerance_floor(self, capsys, argv):
        rc = main(argv + ["1e-15"])
        assert rc == 2
        assert "below the floor" in capsys.readouterr().err

    def test_minor(self, capsys):
        rc, doc = run_json(
            capsys, ["verify", "minor", "--fields", "3", "--points", "4"]
        )
        assert rc == 0
        assert doc["results"][0]["worst_analytic_residual"] <= 1e-8

    def test_minor_fd(self, capsys):
        rc, doc = run_json(
            capsys, ["verify", "minor", "--fields", "2", "--points", "2", "--fd"]
        )
        assert rc == 0
        row = doc["results"][0]
        assert row["worst_fd_residual"] <= 1e-4
        assert row["median_fd_slope"] > 1.7

    def test_inequality(self, capsys):
        rc, doc = run_json(
            capsys,
            ["verify", "inequality", "--which", "prod", "--fields", "3", "--rays", "5"],
        )
        assert rc == 0
        assert doc["results"][0]["violations"] == 0

    def test_inequality_without_points_fails(self, capsys):
        rc = main(["verify", "inequality", "--which", "prod", "--fields", "0"])
        out = capsys.readouterr().out
        assert rc == 1
        doc = json.loads(out, parse_constant=reject_constant)
        row = doc["results"][0]
        assert row["points"] == 0
        assert row["min_gap"] is None
        assert not row["passed"]
        assert len(doc["results"]) == 1  # and no violation rows

    def test_inequality_violations_list_their_rows(self, capsys, monkeypatch):
        """Each violating row of the report stack is listed with its point,
        level and gap, in row order."""
        real, seen = inequality.checks, []

        def lowered(*args):
            regular, reports = real(*args)
            reports = dataclasses.replace(reports, gap=reports.gap - np.arange(len(reports.gap)) % 2)
            seen.append(reports)
            return regular, reports

        monkeypatch.setattr(inequality, "checks", lowered)
        rc, doc = run_json(capsys, ["verify", "inequality", "--which", "prod", "--fields", "3", "--rays", "5"])
        assert rc == 1
        (reports,) = seen
        bad = np.flatnonzero(reports.gap < -1e-8)
        assert doc["results"][0]["violations"] == len(bad) > 0
        assert doc["results"][1:] == [
            {"violation": True, "x": reports.x[i].tolist(), "eps": reports.eps[i], "gap": reports.gap[i]} for i in bad
        ]


class TestBarrier:
    def test_profile_slide(self, capsys):
        rc, doc = run_json(capsys, ["barrier", "--field", "radial:S-u:0.5"])
        assert rc == 0
        row = doc["results"][0]
        assert row["lam_star"] > 0.0
        assert row["outcome"] == "touch"

    def test_no_touch_exits_one(self, capsys):
        rc, doc = run_json(capsys, ["barrier", "--field", "constant:-1"])
        assert rc == 1
        assert doc["results"][0]["outcome"] == "no-touch"

    def test_negate_flag(self, capsys):
        rc, doc = run_json(capsys, ["barrier", "--field", "constant:-1", "--negate"])
        assert rc == 0
        assert doc["results"][0]["outcome"] == "touch"
        assert doc["results"][0]["boundary_touch"]

    def test_lambda_max_is_not_an_option(self):
        # the touching value is max u/(1 - |x|) over the samples, with no upper bracket to set
        with pytest.raises(SystemExit) as err:
            main(["barrier", "--field", "radial:S-u:0.5", "--lambda-max", "1e4"])
        assert err.value.code == 2

    @pytest.mark.parametrize("radial", ["0", "1"])
    def test_radial_below_two_exits_two(self, capsys, radial):
        rc = main(["barrier", "--field", "trig:1", "--radial", radial])
        assert rc == 2
        assert capsys.readouterr().err == f"curv: error: need radial >= 2, got {radial}\n"


class TestExamples:
    def test_euclid_cone(self, capsys):
        rc, doc = run_json(capsys, ["example", "--name", "euclid-cone"])
        assert rc == 0
        checks = doc["results"][-1]
        assert checks["passed"]

    def test_spherical_glued(self, capsys):
        rc, doc = run_json(capsys, ["example", "--name", "spherical-glued"])
        assert rc == 0
        checks = doc["results"][-1]
        assert checks["passed"]

    def test_spherical_glued_csv(self, capsys):
        rc = main(["example", "--name", "spherical-glued", "--format", "csv"])
        out = capsys.readouterr().out
        assert rc == 0
        lines = out.strip().splitlines()
        header = lines[0].split(",")
        assert "scalar" in header
        first = lines[1].split(",")
        # the outer branch starts at the waist, where the scalar floor is met
        assert float(first[1]) == pytest.approx(0.5)
        assert float(first[-1]) == pytest.approx(2.0)


class TestDeterminism:
    def test_byte_identical_reports(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        argv = ["verify", "inequality", "--which", "euclid", "--fields", "2", "--rays", "4", "--seed", "7"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_csv_reports_identical(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        argv = ["example", "--name", "spherical-glued", "--format", "csv"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_run_examples_script(self, tmp_path, capsys):
        """scripts/run_examples.py writes its six reports, and a rerun
        writes the same bytes."""
        path = Path(__file__).resolve().parent.parent / "scripts" / "run_examples.py"
        spec = importlib.util.spec_from_file_location("run_examples", path)
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        assert script.run(tmp_path / "a") == 0 and script.run(tmp_path / "b") == 0
        capsys.readouterr()
        names = [f"{stem}.{fmt}" for stem in ("euclid-cone", "spherical-glued", "spherical-glued-a025")
                 for fmt in ("csv", "json")]
        assert sorted(p.name for p in (tmp_path / "a").iterdir()) == sorted(names)
        assert [(tmp_path / "a" / n).read_bytes() for n in names] == [(tmp_path / "b" / n).read_bytes() for n in names]

    def test_seed_changes_report(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        base = ["verify", "inequality", "--which", "euclid", "--fields", "2", "--rays", "4"]
        assert main(base + ["--seed", "1", "--out", str(a)]) == 0
        assert main(base + ["--seed", "2", "--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() != b.read_bytes()


#: a full cubic in two variables (graded lex), for the pinned poly reports
POLY3 = "poly:0.3,-0.2,0.5,0.1,-0.4,0.25,0.15,-0.35,0.2,0.05"


class TestGoldenReports:
    """The seeded verify_all stages at small sizes keep their results bit for
    bit. The hashes were recorded with Python 3.11 and numpy 2.4 on x86-64,
    the DSYGVD ones with scipy 1.17; a change that moves them says which
    fields moved and why."""

    def digest(self, capsys, argv):
        rc, doc = run_json(capsys, argv)
        assert rc == 0
        return hashlib.sha256(json.dumps(doc["results"], sort_keys=True).encode()).hexdigest()

    def unseeded_argv(self, tmp_path, stage):
        grid = tmp_path / "trig.grid"
        sample_to_grid(random_trig_field(2, 3), (-1.0, -1.0), 0.1, (21, 21)).write(grid)
        return [a.format(grid=grid) for a in self.UNSEEDED[stage]]

    STAGES = {
        "identity": ["verify", "identity", "--trials", "2000"],
        "minor": ["verify", "minor", "--fd", "--fields", "2", "--points", "4"],
        "inequality-prod": ["verify", "inequality", "--which", "prod", "--fields", "2"],
        "inequality-phi": ["verify", "inequality", "--which", "phi", "--fields", "2"],
        "inequality-euclid": ["verify", "inequality", "--which", "euclid", "--fields", "2"],
        "inequality-sphere": ["verify", "inequality", "--which", "sphere", "--fields", "2"],
        "barrier-outer-graph": ["barrier", "--field", "radial:S-u:0.5", "--radial", "64", "--angular", "16"],
        # n = 3 draws seeded rays, where n = 2 uses the golden-angle ring
        "minor-3d": ["verify", "minor", "--fd", "--dim", "3", "--fields", "2", "--points", "4"],
        "inequality-prod-3d": ["verify", "inequality", "--which", "prod", "--dim", "3", "--fields", "4"],
        "inequality-phi-3d": ["verify", "inequality", "--which", "phi", "--dim", "3", "--fields", "4"],
        # the minor stage at production size, where the FD oracle checks every kept row of 50 fields
        "minor-full": ["verify", "minor", "--fd"],
        "minor-full-3d": ["verify", "minor", "--fd", "--dim", "3", "--fields", "10"],
        "minor-full-step": ["verify", "minor", "--fd", "--fd-step", "0.05"],
        # the identity stage at production size: 100,000 matrices of orders 2-8
        # (seeds 0-2 reach the same largest residual, 6 machine epsilons)
        "identity-full": ["verify", "identity"],
        # the inequality stages at production size, 25 fields of 10 rays, where the slicer's screen acts
        "inequality-prod-full": ["verify", "inequality", "--which", "prod"],
        "inequality-phi-full": ["verify", "inequality", "--which", "phi"],
        "inequality-prod-full-3d": ["verify", "inequality", "--which", "prod", "--dim", "3"],
    }
    SHA256 = {
        ("identity", 0): "bbd296088c3150f80d1a349102d31223406b552a34b0d3194df8dbf591abd4ee",
        ("minor", 0): "1d93196d94af34869b13ce43524854702d22655ba6201e8fbc4ffe64bac7cf9b",
        ("inequality-prod", 0): "b37448fbdbd55c8d9ea98fcdf12052615a377f967e6bbdbcc71e4372f897809e",
        ("inequality-phi", 0): "2c3990e5caa14372d2b0a74d509b26ad7b46b291999dd6c24cd4ff9c86a34475",
        ("inequality-euclid", 0): "c582a98d54962158f09bbc208faf4cc73047870ac864b7cde349fa1fbeaf6336",
        ("inequality-sphere", 0): "0cc1bd5a2e2ca4443c623b3f1ae5ff9313c7f63f6a28e4fb48981d23df5037b1",
        ("barrier-outer-graph", 0): "14a1e5db215210392b36630628408c3ed1a7b5ee1fafcea40af343009b974617",
        ("identity", 1): "1b37ab5c46922abe5b854f4ce67e43bc98c77b24b73df8e42579d6cb17ddd9ed",
        ("minor", 1): "7ec2f0ab6133e04331bd24672b456569ec07bc8412f051763851764bba9e4716",
        ("inequality-prod", 1): "4f79ac8c39aac01ae881fa08067ce75f8978d06eacc86170cab232dd11e9f876",
        ("inequality-phi", 1): "873ea77ad593b2baab59a56069f8c6e9f60977240187ba89543c56741652de04",
        ("inequality-euclid", 1): "d9da94ee354b82f74e829a6f2f331cb20dcee9b962d6d2c1858ad8c5849f3445",
        ("inequality-sphere", 1): "187d1aac3359d3090e14e730ce23069b9fa11f5087d063c3ef6286b201801a14",
        ("barrier-outer-graph", 1): "14a1e5db215210392b36630628408c3ed1a7b5ee1fafcea40af343009b974617",
        ("minor-3d", 0): "a8d49f2f1ce39f504e01fcd1df3aec4be4cd50fce5b8ae61e53a14e0ffd06fc2",
        ("minor-3d", 1): "78f648e20ab4934fd2136848cf57cf790607ca15b5cc8ef1a3c0f3c8a3787e89",
        ("inequality-prod-3d", 0): "deda8a520d9f7f74e37f152467a7ba855857ece8262b0666d8844f4dc1e512fd",
        ("inequality-prod-3d", 1): "25b5c6b8a8686b153511dcb3a0870cfbcdd0a9e609f62671c2d71f1cb66cb10d",
        ("inequality-phi-3d", 0): "ebe57aafa3a655f09b35e5a6c294285056284f5e8b16e2ae49e306f690bce742",
        ("inequality-phi-3d", 1): "71a1a8d3599f6d9706bf8f8b7381936655dfea80ad8fbb8d29c739e6a8fb580b",
        ("minor-full", 0): "1a3a70935c79b69ab7ff9285d4673991977729c59d70c9c2ee17c84e2bfe4e3c",
        ("minor-full", 5): "27a85172658b69efed6d22d9643c5f58f92f1d359c1575699f2a309b841151cb",
        ("minor-full-3d", 0): "0670d83e7a82c1d2929f8c7fa5e6f4fd4e087ae24b5ca1a63593251acbe0c07b",
        ("minor-full-3d", 5): "8d7a1a081f18a771a07f29ef974c576af6cbc437206b77d48f7a4ebdd2e4da2a",
        ("minor-full-step", 0): "a46cad1af5532dda030d07f0854b37e8a604b8822615f25191702bcc1a87d90c",
        ("minor-full-step", 5): "c1314f6288a4197453387a67b8458e1f3f41ba81bb27ca77fe2d7ea3b64ba6c0",
        ("identity-full", 0): "5d2aa7805013e981256ab0b35acd61b4e2ed4e9db68384e4531461287586d7ca",
        ("identity-full", 1): "5d2aa7805013e981256ab0b35acd61b4e2ed4e9db68384e4531461287586d7ca",
        ("identity-full", 2): "5d2aa7805013e981256ab0b35acd61b4e2ed4e9db68384e4531461287586d7ca",
        ("identity-full", 3): "2253b755719e7245d84dad1315a5ec51248aece577b225eca16d69487333a345",
        ("inequality-prod-full", 0): "c3cec147f0c896aa0cb0c0b0a32015e234d1674300b01bee4feec4cbef397507",
        ("inequality-prod-full", 5): "a9f9d4ded10612e8be886fe1b47ac15a1ea78590d4b7d12f4dc27be5959dc193",
        ("inequality-phi-full", 0): "dad27e63e7106d1ca6982a7b088cdc4e29cb32eaa5db75890cb20e6283eb3ca2",
        ("inequality-phi-full", 5): "67e0ceb82007b3eb8c4507410bf4557be4ff6c3b2d54e456045f6d5c5725cc2c",
        ("inequality-prod-full-3d", 0): "50adbd6528a914b5ce549a9392719ddafc63787d8caac9e5a3f5bd70626af62b",
    }

    @pytest.mark.parametrize("stage, seed", sorted(SHA256))
    def test_results_are_unchanged(self, capsys, stage, seed):
        assert self.digest(capsys, self.STAGES[stage] + ["--seed", str(seed)]) == self.SHA256[stage, seed]

    #: the unseeded example stages, one `point` run per field kind and per
    #: revolution profile, a cubic polynomial in each ambient, six `slice`
    #: sweeps (two on revolution profiles) and two barrier slides; the point
    #: reports carry principal curvatures, from the generalized eigensolver
    UNSEEDED = {
        "example-euclid-cone": ["example", "--name", "euclid-cone"],
        "example-spherical-glued": ["example", "--name", "spherical-glued"],
        "point-paraboloid": ["point", "--field", "paraboloid:0.7", "--at", "0.6,-0.3"],
        "point-sphere-cap": ["point", "--field", "sphere-cap:1.5,0.2", "--ambient", "spherical", "--at", "0.4,0.5"],
        "point-cup": ["point", "--field", "cup:1,-0.5,2", "--at", "0.2,0.3,-0.4"],
        "point-plane": ["point", "--field", "plane:0.3,-0.2", "--ambient", "constant:1.7", "--at", "0.5,0.5"],
        "point-constant": ["point", "--field", "constant:0.4", "--ambient", "spherical", "--at", "0.1,0.2"],
        "point-poly": ["point", "--field", "poly:0.1,0.3,-0.2,0.5,0.4,-0.3", "--at", "0.7,-0.2"],
        "point-poly-flat": ["point", "--field", POLY3, "--ambient", "flat", "--at", "0.6,-0.45"],
        "point-poly-spherical": ["point", "--field", POLY3, "--ambient", "spherical", "--at", "0.6,-0.45"],
        "point-poly-constant": ["point", "--field", POLY3, "--ambient", "constant:2.5", "--at", "0.6,-0.45"],
        "point-trig": ["point", "--field", "trig:3", "--ambient", "spherical", "--at", "0.3,-0.4,0.2"],
        "point-radial": ["point", "--field", "radial:S-u:0.5", "--at", "0.5,0.6"],
        "point-radial-E-f": ["point", "--field", "radial:E-f", "--at", "0.5,0"],
        "point-radial-S-v": ["point", "--field", "radial:S-v:0.3", "--ambient", "spherical", "--at", "0.3,0.4"],
        "point-grid": ["point", "--field", "grid:{grid}", "--ambient", "constant:2", "--at", "0.3,-0.2"],
        "slice-trig": ["slice", "--field", "trig:3", "--eps", "0.1,0.2"],
        "slice-trig-3d": ["slice", "--field", "trig:5", "--dim", "3", "--eps", "0.0,0.3", "--rays", "24", "--seed", "4"],
        "slice-grid": ["slice", "--field", "grid:{grid}", "--eps", "0.1,0.2"],
        "slice-poly": ["slice", "--field", POLY3, "--eps", "0.05,0.2"],
        # the level 0 passes through the origin, where a root at t = 0 must print 0.0, not -0.0
        "slice-plane-origin": ["slice", "--field", "plane:0.3,-0.2", "--eps", "0.0,0.1,0.2"],
        "slice-radial-S-u": ["slice", "--field", "radial:S-u:0.5", "--eps", "0.1,0.2"],
        "slice-radial-E-f": ["slice", "--field", "radial:E-f", "--eps", "0.6,0.8"],
        "barrier-trig": ["barrier", "--field", "trig:1"],
        "barrier-trig-negated": ["barrier", "--field", "trig:3", "--negate"],
    }
    #: the paraboloid and the plane run on the polynomial kernel, which adds
    #: the terms in order, so their values round differently (the derivatives
    #: do not move); what that moved, each field by 1 ulp:
    #:
    #:   report              field          old                   new
    #:   point-paraboloid    value          0.15749999999999997   0.1575
    #:   slice-plane-origin  row 17 x[0]    0.0387762698685974    0.03877626986859739
    #:   (eps 0.1)           row 17 x[1]    -0.44183559519710397  -0.4418355951971039
    #:   (eps 0.1)           row 22 x[0]    -0.08042553494710772  -0.08042553494710773
    #:                       row 22 x[1]    -0.6206383024206615   -0.6206383024206616
    #:   (eps 0.2)           row 25 x[0]    0.0775525397371948    0.07755253973719478
    #:                       row 25 x[1]    -0.8836711903942079   -0.8836711903942078
    #:
    #: point-paraboloid's dsygvd digest below moved by the same value.
    UNSEEDED_SHA256 = {
        "example-euclid-cone": "88f7cb29275b093e745b62ed291d943f597ffd4a4fc6c7c5c2621b174cbf9c80",
        "example-spherical-glued": "b3332c356366c2b0b2898dfe3fc95707f5aa1358d61019da60dcfde52154bbb3",
        "point-paraboloid": "5a42f05ee732b6add9e304bc2ea8a24bee6e18d33c77134897a2f3ae59e63039",
        "point-sphere-cap": "2d7d57e96e6be81f153fd7e8ef8cd1c77434d05ab78356d27c94a4ea55f3ca8a",
        "point-cup": "bba471635310cfc57a749f8d7f861777720bba95dd5faefd68142612277d99a5",
        "point-plane": "de9621026f41f1c9bbb02b884953c697e412e0b11ec18afae42afc0f3307580a",
        "point-constant": "beb17c9ad2ba14b879befaf230fe96266967ee469beb3e399f8297c212d72cc7",
        "point-poly": "623d3167fa2fa9aa363df019b87083e4623483e5f1d9bc20619b24543e44e895",
        "point-poly-flat": "af64615f379e7c9d85b7def9d661ca6f56c8c35f0993a2c2adfa3f1d3e1f4f8f",
        "point-poly-spherical": "b099d4ee72518f23987fff5e33545afc3b3f83ddecc51a333f861f893069e229",
        "point-poly-constant": "243256781369ccb01b11027dad4cf07bb2619a4a82305786502261c6663e95be",
        "point-trig": "3dc8f4cdf0df32bcbcd72f2a370365ef0abf21fc0952c473e3585b700805482a",
        "point-radial": "11d797a67d6df838c1caaf86c54c74ebfb1d2dc0f279445e58ca7d6049cd0494",
        "point-radial-E-f": "4c12f2375ecec0197d3a8e93982a2a704519db4444c00571e9af9f493c4dafaf",
        "point-radial-S-v": "d6080f1de5e4c7ba798f9444c852b6621d5542322486d7ada1a42b01e55a50ba",
        "point-grid": "4f05ccb0febabeafcc6324f9bcc86dbe652312dc739001f7c2e55bd0211b7cd7",
        "slice-trig": "2bb03d183c7c1938e623219a7f6548d766d1642e6f59b12d18f0abb5b7784a11",
        "slice-trig-3d": "531d61c357d5676908e246557b9732738319970c0c7527aa2dc411bfca695037",
        "slice-grid": "b0af65935fec785db70feb933ebe6f1aa7e4096f052d85f9a48e33229fe23bde",
        "slice-poly": "48a6c266f983e5d8ca2dd55e61675f40a721d957f4a345b70e1ed2d7c81a7b92",
        "slice-plane-origin": "9e5ac470e2975a16b87cdca13648e935c552986d569fa6c1c61d3164d85581f4",
        "slice-radial-S-u": "7ef5e765245ee4662c57c486e4b92515b963948b5615417c8d69e43bb0f750d2",
        "slice-radial-E-f": "b582411598791e31e51eb5f0f5544cb4225eb7fa72ab35b79631175e155059a9",
        "barrier-trig": "9fb851eac5f97d940d417b419f1a36234953283f1c634838d5772528c41f932c",
        "barrier-trig-negated": "fc868888dfebc9cb5e7c846a0a8525b4312ad822bfb71efb4766f5e5a8717f23",
    }

    @pytest.mark.parametrize("stage", sorted(UNSEEDED))
    def test_unseeded_results_are_unchanged(self, capsys, tmp_path, stage):
        assert self.digest(capsys, self.unseeded_argv(tmp_path, stage)) == self.UNSEEDED_SHA256[stage]

    #: the digests that the Cholesky eigensolver moved, as they were with
    #: LAPACK's dsygvd: the last bits of `principal`, and of what reads it
    #: (a conformal point's norm_a2 and scalar_curvature, a suite's min_gap)
    DSYGVD_SHA256 = {
        ("inequality-phi", 1): "fd562b118c5a025d8974bd5f76810073ec0a5299cd2352e98ed2200117014ca7",
        ("inequality-sphere", 1): "070817bb2464764c806919de32902f19ca77f44a9b495f7e3b31f3eca283bbd4",
    }
    DSYGVD_UNSEEDED_SHA256 = {
        "point-paraboloid": "cea8422b1324fc2bba25b6467b86ed44c6322ba81acbb020cd8b17c3187c89a3",
        "point-poly-flat": "edf4e40bdb148c17c432004ccddaa3cf4051a5227737de513e560a1c05dab081",
        "point-poly-spherical": "f69ad0db07524cc49bd780e0e27b7822e1cfae0a9f326969ef760d55d7ad0df9",
        "point-poly-constant": "bea3f6ced873013e464b6e48384796822f37484140e2b99f3249d1625412bae0",
        "point-trig": "94f82a95348498c62a51e2127b04d897b59c496af98bda646503734a575ab6bd",
        "point-radial": "5383655febc96572cb21b19072468bced6f75caa2ee9868ebd98f16bd79b3a4f",
        "point-radial-S-v": "88daa6569c72148a54c3ba39a7aa64a4d2c2489bb9f63c713cde69327abf6472",
        "point-grid": "dd87abe193f5ff00b98f631152135f8c543cc55093dfb1e003a9711f5e7de677",
    }

    @pytest.mark.parametrize("stage, seed", sorted(DSYGVD_SHA256))
    def test_dsygvd_gives_the_old_results(self, capsys, dsygvd, stage, seed):
        """With dsygvd patched back in, a moved digest is what it was: the
        eigensolver is the only source of the change."""
        assert self.digest(capsys, self.STAGES[stage] + ["--seed", str(seed)]) == self.DSYGVD_SHA256[stage, seed]

    @pytest.mark.parametrize("stage", sorted(DSYGVD_UNSEEDED_SHA256))
    def test_dsygvd_gives_the_old_unseeded_results(self, capsys, tmp_path, dsygvd, stage):
        assert self.digest(capsys, self.unseeded_argv(tmp_path, stage)) == self.DSYGVD_UNSEEDED_SHA256[stage]


class TestConfig:
    def test_config_file_supplies_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("trials = 500\nseed = 9\n")
        rc, doc = run_json(
            capsys, ["verify", "identity", "--n", "3", "--config", str(cfg)]
        )
        assert rc == 0
        assert doc["meta"]["seed"] == 9
        assert doc["results"][0]["trials"] == 500

    def test_flags_override_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("trials = 500\n")
        rc, doc = run_json(
            capsys,
            ["verify", "identity", "--n", "3", "--trials", "800", "--config", str(cfg)],
        )
        assert rc == 0
        assert doc["results"][0]["trials"] == 800


class TestParserReuse:
    def test_interleaved_calls_equal_calls_alone(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("trials = 500\nseed = 9\n")
        point = ["point", "--field", "trig:3", "--ambient", "spherical", "--at", "0.3,-0.4"]
        runs = [point, ["verify", "identity", "--n", "3", "--config", str(cfg)], ["verify", "identity", "--n", "3"], point]

        def report(argv):
            assert main(argv) == 0
            return capsys.readouterr().out

        alone = []
        for argv in runs:
            build_parser.cache_clear()
            alone.append(report(argv))
        build_parser.cache_clear()
        assert [report(argv) for argv in runs] == alone
        assert build_parser.cache_info().misses == 1
        assert json.loads(alone[2])["results"][0]["trials"] == 100_000


class TestDegenerateSizes:
    def test_identity_with_no_trials_fails(self, capsys):
        rc, doc = run_json(capsys, ["verify", "identity", "--trials", "0"])
        assert rc == 1
        assert (doc["results"][0]["trials"], doc["results"][0]["passed"]) == (0, False)

    @pytest.mark.parametrize("argv", [["--fields", "0"], ["--fields", "2", "--points", "0"]])
    def test_minor_with_no_points_fails(self, capsys, argv):
        rc, doc = run_json(capsys, ["verify", "minor"] + argv)
        assert rc == 1
        assert (doc["results"][0]["points_checked"], doc["results"][0]["passed"]) == (0, False)

    def test_minor_fd_with_no_point_in_the_stencil_margin_fails(self, capsys):
        # a step of 10 leaves no point 20 inside the ball of radius 2: the analytic half checks, the FD half none
        rc, doc = run_json(capsys, ["verify", "minor", "--fd", "--fields", "3", "--points", "4", "--fd-step", "10"])
        assert rc == 1
        result = doc["results"][0]
        assert result["points_checked"] > 0 and result["worst_analytic_residual"] <= 1e-8
        assert (result["median_fd_slope"], result["passed"]) == (None, False)

    @pytest.mark.parametrize("argv, message", [
        (["verify", "inequality", "--which", "prod", "--levels", "0"], "need at least one level, got 0"),
        (["verify", "inequality", "--which", "prod", "--dim", "1"], "level slices need dimension >= 2, got 1"),
        (["slice", "--field", "trig:0", "--dim", "1", "--eps", "0.1"], "level slices need dimension >= 2, got 1"),
        (["verify", "minor", "--dim", "1"], "level slices need dimension >= 2, got 1"),
        (["slice", "--field", "trig:0", "--eps", "0.1", "--rays", "0"], "need at least one ray direction, got 0"),
        (["verify", "inequality", "--which", "prod", "--rays", "0"], "need at least one ray direction, got 0"),
        (["barrier", "--field", "trig:0", "--angular", "0"], "need at least one ray direction, got 0"),
        (["example", "--name", "euclid-cone", "--count", "0"], "need --count >= 2, got 0"),
        (["example", "--name", "spherical-glued", "--count", "0"], "need --count >= 2, got 0"),
        (["example", "--name", "euclid-cone", "--count", "1"], "need --count >= 2, got 1"),
        (["verify", "minor", "--fields", "2", "--fd", "--fd-step", "0"], "need --fd-step > 0, got 0.0"),
        (["verify", "minor", "--fields", "2", "--fd", "--fd-step", "-0.01"], "need --fd-step > 0, got -0.01"),
        (["verify", "identity", "--trials", "-5"], "need a nonnegative number of trials, got -5"),
        (["verify", "inequality", "--which", "prod", "--fields", "-2"], "need a nonnegative number of fields, got -2"),
        (["verify", "minor", "--fields", "-3"], "need --fields and --points >= 0, got -3 and 20"),
        (["verify", "minor", "--points", "-3"], "need --fields and --points >= 0, got 50 and -3"),
        (["verify", "identity", "--n", "9-8"],
         "bad --n '9-8': use an order, a range lo-hi with 2 <= lo <= hi, or a list like 2,3,5"),
        (["verify", "identity", "--n", "2-3,5"],
         "bad --n '2-3,5': use an order, a range lo-hi with 2 <= lo <= hi, or a list like 2,3,5"),
        # a negative inner radius would sample the annulus through the origin
        (["barrier", "--field", "trig:1", "--a", "-0.5", "--radial", "16", "--angular", "8"],
         "need 0 <= a < a_prime < outer, got -0.5, -0.425, 1.0"),
        (["barrier", "--field", "trig:1", "--a", "-1", "--aprime", "0"], "need 0 <= a < a_prime < outer, got -1.0, 0.0, 1.0"),
    ])
    def test_usage_error(self, capsys, argv, message):
        assert main(argv) == 2
        assert capsys.readouterr().err == f"curv: error: {message}\n"


class TestErrors:
    def test_unknown_field_spec(self, capsys):
        rc = main(["point", "--field", "banana", "--at", "0,0"])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("spec", ["trig:1.5", "trig:1,2.9", "random:x"])
    def test_non_integer_trig_spec(self, capsys, spec):
        name, _, rest = spec.partition(":")
        assert main(["point", "--field", spec, "--at", "0,0"]) == 2
        assert capsys.readouterr().err == f"curv: error: {name} needs an integer seed and mode count, got {rest!r}\n"

    @pytest.mark.parametrize("spec", ["trig:1,0", "trig:1,-2"])
    def test_trig_needs_a_mode(self, capsys, spec):
        assert main(["point", "--field", spec, "--at", "0.1,0.2"]) == 2
        assert capsys.readouterr().err == f"curv: error: trig needs at least one mode, got {spec!r}\n"

    @pytest.mark.parametrize("argv, flag, text", [
        (["point", "--field", "trig:1", "--at", ""], "--at", ""),
        (["point", "--field", "trig:1", "--at", "0.1,y"], "--at", "0.1,y"),
        (["slice", "--field", "paraboloid", "--eps", "a"], "--eps", "a"),
        (["slice", "--field", "paraboloid", "--eps", " , "], "--eps", " , "),
    ])
    def test_number_lists_name_their_flag(self, capsys, argv, flag, text):
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"curv: error: bad {flag} {text!r}: use one number or a comma-separated list like 0.1,-0.2\n"
        )

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2

    def test_out_of_domain_point(self, capsys):
        rc = main(["point", "--field", "hemisphere:1", "--at", "2,0"])
        assert rc == 2

    @pytest.mark.parametrize("argv", [
        ["barrier", "--field", "radial:S-u:0.5", "--dim", "3"],
        ["slice", "--field", "radial:S-u:0.5", "--dim", "3", "--eps", "0.1"],
    ])
    def test_radial_fields_are_two_dimensional(self, capsys, argv):
        assert main(argv) == 2
        assert capsys.readouterr().err == "curv: error: radial profiles are two-dimensional, got dim 3\n"

    def test_barrier_samples_outside_the_profile(self, capsys):
        rc = main(["barrier", "--field", "radial:S-u:0.5", "--a", "0.3"])
        assert rc == 2
        assert capsys.readouterr().err == (
            "curv: error: point [0.33499999999999996, 0.0] outside domain of revolution-S-u\n"
        )

    def test_missing_grid_file(self, capsys):
        rc = main(["point", "--field", "grid:/nonexistent/g.csv", "--at", "0,0"])
        assert rc == 2

    def test_write_out_file(self, tmp_path, capsys):
        out = tmp_path / "point.json"
        rc = main(["point", "--field", "paraboloid", "--at", "1,0", "--out", str(out)])
        assert rc == 0
        assert "wrote" in capsys.readouterr().out
        assert json.loads(out.read_text())["meta"]["tool"] == "curv"


COLD_RUN = """
import contextlib, io, json, sys
def scipy_loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
from curv.cli import main
steps = [("import curv.cli", None, scipy_loaded())]
from verify_all import STAGES
RUNS = [
    ("prod --fields 2", ["verify", "inequality", "--which", "prod", "--fields", "2"]),
    ("point radial:E-f", ["point", "--field", "radial:E-f", "--at", "0.5,0"]),
    ("slice radial:E-f", ["slice", "--field", "radial:E-f", "--eps", "0.6,0.8"]),
    ("barrier poly (1 - |x|^2)^2", ["barrier", "--field", "poly:1,0,0,-2,0,-2,0,0,0,0,1,0,2,0,1", "--a", "0.2"]),
]
for name, argv in RUNS + STAGES:
    with contextlib.redirect_stdout(io.StringIO()):
        rc = main(argv)
    steps.append((name, rc, scipy_loaded()))
print(json.dumps(steps))
"""


class TestColdImport:
    def test_no_stage_loads_scipy(self):
        """A fresh interpreter imports `curv.cli`, then runs `main` on one
        inequality suite, on a point and a slice of the E-f profile, on a
        barrier slide whose touch takes the radial polish, and on each
        verify_all stage, and no step loads any scipy module."""
        root = Path(__file__).resolve().parent.parent
        path = [str(root / "src"), str(root / "scripts"), os.environ.get("PYTHONPATH", "")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
        out = subprocess.run([sys.executable, "-c", COLD_RUN], env=env, capture_output=True, text=True, check=True)
        steps = json.loads(out.stdout)
        assert [[name, rc, []] for name, rc, _ in steps] == steps
        assert all(rc in (None, 0) for _, rc, _ in steps)
