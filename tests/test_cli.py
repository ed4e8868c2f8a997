"""End-to-end runs of the experiment commands and their CSV contract."""

import ast
import csv
import io
import itertools
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import berngen.cli
import berngen.matfunc
from berngen.acceleration import G_approx, q0_shift
from berngen.bvp import discretize_laplacian, uniform_grid
from berngen.fourier import TWO_PI, ApproxParams, reference_q
from berngen.cli import (_COMMANDS, SCHEMA, Row, cmd_arnoldi_compare,
                         cmd_bvp_compare, cmd_delta_table, cmd_scalar_error,
                         main)
from berngen.matfunc import (DENSE_CAP, SPECTRAL_CAP, ActionPlan,
                             spectral_reference)

HEADER = ",".join(SCHEMA)


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out.splitlines()


def _rows(lines):
    reader = csv.DictReader(io.StringIO("\n".join(lines)))
    return list(reader)


def _strip_elapsed(lines):
    return [line.rsplit(",", 1)[0] for line in lines]


class TestDeltaTable:
    def test_default_run(self, capsys):
        code, lines = _run(capsys, ["delta-table"])
        assert code == 0
        assert lines[0] == HEADER
        assert len(lines) == 10
        rows = _rows(lines)
        cell = [r for r in rows if r["z"] == "1" and r["N"] == "512"]
        assert len(cell) == 1
        assert abs(float(cell[0]["value"]) - 0.5327) < 5e-3
        assert cell[0]["method"] == "parseval"
        assert cell[0]["p"] == "4" and cell[0]["n"] == "1"

    def test_rows_are_sorted(self, capsys):
        code, lines = _run(capsys, ["delta-table"])
        keys = [(int(r["N"]), float(r["z"])) for r in _rows(lines)]
        assert keys == sorted(keys)

    def test_empty_sweep_writes_header_only(self, capsys):
        code, lines = _run(capsys, ["delta-table", "--N", ""])
        assert code == 0
        assert lines == [HEADER]

    def test_short_tail_is_usage_error(self, capsys):
        assert main(["delta-table", "--K", "600"]) == 2

    def test_unparseable_value(self, capsys):
        assert main(["delta-table", "--K", "abc"]) == 2

    @pytest.mark.parametrize("cutoff", ["--N=-5", "--N=0"])
    def test_nonpositive_cutoff_is_usage_error(self, capsys, cutoff):
        assert main(["delta-table", cutoff, "--K", "10"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "N must be >= 1" in captured.err

    def test_zero_z_is_usage_error(self, capsys):
        assert main(["delta-table", "--z", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "z must be nonzero" in captured.err

    @pytest.mark.parametrize("z", ["inf", "nan"])
    def test_non_finite_z_is_usage_error(self, capsys, z):
        assert main(["delta-table", "--z", z]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "must be finite" in captured.err and "z=" in captured.err

    def test_overflow_is_numerical_failure(self, capsys):
        assert main(["delta-table", "--z", "1e-100", "--N", "4",
                     "--K", "8"]) == 3
        assert "numerical failure" in capsys.readouterr().err

    @pytest.mark.parametrize("z", ["1e54", "1e60", "1e61", "1e100", "1e153",
                                   "1e154", "1e200"])
    def test_huge_z_is_numerical_failure(self, capsys, z):
        """The residual used to overflow to inf (1e54 to 1e60) or nan
        (1e154, 1e200) with only numpy RuntimeWarnings, and exit 0."""
        assert main(["delta-table", "--z", z]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "residual norm at w=" in captured.err

    def test_runs_are_byte_identical_modulo_timing(self, capsys):
        _, first = _run(capsys, ["delta-table"])
        _, second = _run(capsys, ["delta-table"])
        assert _strip_elapsed(first) == _strip_elapsed(second)

    def test_out_file(self, capsys, tmp_path):
        out = tmp_path / "table.csv"
        code, lines = _run(capsys, ["delta-table", "--N", "512",
                                    "--out", str(out)])
        assert code == 0
        assert lines == []
        text = out.read_text()
        assert text.startswith(HEADER + "\n")
        assert text.count("\n") == 4

    def test_unwritable_out_is_usage_error(self, capsys, tmp_path):
        out = tmp_path / "no" / "such" / "dir" / "table.csv"
        code = main(["delta-table", "--N", "512", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "cannot write output file" in err


class TestRow:
    def test_schema_is_field_order(self):
        assert SCHEMA == ("experiment", "method", "p", "n", "N", "ell",
                          "tau", "z", "value", "elapsed_s")
        assert SCHEMA == Row._fields

    def test_formatted_without_parameters(self):
        """Every optional column None: the strings the CSV held before
        the columns were stated once."""
        row = Row("delta-table", "parseval", value=0.5327382918126354,
                  elapsed_s=0.0001234567)
        assert row.formatted() == [
            "delta-table", "parseval", "", "", "", "", "", "",
            "5.3273829181263543e-01", "1.234567e-04"]

    def test_formatted_with_every_parameter(self):
        row = Row("bvp-uniform", "fastlanc", p=2, n=3, N=50, ell=4,
                  tau=1 / 12, z=-1.5915494309189535, value=1.25e-13,
                  elapsed_s=3.0)
        assert row.formatted() == [
            "bvp-uniform", "fastlanc", "2", "3", "50", "4",
            "0.0833333333333", "-1.59154943092",
            "1.2500000000000000e-13", "3.000000e+00"]

    def test_key_sorts_none_first_and_skips_results(self):
        low = Row("e", "m", N=None, value=2.0)
        high = Row("e", "m", N=1, value=1.0)
        assert low.key() == ("e", "m") + (-math.inf,) * 6
        assert sorted([high, low], key=Row.key) == [low, high]


class TestArgumentHandling:
    def test_unknown_flag(self, capsys):
        assert main(["delta-table", "--bogus", "1"]) == 2

    def test_missing_subcommand(self, capsys):
        assert main([]) == 2

    def test_bad_grid_choice(self, capsys):
        assert main(["bvp-compare", "--grid", "log"]) == 2


class TestConfigFile:
    def test_precedence(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# sweep setup\n"
            "z = 1\n"
            "N = 128, 256   # overridden by the flag below\n")
        code, lines = _run(capsys, ["delta-table", "--config", str(cfg),
                                    "--N", "64"])
        assert code == 0
        rows = _rows(lines)
        assert len(rows) == 1
        assert rows[0]["N"] == "64"
        assert rows[0]["z"] == "1"

    def test_out_key(self, capsys, tmp_path):
        out = tmp_path / "from_config.csv"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"N = 512\nz = 1\nout = {out}\n")
        code, lines = _run(capsys, ["delta-table", "--config", str(cfg)])
        assert code == 0
        assert lines == []
        assert out.read_text().startswith(HEADER)

    def test_unknown_key(self, capsys, tmp_path):
        """Only the command's own keys: not 'config', not an abbreviation
        ('ste' for 'steps')."""
        cfg = tmp_path / "run.cfg"
        for command, key in (("delta-table", "mystery"),
                             ("delta-table", "config"),
                             ("arnoldi-compare", "ste")):
            cfg.write_text(f"{key} = 7\n")
            assert main([command, "--config", str(cfg)]) == 2
            assert "unknown config key" in capsys.readouterr().err

    def test_unparseable_value(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("K = abc\n")
        assert main(["delta-table", "--config", str(cfg)]) == 2

    def test_negative_list_value(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("z = -1, 2\nN = 64\n")
        code, lines = _run(capsys, ["delta-table", "--config", str(cfg)])
        assert code == 0
        assert [(r["z"], r["N"]) for r in _rows(lines)] == [
            ("-1", "64"), ("2", "64")]

    def test_malformed_line(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("just some words\n")
        assert main(["delta-table", "--config", str(cfg)]) == 2

    def test_missing_file(self, capsys, tmp_path):
        assert main(["delta-table", "--config",
                     str(tmp_path / "nope.cfg")]) == 2


class TestScalarError:
    def test_sweep_shape_and_methods(self, capsys):
        code, lines = _run(capsys, [
            "scalar-error", "--p", "2", "--ell", "0,3",
            "--tau", "0.125,0", "--N", "64"])
        assert code == 0
        rows = _rows(lines)
        assert len(rows) == 2 * 2 * 400
        methods = {(r["ell"], r["method"]) for r in rows}
        assert methods == {("0", "truncated"), ("3", "accelerated")}
        zs = [float(r["z"]) for r in rows]
        assert min(zs) == pytest.approx(-10.0 / (2 * 3.14159265358979), rel=1e-6)
        assert max(zs) == 0.0

    def test_zero_tau_routes_through_shift(self, capsys):
        code, lines = _run(capsys, [
            "scalar-error", "--p", "2", "--ell", "3", "--tau", "0"])
        assert code == 0
        rows = _rows(lines)
        assert len(rows) == 400
        assert all(r["tau"] == "0" for r in rows)
        assert max(float(r["value"]) for r in rows) <= 1e-6

    def test_config_only_grid_keys(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("wmin = -2\nwmax = -1\npoints = 3\n")
        code, lines = _run(capsys, [
            "scalar-error", "--config", str(cfg), "--p", "2", "--ell", "1",
            "--tau", "0.25"])
        assert code == 0
        rows = _rows(lines)
        assert len(rows) == 3
        zs = sorted(float(r["z"]) for r in rows)
        assert zs[0] == pytest.approx(-2.0 / (2 * 3.14159265358979), rel=1e-9)
        assert zs[-1] == pytest.approx(-1.0 / (2 * 3.14159265358979), rel=1e-9)

    def test_grid_keys_as_flags(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("wmin = -2\nwmax = -1\npoints = 3\n")
        sweep = ["--p", "2", "--ell", "1", "--tau", "0.25"]
        _, from_file = _run(capsys, ["scalar-error", "--config", str(cfg),
                                     *sweep])
        code, from_flags = _run(capsys, [
            "scalar-error", "--wmin=-2", "--wmax", "-1", "--points", "3",
            *sweep])
        assert code == 0
        assert len(from_flags) == 4
        assert _strip_elapsed(from_flags) == _strip_elapsed(from_file)

    def test_endpoint_tau_is_numerical_failure(self, capsys):
        assert main(["scalar-error", "--tau", "1e-9", "--ell", "1"]) == 3

    def test_invalid_order(self, capsys):
        assert main(["scalar-error", "--p", "0"]) == 2

    def test_non_finite_w_is_usage_error(self, capsys):
        assert main(["scalar-error", "--wmin=nan", "--points", "2",
                     "--ell", "0", "--tau", "0.125"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "must be finite" in captured.err and "w=" in captured.err

    def test_overflow_is_numerical_failure(self, capsys):
        assert main(["scalar-error", "--wmin=-1e200", "--wmax=0", "--points",
                     "3", "--ell", "0", "--tau", "0.125"]) == 3
        assert "numerical failure" in capsys.readouterr().err


class TestScalarSweep:
    """scalar-error evaluates one sweep per (p, ell, tau); its cells and
    its refusals are those of the per-w G_approx and q0_shift calls."""

    @pytest.mark.parametrize("grid", [(-1e-3, 1e-3, 3), (-10.0, 2.0, 7)])
    def test_cells_match_per_call_bits(self, grid):
        wmin, wmax, points = grid
        config = {**_COMMANDS["scalar-error"][2], "p": [1, 2, 3, 6, 24],
                  "ell": [0, 2], "tau": [0.125, 0.3, 0.0], "N": 40,
                  "wmin": wmin, "wmax": wmax, "points": points}
        ws = np.linspace(wmin, wmax, points).tolist()
        assert 0.0 in ws
        expect = {}
        for p, ell, tau, w in itertools.product(
                config["p"], config["ell"], config["tau"], ws):
            params = ApproxParams(p=p, N=40, tau=tau, w=w, ell=ell,
                                  alpha=config["alpha"])
            approx = (q0_shift(w, alpha=config["alpha"], params=params)
                      if tau == 0.0 else G_approx(params))
            exact = reference_q(tau, w)
            expect[p, ell, tau, w / TWO_PI] = (
                abs(approx - exact) / abs(exact)).hex()
        report = cmd_scalar_error(config)
        assert {(r.p, r.ell, r.tau, r.z): r.value.hex()
                for r in report.rows} == expect

    @pytest.mark.parametrize("argv, code, message", [
        (["--wmin=nan"], 2, "error: w=(nan+0j) must be finite"),
        (["--tau", "0.125,1", "--ell", "0,2"], 3,
         "numerical failure: tau=1.0 is too close to an endpoint for the "
         "rational correction; evaluate tau = 0 through q0_shift instead"),
        (["--alpha", "1.5", "--tau", "0.125,0"], 2,
         "error: alpha must lie in (0, 1)"),
        (["--N", "0"], 2, "error: N must be >= 1"),
        # each cell checks w before the parameters, alpha after them
        (["--wmin=nan", "--N", "0"], 2, "error: w=(nan+0j) must be finite"),
        (["--alpha", "1.5", "--tau", "0", "--N", "0"], 2,
         "error: N must be >= 1"),
        (["--p", "2,70"], 2, "error: p must lie in 1..65"),
    ])
    def test_first_refusal_is_kept(self, capsys, argv, code, message):
        assert main(["scalar-error", *argv]) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == message + "\n"

    def test_empty_grid_checks_nothing(self, capsys):
        """With no w there is no cell, so no parameter is checked."""
        code, lines = _run(capsys, ["scalar-error", "--points", "0",
                                    "--p", "70", "--N", "0"])
        assert (code, lines) == (0, [HEADER])


class TestBvpCompare:
    def test_tiny_uniform_run(self, capsys):
        code, lines = _run(capsys, [
            "bvp-compare", "--s", "24", "--N", "8,12", "--n", "2",
            "--ell", "2,3", "--tau", "0.25"])
        assert code == 0
        rows = _rows(lines)
        assert len(rows) == 6
        assert {r["experiment"] for r in rows} == {"bvp-uniform"}
        lanc = [r for r in rows if r["method"] == "lanc"]
        fast = [r for r in rows if r["method"] == "fastlanc"]
        assert {r["N"] for r in lanc} == {"8", "12"}
        assert all(r["p"] == "6" and r["n"] == "2" for r in lanc)
        assert all(r["p"] == "2" for r in fast)
        assert {(r["N"], r["ell"]) for r in fast} == {
            ("8", "2"), ("12", "2"), ("8", "3"), ("12", "3")}
        # each cell equals a standalone plan against the spectral reference
        A = discretize_laplacian(uniform_grid(24.0, 24))
        f = np.ones(A.dimension)
        ref = spectral_reference(A, 0.25, f)
        for r in rows:
            N = int(r["N"])
            if r["method"] == "lanc":
                plan = ActionPlan(A, 6, N, 0, f, scheme="direct")
            else:
                plan = ActionPlan(A, 2, N, int(r["ell"]), f)
            err = float(np.max(np.abs(plan.evaluate(0.25) - ref)))
            assert r["value"] == format(err, ".16e")

    def test_cells_share_one_set_of_solves(self, capsys, monkeypatch):
        calls = []
        original = berngen.matfunc.shifted_solve

        def counting(A, k, b):
            calls.extend(np.atleast_1d(k).tolist())
            return original(A, k, b)

        monkeypatch.setattr(berngen.matfunc, "shifted_solve", counting)
        code, lines = _run(capsys, [
            "bvp-compare", "--s", "16", "--N", "8,12", "--n", "2",
            "--ell", "2,3"])
        assert code == 0
        assert len(_rows(lines)) == 2 * (2 + 4)
        assert sorted(calls) == list(range(1, 12 + 2 * 3 + 1))

    def test_tau_outside_unit_interval(self, capsys):
        code = main(["bvp-compare", "--s", "16", "--N", "8", "--n", "2",
                     "--ell", "2", "--tau", "1.5"])
        assert code == 2
        assert "tau must lie in [0, 1]" in capsys.readouterr().err

    def test_non_finite_tau_names_tau(self, capsys):
        """The oracle's tau array meets the one real-array gate first."""
        code = main(["bvp-compare", "--s", "16", "--N", "8", "--n", "2",
                     "--ell", "2", "--tau", "0.5,nan"])
        assert code == 2
        assert "tau must be finite" in capsys.readouterr().err

    def test_runs_above_dense_cap(self, capsys):
        """The spectral reference forms no dense exponential, so s may
        exceed DENSE_CAP."""
        assert 1536 > DENSE_CAP
        code, lines = _run(capsys, [
            "bvp-compare", "--s", "1536", "--N", "20", "--n", "2",
            "--ell", "2", "--tau", "0.25"])
        assert code == 0
        rows = _rows(lines)
        assert {r["method"] for r in rows} == {"lanc", "fastlanc"}
        assert len(rows) == 2

    def test_above_spectral_cap_is_usage_error(self, capsys):
        code = main(["bvp-compare", "--s", str(SPECTRAL_CAP + 1), "--N", "8",
                     "--n", "2", "--ell", "2"])
        assert code == 2
        assert "capped at dimension" in capsys.readouterr().err

    def test_tiny_geometric_run(self, capsys):
        code, lines = _run(capsys, [
            "bvp-compare", "--grid", "geometric", "--s", "16", "--N", "8",
            "--n", "2", "--ell", "2", "--tau", "0.25"])
        assert code == 0
        rows = _rows(lines)
        assert {r["experiment"] for r in rows} == {"bvp-geometric"}
        assert len(rows) == 2


class TestArnoldiCompare:
    def test_iteration_history(self, capsys):
        code, lines = _run(capsys, [
            "arnoldi-compare", "--test", "3", "--s", "48", "--steps", "6",
            "--N", "8", "--ell", "2"])
        assert code == 0
        rows = _rows(lines)
        assert len(rows) == 13
        arn = [r for r in rows if r["method"] == "arnoldi"]
        loss = [r for r in rows if r["method"] == "arnoldi-loss"]
        summary = [r for r in rows if r["method"] == "fastlanc"]
        assert sorted(int(r["N"]) for r in arn) == list(range(1, 7))
        assert sorted(int(r["N"]) for r in loss) == list(range(1, 7))
        assert len(summary) == 1
        assert summary[0]["N"] == "8" and summary[0]["ell"] == "2"

    def test_breakdown_stops_history(self, capsys):
        code, lines = _run(capsys, [
            "arnoldi-compare", "--test", "4", "--s", "16", "--steps", "6",
            "--N", "8"])
        assert code == 0
        rows = _rows(lines)
        assert len(rows) == 3
        assert {r["method"] for r in rows} == {"fastlanc", "arnoldi",
                                               "arnoldi-loss"}

    def test_circulant_runs_above_dense_cap(self, capsys):
        """Test 4's oracle is the FFT, so s may exceed DENSE_CAP."""
        assert 2048 > DENSE_CAP
        code, lines = _run(capsys, [
            "arnoldi-compare", "--test", "4", "--s", "2048", "--steps", "2"])
        assert code == 0
        summary = [r for r in _rows(lines) if r["method"] == "fastlanc"]
        assert len(summary) == 1
        assert float(summary[0]["value"]) <= 1e-12

    def test_unknown_test_id(self, capsys):
        assert main(["arnoldi-compare", "--test", "5"]) == 2

    def test_zero_steps(self, capsys):
        assert main(["arnoldi-compare", "--steps", "0"]) == 2


#: each command at small sizes, as (cmd_* function, overrides of its
#: defaults); s = 256 makes setup (operator, oracle, plan) a visible share
_SMALL = {
    "delta-table": (cmd_delta_table, {"z": [1.0, 10.0], "N": [64, 128],
                                      "K": 256}),
    "scalar-error": (cmd_scalar_error, {"points": 50, "N": 20,
                                        "tau": [0.125, 0.0]}),
    "bvp-compare": (cmd_bvp_compare, {"s": 256, "N": [8, 12], "n": [2],
                                      "ell": [2]}),
    "arnoldi-compare": (cmd_arnoldi_compare, {"s": 256, "steps": 6, "N": 8,
                                              "ell": 2}),
}


def _small_run(name):
    """(report, wall seconds) of one in-process call of the command."""
    run, overrides = _SMALL[name]
    config = {**_COMMANDS[name][2], **overrides}
    t0 = time.perf_counter()
    report = run(config)
    return report, time.perf_counter() - t0


class TestElapsed:
    @pytest.mark.parametrize("name", sorted(_SMALL))
    def test_column_sums_to_the_command_time(self, name):
        """elapsed_s is the time since the previous row, the first row's
        including the command's setup, so the column sums to the call."""
        report, wall = _small_run(name)
        elapsed = [row.elapsed_s for row in report.rows]
        assert elapsed
        assert all(math.isfinite(t) and t >= 0.0 for t in elapsed)
        assert wall - max(2e-3, 0.05 * wall) <= sum(elapsed) <= wall

    @pytest.mark.parametrize("name", ["arnoldi-compare", "bvp-compare"])
    def test_oracle_time_counts_in_the_first_row(self, name, monkeypatch):
        """The oracle runs before any row, so the first row waits on it."""
        original = berngen.cli.spectral_reference

        def slow(*args):
            time.sleep(0.05)
            return original(*args)

        monkeypatch.setattr(berngen.cli, "spectral_reference", slow)
        report, _ = _small_run(name)
        assert report.rows[0].elapsed_s >= 0.05


class TestEntryPoint:
    def test_module_invocation(self):
        # the child imports the same package as this process
        src = os.path.dirname(os.path.dirname(berngen.__file__))
        path = os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "berngen", "delta-table", "--N", "512",
             "--z", "1"],
            capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=path))
        assert proc.returncode == 0
        assert proc.stdout.startswith(HEADER)
        assert len(proc.stdout.splitlines()) == 2


class TestPackageExports:
    def test_every_export_resolves_once(self):
        names = berngen.__all__
        assert len(names) == len(set(names))
        for name in names:
            assert hasattr(berngen, name), name

    def test_runtime_imports_are_numpy_and_stdlib(self):
        """The README promises numpy as the only runtime dependency; scipy
        and sympy serve the tests as oracles only."""
        package = os.path.dirname(berngen.__file__)
        for name in sorted(os.listdir(package)):
            if not name.endswith(".py"):
                continue
            with open(os.path.join(package, name)) as fh:
                tree = ast.parse(fh.read(), name)
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    roots = [a.name.split(".")[0] for a in node.names]
                elif isinstance(node, ast.ImportFrom) and not node.level:
                    roots = [node.module.split(".")[0]]
                else:
                    continue
                for root in roots:
                    assert (root in sys.stdlib_module_names
                            or root in ("numpy", "berngen")), (name, root)
