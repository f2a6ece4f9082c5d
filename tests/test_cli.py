import concurrent.futures
import json
import math
import os
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

import heatflow.cli
import heatflow.fields
from heatflow.cli import main
from heatflow.expansion import PolynomialFamily, estimate_lambda_max, heat_coefficients, spectral_bound
from heatflow.fields import read_field_csv, read_stack_csv, write_field_csv, write_stack_csv, FieldStack
from heatflow.mesh import assemble_lb_operator, save_off
from heatflow.solvers import heat_smooth, heat_stack, iterative_smooth
from heatflow.sphere import icosphere


@pytest.fixture(scope="module")
def sphere_fixture(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    mesh = icosphere(1)
    mesh_path = root / "sphere1.off"
    save_off(mesh, mesh_path)
    rng = np.random.default_rng(42)
    signal = rng.standard_normal(mesh.n_vertices)
    signal_path = root / "signal.csv"
    write_field_csv(signal_path, signal)
    return root, mesh, mesh_path, signal_path, signal


class TestSmoothCommand:
    def test_writes_field_and_sidecars(self, sphere_fixture, tmp_path, capsys):
        root, mesh, mesh_path, signal_path, _ = sphere_fixture
        out = tmp_path / "g.csv"
        code = main([
            "smooth", "--mesh", str(mesh_path), "--signal", str(signal_path),
            "--sigma", "0.001", "--degree", "80", "--out", str(out),
        ])
        assert code == 0
        g = read_field_csv(out)
        assert g.size == mesh.n_vertices
        config = json.loads((tmp_path / "g.csv.config.json").read_text())
        assert config["resolved"]["degree"] == 80
        assert " degree=80 " in capsys.readouterr().out
        timing = json.loads((tmp_path / "g.csv.timing.json").read_text())
        phases = (
            timing["assembly_seconds"]
            + timing["coefficients_seconds"]
            + timing["recurrence_seconds"]
        )
        assert 0.0 <= phases <= timing["total_seconds"]

    def test_sigma_zero_identity(self, sphere_fixture, tmp_path):
        _, _, mesh_path, signal_path, signal = sphere_fixture
        out = tmp_path / "id.csv"
        assert main([
            "smooth", "--mesh", str(mesh_path), "--signal", str(signal_path),
            "--sigma", "0", "--out", str(out),
        ]) == 0
        np.testing.assert_array_equal(read_field_csv(out), signal)

    def test_sigma_zero_runs_no_recurrence(self, sphere_fixture, tmp_path, capsys):
        # a degree-1000 Hermite recurrence diverges on this mesh; sigma 0 is the identity
        _, _, mesh_path, signal_path, signal = sphere_fixture
        out = tmp_path / "id.csv"
        assert main([
            "smooth", "--mesh", str(mesh_path), "--signal", str(signal_path), "--sigma", "0",
            "--family", "hermite", "--degree", "1000", "--steps", "2", "--out", str(out),
        ]) == 0
        np.testing.assert_array_equal(read_stack_csv(out).values, np.column_stack([signal, signal]))
        assert json.loads((tmp_path / "id.csv.config.json").read_text())["resolved"]["degree"] == 0
        assert " degree=0 " in capsys.readouterr().out

    def test_growth_warning_at_the_largest_column(self, sphere_fixture, tmp_path):
        _, mesh, mesh_path, signal_path, _ = sphere_fixture
        sigma = 15.0 / estimate_lambda_max(assemble_lb_operator(mesh))
        argv = ["smooth", "--mesh", str(mesh_path), "--signal", str(signal_path),
                "--sigma", repr(sigma), "--family", "laguerre", "--degree", "60"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv + ["--out", str(tmp_path / "one.csv")]) == 0
        with pytest.warns(RuntimeWarning, match="sigma\\*lambda_max = 45"):
            assert main(argv + ["--steps", "3", "--out", str(tmp_path / "three.csv")]) == 0

    def test_iterative_stack(self, sphere_fixture, tmp_path):
        _, mesh, mesh_path, signal_path, signal = sphere_fixture
        out = tmp_path / "stack.csv"
        assert main([
            "smooth", "--mesh", str(mesh_path), "--signal", str(signal_path),
            "--sigma", "0.25", "--steps", "4", "--degree", "120", "--out", str(out),
        ]) == 0
        stack = read_stack_csv(out)
        assert stack.values.shape == (mesh.n_vertices, 4)
        assert [float(x) for x in stack.labels] == [0.25, 0.5, 0.75, 1.0]
        # column k is e^{-k sigma Delta} f from heat_stack's one recurrence and cache key;
        # the CSV round trip at 17 digits is lossless, so the columns match bitwise
        op = assemble_lb_operator(mesh)
        want = heat_stack(op, signal, [0.25, 0.5, 0.75, 1.0], m=120).values
        np.testing.assert_array_equal(stack.values, want)
        # and k repeated convolutions at sigma, the semigroup property, to rounding
        steps = np.column_stack(iterative_smooth(op, signal, 0.25, 4, m=120))
        assert np.abs(stack.values - steps).max() <= 1e-14 * np.abs(signal).max()

    @pytest.mark.parametrize("flags, family", [
        (["--family", "laguerre"], PolynomialFamily.laguerre()),
        (["--family", "jacobi", "--alpha", "0.5"], PolynomialFamily.jacobi(0.5, 0.0)),
    ])
    def test_iterative_stack_of_other_families(self, sphere_fixture, tmp_path, flags, family):
        _, mesh, mesh_path, signal_path, signal = sphere_fixture
        out = tmp_path / "stack.csv"
        assert main([
            "smooth", "--mesh", str(mesh_path), "--signal", str(signal_path),
            "--sigma", "0.01", "--steps", "3", *flags, "--out", str(out),
        ]) == 0
        steps = iterative_smooth(assemble_lb_operator(mesh), signal, 0.01, 3, family=family)
        got = read_stack_csv(out).values
        assert np.abs(got - np.column_stack(steps)).max() <= 1e-14 * np.abs(signal).max()

    def test_deterministic_outputs(self, sphere_fixture, tmp_path):
        _, _, mesh_path, signal_path, _ = sphere_fixture
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        argv = ["smooth", "--mesh", str(mesh_path), "--signal", str(signal_path),
                "--sigma", "0.01", "--degree", "60"]
        assert main(argv + ["--out", str(out1)]) == 0
        assert main(argv + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_thread_variable_is_not_read(self, sphere_fixture, tmp_path, monkeypatch):
        # BLAS threads are set before start-up (OPENBLAS_NUM_THREADS), not by heatflow
        _, _, mesh_path, signal_path, _ = sphere_fixture
        monkeypatch.setenv("HEATFLOW_THREADS", "abc")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([
                "smooth", "--mesh", str(mesh_path), "--signal", str(signal_path),
                "--sigma", "0.01", "--degree", "40", "--out", str(tmp_path / "g.csv"),
            ]) == 0

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_jacobi_exponent_rejected_before_mesh_load(
        self, sphere_fixture, tmp_path, capsys, value
    ):
        _, _, _, signal_path, _ = sphere_fixture
        assert main([
            "smooth", "--mesh", str(tmp_path / "none.off"), "--signal", str(signal_path),
            "--sigma", "0.1", "--family", "jacobi", "--alpha", value,
            "--out", str(tmp_path / "x.csv"),
        ]) == 1
        assert f"jacobi alpha must be a finite number > -1, got {value}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--sigma", "-1"), ("--sigma", "nan"), ("--steps", "0"), ("--steps", "-2"),
            ("--degree", "-3"),
        ],
    )
    def test_bad_sigma_or_steps_rejected_before_mesh_load(
        self, sphere_fixture, tmp_path, capsys, flag, value
    ):
        # the mesh path does not exist, so a flag error proves the check ran
        # first; argparse keeps the last --sigma given
        _, _, _, signal_path, _ = sphere_fixture
        code = main([
            "smooth", "--mesh", str(tmp_path / "none.off"), "--signal", str(signal_path),
            "--sigma", "0.1", flag, value, "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert f"error: {flag} must be" in err
        assert value in err

    def test_default_degree_from_coefficient_tail(self, sphere_fixture, tmp_path, capsys):
        _, mesh, mesh_path, signal_path, signal = sphere_fixture
        out = tmp_path / "auto.csv"
        assert main([
            "smooth", "--mesh", str(mesh_path), "--signal", str(signal_path),
            "--sigma", "0.01", "--out", str(out),
        ]) == 0
        config = json.loads((tmp_path / "auto.csv.config.json").read_text())
        assert config["flags"]["degree"] is None
        resolved = config["resolved"]
        op = assemble_lb_operator(mesh)
        assert resolved["b"] == spectral_bound(op)
        want = heat_coefficients(PolynomialFamily.chebyshev(b=resolved["b"]), 0.01)
        assert resolved["degree"] == want.degree < 1000
        assert f" degree={want.degree} " in capsys.readouterr().out
        np.testing.assert_allclose(read_field_csv(out), heat_smooth(op, signal, 0.01), atol=1e-14)

    def test_bad_mesh_path_exits_1(self, sphere_fixture, tmp_path):
        _, _, _, signal_path, _ = sphere_fixture
        code = main([
            "smooth", "--mesh", str(tmp_path / "none.off"), "--signal",
            str(signal_path), "--sigma", "0.1", "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 1

    def test_non_finite_signal_names_line(self, sphere_fixture, tmp_path, capsys):
        _, _, mesh_path, _, signal = sphere_fixture
        lines = [f"{v:.16e}\n" for v in signal]
        lines[7] = "nan\n"
        (tmp_path / "f.csv").write_text("".join(lines))
        code = main([
            "smooth", "--mesh", str(mesh_path), "--signal", str(tmp_path / "f.csv"),
            "--sigma", "0.01", "--degree", "200", "--out", str(tmp_path / "g.csv"),
        ])
        assert code == 1
        assert "f.csv:8: non-finite value in field CSV" in capsys.readouterr().err


class TestWaveletCommand:
    def test_ten_scale_stack(self, sphere_fixture, tmp_path):
        _, mesh, mesh_path, signal_path, _ = sphere_fixture
        out = tmp_path / "w.csv"
        scales = ",".join(str(0.002 + 0.001 * i) for i in range(10))
        assert main([
            "wavelet", "--mesh", str(mesh_path), "--signal", str(signal_path),
            "--scales", scales, "--degree", "120", "--out", str(out),
        ]) == 0
        stack = read_stack_csv(out)
        assert stack.values.shape == (mesh.n_vertices, 10)

    def test_constant_signal_near_zero(self, sphere_fixture, tmp_path):
        _, mesh, mesh_path, _, _ = sphere_fixture
        const = tmp_path / "const.csv"
        write_field_csv(const, np.full(mesh.n_vertices, 3.0))
        out = tmp_path / "wz.csv"
        assert main([
            "wavelet", "--mesh", str(mesh_path), "--signal", str(const),
            "--scales", "0.01", "--degree", "150", "--out", str(out),
        ]) == 0
        stack = read_stack_csv(out)
        assert np.abs(stack.values).max() <= 1e-6 * 3.0

    def test_missing_scales_usage_error(self, sphere_fixture, tmp_path):
        _, _, mesh_path, signal_path, _ = sphere_fixture
        with pytest.raises(SystemExit) as err:
            main([
                "wavelet", "--mesh", str(mesh_path), "--signal", str(signal_path),
                "--out", str(tmp_path / "w.csv"),
            ])
        assert err.value.code == 2

    def test_non_finite_scale_named(self, sphere_fixture, tmp_path, capsys):
        _, _, mesh_path, signal_path, _ = sphere_fixture
        out = tmp_path / "w.csv"
        assert main([
            "wavelet", "--mesh", str(mesh_path), "--signal", str(signal_path),
            "--scales", "0.002,inf", "--out", str(out),
        ]) == 1
        assert "t must be a finite number > 0, got inf" in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.parametrize("flags, message", [
        (["--degree", "-1"], "--degree must be >= 0, got -1"),
        (["--scales", "0.002,abc"], "--scales must be a comma list of float values, got '0.002,abc'"),
        (["--scales", "0.003,0.002"], "scales must be strictly increasing"),
        (["--scales", "0.002,-1"], "t must be a finite number > 0, got -1.0"),
        (["--scales", ","], "scales must be nonempty"),
    ])
    def test_bad_flags_fail_before_the_mesh_load(self, sphere_fixture, tmp_path, capsys, flags,
                                                 message):
        # the mesh path does not exist, so a flag error proves the check ran first
        _, _, _, signal_path, _ = sphere_fixture
        assert main([
            "wavelet", "--mesh", str(tmp_path / "none.off"), "--signal", str(signal_path),
            "--scales", "0.002", *flags, "--out", str(tmp_path / "w.csv"),
        ]) == 1
        assert message in capsys.readouterr().err


def _validate_eigen(tmp_path, eigs):
    """The benchmark CSV rows of a subdiv-2 eigen run, without the seconds column."""
    bench = tmp_path / f"bench_{eigs}.csv"
    assert main([
        "validate-sphere", "--subdiv", "2", "--sigma", "0.01", "--method", "eigen",
        "--eigs", eigs, "--out-report", str(tmp_path / f"r_{eigs}.json"),
        "--out-benchmark", str(bench),
    ]) == 0
    return [line.rsplit(",", 1)[0] for line in bench.read_text().splitlines()[1:]]


class TestValidateSphereCommand:
    def test_eigen_solves_once_at_largest_count(self, tmp_path, monkeypatch):
        counts = []
        real = heatflow.cli.eigen_reference
        monkeypatch.setattr(
            heatflow.cli, "eigen_reference", lambda op, k: counts.append(k) or real(op, k)
        )
        rows = _validate_eigen(tmp_path, "20,60")
        assert counts == [61]
        assert [row.split(",")[4] for row in rows] == ["20", "60"]

    def test_eigen_rows_do_not_depend_on_count_order(self, tmp_path):
        assert _validate_eigen(tmp_path, "60,20") == _validate_eigen(tmp_path, "20,60")[::-1]

    def test_counts_that_split_a_cluster_are_named(self, tmp_path, capsys):
        # at subdiv 2 the gaps after 16 and 21 are 0.4 and 5e-3; 20 and 60
        # each keep part of a cluster of equal eigenvalues
        _validate_eigen(tmp_path, "16,20,21,60")
        warned = [line for line in capsys.readouterr().err.splitlines() if "splits" in line]
        assert len(warned) == 2
        assert warned[0].startswith("validate-sphere: --eigs 20 splits the eigenvalue cluster at 18.0043;")
        assert warned[0].endswith("closes a cluster is 16")
        assert warned[1].startswith("validate-sphere: --eigs 60 splits")

    def test_eigen_count_of_every_vertex_solves_no_extra_pair(self, tmp_path, capsys, monkeypatch):
        # icosphere(1) has 42 vertices: the full solve splits nothing
        counts = []
        real = heatflow.cli.eigen_reference
        monkeypatch.setattr(
            heatflow.cli, "eigen_reference", lambda op, k: counts.append(k) or real(op, k)
        )
        assert main([
            "validate-sphere", "--subdiv", "1", "--sigma", "0.01", "--method", "eigen",
            "--eigs", "42", "--out-report", str(tmp_path / "r.json"),
            "--out-benchmark", str(tmp_path / "b.csv"),
        ]) == 0
        assert counts == [42]
        assert "splits" not in capsys.readouterr().err

    def test_negative_truth_degree_exits_1(self, tmp_path, capsys):
        assert main([
            "validate-sphere", "--subdiv", "2", "--sigma", "0.01", "--method", "chebyshev",
            "--degree", "30", "--truth-degree", "-1", "--out-report", str(tmp_path / "r.json"),
            "--out-benchmark", str(tmp_path / "b.csv"),
        ]) == 1
        assert "SPHARM degree L must be >= 0, got -1" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("method, flag, value, message", [
        ("eigen", "--eigs", "0,20", "--eigs counts must be >= 1, got 0"),
        ("chebyshevv", "--degree", "30", "unknown method 'chebyshevv'"),
    ])
    def test_bad_method_list_fails_before_the_truth_fit(
        self, tmp_path, capsys, monkeypatch, method, flag, value, message
    ):
        fits = []
        monkeypatch.setattr(heatflow.cli, "ground_truth_field", lambda *a: fits.append(a))
        assert main([
            "validate-sphere", "--subdiv", "1", "--sigma", "0.01", "--method", method,
            flag, value, "--out-report", str(tmp_path / "r.json"),
            "--out-benchmark", str(tmp_path / "b.csv"),
        ]) == 1
        assert message in capsys.readouterr().err
        assert fits == []

    @pytest.mark.parametrize("flags, message", [
        (["--sigma", "-1"], "--sigma must be a finite number >= 0, got -1.0"),
        (["--sigma", "inf"], "--sigma must be a finite number >= 0, got inf"),
        (["--sigma", "nan"], "--sigma must be a finite number >= 0, got nan"),
        (["--degree", "30,-1"], "--degree counts must be >= 0, got -1"),
        (["--method", "fem", "--iters", "0"], "--iters counts must be >= 1, got 0"),
        (["--degree", "1x"], "--degree must be a comma list of int values, got '1x'"),
        (["--method", "eigen", "--eigs", "8,x"], "--eigs must be a comma list of int values, got '8,x'"),
    ])
    def test_bad_flag_fails_before_the_truth_fit(self, tmp_path, capsys, monkeypatch, flags, message):
        def fit(*args):
            raise AssertionError("the truth fit ran")

        monkeypatch.setattr(heatflow.cli, "ground_truth_field", fit)
        # argparse keeps the last value given of a repeated flag
        assert main([
            "validate-sphere", "--subdiv", "5", "--sigma", "0.01", "--method", "chebyshev",
            "--degree", "30", *flags, "--out-report", str(tmp_path / "r.json"),
            "--out-benchmark", str(tmp_path / "b.csv"),
        ]) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_unstable_iters_fail_before_the_truth_fit(self, tmp_path, capsys, monkeypatch):
        def fit(*args):
            raise AssertionError("the truth fit ran")

        monkeypatch.setattr(heatflow.cli, "ground_truth_field", fit)
        # lambda_max is about 311 at subdiv 3, so sigma 0.01 needs 2 forward Euler steps
        assert main([
            "validate-sphere", "--subdiv", "3", "--sigma", "0.01", "--method", "chebyshev,fem",
            "--degree", "30", "--iters", "50,1", "--out-report", str(tmp_path / "r.json"),
            "--out-benchmark", str(tmp_path / "b.csv"),
        ]) == 1
        assert ("--iters counts must be >= 2 for a stable forward Euler step at --sigma 0.01, got 1"
                in capsys.readouterr().err)
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("subdiv, eigs, message", [
        ("5", "16", "--method eigen needs the dense eigensolver, limited to 5000 vertices; "
                    "--subdiv 5 has 10242"),
        ("2", "20,500", "--eigs 500 exceeds the 162 vertices of --subdiv 2"),
    ])
    def test_eigen_run_the_mesh_cannot_take_fails_before_the_truth_fit(
        self, tmp_path, capsys, monkeypatch, subdiv, eigs, message
    ):
        def fit(*args):
            raise AssertionError("the truth fit ran")

        monkeypatch.setattr(heatflow.cli, "ground_truth_field", fit)
        assert main([
            "validate-sphere", "--subdiv", subdiv, "--sigma", "0.01", "--method", "eigen",
            "--eigs", eigs, "--out-report", str(tmp_path / "r.json"),
            "--out-benchmark", str(tmp_path / "b.csv"),
        ]) == 1
        assert message in capsys.readouterr().err

    def test_nan_cap_radius_exits_1(self, tmp_path, capsys):
        assert main([
            "validate-sphere", "--subdiv", "2", "--sigma", "0.01", "--method", "chebyshev",
            "--degree", "30", "--cap-radius", "nan", "--out-report", str(tmp_path / "r.json"),
            "--out-benchmark", str(tmp_path / "b.csv"),
        ]) == 1
        assert "cap radius must be a finite number > 0, got nan" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_chebyshev_and_fem_report(self, tmp_path):
        report = tmp_path / "report.json"
        bench = tmp_path / "bench.csv"
        assert main([
            "validate-sphere", "--subdiv", "2", "--sigma", "0.01",
            "--method", "chebyshev,fem", "--degree", "30,45", "--iters", "200",
            "--out-report", str(report), "--out-benchmark", str(bench),
        ]) == 0
        rows = json.loads(report.read_text())
        assert len(rows) == 3
        by_method = {}
        for row in rows:
            by_method.setdefault(row["method"], []).append(row)
        assert {r["fidelity_param"] for r in by_method["chebyshev"]} == {30, 45}
        # at subdiv 2 the capped truth degree sets a common floor; every
        # converged method should sit on it
        assert all(r["mse"] < 1e-2 for r in rows)
        cheb = sorted(by_method["chebyshev"], key=lambda r: r["fidelity_param"])
        assert cheb[1]["mse"] <= cheb[0]["mse"] * 1.001
        header = bench.read_text().splitlines()[0]
        assert header == "method,subdiv,N,sigma,param,mse,seconds"

    def test_benchmark_alias(self, tmp_path):
        assert main([
            "benchmark", "--subdiv", "1", "--sigma", "0.01",
            "--method", "chebyshev", "--degree", "20",
            "--out-report", str(tmp_path / "r.json"),
            "--out-benchmark", str(tmp_path / "b.csv"),
        ]) == 0
        assert (tmp_path / "b.csv").exists()

    def test_subdiv_guard_exits_1(self, tmp_path):
        code = main([
            "validate-sphere", "--subdiv", "9", "--sigma", "0.01",
            "--method", "chebyshev", "--degree", "45",
            "--out-report", str(tmp_path / "r.json"),
            "--out-benchmark", str(tmp_path / "b.csv"),
        ])
        assert code == 1


def _write_group(root, name, matrix):
    """Per-subject single-column field CSVs plus matching 1-scale stacks."""
    fdir = root / name
    sdir = root / (name + "_stacks")
    fdir.mkdir()
    sdir.mkdir()
    for i in range(matrix.shape[1]):
        write_field_csv(fdir / f"subj{i:02d}.csv", matrix[:, i])
        write_stack_csv(
            sdir / f"subj{i:02d}.csv",
            FieldStack(matrix[:, i : i + 1], ["0.001"], "scales"),
        )
    return fdir, sdir


class TestStatsCommand:
    def test_ttest_identical_groups(self, tmp_path):
        rng = np.random.default_rng(0)
        mat = rng.standard_normal((15, 4))
        ga, _ = _write_group(tmp_path, "ga", mat)
        gb, _ = _write_group(tmp_path, "gb", mat)
        out = tmp_path / "tt"
        assert main([
            "stats", "ttest", "--group-a", str(ga), "--group-b", str(gb),
            "--fdr", "0.05", "--out", str(out),
        ]) == 0
        lines = (tmp_path / "tt.csv").read_text().splitlines()
        assert lines[0] == "vertex,stat,p,significant"
        body = [line.split(",") for line in lines[1:]]
        assert all(float(row[2]) == 1.0 for row in body)
        assert all(row[3] == "0" for row in body)
        sidecar = json.loads((tmp_path / "tt.json").read_text())
        assert sidecar["fdr_threshold"] is None

    def test_hotelling_single_scale_matches_ttest_squared(self, tmp_path):
        rng = np.random.default_rng(1)
        mat_a = rng.standard_normal((12, 5))
        mat_b = rng.standard_normal((12, 6)) + 0.8
        ga_f, ga_s = _write_group(tmp_path, "ga", mat_a)
        gb_f, gb_s = _write_group(tmp_path, "gb", mat_b)
        t_out = tmp_path / "t"
        h_out = tmp_path / "h"
        assert main(["stats", "ttest", "--group-a", str(ga_f), "--group-b",
                     str(gb_f), "--out", str(t_out)]) == 0
        assert main(["stats", "hotelling", "--group-a", str(ga_s), "--group-b",
                     str(gb_s), "--out", str(h_out)]) == 0
        t_rows = np.loadtxt(tmp_path / "t.csv", delimiter=",", skiprows=1)
        h_rows = np.loadtxt(tmp_path / "h.csv", delimiter=",", skiprows=1)
        np.testing.assert_allclose(h_rows[:, 1], t_rows[:, 1] ** 2, atol=1e-10)

    def test_hotelling_names_stack_with_other_scales(self, tmp_path, capsys):
        rng = np.random.default_rng(4)
        _, ga = _write_group(tmp_path, "ga", rng.standard_normal((6, 4)))
        _, gb = _write_group(tmp_path, "gb", rng.standard_normal((6, 4)))
        odd = gb / "subj02.csv"
        write_stack_csv(odd, FieldStack(rng.standard_normal((6, 1)), ["0.5"], "scales"))
        assert main(["stats", "hotelling", "--group-a", str(ga), "--group-b", str(gb),
                     "--out", str(tmp_path / "h")]) == 1
        err = capsys.readouterr().err
        assert f"{odd}: scale labels 0.5 differ from 0.001 in {ga / 'subj00.csv'}" in err
        assert not (tmp_path / "h.csv").exists()

    def test_hotelling_names_stack_of_other_shape(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        _, ga = _write_group(tmp_path, "ga", rng.standard_normal((6, 4)))
        _, gb = _write_group(tmp_path, "gb", rng.standard_normal((6, 4)))
        odd = ga / "subj03.csv"
        write_stack_csv(odd, FieldStack(rng.standard_normal((5, 1)), ["0.001"], "scales"))
        assert main(["stats", "hotelling", "--group-a", str(ga), "--group-b", str(gb),
                     "--out", str(tmp_path / "h")]) == 1
        err = capsys.readouterr().err
        assert f"{odd}: stack shape (5, 1) differs from (6, 1) in {ga / 'subj00.csv'}" in err

    def test_outputs_do_not_depend_on_which_reader_read_the_csvs(self, tmp_path, monkeypatch):
        # the encoder's CSVs go through fields._decode; with it refused, np.loadtxt
        # reads them, and every StatMap and sidecar byte must be the same
        rng = np.random.default_rng(24)
        for name, shift in (("a", 0.8), ("b", 0.0)):
            (tmp_path / name).mkdir()
            (tmp_path / (name + "_stacks")).mkdir()
            for i in range(6):
                values = rng.standard_normal((40, 3)) * 10.0 ** rng.integers(-3, 4, 3) + shift
                write_stack_csv(tmp_path / (name + "_stacks") / f"subj{i:02d}.csv",
                                FieldStack(values, ["0.001", "0.002", "0.004"], "scales"))
                write_field_csv(tmp_path / name / f"subj{i:02d}.csv", values[:, 0])

        def run(tag):
            for test, suffix in (("hotelling", "_stacks"), ("ttest", "")):
                assert main(["stats", test, "--group-a", str(tmp_path / ("a" + suffix)),
                             "--group-b", str(tmp_path / ("b" + suffix)), "--fdr", "0.05",
                             "--out", str(tmp_path / f"{tag}-{test}")]) == 0
            return {ext: (tmp_path / f"{tag}-{test}.{ext}").read_bytes()
                    for test in ("hotelling", "ttest") for ext in ("csv", "json")}

        decode = heatflow.fields._decode
        decoded = []
        monkeypatch.setattr(heatflow.fields, "_decode",
                            lambda fh, cols: decoded.append(decode(fh, cols)) or decoded[-1])
        fast = run("decoded")
        assert len(decoded) == 24 and all(arr is not None for arr in decoded)
        monkeypatch.setattr(heatflow.fields, "_decode", lambda fh, cols: None)
        assert run("loadtxt") == fast

    def test_outputs_do_not_depend_on_the_reader_thread_count(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(26)
        for name, shift in (("a", 0.5), ("b", 0.0)):
            (tmp_path / name).mkdir()
            (tmp_path / (name + "_stacks")).mkdir()
            for i in range(7):
                values = rng.standard_normal((30, 3)) * 10.0 ** rng.integers(-3, 4, 3) + shift
                write_stack_csv(tmp_path / (name + "_stacks") / f"subj{i:02d}.csv",
                                FieldStack(values, ["0.001", "0.002", "0.004"], "scales"))
                write_field_csv(tmp_path / name / f"subj{i:02d}.csv", values[:, 0])
        workers = []
        pool = heatflow.cli.concurrent.futures.ThreadPoolExecutor
        monkeypatch.setattr(heatflow.cli.concurrent.futures, "ThreadPoolExecutor",
                            lambda n: workers.append(n) or pool(n))

        def run(cpus):
            monkeypatch.setattr(heatflow.cli.os, "sched_getaffinity", lambda pid: set(range(cpus)))
            workers.clear()
            for test, suffix in (("hotelling", "_stacks"), ("ttest", ""), ("corr", "")):
                assert main(["stats", test, "--group-a", str(tmp_path / ("a" + suffix)),
                             "--group-b", str(tmp_path / ("b" + suffix)), "--fdr", "0.05",
                             "--out", str(tmp_path / f"{cpus}-{test}")]) == 0
            return {(test, ext): (tmp_path / f"{cpus}-{test}.{ext}").read_bytes()
                    for test in ("hotelling", "ttest", "corr") for ext in ("csv", "json")}

        threaded = run(4)
        assert workers == [4] * 3  # one pool for both groups of each test
        assert run(1) == threaded
        assert workers == [1] * 3

    @pytest.mark.parametrize("cpus, fallback, files, want", [
        ({0, 1, 2}, None, 5, 3), ({0, 1, 2}, None, 2, 2), (None, 6, 4, 4), (None, None, 3, 1),
    ])
    def test_readers_take_one_thread_per_usable_cpu(self, monkeypatch, cpus, fallback, files, want):
        workers = []
        pool = heatflow.cli.concurrent.futures.ThreadPoolExecutor
        monkeypatch.setattr(heatflow.cli.concurrent.futures, "ThreadPoolExecutor",
                            lambda n: workers.append(n) or pool(n))
        if cpus is None:  # a platform without sched_getaffinity falls back to cpu_count
            monkeypatch.delattr(heatflow.cli.os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(heatflow.cli.os, "cpu_count", lambda: fallback)
        else:
            monkeypatch.setattr(heatflow.cli.os, "sched_getaffinity", lambda pid: cpus)
        assert list(heatflow.cli._read_each(lambda x: x * x, list(range(files)))) == [
            x * x for x in range(files)]
        assert workers == [want]

    def test_malformed_stack_stops_the_threaded_read(self, tmp_path, monkeypatch, capsys):
        # a bad file in the middle of 12 is named by path:line as a sequential read
        # names it, and the files no reader thread has started are never read
        rng = np.random.default_rng(27)
        _, ga = _write_group(tmp_path, "ga", rng.standard_normal((5, 6)))
        _, gb = _write_group(tmp_path, "gb", rng.standard_normal((5, 6)))
        files = sorted(ga.glob("*.csv")) + sorted(gb.glob("*.csv"))
        bad = files[4]
        bad.write_text("0.001\n1.0\nabc\n1.0\n1.0\n1.0\n")
        started = []
        read = heatflow.cli.read_stack_csv
        cancelled = threading.Event()

        class Pool(concurrent.futures.ThreadPoolExecutor):
            # readers of later files wait until the queued files are cancelled,
            # however slowly the main thread gets there
            def shutdown(self, wait=True, *, cancel_futures=False):
                super().shutdown(wait=False, cancel_futures=cancel_futures)
                cancelled.set()
                super().shutdown(wait=wait)

        def held_read(path, *args, **kwargs):
            started.append(path)
            if files.index(path) > files.index(bad):
                assert cancelled.wait(timeout=60)
            return read(path, *args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Pool)
        monkeypatch.setattr(heatflow.cli, "read_stack_csv", held_read)
        monkeypatch.setattr(heatflow.cli.os, "sched_getaffinity", lambda pid: {0, 1})
        assert main(["stats", "hotelling", "--group-a", str(ga), "--group-b", str(gb),
                     "--out", str(tmp_path / "h")]) == 1
        assert f"{bad}:3: malformed stack CSV" in capsys.readouterr().err
        assert set(started) <= set(files[:7])  # the bad file's and at most one more per thread
        assert not (tmp_path / "h.csv").exists()

    def test_threaded_reads_leave_the_warning_filters_alone(self, tmp_path, monkeypatch):
        # hand-written stacks go to np.loadtxt; a header-only one is named by the
        # rescan, with no numpy warning to silence and no filter changed on the way
        for group in ("ga", "gb"):
            (tmp_path / group).mkdir()
            for i in range(4):
                (tmp_path / group / f"subj{i:02d}.csv").write_text("0.001,0.002\n0.5,1.25\n-2,3.5\n")
        header_only = tmp_path / "gb" / "subj01.csv"
        header_only.write_text("0.001,0.002\n")
        monkeypatch.setattr(heatflow.cli.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        guards = []
        catch = warnings.catch_warnings
        monkeypatch.setattr(warnings, "catch_warnings", lambda **kw: guards.append(kw) or catch(**kw))
        with catch():
            warnings.simplefilter("error")
            before = list(warnings.filters)
            with pytest.raises(ValueError, match=f"^{header_only}: stack CSV has no data rows$"):
                heatflow.cli._read_groups((tmp_path / "ga", tmp_path / "gb"), heatflow.cli._stack,
                                          "stack")
            assert warnings.filters == before
        assert guards == []  # catch_warnings swaps the module's filters, racing other threads

    def test_threaded_stack_read_matches_one_thread_under_stress(self, tmp_path, monkeypatch):
        # more reader threads than CPUs, switching often, and a first call of the
        # decoder's cached tables: every value must be bitwise what one thread reads
        rng = np.random.default_rng(29)
        for group in ("ga", "gb"):
            (tmp_path / group).mkdir()
            for i in range(8):
                values = rng.standard_normal((300, 3)) * 10.0 ** rng.integers(-300, 300, 3)
                write_stack_csv(tmp_path / group / f"subj{i:02d}.csv",
                                FieldStack(values, ["0.001", "0.002", "0.004"], "scales"))
        (tmp_path / "gb" / "subj07.csv").write_text("0.001,0.002,0.004\n" + "0.5,1.25,-3\n" * 300)

        def read(cpus):
            monkeypatch.setattr(heatflow.cli.os, "sched_getaffinity", lambda pid: set(range(cpus)))
            groups = heatflow.cli._read_groups((tmp_path / "ga", tmp_path / "gb"),
                                               heatflow.cli._stack, "stack")
            return [values for _, values in groups]

        want = read(1)
        heatflow.fields._tables.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = read(16)
        finally:
            sys.setswitchinterval(interval)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g.view(np.int64), w.view(np.int64))

    def test_hotelling_names_overflowing_features(self, tmp_path, capsys):
        rng = np.random.default_rng(28)
        for group in ("ga", "gb"):
            (tmp_path / group).mkdir()
            for i in range(6):
                write_stack_csv(tmp_path / group / f"subj{i:02d}.csv",
                                FieldStack(rng.standard_normal((40, 3)) * 1e200,
                                           ["0.001", "0.002", "0.004"], "scales"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["stats", "hotelling", "--group-a", str(tmp_path / "ga"),
                         "--group-b", str(tmp_path / "gb"), "--out", str(tmp_path / "h")]) == 1
        assert ("heatflow stats: error: pooled covariance overflows at vertex 0"
                in capsys.readouterr().err)
        assert not (tmp_path / "h.csv").exists()

    @pytest.mark.parametrize("test, what", [("ttest", "pooled variance"),
                                            ("corr", "variance product")])
    def test_overflowing_fields_are_named(self, tmp_path, capsys, test, what):
        rng = np.random.default_rng(30)
        mat = rng.standard_normal((4, 6)) * 1e160
        ga, _ = _write_group(tmp_path, "ga", mat)
        gb, _ = _write_group(tmp_path, "gb", mat + rng.standard_normal((4, 6)) * 1e159)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["stats", test, "--group-a", str(ga), "--group-b", str(gb),
                         "--out", str(tmp_path / "x")]) == 1
        assert (f"heatflow stats: error: {what} overflows at vertex 0: its values are too large"
                in capsys.readouterr().err)
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("test", ["ttest", "corr"])
    def test_field_of_another_length_is_named(self, tmp_path, capsys, test):
        rng = np.random.default_rng(31)
        ga, _ = _write_group(tmp_path, "ga", rng.standard_normal((6, 4)))
        gb, _ = _write_group(tmp_path, "gb", rng.standard_normal((6, 4)))
        odd = gb / "subj02.csv"
        write_field_csv(odd, rng.standard_normal(5))
        assert main(["stats", test, "--group-a", str(ga), "--group-b", str(gb),
                     "--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert f"{odd}: field shape (5,) differs from (6,) in {ga / 'subj00.csv'}" in err
        assert not (tmp_path / "x.csv").exists()

    def test_hotelling_refuses_a_stacked_group_before_any_read(self, tmp_path, capsys,
                                                                monkeypatch):
        def read(*args, **kwargs):
            raise AssertionError("a CSV was read")

        rng = np.random.default_rng(32)
        _, ga = _write_group(tmp_path, "ga", rng.standard_normal((6, 4)))
        stacked = tmp_path / "gb.csv"
        write_stack_csv(stacked, FieldStack(rng.standard_normal((6, 4)),
                                            [f"subj{i:02d}" for i in range(4)], "subjects"))
        monkeypatch.setattr(heatflow.cli, "read_field_csv", read)
        monkeypatch.setattr(heatflow.cli, "read_stack_csv", read)
        assert main(["stats", "hotelling", "--group-a", str(ga), "--group-b", str(stacked),
                     "--out", str(tmp_path / "h")]) == 1
        assert (f"{stacked}: hotelling needs a directory of per-subject stacks"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("test", ["ttest", "corr"])
    def test_two_stacked_groups_read_as_their_directories(self, tmp_path, monkeypatch, test):
        # two stacked CSVs start no reader pool, and give the bytes of their directories
        rng = np.random.default_rng(33)
        mats = {name: rng.standard_normal((9, 5)) for name in ("ga", "gb")}
        for name, mat in mats.items():
            _write_group(tmp_path, name, mat)
            write_stack_csv(tmp_path / f"{name}.csv", FieldStack(
                mat, [f"subj{i:02d}" for i in range(5)], "subjects"))
        workers = []
        pool = heatflow.cli.concurrent.futures.ThreadPoolExecutor
        monkeypatch.setattr(heatflow.cli.concurrent.futures, "ThreadPoolExecutor",
                            lambda n: workers.append(n) or pool(n))
        for suffix, out in (("", "dirs"), (".csv", "stacked")):
            assert main(["stats", test, "--group-a", str(tmp_path / ("ga" + suffix)),
                         "--group-b", str(tmp_path / ("gb" + suffix)), "--fdr", "0.1",
                         "--out", str(tmp_path / out)]) == 0
        assert len(workers) == 1
        for ext in ("csv", "json"):
            assert (tmp_path / f"dirs.{ext}").read_bytes() == (tmp_path / f"stacked.{ext}").read_bytes()

    def test_corr_paired(self, tmp_path):
        rng = np.random.default_rng(2)
        mat_a = rng.standard_normal((10, 6))
        mat_b = 0.5 * mat_a + 0.5 * rng.standard_normal((10, 6))
        ga, _ = _write_group(tmp_path, "ga", mat_a)
        gb, _ = _write_group(tmp_path, "gb", mat_b)
        out = tmp_path / "corr"
        assert main([
            "stats", "corr", "--group-a", str(ga), "--group-b", str(gb),
            "--out", str(out),
        ]) == 0
        rows = np.loadtxt(tmp_path / "corr.csv", delimiter=",", skiprows=1)
        assert np.all(np.abs(rows[:, 1]) <= 1.0)

    @pytest.mark.parametrize("before, after", [(["--seed", "1"], []), ([], ["--paired"])])
    def test_removed_flags_are_usage_errors(self, tmp_path, before, after):
        with pytest.raises(SystemExit) as err:
            main(before + ["stats", "corr", "--group-a", str(tmp_path), "--group-b",
                           str(tmp_path), "--out", str(tmp_path / "corr")] + after)
        assert err.value.code == 2

    def test_corr_paired_names_unmatched_stem(self, tmp_path, capsys):
        rng = np.random.default_rng(6)
        ga, _ = _write_group(tmp_path, "ga", rng.standard_normal((10, 5)))
        gb, _ = _write_group(tmp_path, "gb", rng.standard_normal((10, 5)))
        (gb / "subj04.csv").rename(gb / "subj07.csv")
        assert main([
            "stats", "corr", "--group-a", str(ga), "--group-b", str(gb),
            "--out", str(tmp_path / "corr"),
        ]) == 1
        assert f"{ga}: subject subj04 has no partner in {gb}" in capsys.readouterr().err
        assert not (tmp_path / "corr.csv").exists()

    def test_corr_paired_refuses_repeated_names(self, tmp_path, capsys):
        rng = np.random.default_rng(8)
        ga, _ = _write_group(tmp_path, "ga", rng.standard_normal((10, 3)))
        stacked = tmp_path / "gb.csv"
        labels = ["subj00", "subj01", "subj01"]
        write_stack_csv(stacked, FieldStack(rng.standard_normal((10, 3)), labels, "subjects"))
        assert main([
            "stats", "corr", "--group-a", str(ga), "--group-b", str(stacked),
            "--out", str(tmp_path / "corr"),
        ]) == 1
        assert f"{stacked}: repeated subject names cannot be paired" in capsys.readouterr().err

    def test_corr_paired_matches_stacked_columns_by_label(self, tmp_path):
        rng = np.random.default_rng(7)
        mat_a = rng.standard_normal((10, 5))
        mat_b = 0.5 * mat_a + 0.5 * rng.standard_normal((10, 5))
        ga, _ = _write_group(tmp_path, "ga", mat_a)
        gb, _ = _write_group(tmp_path, "gb", mat_b)
        shuffled = tmp_path / "gb.csv"
        order = [3, 0, 4, 1, 2]
        write_stack_csv(
            shuffled, FieldStack(mat_b[:, order], [f"subj{i:02d}" for i in order], "subjects")
        )
        for group_b, out in ((gb, "by_dir"), (shuffled, "by_stack")):
            assert main([
                "stats", "corr", "--group-a", str(ga), "--group-b", str(group_b),
                "--out", str(tmp_path / out),
            ]) == 0
        assert (tmp_path / "by_dir.csv").read_bytes() == (tmp_path / "by_stack.csv").read_bytes()

    def test_stacked_csv_group_input(self, tmp_path):
        rng = np.random.default_rng(3)
        mat = rng.standard_normal((8, 5))
        stacked = tmp_path / "groupA.csv"
        write_stack_csv(stacked, FieldStack(mat, [f"s{i}" for i in range(5)], "subjects"))
        gb, _ = _write_group(tmp_path, "gb", mat + 0.1)
        assert main([
            "stats", "ttest", "--group-a", str(stacked), "--group-b", str(gb),
            "--out", str(tmp_path / "out"),
        ]) == 0
        assert (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("test", ["ttest", "hotelling", "corr"])
    @pytest.mark.parametrize("fdr", ["1.5", "nan", "0", "1", "-0.05"])
    def test_fdr_outside_unit_interval_fails_before_any_csv_is_read(
        self, tmp_path, capsys, monkeypatch, test, fdr
    ):
        def read(*args, **kwargs):
            raise AssertionError("a CSV was read")

        monkeypatch.setattr(heatflow.cli, "read_field_csv", read)
        monkeypatch.setattr(heatflow.cli, "read_stack_csv", read)
        ga, _ = _write_group(tmp_path, "ga", np.zeros((5, 3)))
        gb, _ = _write_group(tmp_path, "gb", np.ones((5, 3)))
        assert main([
            "stats", test, "--group-a", str(ga), "--group-b", str(gb), "--fdr", fdr,
            "--out", str(tmp_path / "x"),
        ]) == 1
        assert f"--fdr must be in (0, 1), got {float(fdr)}" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_mismatched_vertex_counts_exit_1(self, tmp_path):
        ga, _ = _write_group(tmp_path, "ga", np.zeros((5, 3)))
        gb, _ = _write_group(tmp_path, "gb", np.zeros((7, 3)))
        code = main([
            "stats", "ttest", "--group-a", str(ga), "--group-b", str(gb),
            "--out", str(tmp_path / "x"),
        ])
        assert code == 1


class TestLboCommand:
    def test_export_equilateral(self, tmp_path, capsys):
        verts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.5, math.sqrt(3) / 2, 0.0]])
        from heatflow.mesh import TriangleMesh

        save_off(TriangleMesh(verts, np.array([[0, 1, 2]])), tmp_path / "tri.off")
        out_c = tmp_path / "C.mtx"
        out_a = tmp_path / "A.csv"
        assert main(["lbo", "--mesh", str(tmp_path / "tri.off"),
                     "--out-c", str(out_c), "--out-a", str(out_a)]) == 0
        lines = out_c.read_text().splitlines()
        assert lines[0] == "%%MatrixMarket matrix coordinate real symmetric"
        off_diag = [float(line.split()[2]) for line in lines[2:]
                    if line.split()[0] != line.split()[1]]
        assert len(off_diag) == 3
        for v in off_diag:
            assert v == pytest.approx(-1.0 / (2 * math.sqrt(3.0)), rel=1e-12)
        # eigenvalues 0, 6, 6; Gershgorin gives (1/sqrt3 + 1/sqrt3) / (sqrt3/12) = 8
        assert "lambda_max~6.06 b=8\n" in capsys.readouterr().out

    def test_missing_mesh_exit_1(self, tmp_path):
        code = main(["lbo", "--mesh", str(tmp_path / "none.off"),
                     "--out-c", str(tmp_path / "C.mtx"), "--out-a", str(tmp_path / "A.csv")])
        assert code == 1


def test_cold_import_leaves_out_lazy_scipy_modules():
    # estimate_lambda_max and numeric_coefficients import scipy.sparse.linalg
    # and scipy.fft inside the function, so commands that never call them
    # (stats) do not pay for them at start-up
    src = Path(__file__).resolve().parent.parent / "src"
    # the field writers build their power-of-ten tables from Python ints, so
    # fractions and decimal stay out too
    code = (
        "import sys; import heatflow.cli; print(sorted(m for m in "
        "('scipy.sparse.linalg', 'scipy.fft', 'fractions', 'decimal') if m in sys.modules))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
