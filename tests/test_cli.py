import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from opsinkhorn import channels, cli, linalg, policy, scaling, serialization
from opsinkhorn.channels import ChoiMatrix
from opsinkhorn.cli import main
from opsinkhorn.errors import (
    ConvergenceError,
    DomainError,
    InvalidInputError,
    ParseError,
    SingularityError,
    UnsupportedError,
)
from opsinkhorn.reference import reference_rho0

import oracles


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def diagonal_choi_file(tmp_path, a):
    path = tmp_path / "diag.json"
    serialization.save_choi(path, oracles.diagonal_choi(a))
    return path


class TestScale:
    def test_reference_input_reaches_uniform_marginals(self, capsys):
        code, out, _ = run_cli(capsys, "scale", "--paper-rho0", "--method", "sld", "--max-iters", "200")
        assert code == 0
        summary = json.loads(out)
        assert summary["converged"] is True
        matrix = np.array(summary["matrix"]["re"]) + 1j * np.array(summary["matrix"]["im"])
        assert np.linalg.norm(linalg.partial_trace(matrix, 2, 2, "first") - np.eye(2) / 2) <= 1e-4
        assert summary["capacity"] is not None

    def test_feasible_input_converges_in_zero_sweeps(self, capsys, tmp_path):
        path = tmp_path / "id.json"
        serialization.save_choi(path, ChoiMatrix(n=2, m=2, matrix=np.eye(4) / 4))
        code, out, _ = run_cli(capsys, "scale", str(path))
        summary = json.loads(out)
        assert code == 0
        assert summary["sweeps"] == 0 and summary["residual"] == 0.0
        assert summary["capacity"] == pytest.approx(1.0)

    def test_fractional_choi_dims_exit_2(self, capsys, tmp_path):
        # "n": 2.7 on a 4 x 4 payload is not read as 2
        path = tmp_path / "frac.json"
        payload = serialization.matrix_to_payload("choi", np.eye(4) / 4, 2, 2)
        path.write_text(json.dumps({**payload, "n": 2.7}))
        code, out, err = run_cli(capsys, "scale", str(path))
        assert code == 2 and out == ""
        assert "choi payload 'n' must be an int of at least 1, got 2.7" in err

    @pytest.mark.parametrize("gap, code", [(1e-13, 0), (1e-10, 2)])
    def test_payload_hermitian_within_the_policy_tolerance(self, capsys, tmp_path, gap, code):
        # the parser applies the package's hermitian_atol (1e-12), so a gap
        # above it is a parse failure, not a numeric one past the parser
        path = tmp_path / "gap.json"
        payload = serialization.matrix_to_payload("choi", np.eye(4) / 4, 2, 2)
        payload["im"][0][1] = gap
        path.write_text(json.dumps(payload))
        got, out, err = run_cli(capsys, "scale", str(path))
        assert got == code
        if code:
            assert out == "" and f"choi payload is not Hermitian: max deviation {gap:.3e} > 1.0e-12" in err

    def test_diagonal_input_stays_diagonal(self, capsys, tmp_path):
        rng = np.random.default_rng(0)
        a = rng.uniform(0.1, 1.0, size=(2, 2))
        a /= a.sum()
        path = diagonal_choi_file(tmp_path, a)
        code, out, _ = run_cli(capsys, "scale", str(path))
        assert code == 0
        summary = json.loads(out)
        matrix = np.array(summary["matrix"]["re"]) + 1j * np.array(summary["matrix"]["im"])
        off = matrix - np.diag(np.diag(matrix))
        assert np.abs(off).max() <= 1e-12

    def test_output_files(self, capsys, tmp_path):
        out_dir = tmp_path / "res"
        code, out, _ = run_cli(
            capsys, "scale", "--paper-rho0", "--out", str(out_dir)
        )
        assert code == 0
        final = serialization.load_choi(out_dir / "final.json")
        summary = json.loads((out_dir / "summary.json").read_text())
        stdout_summary = json.loads(out)
        assert summary["converged"] == stdout_summary["converged"]
        np.testing.assert_array_equal(
            final.matrix,
            np.array(stdout_summary["matrix"]["re"]) + 1j * np.array(stdout_summary["matrix"]["im"]),
        )
        lines = (out_dir / "residuals.csv").read_text().strip().splitlines()
        assert lines[0] == "iter,residual"
        assert len(lines) == summary["sweeps"] + 2  # header + initial + per-sweep

    @pytest.mark.parametrize("source", [
        ["--paper-rho0"],
        ["--paper-rho0", "--method", "bkm", "--max-iters", "1"],
        ["--dims", "2", "3", "--method", "burg", "--max-iters", "3"],
        ["m.json"],
    ])
    def test_summary_file_is_the_stdout_status(self, capsys, tmp_path, monkeypatch, source):
        # every key of the printed status but the matrix, with its value
        monkeypatch.chdir(tmp_path)
        serialization.save_matrix("m.json", "matrix", np.array([[0.1, 0.2], [0.3, 0.4]], dtype=complex))
        code, out, _ = run_cli(capsys, "scale", *source, "--out", "res")
        assert code == 0
        printed = json.loads(out)
        assert set(printed) == {"converged", "sweeps", "residual", "capacity", "matrix"}
        del printed["matrix"]
        assert json.loads(Path("res/summary.json").read_text()) == printed

    def test_matrix_payload_runs_classical_scaling(self, capsys, tmp_path):
        a = np.array([[1.0, 2.0], [3.0, 4.0]]) / 10.0
        path = tmp_path / "m.json"
        serialization.save_matrix(path, "matrix", a.astype(complex))
        code, out, _ = run_cli(capsys, "scale", str(path))
        assert code == 0
        summary = json.loads(out)
        final = np.array(summary["matrix"]["re"])
        np.testing.assert_allclose(final.sum(axis=1), 0.5, atol=1e-4)
        np.testing.assert_allclose(final.sum(axis=0), 0.5, atol=1e-4)

    def test_complex_matrix_payload_exits_3(self, capsys, tmp_path):
        # the imaginary part of a matrix payload is not dropped in silence
        path = tmp_path / "m.json"
        a = np.array([[1.0, 2.0], [3.0, 4.0]]) / 10.0 + 1j * np.array([[0.0, 0.5], [0.0, 0.0]])
        serialization.save_matrix(path, "matrix", a)
        code, out, err = run_cli(capsys, "scale", str(path))
        assert code == 3 and out == ""
        assert "real entries" in err

    def test_unknown_method_exits_4(self, capsys):
        code, _, err = run_cli(capsys, "scale", "--paper-rho0", "--method", "newton")
        assert code == 4 and "method" in err

    def test_matrix_payload_rejects_bkm(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        serialization.save_matrix(path, "matrix", np.full((2, 2), 0.25).astype(complex))
        code, _, _ = run_cli(capsys, "scale", str(path), "--method", "bkm")
        assert code == 4

    @pytest.mark.parametrize("flag", ["--target-p", "--target-q"])
    def test_matrix_payload_rejects_targets(self, capsys, tmp_path, flag):
        path = tmp_path / "m.json"
        run_cli(capsys, "gen", "--dims", "2", "3", "--kind", "matrix", "--seed", "1", "--out", str(path))
        target = tmp_path / "p.json"
        serialization.save_matrix(target, "density", np.diag([0.7, 0.3]).astype(complex))
        code, out, err = run_cli(capsys, "scale", str(path), flag, str(target))
        assert code == 4 and out == ""
        assert flag in err

    def test_parse_failure_exits_2(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{")
        code, _, _ = run_cli(capsys, "scale", str(path))
        assert code == 2

    def test_missing_input_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "scale")
        assert code == 2

    def test_indefinite_input_exits_3(self, capsys, tmp_path):
        path = tmp_path / "neg.json"
        mat = np.diag([0.7, 0.5, 0.3, -0.5])
        payload = {"kind": "choi", "n": 2, "m": 2, "re": mat.tolist(), "im": np.zeros((4, 4)).tolist()}
        path.write_text(json.dumps(payload))
        code, _, _ = run_cli(capsys, "scale", str(path))
        assert code == 3

    def test_density_payload_needs_dims(self, capsys, tmp_path):
        rho = channels.random_density(4, np.random.default_rng(1))
        path = tmp_path / "rho.json"
        serialization.save_matrix(path, "density", rho)
        code, _, _ = run_cli(capsys, "scale", str(path))
        assert code == 2
        code, out, _ = run_cli(capsys, "scale", str(path), "--dims", "2", "2")
        assert code == 0 and json.loads(out)["converged"] is True

    def test_general_marginal_targets(self, capsys, tmp_path):
        rng = np.random.default_rng(33)
        p = channels.random_density(2, rng)
        q = channels.random_density(2, rng)
        p_path, q_path = tmp_path / "p.json", tmp_path / "q.json"
        serialization.save_matrix(p_path, "density", p)
        serialization.save_matrix(q_path, "density", q)
        code, out, _ = run_cli(
            capsys,
            "scale", "--dims", "2", "2", "--seed", "4",
            "--target-p", str(p_path), "--target-q", str(q_path),
            "--max-iters", "500",
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["converged"] is True
        assert summary["capacity"] is None  # defined only for doubly stochastic runs
        matrix = np.array(summary["matrix"]["re"]) + 1j * np.array(summary["matrix"]["im"])
        assert np.linalg.norm(linalg.partial_trace(matrix, 2, 2, "first") - p) <= 1e-3
        assert np.linalg.norm(linalg.partial_trace(matrix, 2, 2, "second") - q) <= 1e-3

    def test_choi_target_payload_rejected(self, capsys, tmp_path):
        t_path = tmp_path / "t.json"
        serialization.save_choi(t_path, ChoiMatrix(n=1, m=2, matrix=np.eye(2) / 2))
        code, _, _ = run_cli(
            capsys, "scale", "--paper-rho0", "--target-p", str(t_path)
        )
        assert code == 2

    def test_solver_breakdown_exits_5(self, capsys):
        previous = policy.set_policy(policy.relaxed(bkm_max_iters=1, bkm_gradient_tol=1e-16))
        try:
            code, _, _ = run_cli(capsys, "scale", "--paper-rho0", "--method", "bkm")
        finally:
            policy.set_policy(previous)
        assert code == 5


    def test_overflowed_final_exits_5(self, capsys, monkeypatch):
        # a final that is not finite is an overflow, not an output
        monkeypatch.setattr(scaling, "congruence", lambda mat, *args: np.full(np.shape(mat), np.inf + 0j))
        code, out, err = run_cli(capsys, "scale", "--paper-rho0")
        assert code == 5 and out == ""
        assert "sld run overflowed" in err


class TestContradictoryInput:
    """An input given twice in ways that disagree is a usage error (exit 2)
    before anything is solved, not a silent choice of one of them."""

    @pytest.fixture
    def choi_file(self, capsys, tmp_path):
        path = tmp_path / "inst22.json"
        assert run_cli(capsys, "gen", "--dims", "2", "2", "--seed", "3", "--out", str(path))[0] == 0
        return path

    @pytest.mark.parametrize("command", ["scale", "compare", "diffquot"])
    def test_file_and_paper_rho0(self, capsys, choi_file, command):
        code, out, err = run_cli(capsys, command, str(choi_file), "--paper-rho0")
        assert code == 2 and out == ""
        assert "--paper-rho0" in err

    @pytest.mark.parametrize("command", ["scale", "compare", "diffquot"])
    @pytest.mark.parametrize("source", ["file", "--paper-rho0"])
    def test_dims_against_a_choi_input(self, capsys, choi_file, command, source):
        given = str(choi_file) if source == "file" else source
        code, out, err = run_cli(capsys, command, given, "--dims", "2", "3")
        assert code == 2 and out == ""
        assert "--dims 2 3 contradicts the block shape (2, 2)" in err
        # a --dims that agrees is no contradiction
        code, out, _ = run_cli(capsys, command, given, "--dims", "2", "2", "--max-iters", "3")
        assert code == 0 and out

    def test_dims_with_a_matrix_payload(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        run_cli(capsys, "gen", "--dims", "2", "3", "--kind", "matrix", "--seed", "1", "--out", str(path))
        for dims in (("2", "3"), ("3", "2")):
            code, out, err = run_cli(capsys, "scale", str(path), "--dims", *dims)
            assert code == 2 and out == ""
            assert "--dims does not apply to a matrix payload" in err
        code, out, _ = run_cli(capsys, "scale", str(path), "--paper-rho0")
        assert code == 2 and out == ""

    @pytest.mark.parametrize("command", ["scale", "compare", "diffquot"])
    def test_dims_against_a_density_input(self, capsys, tmp_path, command):
        path = tmp_path / "rho.json"
        serialization.save_matrix(path, "density", channels.random_density(4, np.random.default_rng(1)))
        code, out, err = run_cli(capsys, command, str(path), "--dims", "2", "3")
        assert code == 2 and out == ""
        assert err == "error: --dims 2 3 contradicts the shape (4, 4) of the density payload\n"

    @pytest.mark.parametrize("command", ["scale", "compare", "diffquot"])
    @pytest.mark.parametrize("flag, size", [("--target-p", 3), ("--target-q", 2)])
    def test_target_that_does_not_fit_the_input(self, capsys, tmp_path, command, flag, size):
        # a 2 x 3 Choi input takes a 3 x 3 P and a 2 x 2 Q; each flag gets
        # the other's size, a contradiction between two inputs
        path = tmp_path / "inst23.json"
        assert run_cli(capsys, "gen", "--dims", "2", "3", "--seed", "3", "--out", str(path))[0] == 0
        target = tmp_path / "target.json"
        serialization.save_matrix(target, "density", channels.random_density(5 - size, np.random.default_rng(2)))
        code, out, err = run_cli(capsys, command, str(path), flag, str(target))
        assert code == 2 and out == ""
        assert err == (
            f"error: {flag} of shape {(5 - size, 5 - size)} does not fit the input of block shape (2, 3): "
            f"it must be {size} x {size}\n"
        )


class TestCompare:
    def test_reference_outputs_distinct(self, capsys):
        code, out, _ = run_cli(capsys, "compare", "--paper-rho0")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "method,sld,bkm,burg"
        table = {row.split(",")[0]: [float(x) for x in row.split(",")[1:]] for row in lines[1:]}
        assert table["sld"][1] > 1e-2 and table["sld"][2] > 1e-2 and table["bkm"][2] > 1e-2
        assert table["sld"][0] == 0.0

    def test_diagonal_input_sld_bkm_agree_burg_differs(self, capsys, tmp_path):
        rng = np.random.default_rng(2)
        a = rng.uniform(0.1, 1.0, size=(2, 2))
        a /= a.sum()
        path = diagonal_choi_file(tmp_path, a)
        code, out, _ = run_cli(capsys, "compare", str(path), "--max-iters", "400")
        assert code == 0
        lines = out.strip().splitlines()
        table = {row.split(",")[0]: [float(x) for x in row.split(",")[1:]] for row in lines[1:]}
        assert table["sld"][1] < 1e-6  # sld vs bkm
        assert table["sld"][2] > 1e-3  # sld vs burg: different limit classically

    def test_deterministic_output(self, capsys):
        _, first, _ = run_cli(capsys, "compare", "--dims", "2", "2", "--seed", "7")
        _, second, _ = run_cli(capsys, "compare", "--dims", "2", "2", "--seed", "7")
        assert first == second

    def test_writes_matrices(self, capsys, tmp_path):
        out_dir = tmp_path / "cmp"
        code, out, _ = run_cli(capsys, "compare", "--paper-rho0", "--out", str(out_dir))
        assert code == 0
        for name in ("sld", "bkm", "burg"):
            assert (out_dir / f"{name}.json").exists()
        assert (out_dir / "distances.csv").read_text() == out

    def test_reports_unconverged_methods(self, capsys, tmp_path):
        # one sweep stops the sld and bkm alternations short of tol; the
        # Burg column is its joint limit, which no sweep budget bounds
        out_dir = tmp_path / "cmp"
        code, out, err = run_cli(
            capsys, "compare", "--paper-rho0", "--max-iters", "1", "--out", str(out_dir)
        )
        assert code == 0
        assert (out_dir / "distances.csv").read_text() == out
        summary = json.loads((out_dir / "summary.json").read_text())
        assert set(summary) == {"sld", "bkm", "burg"}
        for entry in summary.values():
            assert set(entry) == {"converged", "sweeps", "residual", "solver"}
        assert summary["burg"]["converged"] is True
        warnings = err.strip().splitlines()
        assert len(warnings) == 2
        for method, warning in zip(("sld", "bkm"), warnings):
            entry = summary[method]
            assert entry["converged"] is False and entry["sweeps"] == 1 and entry["residual"] >= 1e-8
            assert entry["solver"] == "alternation"
            assert warning.startswith(f"warning: {method} did not converge") and "1 sweeps" in warning
            assert f"{entry['residual']:.3e}" in warning

    def test_burg_column_is_the_joint_limit(self, capsys, tmp_path):
        out_dir = tmp_path / "cmp"
        code, _, err = run_cli(capsys, "compare", "--paper-rho0", "--out", str(out_dir))
        assert code == 0 and err == ""
        summary = json.loads((out_dir / "summary.json").read_text())
        limit = scaling.joint_limit("burg", reference_rho0(), scaling.ScalingConfig())
        assert summary["burg"] == {
            "converged": True,
            "sweeps": limit.sweeps,
            "residual": limit.residuals[-1],
            "solver": "joint",
        }
        assert summary["burg"]["residual"] < 1e-20
        assert summary["sld"]["solver"] == summary["bkm"]["solver"] == "alternation"
        written = serialization.load_choi(out_dir / "burg.json")
        assert np.array_equal(written.matrix, limit.final.matrix)


class TestDiffquot:
    def test_reference_case_stays_away_from_zero(self, capsys):
        code, out, _ = run_cli(capsys, "diffquot", "--paper-rho0", "--tag", "bs")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "log10_h,delta"
        deltas = [abs(float(r.split(",")[1])) for r in lines[1:]]
        assert len(deltas) == 36
        assert min(deltas) > 1e-3

    def test_diagonal_case_decays(self, capsys, tmp_path):
        rng = np.random.default_rng(3)
        a = rng.uniform(0.2, 1.0, size=(2, 2))
        a /= a.sum()
        path = diagonal_choi_file(tmp_path, a)
        code, out, _ = run_cli(capsys, "diffquot", str(path), "--tag", "bs", "--tol", "1e-20", "--max-iters", "3000")
        assert code == 0
        rows = [r.split(",") for r in out.strip().splitlines()[1:]]
        small_h = [abs(float(d)) for lh, d in rows if float(lh) <= -3.0]
        assert max(small_h) < 1e-3

    def test_kl_matches_bs_on_diagonal_case(self, capsys, tmp_path):
        rng = np.random.default_rng(4)
        a = rng.uniform(0.2, 1.0, size=(2, 2))
        a /= a.sum()
        path = diagonal_choi_file(tmp_path, a)
        _, out_bs, _ = run_cli(capsys, "diffquot", str(path), "--tag", "bs", "--tol", "1e-20", "--max-iters", "3000")
        _, out_kl, _ = run_cli(capsys, "diffquot", str(path), "--tag", "kl", "--tol", "1e-20", "--max-iters", "3000")
        rows_bs = [tuple(map(float, r.split(","))) for r in out_bs.strip().splitlines()[1:]]
        rows_kl = [tuple(map(float, r.split(","))) for r in out_kl.strip().splitlines()[1:]]
        for (lh, bs), (_, kl) in zip(rows_bs, rows_kl):
            if lh >= -6.0:
                # above the rounding-noise floor the two quotients coincide
                assert abs(bs - kl) <= 1e-10
            else:
                # below it both are pure cancellation noise within the envelope
                assert abs(bs) < 1e-3 and abs(kl) < 1e-3

    @pytest.mark.parametrize("grid", ["1e-3,nan", "inf,1e-3", "1e-2,-inf", "nan"])
    def test_non_finite_h_grid_exits_2_before_solving(self, capsys, monkeypatch, grid):
        def unreachable(*args, **kwargs):
            raise AssertionError("the grid is checked before the solve")

        monkeypatch.setattr(scaling, "operator_sinkhorn", unreachable)
        code, out, err = run_cli(capsys, "diffquot", "--paper-rho0", f"--h-grid={grid}")
        assert code == 2 and out == ""
        assert "--h-grid entries must be finite" in err

    def test_cone_exit_rows_are_nan(self, capsys, tmp_path):
        rng = np.random.default_rng(5)
        a = rng.uniform(0.2, 1.0, size=(2, 2))
        a /= a.sum()
        path = diagonal_choi_file(tmp_path, a)
        code, out, _ = run_cli(
            capsys, "diffquot", str(path), "--h-grid", "0.9,0.0001"
        )
        assert code == 0
        rows = out.strip().splitlines()[1:]
        assert rows[0].endswith("nan")
        assert not rows[1].endswith("nan")

    def test_custom_direction_file(self, capsys, tmp_path):
        direction = np.diag([1.0, -1.0, -1.0, 1.0])
        dpath = tmp_path / "dir.json"
        serialization.save_matrix(dpath, "matrix", direction.astype(complex))
        code, out, _ = run_cli(capsys, "diffquot", "--paper-rho0", "--direction", str(dpath))
        assert code == 0
        _, builtin_out, _ = run_cli(capsys, "diffquot", "--paper-rho0")
        assert out == builtin_out

    def test_empty_direction_path_is_a_parse_error(self, capsys):
        # an empty path is a file that cannot be read, not the built-in
        # direction, as for an empty --target-p
        code, out, err = run_cli(capsys, "diffquot", "--paper-rho0", "--direction", "")
        target = run_cli(capsys, "scale", "--paper-rho0", "--target-p", "")
        assert code == target[0] == 2 and out == target[1] == ""
        assert err.startswith("error: cannot read matrix file") and err == target[2]

    def test_measured_tag_unsupported(self, capsys):
        code, _, _ = run_cli(capsys, "diffquot", "--paper-rho0", "--tag", "measured")
        assert code == 4

    @pytest.mark.parametrize("tag", ["measured", "bogus"])
    def test_one_tag_check_with_capacity_scatter(self, capsys, tag):
        code, out, err = run_cli(capsys, "diffquot", "--paper-rho0", "--tag", tag)
        scatter = run_cli(capsys, "capacity-scatter", "--dims", "2", "--trials", "1", "--tags", f"umegaki,{tag}")
        assert code == scatter[0] == 4 and out == scatter[1] == ""
        assert err == scatter[2]

    def test_input_error_exits_3_not_nan_rows(self, capsys):
        # the kl quotient needs a diagonal input whatever h is: an error,
        # not 36 nan rows
        code, out, err = run_cli(capsys, "diffquot", "--paper-rho0", "--tag", "kl")
        assert code == 3 and out == ""
        assert "requires a diagonal" in err


class TestOutOfRangeFlags:
    """Every out-of-range flag value is a usage error, exit 2, found by the
    parser (it prints the usage line) before any library call."""

    @pytest.mark.parametrize("argv", [
        ("scale", "--paper-rho0", "--max-iters", "-1"),
        ("scale", "--paper-rho0", "--max-iters", "1.5"),
        ("scale", "--paper-rho0", "--tol", "nan"),
        ("scale", "--paper-rho0", "--tol", "inf"),
        ("scale", "--paper-rho0", "--tol=-1e-3"),
        ("gen", "--seed", "-1"),
        ("gen", "--dims", "0", "2"),
        ("scale", "--dims", "0", "2"),
        ("compare", "--dims", "2", "0"),
        ("diffquot", "--dims", "0", "2"),
        ("capacity-scatter", "--dims", "0"),
        ("capacity-scatter", "--dims", "2", "--trials", "-3"),
        ("capacity-scatter", "--dims", "2", "--trials", "-1"),
    ])
    def test_exits_2_from_the_parser(self, capsys, monkeypatch, argv):
        def library_call(*args, **kwargs):
            raise AssertionError("reached the library")

        for name in ("ScalingConfig", "operator_sinkhorn_batch", "alternating_projections"):
            monkeypatch.setattr(scaling, name, library_call)
        monkeypatch.setattr(cli, "random_choi", library_call)
        monkeypatch.setattr(cli, "reference_rho0", library_call)
        code, out, err = run_cli(capsys, *argv)
        flag = next(a for a in reversed(argv) if a.startswith("--")).split("=")[0]
        assert code == 2 and out == ""
        assert f"usage: opsinkhorn {argv[0]}" in err
        assert f"argument {flag}: must be" in err

    def test_zero_budget_and_tolerance_are_in_range(self, capsys):
        code, out, _ = run_cli(capsys, "scale", "--paper-rho0", "--max-iters", "0", "--tol", "0", "--seed", "0")
        assert code == 0 and json.loads(out)["sweeps"] == 0

    def test_help_returns_0(self, capsys):
        code, out, _ = run_cli(capsys, "scale", "--help")
        assert code == 0 and "--max-iters" in out


class TestRemovedFlags:
    """``gen`` solves nothing, and capacity needs the doubly stochastic
    targets: the flags that could do nothing there are usage errors."""

    @pytest.mark.parametrize("argv", [
        ("gen", "--tol", "1"),
        ("gen", "--max-iters", "3"),
        ("gen", "--target-p", "f.json"),
        ("gen", "--target-q", "f.json"),
        ("capacity-scatter", "--target-p", "f.json"),
        ("capacity-scatter", "--target-q", "f.json"),
    ])
    def test_exits_2_from_the_parser(self, capsys, monkeypatch, argv):
        def library_call(*args, **kwargs):
            raise AssertionError("reached the library")

        monkeypatch.setattr(scaling, "operator_sinkhorn_batch", library_call)
        monkeypatch.setattr(cli, "random_choi", library_call)
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert f"unrecognized arguments: {argv[1]}" in err


def subparsers() -> dict:
    parser = cli.build_parser()
    return next(action.choices for action in parser._actions if action.dest == "command")


class TestSharedFlags:
    # input and solve flags: one definition for scale, compare and diffquot
    SHARED = {"input", "paper_rho0", "dims", "seed", "out", "real", "tol", "max_iters", "target_p", "target_q"}

    @staticmethod
    def flags(sub) -> dict:
        return {
            action.dest: (tuple(action.option_strings), action.help, action.default, action.nargs, action.type)
            for action in sub._actions
            if action.dest != "help"
        }

    def test_solving_subcommands_share_one_definition(self):
        subs = subparsers()
        shared = [{dest: v for dest, v in self.flags(subs[name]).items() if dest in self.SHARED}
                  for name in ("scale", "compare", "diffquot")]
        assert set(shared[0]) == self.SHARED
        assert shared[0] == shared[1] == shared[2]
        assert shared[0]["dims"][1] == (
            "block structure of a density input; with no input, of a random seeded instance"
        )

    def test_budget_and_output_flags_of_the_others(self):
        subs = subparsers()
        scatter, gen = self.flags(subs["capacity-scatter"]), self.flags(subs["gen"])
        scale = self.flags(subs["scale"])
        assert {"target_p", "target_q"} & (set(scatter) | set(gen)) == set()
        assert {"tol", "max_iters"} & set(gen) == set()
        for dest in ("seed", "out", "real", "tol", "max_iters"):
            assert scatter[dest] == scale[dest]
        for dest in ("seed", "out", "real"):
            assert gen[dest] == scale[dest]


class TestExitCodes:
    @pytest.mark.parametrize("error, code", [
        (ParseError, 2), (InvalidInputError, 3), (DomainError, 3), (SingularityError, 3),
        (UnsupportedError, 4), (ConvergenceError, 5),
    ])
    def test_each_error_type_has_its_code(self, capsys, monkeypatch, error, code):
        def fail(*args, **kwargs):
            raise error("raised on purpose")

        monkeypatch.setattr(cli, "random_choi", fail)
        got, out, err = run_cli(capsys, "gen")
        assert got == code and out == "" and err == "error: raised on purpose\n"

    def test_other_errors_propagate(self, monkeypatch):
        def fail(*args, **kwargs):
            raise KeyError("a bug")

        monkeypatch.setattr(cli, "random_choi", fail)
        with pytest.raises(KeyError):
            main(["gen"])


class TestReadmeExamples:
    """Every ``opsinkhorn`` line of the README's command-line examples is a
    command line the parser accepts (parsed only, never run)."""

    @staticmethod
    def readme_commands() -> list[list[str]]:
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        commands = []
        for block in re.findall(r"^```sh\n(.*?)^```", text, flags=re.S | re.M):
            for line in block.splitlines():
                line = line.split("#", 1)[0].strip()
                if line.startswith("opsinkhorn "):
                    commands.append(shlex.split(line)[1:])
        return commands

    def test_every_subcommand_is_shown(self):
        assert {argv[0] for argv in self.readme_commands()} == set(subparsers())

    def test_examples_parse(self):
        parser = cli.build_parser()
        for argv in self.readme_commands():
            args = parser.parse_args(argv)
            assert args.command == argv[0] and callable(args.func)


class TestCapacityScatter:
    def test_columns_and_determinism(self, capsys):
        args = ("capacity-scatter", "--dims", "2", "--trials", "3", "--tags", "umegaki,nagaoka")
        code, first, err = run_cli(capsys, *args)
        assert code == 0
        lines = first.strip().splitlines()
        assert lines[0] == "trial,converged,D_umegaki,D_nagaoka,neg_log_capacity"
        assert len(lines) == 4
        summary = json.loads(err.strip().splitlines()[-1])
        assert summary["mean_gap_umegaki"] > 0
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_unconverged_trials_flagged_and_excluded(self, capsys):
        code, out, err = run_cli(
            capsys,
            "capacity-scatter", "--dims", "2", "--trials", "2", "--max-iters", "0", "--tol", "1e-30",
        )
        assert code == 0
        for row in out.strip().splitlines()[1:]:
            fields = row.split(",")
            assert fields[1] == "0" and fields[2] == "nan"
        summary = json.loads(err.strip().splitlines()[-1])
        assert summary["mean_gap_umegaki"] is None

    def test_zero_trials_prints_header_and_null_summary(self, capsys):
        code, out, err = run_cli(capsys, "capacity-scatter", "--dims", "2", "--trials", "0", "--tags", "umegaki,nagaoka")
        assert code == 0
        assert out == "trial,converged,D_umegaki,D_nagaoka,neg_log_capacity\n"
        assert json.loads(err.strip().splitlines()[-1]) == {"mean_gap_umegaki": None, "mean_gap_nagaoka": None}

    def test_rectangular_dims_unsupported(self, capsys):
        code, _, _ = run_cli(capsys, "capacity-scatter", "--dims", "2", "3")
        assert code == 4

    @pytest.mark.parametrize("dims", [("2", "2", "2"), ("3", "3", "3", "3")])
    def test_more_than_two_dims_is_parse_error(self, capsys, dims):
        code, out, err = run_cli(capsys, "capacity-scatter", "--dims", *dims, "--trials", "1")
        assert code == 2
        assert out == "" and "--dims" in err

    def test_kl_tag_needs_diagonal_ensemble(self, capsys):
        code, _, _ = run_cli(capsys, "capacity-scatter", "--dims", "2", "--tags", "kl")
        assert code == 4

    def test_diagonal_ensemble_kl_equals_capacity(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "capacity-scatter", "--dims", "2", "--trials", "8", "--tags", "kl",
            "--diagonal", "--tol", "1e-14", "--max-iters", "5000",
        )
        assert code == 0
        for row in out.strip().splitlines()[1:]:
            _, converged, d_kl, neg_log_cap = row.split(",")
            assert converged == "1"
            assert abs(float(d_kl) - float(neg_log_cap)) <= 1e-6

    def test_nagaoka_gap_smallest_among_tags(self, capsys):
        code, _, err = run_cli(
            capsys,
            "capacity-scatter", "--dims", "2", "--trials", "30",
            "--tags", "umegaki,bs,renyi_half,nagaoka",
        )
        assert code == 0
        summary = json.loads(err.strip().splitlines()[-1])
        gaps = {k.removeprefix("mean_gap_"): v for k, v in summary.items()}
        assert min(gaps, key=gaps.get) == "nagaoka"
        assert gaps["nagaoka"] > 1e-4
        assert gaps["umegaki"] > 1e-2


class TestGen:
    def test_writes_valid_choi(self, capsys, tmp_path):
        path = tmp_path / "g.json"
        code, _, _ = run_cli(capsys, "gen", "--dims", "2", "3", "--seed", "9", "--out", str(path))
        assert code == 0
        choi = serialization.load_choi(path)
        assert choi.n == 2 and choi.m == 3
        assert abs(np.trace(choi.matrix).real - 1.0) <= 1e-10

    def test_deterministic(self, capsys, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        run_cli(capsys, "gen", "--dims", "2", "2", "--seed", "5", "--out", str(p1))
        run_cli(capsys, "gen", "--dims", "2", "2", "--seed", "5", "--out", str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_real_flag(self, capsys, tmp_path):
        path = tmp_path / "r.json"
        run_cli(capsys, "gen", "--dims", "2", "2", "--seed", "3", "--real", "--out", str(path))
        choi = serialization.load_choi(path)
        assert np.abs(choi.matrix.imag).max() == 0.0

    def test_matrix_kind(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        run_cli(capsys, "gen", "--dims", "2", "2", "--kind", "matrix", "--seed", "1", "--out", str(path))
        kind, mat, _, _ = serialization.load_matrix(path)
        assert kind == "matrix" and np.all(mat.real > 0)
        assert abs(mat.real.sum() - 1.0) <= 1e-12

    def test_stdout_when_no_out(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "--dims", "2", "2", "--seed", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["kind"] == "choi"

    def test_round_trips_through_scale(self, capsys, tmp_path):
        path = tmp_path / "g.json"
        run_cli(capsys, "gen", "--dims", "2", "2", "--seed", "11", "--out", str(path))
        code, out, _ = run_cli(capsys, "scale", str(path))
        assert code == 0 and json.loads(out)["converged"] is True


class TestParserReuse:
    def test_one_parser_serves_independent_calls(self, capsys, monkeypatch):
        builds = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
        cli._parser.cache_clear()
        try:
            code, out, _ = run_cli(capsys, "scale", "--paper-rho0", "--method", "bkm", "--max-iters", "1", "--tol", "0")
            first = json.loads(out)
            assert code == 0 and first["sweeps"] == 1 and first["converged"] is False
            code, out, _ = run_cli(capsys, "gen", "--dims", "2", "3", "--seed", "4")
            assert code == 0 and (json.loads(out)["n"], json.loads(out)["m"]) == (2, 3)
            # nothing of the earlier calls carries over: default method,
            # budget, tolerance and dims
            code, out, _ = run_cli(capsys, "scale", "--paper-rho0")
            second = json.loads(out)
            assert code == 0 and second["converged"] is True and second["sweeps"] > 1
            assert second["capacity"] is not None  # sld, the default method
            code, out, _ = run_cli(capsys, "gen", "--seed", "4")
            assert code == 0 and (json.loads(out)["n"], json.loads(out)["m"]) == (2, 2)
            assert len(builds) == 1
        finally:
            cli._parser.cache_clear()
