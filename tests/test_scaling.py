import ast
import copy
import dataclasses
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from opsinkhorn import channels, divergences, geometry, linalg, policy, scaling
from opsinkhorn.channels import ChoiMatrix
from opsinkhorn.errors import (
    ConvergenceError,
    DomainError,
    InvalidInputError,
    SingularityError,
    UnsupportedError,
)
from opsinkhorn.geometry import ConstraintSet

import oracles


def diagonal_choi(a: np.ndarray) -> ChoiMatrix:
    """Embed a positive m x n matrix as a diagonal Choi matrix: the (j, j)
    block holds column j of ``a`` on its diagonal."""
    m, n = a.shape
    mat = np.zeros((n * m, n * m), dtype=complex)
    for j in range(n):
        for i in range(m):
            mat[j * m + i, j * m + i] = a[i, j]
    return ChoiMatrix(n=n, m=m, matrix=mat)


def choi_diagonal_to_matrix(choi: ChoiMatrix) -> np.ndarray:
    blocks = choi.blocks()
    return np.array(
        [[blocks[j, i, j, i].real for j in range(choi.n)] for i in range(choi.m)]
    )


def random_positive_matrix(m, n, seed):
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.1, 1.0, size=(m, n))
    return a / a.sum()


# the four sweep drivers: the three Choi methods and classical Sinkhorn
DRIVERS = [*scaling.METHODS, "classical"]


def run_driver(driver: str, a: np.ndarray, cfg: scaling.ScalingConfig = scaling.ScalingConfig()):
    """Classical Sinkhorn on the positive matrix ``a``, or a Choi method on
    its diagonal embedding."""
    if driver == "classical":
        return scaling.matrix_sinkhorn(a, cfg)
    return scaling.alternating_projections(driver, diagonal_choi(a), cfg)


class TestScalingConfig:
    @pytest.mark.parametrize("max_iters", [2.5, True, -1, "3", None])
    def test_rejects_max_iters_that_is_not_a_nonnegative_int(self, max_iters):
        with pytest.raises(InvalidInputError, match="max_iters"):
            scaling.ScalingConfig(max_iters=max_iters)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -float("inf"), -1e-12, "1e-8", None])
    def test_rejects_tol_that_is_not_finite_and_nonnegative(self, tol):
        with pytest.raises(InvalidInputError, match="tol"):
            scaling.ScalingConfig(tol=tol)

    @pytest.mark.parametrize("field, name, size", [("target_p", "P", 3), ("target_q", "Q", 2)])
    def test_targets_name_the_one_that_does_not_fit(self, field, name, size):
        # for n = 2, m = 3, P must be 3 x 3 and Q 2 x 2; each is given the other's size
        wrong = np.eye(5 - size) / (5 - size)
        cfg = scaling.ScalingConfig(**{field: wrong})
        with pytest.raises(InvalidInputError, match=rf"^target {name} must be {size} x {size}, got shape "):
            cfg.targets(2, 3)

    def test_accepts_integer_and_real_types(self):
        cfg = scaling.ScalingConfig(max_iters=np.int64(3), tol=np.float64(0.0))
        assert type(cfg.max_iters) is int
        trace = scaling.matrix_sinkhorn(random_positive_matrix(2, 3, 3), cfg)
        assert trace.sweeps == 3


class TestMatrixSinkhorn:
    def test_uniform_matrix_is_fixed_point(self):
        a = np.full((2, 3), 1.0 / 6.0)
        trace = scaling.matrix_sinkhorn(a)
        assert trace.converged and trace.sweeps == 0
        assert trace.residuals == [pytest.approx(0.0, abs=1e-30)]

    def test_small_example_converges_to_kl_projection(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]]) / 10.0
        trace = scaling.matrix_sinkhorn(a, scaling.ScalingConfig(tol=1e-22, max_iters=2000))
        best, b_opt = oracles.min_kl_doubly_stochastic(a)
        np.testing.assert_allclose(trace.final, b_opt, atol=1e-6)
        kl = divergences.divergence("kl", trace.final, a)
        assert abs(kl - best) <= 1e-6

    def test_odd_steps_are_row_normalized_kl_projections(self):
        a = random_positive_matrix(3, 3, 1)
        trace = scaling.matrix_sinkhorn(a, scaling.ScalingConfig(max_iters=3, tol=0.0))
        for idx, (side, _) in enumerate(trace.factors):
            if side != "first":
                continue
            before = trace.iterates[idx]
            after = trace.iterates[idx + 1]
            np.testing.assert_allclose(after.sum(axis=1), 1.0 / 3.0, atol=1e-12)
            oracle = oracles.kl_projection_row_sums(before, 1.0 / 3.0)
            kl_step = float(np.sum(after * np.log(after / before)))
            kl_oracle = float(np.sum(oracle * np.log(oracle / before)))
            assert kl_step <= kl_oracle + 1e-8
            np.testing.assert_allclose(after, oracle, atol=1e-6)

    def test_rejects_nonpositive_entries(self):
        with pytest.raises(DomainError):
            scaling.matrix_sinkhorn(np.array([[1.0, 0.0], [1.0, 1.0]]))

    def test_rejects_a_nonzero_imaginary_part(self):
        # a complex array with zero imaginary part is its real part; any
        # other must not lose its imaginary part without a word
        a = random_positive_matrix(2, 2, 6)
        complex_trace = scaling.matrix_sinkhorn(a.astype(complex))
        assert complex_trace.final.dtype == float
        assert np.array_equal(complex_trace.final, scaling.matrix_sinkhorn(a).final)
        b = a.astype(complex)
        b[0, 1] += 0.5j
        with pytest.raises(DomainError, match="real entries"):
            scaling.matrix_sinkhorn(b)

    @pytest.mark.parametrize("field", ["target_p", "target_q"])
    def test_rejects_marginal_targets(self, field):
        # classical scaling has uniform targets only; a target must not be
        # dropped silently
        cfg = scaling.ScalingConfig(**{field: np.diag([0.7, 0.3])})
        with pytest.raises(UnsupportedError, match="uniform"):
            scaling.matrix_sinkhorn(random_positive_matrix(2, 2, 4), cfg)

    def test_trace_is_the_diagonal_choi_layout(self):
        a = random_positive_matrix(2, 3, 5)
        trace = scaling.matrix_sinkhorn(a, scaling.ScalingConfig(max_iters=4, tol=0.0))
        assert isinstance(trace, scaling.ScalingTrace) and trace.method == "classical"
        # n and m are the column and row counts, as in diagonal_choi(a)
        assert (trace.n, trace.m) == (diagonal_choi(a).n, diagonal_choi(a).m) == (3, 2)
        np.testing.assert_array_equal(trace.target_p, np.eye(2) / 2)
        np.testing.assert_array_equal(trace.target_q, np.eye(3) / 3)
        assert trace.final is trace.iterates[-1] and trace.final.shape == (2, 3)
        assert not trace.preprocessed and trace.capacity_log == 0.0
        # a zero-step run ends on its validated input, a copy of the array
        still = scaling.matrix_sinkhorn(a, scaling.ScalingConfig(max_iters=0))
        assert still.final is still.iterates[0] and len(still.iterates) == 1 and not still.converged
        assert np.array_equal(still.final, a) and not np.shares_memory(still.final, a)


class TestOperatorSinkhornStep:
    def test_maximally_mixed_is_fixed(self):
        choi = ChoiMatrix(n=2, m=2, matrix=np.eye(4) / 4)
        out, factor = scaling.operator_sinkhorn_step(choi, "first", np.eye(2) / 2)
        np.testing.assert_allclose(out.matrix, choi.matrix, atol=1e-13)
        np.testing.assert_allclose(factor, np.eye(2), atol=1e-12)

    def test_uniform_target_reduces_to_inverse_square_root(self):
        rng = np.random.default_rng(2)
        choi = channels.random_choi(2, 3, rng)
        _, factor = scaling.operator_sinkhorn_step(choi, "first", np.eye(3) / 3)
        closed_form = linalg.powm(choi.trace_first(), -0.5) / np.sqrt(3)
        np.testing.assert_allclose(factor, closed_form, atol=1e-11)

    def test_first_marginal_hit_exactly(self):
        rng = np.random.default_rng(3)
        choi = channels.random_choi(2, 3, rng)
        target = channels.random_density(3, rng)
        out, _ = scaling.operator_sinkhorn_step(choi, "first", target)
        assert np.linalg.norm(out.trace_first() - target) <= 1e-12

    def test_second_marginal_hit_exactly(self):
        rng = np.random.default_rng(4)
        choi = channels.random_choi(3, 2, rng)
        target = channels.random_density(3, rng)
        out, _ = scaling.operator_sinkhorn_step(choi, "second", target)
        assert np.linalg.norm(out.trace_second() - target) <= 1e-12

    def test_diagonal_step_is_classical_row_normalization(self):
        a = random_positive_matrix(2, 2, 5)
        choi = diagonal_choi(a)
        out, _ = scaling.operator_sinkhorn_step(choi, "first", np.eye(2) / 2)
        classical = a / (2 * a.sum(axis=1, keepdims=True))
        np.testing.assert_allclose(choi_diagonal_to_matrix(out), classical, atol=1e-12)

    @pytest.mark.parametrize("side, target", [
        ("first", np.eye(2) / 2),  # uniform: n x n where the first marginal is m x m
        ("first", np.diag([0.3, 0.7])),
        ("second", np.eye(3) / 3),
    ])
    def test_rejects_a_target_of_the_other_size(self, side, target):
        # a uniform target of the wrong size once gave a state of trace 1.5
        choi = channels.random_choi(2, 3, np.random.default_rng(0))
        with pytest.raises(InvalidInputError, match=f"the {side} marginal of an n=2, m=3 Choi matrix"):
            scaling.operator_sinkhorn_step(choi, side, target)


class TestOperatorSinkhorn:
    def test_fixed_point_detected_without_iterating(self):
        choi = ChoiMatrix(n=2, m=2, matrix=np.eye(4) / 4)
        trace = scaling.operator_sinkhorn(choi)
        assert trace.converged and trace.sweeps == 0 and len(trace.iterates) == 1

    def test_alternating_marginal_invariants(self):
        rng = np.random.default_rng(6)
        choi = channels.random_choi(2, 2, rng)
        trace = scaling.operator_sinkhorn(choi, scaling.ScalingConfig(max_iters=5, tol=0.0))
        p, q = trace.target_p, trace.target_q
        for idx, (side, _) in enumerate(trace.factors):
            it = ChoiMatrix(n=2, m=2, matrix=trace.iterates[idx + 1])
            if side == "first":
                assert np.linalg.norm(it.trace_first() - p) <= 1e-10
            else:
                assert np.linalg.norm(it.trace_second() - q) <= 1e-10

    def test_diagonal_matches_classical_iterates_per_sweep(self):
        a = random_positive_matrix(2, 2, 7)
        cfg = scaling.ScalingConfig(max_iters=6, tol=0.0)
        op = scaling.operator_sinkhorn(diagonal_choi(a), cfg)
        cl = scaling.matrix_sinkhorn(a, cfg)
        for k in range(len(op.iterates)):
            embedded = choi_diagonal_to_matrix(ChoiMatrix(n=2, m=2, matrix=op.iterates[k]))
            np.testing.assert_allclose(embedded, cl.iterates[k], atol=1e-10)
        np.testing.assert_allclose(op.residuals, cl.residuals, atol=1e-12)

    def test_general_marginals_converge(self):
        rng = np.random.default_rng(8)
        choi = channels.random_choi(2, 2, rng)
        p = channels.random_density(2, rng)
        q = channels.random_density(2, rng)
        cfg = scaling.ScalingConfig(max_iters=500, tol=1e-8, target_p=p, target_q=q)
        trace = scaling.operator_sinkhorn(choi, cfg)
        assert trace.converged and trace.preprocessed
        final = trace.final
        assert np.linalg.norm(final.trace_first() - p) <= 1e-4
        assert np.linalg.norm(final.trace_second() - q) <= 1e-4

    def test_preprocessing_starts_on_second_side(self):
        rng = np.random.default_rng(9)
        choi = channels.random_choi(2, 3, rng)
        q = channels.random_density(2, rng)
        cfg = scaling.ScalingConfig(max_iters=200, target_q=q)
        trace = scaling.operator_sinkhorn(choi, cfg)
        assert trace.factors[0][0] == "second"
        first_iterate = ChoiMatrix(n=2, m=3, matrix=trace.iterates[1])
        assert np.linalg.norm(first_iterate.trace_second() - q) <= 1e-12

    def test_every_step_is_an_sld_e_projection(self):
        # every step of full default-tol solves, late steps included (at 4x4
        # the SLD tail's own error puts late steps above the gate)
        for n, m in [(2, 2), (2, 3), (3, 2)]:
            for seed in range(20):
                trace = scaling.operator_sinkhorn(channels.random_choi(n, m, np.random.default_rng(seed)))
                assert trace.converged
                for idx, (side, _) in enumerate(trace.factors):
                    frm = ChoiMatrix(n=n, m=m, matrix=trace.iterates[idx])
                    to = ChoiMatrix(n=n, m=m, matrix=trace.iterates[idx + 1])
                    target = trace.target_p if side == "first" else trace.target_q
                    res = geometry.orthogonality_residual("sld", frm, to, ConstraintSet(side, target))
                    assert res <= 1e-8, f"{n}x{m}, seed {seed}, step {idx}: {res:.2e}"

    def test_perturbed_factor_breaks_orthogonality(self):
        rng = np.random.default_rng(11)
        choi = channels.random_choi(2, 2, rng)
        p = np.eye(2) / 2
        _, factor = scaling.operator_sinkhorn_step(choi, "first", p)
        h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        h = (h + h.conj().T) / 2
        wrong = channels.scale_choi(choi, factor + 1e-3 * h, np.eye(2))
        # pull the perturbed point back onto the constraint set
        fixed, _ = scaling.operator_sinkhorn_step(wrong, "first", p)
        res = geometry.orthogonality_residual("sld", choi, fixed, ConstraintSet("first", p))
        assert res > 1e-5


class TestTraceFinal:
    def test_final_is_a_field(self):
        assert "final" in {f.name for f in dataclasses.fields(scaling.ScalingTrace)}
        assert not isinstance(vars(scaling.ScalingTrace).get("final"), property)

    def test_every_run_ends_in_close(self, monkeypatch):
        # one end per trace, whatever the solver: _close sets converged and
        # the final
        closed = []
        close = scaling._close
        monkeypatch.setattr(
            scaling, "_close", lambda trace, cfg, state=None: closed.append(id(trace)) or close(trace, cfg, state)
        )
        choi = channels.random_choi(2, 3, np.random.default_rng(39))
        budget = scaling.ScalingConfig(max_iters=5)
        runs = [
            scaling.matrix_sinkhorn(random_positive_matrix(2, 3, 39)),
            *scaling.operator_sinkhorn_batch([choi] * 3),
            scaling.alternating_projections("bkm", choi),
            scaling.alternating_projections("burg", choi, budget),
            scaling.joint_limit("bkm", choi),
            scaling.joint_limit("burg", choi),
        ]
        assert closed == [id(trace) for trace in runs]

    @pytest.mark.parametrize("max_iters", [0, 5])
    def test_batch_finals(self, max_iters):
        # one trial at the general targets takes no step; the other two
        # move, with a zero budget by the preprocessing step alone
        rng = np.random.default_rng(38)
        p, q = channels.random_density(3, rng), channels.random_density(2, rng)
        feasible = ChoiMatrix(n=2, m=3, matrix=np.kron(q, p))
        chois = [channels.random_choi(2, 3, rng), feasible, channels.random_choi(2, 3, rng)]
        cfg = scaling.ScalingConfig(max_iters=max_iters, target_p=p, target_q=q)
        batch = scaling.operator_sinkhorn_batch(chois, cfg)
        assert batch[1].final is feasible and batch[1].iterates[-1] is feasible.matrix and batch[1].converged
        for choi, trace in zip(chois[::2], batch[::2]):
            assert trace.preprocessed and trace.sweeps <= max_iters and trace.final is not choi
            assert isinstance(trace.final, ChoiMatrix) and trace.final.matrix is trace.iterates[-1]
            assert not trace.final.matrix.flags.writeable
            assert trace.converged is (max_iters > 0)

    @pytest.mark.parametrize("method", scaling.METHODS)
    @pytest.mark.parametrize("feasible", [False, True])
    def test_reads_run_no_eigensolver(self, method, feasible, monkeypatch):
        # the solvers store the final iterate they validated; reading it
        # must not validate it again
        choi = ChoiMatrix(n=2, m=3, matrix=np.eye(6) / 6) if feasible else channels.random_choi(
            2, 3, np.random.default_rng(32)
        )
        trace = scaling.alternating_projections(method, choi)
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(
            np.linalg, "eigvalsh", lambda *args, **kwargs: calls.append(1) or eigvalsh(*args, **kwargs)
        )
        first = trace.final
        assert trace.final is first and calls == []
        assert np.array_equal(first.matrix, trace.iterates[-1])
        # an input at the targets takes no step and is its own final
        assert (trace.final is choi) is feasible and trace.converged

    @pytest.mark.parametrize("method", scaling.METHODS)
    def test_trace_holds_the_input_and_the_final_uncopied(self, method):
        mat = channels.random_density(6, np.random.default_rng(33))
        choi = ChoiMatrix(n=2, m=3, matrix=mat)
        trace = scaling.alternating_projections(method, choi, scaling.ScalingConfig(max_iters=3, tol=0.0))
        assert np.shares_memory(trace.iterates[0], mat) and not trace.iterates[0].flags.writeable
        assert trace.final.matrix is trace.iterates[-1]
        assert not trace.final.matrix.flags.writeable
        # a zero budget takes no step: the final is the validated input
        still = scaling.alternating_projections(method, choi, scaling.ScalingConfig(max_iters=0))
        assert still.sweeps == 0 and not still.factors and not still.converged
        assert still.final is choi and len(still.iterates) == 1 and still.iterates[-1] is choi.matrix

    def test_joint_limit_final_is_its_last_iterate(self):
        # the solve always ends on the limit it formed, after zero Newton
        # steps too (on an input already at the limit)
        for choi in (channels.random_choi(2, 3, np.random.default_rng(34)), ChoiMatrix(n=2, m=3, matrix=np.eye(6) / 6)):
            for method in ("bkm", "burg"):
                trace = scaling.joint_limit(method, choi)
                assert trace.iterates[0] is choi.matrix and trace.final.matrix is trace.iterates[-1]
                assert len(trace.iterates) == 2 and not trace.final.matrix.flags.writeable and trace.converged


class TestTrustedFinals:
    """``_close`` checks a Choi final for shape and finiteness only.  Every
    final of a run that moved is exactly Hermitian, read-only and passes
    the full public ``ChoiMatrix`` check, so that check is redundant there,
    not hidden."""

    @staticmethod
    def assert_passes_public_check(trace: scaling.ScalingTrace) -> None:
        final = trace.final.matrix
        assert len(trace.iterates) > 1 and final is trace.iterates[-1]
        assert final.dtype == complex and not final.flags.writeable
        assert np.array_equal(final, final.conj().T)
        checked = ChoiMatrix(n=trace.n, m=trace.m, matrix=final.copy())
        assert np.array_equal(checked.matrix, final)

    # (n, m, Kraus rank, eps, general targets): the shapes of the
    # benchmark's sld-large family, plus the rank-deficient eps = 0 inputs
    # whose runs converge
    SLD_LARGE = [
        (16, 16, 2, 0.01, False),
        (16, 16, 4, 0.10, False),
        (12, 12, 2, 0.05, False),
        (12, 12, 4, 0.02, False),
        (12, 16, 3, 0.03, False),
        (16, 12, 3, 0.05, False),
        (9, 16, 2, 0.10, False),
        (16, 9, 2, 0.02, True),
        (14, 14, 3, 0.03, True),
        (16, 16, 2, 0.0, False),
        (16, 16, 4, 0.0, False),
        (12, 12, 2, 0.0, False),
        (12, 12, 4, 0.0, False),
        (12, 16, 3, 0.0, False),
        (16, 12, 3, 0.0, False),
        (14, 14, 3, 0.0, True),
    ]

    @pytest.mark.parametrize("case", range(len(SLD_LARGE)))
    def test_low_rank_sld_finals(self, case):
        n, m, rank, eps, general = self.SLD_LARGE[case]
        rng = np.random.default_rng(470 + case)
        choi = low_rank_choi(n, m, rank, eps, rng)
        p = channels.random_density(m, rng) if general else None
        q = channels.random_density(n, rng) if general else None
        trace = scaling.operator_sinkhorn(choi, scaling.ScalingConfig(target_p=p, target_q=q))
        assert trace.converged
        self.assert_passes_public_check(trace)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_random_finals(self, n):
        rng = np.random.default_rng(480 + n)
        cfg = scaling.ScalingConfig(max_iters=10)
        for m in range(1, 7):
            choi = channels.random_choi(n, m, rng)
            traces = [scaling.alternating_projections(method, choi, cfg) for method in scaling.METHODS]
            traces += [scaling.joint_limit(method, choi) for method in ("bkm", "burg")]
            moved = [trace for trace in traces if len(trace.iterates) > 1]
            # a 1 x 1 input is at its targets: only the joint solves move
            assert len(moved) == (2 if n == m == 1 else 5)
            for trace in moved:
                self.assert_passes_public_check(trace)

    def test_unscalable_finals_before_overflow(self):
        # the factor products of this input overflow in sweep 1,024
        for budget in (1000, 1012, 1023):
            trace = scaling.operator_sinkhorn(unscalable_choi(), scaling.ScalingConfig(max_iters=budget))
            assert trace.sweeps == budget
            self.assert_passes_public_check(trace)

    def test_non_finite_final_is_an_overflow(self, monkeypatch):
        def overflowed(mat, *args):
            out = np.array(mat)
            out[0, -1] = out[-1, 0] = np.inf
            return out

        monkeypatch.setattr(scaling, "congruence", overflowed)
        choi = channels.random_choi(2, 3, np.random.default_rng(490))
        with pytest.raises(ConvergenceError, match="sld run overflowed: its final iterate is not finite"):
            scaling.operator_sinkhorn(choi)

    def test_only_close_trusts_a_final(self):
        # the trusted path skips the public check, so it must not reach an
        # API boundary: scaling._close is its one caller in the package
        def uses(node, where):
            for child in ast.iter_child_nodes(node):
                if (isinstance(child, ast.Attribute) and child.attr == "_trusted"
                        or isinstance(child, ast.Constant) and child.value == "_trusted"):
                    yield where
                named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                yield from uses(child, child.name if named else where)

        found = [
            (path.name, where)
            for path in sorted(Path(scaling.__file__).parent.glob("*.py"))
            for where in uses(ast.parse(path.read_text()), None)
        ]
        assert found == [("scaling.py", "_close")]


def reference_sinkhorn(choi: ChoiMatrix, cfg: scaling.ScalingConfig) -> dict:
    """Operator Sinkhorn written out from the public, validating step: every
    iterate is a ChoiMatrix, and every step is checked against the dense
    Kronecker congruence by its factor."""
    n, m = choi.n, choi.m
    p, q = cfg.targets(n, m)
    run = {"iterates": [choi.matrix], "factors": [], "capacity_log": 0.0, "sweeps": 0,
           "preprocessed": False, "residuals": [scaling.choi_residual(choi, p, q)]}

    def step(current, side, target):
        stepped, factor = scaling.operator_sinkhorn_step(current, side, target)
        f = np.kron(np.eye(n), factor) if side == "first" else np.kron(factor, np.eye(m))
        dense = f @ current.matrix @ f
        assert np.abs(stepped.matrix - dense).max() <= 1e-12 * np.abs(dense).max()
        run["iterates"].append(stepped.matrix)
        run["factors"].append((side, factor))
        if n == m:
            run["capacity_log"] += 2.0 * np.sum(np.log(np.linalg.eigvalsh(factor))) / n
        return stepped

    if run["residuals"][0] < cfg.tol:
        return run
    if not scaling.doubly_stochastic(p, q):
        choi = step(choi, "second", q)
        run["preprocessed"] = True
    while run["residuals"][-1] >= cfg.tol and run["sweeps"] < cfg.max_iters:
        choi = step(step(choi, "first", p), "second", q)
        run["sweeps"] += 1
        run["residuals"].append(scaling.choi_residual(choi, p, q))
    return run


class TestLeanLoopAgainstReference:
    @pytest.mark.parametrize("n, m", [(2, 2), (2, 3), (3, 2), (4, 4), (3, 5)])
    @pytest.mark.parametrize("general", [False, True])
    def test_matches_public_step_loop(self, n, m, general):
        rng = np.random.default_rng(40 + 10 * n + m + general)
        choi = channels.random_choi(n, m, rng)
        p = channels.random_density(m, rng) if general else None
        q = channels.random_density(n, rng) if general else None
        cfg = scaling.ScalingConfig(max_iters=300, tol=1e-10, target_p=p, target_q=q)
        trace = scaling.operator_sinkhorn(choi, cfg)
        ref = reference_sinkhorn(choi, cfg)
        assert trace.converged
        assert trace.sweeps == ref["sweeps"] and trace.sweeps > 0
        assert trace.preprocessed == ref["preprocessed"] == general
        assert trace.capacity_log == pytest.approx(ref["capacity_log"], rel=1e-12, abs=1e-14)
        assert len(trace.iterates) == len(ref["iterates"])
        for got, want in zip(trace.iterates, ref["iterates"]):
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
            ChoiMatrix(n=n, m=m, matrix=got)
        for (side, got), (ref_side, want) in zip(trace.factors, ref["factors"]):
            assert side == ref_side
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        np.testing.assert_allclose(trace.residuals, ref["residuals"], rtol=1e-9, atol=1e-20)


class TestFusedSldStep:
    @pytest.mark.parametrize("side", ["first", "second"])
    @pytest.mark.parametrize("general", [False, True])
    def test_step_small_eigh_count(self, side, general, eig_calls):
        # the marginal's eigh alone for a uniform target, one more for the
        # middle factor of a general one
        rng = np.random.default_rng(52)
        choi = channels.random_choi(3, 4, rng)
        d = 4 if side == "first" else 3
        target = channels.random_density(d, rng) if general else np.eye(d) / d
        eig_calls.clear()
        scaling._sld_step(choi.matrix, 3, 4, side, target)
        assert eig_calls == [("eigh", (d, d))] * (2 if general else 1)

    @pytest.mark.parametrize("general", [False, True])
    def test_solve_makes_no_big_eigvalsh(self, general, eig_calls):
        rng = np.random.default_rng(53 + general)
        choi = channels.random_choi(3, 4, rng)
        p = channels.random_density(4, rng) if general else None
        q = channels.random_density(3, rng) if general else None
        eig_calls.clear()
        trace = scaling.operator_sinkhorn(choi, scaling.ScalingConfig(target_p=p, target_q=q))
        assert trace.converged and trace.final.matrix is trace.iterates[-1]
        assert all(shape[0] <= 4 for _, shape in eig_calls)
        # the targets are checked once each at entry; the steps add none
        assert sum(name == "eigvalsh" for name, _ in eig_calls) == (2 if general else 0)
        steps = len(trace.factors)
        assert sum(name == "eigh" for name, _ in eig_calls) == (2 if general else 1) * steps

    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    @pytest.mark.parametrize("general", [False, True])
    def test_capacity_log_from_factor_products(self, n, general):
        # log det of every factor is (log det target - log det marginal) / 2
        # from the step's spectrum; the products of the recorded factors
        # give it independently
        rng = np.random.default_rng(60 + n + 10 * general)
        choi = channels.random_choi(n, n, rng)
        p = channels.random_density(n, rng) if general else None
        q = channels.random_density(n, rng) if general else None
        trace = scaling.operator_sinkhorn(choi, scaling.ScalingConfig(target_p=p, target_q=q))
        assert trace.converged
        products = {"first": np.eye(n), "second": np.eye(n)}
        for side, factor in trace.factors:
            products[side] = products[side] @ factor
        sign_l, logdet_l = np.linalg.slogdet(products["first"])
        sign_r, logdet_r = np.linalg.slogdet(products["second"])
        assert sign_l.real > 0 and sign_r.real > 0
        want = 2.0 * (logdet_l + logdet_r) / n
        assert trace.capacity_log == pytest.approx(want, rel=1e-12, abs=1e-12)


def near_uniform(d: int, rng: np.random.Generator) -> np.ndarray:
    """A trace-one target within 5e-13 of I/d in every entry, but not I/d."""
    e = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    e = (e + e.conj().T) / 2
    e -= np.trace(e).real / d * np.eye(d)
    return np.eye(d) / d + e * (5e-13 / np.abs(e).max())


class TestUniformTarget:
    @pytest.mark.parametrize("n, m", [(2, 2), (3, 4), (5, 5)])
    def test_near_uniform_target_takes_one_eigh_path(self, n, m, eig_calls, monkeypatch):
        # the one uniform-target test sends a target within 1e-12 of I/d to
        # the one-eigh factor and to the doubly stochastic bookkeeping alike
        rng = np.random.default_rng(70 + n + m)
        choi = channels.random_choi(n, m, rng)
        p, q = near_uniform(m, rng), near_uniform(n, rng)
        assert np.abs(p - np.eye(m) / m).max() > 0.0 and np.abs(q - np.eye(n) / n).max() > 0.0
        cfg = scaling.ScalingConfig(target_p=p, target_q=q)
        eig_calls.clear()
        fast = scaling.operator_sinkhorn(choi, cfg)
        assert sum(name == "eigh" for name, _ in eig_calls) == len(fast.factors)
        assert scaling.doubly_stochastic(p, q) and fast.converged and not fast.preprocessed
        exact = scaling.operator_sinkhorn(choi, scaling.ScalingConfig())
        assert fast.sweeps == exact.sweeps
        np.testing.assert_array_equal(fast.final.matrix, exact.final.matrix)
        if n == m:
            assert scaling.capacity_from_trace(fast) == scaling.capacity_from_trace(exact)
        # the two-eigh path on the same targets, preprocessing step included,
        # reaches the same limit up to local unitaries: the spectrum of the
        # final iterate and the capacity term agree within the tolerance
        monkeypatch.setattr(scaling, "_uniform_level", lambda target: None)
        eig_calls.clear()
        slow = scaling.operator_sinkhorn(choi, cfg)
        assert sum(name == "eigh" for name, _ in eig_calls) == 2 * len(slow.factors)
        assert slow.converged and slow.preprocessed
        bound = np.sqrt(cfg.tol)
        got, want = np.linalg.eigvalsh(fast.final.matrix), np.linalg.eigvalsh(slow.final.matrix)
        assert np.abs(got - want).max() <= bound
        assert abs(fast.capacity_log - slow.capacity_log) <= bound


def rank_two_choi() -> ChoiMatrix:
    """Trace-one Choi matrix of a 2 x 2 map with two Gaussian Kraus
    operators: rank 2 of 4, with positive definite marginals."""
    rng = np.random.default_rng(0)
    kraus = rng.standard_normal((2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2))
    mat = channels.choi_from_kraus(channels.KrausMap(tuple(kraus))).matrix
    return ChoiMatrix(n=2, m=2, matrix=mat / np.trace(mat).real)


class TestRankDeficientInput:
    def test_input_is_rank_deficient_with_definite_marginals(self):
        choi = rank_two_choi()
        w = np.linalg.eigvalsh(choi.matrix)
        assert abs(w[1]) <= 1e-14 and w[2] > 0.1
        assert np.linalg.eigvalsh(choi.trace_first())[0] > 0.1
        assert np.linalg.eigvalsh(choi.trace_second())[0] > 0.1

    def test_sld_converges_and_capacity_matches_oracle(self):
        choi = rank_two_choi()
        trace = scaling.operator_sinkhorn(choi)
        assert trace.converged and trace.sweeps == 4
        oracle = oracles.capacity_bruteforce(choi)
        assert abs(scaling.capacity_from_trace(trace) - oracle) <= 1e-6

    @pytest.mark.parametrize("method", ["bkm", "burg"])
    def test_dual_methods_still_need_definite_input(self, method):
        with pytest.raises(SingularityError):
            scaling.alternating_projections(method, rank_two_choi())


def low_rank_choi(n: int, m: int, rank: int, eps: float, rng: np.random.Generator) -> ChoiMatrix:
    """Trace-one Choi matrix of a map with ``rank`` Gaussian Kraus
    operators, mixed with eps * I/(nm)."""
    kraus = rng.standard_normal((rank, m, n)) + 1j * rng.standard_normal((rank, m, n))
    mat = channels.choi_from_kraus(channels.KrausMap(tuple(kraus))).matrix
    mat = (1.0 - eps) * mat / np.trace(mat).real + eps * np.eye(n * m) / (n * m)
    return ChoiMatrix(n=n, m=m, matrix=mat)


def factor_products(factors, n: int, m: int):
    """(L_k, R_k) after every step k = 0, 1, ..., the ordered products of
    the recorded left and right factors."""
    left, right = np.eye(m), np.eye(n)
    out = [(left, right)]
    for side, factor in factors:
        if side == "first":
            left = factor @ left
        else:
            right = factor @ right
        out.append((left, right))
    return out


def assert_matches_materialized_loop(choi: ChoiMatrix, cfg: scaling.ScalingConfig) -> scaling.ScalingTrace:
    """The factor loop against the loop that forms every iterate: equal
    sweeps, factors within 1e-12 relative, residuals within 1e-9 relative,
    and every iterate (rebuilt on read) and the final within the bound of
    the benchmark's factor check, 1e2 (k + 1) n m eps cond(L_k) cond(R_k).

    The two loops round their marginals differently, and the factor
    M^{-1} # T amplifies that by up to cond(T): a 5 x 5 target of condition
    1.8e4 moves the factors by 1.9e-12 relative.  So the factor bound grows
    with cond(T) beyond 1e3."""
    n, m = choi.n, choi.m
    trace = scaling.operator_sinkhorn(choi, cfg)
    ref = oracles.operator_sinkhorn_ref(choi, cfg)
    assert trace.sweeps == ref["sweeps"]
    assert trace.converged == ref["converged"] and trace.preprocessed == ref["preprocessed"]
    assert trace.capacity_log == pytest.approx(ref["capacity_log"], rel=1e-12, abs=1e-12)
    assert len(trace.factors) == len(ref["factors"])
    cond = {"first": np.linalg.cond(trace.target_p), "second": np.linalg.cond(trace.target_q)}
    for (side, got), (ref_side, want) in zip(trace.factors, ref["factors"]):
        assert side == ref_side
        assert np.abs(got - want).max() <= 1e-12 * max(1.0, cond[side] / 1e3) * np.abs(want).max()
    np.testing.assert_allclose(trace.residuals, ref["residuals"], rtol=1e-9, atol=1e-20)
    assert len(trace.iterates) == len(ref["iterates"])
    products = factor_products(trace.factors, n, m)
    for k, (got, want, (left, right)) in enumerate(zip(trace.iterates, ref["iterates"], products)):
        kappa = np.linalg.cond(left) * np.linalg.cond(right)
        allowed = 1e2 * (k + 1) * n * m * np.finfo(float).eps * kappa * np.abs(want).max()
        assert np.abs(got - want).max() <= allowed
    assert trace.final.matrix is trace.iterates[-1]
    return trace


class TestFactorLoopAgainstMaterializedLoop:
    @pytest.mark.parametrize("n, m", [(2, 2), (2, 3), (3, 2), (4, 4), (3, 5)])
    @pytest.mark.parametrize("general", [False, True])
    def test_small_shapes(self, n, m, general):
        rng = np.random.default_rng(400 + 10 * n + m + general)
        choi = channels.random_choi(n, m, rng)
        p = channels.random_density(m, rng) if general else None
        q = channels.random_density(n, rng) if general else None
        trace = assert_matches_materialized_loop(
            choi, scaling.ScalingConfig(max_iters=300, tol=1e-10, target_p=p, target_q=q)
        )
        assert trace.converged and trace.sweeps > 0

    @pytest.mark.parametrize("n", [8, 12])
    @pytest.mark.parametrize("eps", [1e-2, 1e-3])
    @pytest.mark.parametrize("general", [False, True])
    def test_low_kraus_rank(self, n, eps, general):
        rng = np.random.default_rng(420 + n + general)
        choi = low_rank_choi(n, n, 2, eps, rng)
        # marginal targets like the benchmark's: half Ginibre, half mixed
        p = (channels.random_density(n, rng) + np.eye(n) / n) / 2 if general else None
        q = (channels.random_density(n, rng) + np.eye(n) / n) / 2 if general else None
        trace = assert_matches_materialized_loop(
            choi, scaling.ScalingConfig(max_iters=200, tol=1e-8, target_p=p, target_q=q)
        )
        assert trace.converged and trace.sweeps > 2

    def test_rank_deficient_two_kraus(self):
        trace = assert_matches_materialized_loop(rank_two_choi(), scaling.ScalingConfig())
        assert trace.converged and trace.sweeps == 4

    def test_budget_cut_runs(self):
        # max_iters = 0 still takes the preprocessing step for general targets
        rng = np.random.default_rng(430)
        choi = channels.random_choi(2, 3, rng)
        q = channels.random_density(2, rng)
        for max_iters in (0, 1, 3):
            for target_q in (None, q):
                trace = assert_matches_materialized_loop(
                    choi, scaling.ScalingConfig(max_iters=max_iters, tol=0.0, target_q=target_q)
                )
                assert trace.sweeps == max_iters and not trace.converged


def assert_same_trace(got: scaling.ScalingTrace, want: scaling.ScalingTrace) -> None:
    """Two operator Sinkhorn traces agree bit for bit: sweeps, flags,
    residuals, capacity, factors, every iterate and the final."""
    assert (got.sweeps, got.converged, got.preprocessed) == (want.sweeps, want.converged, want.preprocessed)
    assert got.residuals == want.residuals and got.capacity_log == want.capacity_log
    assert [side for side, _ in got.factors] == [side for side, _ in want.factors]
    assert all(np.array_equal(a, b) for (_, a), (_, b) in zip(got.factors, want.factors))
    assert len(got.iterates) == len(want.iterates)
    assert all(np.array_equal(a, b) for a, b in zip(got.iterates, want.iterates))
    assert np.array_equal(got.final.matrix, want.final.matrix)


def assert_batch_matches(chois, cfg: scaling.ScalingConfig) -> list[scaling.ScalingTrace]:
    """``operator_sinkhorn_batch`` against the per-instance runs: bit for bit
    against ``operator_sinkhorn`` on each input alone, and against the
    materialized-iterate reference ``oracles.operator_sinkhorn_ref`` in
    sweeps, flags and step sides exactly, in residuals, capacity and
    factors at the bounds of :func:`assert_matches_materialized_loop`."""
    batch = scaling.operator_sinkhorn_batch(chois, cfg)
    assert len(batch) == len(chois)
    for choi, got in zip(chois, batch):
        assert_same_trace(got, scaling.operator_sinkhorn(choi, cfg))
        ref = oracles.operator_sinkhorn_ref(choi, cfg)
        assert (got.sweeps, got.converged, got.preprocessed) == (ref["sweeps"], ref["converged"], ref["preprocessed"])
        assert [side for side, _ in got.factors] == [side for side, _ in ref["factors"]]
        assert got.capacity_log == pytest.approx(ref["capacity_log"], rel=1e-12, abs=1e-12)
        np.testing.assert_allclose(got.residuals, ref["residuals"], rtol=1e-9, atol=1e-20)
        for (_, a), (_, b) in zip(got.factors, ref["factors"]):
            assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()
    return batch


def unscalable_choi() -> ChoiMatrix:
    """Diagonal Choi embedding of [[1, 1, 1], [1, 0, 0], [1, 0, 0]] / 5: no
    perfect matching, so capacity 0, yet both marginals are positive
    definite.  Its factor products grow without bound."""
    return diagonal_choi(np.array([[1.0, 1.0, 1.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]) / 5.0)


class TestOperatorSinkhornBatch:
    @pytest.mark.parametrize("n", [2, 3])
    def test_random_inputs(self, n):
        rng = np.random.default_rng(800 + n)
        chois = [channels.random_choi(n, n, rng, real=k % 2 == 1) for k in range(8)]
        batch = assert_batch_matches(chois, scaling.ScalingConfig())
        assert all(trace.converged for trace in batch)
        # trials leave the stack at different sweeps
        assert len({trace.sweeps for trace in batch}) > 1

    @pytest.mark.parametrize("n", [2, 3])
    def test_diagonal_embeddings(self, n):
        rng = np.random.default_rng(810 + n)
        chois = []
        for _ in range(6):
            a = rng.uniform(0.05, 1.0, size=(n, n))
            chois.append(diagonal_choi(a / a.sum()))
        batch = assert_batch_matches(chois, scaling.ScalingConfig(tol=1e-12))
        for trace in batch:
            final = trace.final.matrix
            assert np.array_equal(final, np.diag(np.diag(final)))

    def test_general_targets_some_trials_preprocess(self):
        rng = np.random.default_rng(820)
        p, q = channels.random_density(3, rng), channels.random_density(2, rng)
        # Q kron P has the target marginals already: no step, not even the
        # preprocessing one
        feasible = ChoiMatrix(n=2, m=3, matrix=np.kron(q, p))
        chois = [channels.random_choi(2, 3, rng), feasible, channels.random_choi(2, 3, rng), feasible]
        batch = assert_batch_matches(chois, scaling.ScalingConfig(tol=1e-10, target_p=p, target_q=q))
        assert [trace.preprocessed for trace in batch] == [True, False, True, False]
        assert batch[1].sweeps == 0 and batch[1].final is feasible

    @pytest.mark.parametrize("max_iters", [0, 3])
    @pytest.mark.parametrize("general", [False, True])
    def test_budget_limited(self, max_iters, general):
        rng = np.random.default_rng(830 + max_iters + general)
        q = channels.random_density(2, rng) if general else None
        chois = [channels.random_choi(2, 3, rng) for _ in range(4)]
        batch = assert_batch_matches(chois, scaling.ScalingConfig(max_iters=max_iters, tol=0.0, target_q=q))
        assert all(trace.sweeps == max_iters and not trace.converged for trace in batch)

    def test_singular_marginal_fails_like_the_loop(self):
        rng = np.random.default_rng(840)
        # a PSD, unit-trace input whose first marginal diag(1, 0) is singular
        singular = ChoiMatrix(n=2, m=2, matrix=np.kron(np.eye(2) / 2, np.diag([1.0, 0.0])))
        with pytest.raises(SingularityError) as alone:
            scaling.operator_sinkhorn(singular)
        good = [channels.random_choi(2, 2, rng) for _ in range(3)]
        with pytest.raises(SingularityError) as batched:
            scaling.operator_sinkhorn_batch([good[0], good[1], singular, good[2]])
        assert str(batched.value) == str(alone.value) == "first marginal is not positive definite (min eigenvalue 0.000e+00)"

    @staticmethod
    def second_singular(low: float = 0.0, m: int = 2) -> ChoiMatrix:
        """A PSD, unit-trace input whose first marginal is I_m / m and whose
        second marginal diag(1 - low, low) fails the cone test."""
        return ChoiMatrix(n=2, m=m, matrix=np.kron(np.diag([1.0 - low, low]), np.eye(m) / m))

    @staticmethod
    def batch_error(chois: list[ChoiMatrix]) -> str:
        with pytest.raises(SingularityError) as batched:
            scaling.operator_sinkhorn_batch(chois)
        return str(batched.value)

    @staticmethod
    def lone_error(choi: ChoiMatrix) -> str:
        with pytest.raises(SingularityError) as alone:
            scaling.operator_sinkhorn(choi)
        return str(alone.value)

    @pytest.mark.parametrize("m", [2, 3])
    def test_singular_second_marginal_fails_like_the_loop(self, m):
        rng = np.random.default_rng(845 + m)
        good = [channels.random_choi(2, m, rng) for _ in range(4)]
        singular = self.second_singular(m=m)
        want = self.lone_error(singular)
        assert want == "second marginal is not positive definite (min eigenvalue 0.000e+00)"
        assert self.batch_error(good[:2] + [singular] + good[2:]) == want

    def test_lower_of_two_failures_in_one_step_wins(self):
        # both fail in the first right step; each reports its own minimum
        rng = np.random.default_rng(855)
        good = [channels.random_choi(2, 2, rng) for _ in range(3)]
        low, zero = self.second_singular(1e-15), self.second_singular()
        assert self.lone_error(low) != self.lone_error(zero)
        assert self.batch_error([good[0], low, good[1], zero, good[2]]) == self.lone_error(low)
        assert self.batch_error([good[0], zero, good[1], low, good[2]]) == self.lone_error(zero)

    def test_first_stacked_trial_failing_empties_the_stack(self):
        rng = np.random.default_rng(865)
        # already doubly stochastic: this trial takes no step and is not stacked
        feasible = ChoiMatrix(n=2, m=2, matrix=np.eye(4) / 4)
        singular = ChoiMatrix(n=2, m=2, matrix=np.kron(np.eye(2) / 2, np.diag([1.0, 0.0])))
        good = [channels.random_choi(2, 2, rng) for _ in range(2)]
        for chois in ([singular] + good, [feasible, singular] + good, [feasible, self.second_singular()] + good):
            assert self.batch_error(chois) == self.lone_error(chois[-3])

    def test_failing_step_takes_one_stacked_eigh(self, eig_calls):
        # the failing trial is found on the step's own stacked spectrum, and
        # the trials before it keep their rows of it: no trial is solved again
        rng = np.random.default_rng(875)
        good = [channels.random_choi(2, 2, rng) for _ in range(3)]
        eig_calls.clear()
        self.batch_error([good[0], good[1], self.second_singular(), good[2]])
        # the left step, the failing right step, then stacked steps of the
        # two trials left, until each stops
        assert eig_calls[:3] == [("eigh", (4, 2, 2))] * 2 + [("eigh", (2, 2, 2))]
        assert all(name == "eigh" and shape in ((2, 2, 2), (1, 2, 2)) for name, shape in eig_calls[2:])

    def test_lowest_failing_trial_wins(self):
        rng = np.random.default_rng(850)
        good = channels.random_choi(2, 2, rng)
        singular = ChoiMatrix(n=2, m=2, matrix=np.kron(np.eye(2) / 2, np.diag([1.0, 0.0])))
        off_trace = ChoiMatrix(n=2, m=2, matrix=2.0 * good.matrix)
        with pytest.raises(SingularityError):
            scaling.operator_sinkhorn_batch([good, singular, off_trace])
        with pytest.raises(InvalidInputError, match="trace"):
            scaling.operator_sinkhorn_batch([good, off_trace, singular])
        # by index, not by time: the overflow comes a thousand sweeps after
        # the singular marginal of the next trial, and still wins
        cfg = scaling.ScalingConfig(max_iters=2000)
        singular3 = ChoiMatrix(n=3, m=3, matrix=np.kron(np.eye(3) / 3, np.diag([1.0, 0.0, 0.0])))
        with pytest.raises(ConvergenceError, match="overflowed"):
            scaling.operator_sinkhorn_batch([unscalable_choi(), singular3], cfg)
        with pytest.raises(SingularityError):
            scaling.operator_sinkhorn_batch([singular3, unscalable_choi()], cfg)

    def test_overflow_is_a_typed_error(self):
        cfg = scaling.ScalingConfig(max_iters=2000)
        with pytest.raises(ConvergenceError, match=r"overflowed in sweep \d+: the \w+ marginal is not finite") as alone:
            scaling.operator_sinkhorn(unscalable_choi(), cfg)
        rng = np.random.default_rng(860)
        scalable = [channels.random_choi(3, 3, rng) for _ in range(3)]
        with pytest.raises(ConvergenceError) as batched:
            scaling.operator_sinkhorn_batch(scalable[:2] + [unscalable_choi()] + scalable[2:], cfg)
        assert str(batched.value) == str(alone.value)
        # the scalable trials before it are unaffected by it
        for choi, trace in zip(scalable[:2], scaling.operator_sinkhorn_batch(scalable[:2], cfg)):
            assert_same_trace(trace, scaling.operator_sinkhorn(choi, cfg))

    def test_unscalable_input_within_budget_is_unchanged(self):
        trace = scaling.operator_sinkhorn(unscalable_choi(), scaling.ScalingConfig(max_iters=200))
        assert trace.sweeps == 200 and not trace.converged
        assert trace.residuals[-1] == pytest.approx(1.0 / 6.0, rel=1e-12)
        assert trace.capacity_log == pytest.approx(92.69940063823894, rel=1e-9)

    def test_empty_and_mixed_batches(self):
        assert scaling.operator_sinkhorn_batch([]) == []
        rng = np.random.default_rng(870)
        with pytest.raises(InvalidInputError, match="one block shape"):
            scaling.operator_sinkhorn_batch([channels.random_choi(2, 2, rng), channels.random_choi(2, 3, rng)])


def count_calls(monkeypatch, module, name: str) -> list:
    """Replace ``module.name`` by a wrapper that records the shape of its
    first argument."""
    calls = []
    original = getattr(module, name)

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


class TestFactorLoopWork:
    @pytest.mark.parametrize("sweeps", [1, 5, 40])
    @pytest.mark.parametrize("general", [False, True])
    def test_one_congruence_per_solve(self, sweeps, general, monkeypatch):
        rng = np.random.default_rng(440 + general)
        choi = channels.random_choi(3, 4, rng)
        p = channels.random_density(4, rng) if general else None
        calls = count_calls(monkeypatch, scaling, "congruence")
        trace = scaling.operator_sinkhorn(choi, scaling.ScalingConfig(max_iters=sweeps, tol=0.0, target_p=p))
        assert trace.sweeps == sweeps and calls == [(12, 12)]

    @pytest.mark.parametrize("general", [(), ("first",), ("first", "second")], ids=["uniform", "mixed", "general"])
    def test_small_eigh_per_step_and_no_big_cholesky(self, general, eig_calls, monkeypatch):
        # one small eigh per step on a uniform side, two on a general side
        rng = np.random.default_rng(450 + len(general))
        choi = channels.random_choi(3, 4, rng)
        p = channels.random_density(4, rng) if "first" in general else None
        q = channels.random_density(3, rng) if "second" in general else None
        cfg = scaling.ScalingConfig(max_iters=20, tol=0.0, target_p=p, target_q=q)
        cholesky = count_calls(monkeypatch, np.linalg, "cholesky")
        eig_calls.clear()
        trace = scaling.operator_sinkhorn(choi, cfg)
        assert trace.preprocessed == bool(general)
        want = sum(2 if side in general else 1 for side, _ in trace.factors)
        assert sum(name == "eigh" for name, _ in eig_calls) == want
        assert all(shape[0] <= 4 for _, shape in eig_calls)
        # the final is trusted, not validated: only the targets' checks
        # factor anything, at most 4 x 4
        assert all(shape[0] <= 4 for shape in cholesky)

    def test_memory_does_not_grow_with_sweeps(self):
        choi = channels.random_choi(12, 12, np.random.default_rng(460))

        def peak(sweeps: int) -> int:
            tracemalloc.start()
            try:
                trace = scaling.operator_sinkhorn(choi, scaling.ScalingConfig(max_iters=sweeps, tol=0.0))
                assert trace.sweeps == sweeps
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        short, long = peak(4), peak(40)
        assert long <= 1.5 * short


class TestSinkhornIterates:
    def run(self):
        choi = channels.random_choi(2, 3, np.random.default_rng(470))
        return choi, scaling.operator_sinkhorn(choi, scaling.ScalingConfig(max_iters=3, tol=0.0))

    def test_sequence_protocol(self, monkeypatch):
        choi, trace = self.run()
        its = trace.iterates
        assert len(its) == 7 == len(trace.factors) + 1
        assert its[0] is choi.matrix and its[-1] is trace.final.matrix and its[6] is its[-1]
        calls = count_calls(monkeypatch, scaling, "congruence")
        middle = its[3]
        assert len(calls) == 1
        np.testing.assert_array_equal(its[-4], middle)
        listed = list(its)
        assert len(listed) == 7 and listed[0] is its[0] and listed[-1] is its[-1]
        calls.clear()
        view = its[1:]
        assert calls == [] and len(view) == 6 and len(its[::2]) == 4
        np.testing.assert_array_equal(view[2], middle)
        np.testing.assert_array_equal(view[1:][1], middle)
        assert view[-1] is its[-1] and its[::-1][0] is its[-1]
        assert len(calls) == 2
        for index in (7, -8):
            with pytest.raises(IndexError):
                its[index]

    def test_only_the_final_entry_is_replaced(self):
        _, trace = self.run()
        bumped = trace.iterates[-1] + 1e-6
        trace.iterates[-1] = bumped
        assert trace.iterates[6] is bumped
        with pytest.raises(IndexError):
            trace.iterates[2] = bumped

    def test_deepcopy_is_independent(self):
        _, trace = self.run()
        copied = copy.deepcopy(trace)
        copied.iterates[-1] = np.zeros((6, 6))
        assert np.abs(trace.iterates[-1]).max() > 0
        np.testing.assert_array_equal(copied.iterates[2], trace.iterates[2])


class TestResidualCharacterization:
    def test_zero_exactly_when_both_marginals_match(self):
        rng = np.random.default_rng(77)
        p, q = np.eye(2) / 2, np.eye(2) / 2
        feasible = ChoiMatrix(n=2, m=2, matrix=np.eye(4) / 4)
        assert scaling.choi_residual(feasible, p, q) == 0.0
        # a point satisfying only the first constraint keeps a positive residual
        half_done, _ = scaling.operator_sinkhorn_step(channels.random_choi(2, 2, rng), "first", p)
        res = scaling.choi_residual(half_done, p, q)
        assert res > 0.0
        assert res == pytest.approx(
            np.linalg.norm(half_done.trace_second() - q) ** 2, abs=1e-15
        )


@pytest.mark.parametrize("project", [scaling.bkm_e_projection, scaling.burg_e_projection])
@pytest.mark.parametrize("side, target", [("first", np.eye(2) / 2), ("second", np.diag([0.2, 0.3, 0.5]))])
def test_projection_rejects_a_target_that_does_not_fit(project, side, target):
    choi = channels.random_choi(2, 3, np.random.default_rng(0))
    with pytest.raises(InvalidInputError, match="constraint target has shape"):
        project(choi, ConstraintSet(side, target))


class TestBkmProjection:
    def test_feasible_point_is_fixed(self):
        choi = ChoiMatrix(n=2, m=2, matrix=np.eye(4) / 4)
        out, dual = scaling.bkm_e_projection(choi, ConstraintSet("first", np.eye(2) / 2))
        np.testing.assert_allclose(out.matrix, choi.matrix, atol=1e-9)
        assert np.linalg.norm(dual) <= 1e-6

    def test_projection_hits_constraint(self):
        rng = np.random.default_rng(12)
        choi = channels.random_choi(2, 3, rng)
        target = channels.random_density(3, rng)
        out, _ = scaling.bkm_e_projection(choi, ConstraintSet("first", target))
        assert np.linalg.norm(out.trace_first() - target) <= 1e-8

    def test_diagonal_projection_is_row_normalization(self):
        a = random_positive_matrix(2, 2, 13)
        choi = diagonal_choi(a)
        out, _ = scaling.bkm_e_projection(choi, ConstraintSet("first", np.eye(2) / 2))
        classical = a / (2 * a.sum(axis=1, keepdims=True))
        np.testing.assert_allclose(choi_diagonal_to_matrix(out), classical, atol=1e-9)

    def test_minimizes_umegaki_against_competitors(self):
        rng = np.random.default_rng(14)
        choi = channels.random_choi(2, 2, rng)
        constraint = ConstraintSet("first", np.eye(2) / 2)
        projected, _ = scaling.bkm_e_projection(choi, constraint)
        value = divergences.divergence("umegaki", projected.matrix, choi.matrix)
        for seed in range(5):
            other = channels.random_choi(2, 2, np.random.default_rng(100 + seed))
            competitor, _ = scaling.operator_sinkhorn_step(other, "first", np.eye(2) / 2)
            assert value <= divergences.divergence("umegaki", competitor.matrix, choi.matrix) + 1e-9

    def test_dual_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(15)
        choi = channels.random_choi(2, 2, rng)
        p = np.eye(2) / 2
        log_rho0 = linalg.logm(choi.matrix)

        def dual_value(a):
            lifted = log_rho0 + np.kron(np.eye(2), a)
            w = np.linalg.eigvalsh((lifted + lifted.conj().T) / 2)
            shift = w.max()
            return float(np.log(np.sum(np.exp(w - shift))) + shift - np.trace(p @ a).real)

        def dual_gradient(a):
            lifted = log_rho0 + np.kron(np.eye(2), a)
            state = linalg.expm((lifted + lifted.conj().T) / 2)
            state /= np.trace(state).real
            return linalg.partial_trace(state, 2, 2, "first") - p

        a0 = np.array([[0.3, 0.1 - 0.2j], [0.1 + 0.2j, -0.1]])
        grad = dual_gradient(a0)
        for b in oracles.hermitian_basis(2):
            fd = oracles.central_difference(lambda t: dual_value(a0 + t * b), 0.0, 1e-6)
            assert abs(np.trace(grad @ b).real - fd) <= 1e-6

    def test_pythagorean_identity(self):
        rng = np.random.default_rng(16)
        choi = channels.random_choi(2, 2, rng)
        constraint = ConstraintSet("first", np.eye(2) / 2)
        projected, _ = scaling.bkm_e_projection(choi, constraint)
        for seed in range(5):
            tau, _ = scaling.operator_sinkhorn_step(
                channels.random_choi(2, 2, np.random.default_rng(200 + seed)), "first", np.eye(2) / 2
            )
            lhs = divergences.divergence("umegaki", tau.matrix, choi.matrix)
            rhs = divergences.divergence(
                "umegaki", tau.matrix, projected.matrix
            ) + divergences.divergence("umegaki", projected.matrix, choi.matrix)
            assert abs(lhs - rhs) <= 1e-8

    def test_budget_exhaustion_raises(self):
        rng = np.random.default_rng(17)
        choi = channels.random_choi(2, 2, rng)
        previous = policy.set_policy(policy.relaxed(bkm_max_iters=1, bkm_gradient_tol=1e-15))
        try:
            with pytest.raises(ConvergenceError):
                scaling.bkm_e_projection(choi, ConstraintSet("first", np.eye(2) / 2))
        finally:
            policy.set_policy(previous)


class TestBurgProjection:
    def test_feasible_point_is_fixed(self):
        choi = ChoiMatrix(n=2, m=2, matrix=np.eye(4) / 4)
        out, dual = scaling.burg_e_projection(choi, ConstraintSet("first", np.eye(2) / 2))
        np.testing.assert_allclose(out.matrix, choi.matrix, atol=1e-10)
        assert np.linalg.norm(dual) <= 1e-8

    def test_resolvent_structure(self):
        rng = np.random.default_rng(18)
        choi = channels.random_choi(2, 2, rng)
        out, dual = scaling.burg_e_projection(choi, ConstraintSet("first", np.eye(2) / 2))
        lhs = linalg.invm(out.matrix) - linalg.invm(choi.matrix)
        np.testing.assert_allclose(lhs, -np.kron(np.eye(2), dual), atol=1e-9)

    def test_projection_hits_constraint(self):
        rng = np.random.default_rng(19)
        choi = channels.random_choi(2, 3, rng)
        target = channels.random_density(2, rng)
        out, _ = scaling.burg_e_projection(choi, ConstraintSet("second", target))
        assert np.linalg.norm(out.trace_second() - target) <= 1e-9

    def test_pythagorean_identity(self):
        rng = np.random.default_rng(20)
        choi = channels.random_choi(2, 2, rng)
        constraint = ConstraintSet("first", np.eye(2) / 2)
        projected, _ = scaling.burg_e_projection(choi, constraint)
        for seed in range(5):
            tau, _ = scaling.operator_sinkhorn_step(
                channels.random_choi(2, 2, np.random.default_rng(300 + seed)), "first", np.eye(2) / 2
            )
            lhs = divergences.divergence("burg", tau.matrix, choi.matrix)
            rhs = divergences.divergence(
                "burg", tau.matrix, projected.matrix
            ) + divergences.divergence("burg", projected.matrix, choi.matrix)
            assert abs(lhs - rhs) <= 1e-8


def random_hermitian(d: int, rng: np.random.Generator) -> np.ndarray:
    h = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (h + h.conj().T) / 2


JACOBIAN_CASES = [(2, 3), (3, 2), (3, 3), (4, 4)]


class TestClosedFormJacobians:
    """The closed-form Jacobians of the two marginal maps against central
    differences along random Hermitian directions."""

    @pytest.mark.parametrize("n, m", JACOBIAN_CASES)
    @pytest.mark.parametrize("side", ["first", "second"])
    def test_bkm_marginal_off_the_spectrum(self, n, m, side):
        # tr_side(V diag(p) V^dagger) by the marginal's einsum against the
        # partial trace of the formed state
        w, v = np.linalg.eigh(random_hermitian(n * m, np.random.default_rng(730 + 10 * n + m)))
        p = np.exp(w - np.logaddexp.reduce(w))
        spec = scaling._BKM_MARGINAL[side]
        vb = v.reshape(n, m, n * m)
        got = np.einsum(spec, vb * p, vb.conj())
        want = linalg.partial_trace((v * p) @ v.conj().T, n, m, side)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


# the side sets of a frame: the two one-sided projections and the joint solve
SIDE_SETS = [
    pytest.param(("first",), id="first"),
    pytest.param(("second",), id="second"),
    pytest.param(("first", "second"), id="both"),
]


def identity_coordinates(n: int, m: int, sides: tuple[str, ...]) -> dict[str, np.ndarray]:
    """Per side, the coordinates of I_d on that side and 0 on the others,
    from the oracle basis (E_ii first): ones on the side's first d entries."""
    dims = [m if side == "first" else n for side in sides]
    out, start = {}, 0
    for side, d in zip(sides, dims):
        e = np.zeros(sum(k * k for k in dims))
        e[start : start + d] = 1.0
        out[side], start = e, start + d * d
    return out


class TestFrame:
    """The real coordinates of one side's dual or both (``scaling._frame``)
    against the oracle Hermitian basis and dense Kronecker lifts."""

    SHAPES = [(1, 3), (2, 3), (3, 2), (3, 3)]

    @pytest.mark.parametrize("sides", SIDE_SETS)
    @pytest.mark.parametrize("n, m", SHAPES)
    def test_lift_against_dense_lifts(self, n, m, sides):
        rng = np.random.default_rng(860 + 10 * n + m + len(sides))
        frame = scaling._frame(n, m, sides)
        assert frame.sides == sides and (frame.n, frame.m) == (n, m)
        dims = [m if side == "first" else n for side in sides]
        x = rng.standard_normal(sum(d * d for d in dims))
        # the oracle duals, sum_k x_k B_k over each side's basis, and the
        # block-diagonal U whose blocks' columns are those bases' vecs
        duals, blocks, start = [], [], 0
        for d in dims:
            basis = oracles.hermitian_basis(d)
            duals.append(sum(c * b for c, b in zip(x[start : start + d * d], basis)))
            blocks.append(np.stack([b.reshape(-1) for b in basis], axis=1))
            start += d * d
        assert np.abs(frame.basis - scipy.linalg.block_diag(*blocks)).max() <= 1e-15 and np.array_equal(frame.adjoint, frame.basis.conj().T)
        # both lifts set the diagonal: on two sides it holds both, as in
        # the sum of the dense lifts
        base = random_hermitian(n * m, rng)
        want = base + sum(oracles.lift(dual, n, m, side) for dual, side in zip(duals, sides))
        got = scaling._lifted(base, frame, x)
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
        assert np.abs(np.diag(got) - np.diag(want)).max() <= 1e-14 * np.abs(want).max()
        got_duals = scaling._duals(frame, x)
        assert len(got_duals) == len(sides)
        for got_dual, dual in zip(got_duals, duals):
            assert np.abs(got_dual - dual).max() <= 1e-14 * np.abs(dual).max()
        assert np.abs(scaling._coordinates(frame, duals) - x).max() <= 1e-14 * np.abs(x).max()

    @pytest.mark.parametrize("sides", SIDE_SETS)
    @pytest.mark.parametrize("n, m", SHAPES)
    def test_unit_null_and_gauge(self, n, m, sides):
        frame = scaling._frame(n, m, sides)
        zero = np.zeros((n * m, n * m), dtype=complex)
        assert np.abs(scaling._lifted(zero, frame, frame.unit) - np.eye(n * m)).max() <= 1e-15
        assert np.abs(scaling._lifted(zero, frame, frame.null)).max() <= 1e-15
        eye = identity_coordinates(n, m, sides)
        if len(sides) == 2:
            assert np.array_equal(frame.null, eye["first"] - eye["second"])
        else:
            assert not frame.null.any()
        assert np.array_equal(frame.unit, sum(eye.values()) / len(sides))
        assert np.array_equal(frame.gauge, sum(np.outer(e, e) / e.sum() for e in eye.values()))


def newton_steps(monkeypatch) -> list[int]:
    """Record the number of steps of every ``scaling._newton`` solve."""
    steps, newton = [], scaling._newton

    def counted(*args, **kwargs):
        out = newton(*args, **kwargs)
        steps.append(out[2])
        return out

    monkeypatch.setattr(scaling, "_newton", counted)
    return steps


BKM_REFERENCE_CASES = [(n, m, general) for n, m in JACOBIAN_CASES for general in (False, True)]


def one_sided(method: str, start, n: int, m: int, side: str, target: np.ndarray):
    """``scaling._project`` of ``method`` on the frame of ``side`` alone:
    the point, the one dual and the Newton steps."""
    frame = scaling._frame(n, m, (side,))
    point, duals, steps = scaling._project(method, start, frame, scaling._coordinates(frame, [target]), "projection")
    assert len(duals) == 1
    return point, duals[0], steps


def reference_case(n, m, general, seed):
    rng = np.random.default_rng(seed + 10 * n + m + general)
    choi = channels.random_choi(n, m, rng)
    p = channels.random_density(m, rng) if general else np.eye(m) / m
    q = channels.random_density(n, rng) if general else np.eye(n) / n
    return choi, p, q


def assert_point_matches(got, dual, want, want_dual):
    # a BKM point carries no state: scaling._state forms it from its weights
    state = scaling._state(got)
    assert np.abs(state - want.state).max() <= 1e-12 * np.abs(want.state).max()
    assert np.abs(dual - want_dual).max() <= 1e-12 * np.abs(want_dual).max()
    assert np.abs(got.coord - want.coord).max() <= 1e-12 * np.abs(want.coord).max()
    assert np.abs(got.w - want.w).max() <= 1e-12 * np.abs(want.w).max()
    # the dual is returned as an exactly Hermitian complex array
    assert dual.dtype == complex and np.array_equal(dual, dual.conj().T)


class TestBkmProjectionAgainstReference:
    """The BKM Newton step on real coordinates, reading the marginal off
    the spectrum and forming its state once, against the earlier complex
    projection that formed the state and its partial trace at every
    evaluation (``oracles.bkm_project_ref``): the same Newton steps, and
    states, duals and coordinates equal to rounding."""

    @pytest.mark.parametrize("n, m, general", BKM_REFERENCE_CASES)
    @pytest.mark.parametrize("side", ["first", "second"])
    def test_projection(self, n, m, general, side, monkeypatch):
        choi, p, q = reference_case(n, m, general, 800)
        target = p if side == "first" else q
        # each from its own start: the package's off one eigh of rho, the
        # reference's by logm and one more eigh
        want, want_dual, want_steps = oracles.bkm_project_ref(oracles.bkm_start_ref(choi.matrix), n, m, side, target)
        steps = newton_steps(monkeypatch)
        start = scaling._start("bkm", choi.matrix, "start")
        got, dual, got_steps = one_sided("bkm", start, n, m, side, target)
        assert steps == [want_steps] == [got_steps] and want_steps > 0
        assert_point_matches(got, dual, want, want_dual)

    @pytest.mark.parametrize("n, m, general", BKM_REFERENCE_CASES)
    def test_alternation(self, n, m, general, monkeypatch):
        choi, p, q = reference_case(n, m, general, 810)
        cfg = scaling.ScalingConfig(target_p=p, target_q=q) if general else scaling.ScalingConfig()
        want, sweeps = oracles.dual_alternation_ref("bkm", choi, cfg)
        trace = scaling.alternating_projections("bkm", choi, cfg)
        assert trace.converged and trace.sweeps == sweeps > 0
        assert np.abs(trace.final.matrix - want).max() <= 1e-12 * np.abs(want).max()

    def test_no_step_returns_the_start(self, monkeypatch):
        # a projected point that takes no step comes back as the evaluation
        # at it: its eigenvectors, its coordinate and spectrum shifted by a
        # log Z at rounding level (in a copy: the point is left as it was),
        # the weights of its spectrum, no state formed and no eigh taken
        choi, p, _ = reference_case(3, 2, True, 820)
        point, _, _ = one_sided("bkm", scaling._start("bkm", choi.matrix, "start"), 3, 2, "first", p)
        kept = [a.copy() for a in point[:3]]
        steps = newton_steps(monkeypatch)
        states = count_calls(monkeypatch, scaling, "_gibbs_state")
        eigh = count_calls(monkeypatch, np.linalg, "eigh")
        again, dual, again_steps = one_sided("bkm", point, 3, 2, "first", p)
        assert steps == [0] == [again_steps] and not dual.any() and not states and not eigh
        assert again.v is point.v and again.coord is not point.coord and again.state is None
        assert all(np.array_equal(a, b) for a, b in zip(point[:3], kept))
        eps = np.finfo(float).eps
        assert np.abs(again.coord - point.coord).max() <= 4 * eps * np.abs(point.coord).max()
        assert np.abs(again.w - point.w).max() <= 4 * eps * np.abs(point.w).max()
        assert np.abs(again.weights - point.weights).max() <= 4 * eps
        assert np.linalg.norm(again.gradient) <= policy.get_policy().bkm_gradient_tol

    @pytest.mark.parametrize("n, m, general", BKM_REFERENCE_CASES)
    def test_one_eigh_per_evaluation_and_one_state(self, n, m, general, monkeypatch):
        choi, p, _ = reference_case(n, m, general, 830)
        states = count_calls(monkeypatch, scaling, "_gibbs_state")
        start = scaling._start("bkm", choi.matrix, "start")
        # the start is log rho and its spectrum, with no state
        assert start.state is None and start.weights is None and not states
        evaluations, newton = [], scaling._newton

        def counted(method, evaluate, direction, current, **kwargs):
            return newton(method, lambda x: evaluations.append(1) or evaluate(x), direction, current, **kwargs)

        monkeypatch.setattr(scaling, "_newton", counted)
        eigh = count_calls(monkeypatch, np.linalg, "eigh")
        point, _, _ = one_sided("bkm", start, n, m, "first", p)
        assert len(evaluations) > 0
        assert eigh == [(n * m, n * m)] * len(evaluations)
        # the projection forms no state; its point gives one where it is used
        assert point.state is None and not states
        state = scaling._state(point)
        assert states == [(n * m, n * m)]
        assert np.abs(linalg.partial_trace(state, n, m, "first") - p).max() <= 1e-8


def gradient_norms(monkeypatch, module, name: str) -> list[float | None]:
    """Record the gradient norm of every evaluation of every Newton solve
    that ``module.name`` runs (None for a candidate outside the domain)."""
    norms, newton = [], getattr(module, name)

    def recorded(method, evaluate, direction, current, **kwargs):
        def evaluate_recorded(x):
            out = evaluate(x)
            # a package evaluation carries its gradient on its point
            g = None if out is None else out[2].gradient if module is scaling else out[2]
            norms.append(None if g is None else float(np.linalg.norm(g)))
            return out

        return newton(method, evaluate_recorded, direction, current, **kwargs)

    monkeypatch.setattr(module, name, recorded)
    return norms


def before_polish(norms: list[float | None]) -> list[float | None]:
    """The evaluations of a Burg solve up to the first one whose gradient
    norm is below the policy tolerance: those before its polishing step."""
    tol = policy.get_policy().burg_residual_tol
    end = next(i for i, norm in enumerate(norms) if norm is not None and norm <= tol)
    return norms[: end + 1]


class TestBurgProjectionAgainstReference:
    """The Burg Newton step on real coordinates (one real symmetric solve
    per step, the Jacobian by a Gram product) against the earlier complex
    projection (``oracles.burg_project_ref``: ``einsum`` Jacobian, complex
    solve, Hermitian part of the step).  Every evaluation up to the
    gradient tolerance is the same, so are the Newton steps to there, and
    states, duals and coordinates are equal to rounding.  The one polishing
    step after it is kept if it lowers a gradient norm that is already at
    rounding level (about 1e-15), so the two solvers may keep or drop it
    apart: the step counts may differ by that one step."""

    @pytest.mark.parametrize("n, m, general", BKM_REFERENCE_CASES)
    @pytest.mark.parametrize("side", ["first", "second"])
    def test_projection(self, n, m, general, side, monkeypatch):
        choi, p, q = reference_case(n, m, general, 800)
        target = p if side == "first" else q
        # each from its own start: the package's off one eigh of rho, the
        # reference's by invm and one more eigh
        want_norms = gradient_norms(monkeypatch, oracles, "newton_ref")
        want, want_dual, want_steps = oracles.burg_project_ref(oracles.burg_start_ref(choi.matrix), n, m, side, target)
        steps = newton_steps(monkeypatch)
        norms = gradient_norms(monkeypatch, scaling, "_newton")
        start = scaling._start("burg", choi.matrix, "start")
        got, dual, got_steps = one_sided("burg", start, n, m, side, target)
        head, want_head = before_polish(norms), before_polish(want_norms)
        assert len(head) == len(want_head) > 1
        # a norm at rounding level (the last one can be) agrees to 1e-12,
        # a hundredth of the tolerance
        for norm, want_norm in zip(head, want_head):
            assert (norm is None) == (want_norm is None)
            if norm is not None:
                assert abs(norm - want_norm) <= 1e-6 * want_norm + 1e-12
        assert steps == [got_steps] and abs(got_steps - want_steps) <= 1 and want_steps > 0
        assert_point_matches(got, dual, want, want_dual)

    @pytest.mark.parametrize("n, m, general", BKM_REFERENCE_CASES)
    def test_alternation(self, n, m, general):
        choi, p, q = reference_case(n, m, general, 810)
        cfg = scaling.ScalingConfig(target_p=p, target_q=q) if general else scaling.ScalingConfig()
        want, sweeps = oracles.dual_alternation_ref("burg", choi, cfg)
        trace = scaling.alternating_projections("burg", choi, cfg)
        # the 4 x 4 general case is one of the slow Burg alternations that
        # end at the sweep budget: both runs stop there, at the same state
        assert trace.converged == ((n, m, general) != (4, 4, True))
        assert trace.sweeps == sweeps > 0
        assert np.abs(trace.final.matrix - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("n, m", JACOBIAN_CASES)
    @pytest.mark.parametrize("side", ["first", "second"])
    def test_gram_jacobian_matches_einsum(self, n, m, side):
        state = channels.random_choi(n, m, np.random.default_rng(840 + 10 * n + m)).matrix
        want = oracles.burg_jacobian_ref(state, n, m, side)
        got = scaling._burg_jacobian(state, n, m, (side,))
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def floor_at(low: float, high: float) -> float:
    """A policy floor f with f * high == low in floating point: the
    spectrum (low, ..., high) then lies on the boundary of the cone."""
    f = low / high
    for _ in range(64):
        if f * high == low:
            return f
        f = np.nextafter(f, np.inf if f * high < low else 0.0)
    raise AssertionError(f"no floor puts {low} on the boundary against {high}")


class Started(Exception):
    """Raised by :func:`captured_start` once a solve has started."""


def captured_start(monkeypatch) -> list:
    """Replace ``scaling._newton`` by one that records the solve's start,
    the evaluation the cone test admits (None: rejected), with the solve's
    ``evaluate``, and stops."""
    starts = []

    def capture(method, evaluate, direction, current, **kwargs):
        starts.append((current, evaluate))
        raise Started

    monkeypatch.setattr(scaling, "_newton", capture)
    return starts


class TestOneConeTest:
    """One cone test, ``linalg._positive_definite``, for every positive
    definiteness check: min eig > floor * max eig.  A spectrum on the
    boundary is rejected and the next float up is accepted, by the
    predicate and by each caller."""

    @pytest.mark.parametrize("high", [1.0, 4.0, 0.25])
    def test_predicate(self, high):
        floor = policy.get_policy().pd_rel_floor
        on = np.array([floor * high, 0.5 * high, high])
        up = on.copy()
        up[0] = np.nextafter(on[0], np.inf)
        assert linalg._positive_definite(on) is False and linalg._positive_definite(up) is True
        assert linalg._positive_definite(np.stack([on, up, on])).tolist() == [False, True, False]
        assert linalg._positive_definite(np.stack([on, up]).reshape(2, 1, 3)).tolist() == [[False], [True]]
        assert not linalg._positive_definite(np.array([-1.0, -0.5]))

    @staticmethod
    def spectra():
        floor = policy.get_policy().pd_rel_floor  # floor * 1.0 is exact
        return (np.array([floor, 0.5, 1.0, 1.0]), np.array([np.nextafter(floor, 1.0), 0.5, 1.0, 1.0]))

    def test_linalg_checks(self):
        on, up = (np.diag(w) for w in self.spectra())
        assert np.array_equal(np.linalg.eigvalsh(on), np.diag(on))
        assert linalg.is_positive_definite(on) is False and linalg.is_positive_definite(up) is True
        assert linalg.is_positive_definite(np.stack([on, up])).tolist() == [False, True]
        with pytest.raises(SingularityError, match="min eigenvalue 1.000e-13"):
            linalg.assert_positive_definite(on)
        with pytest.raises(SingularityError, match="min eigenvalue 1.000e-13"):
            linalg.assert_positive_definite(np.stack([up, on]))
        assert np.array_equal(linalg.assert_positive_definite(up), up)

    def test_burg_projection_start(self, monkeypatch):
        # K = diag(w) itself is the start: its spectrum is exact
        starts = captured_start(monkeypatch)
        for w in self.spectra():
            start = scaling._burg_point(np.diag(w).astype(complex), w, np.eye(4, dtype=complex))
            with pytest.raises(Started):
                one_sided("burg", start, 2, 2, "first", np.eye(2) / 2)
        assert starts[0][0] is None and starts[1][0] is not None

    def test_joint_burg_evaluation(self, monkeypatch):
        # rho0 = diag(1/2, 1/4, 1/8, 1/8) has rho0^{-1} = diag(2, 4, 8, 8)
        # exactly, the joint solve's start, inside the cone.  With the
        # unit-trace shift pinned at c, an evaluation at x = 0 tests the
        # spectrum (2 - c, 4 - c, 8 - c, 8 - c): under a floor f with
        # f * 7 == 1, c = 1 puts it on the boundary, and c = 1 - 2^-52 moves
        # its minimum to the next float up, 1 + 2^-52, while 8 - c rounds to 7
        choi = ChoiMatrix(n=2, m=2, matrix=np.diag([0.5, 0.25, 0.125, 0.125]))
        starts, evaluations = captured_start(monkeypatch), []
        previous = policy.set_policy(policy.relaxed(pd_rel_floor=floor_at(1.0, 7.0)))
        try:
            with pytest.raises(Started):
                scaling.joint_limit("burg", choi)
            (current, evaluate), = starts
            for shift in (1.0, 1.0 - 2.0**-52):
                monkeypatch.setattr(scaling, "_unit_trace_shift", lambda w, c=shift: c)
                evaluations.append(evaluate(np.zeros(8)))
        finally:
            policy.set_policy(previous)
        assert current is not None and np.array_equal(current[2].w, [2.0, 4.0, 8.0, 8.0])
        assert evaluations[0] is None and evaluations[1] is not None
        assert evaluations[1][2].w[0] == 1.0 + 2.0**-52


class TestRealSystems:
    """Every Newton system of a projection or a joint solve is real: a
    float64 matrix and right-hand side for each ``np.linalg.solve``, of the
    dual's d^2 (or m^2 + n^2) coordinates."""

    @pytest.mark.parametrize("method", ["bkm", "burg"])
    @pytest.mark.parametrize("solve", ["projection", "alternation", "joint"])
    def test_every_solve_is_float64(self, method, solve, monkeypatch):
        choi, p, q = reference_case(2, 3, True, 850)
        systems, solve_fn = [], np.linalg.solve
        monkeypatch.setattr(
            np.linalg, "solve", lambda a, b: systems.append((a.dtype, b.dtype, a.shape, b.shape)) or solve_fn(a, b)
        )
        cfg = scaling.ScalingConfig(target_p=p, target_q=q)
        if solve == "projection":
            project = scaling.bkm_e_projection if method == "bkm" else scaling.burg_e_projection
            project(choi, ConstraintSet("first", p))
            d2 = [9]
        elif solve == "alternation":
            scaling.alternating_projections(method, choi, cfg)
            d2 = [9, 4]
        else:
            scaling.joint_limit(method, choi, cfg)
            d2 = [9 + 4]
        assert systems
        for a_dtype, b_dtype, a_shape, b_shape in systems:
            assert a_dtype == b_dtype == np.float64
            assert a_shape[0] == a_shape[1] == b_shape[0] and a_shape[0] in d2


def oracle_projection(method, mat, n, m, side, target):
    if method == "burg":
        return oracles.burg_projection_per_basis(mat, n, m, side, target)
    return oracles.bkm_projection_barzilai_borwein(mat, n, m, side, target)


class TestDualSolversAgainstOracles:
    """Newton with closed-form Jacobians against the per-basis Burg Newton
    and Barzilai-Borwein BKM reference solvers.  BKM is compared at 1e-8
    because the reference stops at a gradient norm just under 1e-9."""

    @staticmethod
    def check_against_oracle(choi, side, target, method, rtol):
        n, m = choi.n, choi.m
        project = scaling.burg_e_projection if method == "burg" else scaling.bkm_e_projection
        out, dual = project(choi, ConstraintSet(side, target))
        want, want_dual = oracle_projection(method, choi.matrix, n, m, side, target)
        assert np.abs(out.matrix - want).max() <= rtol * np.abs(want).max()
        assert np.abs(dual - want_dual).max() <= 1e3 * rtol * max(np.abs(want_dual).max(), 1.0)

    @pytest.mark.parametrize("n, m", JACOBIAN_CASES)
    @pytest.mark.parametrize("side", ["first", "second"])
    @pytest.mark.parametrize("method, rtol", [("burg", 1e-12), ("bkm", 1e-8)])
    def test_uniform_target_matches_oracle(self, n, m, side, method, rtol):
        choi = channels.random_choi(n, m, np.random.default_rng(700 + 10 * n + m + (side == "second")))
        d = m if side == "first" else n
        self.check_against_oracle(choi, side, np.eye(d) / d, method, rtol)

    # 4 x 4 with a general target is the ill-conditioned case below
    @pytest.mark.parametrize("n, m", [(2, 3), (3, 2), (3, 3)])
    @pytest.mark.parametrize("side", ["first", "second"])
    @pytest.mark.parametrize("method, rtol", [("burg", 1e-12), ("bkm", 1e-8)])
    def test_general_target_matches_oracle(self, n, m, side, method, rtol):
        rng = np.random.default_rng(700 + 10 * n + m + (side == "second"))
        choi = channels.random_choi(n, m, rng)
        target = channels.random_density(m if side == "first" else n, rng)
        self.check_against_oracle(choi, side, target, method, rtol)

    def test_ill_conditioned_target(self):
        # input condition 2e4, target condition 5e3: the Barzilai-Borwein
        # reference runs out of its 10,000 iterations here, so BKM is checked
        # by its marginal and its exponential-family form instead; the two
        # Burg solvers agree to the rounding level of a condition-5e4 result
        rng = np.random.default_rng(744)
        choi = channels.random_choi(4, 4, rng)
        target = channels.random_density(4, rng)
        out, dual = scaling.bkm_e_projection(choi, ConstraintSet("first", target))
        assert np.linalg.norm(out.trace_first() - target) <= policy.get_policy().bkm_gradient_tol
        family = linalg.expm(linalg.logm(choi.matrix) + oracles.lift(dual, 4, 4, "first"))
        family /= np.trace(family).real
        assert np.abs(out.matrix - family).max() <= 1e-9 * np.abs(family).max()
        self.check_against_oracle(choi, "first", target, "burg", 1e-11)

    @pytest.mark.parametrize("n, m", JACOBIAN_CASES)
    @pytest.mark.parametrize("method", ["bkm", "burg"])
    def test_alternation_sweeps_match_oracle(self, n, m, method):
        choi = channels.random_choi(n, m, np.random.default_rng(60 + 10 * n + m))
        cfg = scaling.ScalingConfig()
        trace = scaling.alternating_projections(method, choi, cfg)
        p, q = cfg.targets(n, m)
        mat, sweeps = choi.matrix, 0
        residual = scaling.choi_residual(choi, p, q)
        while residual >= cfg.tol and sweeps < cfg.max_iters:
            mat, _ = oracle_projection(method, mat, n, m, "first", p)
            mat, _ = oracle_projection(method, mat, n, m, "second", q)
            sweeps += 1
            residual = scaling.choi_residual(ChoiMatrix(n=n, m=m, matrix=mat), p, q)
        assert trace.converged and trace.sweeps == sweeps > 0
        rtol = 1e-11 if method == "burg" else 1e-7
        assert np.abs(trace.final.matrix - mat).max() <= rtol * np.abs(mat).max()


def reference_dual_alternation(method: str, choi: ChoiMatrix, cfg: scaling.ScalingConfig) -> dict:
    """BKM or Burg alternation written out from the public, validating
    projections: every projection takes log rho or rho^{-1} of its source
    afresh, and every iterate is a ChoiMatrix."""
    project = scaling.bkm_e_projection if method == "bkm" else scaling.burg_e_projection
    p, q = cfg.targets(choi.n, choi.m)
    run = {"iterates": [choi.matrix], "factors": [], "sweeps": 0,
           "residuals": [scaling.choi_residual(choi, p, q)]}
    while run["residuals"][-1] >= cfg.tol and run["sweeps"] < cfg.max_iters:
        for side, target in (("first", p), ("second", q)):
            choi, dual = project(choi, ConstraintSet(side, target))
            run["iterates"].append(choi.matrix)
            run["factors"].append((side, dual))
        run["sweeps"] += 1
        run["residuals"].append(scaling.choi_residual(choi, p, q))
    return run


class TestDualLoopAgainstReference:
    """The alternation that carries the e-coordinate against the public
    projections.  The reference re-takes log rho (rho^{-1}) of every iterate,
    which costs it about cond(rho) * eps; the iterates here stay below
    condition 2e9, so 1e-10 bounds both the reference's round trip and the
    differences in rounding."""

    @pytest.mark.parametrize("n, m", JACOBIAN_CASES)
    @pytest.mark.parametrize("general", [False, True])
    @pytest.mark.parametrize("method", ["bkm", "burg"])
    def test_matches_public_projection_loop(self, n, m, general, method):
        rng = np.random.default_rng(100 + 10 * n + m + general)
        choi = channels.random_choi(n, m, rng)
        p = channels.random_density(m, rng) if general else None
        q = channels.random_density(n, rng) if general else None
        cfg = scaling.ScalingConfig(target_p=p, target_q=q)
        trace = scaling.alternating_projections(method, choi, cfg)
        ref = reference_dual_alternation(method, choi, cfg)
        assert trace.converged
        assert trace.sweeps == ref["sweeps"] > 0
        assert len(trace.iterates) == len(ref["iterates"])
        for got, want in zip(trace.iterates, ref["iterates"]):
            assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()
            ChoiMatrix(n=n, m=m, matrix=got)
        # a dual shrinks as the alternation converges, so the duals are
        # compared on the scale of the run's largest one
        scale = max(np.abs(want).max() for _, want in ref["factors"])
        for (side, got), (ref_side, want) in zip(trace.factors, ref["factors"]):
            assert side == ref_side
            assert np.abs(got - want).max() <= 1e-10 * scale
        np.testing.assert_allclose(trace.residuals, ref["residuals"], rtol=1e-8, atol=1e-20)

    def test_ill_conditioned_bkm_alternation_converges(self):
        # the exact BKM projection onto tr_first = P has three eigenvalues far
        # below rounding, so the computed state has tiny negative ones; taking
        # log rho of it again, as the per-iterate path did, raised
        # SingularityError on the second projection
        rng = np.random.default_rng(744)
        choi = channels.random_choi(4, 4, rng)
        p = channels.random_density(4, rng)
        q = channels.random_density(4, rng)
        cfg = scaling.ScalingConfig(target_p=p, target_q=q)
        with pytest.raises(SingularityError):
            reference_dual_alternation("bkm", choi, cfg)
        trace = scaling.alternating_projections("bkm", choi, cfg)
        assert trace.converged
        final = ChoiMatrix(n=4, m=4, matrix=trace.iterates[-1])
        assert np.linalg.norm(final.trace_first() - p) ** 2 < cfg.tol
        assert np.linalg.norm(final.trace_second() - q) ** 2 < cfg.tol
        assert np.array_equal(trace.final.matrix, final.matrix)

    @pytest.mark.parametrize("method", ["bkm", "burg"])
    @pytest.mark.parametrize("sweeps", [1, 4, 12])
    def test_solve_checks_only_entry_and_final(self, method, sweeps, monkeypatch):
        # the entry check is the start's one eigh of the input, and the
        # trusted final takes none: no eigvalsh at all, however many sweeps
        # run
        choi = channels.random_choi(3, 3, np.random.default_rng(36))
        calls, inputs = [], []
        eigvalsh, eigh = np.linalg.eigvalsh, np.linalg.eigh
        monkeypatch.setattr(
            np.linalg, "eigvalsh", lambda *args, **kwargs: calls.append(1) or eigvalsh(*args, **kwargs)
        )
        monkeypatch.setattr(np.linalg, "eigh", lambda a, *args, **kwargs: inputs.append(a is choi.matrix) or eigh(a))
        trace = scaling.alternating_projections(
            method, choi, scaling.ScalingConfig(max_iters=sweeps, tol=0.0)
        )
        assert trace.final.matrix is trace.iterates[-1]
        assert trace.sweeps == sweeps
        assert not calls and inputs[0] and inputs.count(True) == 1


def projected_points(monkeypatch) -> list:
    """Record the point every ``scaling._project`` call returns."""
    points, project = [], scaling._project

    def recorded(*args, **kwargs):
        out = project(*args, **kwargs)
        points.append(out[0])
        return out

    monkeypatch.setattr(scaling, "_project", recorded)
    return points


class TestDualSweepRecords:
    """A BKM or Burg sweep's residual is read off the Newton gradients its
    solves hold: the second projection's end gradient and the next first
    projection's start gradient, formed once at the sweep's end.  The run
    forms one BKM state, its final, and its trace holds the cumulative
    duals, from which ``iterates`` rebuilds each state on read."""

    @pytest.mark.parametrize("general", [False, True])
    @pytest.mark.parametrize("n, m", [(2, 3), (3, 3), (4, 4)])
    @pytest.mark.parametrize("method", ["bkm", "burg"])
    def test_residuals_and_iterates_are_the_states(self, method, n, m, general, monkeypatch):
        choi, p, q = reference_case(n, m, general, 870)
        cfg = scaling.ScalingConfig(target_p=p, target_q=q)
        points = projected_points(monkeypatch)
        trace = scaling.alternating_projections(method, choi, cfg)
        states = [scaling._state(point) for point in points]
        assert trace.sweeps > 0 and len(states) == 2 * trace.sweeps == len(trace.iterates) - 1
        for k, state in enumerate(states[1::2], start=1):
            want = scaling.choi_residual(ChoiMatrix(n=n, m=m, matrix=state), p, q)
            assert abs(trace.residuals[k] - want) <= 1e-10 * want
        assert np.array_equal(trace.final.matrix, states[-1])
        # the rebuilt iterates, from log rho0 or rho0^{-1} and the duals, to
        # the rounding of one eigh of the coordinate: eps |coord| relative
        # (on these runs the gap is at most 5 eps |coord| |state|)
        for got, want, point in zip(trace.iterates[1:-1], states, points):
            bound = 1e2 * np.finfo(float).eps * np.abs(point.coord).max() * np.abs(want).max()
            assert np.abs(got - want).max() <= bound

    @pytest.mark.parametrize("method", ["bkm", "burg"])
    def test_each_sweep_evaluates_the_first_marginal_once(self, method, monkeypatch):
        choi, p, q = reference_case(3, 3, True, 880)
        opened, starts, newton = [], [], scaling._newton
        start_evaluation = scaling._start_evaluation
        monkeypatch.setattr(
            scaling, "_start_evaluation", lambda *a: opened.append(start_evaluation(*a)) or opened[-1]
        )

        def recorded(method, evaluate, direction, current, **kwargs):
            starts.append(current)
            return newton(method, evaluate, direction, current, **kwargs)

        monkeypatch.setattr(scaling, "_newton", recorded)
        states = count_calls(monkeypatch, scaling, "_gibbs_state")
        traces = count_calls(monkeypatch, linalg, "partial_trace")
        trace = scaling.alternating_projections(method, choi, scaling.ScalingConfig(target_p=p, target_q=q))
        assert trace.sweeps > 2 and len(starts) == 2 * trace.sweeps
        # one start evaluation at each sweep's end, handed to the next
        # sweep's first projection
        assert len(opened) == trace.sweeps
        assert all(start is evaluation for start, evaluation in zip(starts[2::2], opened))
        if method == "bkm":
            # the marginals of the entry residual are the only partial
            # traces, and the final the only state
            assert traces == [(9, 9)] * 2 and states == [(9, 9)]

    @pytest.mark.parametrize("method", ["bkm", "burg"])
    def test_memory_does_not_grow_with_sweeps(self, method):
        choi = channels.random_choi(4, 4, np.random.default_rng(890))

        def peak(sweeps: int) -> int:
            tracemalloc.start()
            try:
                trace = scaling.alternating_projections(method, choi, scaling.ScalingConfig(max_iters=sweeps, tol=0.0))
                assert trace.sweeps == sweeps
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        short, long = peak(4), peak(40)
        assert long <= 1.5 * short


def dual_run(method: str, solve: str, choi: ChoiMatrix, cfg: scaling.ScalingConfig):
    """Run one ``bkm`` or ``burg`` solve of kind ``solve`` on ``choi``: an
    alternation, the joint limit, or the public projection onto P."""
    if solve == "alternation":
        return scaling.alternating_projections(method, choi, cfg)
    if solve == "joint":
        return scaling.joint_limit(method, choi, cfg)
    project = scaling.bkm_e_projection if method == "bkm" else scaling.burg_e_projection
    return project(choi, ConstraintSet("first", cfg.targets(choi.n, choi.m)[0]))


class TestOneStart:
    """Every BKM and Burg solve starts from one ``eigh`` of its input, which
    is also its entry cone test, and every evaluation of either dual is a
    :class:`scaling._Point`."""

    @pytest.mark.parametrize("solve", ["alternation", "joint", "projection"])
    @pytest.mark.parametrize("method", ["bkm", "burg"])
    def test_input_is_decomposed_once_before_newton(self, method, solve, monkeypatch):
        choi, p, q = reference_case(2, 3, True, 1700)
        events, eigh, eigvalsh, newton = [], np.linalg.eigh, np.linalg.eigvalsh, scaling._newton

        def decomposed(decompose):
            return lambda a, *args, **kwargs: events.append((np.shape(a), a is choi.matrix)) or decompose(a)

        monkeypatch.setattr(np.linalg, "eigh", decomposed(eigh))
        monkeypatch.setattr(np.linalg, "eigvalsh", decomposed(eigvalsh))
        monkeypatch.setattr(scaling, "_newton", lambda *a, **k: events.append("newton") or newton(*a, **k))
        dual_run(method, solve, choi, scaling.ScalingConfig(target_p=p, target_q=q))
        before = events[: events.index("newton")]
        # the general targets are validated by their own small eigvalsh
        assert [event for event in before if event[0] == (6, 6)] == [((6, 6), True)]

    @pytest.mark.parametrize("solve", ["alternation", "joint", "projection"])
    def test_burg_start_state_is_the_input(self, solve, monkeypatch):
        choi, p, q = reference_case(3, 2, True, 1710)
        starts = captured_start(monkeypatch)
        with pytest.raises(Started):
            dual_run("burg", solve, choi, scaling.ScalingConfig(target_p=p, target_q=q))
        (current, _), = starts
        start = current[2]
        assert start.state is choi.matrix
        # K = rho^{-1}, its spectrum ascending
        assert np.all(np.diff(start.w) >= 0)
        assert np.abs((start.v * start.w) @ start.v.conj().T - start.coord).max() <= 1e-14 * start.w.max()
        assert np.abs(start.coord @ choi.matrix - np.eye(6)).max() <= 1e-13

    @pytest.mark.parametrize("solve", ["alternation", "joint", "projection"])
    @pytest.mark.parametrize("n, m", [(2, 3), (3, 3)])
    def test_every_bkm_evaluation_is_a_normalized_point(self, n, m, solve, monkeypatch):
        choi, p, q = reference_case(n, m, True, 1720)
        points, newton = [], scaling._newton

        def recorded(method, evaluate, direction, current, **kwargs):
            def evaluate_recorded(x):
                out = evaluate(x)
                points.append(out[2])
                return out

            points.append(current[2])
            return newton(method, evaluate_recorded, direction, current, **kwargs)

        monkeypatch.setattr(scaling, "_newton", recorded)
        dual_run("bkm", solve, choi, scaling.ScalingConfig(target_p=p, target_q=q))
        assert len(points) > 2
        for point in points:
            assert isinstance(point, scaling._Point) and point.state is None
            assert abs(point.weights.sum() - 1.0) <= 1e-15
            # the spectrum is shifted by -log Z: the weights are its exp
            assert np.abs(point.weights - np.exp(point.w)).max() <= 1e-14
            coord = (point.v * point.w) @ point.v.conj().T
            assert np.abs(coord - point.coord).max() <= 1e-14 * np.abs(point.w).max()

    @pytest.mark.parametrize("general", [False, True])
    @pytest.mark.parametrize("n, m", JACOBIAN_CASES)
    @pytest.mark.parametrize("method", ["bkm", "burg"])
    def test_joint_residual_is_the_final_gradient(self, method, n, m, general):
        choi, p, q = reference_case(n, m, general, 1730)
        trace = scaling.joint_limit(method, choi, scaling.ScalingConfig(target_p=p, target_q=q))
        want = scaling.choi_residual(trace.final, p, q)
        assert trace.sweeps > 0 and abs(trace.residuals[-1] - want) <= 1e-12 * trace.residuals[0]


class TestBurgPolish:
    """Once the residual is below tolerance, one full polishing step is
    tried; a rejected one ends the projection instead of a line search down
    to step 1e-14 (47 evaluations).  On these inputs polishing steps are
    rejected.  The finals and sweep counts match an alternation of the
    reference solver, whose polish still searches."""

    CASES = [(2, 3, 8, True), (3, 2, 0, True), (2, 3, 1, False)]

    @staticmethod
    def problem(n, m, seed, general):
        rng = np.random.default_rng(seed)
        choi = channels.random_choi(n, m, rng)
        p = channels.random_density(m, rng) if general else None
        q = channels.random_density(n, rng) if general else None
        return choi, scaling.ScalingConfig(target_p=p, target_q=q)

    @pytest.mark.parametrize("n, m, seed, general", CASES)
    def test_polish_line_search_makes_one_evaluation(self, n, m, seed, general, monkeypatch):
        choi, cfg = self.problem(n, m, seed, general)
        events = []
        jacobian, project, eigh = scaling._burg_jacobian, scaling._project, np.linalg.eigh
        monkeypatch.setattr(
            scaling, "_project", lambda *a, **k: events.append("P") or project(*a, **k)
        )
        monkeypatch.setattr(
            scaling, "_burg_jacobian", lambda *a, **k: events.append("J") or jacobian(*a, **k)
        )
        monkeypatch.setattr(np.linalg, "eigh", lambda *a, **k: events.append("e") or eigh(*a, **k))
        trace = scaling.alternating_projections("burg", choi, cfg)
        assert trace.converged
        projections = "".join(events).split("P")[1:]
        assert len(projections) == 2 * trace.sweeps
        # every projection ends with its polishing Newton step: the
        # evaluations after its last Jacobian are that step's line search
        for events_of_one in projections:
            assert events_of_one[events_of_one.rindex("J") + 1:] == "e"

    @pytest.mark.parametrize("n, m, seed, general", CASES)
    def test_finals_match_searching_reference(self, n, m, seed, general):
        choi, cfg = self.problem(n, m, seed, general)
        trace = scaling.alternating_projections("burg", choi, cfg)
        p, q = cfg.targets(n, m)
        mat, sweeps = choi.matrix, 0
        residual = scaling.choi_residual(choi, p, q)
        while residual >= cfg.tol and sweeps < cfg.max_iters:
            mat, _ = oracles.burg_projection_per_basis(mat, n, m, "first", p)
            mat, _ = oracles.burg_projection_per_basis(mat, n, m, "second", q)
            sweeps += 1
            residual = scaling.choi_residual(ChoiMatrix(n=n, m=m, matrix=mat), p, q)
        assert trace.converged and trace.sweeps == sweeps > 0
        assert np.abs(trace.final.matrix - mat).max() <= 1e-12 * np.abs(mat).max()


class TestBurgRoundingFloor:
    """A Burg solve stops at max(``burg_residual_tol``, eps w_max / w_min^2),
    w the spectrum of the K in hand.  On this input (4x4, general targets
    with eigenvalues down to 5.4e-3) the first-marginal projection of sweep
    7 reaches a gradient norm of 2.7e-10 in 4 steps and stays there, above
    the tolerance and under its floor: held to the tolerance alone, it spent
    200 steps and raised ``ConvergenceError``.  The alternation creeps near
    the cone's boundary, so it ends at its budget, unconverged."""

    @staticmethod
    def problem(max_iters: int):
        rng = np.random.default_rng(5044)
        choi = channels.random_choi(4, 4, rng)
        p, q = channels.random_density(4, rng), channels.random_density(4, rng)
        return choi, scaling.ScalingConfig(max_iters=max_iters, target_p=p, target_q=q)

    @pytest.mark.parametrize("sweeps, bound", [(10, 5e-2), (200, 5e-3)])
    def test_alternation_ends_unconverged_at_its_budget(self, sweeps, bound, monkeypatch):
        choi, cfg = self.problem(sweeps)
        stops, newton = [], scaling._newton

        def recorded(method, evaluate, direction, current, **kwargs):
            x, point, steps = newton(method, evaluate, direction, current, **kwargs)
            stops.append((np.finfo(float).eps * point.w[-1] / point.w[0] ** 2, steps))
            return x, point, steps

        monkeypatch.setattr(scaling, "_newton", recorded)
        trace = scaling.alternating_projections("burg", choi, cfg)
        assert not trace.converged and trace.sweeps == sweeps and len(stops) == 2 * sweeps
        assert trace.residuals[-1] < bound
        ChoiMatrix(n=4, m=4, matrix=trace.final.matrix)  # the full public check
        # every projection stops well inside its budget, at a floor above
        # the tolerance
        tol, budget = policy.get_policy().burg_residual_tol, policy.get_policy().burg_max_iters
        assert all(floor > tol and steps < budget // 4 for floor, steps in stops)


class TestAlternatingProjections:
    @pytest.mark.parametrize("driver, general", [(d, False) for d in DRIVERS] + [(d, True) for d in scaling.METHODS])
    def test_feasible_start_is_immediate_fixed_point(self, driver, general):
        # a product matrix has row sums p and column sums q, so its diagonal
        # embedding is feasible for the targets diag(p), diag(q); the
        # uniform case embeds as I/4.  A feasible start takes no step, not
        # even the preprocessing one.
        p, q = ([0.7, 0.3], [0.6, 0.4]) if general else ([0.5, 0.5], [0.5, 0.5])
        cfg = scaling.ScalingConfig(target_p=np.diag(p), target_q=np.diag(q)) if general else scaling.ScalingConfig()
        trace = run_driver(driver, np.outer(p, q), cfg)
        assert trace.converged and trace.sweeps == 0
        assert len(trace.residuals) == 1 and trace.factors == [] and len(trace.iterates) == 1
        assert not trace.preprocessed

    @pytest.mark.parametrize("driver, general", [(d, False) for d in DRIVERS] + [(d, True) for d in scaling.METHODS])
    @pytest.mark.parametrize("max_iters", [0, 1, 3])
    def test_zero_tol_runs_the_whole_budget(self, driver, general, max_iters):
        rng = np.random.default_rng(944)
        a = random_positive_matrix(2, 3, 944)
        targets = {"target_p": channels.random_density(2, rng), "target_q": channels.random_density(3, rng)}
        cfg = scaling.ScalingConfig(max_iters=max_iters, tol=0.0, **(targets if general else {}))
        trace = run_driver(driver, a, cfg)
        assert trace.sweeps == max_iters and not trace.converged
        assert len(trace.residuals) == max_iters + 1
        # only sld preprocesses, and only for general targets
        assert trace.preprocessed == (general and driver == "sld")
        assert len(trace.factors) == 2 * max_iters + trace.preprocessed
        assert [side for side, _ in trace.factors[trace.preprocessed:]] == ["first", "second"] * max_iters
        assert len(trace.iterates) == len(trace.factors) + 1

    def test_unknown_method(self):
        choi = ChoiMatrix(n=2, m=2, matrix=np.eye(4) / 4)
        with pytest.raises(UnsupportedError):
            scaling.alternating_projections("euclidean", choi)

    def test_three_limits_distinct_on_reference_input(self):
        from opsinkhorn.reference import reference_rho0

        cfg = scaling.ScalingConfig(max_iters=200)
        finals = {
            method: scaling.alternating_projections(method, reference_rho0(), cfg).final.matrix
            for method in scaling.METHODS
        }
        for a in scaling.METHODS:
            for b in scaling.METHODS:
                if a < b:
                    assert np.abs(finals[a] - finals[b]).max() > 1e-2

    def test_diagonal_input_sld_equals_bkm_per_sweep(self):
        a = random_positive_matrix(2, 2, 21)
        cfg = scaling.ScalingConfig(max_iters=5, tol=0.0)
        sld = scaling.operator_sinkhorn(diagonal_choi(a), cfg)
        bkm = scaling.alternating_projections("bkm", diagonal_choi(a), cfg)
        cl = scaling.matrix_sinkhorn(a, cfg)
        for k in range(len(sld.iterates)):
            s = choi_diagonal_to_matrix(ChoiMatrix(n=2, m=2, matrix=sld.iterates[k]))
            b = choi_diagonal_to_matrix(ChoiMatrix(n=2, m=2, matrix=bkm.iterates[k]))
            np.testing.assert_allclose(s, cl.iterates[k], atol=1e-8)
            np.testing.assert_allclose(b, cl.iterates[k], atol=1e-8)

    def test_bkm_alternation_reaches_general_targets(self):
        rng = np.random.default_rng(31)
        choi = channels.random_choi(2, 2, rng)
        p = channels.random_density(2, rng)
        q = channels.random_density(2, rng)
        cfg = scaling.ScalingConfig(max_iters=300, tol=1e-10, target_p=p, target_q=q)
        trace = scaling.alternating_projections("bkm", choi, cfg)
        assert trace.converged
        assert np.linalg.norm(trace.final.trace_first() - p) <= 1e-4
        assert np.linalg.norm(trace.final.trace_second() - q) <= 1e-4

    def test_diagonal_input_burg_differs_but_stays_diagonal(self):
        # the Burg projection onto a row-sum set is a harmonic update, not a
        # row normalization, so its trajectory departs from the classical one
        a = random_positive_matrix(2, 2, 22)
        cfg = scaling.ScalingConfig(max_iters=200, tol=1e-16)
        burg = scaling.alternating_projections("burg", diagonal_choi(a), cfg)
        first_step = ChoiMatrix(n=2, m=2, matrix=burg.iterates[1])
        off_diag = first_step.matrix - np.diag(np.diag(first_step.matrix))
        assert np.abs(off_diag).max() <= 1e-10
        classical_step = a / (2 * a.sum(axis=1, keepdims=True))
        assert np.abs(choi_diagonal_to_matrix(first_step) - classical_step).max() > 1e-4
        final = burg.final
        assert np.linalg.norm(final.trace_first() - np.eye(2) / 2) <= 1e-6
        assert np.linalg.norm(final.trace_second() - np.eye(2) / 2) <= 1e-6


def joint_marginals(method: str, coord0: np.ndarray, a, b, n: int, m: int) -> dict[str, np.ndarray]:
    """Both marginals, by side, of the state the joint dual assigns to
    (a, b): (rho0^{-1} - I kron a - b kron I)^{-1} for Burg,
    exp(log rho0 + I kron a + b kron I) / Z for BKM, built from dense lifts."""
    if method == "burg":
        state = np.linalg.inv(coord0 - oracles.lift(a, n, m, "first") - oracles.lift(b, n, m, "second"))
    else:
        state = linalg.expm(coord0 + oracles.lift(a, n, m, "first") + oracles.lift(b, n, m, "second"))
        state /= np.trace(state).real
    return {side: linalg.partial_trace(state, n, m, side) for side in ("first", "second")}


def joint_case(n: int, m: int, general: bool, seed: int):
    rng = np.random.default_rng(seed)
    choi = channels.random_choi(n, m, rng)
    if not general:
        return choi, scaling.ScalingConfig()
    p, q = channels.random_density(m, rng), channels.random_density(n, rng)
    return choi, scaling.ScalingConfig(target_p=p, target_q=q)


class TestJointLimit:
    """One Newton solve for the limit of the BKM and Burg alternations."""

    @pytest.mark.parametrize("sides", SIDE_SETS)
    @pytest.mark.parametrize("n, m", JACOBIAN_CASES)
    @pytest.mark.parametrize("method", ["bkm", "burg"])
    def test_hessian_against_central_differences(self, method, n, m, sides):
        # the Hessian of the dual on a frame's sides in its real coordinates,
        # Re(U^dagger H U) with the frame's block-diagonal U, at a state
        # moved on both sides
        rng = np.random.default_rng(1300 + 10 * n + m + (method == "burg"))
        rho0 = channels.random_choi(n, m, rng).matrix
        frame = scaling._frame(n, m, sides)
        a, b = random_hermitian(m, rng), random_hermitian(n, rng)
        if method == "burg":
            coord0 = linalg.invm(rho0)
            # rho0^{-1} >= I, so lifts of norm at most 1/4 each keep it positive definite
            a *= 0.25 / np.abs(np.linalg.eigvalsh(a)).max()
            b *= 0.25 / np.abs(np.linalg.eigvalsh(b)).max()
            state = np.linalg.inv(coord0 - oracles.lift(a, n, m, "first") - oracles.lift(b, n, m, "second"))
            real = scaling._real_form(frame.adjoint, scaling._burg_jacobian(state, n, m, sides), frame.basis)
        else:
            coord0 = linalg.logm(rho0)
            marginals = joint_marginals(method, coord0, a, b, n, m)
            w, v = np.linalg.eigh(coord0 + oracles.lift(a, n, m, "first") + oracles.lift(b, n, m, "second"))
            hess = scaling._bkm_hessian(w - np.logaddexp.reduce(w), v, n, m, sides)
            # less the normalization term mu mu^T, mu the marginals' coordinates
            mu = scaling._coordinates(frame, [marginals[side] for side in sides])
            real = scaling._real_form(frame.adjoint, hess, frame.basis) - np.outer(mu, mu)
        dim = sum((m if side == "first" else n) ** 2 for side in sides)
        assert real.shape == (dim, dim) and real.dtype == np.float64

        def coordinates(moves, dx):
            # the marginals' coordinates at the duals moved by moves[side] along dx
            step = dict(zip(sides, scaling._duals(frame, dx)))
            moved = {side: moves.get(side, 0.0) * step[side] for side in sides}
            marginals = joint_marginals(
                method, coord0, a + moved.get("first", 0.0), b + moved.get("second", 0.0), n, m
            )
            return scaling._coordinates(frame, [marginals[side] for side in sides])

        for _ in range(3):
            dx = rng.standard_normal(dim)
            fd = oracles.matrix_central_difference(lambda t: coordinates(dict.fromkeys(sides, t), dx), 0.0, 1e-5)
            assert np.abs(real @ dx - fd).max() <= 1e-7 * np.abs(fd).max()
            if len(sides) == 2:
                # the cross blocks alone, against moving the other side only
                mm = m * m
                fd_cross = oracles.matrix_central_difference(lambda t: coordinates({"second": t}, dx), 0.0, 1e-5)
                assert np.abs(real[:mm, mm:] @ dx[mm:] - fd_cross[:mm]).max() <= 1e-7 * np.abs(fd_cross).max()
        # the gauge-fixed real Hessian is symmetric positive definite: the
        # BKM dual is flat along (I, 0) and (0, I) and the two-sided Burg
        # dual along (I, -I), and the rank-one terms on the identity's
        # coordinates there (the frame's gauge and null) lift exactly those
        # null directions; the one-sided Burg dual has none
        eye = identity_coordinates(n, m, sides)
        if method == "bkm":
            null = list(eye.values())
            gauge = sum(np.outer(e, e) / e.sum() for e in null)
        elif len(sides) == 2:
            null = [eye["first"] - eye["second"]]
            gauge = np.outer(null[0], null[0]) / (m + n)
        else:
            null, gauge = [], 0.0
        if method == "burg":
            # the Burg dual is curved along (I, I): rho^{-1} shifts by a multiple of I
            assert np.abs(real @ sum(eye.values())).max() > 1e-3 * np.abs(real).max()
        for vec in null:
            assert np.abs(real @ vec).max() <= 1e-12 * np.abs(real).max()
        assert np.abs(real - real.T).max() <= 1e-13 * np.abs(real).max()
        fixed = real + gauge
        assert np.linalg.eigvalsh((fixed + fixed.T) / 2)[0] > 1e-8 * np.abs(fixed).max()

    @pytest.mark.parametrize("general", [False, True])
    @pytest.mark.parametrize("n, m", JACOBIAN_CASES)
    def test_burg_limit_matches_long_alternation(self, n, m, general):
        choi, cfg = joint_case(n, m, general, 1400 + 10 * n + m + general)
        joint = scaling.joint_limit("burg", choi, cfg)
        assert joint.converged and joint.residuals[-1] < 1e-20
        long_cfg = scaling.ScalingConfig(
            max_iters=20_000, tol=1e-24, target_p=cfg.target_p, target_q=cfg.target_q
        )
        alternation = scaling.alternating_projections("burg", choi, long_cfg)
        gap = np.abs(joint.final.matrix - alternation.final.matrix).max()
        assert gap <= 1e-10 * np.abs(alternation.final.matrix).max()

    def test_burg_limit_on_two_by_two_inputs(self):
        # the 2 x 2 inputs the alternation leaves unconverged at its default budget
        for seed in range(20):
            choi = channels.random_choi(2, 2, np.random.default_rng(seed))
            trace = scaling.joint_limit("burg", choi)
            assert trace.converged and trace.residuals[-1] < 1e-20
            # the dual form: limit^{-1} = rho0^{-1} - I kron A - B kron I
            (_, a), (_, b) = trace.factors
            coord = linalg.invm(choi.matrix) - oracles.lift(a, 2, 2, "first") - oracles.lift(b, 2, 2, "second")
            assert np.abs(linalg.invm(trace.final.matrix) - coord).max() <= 1e-9 * np.abs(coord).max()

    @pytest.mark.parametrize("general", [False, True])
    @pytest.mark.parametrize("n, m", JACOBIAN_CASES)
    def test_bkm_limit(self, n, m, general):
        choi, cfg = joint_case(n, m, general, 1500 + 10 * n + m + general)
        p, q = cfg.targets(n, m)
        joint = scaling.joint_limit("bkm", choi, cfg)
        tol = policy.get_policy().bkm_gradient_tol
        assert joint.converged
        assert np.linalg.norm(joint.final.trace_first() - p) <= tol
        assert np.linalg.norm(joint.final.trace_second() - q) <= tol
        # exponential family: rho = exp(log rho0 + I kron A + B kron I) / Z
        (_, a), (_, b) = joint.factors
        family = linalg.expm(
            linalg.logm(choi.matrix) + oracles.lift(a, n, m, "first") + oracles.lift(b, n, m, "second")
        )
        assert np.abs(family / np.trace(family).real - joint.final.matrix).max() <= 1e-12
        if general:
            long_cfg = scaling.ScalingConfig(max_iters=5000, tol=0.0, target_p=p, target_q=q)
            alternation = scaling.alternating_projections("bkm", choi, long_cfg)
            assert np.abs(joint.final.matrix - alternation.final.matrix).max() <= 1e-9

    @pytest.mark.parametrize("n, m", JACOBIAN_CASES)
    def test_bkm_one_eigh_per_evaluation_and_one_state(self, n, m, monkeypatch):
        # both marginals come off each evaluation's spectrum; the state is
        # formed once, at the returned point
        choi, cfg = joint_case(n, m, True, 1510 + 10 * n + m)
        evaluations, newton = [], scaling._newton

        def counted(method, evaluate, direction, current, **kwargs):
            return newton(method, lambda x: evaluations.append(1) or evaluate(x), direction, current, **kwargs)

        monkeypatch.setattr(scaling, "_newton", counted)
        eigh = count_calls(monkeypatch, np.linalg, "eigh")
        states = count_calls(monkeypatch, scaling, "_gibbs_state")
        joint = scaling.joint_limit("bkm", choi, cfg)
        assert joint.converged and len(evaluations) >= joint.sweeps > 0
        # the start's one eigh of rho0, then one per evaluation
        assert eigh == [(n * m, n * m)] * (len(evaluations) + 1)
        assert states == [(n * m, n * m)]

    @pytest.mark.parametrize("n, m", JACOBIAN_CASES)
    def test_burg_one_eigh_per_evaluation(self, n, m, monkeypatch):
        # the start is rho0^{-1} off one eigh of rho0, with rho0 as its
        # state; then each evaluation is one eigh and, inside the cone, one
        # state
        choi, cfg = joint_case(n, m, True, 1520 + 10 * n + m)
        inside, newton = [], scaling._newton

        def counted(method, evaluate, direction, current, **kwargs):
            def recorded(x):
                out = evaluate(x)
                inside.append(out is not None)
                return out

            return newton(method, recorded, direction, current, **kwargs)

        monkeypatch.setattr(scaling, "_newton", counted)
        eigh = count_calls(monkeypatch, np.linalg, "eigh")
        states = count_calls(monkeypatch, scaling, "_burg_point")
        joint = scaling.joint_limit("burg", choi, cfg)
        assert joint.converged and len(inside) >= joint.sweeps > 0
        assert eigh == [(n * m, n * m)] * (len(inside) + 1)
        assert states == [(n * m, n * m)] * sum(inside)

    @pytest.mark.parametrize("method", ["bkm", "burg"])
    def test_trace_layout(self, method):
        choi = channels.random_choi(2, 3, np.random.default_rng(1600))
        trace = scaling.joint_limit(method, choi)
        assert trace.method == method and (trace.n, trace.m) == (2, 3)
        assert len(trace.iterates) == 2 and trace.iterates[0] is choi.matrix
        assert trace.final.matrix is trace.iterates[-1]
        assert [side for side, _ in trace.factors] == ["first", "second"]
        assert trace.factors[0][1].shape == (3, 3) and trace.factors[1][1].shape == (2, 2)
        assert len(trace.residuals) == 2 and trace.residuals[0] == scaling.choi_residual(
            choi, np.eye(3) / 3, np.eye(2) / 2
        )
        assert trace.converged and trace.residuals[-1] < 1e-16 and 0 < trace.sweeps <= 200

    @pytest.mark.parametrize("method", ["bkm", "burg"])
    def test_sweep_budget_does_not_bound_the_solve(self, method):
        choi = channels.random_choi(2, 2, np.random.default_rng(1601))
        free = scaling.joint_limit(method, choi)
        bounded = scaling.joint_limit(method, choi, scaling.ScalingConfig(max_iters=0))
        assert free.sweeps > 0 and bounded.sweeps == free.sweeps
        assert np.array_equal(bounded.final.matrix, free.final.matrix)
        # tol only decides the converged flag
        exact = scaling.joint_limit(method, choi, scaling.ScalingConfig(tol=0.0))
        assert not exact.converged and np.array_equal(exact.final.matrix, free.final.matrix)

    @pytest.mark.parametrize("solve", ["joint", "projection", "alternation"])
    @pytest.mark.parametrize("method, field", [("bkm", "bkm_max_iters"), ("burg", "burg_max_iters")])
    def test_policy_budget_bounds_the_solve(self, method, field, solve):
        # every Newton solve shares one loop, so one message format, which
        # names the solve: the joint solve, or a projection's side and, in
        # an alternation, its sweep
        choi = channels.random_choi(2, 2, np.random.default_rng(1602))
        project = {"bkm": scaling.bkm_e_projection, "burg": scaling.burg_e_projection}[method]
        what = {
            "joint": f"joint {method}",
            "projection": f"{method} projection onto the first marginal",
            "alternation": f"{method} projection onto the first marginal in sweep 1",
        }[solve]
        message = rf"^{what} Newton exhausted 1 iterations \(gradient norm \d\.\d{{3}}e[+-]\d+\)$"
        previous = policy.set_policy(policy.relaxed(**{field: 1}))
        try:
            with pytest.raises(ConvergenceError, match=message):
                if solve == "joint":
                    scaling.joint_limit(method, choi)
                elif solve == "projection":
                    project(choi, ConstraintSet("first", np.eye(2) / 2))
                else:
                    scaling.alternating_projections(method, choi)
        finally:
            policy.set_policy(previous)

    @pytest.mark.parametrize("method", ["bkm", "burg"])
    def test_every_projection_names_its_side_and_sweep(self, method, monkeypatch):
        # the name each Newton solve of an alternation would give an error
        labels, newton = [], scaling._newton

        def labelled(method, evaluate, direction, current, *, what):
            labels.append(what)
            return newton(method, evaluate, direction, current, what=what)

        monkeypatch.setattr(scaling, "_newton", labelled)
        choi = channels.random_choi(2, 3, np.random.default_rng(1604))
        scaling.alternating_projections(method, choi, scaling.ScalingConfig(max_iters=3, tol=0.0))
        assert labels == [
            f"{method} projection onto the {side} marginal in sweep {sweep}"
            for sweep in (1, 2, 3) for side in ("first", "second")
        ]

    @pytest.mark.parametrize("method", ["bkm", "burg"])
    def test_feasible_start_is_the_limit(self, method):
        choi = ChoiMatrix(n=2, m=2, matrix=np.eye(4) / 4)
        trace = scaling.joint_limit(method, choi)
        assert trace.converged and trace.sweeps == 0
        assert np.abs(trace.final.matrix - choi.matrix).max() <= 1e-15

    def test_sld_and_unknown_methods_unsupported(self):
        choi = ChoiMatrix(n=2, m=2, matrix=np.eye(4) / 4)
        with pytest.raises(UnsupportedError, match="not dually flat"):
            scaling.joint_limit("sld", choi)
        with pytest.raises(UnsupportedError):
            scaling.joint_limit("euclidean", choi)

    @pytest.mark.parametrize("method", ["bkm", "burg"])
    def test_rank_deficient_input_rejected(self, method):
        with pytest.raises(SingularityError):
            scaling.joint_limit(method, rank_two_choi())

    def test_unit_trace_shift(self):
        rng = np.random.default_rng(1603)
        for spread in (1.0, 1e3, 1e8):
            for size in (1, 4, 16):
                w = np.sort(rng.uniform(1e-3, 1.0, size) ** 3) * spread
                c = scaling._unit_trace_shift(w)
                assert c < w[0]
                # w - c loses the digits w[0] has above one
                assert abs(np.sum(1.0 / (w - c)) - 1.0) <= 1e-15 * size * max(1.0, w[0])


class TestCapacity:
    def test_fixed_point_has_unit_capacity(self):
        choi = ChoiMatrix(n=2, m=2, matrix=np.eye(4) / 4)
        trace = scaling.operator_sinkhorn(choi)
        assert scaling.capacity_from_trace(trace) == pytest.approx(1.0)

    def test_classical_capacity_equals_min_kl(self):
        for seed, dim in [(23, 2), (24, 3)]:
            a = random_positive_matrix(dim, dim, seed)
            cfg = scaling.ScalingConfig(max_iters=5000, tol=1e-22)
            op = scaling.operator_sinkhorn(diagonal_choi(a), cfg)
            neg_log_cap = -np.log(scaling.capacity_from_trace(op))
            min_kl, _ = oracles.min_kl_doubly_stochastic(a)
            assert abs(neg_log_cap - min_kl) <= 1e-6
            cl = scaling.matrix_sinkhorn(a, cfg)
            assert abs(-np.log(scaling.capacity_from_trace(cl)) - min_kl) <= 1e-6

    def test_matches_bruteforce_oracle(self):
        for seed in (25, 26):
            choi = channels.random_choi(2, 2, np.random.default_rng(seed))
            trace = scaling.operator_sinkhorn(choi, scaling.ScalingConfig(max_iters=1000))
            cap = scaling.capacity_from_trace(trace)
            oracle = oracles.capacity_bruteforce(choi, rng=seed, restarts=10)
            assert abs(cap - oracle) <= 1e-4

    def test_rectangular_unsupported(self):
        choi = channels.random_choi(2, 3, np.random.default_rng(27))
        trace = scaling.operator_sinkhorn(choi, scaling.ScalingConfig(max_iters=500))
        with pytest.raises(UnsupportedError):
            scaling.capacity_from_trace(trace)
        with pytest.raises(UnsupportedError):
            oracles.capacity_bruteforce(choi)
        classical = scaling.matrix_sinkhorn(random_positive_matrix(2, 3, 27))
        assert classical.converged
        with pytest.raises(UnsupportedError):
            scaling.capacity_from_trace(classical)

    def test_unconverged_trace_rejected(self):
        choi = channels.random_choi(2, 2, np.random.default_rng(28))
        trace = scaling.operator_sinkhorn(choi, scaling.ScalingConfig(max_iters=1, tol=1e-30))
        with pytest.raises(ConvergenceError):
            scaling.capacity_from_trace(trace)

    def test_non_sinkhorn_trace_rejected(self):
        choi = channels.random_choi(2, 2, np.random.default_rng(29))
        trace = scaling.alternating_projections("bkm", choi, scaling.ScalingConfig(max_iters=100))
        with pytest.raises(UnsupportedError):
            scaling.capacity_from_trace(trace)

    def test_general_marginal_trace_rejected(self):
        rng = np.random.default_rng(30)
        choi = channels.random_choi(2, 2, rng)
        p = channels.random_density(2, rng)
        trace = scaling.operator_sinkhorn(
            choi, scaling.ScalingConfig(max_iters=500, target_p=p)
        )
        with pytest.raises(UnsupportedError):
            scaling.capacity_from_trace(trace)
