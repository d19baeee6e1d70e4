import ast
import re
from pathlib import Path

import numpy as np
import pytest

from opsinkhorn import channels, linalg, policy, scaling
from opsinkhorn.errors import ConvergenceError, DomainError, InvalidInputError, SingularityError
from opsinkhorn.geometry import ConstraintSet

import oracles


def random_hermitian(d, rng, scale=1.0):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (g + g.conj().T) / 2 * scale


def random_pd(d, rng, shift=0.1):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return g @ g.conj().T / d + shift * np.eye(d)


class TestSpectrum:
    """The spectral decomposition every matrix function starts from:
    ``linalg._eigh`` of the argument ``as_hermitian`` validates, with the
    eigenvalues ascending."""

    def test_diagonal_matrix(self):
        w, v = linalg._eigh(linalg.as_hermitian(np.diag([1.0, 2.0])))
        np.testing.assert_allclose(w, [1.0, 2.0])
        np.testing.assert_allclose(np.abs(v), np.eye(2), atol=1e-14)
        np.testing.assert_allclose(linalg.expm(np.diag([1.0, 2.0])), np.diag(np.exp([1.0, 2.0])), atol=1e-12)

    def test_symmetric_two_by_two(self):
        a = np.array([[2.0, 1.0], [1.0, 2.0]])
        w, _ = linalg._eigh(linalg.as_hermitian(a))
        np.testing.assert_allclose(w, [1.0, 3.0], atol=1e-12)
        np.testing.assert_allclose(linalg.powm(a, 2), a @ a, atol=1e-12)

    def test_pauli_y(self):
        y = np.array([[0.0, 1j], [-1j, 0.0]])
        w, _ = linalg._eigh(linalg.as_hermitian(y))
        np.testing.assert_allclose(w, [-1.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(linalg.expm(y), np.cosh(1.0) * np.eye(2) + np.sinh(1.0) * y, atol=1e-12)

    def test_reconstruction_and_unitarity(self):
        rng = np.random.default_rng(0)
        a = random_hermitian(5, rng)
        # the power 1 is the identity function: P Lambda P^dagger rebuilt
        res = np.linalg.norm(linalg.matrix_function(a, "power", 1.0) - a)
        assert res <= 1e-10 * (1.0 + np.linalg.norm(a))
        w, p = linalg._eigh(linalg.as_hermitian(a))
        assert np.linalg.norm(p.conj().T @ p - np.eye(5)) <= 1e-10
        assert np.all(np.diff(w) >= 0)

    @pytest.mark.parametrize("name", ["exp", "sqrt", "log"])
    def test_rejects_non_finite(self, name):
        with pytest.raises(InvalidInputError, match="non-finite"):
            linalg.matrix_function(np.array([[np.nan, 0.0], [0.0, 1.0]]), name)

    @pytest.mark.parametrize("name", ["exp", "sqrt", "log"])
    def test_rejects_non_hermitian(self, name):
        with pytest.raises(InvalidInputError, match="not Hermitian"):
            linalg.matrix_function(np.array([[0.0, 1.0], [0.0, 0.0]]), name)


class TestStacks:
    """A (B, d, d) stack gives each matrix's 2-D result, bit for bit."""

    @pytest.mark.parametrize("d", [2, 3, 4, 9, 16])
    def test_matrix_functions(self, d):
        rng = np.random.default_rng(600 + d)
        stack = np.stack([random_pd(d, rng) for _ in range(6)])
        for name, t in (("sqrt", None), ("log", None), ("exp", None), ("inverse", None), ("power", -0.5)):
            got = linalg.matrix_function(stack, name, t)
            for mat, one in zip(stack, got):
                assert np.array_equal(one, linalg.matrix_function(mat, name, t))

    @pytest.mark.parametrize("d", [2, 4, 16])
    def test_inverse_mean_and_frobenius(self, d):
        rng = np.random.default_rng(610 + d)
        stack = np.stack([linalg.hermitian_part(random_pd(d, rng)) for _ in range(5)])
        target = linalg.hermitian_part(random_pd(d, rng))
        for b in (1.0 / d, target, stack[::-1]):
            factors = linalg.inverse_mean(stack, b)
            for k in range(5):
                one = linalg.inverse_mean(stack[k], b if np.ndim(b) < 3 else b[k])
                assert np.array_equal(factors[k], one)
        # a 2-D A against a stack of B, as the Nagaoka divergence uses it
        means = linalg.inverse_mean(target, stack)
        for k in range(5):
            assert np.array_equal(means[k], linalg.inverse_mean(target, stack[k]))
        norms = linalg.frobenius(stack - target)
        assert [float(x) for x in norms] == [linalg.frobenius(mat - target) for mat in stack]

    def test_hermitian_part_transposes_each_matrix(self):
        rng = np.random.default_rng(620)
        stack = rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4))
        got = linalg.hermitian_part(stack)
        for mat, one in zip(stack, got):
            assert np.array_equal(one, linalg.hermitian_part(mat))
            assert np.array_equal(one, one.conj().T)

    def test_checks_name_the_first_failing_matrix(self):
        good, bad = np.diag([1.0, 2.0]), np.diag([-3.0, 1.0])
        with pytest.raises(SingularityError, match="min eigenvalue -3.000e"):
            linalg.assert_positive_definite(np.stack([good, bad, np.diag([-5.0, 1.0])]))
        assert np.array_equal(linalg.assert_positive_definite(np.stack([good, good])), np.stack([good, good]))
        with pytest.raises(DomainError, match="-3.000000e"):
            linalg.logm(np.stack([good, bad]))
        with pytest.raises(InvalidInputError, match="not Hermitian"):
            linalg.as_hermitian(np.stack([good, np.array([[0.0, 1.0], [0.0, 0.0]])]))

    def test_is_positive_definite_per_matrix(self):
        # the floor is relative: 2e-14 is below pd_rel_floor (1e-13) times 2
        mats = [np.diag([1.0, 2.0]), np.diag([-3.0, 1.0]), np.diag([0.0, 1.0]), np.diag([2e-14, 2.0])]
        got = linalg.is_positive_definite(np.stack(mats).reshape(2, 2, 2, 2))
        assert got.shape == (2, 2) and got.dtype == bool
        assert got.ravel().tolist() == [linalg.is_positive_definite(m) for m in mats] == [True, False, False, False]
        assert linalg.is_positive_definite(mats[0]) is True


class TestAsHermitian:
    """An exactly Hermitian input is validated without a copy; one that is
    Hermitian only within atol is symmetrized into a new array."""

    @pytest.mark.parametrize("count", [None, 3])
    def test_returns_an_exactly_hermitian_input_itself(self, count):
        rng = np.random.default_rng(640)
        a = random_hermitian(5, rng) if count is None else np.stack([random_hermitian(5, rng) for _ in range(count)])
        assert np.array_equal(a, linalg.hermitian_part(a))
        got = linalg.as_hermitian(a)
        assert got is a
        assert a.flags.writeable

    def test_symmetrizes_an_input_hermitian_within_atol(self):
        rng = np.random.default_rng(641)
        a = random_hermitian(4, rng)
        a[0, 1] += 1e-14
        before = a.copy()
        got = linalg.as_hermitian(a)
        assert not np.shares_memory(got, a)
        assert np.array_equal(got, linalg.hermitian_part(before))
        assert np.array_equal(got, got.conj().T)
        assert np.array_equal(a, before)

    def test_tolerance_is_the_policy_alone(self):
        a = np.diag([1.0, 2.0]).astype(complex)
        a[0, 1] = 1e-6
        with pytest.raises(TypeError):
            linalg.as_hermitian(a, atol=1e-3)
        with pytest.raises(InvalidInputError, match="not Hermitian"):
            linalg.as_hermitian(a)
        previous = policy.set_policy(policy.relaxed(hermitian_atol=1e-3))
        try:
            assert np.array_equal(linalg.as_hermitian(a), linalg.hermitian_part(a))
        finally:
            policy.set_policy(previous)

    def test_real_input_converts_to_a_new_complex_array(self):
        a = np.diag([1.0, 2.0])
        got = linalg.as_hermitian(a)
        assert got.dtype == complex and not np.shares_memory(got, a)
        assert np.array_equal(got, a)

    def test_accepts_a_strided_last_axis(self):
        # the conjugate transpose of a C-ordered array strides its last
        # axis; validating it must not need a contiguous float view
        x = channels.random_choi(2, 2, np.random.default_rng(642)).matrix.copy()
        adjoint = x.T.conj()
        assert not adjoint.flags.c_contiguous
        got = linalg.as_hermitian(adjoint)
        assert np.array_equal(got, x)
        choi = channels.ChoiMatrix(n=2, m=2, matrix=adjoint)
        assert np.array_equal(choi.matrix, x)

    def test_rejects_non_finite_strided_input(self):
        a = np.eye(3, dtype=complex)
        a[1, 2] = a[2, 1] = complex(np.nan, 0.0)
        with pytest.raises(InvalidInputError, match="non-finite"):
            linalg.as_hermitian(a.T)

    def test_read_only_view_leaves_the_source_writeable(self):
        a = np.eye(3, dtype=complex)
        view = linalg._read_only(a)
        assert np.shares_memory(view, a) and not view.flags.writeable and a.flags.writeable
        with pytest.raises(ValueError):
            view[0, 0] = 2.0


class TestMatrixFunction:
    def test_sqrt_diagonal(self):
        np.testing.assert_allclose(linalg.sqrtm(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=1e-12)

    def test_log_inverts_exp(self):
        a = np.diag([1.0, 2.0])
        np.testing.assert_allclose(linalg.logm(linalg.expm(a)), a, atol=1e-12)

    def test_half_power_squares_back(self):
        a = np.array([[2.0, 1.0], [1.0, 2.0]])
        s = linalg.powm(a, 0.5)
        assert np.linalg.norm(s @ s - a) <= 1e-10

    @pytest.mark.parametrize("name,f", [("sqrt", np.sqrt), ("exp", np.exp), ("log", np.log)])
    def test_spectral_mapping(self, name, f):
        rng = np.random.default_rng(1)
        a = random_pd(4, rng)
        out = linalg.matrix_function(a, name)
        expected = np.sort(f(np.linalg.eigvalsh(a)))
        np.testing.assert_allclose(np.linalg.eigvalsh(out), expected, atol=1e-10)

    def test_sqrt_domain_error_names_eigenvalue(self):
        with pytest.raises(DomainError, match="-1"):
            linalg.sqrtm(np.diag([1.0, -1.0]))

    def test_log_rejects_singular(self):
        with pytest.raises(DomainError):
            linalg.logm(np.diag([1.0, 0.0]))

    def test_negative_power_rejects_singular(self):
        with pytest.raises(DomainError):
            linalg.powm(np.diag([1.0, 0.0]), -0.5)

    @pytest.mark.parametrize("name, t", [("log", None), ("inverse", None), ("power", -0.5), ("power", -2)])
    def test_positive_domains_are_the_cone_test(self, name, t):
        # at the relative floor (1e-13 times the largest eigenvalue) and on
        # either side of it, as a stack and one matrix at a time
        spectra = [[3e-13, 2.0], [2e-13, 2.0], [1e-13, 2.0], [-5.0, -1.0], [0.0, 0.0], [1.0, 1.0]]
        mats = np.stack([np.diag(w) for w in spectra])
        for mat in mats:
            if linalg.is_positive_definite(mat):
                linalg.matrix_function(mat, name, t)
            else:
                with pytest.raises(DomainError, match=re.escape(f"eigenvalue {mat[0, 0]:.6e} outside")):
                    linalg.matrix_function(mat, name, t)
        assert linalg.is_positive_definite(mats).tolist() == [True, False, False, False, False, True]
        with pytest.raises(DomainError, match=re.escape(f"eigenvalue {2e-13:.6e} outside")):
            linalg.matrix_function(mats, name, t)

    def test_unknown_tag(self):
        with pytest.raises(InvalidInputError):
            linalg.matrix_function(np.eye(2), "sinh")


class TestSolveLyapunov:
    def test_identity_coefficient(self):
        rng = np.random.default_rng(2)
        q = random_hermitian(3, rng)
        np.testing.assert_allclose(linalg.solve_lyapunov(np.eye(3), q), q / 2, atol=1e-12)

    def test_diagonal_known_solution(self):
        x = linalg.solve_lyapunov(np.diag([1.0, 2.0]), np.ones((2, 2)))
        np.testing.assert_allclose(x, [[0.5, 1.0 / 3.0], [1.0 / 3.0, 0.25]], atol=1e-12)

    def test_residual_bound(self):
        rng = np.random.default_rng(3)
        a = random_pd(4, rng)
        q = random_hermitian(4, rng)
        x = linalg.solve_lyapunov(a, q)
        assert np.linalg.norm(a @ x + x @ a - q) <= 1e-10 * (1.0 + np.linalg.norm(q))

    def test_matches_quadrature(self):
        rng = np.random.default_rng(4)
        a = random_pd(3, rng)
        q = random_hermitian(3, rng)
        x = linalg.solve_lyapunov(a, q)
        np.testing.assert_allclose(x, oracles.lyapunov_quadrature(a, q), atol=1e-6)

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_matches_vectorized_solve(self, dim):
        rng = np.random.default_rng(dim)
        a = random_pd(dim, rng)
        q = random_hermitian(dim, rng)
        x = linalg.solve_lyapunov(a, q)
        np.testing.assert_allclose(x, oracles.lyapunov_vectorized(a, q), atol=1e-9)

    def test_rejects_indefinite_coefficient(self):
        with pytest.raises(SingularityError):
            linalg.solve_lyapunov(np.diag([1.0, -1.0]), np.eye(2))

    def test_one_eigh_is_the_cone_test_and_the_solve(self, eig_calls):
        rng = np.random.default_rng(7)
        a, q = random_pd(3, rng), random_hermitian(3, rng)
        eig_calls.clear()
        x = linalg.solve_lyapunov(a, q)
        assert eig_calls == [("eigh", (3, 3))]
        # the solve in the eigenbasis of that eigh, bit for bit
        w, v = np.linalg.eigh(linalg.as_hermitian(a))
        want = linalg.hermitian_part(v @ ((v.conj().T @ q @ v) / (w[:, None] + w[None, :])) @ v.conj().T)
        np.testing.assert_array_equal(x, want)
        eig_calls.clear()
        with pytest.raises(SingularityError, match=r"Lyapunov coefficient is not positive definite \(min eigenvalue -1"):
            linalg.solve_lyapunov(np.diag([1.0, -1.0]), np.eye(2))
        assert eig_calls == [("eigh", (2, 2))]


class TestGeometricMean:
    def test_idempotent(self):
        rng = np.random.default_rng(5)
        a = random_pd(3, rng)
        np.testing.assert_allclose(linalg.geometric_mean(a, a), a, atol=1e-11)

    def test_identity_left(self):
        rng = np.random.default_rng(6)
        b = random_pd(3, rng)
        np.testing.assert_allclose(linalg.geometric_mean(np.eye(3), b), linalg.sqrtm(b), atol=1e-11)

    def test_commuting_diagonal(self):
        out = linalg.geometric_mean(np.diag([1.0, 4.0]), np.diag([4.0, 1.0]))
        np.testing.assert_allclose(out, np.diag([2.0, 2.0]), atol=1e-12)

    def test_riccati_residual(self):
        rng = np.random.default_rng(7)
        a, b = random_pd(4, rng), random_pd(4, rng)
        x = linalg.geometric_mean(a, b)
        res = np.linalg.norm(x @ linalg.invm(a) @ x - b)
        assert res <= 1e-9 * (1.0 + np.linalg.norm(b))

    @pytest.mark.parametrize("seed", range(5))
    def test_symmetric_in_arguments(self, seed):
        rng = np.random.default_rng(seed)
        a, b = random_pd(3, rng), random_pd(3, rng)
        ab = linalg.geometric_mean(a, b)
        ba = linalg.geometric_mean(b, a)
        assert np.linalg.norm(ab - ba) <= 1e-9 * (1.0 + np.linalg.norm(ab))

    def test_rejects_indefinite(self):
        with pytest.raises(SingularityError):
            linalg.geometric_mean(np.diag([1.0, -1.0]), np.eye(2))


def conditioned_marginal(d, cond, rng):
    """Trace-one positive definite d x d matrix with condition number
    ``cond``: a geometric spectrum in a random unitary basis."""
    q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    w = np.geomspace(1.0, 1.0 / cond, d)
    return linalg.hermitian_part((q * (w / w.sum())) @ q.conj().T)


def mean_rtol(cond):
    """Agreement bound for means of a condition-``cond`` marginal.  The
    marginal determines its smallest eigenvalue only to eps * ||M||, so any
    two stable computations of M^{-1} # T (this one, the reference, or a
    40-digit evaluation) differ by up to a few eps * cond relative; 1e-12
    holds to condition 100."""
    return 1e-12 * max(1.0, cond / 100.0)


class TestInverseMean:
    """The SLD factor M^{-1} # T from eigh(M) and eigh of the middle factor
    (from eigh(M) alone for a scalar target), against the three-power
    reference formula applied to invm(M)."""

    CONDS = [1.0, 1e2, 1e4, 1e6, 1e8]

    @staticmethod
    def target(d, kind, rng):
        return np.eye(d) / d if kind == "uniform" else channels.random_density(d, rng)

    @pytest.mark.parametrize("d", [2, 3, 5, 8, 16])
    @pytest.mark.parametrize("cond", CONDS)
    @pytest.mark.parametrize("kind", ["uniform", "density"])
    def test_matches_reference_formula(self, d, cond, kind):
        rng = np.random.default_rng(int(100 * d + np.log10(cond) + 10 * (kind == "density")))
        for _ in range(3):
            m = conditioned_marginal(d, cond, rng)
            t = self.target(d, kind, rng)
            got = linalg.inverse_mean(m, t)
            want = oracles.geometric_mean_ref(linalg.invm(m), t)
            assert np.abs(got - want).max() <= mean_rtol(cond) * np.abs(want).max()

    @pytest.mark.parametrize("d", [2, 4, 16])
    @pytest.mark.parametrize("cond", CONDS)
    def test_riccati_identity(self, d, cond):
        rng = np.random.default_rng(int(200 * d + np.log10(cond)))
        m = conditioned_marginal(d, cond, rng)
        t = channels.random_density(d, rng)
        f = linalg.inverse_mean(m, t)
        assert np.abs(f - f.conj().T).max() == 0.0
        assert np.linalg.eigvalsh(f)[0] > 0.0
        assert np.abs(f @ m @ f - t).max() <= mean_rtol(cond) * np.abs(t).max()

    def test_geometric_mean_uses_same_core(self):
        rng = np.random.default_rng(8)
        for d in (2, 5, 9):
            a, b = random_pd(d, rng), random_pd(d, rng)
            want = oracles.geometric_mean_ref(a, b)
            got = linalg.geometric_mean(a, b)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
            inv = linalg.inverse_mean(linalg.invm(a), b)
            assert np.abs(inv - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("w", [[1.0, -1.0], [1.0, 0.0], [1.0, 1e-14]])
    def test_rejects_indefinite_with_assert_message(self, w):
        m = np.diag(w).astype(complex)
        with pytest.raises(SingularityError) as want:
            linalg.assert_positive_definite(m, "first marginal")
        with pytest.raises(SingularityError) as got:
            linalg.inverse_mean(m, np.eye(2) / 2, "first marginal")
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("d", [2, 3, 5, 8, 16])
    @pytest.mark.parametrize("cond", CONDS)
    def test_scalar_target_matches_matrix_target(self, d, cond):
        # a scalar c stands for c I: the factor (M / c)^{-1/2} from eigh(M)
        # alone against the reference formula and the two-eigh path
        rng = np.random.default_rng(int(300 * d + np.log10(cond)))
        for c in (1.0 / d, 2.5):
            m = conditioned_marginal(d, cond, rng)
            got = linalg.inverse_mean(m, c)
            want = oracles.geometric_mean_ref(linalg.invm(m), c * np.eye(d))
            two_eigh = linalg.inverse_mean(m, c * np.eye(d))
            bound = mean_rtol(cond) * np.abs(want).max()
            assert np.abs(got - want).max() <= bound
            assert np.abs(got - two_eigh).max() <= bound
            assert np.abs(got - got.conj().T).max() == 0.0
            assert np.linalg.eigvalsh(got)[0] > 0.0
            assert np.abs(got @ m @ got - c * np.eye(d)).max() <= mean_rtol(cond) * c

    @pytest.mark.parametrize("w", [[1.0, -1.0], [1.0, 0.0], [1.0, 1e-14]])
    def test_scalar_target_rejects_indefinite_with_assert_message(self, w):
        m = np.diag(w).astype(complex)
        with pytest.raises(SingularityError) as want:
            linalg.assert_positive_definite(m, "second marginal")
        with pytest.raises(SingularityError) as got:
            linalg.inverse_mean(m, 0.5, "second marginal")
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("d", [2, 7])
    def test_scalar_target_makes_one_eigh(self, d, eig_calls):
        m = conditioned_marginal(d, 10.0, np.random.default_rng(10 + d))
        eig_calls.clear()
        linalg.inverse_mean(m, 1.0 / d)
        assert eig_calls == [("eigh", (d, d))]

    def test_geometric_mean_calls(self, eig_calls):
        rng = np.random.default_rng(9)
        a, b = random_pd(3, rng), random_pd(3, rng)
        eig_calls.clear()
        linalg.geometric_mean(a, b)
        assert sorted(name for name, _ in eig_calls) == ["eigh", "eigh", "eigvalsh"]


class TestKronAndPartialTrace:
    def test_partial_traces_of_product(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        prod = np.kron(a, b)
        np.testing.assert_allclose(linalg.partial_trace(prod, 3, 2, "first"), np.trace(a) * b, atol=1e-12)
        np.testing.assert_allclose(linalg.partial_trace(prod, 3, 2, "second"), np.trace(b) * a, atol=1e-12)

    def test_partial_traces_preserve_total_trace(self):
        rng = np.random.default_rng(9)
        mat = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        t = np.trace(mat)
        for which, n, m in [("first", 3, 2), ("second", 3, 2)]:
            np.testing.assert_allclose(np.trace(linalg.partial_trace(mat, n, m, which)), t, atol=1e-12)

    def test_partial_trace_linear(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((4, 4))
        y = rng.standard_normal((4, 4))
        lhs = linalg.partial_trace(2.0 * x + 3.0 * y, 2, 2, "first")
        rhs = 2.0 * linalg.partial_trace(x, 2, 2, "first") + 3.0 * linalg.partial_trace(y, 2, 2, "first")
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_partial_trace_dimension_check(self):
        with pytest.raises(InvalidInputError):
            linalg.partial_trace(np.eye(5), 2, 2, "first")
        with pytest.raises(InvalidInputError):
            linalg.partial_trace(np.eye(4), 2, 2, "third")


def kernel_input(d, real, layout, rng):
    """A Hermitian d x d matrix, float64 or complex128, for the kernel
    contract: as it is, as a stack of three, or as a strided view."""
    def one():
        g = rng.standard_normal((d, d)) + (0.0 if real else 1j * rng.standard_normal((d, d)))
        return (g + g.conj().T) / 2
    if layout == "stacked":
        return np.stack([one() for _ in range(3)])
    if layout == "strided":
        big = np.zeros((2 * d, 2 * d), dtype=float if real else complex)
        big[::2, ::2] = one()
        return big[::2, ::2]
    return one()


class TestKernels:
    """``linalg._eigh``, ``_eigvalsh`` and ``_solve`` call numpy's LAPACK
    gufuncs without ``numpy.linalg``'s per-call checks.  They must give that
    wrapper's bits on every input the package hands them, so a numpy release
    that changes its private gufuncs fails here, and fail with a package
    error where the gufunc answers with NaN."""

    @pytest.mark.parametrize("layout", ["2-D", "stacked", "strided"])
    @pytest.mark.parametrize("real", [True, False])
    @pytest.mark.parametrize("d", range(1, 17))
    def test_equal_numpy_linalg_bit_for_bit(self, d, real, layout):
        rng = np.random.default_rng(2900 + 10 * d + real)
        a = kernel_input(d, real, layout, rng)
        b = rng.standard_normal(d) + (0.0 if real else 1j * rng.standard_normal(d))
        pairs = [
            (linalg._eigh(a), np.linalg.eigh(a)),
            (linalg._eigvalsh(a), np.linalg.eigvalsh(a)),
            # a Hermitian a is nonsingular with probability one
            (linalg._solve(a, b), np.linalg.solve(a, b)),
        ]
        for got, want in pairs:
            got, want = (o if isinstance(o, tuple) else (o,) for o in (got, want))
            assert len(got) == len(want)
            for x, y in zip(got, want):
                assert type(x) is np.ndarray and x.dtype == y.dtype and x.shape == y.shape
                assert x.tobytes() == y.tobytes()

    @pytest.mark.parametrize("stacked", [False, True])
    @pytest.mark.parametrize("real", [True, False])
    @pytest.mark.parametrize("d", [1, 2, 3, 6, 16])
    def test_nan_input_is_a_typed_error(self, d, real, stacked):
        a = np.full((d, d), np.nan, dtype=float if real else complex)
        if stacked:
            a = np.stack([np.eye(d, dtype=a.dtype), a])
        calls = [
            (lambda: linalg._eigh(a, "the probe"), "eigendecomposition of the probe failed"),
            (lambda: linalg._eigvalsh(a, "the probe"), "eigenvalues of the probe failed"),
            (lambda: linalg._solve(a, np.ones(d), "the probe"), "the probe is singular"),
        ]
        for call, message in calls:
            # numpy warns of the invalid value as well; the error is the point
            with np.errstate(invalid="ignore"), pytest.raises(ConvergenceError, match=message):
                call()

    def test_singular_system_is_a_typed_error(self):
        with np.errstate(invalid="ignore"), pytest.raises(ConvergenceError, match="the probe is singular"):
            linalg._solve(np.zeros((3, 3)), np.ones(3), "the probe")

    @pytest.mark.parametrize("solve", ["projection", "joint"])
    @pytest.mark.parametrize("method", ["bkm", "burg"])
    def test_singular_newton_system_names_its_solve(self, method, solve, monkeypatch):
        # a dual whose Newton system is all zeros: numpy.linalg.solve raised
        # its untyped LinAlgError here
        dual = getattr(scaling, f"_{method}_dual")

        def zero_system(*args):
            evaluate, system = dual(*args)
            return evaluate, lambda point: (np.zeros_like(system(point)[0]), -point.gradient)

        monkeypatch.setattr(scaling, f"_{method}_dual", zero_system)
        rng = np.random.default_rng(2950)
        choi, p = channels.random_choi(2, 3, rng), channels.random_density(3, rng)
        if solve == "projection":
            project = scaling.bkm_e_projection if method == "bkm" else scaling.burg_e_projection
            call, name = (
                lambda: project(choi, ConstraintSet("first", p)),
                f"{method} projection onto the first marginal",
            )
        else:
            call, name = lambda: scaling.joint_limit(method, choi), f"joint {method}"
        with np.errstate(invalid="ignore"), pytest.raises(ConvergenceError) as err:
            call()
        assert str(err.value) == f"{name} Newton system is singular: its solution is not finite"


class TestKernelsAreTheOnlyRoute:
    """No ``eigh``, ``eigvalsh`` or ``solve`` in ``src/`` escapes the
    kernels, so the counters that patch them (``eig_calls`` in
    ``conftest.py``, ``count_calls`` in ``test_scaling.py``) see every one."""

    KERNELS = {"_eigh", "_eigvalsh", "_solve"}

    def test_src_calls_no_numpy_linalg_eigensolver_or_solve(self):
        src = Path(__file__).resolve().parent.parent / "src" / "opsinkhorn"
        found = []
        for path in sorted(src.glob("*.py")):
            tree = ast.parse(path.read_text())
            kernels = {
                node for node in ast.walk(tree)
                if path.name == "linalg.py" and isinstance(node, ast.FunctionDef) and node.name in self.KERNELS
            }
            inside = {id(n) for kernel in kernels for n in ast.walk(kernel)}
            for node in ast.walk(tree):
                if isinstance(node, ast.Attribute) and node.attr in ("eigh", "eigvalsh", "solve", "_umath_linalg"):
                    if isinstance(node.value, ast.Attribute) and node.value.attr == "linalg":
                        found.append(f"{path.name}:{node.lineno} {ast.unparse(node)}")
                if isinstance(node, ast.Name) and node.id == "_umath_linalg" and id(node) not in inside:
                    found.append(f"{path.name}:{node.lineno} _umath_linalg outside the kernels")
                if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy.linalg"):
                    names = {alias.name for alias in node.names}
                    if node.module != "numpy.linalg" or names != {"_umath_linalg"} or path.name != "linalg.py":
                        found.append(f"{path.name}:{node.lineno} from {node.module} import {sorted(names)}")
        assert found == []
