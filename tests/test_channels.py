import tracemalloc

import numpy as np
import pytest

from opsinkhorn import channels, linalg
from opsinkhorn.channels import ChoiMatrix, KrausMap
from opsinkhorn.errors import InvalidInputError
from opsinkhorn.policy import get_policy


def random_kraus(n, m, k, rng):
    ops = [rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n)) for _ in range(k)]
    return KrausMap(ops=tuple(ops))


class TestKrausMap:
    def test_requires_operators(self):
        with pytest.raises(InvalidInputError):
            KrausMap(ops=())

    def test_requires_consistent_shapes(self):
        with pytest.raises(InvalidInputError):
            KrausMap(ops=(np.eye(2), np.ones((3, 2))))

    def test_list_operators_are_converted(self):
        kraus = KrausMap(ops=([[1, 0], [0, 1]], [[0, 1], [0, 0]]))
        assert all(isinstance(op, np.ndarray) and op.dtype == complex for op in kraus.ops)
        assert (kraus.out_dim, kraus.in_dim) == (2, 2)
        np.testing.assert_array_equal(kraus.apply(np.eye(2)), np.diag([2.0, 1.0]))
        assert np.array_equal(
            channels.choi_from_kraus(kraus).matrix,
            channels.choi_from_kraus(KrausMap(ops=(np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]])))).matrix,
        )

    @pytest.mark.parametrize("ops", [
        ([[1, 0], [0]],),                # ragged
        ([1, 0],),                       # 1-D
        (np.eye(2), [1, 0]),             # 1-D after a matrix
        (np.eye(2), [[1, 0], [0]]),      # ragged after a matrix
        ([[1, 0], [0, 1]], np.ones(2)),  # 1-D array after a list
    ])
    def test_ragged_or_one_dimensional_operator_is_invalid(self, ops):
        with pytest.raises(InvalidInputError):
            KrausMap(ops=ops)


class TestChoiFromKraus:
    def test_identity_map(self):
        choi = channels.choi_from_kraus(KrausMap(ops=(np.eye(2),)))
        expected = sum(
            np.kron(eij, eij)
            for eij in (np.eye(2)[:, [i]] @ np.eye(2)[[j], :] for i in range(2) for j in range(2))
        )
        np.testing.assert_allclose(choi.matrix, expected, atol=1e-14)
        w = np.linalg.eigvalsh(choi.matrix)
        assert np.sum(w > 1e-10) == 1  # rank one
        np.testing.assert_allclose(np.trace(choi.matrix), 2.0)

    def test_single_unit_kraus(self):
        e11 = np.zeros((2, 2), dtype=complex)
        e11[0, 0] = 1.0
        choi = channels.choi_from_kraus(KrausMap(ops=(e11,)))
        np.testing.assert_allclose(choi.matrix, np.kron(e11, e11), atol=1e-14)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_kraus_gives_psd_choi(self, seed):
        rng = np.random.default_rng(seed)
        choi = channels.choi_from_kraus(random_kraus(3, 2, 3, rng))
        w = np.linalg.eigvalsh(choi.matrix)
        assert w[0] >= -1e-10 * max(w[-1], 1.0)

    def test_invariant_under_kraus_splitting(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        whole = channels.choi_from_kraus(KrausMap(ops=(a,)))
        split = channels.choi_from_kraus(KrausMap(ops=(a / np.sqrt(2), a / np.sqrt(2))))
        assert np.abs(whole.matrix - split.matrix).max() <= 1e-12


class TestApplyMap:
    def test_identity_choi_acts_as_identity(self):
        choi = channels.choi_from_kraus(KrausMap(ops=(np.eye(2),)))
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        np.testing.assert_allclose(channels.apply_map(choi, x), x, atol=1e-13)

    @pytest.mark.parametrize("seed", range(3))
    def test_agrees_with_kraus_evaluation(self, seed):
        rng = np.random.default_rng(seed)
        kraus = random_kraus(3, 2, 2, rng)
        choi = channels.choi_from_kraus(kraus)
        x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        np.testing.assert_allclose(channels.apply_map(choi, x), kraus.apply(x), atol=1e-12)

    def test_matches_partial_trace_formula(self):
        rng = np.random.default_rng(21)
        kraus = random_kraus(2, 3, 2, rng)
        choi = channels.choi_from_kraus(kraus)
        x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        lifted = np.kron(x.T, np.eye(3)) @ choi.matrix
        expected = linalg.partial_trace(lifted, 2, 3, "first")
        np.testing.assert_allclose(channels.apply_map(choi, x), expected, atol=1e-12)

    def test_linearity(self):
        rng = np.random.default_rng(1)
        choi = channels.choi_from_kraus(random_kraus(2, 2, 2, rng))
        x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        y = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        lhs = channels.apply_map(choi, 2.0 * x + 0.5j * y)
        rhs = 2.0 * channels.apply_map(choi, x) + 0.5j * channels.apply_map(choi, y)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_dimension_mismatch(self):
        choi = channels.choi_from_kraus(KrausMap(ops=(np.eye(2),)))
        with pytest.raises(InvalidInputError):
            channels.apply_map(choi, np.eye(3))


class TestApplyDual:
    def test_identity_choi(self):
        choi = channels.choi_from_kraus(KrausMap(ops=(np.eye(2),)))
        rng = np.random.default_rng(2)
        y = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        np.testing.assert_allclose(channels.apply_dual(choi, y), y, atol=1e-13)

    def test_dual_of_identity_vs_second_partial_trace(self):
        rng = np.random.default_rng(3)
        choi = channels.choi_from_kraus(random_kraus(3, 2, 3, rng))
        # for complex maps the second partial trace is the transpose of
        # Phi^*(I); they agree exactly in the real case
        np.testing.assert_allclose(
            channels.apply_dual(choi, np.eye(2)), choi.trace_second().T, atol=1e-12
        )
        np.testing.assert_allclose(
            channels.apply_map(choi, np.eye(3)), choi.trace_first(), atol=1e-12
        )
        real_kraus = KrausMap(ops=(rng.standard_normal((2, 3)), rng.standard_normal((2, 3))))
        real_choi = channels.choi_from_kraus(real_kraus)
        np.testing.assert_allclose(
            channels.apply_dual(real_choi, np.eye(2)), real_choi.trace_second(), atol=1e-12
        )

    @pytest.mark.parametrize("seed", range(3))
    def test_agrees_with_kraus_dual(self, seed):
        rng = np.random.default_rng(seed + 5)
        kraus = random_kraus(3, 2, 2, rng)
        choi = channels.choi_from_kraus(kraus)
        y = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        np.testing.assert_allclose(channels.apply_dual(choi, y), kraus.apply_dual(y), atol=1e-12)

    def test_adjoint_relation(self):
        rng = np.random.default_rng(4)
        choi = channels.choi_from_kraus(random_kraus(3, 2, 3, rng))
        x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        y = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        lhs = np.trace(y @ channels.apply_map(choi, x))
        rhs = np.trace(channels.apply_dual(choi, y) @ x)
        assert abs(lhs - rhs) <= 1e-11


class TestScaleChoi:
    def test_identity_factors_fix_everything(self):
        rng = np.random.default_rng(5)
        choi = channels.random_choi(2, 3, rng)
        out = channels.scale_choi(choi, np.eye(3), np.eye(2))
        np.testing.assert_allclose(out.matrix, choi.matrix, atol=1e-14)

    def test_diagonal_reduction_to_classical_scaling(self):
        rng = np.random.default_rng(6)
        a = rng.uniform(0.1, 1.0, size=(2, 2))
        a /= a.sum()
        diag = np.zeros((4, 4), dtype=complex)
        for j in range(2):
            for i in range(2):
                diag[j * 2 + i, j * 2 + i] = a[i, j]
        choi = ChoiMatrix(n=2, m=2, matrix=diag)
        left = np.diag([1.1, 0.7])
        right = np.diag([0.9, 1.3])
        scaled = channels.scale_choi(choi, left, right)
        for j in range(2):
            for i in range(2):
                want = left[i, i] ** 2 * a[i, j] * right[j, j] ** 2
                assert abs(scaled.matrix[j * 2 + i, j * 2 + i] - want) <= 1e-13

    def test_blockwise_formula(self):
        rng = np.random.default_rng(7)
        choi = channels.random_choi(2, 2, rng)
        left = oracle_hermitian(rng, 2)
        right = oracle_hermitian(rng, 2)
        scaled = channels.scale_choi(choi, left, right)
        blocks = choi.blocks()
        out = np.zeros((4, 4), dtype=complex)
        for i in range(2):
            for j in range(2):
                acc = np.zeros((2, 2), dtype=complex)
                for k in range(2):
                    for l in range(2):
                        acc += np.conj(right[k, i]) * right[l, j] * (left @ blocks[k, :, l, :] @ left)
                out[i * 2:(i + 1) * 2, j * 2:(j + 1) * 2] = acc
        np.testing.assert_allclose(scaled.matrix, out, atol=1e-11)

    def test_composition(self):
        rng = np.random.default_rng(8)
        choi = channels.random_choi(2, 2, rng)
        l1, l2 = (random_pd_factor(rng, 2) for _ in range(2))
        r1, r2 = (random_pd_factor(rng, 2) for _ in range(2))
        once = channels.scale_choi(channels.scale_choi(choi, l1, r1), l2, r2)
        # composed congruence factors: left factors compose as L2 L1, right as R1 R2
        lhs = np.kron(r2, l2) @ np.kron(r1, l1) @ choi.matrix @ np.kron(r1, l1) @ np.kron(r2, l2)
        np.testing.assert_allclose(once.matrix, lhs, atol=1e-11)

    def test_left_scaling_conjugates_first_marginal(self):
        rng = np.random.default_rng(9)
        choi = channels.random_choi(3, 2, rng)
        left = random_pd_factor(rng, 2)
        scaled = channels.scale_choi(choi, left, np.eye(3))
        np.testing.assert_allclose(
            scaled.trace_first(), left @ choi.trace_first() @ left, atol=1e-11
        )

    def test_dimension_checks(self):
        rng = np.random.default_rng(10)
        choi = channels.random_choi(2, 3, rng)
        with pytest.raises(InvalidInputError):
            channels.scale_choi(choi, np.eye(2), np.eye(2))


    def test_rejects_non_hermitian_factors(self):
        rng = np.random.default_rng(13)
        choi = channels.random_choi(2, 3, rng)
        with pytest.raises(InvalidInputError, match="left scaling factor"):
            channels.scale_choi(choi, ginibre(rng, 3), np.eye(2))
        with pytest.raises(InvalidInputError, match="right scaling factor"):
            channels.scale_choi(choi, np.eye(3), ginibre(rng, 2))


class TestCongruence:
    """The blockwise kernel against the dense Kronecker congruence."""

    @pytest.mark.parametrize("n, m", [(2, 2), (2, 3), (3, 2), (4, 5), (5, 4)])
    @pytest.mark.parametrize("sides", ["left", "right", "both"])
    def test_matches_dense_kron(self, n, m, sides):
        rng = np.random.default_rng(100 + 10 * n + m)
        mat = channels.random_choi(n, m, rng).matrix
        left = random_pd_factor(rng, m) if sides != "right" else None
        right = random_pd_factor(rng, n) if sides != "left" else None
        f = np.kron(np.eye(n) if right is None else right, np.eye(m) if left is None else left)
        dense = f @ mat @ f
        out = channels.congruence(mat, n, m, left, right)
        assert np.abs(out - dense).max() <= 1e-12 * np.abs(dense).max()
        np.testing.assert_array_equal(out, out.conj().T)

    @pytest.mark.parametrize("n, m", [(2, 2), (2, 3), (3, 2), (4, 5), (5, 4)])
    @pytest.mark.parametrize("sides", ["left", "right", "both"])
    def test_non_hermitian_factors_match_dense_kron(self, n, m, sides):
        # the operator Sinkhorn loop forms its final iterate from products
        # of factors, which are not Hermitian
        rng = np.random.default_rng(200 + 10 * n + m)
        mat = channels.random_choi(n, m, rng).matrix
        left = ginibre(rng, m) if sides != "right" else None
        right = ginibre(rng, n) if sides != "left" else None
        f = np.kron(np.eye(n) if right is None else right, np.eye(m) if left is None else left)
        dense = f @ mat @ f.conj().T
        out = channels.congruence(mat, n, m, left, right)
        assert np.abs(out - dense).max() <= 1e-12 * np.abs(dense).max()
        np.testing.assert_array_equal(out, out.conj().T)

    def test_no_factor_is_identity(self):
        mat = channels.random_choi(3, 2, np.random.default_rng(11)).matrix
        np.testing.assert_array_equal(channels.congruence(mat, 3, 2), mat)

    def test_does_not_modify_input(self):
        rng = np.random.default_rng(12)
        mat = channels.random_choi(2, 3, rng).matrix
        before = mat.copy()
        channels.congruence(mat, 2, 3, random_pd_factor(rng, 3), random_pd_factor(rng, 2))
        np.testing.assert_array_equal(mat, before)


def oracle_hermitian(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (g + g.conj().T) / 2


def ginibre(rng, d):
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


def random_pd_factor(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return g @ g.conj().T / d + 0.3 * np.eye(d)


class TestRandomDensity:
    def test_invariants(self):
        rng = np.random.default_rng(0)
        rho = channels.random_density(4, rng)
        assert abs(np.trace(rho).real - 1.0) <= 1e-12
        assert np.linalg.eigvalsh(rho)[0] > 0
        np.testing.assert_allclose(rho, rho.conj().T)

    def test_deterministic_given_seed(self):
        a = channels.random_density(3, np.random.default_rng(42))
        b = channels.random_density(3, np.random.default_rng(42))
        np.testing.assert_array_equal(a, b)

    def test_real_ensemble_is_real(self):
        rho = channels.random_density(3, np.random.default_rng(1), real=True)
        assert np.abs(rho.imag).max() == 0.0

    def test_ensemble_mean_is_maximally_mixed(self):
        # unitary invariance of the Ginibre ensemble pushes the mean to I/d
        rng = np.random.default_rng(123)
        d, samples = 3, 10_000
        acc = np.zeros((d, d), dtype=complex)
        acc2 = np.zeros((d, d))
        for _ in range(samples):
            rho = channels.random_density(d, rng)
            acc += rho
            acc2 += np.abs(rho) ** 2
        mean = acc / samples
        std_err = np.sqrt(np.maximum(acc2 / samples - np.abs(mean) ** 2, 0.0) / samples)
        dev = np.abs(mean - np.eye(d) / d)
        assert np.all(dev <= 3.0 * std_err + 1e-12)


class TestChoiMatrixValidation:
    def test_rejects_indefinite(self):
        with pytest.raises(InvalidInputError):
            ChoiMatrix(n=2, m=1, matrix=np.diag([1.0, -0.5]))

    def test_rejects_inconsistent_dims(self):
        with pytest.raises(InvalidInputError):
            ChoiMatrix(n=2, m=2, matrix=np.eye(3))

    def test_as_density_trace_check(self):
        with pytest.raises(InvalidInputError):
            channels.as_density(np.eye(2))

    @pytest.mark.parametrize("n,m", [(2.0, 2), (True, 4), (2, np.float64(2.0)), ("2", 2), (None, 2), (0, 4), (2, -2)])
    def test_rejects_dimensions_that_are_not_positive_ints(self, n, m):
        with pytest.raises(InvalidInputError, match="Choi dimension"):
            ChoiMatrix(n=n, m=m, matrix=np.eye(4) / 4)

    def test_integral_dimensions_are_stored_as_int(self):
        choi = ChoiMatrix(n=np.int64(2), m=np.int32(2), matrix=np.eye(4) / 4)
        assert type(choi.n) is int and type(choi.m) is int and (choi.n, choi.m) == (2, 2)

    @pytest.mark.parametrize("dim", [2.0, True, np.float64(3.0), "3", 0])
    def test_random_density_rejects_dimension_that_is_not_a_positive_int(self, dim):
        with pytest.raises(InvalidInputError, match="dimension"):
            channels.random_density(dim, np.random.default_rng(0))

    @pytest.mark.parametrize("n,m", [(2.0, 2), (True, 4), (2, 1.5), (0, 3)])
    def test_random_choi_rejects_dimensions_that_are_not_positive_ints(self, n, m):
        with pytest.raises(InvalidInputError, match="Choi dimension"):
            channels.random_choi(n, m, np.random.default_rng(0))


class TestChoiMatrixStorage:
    """A validated Choi matrix is read-only and, when the input is exactly
    Hermitian, shares the caller's array instead of copying it."""

    def test_exactly_hermitian_input_is_shared_read_only(self):
        mat = channels.random_density(6, np.random.default_rng(660))
        choi = ChoiMatrix(n=2, m=3, matrix=mat)
        assert np.shares_memory(choi.matrix, mat)
        assert not choi.matrix.flags.writeable
        assert mat.flags.writeable
        with pytest.raises(ValueError):
            choi.matrix[0, 0] = 1.0
        with pytest.raises(ValueError):
            choi.blocks()[0, 0, 0, 0] = 1.0

    def test_input_hermitian_within_atol_is_symmetrized_into_a_copy(self):
        mat = channels.random_density(6, np.random.default_rng(661))
        mat[0, 1] += 1e-14
        choi = ChoiMatrix(n=3, m=2, matrix=mat)
        assert not np.shares_memory(choi.matrix, mat)
        assert not choi.matrix.flags.writeable
        np.testing.assert_array_equal(choi.matrix, linalg.hermitian_part(mat))

    def test_read_only_input_is_accepted(self):
        mat = channels.random_density(4, np.random.default_rng(662))
        mat.flags.writeable = False
        choi = ChoiMatrix(n=2, m=2, matrix=mat)
        assert np.shares_memory(choi.matrix, mat) and not choi.matrix.flags.writeable

    def test_retained_memory(self):
        # 256 x 256 complex128 is 1 MiB: an exactly Hermitian input costs
        # nothing but the view, one within atol costs one symmetrized copy
        exact = channels.random_density(256, np.random.default_rng(663))
        near = exact.copy()
        near[0, 1] += 1e-14

        def retained(mat: np.ndarray) -> int:
            tracemalloc.start()
            try:
                choi = ChoiMatrix(n=16, m=16, matrix=mat)
                assert choi.matrix.shape == mat.shape
                return tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()

        assert retained(exact) < 64 * 1024
        assert exact.nbytes <= retained(near) < 2 * exact.nbytes


def eigenvalue_rule(mat: np.ndarray) -> str | None:
    """The PSD rule decided from the full spectrum: the error message for a
    rejected matrix, None for an accepted one."""
    w = np.linalg.eigvalsh(linalg.hermitian_part(np.asarray(mat, dtype=complex)))
    if w[0] < -get_policy().psd_rtol * max(abs(w[-1]), np.finfo(float).tiny):
        return f"Choi matrix is not positive semidefinite (min eigenvalue {w[0]:.3e})"
    return None


def with_spectrum(w: np.ndarray, rng) -> np.ndarray:
    d = len(w)
    q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return linalg.hermitian_part((q * w) @ q.conj().T)


class TestCholeskyPsdCheck:
    """ChoiMatrix decides PSD by a shifted Cholesky and falls back to the
    eigenvalue rule on failure; decisions and messages must be the rule's."""

    @staticmethod
    def assert_same_as_rule(mat, n, m):
        message = eigenvalue_rule(mat)
        if message is None:
            ChoiMatrix(n=n, m=m, matrix=mat)
        else:
            with pytest.raises(InvalidInputError) as err:
                ChoiMatrix(n=n, m=m, matrix=mat)
            assert str(err.value) == message

    @pytest.mark.parametrize("n, m", [(2, 2), (6, 6), (16, 16)])
    @pytest.mark.parametrize("c", [-0.4, -0.9, -1.1, -2.0])
    @pytest.mark.parametrize("bulk", ["flat", "spread"])
    def test_boundary_decisions_match_eigenvalue_rule(self, n, m, c, bulk):
        # lambda_min = c * psd_rtol * lambda_max; a flat bulk makes
        # ||M||_F / sqrt(d) close to lambda_max, so the Cholesky accepts the
        # c = -0.4 case itself, and a spread bulk sends every case to the
        # eigenvalue fallback
        d = n * m
        rng = np.random.default_rng(d + int(10 * -c) + 100 * (bulk == "flat"))
        w = rng.uniform(0.9, 1.0, d) if bulk == "flat" else np.geomspace(1e-3, 1.0, d)
        w[-1] = 1.0
        w[0] = c * get_policy().psd_rtol
        mat = with_spectrum(w, rng)
        assert (eigenvalue_rule(mat) is None) == (c > -1.0)
        self.assert_same_as_rule(mat, n, m)

    @pytest.mark.parametrize("n, m, k", [(2, 2, 1), (3, 4, 2), (16, 16, 3)])
    def test_rank_deficient_kraus_choi(self, n, m, k):
        mat = channels.choi_from_kraus(random_kraus(n, m, k, np.random.default_rng(n + k))).matrix
        assert np.linalg.matrix_rank(mat) == k
        self.assert_same_as_rule(mat, n, m)

    @pytest.mark.parametrize("n, m", [(1, 1), (2, 3), (16, 16)])
    def test_zero_matrix(self, n, m):
        self.assert_same_as_rule(np.zeros((n * m, n * m)), n, m)

    @pytest.mark.parametrize("rank", [3, 256])
    def test_psd_input_makes_no_eigvalsh_call(self, rank, eig_calls):
        rng = np.random.default_rng(rank)
        g = rng.standard_normal((256, rank)) + 1j * rng.standard_normal((256, rank))
        mat = g @ g.conj().T
        ChoiMatrix(n=16, m=16, matrix=mat / np.trace(mat).real)
        assert eig_calls == []
