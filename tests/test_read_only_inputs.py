"""Every public entry point runs on read-only input arrays and gives, bit
for bit, what it gives on writeable copies of them.

Validated arrays are stored uncopied when they are exactly Hermitian, so a
write into one would reach the caller's array; these runs fail with
``ValueError: assignment destination is read-only`` if any code path writes
into an input.
"""

import numpy as np
import pytest

from opsinkhorn import channels, divergences, geometry, scaling, serialization
from opsinkhorn.channels import ChoiMatrix
from opsinkhorn.geometry import ConstraintSet
from opsinkhorn.reference import reference_direction, reference_rho0


def frozen(a) -> np.ndarray:
    """A read-only complex copy of ``a``."""
    out = np.array(a, dtype=complex)
    out.flags.writeable = False
    return out


def assert_same(got, want) -> None:
    """Equal bit for bit: arrays, Choi matrices, traces and tuples of them."""
    if isinstance(want, scaling.ScalingTrace):
        assert got.residuals == want.residuals and got.sweeps == want.sweeps
        assert got.capacity_log == want.capacity_log and got.converged == want.converged
        assert_same([f for _, f in got.factors], [f for _, f in want.factors])
        assert_same(got.final, want.final)
    elif isinstance(want, ChoiMatrix):
        assert (got.n, got.m) == (want.n, want.m)
        assert np.array_equal(got.matrix, want.matrix)
    elif isinstance(want, (tuple, list)):
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert_same(a, b)
    else:
        assert np.array_equal(got, want)


def both(run, *arrays):
    """``run`` on writeable copies of ``arrays`` and on read-only ones; the
    writeable ones must come back unchanged."""
    writeable = [np.array(a, dtype=complex) for a in arrays]
    before = [a.copy() for a in writeable]
    want = run(*writeable)
    for a, b in zip(writeable, before):
        assert np.array_equal(a, b)
    got = run(*(frozen(a) for a in arrays))
    assert_same(got, want)


def case(seed: int = 700):
    """A random 2 x 3 Choi matrix and general marginal targets."""
    rng = np.random.default_rng(seed)
    return channels.random_density(6, rng), channels.random_density(3, rng), channels.random_density(2, rng)


class TestSinkhorn:
    @pytest.mark.parametrize("general", [False, True])
    def test_operator_sinkhorn(self, general):
        mat, p, q = case()

        def run(mat, p, q):
            cfg = scaling.ScalingConfig(max_iters=30, target_p=p if general else None, target_q=q if general else None)
            return scaling.operator_sinkhorn(ChoiMatrix(n=2, m=3, matrix=mat), cfg)

        both(run, mat, p, q)

    def test_operator_sinkhorn_batch(self):
        mats = [case(seed=710 + k)[0] for k in range(3)]

        def run(*mats):
            chois = [ChoiMatrix(n=2, m=3, matrix=mat) for mat in mats]
            return scaling.operator_sinkhorn_batch(chois, scaling.ScalingConfig(max_iters=30))

        both(run, *mats)

    def test_operator_sinkhorn_step(self):
        mat, p, _ = case()
        both(lambda mat, p: scaling.operator_sinkhorn_step(ChoiMatrix(n=2, m=3, matrix=mat), "first", p), mat, p)

    def test_matrix_sinkhorn(self):
        a = np.random.default_rng(720).uniform(0.1, 1.0, size=(3, 4))
        a.flags.writeable = False
        want = scaling.matrix_sinkhorn(a.copy(), scaling.ScalingConfig(max_iters=20))
        got = scaling.matrix_sinkhorn(a, scaling.ScalingConfig(max_iters=20))
        assert got.residuals == want.residuals and np.array_equal(got.final, want.final)


class TestDualSolvers:
    @pytest.mark.parametrize("method", ["bkm", "burg"])
    def test_alternating_projections(self, method):
        def run(mat, p, q):
            cfg = scaling.ScalingConfig(max_iters=5, tol=0.0, target_p=p, target_q=q)
            return scaling.alternating_projections(method, ChoiMatrix(n=2, m=3, matrix=mat), cfg)

        both(run, *case())

    @pytest.mark.parametrize("method", ["bkm", "burg"])
    def test_joint_limit(self, method):
        def run(mat, p, q):
            cfg = scaling.ScalingConfig(target_p=p, target_q=q)
            return scaling.joint_limit(method, ChoiMatrix(n=2, m=3, matrix=mat), cfg)

        both(run, *case())

    @pytest.mark.parametrize("project", [scaling.bkm_e_projection, scaling.burg_e_projection])
    @pytest.mark.parametrize("side", ["first", "second"])
    def test_e_projections(self, project, side):
        mat, p, q = case()

        def run(mat, target):
            return project(ChoiMatrix(n=2, m=3, matrix=mat), ConstraintSet(side, target))

        both(run, mat, p if side == "first" else q)


class TestChannelsAndGeometry:
    def test_scale_choi(self):
        mat, p, q = case()
        both(lambda mat, left, right: channels.scale_choi(ChoiMatrix(n=2, m=3, matrix=mat), left, right), mat, p, q)

    @pytest.mark.parametrize("tag", geometry.METRICS)
    def test_orthogonality_residual(self, tag):
        mat, p, _ = case()
        step, _ = scaling.operator_sinkhorn_step(ChoiMatrix(n=2, m=3, matrix=mat), "first", p)

        def run(mat, stepped, target):
            rho_from, rho_to = ChoiMatrix(n=2, m=3, matrix=mat), ChoiMatrix(n=2, m=3, matrix=stepped)
            return geometry.orthogonality_residual(tag, rho_from, rho_to, ConstraintSet("first", target))

        both(run, mat, step.matrix, p)


class TestDivergences:
    @pytest.mark.parametrize("tag", [t for t in divergences.DIVERGENCES if t != "kl"])
    def test_divergence(self, tag):
        rng = np.random.default_rng(730)
        rho, sigma = channels.random_density(4, rng), channels.random_density(4, rng)
        stack = np.stack([channels.random_density(4, rng) for _ in range(3)])
        both(lambda rho, sigma: divergences.divergence(tag, rho, sigma), rho, sigma)
        both(lambda stack, sigma: divergences.divergence(tag, stack, sigma), stack, sigma)

    @pytest.mark.parametrize("tag", ["bs", "nagaoka", "umegaki", "burg"])
    def test_central_difference_quotients(self, tag):
        choi = reference_rho0()
        star = scaling.operator_sinkhorn(choi).final.matrix
        hs = [2.0 ** (-k) for k in range(5, 15)]

        def run(star, rho0, direction):
            return divergences.central_difference_quotients(tag, star, rho0, direction, hs, n=choi.n, m=choi.m)

        both(run, star, choi.matrix, reference_direction())


class TestSerialization:
    def test_save_choi(self, tmp_path):
        mat = case()[0]
        serialization.save_choi(tmp_path / "w.json", ChoiMatrix(n=2, m=3, matrix=mat.copy()))
        serialization.save_choi(tmp_path / "r.json", ChoiMatrix(n=2, m=3, matrix=frozen(mat)))
        assert (tmp_path / "r.json").read_bytes() == (tmp_path / "w.json").read_bytes()
        assert np.array_equal(serialization.load_choi(tmp_path / "r.json").matrix, mat)
