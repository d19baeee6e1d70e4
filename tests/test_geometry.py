import warnings

import numpy as np
import pytest

from opsinkhorn import channels, geometry, linalg, scaling
from opsinkhorn.errors import ConvergenceError, InvalidInputError, SingularityError
from opsinkhorn.geometry import ConstraintSet, TangentVector

import oracles


def random_density(d, seed):
    return channels.random_density(d, np.random.default_rng(seed))


def random_tangent(rho, seed, scale=0.2):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal(rho.shape) + 1j * rng.standard_normal(rho.shape)
    h = (g + g.conj().T) / 2 * scale
    h -= np.trace(h).real / rho.shape[0] * np.eye(rho.shape[0])
    return TangentVector(base=rho, m_rep=h)


class TestTangentVector:
    def test_rejects_traceful_direction(self):
        rho = np.eye(2) / 2
        with pytest.raises(InvalidInputError):
            TangentVector(base=rho, m_rep=np.eye(2))

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(InvalidInputError):
            TangentVector(base=np.eye(2) / 2, m_rep=np.zeros((3, 3)))

    def test_stores_exactly_hermitian_inputs_uncopied_and_read_only(self):
        rho = random_density(3, 40)
        m_rep = np.diag([1.0, -1.0, 0.0]).astype(complex)
        x = TangentVector(base=rho, m_rep=m_rep)
        for stored, given in ((x.base, rho), (x.m_rep, m_rep)):
            assert np.shares_memory(stored, given) and not stored.flags.writeable and given.flags.writeable
            with pytest.raises(ValueError):
                stored[0, 0] = 0.0


class TestSldERep:
    def test_maximally_mixed_base(self):
        rho = np.eye(3) / 3
        x = random_tangent(rho, 0)
        np.testing.assert_allclose(geometry.sld_e_rep(x), 3.0 * x.m_rep, atol=1e-12)

    def test_diagonal_closed_form(self):
        p = np.array([0.5, 0.3, 0.2])
        rho = np.diag(p)
        m = np.diag([0.1, -0.04, -0.06])
        e = geometry.sld_e_rep(TangentVector(base=rho, m_rep=m))
        expected = np.diag(2.0 * np.diag(m) / (2.0 * p))
        np.testing.assert_allclose(e, expected, atol=1e-12)

    def test_matches_quadrature(self):
        rho = random_density(3, 5)
        x = random_tangent(rho, 6)
        e = geometry.sld_e_rep(x)
        np.testing.assert_allclose(e, oracles.lyapunov_quadrature(rho, 2.0 * x.m_rep), atol=1e-6)

    def test_lyapunov_residual(self):
        rho = random_density(4, 7)
        x = random_tangent(rho, 8)
        e = geometry.sld_e_rep(x)
        assert np.linalg.norm(e @ rho + rho @ e - 2.0 * x.m_rep) <= 1e-10


class TestMetricInner:
    def test_zero_vector(self):
        rho = random_density(3, 0)
        zero = TangentVector(base=rho, m_rep=np.zeros((3, 3)))
        for tag in geometry.METRICS:
            assert geometry.metric_inner(tag, zero, zero) == 0.0

    def test_sld_and_bkm_reduce_to_fisher_on_diagonals(self):
        p = np.array([0.4, 0.35, 0.25])
        rho = np.diag(p)
        xv = np.array([0.05, -0.02, -0.03])
        yv = np.array([-0.01, 0.03, -0.02])
        x = TangentVector(base=rho, m_rep=np.diag(xv))
        y = TangentVector(base=rho, m_rep=np.diag(yv))
        fisher = float(np.sum(xv * yv / p))
        assert abs(geometry.metric_inner("sld", x, y) - fisher) <= 1e-10
        assert abs(geometry.metric_inner("bkm", x, y) - fisher) <= 1e-10

    def test_congruence_diagonal_closed_form(self):
        # the congruence metric is the Hessian of -log det, which on diagonal
        # matrices gives sum x_k y_k / p_k^2 (not the Fisher value)
        p = np.array([0.4, 0.35, 0.25])
        rho = np.diag(p)
        xv = np.array([0.05, -0.02, -0.03])
        yv = np.array([-0.01, 0.03, -0.02])
        x = TangentVector(base=rho, m_rep=np.diag(xv))
        y = TangentVector(base=rho, m_rep=np.diag(yv))
        expected = float(np.sum(xv * yv / p**2))
        assert abs(geometry.metric_inner("congruence", x, y) - expected) <= 1e-10

    @pytest.mark.parametrize("tag", geometry.METRICS)
    @pytest.mark.parametrize("seed", range(3))
    def test_symmetry(self, tag, seed):
        rho = random_density(3, seed)
        x = random_tangent(rho, 10 + seed)
        y = random_tangent(rho, 20 + seed)
        gxy = geometry.metric_inner(tag, x, y)
        gyx = geometry.metric_inner(tag, y, x)
        assert abs(gxy - gyx) <= 1e-11 * max(1.0, abs(gxy))

    @pytest.mark.parametrize("tag", geometry.METRICS)
    def test_positive_definite_on_traceless(self, tag):
        rho = random_density(3, 3)
        x = random_tangent(rho, 30)
        assert geometry.metric_inner(tag, x, x) > 0
        zero = TangentVector(base=rho, m_rep=np.zeros((3, 3)))
        assert abs(geometry.metric_inner(tag, zero, zero)) <= 1e-12

    def test_base_mismatch(self):
        x = random_tangent(random_density(3, 1), 0)
        y = random_tangent(random_density(3, 2), 0)
        with pytest.raises(InvalidInputError):
            geometry.metric_inner("sld", x, y)


class TestFrechetDerivatives:
    def test_dlog_matches_finite_differences(self):
        rho = random_density(3, 11)
        direction = random_tangent(rho, 12).m_rep

        def curve(t):
            return linalg.logm(rho + t * direction)

        fd = oracles.matrix_central_difference(curve, 0.0, 1e-6)
        np.testing.assert_allclose(geometry.dlog_frechet(rho, direction), fd, atol=1e-6)

    def test_dexp_matches_finite_differences(self):
        h = linalg.logm(random_density(3, 13))
        direction = random_tangent(random_density(3, 14), 15).m_rep

        def curve(t):
            return linalg.expm(h + t * direction)

        fd = oracles.matrix_central_difference(curve, 0.0, 1e-6)
        np.testing.assert_allclose(geometry.dexp_frechet(h, direction), fd, atol=1e-6)

    @pytest.mark.parametrize("w", [
        np.array([-1.0, -1.0, 0.0, 0.0, 0.0]),            # degenerate
        np.array([-2.0, -1e-13, 0.0, 1e-13, 0.5]),        # gaps of 1e-13
        np.linspace(-700.0, 100.0, 7),                   # spread of 800
    ], ids=["degenerate", "near-degenerate", "spread"])
    def test_exp_divided_differences_against_quotients(self, w):
        got = linalg._exp_divided_differences(w)
        want = oracles.divided_differences(w, np.exp, np.exp)
        assert np.isfinite(got).all()
        assert np.array_equal(np.diag(got), np.exp(w))
        assert np.array_equal(got, got.T)
        assert (np.abs(got - want) <= 1e-13 * np.abs(want)).all()

    def test_exp_divided_differences_against_high_precision(self):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 50
        rng = np.random.default_rng(18)
        w = np.sort(np.concatenate([rng.standard_normal(6), [0.3, 0.3 + 1e-9, 0.3 + 2e-9], [-40.0, 25.0]]))
        got = linalg._exp_divided_differences(w)
        for i, a in enumerate(w):
            for j, b in enumerate(w):
                x, y = mpmath.mpf(a), mpmath.mpf(b)
                exact = mpmath.exp(x) if a == b else (mpmath.exp(x) - mpmath.exp(y)) / (x - y)
                assert abs(got[i, j] - exact) <= 1e-15 * abs(exact)

    @pytest.mark.parametrize("gap", [1e-13, 1e-11, 1e-9, 1e-7, 1e-5])
    def test_dlog_and_bkm_metric_against_high_precision(self, gap):
        # rho has two eigenvalues `gap` apart; the reference takes the
        # quotient (log a - log b) / (a - b) at 50 digits on the spectrum and
        # in the eigenbasis that eigh gives, so only the Loewner matrix and
        # the rounding of the products differ
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(19)
        u, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        rho = linalg.hermitian_part((u * np.array([0.1, 0.25, 0.25 + gap, 0.4 - gap])) @ u.conj().T)
        x, y = random_tangent(rho, 20), random_tangent(rho, 21)
        w, v = np.linalg.eigh(rho)
        with mpmath.workdps(50):
            mv, mw = mpmath.matrix(v.tolist()), [mpmath.mpf(a) for a in w]
            d = mv.H * mpmath.matrix(y.m_rep.tolist()) * mv
            for i, a in enumerate(mw):
                for j, b in enumerate(mw):
                    d[i, j] *= 1 / a if a == b else (mpmath.log(a) - mpmath.log(b)) / (a - b)
            exact = mv * d * mv.H
            exact_inner = sum(x.m_rep[i, j] * exact[j, i] for i in range(4) for j in range(4)).real
            got = geometry.dlog_frechet(rho, y.m_rep)
            err = mpmath.norm(mpmath.matrix(got.tolist()) - exact)
            assert err <= 1e-14 * mpmath.norm(exact)
            assert abs(geometry.metric_inner("bkm", x, y) - exact_inner) <= 1e-14 * abs(exact_inner)

    def test_dlog_takes_one_eigh(self, eig_calls):
        rho = random_density(5, 22)
        direction = random_tangent(rho, 23).m_rep
        eig_calls.clear()
        geometry.dlog_frechet(rho, direction)
        # the eigh is also the cone test of the base point
        assert eig_calls == [("eigh", (5, 5))]

    def test_dlog_rejects_singular_base_point(self):
        with pytest.raises(SingularityError, match="dlog base point is not positive definite"):
            geometry.dlog_frechet(np.diag([1.0, 0.0]), np.diag([1.0, -1.0]))

    @pytest.mark.parametrize("derivative, base", [
        (geometry.dlog_frechet, np.eye(2) / 2),
        (geometry.dexp_frechet, np.eye(2)),
    ])
    def test_rejects_a_direction_of_another_size(self, derivative, base):
        with pytest.raises(InvalidInputError, match=r"direction has shape \(3, 3\), the base point \(2, 2\)"):
            derivative(base, np.diag([1.0, -0.5, -0.5]))

    def test_dexp_inverts_dlog(self):
        rho = random_density(3, 16)
        direction = random_tangent(rho, 17).m_rep
        back = geometry.dexp_frechet(linalg.logm(rho), geometry.dlog_frechet(rho, direction))
        np.testing.assert_allclose(back, direction, atol=1e-10)


# endpoint pairs random_density(d, default_rng(seed)), one per seed, on which
# the unnormalized sld and bkm curves overflow from |t| = 300 or 700 on
FAR_PAIRS = [(2, (0, 1)), (3, (3, 4)), (4, (5, 6))]


class TestEGeodesic:
    @pytest.mark.parametrize("tag", geometry.METRICS)
    def test_endpoints_exact(self, tag):
        r1, r2 = random_density(4, 20), random_density(4, 21)
        np.testing.assert_allclose(geometry.e_geodesic(tag, r1, r2, 0.0), r1, atol=1e-10)
        np.testing.assert_allclose(geometry.e_geodesic(tag, r1, r2, 1.0), r2, atol=1e-10)

    @pytest.mark.parametrize("tag", geometry.METRICS)
    def test_constant_curve(self, tag):
        rho = random_density(3, 22)
        np.testing.assert_allclose(geometry.e_geodesic(tag, rho, rho, 0.37), rho, atol=1e-11)

    @pytest.mark.parametrize("tag", geometry.METRICS)
    def test_interior_point_is_state(self, tag):
        r1, r2 = random_density(4, 23), random_density(4, 24)
        mid = geometry.e_geodesic(tag, r1, r2, 0.5)
        assert abs(np.trace(mid).real - 1.0) <= 1e-12
        assert np.linalg.eigvalsh(mid)[0] > 0

    def test_commuting_case_closed_forms(self):
        p = np.array([0.5, 0.3, 0.2])
        q = np.array([0.2, 0.5, 0.3])
        r1, r2 = np.diag(p), np.diag(q)
        t = 0.3
        expo = p ** (1 - t) * q**t
        expo /= expo.sum()
        np.testing.assert_allclose(np.diag(geometry.e_geodesic("sld", r1, r2, t)), expo, atol=1e-12)
        np.testing.assert_allclose(np.diag(geometry.e_geodesic("bkm", r1, r2, t)), expo, atol=1e-12)
        harmonic = 1.0 / ((1 - t) / p + t / q)
        harmonic /= harmonic.sum()
        np.testing.assert_allclose(
            np.diag(geometry.e_geodesic("congruence", r1, r2, t)), harmonic, atol=1e-12
        )

    def test_extrapolation_stays_positive_for_sld_and_bkm(self):
        r1, r2 = random_density(3, 25), random_density(3, 26)
        for tag in ("sld", "bkm"):
            out = geometry.e_geodesic(tag, r1, r2, 1.4)
            assert np.linalg.eigvalsh(out)[0] > 0

    def test_congruence_extrapolation_can_leave_cone(self):
        r1 = np.diag([0.9, 0.1])
        r2 = np.diag([0.1, 0.9])
        with pytest.raises(SingularityError, match="congruence geodesic leaves the cone at t=30.0"):
            geometry.e_geodesic("congruence", r1, r2, 30.0)

    @pytest.mark.parametrize("t", [1e3, -1e3, 1e308, -1e308])
    @pytest.mark.parametrize("tag", ["sld", "bkm", "congruence"])
    def test_far_parameter_is_a_point_or_an_error_naming_it(self, tag, t):
        # every finite t gives a finite unit-trace point or an error naming
        # the geometry and t, never NaN and never a numpy warning
        r1 = channels.random_density(2, np.random.default_rng(0))
        r2 = channels.random_density(2, np.random.default_rng(1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                out = geometry.e_geodesic(tag, r1, r2, t)
            except ConvergenceError as exc:
                assert str(exc) == f"{tag} e-geodesic overflows at t={t}"
            except SingularityError as exc:
                assert tag == "congruence" and str(exc) == f"congruence geodesic leaves the cone at t={t}"
            else:
                assert np.isfinite(out).all() and abs(np.trace(out).real - 1.0) <= 1e-12

    @pytest.mark.parametrize("t", [300.0, -300.0, 700.0, -700.0, 1e3, -1e3, 1e5, -1e5])
    @pytest.mark.parametrize("d, seeds", FAR_PAIRS)
    @pytest.mark.parametrize("tag", ["sld", "bkm"])
    def test_far_parameter_gives_a_point(self, tag, d, seeds, t):
        # the point is formed on shifted spectra, so it is finite wherever
        # its exponent is, far beyond where exp of the exponent overflows
        r1, r2 = (channels.random_density(d, np.random.default_rng(seed)) for seed in seeds)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = geometry.e_geodesic(tag, r1, r2, t)
        assert np.isfinite(out).all() and abs(np.trace(out).real - 1.0) <= 1e-12

    @pytest.mark.parametrize("t", [-5.0, -0.5, 0.3, 1.7, 5.0])
    @pytest.mark.parametrize("d, seeds", FAR_PAIRS)
    @pytest.mark.parametrize("tag", ["sld", "bkm"])
    def test_shifted_point_is_the_normalized_curve(self, tag, d, seeds, t):
        # where the unnormalized curve is finite, normalizing it gives the
        # same point to rounding
        r1, r2 = (channels.random_density(d, np.random.default_rng(seed)) for seed in seeds)
        if tag == "sld":
            kt = linalg.powm(linalg.inverse_mean(r1, r2), t)
            curve = kt @ r1 @ kt
        else:
            curve = linalg.expm((1.0 - t) * linalg.logm(r1) + t * linalg.logm(r2))
        want = curve / np.trace(curve).real
        assert np.abs(geometry.e_geodesic(tag, r1, r2, t) - want).max() <= 1e-14

    @pytest.mark.parametrize("t", [float("inf"), float("nan"), "0.5", 1j])
    @pytest.mark.parametrize("tag", ["sld", "bkm", "congruence"])
    def test_parameter_must_be_finite_real(self, tag, t):
        # an infinite t gave OverflowError (sld) or, through the resolvent's
        # spectrum, an error about leaving the cone (congruence)
        r1, r2 = np.diag([0.9, 0.1]), np.diag([0.1, 0.9])
        with pytest.raises(InvalidInputError, match="geodesic parameter t must be a finite real number"):
            geometry.e_geodesic(tag, r1, r2, t)


class TestParallelTransport:
    def test_identity_maps_to_zero(self):
        sigma = random_density(3, 30)
        np.testing.assert_allclose(
            geometry.sld_parallel_transport(np.eye(3), sigma), np.zeros((3, 3)), atol=1e-14
        )

    def test_fixed_point_when_already_orthogonal(self):
        sigma = random_density(3, 31)
        l = random_tangent(sigma, 32).m_rep
        l = l - np.trace(sigma @ l).real * np.eye(3)
        np.testing.assert_allclose(geometry.sld_parallel_transport(l, sigma), l, atol=1e-13)

    def test_transported_vector_is_tangent(self):
        sigma = random_density(3, 33)
        l = random_tangent(sigma, 34).m_rep + 0.3 * np.eye(3)
        out = geometry.sld_parallel_transport(l, sigma)
        assert abs(np.trace(sigma @ out).real) <= 1e-12

    def test_rejects_arguments_of_different_sizes(self):
        with pytest.raises(InvalidInputError, match="e-representation has shape"):
            geometry.sld_parallel_transport(np.eye(3), random_density(2, 37))

    def test_idempotent(self):
        sigma = random_density(3, 35)
        l = random_tangent(sigma, 36).m_rep + 0.2 * np.eye(3)
        once = geometry.sld_parallel_transport(l, sigma)
        twice = geometry.sld_parallel_transport(once, sigma)
        np.testing.assert_allclose(once, twice, atol=1e-13)


class TestSldAutoparallel:
    @pytest.mark.parametrize("t", [0.25, 0.5, 0.75])
    def test_transported_tangent_matches(self, t):
        r1, r2 = random_density(4, 40), random_density(4, 41)
        h = 1e-5

        def curve(s):
            return geometry.e_geodesic("sld", r1, r2, s)

        def e_rep_at(s):
            m_rep = oracles.matrix_central_difference(curve, s, h)
            m_rep = (m_rep + m_rep.conj().T) / 2
            m_rep -= np.trace(m_rep).real / 4 * np.eye(4)
            return geometry.sld_e_rep(TangentVector(base=curve(s), m_rep=m_rep))

        transported = geometry.sld_parallel_transport(e_rep_at(0.0), curve(t))
        np.testing.assert_allclose(transported, e_rep_at(t), atol=1e-8)


class TestHermitianBasis:
    @pytest.mark.parametrize("d", [2, 3])
    def test_orthonormal_and_complete(self, d):
        basis = oracles.hermitian_basis(d)
        assert len(basis) == d * d
        gram = np.array([[np.vdot(a, b) for b in basis] for a in basis])
        np.testing.assert_allclose(gram, np.eye(d * d), atol=1e-14)
        for b in basis:
            np.testing.assert_allclose(b, b.conj().T, atol=0)


class TestConstraintBasis:
    """The Gram-Schmidt reference basis of the constraint tangent space."""

    @pytest.mark.parametrize("n,m,side", [(2, 2, "first"), (2, 3, "first"), (2, 3, "second")])
    def test_orthonormal_traceless_and_complete(self, n, m, side):
        basis = oracles.constraint_tangent_basis(n, m, side)
        expected = (n * m) ** 2 - (m * m if side == "first" else n * n)
        assert len(basis) == expected
        for i, a in enumerate(basis):
            np.testing.assert_allclose(a, a.conj().T, atol=1e-13)
            part = linalg.partial_trace(a, n, m, side)
            assert np.abs(part).max() <= 1e-12
            for b in basis[i + 1 :]:
                assert abs(np.vdot(a, b)) <= 1e-10
            assert abs(np.vdot(a, a) - 1.0) <= 1e-10


class TestConstraintSet:
    def test_rejects_bad_side(self):
        with pytest.raises(InvalidInputError):
            ConstraintSet("third", np.eye(2) / 2)

    def test_rejects_non_state_target(self):
        with pytest.raises(InvalidInputError):
            ConstraintSet("first", np.eye(2))  # trace two
        with pytest.raises(Exception):
            ConstraintSet("first", np.diag([1.5, -0.5]))  # indefinite

    def test_violation_rejects_a_target_that_does_not_fit(self):
        # a 1 x 1 target once broadcast against the 2 x 2 marginal
        choi = channels.random_choi(2, 2, np.random.default_rng(42))
        with pytest.raises(InvalidInputError, match=r"constraint target has shape \(1, 1\)"):
            ConstraintSet("first", np.ones((1, 1))).violation(choi)

    def test_stores_the_target_uncopied_and_read_only(self):
        target = random_density(3, 41)
        constraint = ConstraintSet("second", target)
        assert np.shares_memory(constraint.target, target) and not constraint.target.flags.writeable
        assert target.flags.writeable
        with pytest.raises(ValueError):
            constraint.target[0, 0] = 0.0


def uniform_targets(n, m):
    return np.eye(m) / m, np.eye(n) / n


class TestOrthogonalityResidual:
    def test_sinkhorn_step_is_orthogonal(self):
        rng = np.random.default_rng(50)
        for n, m in [(2, 2), (2, 3)]:
            p, _ = uniform_targets(n, m)
            choi = channels.random_choi(n, m, rng)
            stepped, _ = scaling.operator_sinkhorn_step(choi, "first", p)
            res = geometry.orthogonality_residual("sld", choi, stepped, ConstraintSet("first", p))
            assert res <= 1e-8

    def test_sinkhorn_step_general_target(self):
        rng = np.random.default_rng(51)
        choi = channels.random_choi(2, 2, rng)
        target = channels.random_density(2, rng)
        stepped, _ = scaling.operator_sinkhorn_step(choi, "second", target)
        res = geometry.orthogonality_residual("sld", choi, stepped, ConstraintSet("second", target))
        assert res <= 1e-8

    def test_bkm_projection_is_orthogonal_in_bkm(self):
        rng = np.random.default_rng(52)
        choi = channels.random_choi(2, 2, rng)
        p, _ = uniform_targets(2, 2)
        constraint = ConstraintSet("first", p)
        projected, _ = scaling.bkm_e_projection(choi, constraint)
        res = geometry.orthogonality_residual("bkm", choi, projected, constraint)
        assert res <= 1e-6

    def test_burg_projection_is_orthogonal_in_congruence(self):
        rng = np.random.default_rng(53)
        choi = channels.random_choi(2, 2, rng)
        p, _ = uniform_targets(2, 2)
        constraint = ConstraintSet("first", p)
        projected, _ = scaling.burg_e_projection(choi, constraint)
        res = geometry.orthogonality_residual("congruence", choi, projected, constraint)
        assert res <= 1e-6

    def test_arbitrary_constraint_point_is_not_orthogonal(self):
        rng = np.random.default_rng(54)
        p, _ = uniform_targets(2, 2)
        choi = channels.random_choi(2, 2, rng)
        other = channels.random_choi(2, 2, rng)
        moved, _ = scaling.operator_sinkhorn_step(other, "first", p)
        res = geometry.orthogonality_residual("sld", choi, moved, ConstraintSet("first", p))
        assert res > 1e-3

    @pytest.mark.parametrize("n, m", [(2, 2), (2, 3), (3, 2)])
    @pytest.mark.parametrize("side", ["first", "second"])
    @pytest.mark.parametrize("tag", geometry.METRICS)
    def test_equals_the_norm_over_the_oracle_basis(self, tag, side, n, m):
        # sqrt(sum_b tr(e Y_b)^2) / ||e||_g over the Gram-Schmidt basis, at an
        # e-projection by the tag's own solver and at a constraint point that
        # is not one; never below the largest single term, the old certificate
        rng = np.random.default_rng(56 + 10 * n + m)
        choi, other = channels.random_choi(n, m, rng), channels.random_choi(n, m, rng)
        d = m if side == "first" else n
        constraint = ConstraintSet(side, np.eye(d) / d)
        project = {
            "sld": lambda c: scaling.operator_sinkhorn_step(c, side, constraint.target),
            "bkm": lambda c: scaling.bkm_e_projection(c, constraint),
            "congruence": lambda c: scaling.burg_e_projection(c, constraint),
        }[tag]
        basis = oracles.constraint_tangent_basis(n, m, side)
        for rho_to in (project(choi)[0], scaling.operator_sinkhorn_step(other, side, constraint.target)[0]):
            e, norm = geometry._geodesic_tail(tag, choi.matrix, rho_to.matrix)
            pairings = np.array([np.trace(e @ y).real for y in basis])
            got = geometry.orthogonality_residual(tag, choi, rho_to, constraint)
            want = np.sqrt(np.sum(pairings**2)) / norm
            # both round relative to ||e||_F / ||e||_g, the largest value either
            # can take; at an e-projection both are rounding noise
            assert abs(got - want) <= 1e-12 * np.linalg.norm(e) / norm
            assert got >= np.abs(pairings).max() / norm

    @pytest.mark.parametrize("n, m, side", [(1, 3, "first"), (3, 1, "second")])
    @pytest.mark.parametrize("tag", geometry.METRICS)
    def test_empty_tangent_space_gives_zero(self, n, m, side, tag):
        # the constraint fixes the whole state, so there is nothing to be
        # orthogonal to
        choi = channels.random_choi(n, m, np.random.default_rng(3))
        target = np.eye(m if side == "first" else n) / (m if side == "first" else n)
        stepped, _ = scaling.operator_sinkhorn_step(choi, side, target)
        assert oracles.constraint_tangent_basis(n, m, side) == []
        assert geometry.orthogonality_residual(tag, choi, stepped, ConstraintSet(side, target)) == 0.0

    def test_rejects_constraint_violation(self):
        rng = np.random.default_rng(55)
        choi = channels.random_choi(2, 2, rng)
        p, _ = uniform_targets(2, 2)
        with pytest.raises(InvalidInputError):
            geometry.orthogonality_residual("sld", choi, choi, ConstraintSet("first", p))

    @pytest.mark.parametrize("side, d", [("first", 2), ("second", 3)])
    def test_rejects_a_target_that_does_not_fit(self, side, d):
        # a 3 x 2 Choi matrix has a 2 x 2 first and a 3 x 3 second marginal
        choi = channels.random_choi(3, 2, np.random.default_rng(56))
        target = np.eye(5 - d) / (5 - d)
        with pytest.raises(InvalidInputError, match=f"the {side} marginal of an n=3, m=2 Choi matrix is {d} x {d}"):
            geometry.orthogonality_residual("sld", choi, choi, ConstraintSet(side, target))


class TestOneDecompositionPerMatrix:
    """The BKM tail takes one ``eigh`` of rho_to for both log rho_to and
    dexp there, and the congruence geodesic one ``eigh`` of its resolvent
    for both the cone test and the inverse."""

    def test_bkm_tail_eig_calls(self, eig_calls):
        rho_from, rho_to = random_density(6, 64), random_density(6, 65)
        eig_calls.clear()
        geometry._geodesic_tail("bkm", rho_from, rho_to)
        # rho_to, whose spectrum gives log rho_to and dexp there, then logm
        # of rho_from
        assert eig_calls == [("eigh", (6, 6))] * 2

    def test_congruence_geodesic_eig_calls(self, eig_calls):
        rho1, rho2 = random_density(6, 66), random_density(6, 67)
        eig_calls.clear()
        geometry.e_geodesic("congruence", rho1, rho2, 0.3)
        # the two endpoint checks, the two inverses, then the resolvent
        assert eig_calls == [("eigvalsh", (6, 6))] * 2 + [("eigh", (6, 6))] * 3


class TestSldTailFromInverseMean:
    """The SLD tail and geodesic take K = rho_from^{-1} # rho_to from
    ``linalg.inverse_mean``: two ``eigh``, no argument checks."""

    def test_tail_eig_calls(self, eig_calls):
        rho_from, rho_to = random_density(6, 60), random_density(6, 61)
        eig_calls.clear()
        geometry._geodesic_tail("sld", rho_from, rho_to)
        # inverse_mean (rho_from, then the middle factor), then logm of K
        assert eig_calls == [("eigh", (6, 6))] * 3

    def test_geodesic_eig_calls(self, eig_calls):
        rho1, rho2 = random_density(6, 62), random_density(6, 63)
        eig_calls.clear()
        geometry.e_geodesic("sld", rho1, rho2, 0.3)
        # the two endpoint checks, inverse_mean, then the power of K
        assert sorted(eig_calls) == [("eigh", (6, 6))] * 3 + [("eigvalsh", (6, 6))] * 2

    def test_tail_matches_reference_mean(self):
        for seed in range(5):
            rho_from, rho_to = random_density(6, 70 + 2 * seed), random_density(6, 71 + 2 * seed)
            e, _ = geometry._geodesic_tail("sld", rho_from, rho_to)
            k = oracles.geometric_mean_ref(linalg.invm(rho_from), rho_to)
            want = 2.0 * linalg.logm(k)
            want -= np.trace(rho_to @ want).real * np.eye(6)
            assert np.abs(e - want).max() <= 1e-10 * max(1.0, np.abs(want).max())
