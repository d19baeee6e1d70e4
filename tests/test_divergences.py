import numpy as np
import pytest

from opsinkhorn import channels, linalg, scaling
from opsinkhorn.divergences import central_difference_quotient, central_difference_quotients, divergence
from opsinkhorn.errors import DomainError, InvalidInputError, SingularityError, UnsupportedError
from opsinkhorn.reference import reference_direction, reference_rho0

import oracles

QUANTUM_TAGS = ("umegaki", "bs", "burg", "renyi_half", "nagaoka")


def random_density(d, seed):
    return channels.random_density(d, np.random.default_rng(seed))


class TestDivergenceValues:
    @pytest.mark.parametrize("tag", QUANTUM_TAGS)
    def test_vanishes_at_equal_states(self, tag):
        rho = random_density(3, 1)
        assert abs(divergence(tag, rho, rho)) <= 1e-10

    def test_kl_vanishes_at_equal_arrays(self):
        a = np.array([[0.2, 0.3], [0.1, 0.4]])
        assert abs(divergence("kl", a, a)) <= 1e-12

    def test_umegaki_two_level_example(self):
        rho = np.diag([0.5, 0.5])
        sigma = np.diag([0.25, 0.75])
        expected = 0.5 * np.log(2.0) + 0.5 * np.log(2.0 / 3.0)
        assert abs(divergence("umegaki", rho, sigma) - expected) <= 1e-12

    def test_nagaoka_equals_kl_for_commuting_states(self):
        p = np.array([0.5, 0.3, 0.2])
        q = np.array([0.3, 0.4, 0.3])
        val = divergence("nagaoka", np.diag(p), np.diag(q))
        assert abs(val - float(np.sum(p * np.log(p / q)))) <= 1e-10

    def test_diagonal_reduction_to_classical_kl(self):
        p = np.array([0.4, 0.35, 0.25])
        q = np.array([0.25, 0.45, 0.3])
        kl = float(np.sum(p * np.log(p / q)))
        for tag in ("umegaki", "bs", "nagaoka"):
            assert abs(divergence(tag, np.diag(p), np.diag(q)) - kl) <= 1e-10
        assert divergence("renyi_half", np.diag(p), np.diag(q)) >= 0.0

    @pytest.mark.parametrize("tag", QUANTUM_TAGS)
    def test_nonnegative_on_random_states(self, tag):
        for seed in range(100):
            rho = random_density(3, 2 * seed)
            sigma = random_density(3, 2 * seed + 1)
            assert divergence(tag, rho, sigma) >= -1e-10

    @pytest.mark.parametrize("tag", QUANTUM_TAGS)
    def test_positive_on_distinct_states(self, tag):
        rho = random_density(3, 100)
        sigma = random_density(3, 101)
        assert divergence(tag, rho, sigma) > 1e-4

    def test_burg_scalar_multiples(self):
        rng = np.random.default_rng(5)
        s = channels.random_density(3, rng)
        for c in rng.uniform(0.2, 3.0, size=5):
            want = 3 * (c - np.log(c) - 1.0)
            assert abs(divergence("burg", c * s, s) - want) <= 1e-10

    def test_burg_accepts_general_pd(self):
        rng = np.random.default_rng(6)
        s = 2.5 * channels.random_density(3, rng)
        t = 0.7 * channels.random_density(3, rng)
        assert np.isfinite(divergence("burg", s, t))

    @pytest.mark.parametrize("tag", ("umegaki", "bs", "renyi_half", "nagaoka"))
    def test_state_tags_warn_off_manifold(self, tag):
        rho = random_density(3, 7)
        with pytest.warns(UserWarning):
            divergence(tag, 1.001 * rho, rho)

    def test_measured_entropy_unsupported(self):
        rho = random_density(2, 8)
        with pytest.raises(UnsupportedError):
            divergence("measured", rho, rho)

    def test_unknown_tag(self):
        rho = random_density(2, 9)
        with pytest.raises(InvalidInputError):
            divergence("tsallis", rho, rho)

    def test_kl_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            divergence("kl", np.array([[0.5, 0.0], [0.2, 0.3]]), np.full((2, 2), 0.25))


def conditioned_density(d, cond, rng):
    """Density matrix with eigenvalues spaced geometrically over ``cond``,
    in a random unitary basis."""
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    u, _ = np.linalg.qr(g)
    w = np.geomspace(1.0, 1.0 / cond, d)
    return linalg.hermitian_part((u * (w / w.sum())) @ u.conj().T)


def nagaoka_ref(rho, sigma):
    """2 tr[rho log(rho # sigma^{-1})] with the textbook mean of rho and
    the inverse of sigma."""
    mean = oracles.geometric_mean_ref(rho, linalg.invm(sigma))
    return float(2.0 * np.trace(rho @ linalg.logm(mean)).real)


class TestNagaoka:
    @pytest.mark.parametrize("d", [2, 3, 4, 6])
    @pytest.mark.parametrize("cond", [None, 1e1, 1e2, 1e3])
    def test_matches_textbook_mean(self, d, cond):
        rng = np.random.default_rng(300 + 7 * d + (0 if cond is None else int(np.log10(cond))))
        for _ in range(8):
            if cond is None:
                rho, sigma = channels.random_density(d, rng), channels.random_density(d, rng)
            else:
                rho, sigma = conditioned_density(d, cond, rng), conditioned_density(d, cond, rng)
            want = nagaoka_ref(rho, sigma)
            # condition of the middle factor rho^{-1/2} sigma^{-1} rho^{-1/2},
            # whose square root both means take
            root = linalg.sqrtm(sigma)
            kappa = np.linalg.cond(root @ rho @ root)
            allowed = 1e-12 * max(1.0, kappa / 100) * max(1.0, abs(want))
            assert abs(divergence("nagaoka", rho, sigma) - want) <= allowed

    def test_eig_calls(self, eig_calls):
        rng = np.random.default_rng(310)
        rho, sigma = channels.random_density(4, rng), channels.random_density(4, rng)
        eig_calls.clear()
        divergence("nagaoka", rho, sigma)
        # the two argument checks, then sigma^{-1} # rho from two eigh and
        # the logarithm from one
        assert sorted(eig_calls) == [("eigh", (4, 4))] * 3 + [("eigvalsh", (4, 4))] * 2


class TestKlRowProjection:
    def test_row_normalization_minimizes_kl(self):
        # the row-normalized matrix is the KL projection onto fixed row sums
        rng = np.random.default_rng(11)
        a = rng.uniform(0.1, 1.0, size=(3, 3))
        a /= a.sum()
        m = a.shape[0]
        row_normalized = a / (m * a.sum(axis=1, keepdims=True))
        oracle = oracles.kl_projection_row_sums(a, 1.0 / m)
        np.testing.assert_allclose(row_normalized, oracle, atol=1e-6)
        assert divergence("kl", row_normalized, a) <= divergence("kl", oracle, a) + 1e-8


class TestCentralDifferenceQuotient:
    def test_zero_direction(self):
        rho = random_density(4, 20)
        sigma = random_density(4, 21)
        val = central_difference_quotient("bs", rho, sigma, np.zeros((4, 4)), 1e-3)
        assert val == 0.0

    def test_antisymmetric_in_direction(self):
        trace = scaling.operator_sinkhorn(
            channels.random_choi(2, 2, np.random.default_rng(22)),
            scaling.ScalingConfig(tol=1e-12),
        )
        rho_star = trace.final.matrix
        rho_0 = trace.iterates[0]
        rng = np.random.default_rng(23)
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        a = (g + g.conj().T) / 2
        a -= np.trace(a).real / 4 * np.eye(4)
        plus = central_difference_quotient("bs", rho_star, rho_0, a, 1e-4)
        minus = central_difference_quotient("bs", rho_star, rho_0, -a, 1e-4)
        assert abs(plus + minus) <= 1e-9

    def test_requires_traceless_direction(self):
        rho = random_density(4, 24)
        with pytest.raises(InvalidInputError):
            central_difference_quotient("bs", rho, rho, np.eye(4), 1e-4)

    def test_partial_trace_check(self):
        rho = random_density(4, 25)
        bad = np.diag([1.0, -1.0, 1.0, -1.0])  # traceless but tr_first != 0
        with pytest.raises(InvalidInputError):
            central_difference_quotient("bs", rho, rho, bad, 1e-6, n=2, m=2)

    @pytest.mark.parametrize("dims", [{"n": 2}, {"m": 2}])
    def test_one_block_dimension_alone_is_an_error(self, dims):
        # without both, the partial-trace check would be skipped, and this
        # direction, traceless but with tr_first != 0, would get a quotient
        rho = random_density(4, 25)
        bad = np.diag([1.0, -1.0, 1.0, -1.0])
        assert np.isfinite(central_difference_quotients("bs", rho, rho, bad, [1e-6]))[0]
        with pytest.raises(InvalidInputError, match="both block dimensions n and m or neither"):
            central_difference_quotients("bs", rho, rho, bad, [1e-6], **dims)
        with pytest.raises(InvalidInputError, match="both block dimensions n and m or neither"):
            central_difference_quotient("bs", rho, rho, bad, 1e-6, **dims)

    @pytest.mark.parametrize("n", [2.0, True, 0, "2"])
    def test_block_dimension_must_be_a_positive_int(self, n):
        rho = random_density(4, 26)
        direction = np.diag([1.0, -1.0, -1.0, 1.0])
        with pytest.raises(InvalidInputError, match="block dimension n must be an int of at least 1"):
            central_difference_quotients("bs", rho, rho, direction, [1e-6], n=n, m=2)
        with pytest.raises(InvalidInputError, match="block dimension m must be an int of at least 1"):
            central_difference_quotient("bs", rho, rho, direction, 1e-6, n=2, m=n)

    def test_cone_exit_reports_critical_step(self):
        rho = np.diag([0.4, 0.3, 0.2, 0.1])
        direction = np.diag([1.0, -1.0, -1.0, 1.0])
        with pytest.raises(DomainError, match="critical h"):
            central_difference_quotient("bs", rho, rho, direction, 0.5)

    def test_kl_requires_diagonal_states(self):
        rho = random_density(4, 26)
        direction = np.diag([1.0, -1.0, -1.0, 1.0])
        with pytest.raises(DomainError):
            central_difference_quotient("kl", rho, rho, direction, 1e-6)

    def test_kl_equals_bs_on_diagonal_case(self):
        rng = np.random.default_rng(27)
        p = rng.uniform(0.1, 1.0, size=4)
        p /= p.sum()
        q = rng.uniform(0.1, 1.0, size=4)
        q /= q.sum()
        rho_star, rho_0 = np.diag(p), np.diag(q)
        direction = np.diag([1.0, -1.0, -1.0, 1.0])
        for h in (1e-2, 1e-4, 1e-6):
            bs = central_difference_quotient("bs", rho_star, rho_0, direction, h)
            kl = central_difference_quotient("kl", rho_star, rho_0, direction, h)
            assert abs(bs - kl) <= 1e-10


class TestStackedDivergence:
    @pytest.mark.parametrize("tag", QUANTUM_TAGS)
    @pytest.mark.parametrize("d", [2, 4, 9])
    def test_each_value_is_the_2d_call(self, tag, d):
        rng = np.random.default_rng(700 + d)
        rhos = np.stack([channels.random_density(d, rng) for _ in range(6)])
        sigmas = np.stack([channels.random_density(d, rng) for _ in range(6)])
        both = divergence(tag, rhos, sigmas)
        against_one = divergence(tag, rhos, sigmas[0])
        one_against = divergence(tag, rhos[0], sigmas)
        assert both.shape == against_one.shape == one_against.shape == (6,)
        for k in range(6):
            assert both[k] == divergence(tag, rhos[k], sigmas[k])
            assert against_one[k] == divergence(tag, rhos[k], sigmas[0])
            assert one_against[k] == divergence(tag, rhos[0], sigmas[k])
        assert isinstance(divergence(tag, rhos[0], sigmas[0]), float)

    def test_stack_checks(self):
        rng = np.random.default_rng(710)
        rhos = np.stack([channels.random_density(3, rng) for _ in range(3)])
        with pytest.raises(InvalidInputError, match="shape mismatch"):
            divergence("bs", rhos, rhos[:2])
        with pytest.raises(InvalidInputError, match="shape mismatch"):
            divergence("bs", rhos, np.eye(2) / 2)
        bad = rhos.copy()
        bad[1] = np.diag([1.0, 0.0, 0.0])
        with pytest.raises(SingularityError, match="first argument"):
            divergence("umegaki", bad, rhos)
        with pytest.warns(UserWarning, match="off the state manifold"):
            divergence("umegaki", rhos * np.array([1.0, 1.0, 2.0])[:, None, None], rhos)


def quotient_case(tag: str):
    """(rho*, rho0, direction, n, m): the Sinkhorn limit of the paper's
    input, or of a diagonal input for ``kl``."""
    if tag == "kl":
        a = np.array([[0.1, 0.3], [0.2, 0.4]])
        choi = oracles_diagonal_choi(a)
        direction = np.diag([1.0, -1.0, -1.0, 1.0])
    else:
        choi = reference_rho0()
        direction = reference_direction()
    trace = scaling.operator_sinkhorn(choi, scaling.ScalingConfig())
    return trace.final.matrix, choi.matrix, direction, choi.n, choi.m


def oracles_diagonal_choi(a: np.ndarray) -> channels.ChoiMatrix:
    m, n = a.shape
    mat = np.zeros((n * m, n * m), dtype=complex)
    for j in range(n):
        for i in range(m):
            mat[j * m + i, j * m + i] = a[i, j]
    return channels.ChoiMatrix(n=n, m=m, matrix=mat)


# the CLI's default grid, h = 2^-5 .. 2^-40, behind four steps that leave
# the positive cone on every case below
GRID = (8.0, 4.0, 2.0, 1.0) + tuple(2.0 ** (-k) for k in range(5, 41))


class TestCentralDifferenceQuotients:
    @pytest.mark.parametrize("tag", ["bs", "nagaoka", "umegaki", "renyi_half", "burg", "kl"])
    def test_equals_the_per_h_reference(self, tag):
        rho_star, rho_0, direction, n, m = quotient_case(tag)
        got = central_difference_quotients(tag, rho_star, rho_0, direction, GRID, n=n, m=m)
        assert got.shape == (len(GRID),)
        exits = 0
        for h, value in zip(GRID, got):
            try:
                want = oracles.central_difference_quotient_ref(tag, rho_star, rho_0, direction, h, n=n, m=m)
            except DomainError:
                exits += 1
                assert np.isnan(value)
                continue
            assert value == want
            assert central_difference_quotient(tag, rho_star, rho_0, direction, h, n=n, m=m) == want
        assert exits == 4

    def test_input_errors_do_not_depend_on_h(self):
        rho = random_density(4, 720)
        direction = np.diag([1.0, -1.0, -1.0, 1.0])
        # every h leaves the cone, yet the non-diagonal kl input is the error
        with pytest.raises(DomainError, match="diagonal"):
            central_difference_quotients("kl", rho, rho, direction, [100.0, 50.0])
        with pytest.raises(InvalidInputError, match="positive"):
            central_difference_quotients("bs", rho, rho, direction, [1e-3, 0.0])
        with pytest.raises(InvalidInputError, match="unknown divergence tag"):
            central_difference_quotients("nope", rho, rho, direction, [100.0])
        # a bad reference point, even when no probe is inside the cone
        with pytest.raises(SingularityError, match="reference point"):
            central_difference_quotients("bs", rho, np.diag([0.5, 0.5, 0.0, 0.0]), direction, [100.0])
        with pytest.raises(InvalidInputError, match="shape mismatch"):
            central_difference_quotients("bs", rho, np.eye(2) / 2, direction, [100.0])
        with pytest.raises(UnsupportedError):
            central_difference_quotient("measured", rho, rho, direction, 1e-3)

    def test_all_cone_exits_and_empty_grid(self):
        rho = np.diag([0.4, 0.3, 0.2, 0.1])
        direction = np.diag([1.0, -1.0, -1.0, 1.0])
        assert np.isnan(central_difference_quotients("bs", rho, rho, direction, [0.5, 0.2])).all()
        assert central_difference_quotients("bs", rho, rho, direction, []).shape == (0,)

    @pytest.mark.parametrize("tag", ["kl", *QUANTUM_TAGS])
    def test_probe_at_rounded_critical_step_is_a_cone_exit(self, tag):
        # the critical step here is 0.1 in exact arithmetic but rounds to
        # just above it, so h = 0.1 passes h < h_max while rho - hA is
        # singular: that row is NaN, and the other rows are the ones a grid
        # without it gives, bit for bit
        rho = np.diag([0.4, 0.3, 0.2, 0.1])
        direction = np.diag([1.0, -1.0, -1.0, 1.0])
        got = central_difference_quotients(tag, rho, rho, direction, [0.2, 0.1, 0.05])
        assert np.isnan(got[:2]).all()
        want = central_difference_quotients(tag, rho, rho, direction, [0.05])
        assert np.isfinite(want[0]) and got[2] == want[0]
        assert got[2] == oracles.central_difference_quotient_ref(tag, rho, rho, direction, 0.05)
        with pytest.raises(DomainError, match="critical h"):
            central_difference_quotient(tag, rho, rho, direction, 0.1)
