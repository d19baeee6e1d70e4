"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline.
"""

import json
import time

import numpy as np

from opsinkhorn import channels, divergences, geometry, linalg, scaling
from opsinkhorn.channels import ChoiMatrix
from opsinkhorn.cli import main as cli_main
from opsinkhorn.geometry import ConstraintSet, TangentVector
from opsinkhorn.reference import reference_direction, reference_rho0

import oracles
from oracles import choi_diagonal_to_matrix, diagonal_choi

GOLDEN_SLD = np.array(
    [
        [0.2386 + 0.0000j, -0.0545 + 0.0790j, 0.0803 - 0.0070j, 0.1130 - 0.0568j],
        [-0.0545 - 0.0790j, 0.2614 + 0.0000j, 0.1484 - 0.0409j, -0.0803 + 0.0070j],
        [0.0803 + 0.0070j, 0.1484 + 0.0409j, 0.2614 - 0.0000j, 0.0545 - 0.0790j],
        [0.1130 + 0.0568j, -0.0803 - 0.0070j, 0.0545 + 0.0790j, 0.2386 - 0.0000j],
    ]
)

GOLDEN_BKM = np.array(
    [
        [0.2363 + 0.0000j, -0.0601 + 0.0694j, 0.0700 - 0.0039j, 0.1215 - 0.0405j],
        [-0.0601 - 0.0694j, 0.2637 + 0.0000j, 0.1535 - 0.0279j, -0.0700 + 0.0039j],
        [0.0700 + 0.0039j, 0.1535 + 0.0279j, 0.2637 + 0.0000j, 0.0601 - 0.0694j],
        [0.1215 + 0.0405j, -0.0700 - 0.0039j, 0.0601 + 0.0694j, 0.2363 + 0.0000j],
    ]
)

GOLDEN_BURG = np.array(
    [
        [0.2154 + 0.0000j, -0.0861 + 0.0094j, 0.0126 - 0.0150j, 0.1484 + 0.0278j],
        [-0.0861 - 0.0094j, 0.2846 + 0.0000j, 0.2196 + 0.0537j, -0.0126 + 0.0150j],
        [0.0126 + 0.0150j, 0.2196 - 0.0537j, 0.2853 + 0.0000j, 0.0918 - 0.0096j],
        [0.1484 - 0.0278j, -0.0126 - 0.0150j, 0.0918 + 0.0096j, 0.2147 + 0.0000j],
    ]
)


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} {name}: {status}{suffix}")
    assert ok, f"criterion {number} ({name}) failed{suffix}"


def test_criterion_1_golden_sld_reproduction(capsys):
    start = time.perf_counter()
    code = cli_main(["scale", "--paper-rho0", "--method", "sld", "--max-iters", "200"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    summary = json.loads(out)
    matrix = np.array(summary["matrix"]["re"]) + 1j * np.array(summary["matrix"]["im"])
    gap = float(np.abs(matrix - GOLDEN_SLD).max())
    with capsys.disabled():
        report(
            1,
            "golden SLD reproduction",
            code == 0 and gap <= 5e-3 and elapsed < 1.0,
            f"max entry gap {gap:.2e}, {elapsed:.2f}s",
        )


def test_criterion_2_golden_bkm_burg_reproduction(capsys):
    start = time.perf_counter()
    cfg = scaling.ScalingConfig(max_iters=200, tol=1e-8)
    finals = {
        method: scaling.alternating_projections(method, reference_rho0(), cfg).final.matrix
        for method in ("sld", "bkm", "burg")
    }
    elapsed = time.perf_counter() - start
    gap_bkm = float(np.abs(finals["bkm"] - GOLDEN_BKM).max())
    gap_burg = float(np.abs(finals["burg"] - GOLDEN_BURG).max())
    pairwise = min(
        float(np.abs(finals[a] - finals[b]).max())
        for a in finals
        for b in finals
        if a < b
    )
    ok = gap_bkm <= 5e-3 and gap_burg <= 5e-3 and pairwise > 1e-2 and elapsed < 30.0
    with capsys.disabled():
        report(
            2,
            "golden BKM/BURG reproduction",
            ok,
            f"bkm {gap_bkm:.2e}, burg {gap_burg:.2e}, min pairwise {pairwise:.2e}, {elapsed:.1f}s",
        )


def test_criterion_3_orthogonality_certificates(capsys):
    worst_sld = 0.0
    worst_dual = 0.0
    instance = 0
    for n, m in ((2, 2), (2, 3)):
        p, q = np.eye(m) / m, np.eye(n) / n
        for k in range(25):
            rng = np.random.default_rng(1000 + instance)
            instance += 1
            choi = channels.random_choi(n, m, rng)
            current = choi
            for _ in range(2):
                for side, target in (("first", p), ("second", q)):
                    stepped, _ = scaling.operator_sinkhorn_step(current, side, target)
                    res = geometry.orthogonality_residual(
                        "sld", current, stepped, ConstraintSet(side, target)
                    )
                    worst_sld = max(worst_sld, res)
                    current = stepped
            bkm_proj, _ = scaling.bkm_e_projection(choi, ConstraintSet("first", p))
            worst_dual = max(
                worst_dual,
                geometry.orthogonality_residual("bkm", choi, bkm_proj, ConstraintSet("first", p)),
            )
            burg_proj, _ = scaling.burg_e_projection(choi, ConstraintSet("second", q))
            worst_dual = max(
                worst_dual,
                geometry.orthogonality_residual(
                    "congruence", choi, burg_proj, ConstraintSet("second", q)
                ),
            )
    ok = worst_sld <= 1e-8 and worst_dual <= 1e-6
    with capsys.disabled():
        report(
            3,
            "orthogonality certificates",
            ok,
            f"max SLD residual {worst_sld:.2e}, max BKM/BURG residual {worst_dual:.2e}",
        )


def _conditioned_choi(seed: int, bound: float = 1e3) -> ChoiMatrix:
    """Random Choi state with condition number below ``bound``.

    The identity under test involves tr(tau rho0^{-1}), whose value is only
    determined to about eps * cond(rho0)^2 from double precision inputs, so
    ill-conditioned draws cannot certify anything at a 1e-8 absolute
    tolerance regardless of the solver.
    """
    while True:
        choi = channels.random_choi(2, 2, np.random.default_rng(seed))
        w = np.linalg.eigvalsh(choi.matrix)
        if w[-1] / w[0] <= bound:
            return choi
        seed += 100_000


def test_criterion_4_pythagorean_identities(capsys):
    worst = 0.0
    constraint = ConstraintSet("first", np.eye(2) / 2)
    for pair in range(20):
        rho0 = _conditioned_choi(2000 + pair)
        tau, _ = scaling.operator_sinkhorn_step(
            _conditioned_choi(3000 + pair), "first", np.eye(2) / 2
        )
        for method, tag in (
            (scaling.bkm_e_projection, "umegaki"),
            (scaling.burg_e_projection, "burg"),
        ):
            projected, _ = method(rho0, constraint)
            lhs = divergences.divergence(tag, tau.matrix, rho0.matrix)
            rhs = divergences.divergence(tag, tau.matrix, projected.matrix) + divergences.divergence(
                tag, projected.matrix, rho0.matrix
            )
            worst = max(worst, abs(lhs - rhs))
    with capsys.disabled():
        report(4, "Pythagorean identities", worst <= 1e-8, f"max defect {worst:.2e}")


def test_criterion_5_classical_reduction(capsys):
    worst_iterate = 0.0
    worst_capacity = 0.0
    for seed, dim in ((40, 2), (41, 3)):
        rng = np.random.default_rng(seed)
        a = rng.uniform(0.1, 1.0, size=(dim, dim))
        a /= a.sum()
        cfg = scaling.ScalingConfig(max_iters=5000, tol=1e-22)
        op = scaling.operator_sinkhorn(diagonal_choi(a), cfg)
        cl = scaling.matrix_sinkhorn(a, cfg)
        sweeps = min(len(op.iterates), len(cl.iterates))
        for k in range(sweeps):
            embedded = choi_diagonal_to_matrix(ChoiMatrix(n=dim, m=dim, matrix=op.iterates[k]))
            worst_iterate = max(worst_iterate, float(np.abs(embedded - cl.iterates[k]).max()))
        neg_log_cap = -np.log(scaling.capacity_from_trace(op))
        min_kl, _ = oracles.min_kl_doubly_stochastic(a)
        worst_capacity = max(worst_capacity, abs(neg_log_cap - min_kl))
    ok = worst_iterate <= 1e-10 and worst_capacity <= 1e-6
    with capsys.disabled():
        report(
            5,
            "classical reduction",
            ok,
            f"max iterate gap {worst_iterate:.2e}, capacity vs min-KL {worst_capacity:.2e}",
        )


def test_criterion_6_difference_quotient_behavior(capsys):
    start = time.perf_counter()
    h_grid = [2.0 ** (-k) for k in range(5, 41)]
    direction = reference_direction()

    # diagonal (matrix-scaling) case: the quotient decays below 1e-3
    rng = np.random.default_rng(42)
    a = rng.uniform(0.2, 1.0, size=(2, 2))
    a /= a.sum()
    diag = diagonal_choi(a)
    diag_trace = scaling.operator_sinkhorn(diag, scaling.ScalingConfig(max_iters=3000, tol=1e-20))
    diag_max = max(
        abs(
            divergences.central_difference_quotient(
                "bs", diag_trace.final.matrix, diag.matrix, direction, h, n=2, m=2
            )
        )
        for h in h_grid
        if h <= 1e-3
    )

    # reference (non-diagonal) case: the quotient stays away from zero
    ref = reference_rho0()
    ref_trace = scaling.operator_sinkhorn(ref, scaling.ScalingConfig(max_iters=3000, tol=1e-20))
    ref_min = min(
        abs(
            divergences.central_difference_quotient(
                "bs", ref_trace.final.matrix, ref.matrix, direction, h, n=2, m=2
            )
        )
        for h in h_grid
    )
    elapsed = time.perf_counter() - start
    ok = diag_max < 1e-3 and ref_min > 1e-3 and elapsed < 10.0
    with capsys.disabled():
        report(
            6,
            "difference quotient behavior",
            ok,
            f"diagonal max {diag_max:.2e}, reference min {ref_min:.2e}, {elapsed:.1f}s",
        )


def test_criterion_7_capacity_scatter(capsys):
    start = time.perf_counter()
    gaps = []
    cap_errors = []
    for trial in range(30):
        rng = np.random.default_rng(trial)
        choi = channels.random_choi(2, 2, rng)
        trace = scaling.operator_sinkhorn(choi, scaling.ScalingConfig(max_iters=2000, tol=1e-8))
        assert trace.converged
        cap = scaling.capacity_from_trace(trace)
        d_u = divergences.divergence("umegaki", trace.final.matrix, choi.matrix)
        gaps.append(abs(d_u - (-np.log(cap))))
        if trial < 10:
            oracle = oracles.capacity_bruteforce(choi, rng=trial, restarts=20)
            cap_errors.append(abs(cap - oracle))
    mean_gap = float(np.mean(gaps))
    worst_cap = max(cap_errors)
    elapsed = time.perf_counter() - start
    ok = mean_gap > 1e-2 and worst_cap <= 1e-4 and elapsed < 120.0
    with capsys.disabled():
        report(
            7,
            "capacity scatter",
            ok,
            f"mean Umegaki gap {mean_gap:.3f}, max oracle error {worst_cap:.2e}, {elapsed:.1f}s",
        )


def test_criterion_8_numerical_kernel_oracles(capsys):
    checks = []

    # Lyapunov solver against the vectorized linear solve
    worst = 0.0
    for dim in (2, 3, 4):
        rng = np.random.default_rng(50 + dim)
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        a = g @ g.conj().T / dim + 0.2 * np.eye(dim)
        qraw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        q = (qraw + qraw.conj().T) / 2
        x = linalg.solve_lyapunov(a, q)
        worst = max(worst, float(np.abs(x - oracles.lyapunov_vectorized(a, q)).max()))
    checks.append(("lyapunov vs vectorized", worst, 1e-9))

    # geometric mean Riccati residual
    rng = np.random.default_rng(60)
    worst = 0.0
    for _ in range(5):
        g1 = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        g2 = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        a = g1 @ g1.conj().T / 3 + 0.2 * np.eye(3)
        b = g2 @ g2.conj().T / 3 + 0.2 * np.eye(3)
        x = linalg.geometric_mean(a, b)
        res = np.linalg.norm(x @ linalg.invm(a) @ x - b) / (1.0 + np.linalg.norm(b))
        worst = max(worst, float(res))
    checks.append(("geometric mean Riccati", worst, 1e-9))

    # geodesic endpoint exactness
    r1 = channels.random_density(4, np.random.default_rng(61))
    r2 = channels.random_density(4, np.random.default_rng(62))
    worst = 0.0
    for tag in geometry.METRICS:
        worst = max(worst, float(np.abs(geometry.e_geodesic(tag, r1, r2, 0.0) - r1).max()))
        worst = max(worst, float(np.abs(geometry.e_geodesic(tag, r1, r2, 1.0) - r2).max()))
    checks.append(("geodesic endpoints", worst, 1e-10))

    # SLD geodesic autoparallelism via e-parallel transport
    h = 1e-5

    def curve(s):
        return geometry.e_geodesic("sld", r1, r2, s)

    def e_rep_at(s):
        m_rep = oracles.matrix_central_difference(curve, s, h)
        m_rep = (m_rep + m_rep.conj().T) / 2
        m_rep -= np.trace(m_rep).real / 4 * np.eye(4)
        return geometry.sld_e_rep(TangentVector(base=curve(s), m_rep=m_rep))

    e0 = e_rep_at(0.0)
    worst = 0.0
    for t in (0.25, 0.5, 0.75):
        transported = geometry.sld_parallel_transport(e0, curve(t))
        worst = max(worst, float(np.abs(transported - e_rep_at(t)).max()))
    checks.append(("SLD autoparallel transport", worst, 1e-8))

    # BKM dual gradient against finite differences
    choi = channels.random_choi(2, 2, np.random.default_rng(63))
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

    a0 = np.array([[0.2, -0.1 + 0.15j], [-0.1 - 0.15j, 0.05]])
    grad = dual_gradient(a0)
    worst = max(
        abs(np.trace(grad @ b).real - oracles.central_difference(lambda t: dual_value(a0 + t * b), 0.0, 1e-6))
        for b in oracles.hermitian_basis(2)
    )
    checks.append(("BKM dual gradient", float(worst), 1e-6))

    ok = all(value <= bound for _, value, bound in checks)
    detail = "; ".join(f"{name} {value:.2e} (<= {bound:.0e})" for name, value, bound in checks)
    with capsys.disabled():
        report(8, "numerical kernel oracles", ok, detail)
