"""Sinkhorn scaling drivers and alternating e-projection solvers.

The operator Sinkhorn algorithm alternately renormalizes the two partial
traces of a Choi matrix by congruence with geometric-mean factors:

    left step:   rho <- (I_n kron L) rho (I_n kron L),  L = (tr_first rho)^{-1} # P
    right step:  rho <- (R kron I_m) rho (R kron I_m),  R = (tr_second rho)^{-1} # Q

For the doubly stochastic targets P = I/m, Q = I/n the factors reduce to the
classical (tr rho)^{-1/2}/sqrt(dim) normalizations.  Each left (right) step
lands exactly on the constraint set {tr_first rho = P} ({tr_second rho = Q})
and is the e-projection onto it in the SLD geometry.

Two further alternating projection schemes minimize the Umegaki relative
entropy (``bkm``) and the Burg divergence (``burg``) over the same constraint
sets; they are dually-flat e-projections with closed dual characterizations
solved here by first-order (Barzilai-Borwein) and damped Newton methods.

A run is summarized by a :class:`ScalingTrace` which records the iterates,
the scaling factors, the per-sweep stopping-criterion residuals

    ||tr_first rho - P||_F^2 + ||tr_second rho - Q||_F^2

and, for square doubly stochastic runs, the accumulated log-determinant
product that determines the capacity of the input map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import optimize

from . import linalg
from .channels import ChoiMatrix, apply_map, as_density, congruence
from .errors import ConvergenceError, DomainError, InvalidInputError, UnsupportedError
from .geometry import ConstraintSet, dexp_frechet
from .policy import get_policy

__all__ = [
    "ScalingConfig",
    "ScalingTrace",
    "MatrixScalingTrace",
    "matrix_sinkhorn",
    "operator_sinkhorn_step",
    "operator_sinkhorn",
    "bkm_e_projection",
    "burg_e_projection",
    "alternating_projections",
    "capacity_from_trace",
    "capacity_bruteforce",
]

METHODS = ("sld", "bkm", "burg")


@dataclass(frozen=True)
class ScalingConfig:
    """Iteration budget, stopping tolerance and marginal targets.

    ``max_iters`` counts sweeps (one left plus one right step).  ``tol`` is
    compared against the squared-Frobenius stopping criterion; ``tol=0``
    disables early stopping so a run executes exactly ``max_iters`` sweeps.
    ``target_p`` / ``target_q`` default to I/m and I/n.
    """

    max_iters: int = 200
    tol: float = 1e-8
    target_p: np.ndarray | None = None
    target_q: np.ndarray | None = None

    def __post_init__(self):
        if self.max_iters < 0:
            raise InvalidInputError("max_iters must be nonnegative")
        if self.tol < 0:
            raise InvalidInputError("tol must be nonnegative")

    def targets(self, n: int, m: int) -> tuple[np.ndarray, np.ndarray]:
        p = np.eye(m) / m if self.target_p is None else as_density(self.target_p, "target P")
        q = np.eye(n) / n if self.target_q is None else as_density(self.target_q, "target Q")
        if p.shape != (m, m) or q.shape != (n, n):
            raise InvalidInputError(f"targets must be {m} x {m} and {n} x {n}")
        return p, q

    def doubly_stochastic(self, n: int, m: int) -> bool:
        p, q = self.targets(n, m)
        return (
            np.abs(p - np.eye(m) / m).max() <= 1e-12
            and np.abs(q - np.eye(n) / n).max() <= 1e-12
        )


@dataclass
class ScalingTrace:
    """Record of an alternating projection run on a Choi matrix."""

    method: str
    n: int
    m: int
    tol: float
    target_p: np.ndarray
    target_q: np.ndarray
    iterates: list[np.ndarray] = field(default_factory=list)
    factors: list[tuple[str, np.ndarray]] = field(default_factory=list)
    residuals: list[float] = field(default_factory=list)
    capacity_log: float = 0.0
    converged: bool = False
    sweeps: int = 0
    preprocessed: bool = False

    @property
    def final(self) -> ChoiMatrix:
        return ChoiMatrix(n=self.n, m=self.m, matrix=self.iterates[-1])

    def doubly_stochastic(self) -> bool:
        return (
            np.abs(self.target_p - np.eye(self.m) / self.m).max() <= 1e-12
            and np.abs(self.target_q - np.eye(self.n) / self.n).max() <= 1e-12
        )


@dataclass
class MatrixScalingTrace:
    """Record of a classical Sinkhorn run on a positive matrix."""

    shape: tuple[int, int]
    tol: float
    iterates: list[np.ndarray] = field(default_factory=list)
    factors: list[tuple[str, np.ndarray]] = field(default_factory=list)
    residuals: list[float] = field(default_factory=list)
    capacity_log: float = 0.0
    converged: bool = False
    sweeps: int = 0

    @property
    def final(self) -> np.ndarray:
        return self.iterates[-1]


def _matrix_residual(a: np.ndarray) -> float:
    m, n = a.shape
    return float(
        np.linalg.norm(a.sum(axis=1) - 1.0 / m) ** 2
        + np.linalg.norm(a.sum(axis=0) - 1.0 / n) ** 2
    )


def matrix_sinkhorn(a0: np.ndarray, cfg: ScalingConfig = ScalingConfig()) -> MatrixScalingTrace:
    """Classical Sinkhorn iteration on an entrywise-positive matrix.

    Alternates row normalization A <- (1/m) Diag(A 1)^{-1} A with column
    normalization A <- (1/n) A Diag(A^T 1)^{-1} until the stopping criterion
    falls below ``cfg.tol`` or the sweep budget runs out.  Row sums are exact
    after every odd step, column sums after every even step.
    """
    a = np.asarray(a0, dtype=float)
    if a.ndim != 2:
        raise InvalidInputError(f"expected a matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)) or np.any(a <= 0):
        raise DomainError("matrix scaling requires strictly positive entries")
    m, n = a.shape
    trace = MatrixScalingTrace(shape=(m, n), tol=cfg.tol)
    trace.iterates.append(a.copy())
    trace.residuals.append(_matrix_residual(a))
    square = m == n
    while trace.residuals[-1] >= cfg.tol and trace.sweeps < cfg.max_iters:
        row = 1.0 / (m * a.sum(axis=1))
        a = a * row[:, None]
        trace.factors.append(("first", np.diag(row)))
        trace.iterates.append(a.copy())
        if square:
            trace.capacity_log += float(np.sum(np.log(row))) / n
        col = 1.0 / (n * a.sum(axis=0))
        a = a * col[None, :]
        trace.factors.append(("second", np.diag(col)))
        trace.iterates.append(a.copy())
        if square:
            trace.capacity_log += float(np.sum(np.log(col))) / n
        trace.sweeps += 1
        trace.residuals.append(_matrix_residual(a))
    trace.converged = trace.residuals[-1] < cfg.tol
    return trace


def _residual(mat: np.ndarray, n: int, m: int, p: np.ndarray, q: np.ndarray) -> float:
    return float(
        np.linalg.norm(linalg.partial_trace(mat, n, m, "first") - p) ** 2
        + np.linalg.norm(linalg.partial_trace(mat, n, m, "second") - q) ** 2
    )


def choi_residual(choi: ChoiMatrix, p: np.ndarray, q: np.ndarray) -> float:
    """Squared-Frobenius marginal mismatch used as the stopping criterion."""
    return _residual(choi.matrix, choi.n, choi.m, p, q)


def _sld_step(
    mat: np.ndarray, n: int, m: int, side: str, target: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """One SLD e-projection on a plain Hermitian PSD array; returns the new
    iterate and the factor.  The marginal must be positive definite, and
    ``geometric_mean`` checks both of its arguments; the congruence by the
    positive definite factor keeps the iterate PSD."""
    if side not in ("first", "second"):
        raise InvalidInputError(f"side must be 'first' or 'second', got {side!r}")
    marginal = linalg.assert_positive_definite(
        linalg.partial_trace(mat, n, m, side), f"{side} marginal"
    )
    factor = linalg.geometric_mean(linalg.invm(marginal), target)
    if side == "first":
        return congruence(mat, n, m, left=factor), factor
    return congruence(mat, n, m, right=factor), factor


def operator_sinkhorn_step(
    choi: ChoiMatrix, side: str, target: np.ndarray
) -> tuple[ChoiMatrix, np.ndarray]:
    """One operator Sinkhorn normalization.

    side "first" applies L = (tr_first rho)^{-1} # target on the inner factor,
    side "second" applies R = (tr_second rho)^{-1} # target on the outer one.
    The corresponding marginal of the result equals the target exactly (up to
    rounding), by the Riccati property of the geometric mean.
    """
    target = as_density(target, "step target")
    mat, factor = _sld_step(choi.matrix, choi.n, choi.m, side, target)
    return ChoiMatrix(n=choi.n, m=choi.m, matrix=mat), factor


def _logdet(a: np.ndarray) -> float:
    return float(np.sum(np.log(np.linalg.eigvalsh(a))))


def _new_trace(method: str, choi0: ChoiMatrix, cfg: ScalingConfig) -> tuple[ScalingTrace, np.ndarray, np.ndarray]:
    tr = float(np.trace(choi0.matrix).real)
    if abs(tr - 1.0) > get_policy().trace_atol:
        raise InvalidInputError(f"initial Choi matrix has trace {tr!r}, expected 1")
    p, q = cfg.targets(choi0.n, choi0.m)
    trace = ScalingTrace(
        method=method, n=choi0.n, m=choi0.m, tol=cfg.tol, target_p=p, target_q=q
    )
    trace.iterates.append(choi0.matrix)
    trace.residuals.append(choi_residual(choi0, p, q))
    return trace, p, q


def operator_sinkhorn(choi0: ChoiMatrix, cfg: ScalingConfig = ScalingConfig()) -> ScalingTrace:
    """Operator Sinkhorn iteration, doubly stochastic or general marginals.

    For non-identity targets the run starts with one preprocessing right step
    with R = (tr_second rho)^{-1} # Q, after which left and right steps
    alternate, left first.  Each recorded step is an SLD e-projection onto
    its constraint set.

    The input needs unit trace and positive definite marginals, but may be
    rank-deficient.  The loop runs on plain arrays: each step checks its
    marginal and factor (both small), and only the final iterate is
    validated as a :class:`ChoiMatrix`.
    """
    trace, p, q = _new_trace("sld", choi0, cfg)
    n, m = choi0.n, choi0.m
    mat = choi0.matrix
    if trace.residuals[0] < cfg.tol:
        trace.converged = True
        return trace
    sweep = (("first", p), ("second", q))
    steps = () if cfg.doubly_stochastic(n, m) else (("second", q),)
    trace.preprocessed = bool(steps)
    while True:
        for side, target in steps:
            mat, factor = _sld_step(mat, n, m, side, target)
            trace.factors.append((side, factor))
            trace.iterates.append(mat)
            if n == m:
                # the congruence multiplies the encoded map by factor twice
                trace.capacity_log += 2.0 * _logdet(factor) / n
        if steps is sweep:
            trace.sweeps += 1
            trace.residuals.append(_residual(mat, n, m, p, q))
        if trace.residuals[-1] < cfg.tol or trace.sweeps >= cfg.max_iters:
            break
        steps = sweep
    trace.converged = trace.residuals[-1] < cfg.tol
    ChoiMatrix(n=n, m=m, matrix=mat)  # validates the returned final iterate
    return trace


def _lift(a: np.ndarray, n: int, m: int, side: str) -> np.ndarray:
    return linalg.kron(np.eye(n), a) if side == "first" else linalg.kron(a, np.eye(m))


def _marginal(mat: np.ndarray, n: int, m: int, side: str) -> np.ndarray:
    return linalg.partial_trace(mat, n, m, side)


def bkm_e_projection(choi0: ChoiMatrix, constraint: ConstraintSet) -> tuple[ChoiMatrix, np.ndarray]:
    """Umegaki relative entropy minimizer over a partial-trace constraint set.

    The minimizer has the exponential-family form
    rho(A) = exp(log rho0 + lift(A)) / Z with a Hermitian dual variable A on
    the constrained factor.  A is found by minimizing the smooth convex dual

        F(A) = log tr exp(log rho0 + lift(A)) - tr(target A)

    whose exact gradient is the marginal mismatch tr_side rho(A) - target.
    Barzilai-Borwein steps with a nonmonotone Armijo backtracking drive the
    gradient below the policy tolerance.  Returns the projected state and
    the dual variable.
    """
    pol = get_policy()
    n, m = choi0.n, choi0.m
    log_rho0 = linalg.logm(as_density(choi0.matrix, "projection source"))
    target = constraint.target
    side = constraint.side
    d = m if side == "first" else n

    def state_of(a: np.ndarray) -> np.ndarray:
        w, v = np.linalg.eigh(linalg.hermitian_part(log_rho0 + _lift(a, n, m, side)))
        ew = np.exp(w - w.max())
        s = linalg.hermitian_part((v * ew) @ v.conj().T)
        return s / np.trace(s).real

    def dual_value(a: np.ndarray) -> float:
        w = np.linalg.eigvalsh(linalg.hermitian_part(log_rho0 + _lift(a, n, m, side)))
        shift = w.max()
        return float(np.log(np.sum(np.exp(w - shift))) + shift - np.trace(target @ a).real)

    def gradient(a: np.ndarray) -> np.ndarray:
        return linalg.hermitian_part(_marginal(state_of(a), n, m, side) - target)

    a = np.zeros((d, d), dtype=complex)
    g = gradient(a)
    step = 1.0
    values = [dual_value(a)]
    grad_norm = linalg.frobenius(g)
    for _ in range(pol.bkm_max_iters):
        if grad_norm <= pol.bkm_gradient_tol:
            break
        step = min(max(step, 1e-12), 1e12)
        reference = max(values[-10:])
        while step > 1e-12:
            candidate = a - step * g
            value = dual_value(candidate)
            if value <= reference - 1e-4 * step * grad_norm**2:
                break
            step /= 2.0
        else:
            candidate = a - 1e-12 * g
            value = dual_value(candidate)
        g_new = gradient(candidate)
        da = candidate - a
        dg = g_new - g
        curvature = np.vdot(da, dg).real
        step = float(np.vdot(da, da).real / curvature) if curvature > 1e-300 else 1.0
        a, g = candidate, g_new
        values.append(value)
        grad_norm = linalg.frobenius(g)
    else:
        raise ConvergenceError(
            f"BKM dual solver exhausted {pol.bkm_max_iters} iterations "
            f"(gradient norm {grad_norm:.3e})"
        )
    return ChoiMatrix(n=n, m=m, matrix=state_of(a)), a


def burg_e_projection(choi0: ChoiMatrix, constraint: ConstraintSet) -> tuple[ChoiMatrix, np.ndarray]:
    """Burg divergence minimizer over a partial-trace constraint set.

    The minimizer is the resolvent rho = (rho0^{-1} - lift(A))^{-1} with the
    Hermitian dual variable A determined by tr_side rho = target.  A damped
    Newton method solves that condition, with the Jacobian assembled exactly
    from d(R^{-1}) = -R^{-1} dR R^{-1} and step halving to keep the resolvent
    argument positive definite.  Returns the projected state and A.
    """
    pol = get_policy()
    n, m = choi0.n, choi0.m
    rho0_inv = linalg.invm(as_density(choi0.matrix, "projection source"))
    target = constraint.target
    side = constraint.side
    d = m if side == "first" else n
    basis = linalg.hermitian_basis(d)

    def resolvent(a: np.ndarray) -> np.ndarray:
        return linalg.invm(linalg.hermitian_part(rho0_inv - _lift(a, n, m, side)))

    def in_cone(a: np.ndarray) -> bool:
        w = np.linalg.eigvalsh(linalg.hermitian_part(rho0_inv - _lift(a, n, m, side)))
        return bool(w[0] > pol.pd_rel_floor * max(abs(w[-1]), np.finfo(float).tiny))

    def residual_of(a: np.ndarray) -> np.ndarray:
        return linalg.hermitian_part(_marginal(resolvent(a), n, m, side) - target)

    a = np.zeros((d, d), dtype=complex)
    g = residual_of(a)
    polish = False
    for _ in range(pol.burg_max_iters):
        g_norm = linalg.frobenius(g)
        if g_norm <= pol.burg_residual_tol:
            if polish:
                break
            # one extra full step: Newton is quadratic near the solution, so
            # this drives the residual (hence the iterate's trace defect) to
            # rounding level
            polish = True
        r = resolvent(a)
        columns = []
        for b in basis:
            dr = r @ _lift(b, n, m, side) @ r
            columns.append(_marginal(dr, n, m, side))
        jac = np.array([[np.vdot(bi, col).real for col in columns] for bi in basis])
        rhs = np.array([-np.vdot(bi, g).real for bi in basis])
        coeffs = np.linalg.solve(jac, rhs)
        newton = sum(c * b for c, b in zip(coeffs, basis))
        alpha = 1.0
        accepted = False
        while alpha > 1e-14:
            candidate = a + alpha * newton
            if in_cone(candidate):
                g_cand = residual_of(candidate)
                if linalg.frobenius(g_cand) < g_norm:
                    a, g = candidate, g_cand
                    accepted = True
                    break
            alpha /= 2.0
        if not accepted:
            if polish:
                break  # already below tolerance, at the rounding floor
            raise ConvergenceError(
                f"Burg Newton stalled at residual norm {g_norm:.3e}"
            )
    else:
        raise ConvergenceError(
            f"Burg Newton exhausted {pol.burg_max_iters} iterations "
            f"(residual norm {linalg.frobenius(g):.3e})"
        )
    return ChoiMatrix(n=n, m=m, matrix=resolvent(a)), a


def alternating_projections(
    method: str, choi0: ChoiMatrix, cfg: ScalingConfig = ScalingConfig()
) -> ScalingTrace:
    """Alternating e-projections onto the two marginal constraint sets.

    ``method`` selects the geometry: ``sld`` dispatches to the operator
    Sinkhorn iteration; ``bkm`` and ``burg`` alternate the corresponding
    divergence minimizers, left constraint first.
    """
    if method == "sld":
        return operator_sinkhorn(choi0, cfg)
    if method not in METHODS:
        raise UnsupportedError(f"unknown method {method!r}; expected one of {METHODS}")
    project = bkm_e_projection if method == "bkm" else burg_e_projection
    # both divergences need log rho and rho^{-1}, so a rank-deficient input
    # is out of their domain
    linalg.assert_positive_definite(choi0.matrix, "initial Choi matrix")
    trace, p, q = _new_trace(method, choi0, cfg)
    if trace.residuals[0] < cfg.tol:
        trace.converged = True
        return trace
    first = ConstraintSet("first", p)
    second = ConstraintSet("second", q)
    choi = choi0
    while trace.residuals[-1] >= cfg.tol and trace.sweeps < cfg.max_iters:
        choi, dual = project(choi, first)
        trace.factors.append(("first", dual))
        trace.iterates.append(choi.matrix)
        choi, dual = project(choi, second)
        trace.factors.append(("second", dual))
        trace.iterates.append(choi.matrix)
        trace.sweeps += 1
        trace.residuals.append(choi_residual(choi, p, q))
    trace.converged = trace.residuals[-1] < cfg.tol
    return trace


def capacity_from_trace(trace: ScalingTrace | MatrixScalingTrace) -> float:
    """Capacity of the input map recovered from a converged Sinkhorn run.

    One congruence step multiplies the capacity by det(factor)^{2/n}, and a
    doubly stochastic map has capacity one, so the input capacity is
    exp(-capacity_log) with capacity_log the accumulated per-step
    log-determinant sum.  Requires a square, doubly stochastic, converged
    Sinkhorn trace; its negative log equals the minimal Kullback-Leibler
    divergence from the input in the classical (diagonal) case.
    """
    if isinstance(trace, MatrixScalingTrace):
        m, n = trace.shape
        if m != n:
            raise UnsupportedError("capacity is defined for square problems only")
    else:
        if trace.n != trace.m:
            raise UnsupportedError("capacity is defined for m = n only")
        if trace.method != "sld":
            raise UnsupportedError("capacity tracking requires a Sinkhorn (sld) trace")
        if not trace.doubly_stochastic():
            raise UnsupportedError("capacity is defined for doubly stochastic targets")
    if not trace.converged:
        raise ConvergenceError(
            f"trace did not reach tolerance (final residual {trace.residuals[-1]:.3e})"
        )
    return math.exp(-trace.capacity_log)


def capacity_bruteforce(
    choi: ChoiMatrix,
    rng: np.random.Generator | int | None = 0,
    *,
    restarts: int = 20,
) -> float:
    """Direct capacity estimate by minimizing log det Phi(X) - log det X.

    ``X`` is parameterized as exp(H) over Hermitian H (Cholesky-free positive
    parameterization) and minimized with L-BFGS from ``restarts`` starting
    points; the exact gradient uses the Frechet derivative of exp.  Returns
    the capacity normalized like :func:`capacity_from_trace`:
    n * inf(det Phi(X)/det X)^{1/n}, so doubly stochastic maps score one.

    This is an independent oracle for the determinant-product bookkeeping of
    the Sinkhorn trace; it never touches scaling factors.
    """
    if choi.n != choi.m:
        raise UnsupportedError("capacity is defined for m = n only")
    n = choi.n
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    basis = linalg.hermitian_basis(n)

    def objective(x: np.ndarray) -> tuple[float, np.ndarray]:
        h = sum(c * b for c, b in zip(x, basis))
        big = linalg.expm(h)
        image = linalg.hermitian_part(apply_map(choi, big))
        w = np.linalg.eigvalsh(image)
        if w[0] <= 0:
            return float("inf"), np.zeros(len(basis))
        value = float(np.sum(np.log(w)) - np.trace(h).real)
        weight = linalg.hermitian_part(
            np.einsum("ab,jbia->ij", linalg.invm(image), choi.blocks())
        )
        grad = np.array(
            [np.trace(weight @ dexp_frechet(h, b)).real - np.trace(b).real for b in basis]
        )
        return value, grad

    best = float("inf")
    for attempt in range(max(restarts, 1)):
        x0 = np.zeros(len(basis)) if attempt == 0 else rng.normal(scale=0.5, size=len(basis))
        result = optimize.minimize(
            objective,
            x0,
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": 500, "ftol": 1e-15, "gtol": 1e-12},
        )
        best = min(best, float(result.fun))
    return n * math.exp(best / n)
