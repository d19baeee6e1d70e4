"""Tangent vectors, Riemannian metrics and e-geodesics on density matrices.

Three metrics are supported, identified by string tags:

``"sld"``
    g(X, Y) = tr(X_e Y_m) where the e-representation X_e is the Hermitian
    solution of the Lyapunov equation X_e rho + rho X_e = 2 X_m.
``"bkm"``
    g(X, Y) = tr(X_m dlog_rho[Y_m]) with dlog the Frechet derivative of the
    matrix logarithm at rho.  ``dlog_frechet`` and ``dexp_frechet`` share
    one Daleckii-Krein body on the divided differences of exp
    (``linalg._exp_divided_differences``): dlog, the inverse of dexp at
    log rho, reads their reciprocal at the log-spectrum of rho.
``"congruence"``
    g(X, Y) = tr(rho^{-1} X_m rho^{-1} Y_m) on the positive definite cone.

Every metric comes with an explicit e-geodesic between positive definite
trace-one matrices, and ``orthogonality_residual`` certifies whether the
e-geodesic reaching a point of a partial-trace constraint set meets it
orthogonally, which characterizes e-projections.  The certificate is the
norm of the tangent's projection onto the constraint's tangent space, in
closed form: one partial trace and one subtraction, with no basis built.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import linalg
from .channels import ChoiMatrix, _check_marginal, _instance, as_density
from .errors import ConvergenceError, InvalidInputError, SingularityError
from .policy import get_policy

__all__ = [
    "METRICS",
    "TangentVector",
    "ConstraintSet",
    "sld_e_rep",
    "dlog_frechet",
    "dexp_frechet",
    "metric_inner",
    "e_geodesic",
    "sld_parallel_transport",
    "orthogonality_residual",
]

METRICS = ("sld", "bkm", "congruence")


@dataclass(frozen=True)
class TangentVector:
    """Tangent vector at a density matrix, stored in m-representation.

    The m-representation is the raw directional derivative of the state, a
    traceless Hermitian matrix.  ``base`` and ``m_rep`` are validated once
    and stored exactly Hermitian as read-only arrays, uncopied when the
    input was already exactly Hermitian (as for :class:`ChoiMatrix`): they
    may share memory with the caller's arrays, so copy those before
    mutating them.
    """

    base: np.ndarray
    m_rep: np.ndarray

    def __post_init__(self):
        base = as_density(self.base, "tangent base point")
        m_rep = linalg.as_hermitian(self.m_rep, what="m-representation")
        if m_rep.shape != base.shape:
            raise InvalidInputError("tangent and base dimensions differ")
        tr = abs(np.trace(m_rep))
        if tr > get_policy().trace_atol:
            raise InvalidInputError(f"m-representation has trace {tr:.3e}, expected 0")
        object.__setattr__(self, "base", linalg._read_only(base))
        object.__setattr__(self, "m_rep", linalg._read_only(m_rep))


@dataclass(frozen=True)
class ConstraintSet:
    """Partial-trace constraint set {rho : tr_side rho = target}.

    ``side`` is ``"first"`` (target m x m) or ``"second"`` (target n x n);
    the target must be positive definite with unit trace.  It is stored
    exactly Hermitian as a read-only array, uncopied when the input was
    already exactly Hermitian, so it may share memory with the caller's
    array: copy that before mutating it.
    """

    side: str
    target: np.ndarray

    def __post_init__(self):
        if self.side not in ("first", "second"):
            raise InvalidInputError(f"side must be 'first' or 'second', got {self.side!r}")
        target = as_density(self.target, "constraint target")
        object.__setattr__(self, "target", linalg._read_only(target))

    def violation(self, choi: ChoiMatrix) -> float:
        """||tr_side rho - target||_F; a target that does not fit ``choi``
        is an ``InvalidInputError``."""
        _check_marginal(_instance(choi, ChoiMatrix, "choi"), self.side, self.target, "constraint target")
        marg = choi.trace_first() if self.side == "first" else choi.trace_second()
        return linalg.frobenius(marg - self.target)


def sld_e_rep(x: TangentVector) -> np.ndarray:
    """Symmetric logarithmic derivative: the Hermitian E with
    E rho + rho E = 2 X_m."""
    _instance(x, TangentVector, "x")
    return linalg.solve_lyapunov(x.base, 2.0 * x.m_rep)


def _daleckii_krein(v: np.ndarray, phi: np.ndarray, direction: np.ndarray, what: str) -> np.ndarray:
    """The Frechet derivative v (phi o (v^dagger E v)) v^dagger of a matrix
    function along the Hermitian ``direction`` E (named ``what`` in its
    error), from the eigenvectors ``v`` of the base point and the Loewner
    matrix ``phi`` of the function's divided differences on its spectrum:
    the one body of :func:`dlog_frechet` and :func:`dexp_frechet`.  A
    direction of another size than the base point is an
    ``InvalidInputError``."""
    e = linalg.as_hermitian(direction, what=what)
    if e.shape != v.shape:
        raise InvalidInputError(f"{what} has shape {e.shape}, the base point {v.shape}")
    d = v.conj().T @ e @ v
    return linalg.hermitian_part(v @ (phi * d) @ v.conj().T)


def dlog_frechet(rho: np.ndarray, direction: np.ndarray) -> np.ndarray:
    """Frechet derivative of the matrix logarithm at positive definite
    ``rho`` along ``direction``.  One ``eigh`` of rho is both its cone test
    and the eigenbasis.  dlog at rho is the inverse of dexp at log rho, so
    its divided differences are the reciprocals of exp's on the
    log-spectrum (``linalg._exp_divided_differences``): exact at ties, and
    with no quotient of close logarithms to cancel."""
    _, w, v = linalg._pd_eigh(rho, "dlog base point")
    return _daleckii_krein(v, 1.0 / linalg._exp_divided_differences(np.log(w)), direction, "dlog direction")


def dexp_frechet(h: np.ndarray, direction: np.ndarray) -> np.ndarray:
    """Frechet derivative of the matrix exponential at Hermitian ``h`` along
    ``direction``, by the divided differences of exp on the spectrum of h
    (``linalg._exp_divided_differences``, which the BKM Newton solves in
    ``scaling`` use too)."""
    w, v = linalg._eigh(linalg.as_hermitian(h, what="dexp base point"), "dexp base point")
    return _daleckii_krein(v, linalg._exp_divided_differences(w), direction, "dexp direction")


def _check_same_base(x: TangentVector, y: TangentVector) -> None:
    if x.base.shape != y.base.shape or np.abs(x.base - y.base).max() > 1e-12:
        raise InvalidInputError("tangent vectors live at different base points")


def metric_inner(tag: str, x: TangentVector, y: TangentVector) -> float:
    """Inner product of two tangent vectors at a common base point."""
    for what, vector in (("x", x), ("y", y)):
        _instance(vector, TangentVector, what)
    _check_same_base(x, y)
    rho = x.base
    if tag == "sld":
        return float(np.trace(sld_e_rep(x) @ y.m_rep).real)
    if tag == "bkm":
        return float(np.trace(x.m_rep @ dlog_frechet(rho, y.m_rep)).real)
    if tag == "congruence":
        rinv = linalg.invm(rho)
        return float(np.trace(rinv @ x.m_rep @ rinv @ y.m_rep).real)
    raise InvalidInputError(f"unknown metric tag {tag!r}")


def e_geodesic(tag: str, rho1: np.ndarray, rho2: np.ndarray, t: float) -> np.ndarray:
    """Point at parameter ``t`` of the e-geodesic from rho1 to rho2.

    sld:        rho(t) = C(t) K^t rho1 K^t with K = rho1^{-1} # rho2;
    bkm:        rho(t) = C(t) exp((1-t) log rho1 + t log rho2);
    congruence: rho(t) = ((1-t) rho1^{-1} + t rho2^{-1})^{-1}, renormalized.

    All three satisfy rho(0) = rho1 and rho(1) = rho2 exactly.  Values of
    ``t`` outside [0, 1] extrapolate; the congruence resolvent may then leave
    the positive cone, which raises ``SingularityError``.  The ``bkm`` point
    is the Gibbs state of its exponent's spectrum, finite wherever the
    exponent (1-t) log rho1 + t log rho2 is, and the ``sld`` point is
    formed with K^t over its largest eigenvalue, as the Gibbs weights are
    shifted by theirs (``linalg._gibbs_weights``), so it is finite at
    every finite t.  An exponent that overflows, or a matrix on the way
    to a point whose decomposition fails, is a ``ConvergenceError`` naming
    the geometry and ``t``: a point returned is finite with unit trace.
    A ``t`` that is not a finite real number (a bool included) is an
    ``InvalidInputError``.
    """
    if isinstance(t, bool) or not (isinstance(t, numbers.Real) and math.isfinite(t)):
        raise InvalidInputError(f"geodesic parameter t must be a finite real number, got {t!r}")
    rho1 = as_density(rho1, "geodesic endpoint rho1")
    rho2 = as_density(rho2, "geodesic endpoint rho2")
    if rho1.shape != rho2.shape:
        raise InvalidInputError("geodesic endpoints have different dimensions")

    overflow = f"{tag} e-geodesic overflows at t={t}"
    try:
        # an overflow is the ConvergenceError below; numpy's warnings on the
        # way there say nothing more
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            if tag == "sld":
                w, v = linalg._eigh(linalg.inverse_mean(rho1, rho2, "geodesic endpoint rho1"), "the sld geodesic's K")
                # K^t over its largest eigenvalue: the trace below removes
                # the scale
                kt = linalg._spectral(v, np.power(w / (w[-1] if t >= 0 else w[0]), t))
                curve = linalg.hermitian_part(kt @ rho1 @ kt)
            elif tag == "bkm":
                exponent = (1.0 - t) * linalg.logm(rho1) + t * linalg.logm(rho2)
                if not np.isfinite(exponent).all():
                    raise ConvergenceError(overflow)
                w, v = linalg._eigh(exponent, "the bkm e-geodesic's exponent")
                curve = linalg._gibbs_state(v, linalg._gibbs_weights(w)[0])
            elif tag == "congruence":
                # one eigh of the resolvent is both the cone test and its inverse
                resolvent = linalg.hermitian_part((1.0 - t) * linalg.invm(rho1) + t * linalg.invm(rho2))
                w, v = linalg._eigh(resolvent, "congruence geodesic resolvent")
                if not linalg._positive_definite(w):
                    raise SingularityError(f"congruence geodesic leaves the cone at t={t}")
                curve = linalg._spectral(v, 1.0 / w)
            else:
                raise InvalidInputError(f"unknown metric tag {tag!r}")
            total = np.trace(curve).real
            point = curve / total
    except ConvergenceError as exc:
        # an eigendecomposition of a matrix that overflowed LAPACK's range
        raise ConvergenceError(overflow) from exc
    if not (math.isfinite(total) and np.isfinite(point).all()):
        raise ConvergenceError(overflow)
    return point


def sld_parallel_transport(l: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """e-parallel transport of an e-representation to the state ``sigma``:
    L - tr(sigma L) I.  Arguments of different sizes are an
    ``InvalidInputError``."""
    l = linalg.as_hermitian(l, what="e-representation")
    sigma = as_density(sigma, "transport target")
    if l.shape != sigma.shape:
        raise InvalidInputError(f"e-representation has shape {l.shape}, the transport target {sigma.shape}")
    return l - np.trace(sigma @ l).real * np.eye(l.shape[0])


def _geodesic_tail(tag: str, rho_from: np.ndarray, rho_to: np.ndarray) -> tuple[np.ndarray, float]:
    """e-representation of the e-geodesic tangent at its endpoint rho_to,
    together with its metric norm.

    The e-representation is centered so that the corresponding m-representation
    is traceless; pairings against traceless directions are unaffected.
    """
    eye = np.eye(rho_to.shape[0])
    if tag == "sld":
        # K = rho_from^{-1} # rho_to from two eigh, its logarithm from a third
        k = linalg.inverse_mean(rho_from, rho_to, "geodesic start")
        e = 2.0 * linalg.logm(k)
        e = e - np.trace(rho_to @ e).real * eye
        m_rep = linalg.hermitian_part(e @ rho_to + rho_to @ e) / 2.0
    elif tag == "bkm":
        # dexp at log rho_to on rho_to's own spectrum
        _, w, v = linalg._pd_eigh(rho_to, "geodesic end")
        log_w = np.log(w)
        dot = linalg._spectral(v, log_w) - linalg.logm(rho_from)
        e = dot - np.trace(rho_to @ dot).real * eye
        m_rep = _daleckii_krein(v, linalg._exp_divided_differences(log_w), e, "dexp direction")
    elif tag == "congruence":
        # tangent of the resolvent curve: d/dt S(t)^{-1} = rho_to^{-1} - rho_from^{-1};
        # the corresponding m-representation is -S e S, and the metric norm
        # reduces to tr(e S e S)
        e = linalg.invm(rho_to) - linalg.invm(rho_from)
        norm = float(np.sqrt(max(np.trace(e @ rho_to @ e @ rho_to).real, 0.0)))
        return e, norm
    else:
        raise InvalidInputError(f"unknown metric tag {tag!r}")
    norm = float(np.sqrt(max(np.trace(e @ m_rep).real, 0.0)))
    return e, norm


def orthogonality_residual(
    tag: str, rho_from: ChoiMatrix, rho_to: ChoiMatrix, constraint: ConstraintSet
) -> float:
    """Normalized orthogonality defect of the e-geodesic from ``rho_from`` to
    ``rho_to`` against the tangent space of ``constraint`` at ``rho_to``.

    The pairing g(tangent, Y) is tr(e Y) for every tag, with e the
    e-representation of the tangent (for the congruence metric up to a
    sign).  So the largest |g(tangent, Y)| over unit Hermitian Y with
    tr_side Y = 0, the constraint tangent space, is the Frobenius norm of
    e's component in that space: e - I_n kron tr_first(e) / n on side
    "first", e - tr_second(e) kron I_m / m on side "second".  Returns that
    norm over ||tangent||_g.  It equals sqrt(sum_b tr(e Y_b)^2) /
    ||tangent||_g over any orthonormal basis {Y_b} of the tangent space, and
    is exactly 0.0 when the space is empty (n = 1 on side "first", m = 1 on
    side "second": the constraint fixes the whole state).  A vanishing
    residual certifies that ``rho_to`` is the e-projection of ``rho_from``
    onto the constraint set for the chosen metric.  Block structures that
    differ, or a constraint target that does not fit them
    (:meth:`ConstraintSet.violation`), are an ``InvalidInputError``.
    """
    for what, choi in (("rho_from", rho_from), ("rho_to", rho_to)):
        _instance(choi, ChoiMatrix, what)
    if (rho_from.n, rho_from.m) != (rho_to.n, rho_to.m):
        raise InvalidInputError("Choi block structures differ")
    violation = _instance(constraint, ConstraintSet, "constraint").violation(rho_to)
    if violation > get_policy().constraint_atol:
        raise InvalidInputError(
            f"rho_to violates the marginal constraint by {violation:.3e}"
        )
    e, norm = _geodesic_tail(tag, rho_from.matrix, rho_to.matrix)
    if norm == 0.0:
        return 0.0
    n, m = rho_to.n, rho_to.m
    blocks = e.reshape(n, m, n, m).astype(complex)
    part = linalg.partial_trace(e, n, m, constraint.side)
    if constraint.side == "first":
        diag = np.arange(n)
        blocks[diag, :, diag, :] -= part / n
    else:
        diag = np.arange(m)
        blocks[:, diag, :, diag] -= part / m
    return linalg.frobenius(blocks.reshape(n * m, n * m)) / norm
