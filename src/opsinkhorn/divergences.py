"""Classical and quantum divergences, plus central difference quotients.

Tags:

``"kl"``          elementwise Kullback-Leibler on entrywise-positive arrays
``"umegaki"``     tr[rho log rho - rho log sigma]
``"bs"``          Belavkin-Staszewski, -tr[rho log(rho^{-1/2} sigma rho^{-1/2})]
``"burg"``        tr(S T^{-1}) - log det(S T^{-1}) - dim, on the PD cone
``"renyi_half"``  sandwiched Renyi of order 1/2, -4 log tr[(sigma^{1/2} rho sigma^{1/2})^{1/2}]
``"nagaoka"``     2 tr[rho log(rho # sigma^{-1})]

The state divergences accept general positive definite inputs but warn when
traces deviate from one beyond the policy threshold, since experiments
evaluate them at slightly perturbed states.  All matrix functions route
through :mod:`opsinkhorn.linalg`.

The matrix tags also take stacks: a (B, d, d) ``rho`` or ``sigma`` (or both,
of one B) gives the B divergences as an array, each equal to its 2-D
call's float bit for bit, from stacked ``eigh`` and ``matmul``; a 2-D
argument is decomposed once for the whole stack.  ``kl`` takes arrays of
any shape and returns their total, as before.
:func:`central_difference_quotients` uses this: it validates once and
evaluates every probe of an h grid in one stacked call.
"""

from __future__ import annotations

import warnings

import numpy as np

from . import linalg
from .channels import _integer
from .errors import DomainError, InvalidInputError, UnsupportedError
from .policy import get_policy

__all__ = ["DIVERGENCES", "divergence", "central_difference_quotient", "central_difference_quotients"]

DIVERGENCES = ("kl", "umegaki", "bs", "burg", "renyi_half", "nagaoka")

_STATE_TAGS = ("umegaki", "bs", "renyi_half", "nagaoka")


def _kl_terms(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Entries p log(p / q) of entrywise-positive arrays."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if np.any(p <= 0) or np.any(q <= 0):
        raise DomainError("classical KL requires entrywise-positive arrays")
    return p * np.log(p / q)


def _classical_kl(p: np.ndarray, q: np.ndarray) -> float:
    if np.shape(p) != np.shape(q):
        raise InvalidInputError(f"shape mismatch: {np.shape(p)} vs {np.shape(q)}")
    return float(np.sum(_kl_terms(p, q)))


def _check_tag(tag: str) -> None:
    if tag == "measured":
        raise UnsupportedError(
            "measured relative entropy needs an external POVM optimizer and is not provided"
        )
    if tag not in DIVERGENCES:
        raise InvalidInputError(f"unknown divergence tag {tag!r}")


def _trace(mat: np.ndarray) -> np.ndarray:
    """Trace of a matrix, or of each matrix of a stack."""
    return np.trace(mat, axis1=-2, axis2=-1)


def _warn_if_not_state(tag: str, *mats: np.ndarray) -> None:
    tol = get_policy().state_trace_warn
    for mat in mats:
        dev = np.max(np.abs(_trace(mat).real - 1.0))
        if dev > tol:
            warnings.warn(
                f"{tag} divergence evaluated off the state manifold (trace deviates by {dev:.3e})",
                stacklevel=3,
            )
            return


def divergence(tag: str, rho: np.ndarray, sigma: np.ndarray) -> float | np.ndarray:
    """Divergence D_tag(rho || sigma).

    Vanishes when the arguments coincide and is nonnegative on trace-one
    inputs (``burg`` and ``kl`` accept general positive arguments).  For a
    matrix tag, a (B, d, d) stack in either argument gives an array of the
    B values.
    """
    if tag == "kl":
        return _classical_kl(rho, sigma)
    _check_tag(tag)
    rho = linalg.assert_positive_definite(rho, "divergence first argument")
    sigma = linalg.assert_positive_definite(sigma, "divergence second argument")
    if rho.shape[-1] != sigma.shape[-1] or (rho.ndim > 2 and sigma.ndim > 2 and rho.shape != sigma.shape):
        raise InvalidInputError(f"shape mismatch: {rho.shape} vs {sigma.shape}")
    if tag in _STATE_TAGS:
        _warn_if_not_state(tag, rho, sigma)
    return _value(tag, rho, sigma)


def _value(tag: str, rho: np.ndarray, sigma: np.ndarray) -> float | np.ndarray:
    """The matrix tag's formula, on arguments already checked: Hermitian,
    positive definite, of one size."""
    if tag == "umegaki":
        value = _trace(rho @ (linalg.logm(rho) - linalg.logm(sigma))).real
    elif tag == "bs":
        ri = linalg.powm(rho, -0.5)
        inner = linalg.hermitian_part(ri @ sigma @ ri)
        value = -_trace(rho @ linalg.logm(inner)).real
    elif tag == "burg":
        dim = rho.shape[-1]
        w_r = linalg._eigvalsh(rho, "divergence first argument")
        w_s = linalg._eigvalsh(sigma, "divergence second argument")
        trace_term = _trace(rho @ linalg.invm(sigma)).real
        logdet = np.sum(np.log(w_r), axis=-1) - np.sum(np.log(w_s), axis=-1)
        value = trace_term - logdet - dim
    elif tag == "renyi_half":
        sq = linalg.powm(sigma, 0.5)
        w = linalg._eigvalsh(linalg.hermitian_part(sq @ rho @ sq), "sigma^{1/2} rho sigma^{1/2}")
        value = -4.0 * np.log(np.sum(np.sqrt(np.clip(w, 0.0, None)), axis=-1))
    else:
        # nagaoka: rho # sigma^{-1} = sigma^{-1} # rho, the SLD factor of
        # sigma towards rho, from two eigh (both arguments are checked)
        mean, _ = linalg.inverse_mean(sigma, rho, "divergence second argument")
        value = (2.0 * _trace(rho @ linalg.logm(mean))).real
    return float(value) if np.ndim(value) == 0 else value


def _critical_step(rho: np.ndarray, direction: np.ndarray) -> float:
    """Largest h with rho +/- h * direction positive definite."""
    ri = linalg.powm(rho, -0.5)
    w = linalg._eigvalsh(linalg.hermitian_part(ri @ direction @ ri), "rho^{-1/2} direction rho^{-1/2}")
    top = np.abs(w).max()
    return float("inf") if top == 0.0 else 1.0 / float(top)


def _quotients(
    tag: str, rho_star, rho_0, direction, hs, n: int | None, m: int | None
) -> tuple[np.ndarray, float]:
    """The quotients of :func:`central_difference_quotients` and the
    critical step."""
    _check_tag(tag)
    hs = np.asarray(hs, dtype=float).reshape(-1)
    if not np.all(hs > 0):
        raise InvalidInputError("step h must be positive")
    rho_star = linalg.assert_positive_definite(rho_star, "expansion point")
    direction = linalg.as_hermitian(direction, what="perturbation direction")
    if abs(np.trace(direction)) > 1e-10:
        raise InvalidInputError("perturbation direction must be traceless")
    if (n is None) != (m is None):
        raise InvalidInputError(f"give both block dimensions n and m or neither, got n={n!r}, m={m!r}")
    if n is not None:
        n, m = _integer(n, "block dimension n", 1), _integer(m, "block dimension m", 1)
        for which in ("first", "second"):
            part = linalg.partial_trace(direction, n, m, which)
            if np.abs(part).max() > 1e-10:
                raise InvalidInputError(f"perturbation direction has nonzero {which} partial trace")
    if tag == "kl":
        # classical probe: defined on the diagonal (matrix-scaling) case only
        for mat, what in ((rho_star, "expansion point"), (rho_0, "reference point")):
            off = mat - np.diag(np.diag(mat))
            if np.abs(off).max() > 1e-10:
                raise DomainError(f"kl difference quotient requires a diagonal {what}")
    else:
        rho_0 = linalg.assert_positive_definite(rho_0, "reference point")
        if rho_0.shape != rho_star.shape:
            raise InvalidInputError(f"shape mismatch: {rho_star.shape} vs {rho_0.shape}")
    h_max = _critical_step(rho_star, direction)
    out = np.full(len(hs), np.nan)
    inside = np.flatnonzero(hs < h_max)
    steps = hs[inside, None, None] * direction
    probes = np.stack([rho_star + steps, rho_star - steps])
    # h_max is rounded, so an h just below it can still give a probe that
    # fails the positive definiteness floor: that h leaves the cone too.
    # This is the probes' one check; they are exactly Hermitian, as sums of
    # exactly Hermitian matrices, so the formulas take them as they are
    keep = linalg.is_positive_definite(probes).all(axis=0)
    inside, probes = inside[keep], probes[:, keep].reshape(-1, *direction.shape)
    if len(inside):
        h = hs[inside]
        if tag == "kl":
            diagonals = np.diagonal(probes, axis1=-2, axis2=-1).real
            values = np.sum(_kl_terms(diagonals, np.diag(rho_0).real), axis=-1)
        else:
            values = _value(tag, probes, rho_0)
        out[inside] = (values[: len(h)] - values[len(h) :]) / (2.0 * h)
    return out, h_max


def central_difference_quotients(
    tag: str,
    rho_star: np.ndarray,
    rho_0: np.ndarray,
    direction: np.ndarray,
    hs,
    *,
    n: int | None = None,
    m: int | None = None,
) -> np.ndarray:
    """[D(rho* + hA || rho0) - D(rho* - hA || rho0)] / (2h) for every h of
    ``hs``, as an array; NaN where a probe leaves the positive cone: h is at
    least the critical step, or (within rounding of it) a probe fails the
    positive definiteness floor.

    The perturbation ``A`` must be Hermitian and traceless so the probe stays
    on the trace-one manifold; when the block structure ``(n, m)`` is given,
    both partial traces of ``A`` must vanish so the probe also stays inside
    the marginal constraint sets (one of ``n`` and ``m`` alone, or one that
    is not an int of at least 1, is an ``InvalidInputError``).  ``kl``
    takes the diagonals and needs diagonal ``rho*`` and ``rho0``.  The tag,
    every h (positive), the inputs and the critical step are checked and
    computed once, so an input error raises whatever the grid; then every
    probe is checked once and every probe inside the cone evaluated in one
    stacked call of the divergence formula, which decomposes ``rho0``
    once.  Each quotient equals the one-h call's, bit for bit.
    """
    return _quotients(tag, rho_star, rho_0, direction, hs, n, m)[0]


def central_difference_quotient(
    tag: str,
    rho_star: np.ndarray,
    rho_0: np.ndarray,
    direction: np.ndarray,
    h: float,
    *,
    n: int | None = None,
    m: int | None = None,
) -> float:
    """The one-h case of :func:`central_difference_quotients`; an h whose
    probe leaves the positive cone is a ``DomainError``."""
    values, h_max = _quotients(tag, rho_star, rho_0, direction, [h], n, m)
    if np.isnan(values[0]):
        raise DomainError(
            f"perturbation h={h:.3e} leaves the positive cone (critical h = {h_max:.3e})"
        )
    return float(values[0])
