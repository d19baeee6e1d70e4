"""Classical and quantum divergences, plus the central difference quotient.

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
"""

from __future__ import annotations

import warnings

import numpy as np

from . import linalg
from .errors import DomainError, InvalidInputError, UnsupportedError
from .policy import get_policy

__all__ = ["DIVERGENCES", "divergence", "central_difference_quotient"]

DIVERGENCES = ("kl", "umegaki", "bs", "burg", "renyi_half", "nagaoka")

_STATE_TAGS = ("umegaki", "bs", "renyi_half", "nagaoka")


def _classical_kl(p: np.ndarray, q: np.ndarray) -> float:
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise InvalidInputError(f"shape mismatch: {p.shape} vs {q.shape}")
    if np.any(p <= 0) or np.any(q <= 0):
        raise DomainError("classical KL requires entrywise-positive arrays")
    return float(np.sum(p * np.log(p / q)))


def _warn_if_not_state(tag: str, *mats: np.ndarray) -> None:
    tol = get_policy().state_trace_warn
    for mat in mats:
        dev = abs(np.trace(mat).real - 1.0)
        if dev > tol:
            warnings.warn(
                f"{tag} divergence evaluated off the state manifold (trace deviates by {dev:.3e})",
                stacklevel=3,
            )
            return


def divergence(tag: str, rho: np.ndarray, sigma: np.ndarray) -> float:
    """Divergence D_tag(rho || sigma).

    Vanishes when the arguments coincide and is nonnegative on trace-one
    inputs (``burg`` and ``kl`` accept general positive arguments).
    """
    if tag == "kl":
        return _classical_kl(rho, sigma)
    if tag == "measured":
        raise UnsupportedError(
            "measured relative entropy needs an external POVM optimizer and is not provided"
        )
    if tag not in DIVERGENCES:
        raise InvalidInputError(f"unknown divergence tag {tag!r}")
    rho = linalg.assert_positive_definite(rho, "divergence first argument")
    sigma = linalg.assert_positive_definite(sigma, "divergence second argument")
    if rho.shape != sigma.shape:
        raise InvalidInputError(f"shape mismatch: {rho.shape} vs {sigma.shape}")
    if tag in _STATE_TAGS:
        _warn_if_not_state(tag, rho, sigma)

    if tag == "umegaki":
        return float(np.trace(rho @ (linalg.logm(rho) - linalg.logm(sigma))).real)
    if tag == "bs":
        ri = linalg.powm(rho, -0.5)
        inner = linalg.hermitian_part(ri @ sigma @ ri)
        return float(-np.trace(rho @ linalg.logm(inner)).real)
    if tag == "burg":
        dim = rho.shape[0]
        w_r = np.linalg.eigvalsh(rho)
        w_s = np.linalg.eigvalsh(sigma)
        trace_term = float(np.trace(rho @ linalg.invm(sigma)).real)
        logdet = float(np.sum(np.log(w_r)) - np.sum(np.log(w_s)))
        return trace_term - logdet - dim
    if tag == "renyi_half":
        sq = linalg.powm(sigma, 0.5)
        w = np.linalg.eigvalsh(linalg.hermitian_part(sq @ rho @ sq))
        return float(-4.0 * np.log(np.sum(np.sqrt(np.clip(w, 0.0, None)))))
    # nagaoka: rho # sigma^{-1} = sigma^{-1} # rho, the SLD factor of
    # sigma towards rho, from two eigh (both arguments are checked above)
    mean, _ = linalg.inverse_mean(sigma, rho, "divergence second argument")
    return float(2.0 * np.trace(rho @ linalg.logm(mean)).real)


def _critical_step(rho: np.ndarray, direction: np.ndarray) -> float:
    """Largest h with rho +/- h * direction positive definite."""
    ri = linalg.powm(rho, -0.5)
    w = np.linalg.eigvalsh(linalg.hermitian_part(ri @ direction @ ri))
    top = np.abs(w).max()
    return float("inf") if top == 0.0 else 1.0 / float(top)


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
    """[D(rho* + hA || rho0) - D(rho* - hA || rho0)] / (2h).

    The perturbation ``A`` must be Hermitian and traceless so the probe stays
    on the trace-one manifold; when the block structure ``(n, m)`` is given,
    both partial traces of ``A`` must vanish so the probe also stays inside
    the marginal constraint sets.
    """
    if h <= 0:
        raise InvalidInputError("step h must be positive")
    rho_star = linalg.assert_positive_definite(rho_star, "expansion point")
    direction = linalg.as_hermitian(direction, what="perturbation direction")
    if abs(np.trace(direction)) > 1e-10:
        raise InvalidInputError("perturbation direction must be traceless")
    if n is not None and m is not None:
        for which in ("first", "second"):
            part = linalg.partial_trace(direction, n, m, which)
            if np.abs(part).max() > 1e-10:
                raise InvalidInputError(f"perturbation direction has nonzero {which} partial trace")
    h_max = _critical_step(rho_star, direction)
    if h >= h_max:
        raise DomainError(
            f"perturbation h={h:.3e} leaves the positive cone (critical h = {h_max:.3e})"
        )
    if tag == "kl":
        # classical probe: defined on the diagonal (matrix-scaling) case only
        for mat, what in ((rho_star, "expansion point"), (rho_0, "reference point")):
            off = mat - np.diag(np.diag(mat))
            if np.abs(off).max() > 1e-10:
                raise DomainError(f"kl difference quotient requires a diagonal {what}")
        plus = np.diag(rho_star + h * direction).real
        minus = np.diag(rho_star - h * direction).real
        base = np.diag(rho_0).real
        d_plus = _classical_kl(plus, base)
        d_minus = _classical_kl(minus, base)
    else:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            d_plus = divergence(tag, rho_star + h * direction, rho_0)
            d_minus = divergence(tag, rho_star - h * direction, rho_0)
    return (d_plus - d_minus) / (2.0 * h)
