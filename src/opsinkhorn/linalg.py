"""Dense complex Hermitian linear algebra, on single matrices and stacks.

Matrix functions take one ``numpy.linalg.eigh`` of their validated
argument.  Geometric means share one core, ``_mean_from_spectrum``, which
takes A # B from the spectrum of A and one more ``numpy.linalg.eigh``:
``geometric_mean`` feeds it ``eigh(A)``, also A's positive definiteness
check, and ``inverse_mean`` (the SLD factor M^{-1} # T) the reciprocal
spectrum of ``eigh(M)``.  For a uniform target T = c I, given to
``inverse_mean`` as the scalar c, the factor is (M / c)^{-1/2}, read off
``eigh(M)`` alone: one ``eigh`` instead of two.  ``inverse_mean`` is
``eigh(M)``, its positive definiteness check and a core on the spectrum,
``_inverse_mean_from_spectrum``; the operator Sinkhorn stack runs that core
on the rows of its own stacked ``eigh`` that pass the check, so a failing
marginal costs no second decomposition.  These functions act on the
small ``m x m`` and ``n x n`` marginals and factors and validate their
arguments on every call, except that ``inverse_mean`` leaves the target to
its caller.  The operator Sinkhorn loop forms no ``mn x mn`` iterate while
it iterates: it takes each marginal from a permuted copy of the input and
the factor products, and forms the final iterate once by
``channels.congruence``, applied blockwise on the (n, m, n, m) view without
checks; it validates its input once at entry and checks that final
iterate, PSD by construction, for shape and finiteness only before
returning.  The BKM and Burg solves likewise take one
``numpy.linalg.eigh`` of their input at entry, which is both their cone
test (``_positive_definite``) and the spectrum of their e-coordinate,
log rho or rho^{-1}; from there they carry that coordinate and its
spectrum through the projections, so no matrix function of an iterate is
taken in the loop.

Frechet derivatives of matrix functions go through one Loewner matrix,
``_exp_divided_differences``, the divided differences of exp in an expm1
form that neither overflows nor cancels: the BKM Newton Hessian and
``geometry.dexp_frechet`` use it on their spectrum, and
``geometry.dlog_frechet`` its reciprocal on the log-spectrum.

Stacks: ``hermitian_part``, ``as_hermitian``, ``assert_positive_definite``,
``matrix_function`` (and so ``sqrtm`` ... ``invm``), ``inverse_mean`` and
``frobenius`` also take a (B, d, d) stack of matrices and work on each
matrix of it, with stacked ``eigh`` and ``matmul``.  Each matrix's result
equals that of the 2-D call on it, bit for bit.  A check that fails on a
stack reports the first failing matrix.  This is what lets
``scaling.operator_sinkhorn_batch`` and
``divergences.central_difference_quotients`` run many small problems as one.

Conventions for partitioned matrices: an ``mn x mn`` matrix is read as an
``n x n`` grid of ``m x m`` blocks (outer index of dimension ``n``).
``partial_trace(M, n, m, "first")`` sums the ``n`` diagonal blocks and
returns an ``m x m`` matrix; ``"second"`` returns the ``n x n`` matrix of
block traces.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, InvalidInputError, SingularityError
from .policy import get_policy

_TINY = np.finfo(float).tiny

__all__ = [
    "hermitian_part",
    "as_hermitian",
    "matrix_function",
    "sqrtm",
    "logm",
    "expm",
    "powm",
    "invm",
    "is_positive_definite",
    "assert_positive_definite",
    "solve_lyapunov",
    "geometric_mean",
    "inverse_mean",
    "partial_trace",
    "frobenius",
]


def frobenius(a: np.ndarray) -> float | np.ndarray:
    """Frobenius norm as a plain float; for a (B, d, d) complex stack, the B
    norms.

    A stack's norms come from the dot products ``np.linalg.norm`` takes of
    each matrix's real and imaginary parts (strided views of its entries),
    stacked in one ``vecdot``, so each equals the 2-D call's float."""
    a = np.asarray(a)
    if a.ndim <= 2:
        return float(np.linalg.norm(a))
    parts = np.ascontiguousarray(a, dtype=complex).reshape(a.shape[:-2] + (-1, 1)).view(float)
    sq = np.vecdot(parts, parts, axis=-2)
    return np.sqrt(sq[..., 0] + sq[..., 1])


def _adjoint(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of each matrix of a stack: the
    transposed view of the conjugate, as ``a.conj().T`` is for a matrix."""
    return a.conj().swapaxes(-1, -2)


def hermitian_part(a: np.ndarray) -> np.ndarray:
    """(A + A^dagger) / 2 of a float or complex matrix, or of each matrix
    of a stack."""
    # conjugating the transpose into a contiguous array first keeps the sum
    # a contiguous pass; the result is bit-identical to (A + A^dagger) / 2
    out = np.conjugate(a.swapaxes(-1, -2), order="C")
    out += a
    out *= 0.5
    return out


def as_hermitian(a: np.ndarray, *, what: str = "matrix") -> np.ndarray:
    """Validate that ``a`` (a matrix or a stack of them) is Hermitian within
    the policy's ``hermitian_atol`` and return it exactly Hermitian.

    Downstream code assumes exact Hermiticity, so every constructor funnels
    through here; the symmetrization prevents asymmetry from accumulating over
    long iterations.  An input that is already exactly Hermitian (a gap of
    0.0, so its diagonal is real) is returned as it is, without a copy: this
    may return ``a`` itself, which equals ``hermitian_part(a)`` entry for
    entry (as numbers: only the sign of a zero can differ).  Any other input
    within the tolerance gives a new array, ``hermitian_part(a)``.  Callers that
    keep the result must not write into it (see :func:`_read_only`).
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise InvalidInputError(f"{what} must be square, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise InvalidInputError(f"{what} contains non-finite entries")
    tol = get_policy().hermitian_atol
    gap = np.abs(a - _adjoint(a)).max(initial=0.0)
    if gap > tol:
        raise InvalidInputError(f"{what} is not Hermitian: max |A - A^dagger| = {gap:.3e} > {tol:.1e}")
    return a if gap == 0.0 else hermitian_part(a)


def _read_only(a: np.ndarray) -> np.ndarray:
    """A read-only view of ``a``, sharing its memory.  The flags of ``a``
    itself are left as they are.  The validated value classes
    (``channels.ChoiMatrix``, ``geometry.TangentVector``,
    ``geometry.ConstraintSet``) store their arrays this way, so that nothing
    writes into an array :func:`as_hermitian` may have returned uncopied."""
    view = a.view()
    view.flags.writeable = False
    return view


def _check_domain(w: np.ndarray, ok: bool | np.ndarray, name: str) -> None:
    """Raise ``DomainError`` naming ``name`` unless ``ok``, the verdict on
    the ascending spectrum ``w`` or one per row of a stack of them, holds
    throughout.  The message gives the smallest eigenvalue of the first
    spectrum outside the domain."""
    ok = np.ravel(ok)
    if not ok.all():
        raise DomainError(f"eigenvalue {np.ravel(w[..., 0])[~ok][0]:.6e} outside the domain of {name}")


def matrix_function(a: np.ndarray, name: str, t: float | None = None) -> np.ndarray:
    """Spectral matrix function f(A) = P f(Lambda) P^dagger of a Hermitian
    matrix, or of each matrix of a stack.

    ``name`` is one of ``sqrt``, ``log``, ``exp``, ``inverse`` or ``power``
    (the latter takes the exponent ``t``).  The argument is validated
    (``as_hermitian``) and decomposed by one ``numpy.linalg.eigh``, its
    eigenvalues ascending.  They are checked against the function's domain:
    ``log``, ``inverse`` and negative powers need the package's cone test
    (:func:`_positive_definite`), ``sqrt`` and fractional powers
    eigenvalues of at least ``-domain_atol``, and small negatives inside
    that tolerance are clipped to zero.
    """
    w, v = np.linalg.eigh(as_hermitian(a))
    nonnegative = w[..., 0] >= -get_policy().domain_atol

    if name == "sqrt":
        _check_domain(w, nonnegative, "sqrt")
        fw = np.sqrt(np.clip(w, 0.0, None))
    elif name == "log":
        _check_domain(w, _positive_definite(w), "log")
        fw = np.log(w)
    elif name == "exp":
        fw = np.exp(w)
    elif name == "inverse":
        _check_domain(w, _positive_definite(w), "inverse")
        fw = 1.0 / w
    elif name == "power":
        if t is None:
            raise InvalidInputError("power requires an exponent t")
        if t < 0 or (t != int(t) and t > 0):
            # fractional or negative powers need a nonnegative / positive spectrum
            if t < 0:
                _check_domain(w, _positive_definite(w), f"power({t})")
            else:
                _check_domain(w, nonnegative, f"power({t})")
                w = np.clip(w, 0.0, None)
        fw = np.power(w, t)
    else:
        raise InvalidInputError(f"unknown matrix function tag {name!r}")
    return hermitian_part((v * fw[..., None, :]) @ _adjoint(v))


def _exp_divided_differences(w: np.ndarray) -> np.ndarray:
    """Loewner matrix of first divided differences of exp on the spectrum
    ``w``, as exp(max(a, b)) expm1(-|a - b|) / (-|a - b|), with exact ties
    (the diagonal among them) set to exp(a).  Nothing overflows that exp(w)
    does not, and no difference of exponentials cancels, so entries at
    close and at far-apart eigenvalues are accurate to a few ulps.  It is
    the package's one Loewner matrix: the BKM Newton Hessian in ``scaling``
    and ``geometry.dexp_frechet`` read it on the spectrum of their argument,
    and ``geometry.dlog_frechet`` takes its reciprocal on the log-spectrum,
    since (log a - log b) / (a - b) = 1 / this entry at (log a, log b)."""
    gap = -np.abs(w[:, None] - w[None, :])
    ratio = np.divide(np.expm1(gap), gap, out=np.ones_like(gap), where=gap != 0.0)
    return np.exp(np.maximum(w[:, None], w[None, :])) * ratio


def sqrtm(a: np.ndarray) -> np.ndarray:
    """Principal square root of a positive semidefinite matrix."""
    return matrix_function(a, "sqrt")


def logm(a: np.ndarray) -> np.ndarray:
    """Matrix logarithm of a positive definite matrix."""
    return matrix_function(a, "log")


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential of a Hermitian matrix."""
    return matrix_function(a, "exp")


def powm(a: np.ndarray, t: float) -> np.ndarray:
    """Matrix power A^t of a positive (semi)definite matrix."""
    return matrix_function(a, "power", t)


def invm(a: np.ndarray) -> np.ndarray:
    """Inverse of a nonsingular Hermitian matrix via its spectrum."""
    return matrix_function(a, "inverse")


def _positive_definite(w: np.ndarray) -> bool | np.ndarray:
    """The cone test of the package on an ascending spectrum ``w``, or on
    each row of a stack of them: min eig > floor * max(max eig, tiny), with
    the policy's ``pd_rel_floor``.  A spectrum on the boundary, min eig =
    floor * max eig, is outside.  One spectrum gives a bool, read off two
    scalars; a stack gives an array of them."""
    floor = get_policy().pd_rel_floor
    if w.ndim == 1:
        return bool(w[0] > floor * max(w[-1], _TINY))
    return w[..., 0] > floor * np.maximum(w[..., -1], _TINY)


def _not_positive_definite(low: float, what: str) -> SingularityError:
    """The error for ``what``, whose spectrum failed
    :func:`_positive_definite` with minimum eigenvalue ``low``."""
    return SingularityError(f"{what} is not positive definite (min eigenvalue {low:.3e})")


def _check_positive_definite(w: np.ndarray, what: str) -> None:
    """Raise ``SingularityError`` unless the ascending spectrum ``w``, or
    every row of a stack of them, passes :func:`_positive_definite`.  For a
    stack, the message gives the first failing spectrum's minimum."""
    ok = _positive_definite(w)
    if not (ok if w.ndim == 1 else ok.all()):
        raise _not_positive_definite(np.ravel(w[..., 0])[~np.ravel(ok)][0], what)


def is_positive_definite(a: np.ndarray) -> bool | np.ndarray:
    """Positive definite under the policy floor (:func:`_positive_definite`).
    A stack gives one bool per matrix."""
    return _positive_definite(np.linalg.eigvalsh(as_hermitian(a)))


def assert_positive_definite(a: np.ndarray, what: str = "matrix") -> np.ndarray:
    """Return ``a`` (a matrix or a stack) as :func:`as_hermitian` does
    (itself when it is exactly Hermitian), raising ``SingularityError`` if
    it, or any matrix of the stack, is not PD.

    No regularization is applied: a near-singular input is an error, never
    silently floored, so that reference comparisons stay meaningful.
    """
    a = as_hermitian(a, what=what)
    _check_positive_definite(np.linalg.eigvalsh(a), what)
    return a


def solve_lyapunov(a: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Unique Hermitian solution X of A X + X A = Q for positive definite A.

    Solved in the eigenbasis of A: with A = P diag(lam) P^dagger and
    Qt = P^dagger Q P, the solution is Xt_ij = Qt_ij / (lam_i + lam_j).
    """
    a = assert_positive_definite(a, "Lyapunov coefficient")
    q = as_hermitian(q, what="Lyapunov right-hand side")
    if a.shape != q.shape:
        raise InvalidInputError(f"dimension mismatch: {a.shape} vs {q.shape}")
    w, v = np.linalg.eigh(a)
    qt = v.conj().T @ q @ v
    xt = qt / (w[:, None] + w[None, :])
    return hermitian_part(v @ xt @ v.conj().T)


def _mean_from_spectrum(w: np.ndarray, v: np.ndarray, b: np.ndarray) -> np.ndarray:
    """A # B for A = v diag(w) v^dagger with w > 0 and B positive definite,
    worked in the eigenbasis of A: with X = w^{-1/2} (v^dagger B v) w^{-1/2},
    which is A^{-1/2} B A^{-1/2} in that basis,

        A # B = v w^{1/2} X^{1/2} w^{1/2} v^dagger.

    One ``eigh``, of X, and no checks: the callers validate A and B.  A
    stack of spectra, or a stack of B, gives the stack of means."""
    half = np.sqrt(w)
    scale = half[..., :, None] * half[..., None, :]
    # X is Hermitian in exact arithmetic; symmetrize so rounding from
    # ill-conditioned inputs cannot tilt its spectrum
    s, u = np.linalg.eigh(hermitian_part((_adjoint(v) @ b @ v) / scale))
    root = (u * np.sqrt(np.clip(s, 0.0, None))[..., None, :]) @ _adjoint(u)
    return hermitian_part(v @ (root * scale) @ _adjoint(v))


def geometric_mean(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix geometric mean A # B = A^{1/2} (A^{-1/2} B A^{-1/2})^{1/2} A^{1/2}.

    The result is the unique positive definite solution X of the Riccati
    equation X A^{-1} X = B, and is symmetric in its arguments.  Both
    arguments are checked Hermitian and positive definite; the check of A
    is its ``eigh``, whose spectrum the mean then uses, so a call costs two
    ``eigh`` (A and the middle factor) and one ``eigvalsh`` (B).
    """
    what = "geometric mean left argument"
    a = as_hermitian(a, what=what)
    w, v = np.linalg.eigh(a)
    _check_positive_definite(w, what)
    b = assert_positive_definite(b, "geometric mean right argument")
    if a.shape != b.shape:
        raise InvalidInputError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return _mean_from_spectrum(w, v, b)


def inverse_mean(
    a: np.ndarray, b: np.ndarray | float, what: str = "matrix"
) -> tuple[np.ndarray, float | np.ndarray]:
    """A^{-1} # B for Hermitian A and positive definite B, with log det A.

    This is the SLD step's factor: the unique positive definite F with
    F A F = B (and, as sigma^{-1} # rho, the mean in the Nagaoka
    divergence).  One ``eigh`` of A is both its positive definiteness check
    (``SingularityError`` naming ``what``) and, through the reciprocal
    eigenvalues, the spectrum of A^{-1}; one more ``eigh`` takes the middle
    factor's square root.  A positive scalar ``b`` means b I: then
    F = v diag(sqrt(b / w)) v^dagger comes from A = v diag(w) v^dagger
    alone (the operator Sinkhorn normalization (A / b)^{-1/2}), so the call
    makes one ``eigh``.  log det A = sum log w comes from the same
    spectrum, so log det F = (log det B - log det A) / 2 needs no further
    decomposition.  A must be exactly Hermitian (``eigh`` reads its lower
    triangle) and B is not checked: the caller validates both.

    A (B, d, d) stack A, or B, gives the stack of factors; log det A is then
    an array of B values for a stacked A.  The call is ``eigh``, the check
    and :func:`_inverse_mean_from_spectrum`.
    """
    w, v = np.linalg.eigh(a)
    _check_positive_definite(w, what)
    return _inverse_mean_from_spectrum(w, v, b)


def _inverse_mean_from_spectrum(
    w: np.ndarray, v: np.ndarray, b: np.ndarray | float
) -> tuple[np.ndarray, float | np.ndarray]:
    """The core of :func:`inverse_mean`: A^{-1} # B and log det A for
    A = v diag(w) v^dagger with w > 0, or for each row of a stack of
    spectra, without checks.  ``scaling.operator_sinkhorn_batch`` feeds it
    the rows of its stacked ``eigh`` that pass the cone test."""
    logdet = np.add.reduce(np.log(w), axis=-1)
    if w.ndim == 1:
        logdet = float(logdet)
    if np.ndim(b) == 0:
        return hermitian_part((v * np.sqrt(b / w)[..., None, :]) @ _adjoint(v)), logdet
    return _mean_from_spectrum(1.0 / w, v, b), logdet


def partial_trace(mat: np.ndarray, n: int, m: int, which: str) -> np.ndarray:
    """Partial trace of an ``mn x mn`` matrix with n outer blocks of size m.

    ``which="first"`` sums the diagonal blocks (m x m result); ``"second"``
    takes the trace of each block (n x n result).
    """
    mat = np.asarray(mat, dtype=complex)
    if mat.shape != (n * m, n * m):
        raise InvalidInputError(f"expected shape {(n * m, n * m)}, got {mat.shape}")
    blocks = mat.reshape(n, m, n, m)
    if which == "first":
        return np.einsum("iaib->ab", blocks)
    if which == "second":
        return np.einsum("iaja->ij", blocks)
    raise InvalidInputError(f"which must be 'first' or 'second', got {which!r}")
