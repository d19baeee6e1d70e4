"""Completely positive maps: Kraus form, Choi representation, scaling.

A CP map Phi: C^{n x n} -> C^{m x m} with Kraus operators ``A_k`` (all
``m x n``) acts as Phi(X) = sum_k A_k X A_k^dagger.  Its Choi matrix is the
``mn x mn`` block matrix whose (i, j) block of size m is Phi(E_ij); the map
is completely positive exactly when this matrix is positive semidefinite.

Block orientation is fixed package-wide: the outer (block) index has
dimension ``n`` (the input side), the inner dimension is ``m`` (the output
side).  Hence ``tr_first CH(Phi) = Phi(I_n)``, while ``tr_second CH(Phi)``
equals the transpose of ``Phi^*(I_m)`` (the two coincide for real maps).
The scaling algorithms work directly with the partial traces, so this
distinction never leaks into them.
"""

from __future__ import annotations

import cmath
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import ConvergenceError, InvalidInputError
from .policy import get_policy

__all__ = [
    "KrausMap",
    "ChoiMatrix",
    "choi_from_kraus",
    "apply_map",
    "apply_dual",
    "congruence",
    "scale_choi",
    "random_density",
    "random_choi",
    "as_density",
]


def _integer(value, what: str, least: int) -> int:
    """``value`` as an int.  A bool, a number that is not integral or a
    value below ``least`` is an ``InvalidInputError``: the one rule for the
    package's counts and dimensions."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise InvalidInputError(f"{what} must be an int of at least {least}, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class KrausMap:
    """A completely positive map given by a non-empty list of m x n operators."""

    ops: tuple[np.ndarray, ...]

    def __post_init__(self):
        if len(self.ops) == 0:
            raise InvalidInputError("a Kraus map needs at least one operator")
        try:
            ops = tuple(np.asarray(op, dtype=complex) for op in self.ops)
        except (TypeError, ValueError) as exc:  # a ragged or non-numeric operator
            raise InvalidInputError(f"a Kraus operator is not a numeric array: {exc}") from exc
        if any(op.ndim != 2 or op.shape != ops[0].shape for op in ops):
            raise InvalidInputError("all Kraus operators must share one m x n shape")
        object.__setattr__(self, "ops", ops)

    @property
    def out_dim(self) -> int:
        return self.ops[0].shape[0]

    @property
    def in_dim(self) -> int:
        return self.ops[0].shape[1]

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Phi(X) = sum_k A_k X A_k^dagger."""
        x = np.asarray(x, dtype=complex)
        if x.shape != (self.in_dim, self.in_dim):
            raise InvalidInputError(f"expected {self.in_dim} x {self.in_dim} input, got {x.shape}")
        return sum(a @ x @ a.conj().T for a in self.ops)

    def apply_dual(self, y: np.ndarray) -> np.ndarray:
        """Phi^*(Y) = sum_k A_k^dagger Y A_k."""
        y = np.asarray(y, dtype=complex)
        if y.shape != (self.out_dim, self.out_dim):
            raise InvalidInputError(f"expected {self.out_dim} x {self.out_dim} input, got {y.shape}")
        return sum(a.conj().T @ y @ a for a in self.ops)


@dataclass(frozen=True)
class ChoiMatrix:
    """Choi matrix with its block dimensions (n outer blocks of size m).

    The block dimensions must be ints of at least 1 (a bool or a float is
    an ``InvalidInputError``) and are stored as ``int``.  The matrix is
    validated to be Hermitian and positive semidefinite at construction and
    stored exactly Hermitian, as a read-only array: a write through
    ``choi.matrix`` raises ``ValueError``.  An input that is already exactly
    Hermitian is stored without a copy, so ``choi.matrix`` may share memory
    with the caller's array, whose own flags are left as they are: copy that
    array before mutating it, or the Choi matrix changes with it.

    PSD means lambda_min >= -psd_rtol * |lambda|_max.  A Cholesky
    factorization of M + s I with s = psd_rtol/2 * ||M||_F / sqrt(dim) <=
    psd_rtol/2 * |lambda|_max accepts PSD inputs, rank-deficient ones
    included; the other half of psd_rtol covers its rounding.  Only when it
    fails are the eigenvalues computed, and they decide, so every decision
    and message is the eigenvalue rule's.
    """

    n: int
    m: int
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "n", _integer(self.n, "Choi dimension n", 1))
        object.__setattr__(self, "m", _integer(self.m, "Choi dimension m", 1))
        mat = linalg.as_hermitian(self.matrix, what="Choi matrix")
        if mat.shape != (self.n * self.m, self.n * self.m):
            raise InvalidInputError(
                f"Choi matrix of shape {mat.shape} inconsistent with n={self.n}, m={self.m}"
            )
        rtol = get_policy().psd_rtol
        dim = len(mat)
        shifted = mat.copy()
        shifted.flat[:: dim + 1] += 0.5 * rtol * np.sqrt(np.vdot(mat, mat).real / dim)
        try:
            np.linalg.cholesky(shifted)
        except np.linalg.LinAlgError:
            w = np.linalg.eigvalsh(mat)
            if w[0] < -rtol * max(abs(w[-1]), np.finfo(float).tiny):
                raise InvalidInputError(
                    f"Choi matrix is not positive semidefinite (min eigenvalue {w[0]:.3e})"
                ) from None
        object.__setattr__(self, "matrix", linalg._read_only(mat))

    @classmethod
    def _trusted(cls, n: int, m: int, mat: np.ndarray, what: str) -> ChoiMatrix:
        """The Choi matrix of a solver's final ``mat``, checked for shape
        and finiteness only; ``scaling._close`` is the one caller.

        Every final is exactly Hermitian and PSD by construction (a
        congruence of a validated input by positive definite factors, a
        Gibbs state, the inverse of a resolvent that passed the cone test,
        each ending in ``linalg.hermitian_part``), so the Hermiticity pass
        and the Cholesky of the public constructor are skipped;
        ``tests/test_scaling.py::TestTrustedFinals`` shows every final
        passes them.  A final that is not finite is an overflow of the run
        ``what`` names, a ``ConvergenceError``.
        """
        if mat.shape != (n * m, n * m):
            raise InvalidInputError(f"{what} final of shape {mat.shape} inconsistent with n={n}, m={m}")
        # a non-finite entry makes the sum non-finite, so only then is each
        # entry tested
        with np.errstate(over="ignore", invalid="ignore"):
            total = np.add.reduce(mat, axis=None)
        if not cmath.isfinite(total) and not np.isfinite(mat).all():
            raise ConvergenceError(f"{what} overflowed: its final iterate is not finite")
        choi = object.__new__(cls)
        for name, value in (("n", n), ("m", m), ("matrix", linalg._read_only(mat))):
            object.__setattr__(choi, name, value)
        return choi

    @property
    def dim(self) -> int:
        return self.n * self.m

    def blocks(self) -> np.ndarray:
        """View as an (n, m, n, m) block array."""
        return self.matrix.reshape(self.n, self.m, self.n, self.m)

    def trace_first(self) -> np.ndarray:
        """Sum of diagonal blocks; equals Phi(I_n)."""
        return linalg.partial_trace(self.matrix, self.n, self.m, "first")

    def trace_second(self) -> np.ndarray:
        """Blockwise traces; equals Phi^*(I_m)."""
        return linalg.partial_trace(self.matrix, self.n, self.m, "second")


def as_density(mat: np.ndarray, what: str = "density matrix") -> np.ndarray:
    """Validate a positive definite, trace-one Hermitian matrix and return
    it exactly Hermitian: itself when it already is (see
    ``linalg.as_hermitian``)."""
    mat = linalg.assert_positive_definite(mat, what)
    if mat.ndim != 2:
        raise InvalidInputError(f"{what} must be a matrix, got shape {mat.shape}")
    _check_unit_trace(mat, what)
    return mat


def _check_unit_trace(mat: np.ndarray, what: str) -> None:
    """``InvalidInputError`` unless the square ``mat`` (named ``what``) has
    trace one within the policy's ``trace_atol``."""
    tr = float(np.trace(mat).real)
    if abs(tr - 1.0) > get_policy().trace_atol:
        raise InvalidInputError(f"{what} has trace {tr!r}, expected 1")


def _check_marginal(choi: ChoiMatrix, side: str, target: np.ndarray, what: str) -> None:
    """``InvalidInputError`` unless ``side`` names a marginal of ``choi`` and
    the square ``target`` (named ``what``) has its size: m x m for
    ``"first"``, n x n for ``"second"``."""
    if side not in ("first", "second"):
        raise InvalidInputError(f"side must be 'first' or 'second', got {side!r}")
    d = choi.m if side == "first" else choi.n
    if target.shape != (d, d):
        raise InvalidInputError(
            f"{what} has shape {target.shape}, but the {side} marginal of an n={choi.n}, m={choi.m} "
            f"Choi matrix is {d} x {d}"
        )


def choi_from_kraus(kraus: KrausMap) -> ChoiMatrix:
    """CH(Phi) = sum_ij E_ij (x) Phi(E_ij), assembled blockwise.

    Block (i, j) is sum_k A_k E_ij A_k^dagger = sum_k (col_j A_k)(col_i A_k)^dagger,
    i.e. the Choi matrix is sum_k vec_k vec_k^dagger for the column-stacked
    Kraus operators, which makes positive semidefiniteness explicit.
    """
    n, m = kraus.in_dim, kraus.out_dim
    choi = np.zeros((n * m, n * m), dtype=complex)
    for a in kraus.ops:
        # stacking columns of A gives the vector |A> with <i a|A> = A[a, i]
        vec = a.T.reshape(-1)
        choi += np.outer(vec, vec.conj())
    return ChoiMatrix(n=n, m=m, matrix=choi)


def apply_map(choi: ChoiMatrix, x: np.ndarray) -> np.ndarray:
    """Evaluate Phi(X) from the Choi matrix.

    Equals tr_first((X^T kron I_m) CH(Phi)); computed blockwise as
    sum_jk X_jk Phi(E_jk).
    """
    x = np.asarray(x, dtype=complex)
    if x.shape != (choi.n, choi.n):
        raise InvalidInputError(f"expected {choi.n} x {choi.n} input, got {x.shape}")
    return np.einsum("jk,jakb->ab", x, choi.blocks())


def apply_dual(choi: ChoiMatrix, y: np.ndarray) -> np.ndarray:
    """Evaluate the dual map Phi^*(Y), defined by tr(Y Phi(X)) = tr(Phi^*(Y) X).

    Entrywise, Phi^*(Y)_ij = tr(Y Phi(E_ji)).  Note that Phi^*(I_m) equals the
    transpose of ``trace_second`` of the Choi matrix; the two coincide for
    maps with real Kraus operators.
    """
    y = np.asarray(y, dtype=complex)
    if y.shape != (choi.m, choi.m):
        raise InvalidInputError(f"expected {choi.m} x {choi.m} input, got {y.shape}")
    return np.einsum("ab,jbia->ij", y, choi.blocks())


def congruence(
    mat: np.ndarray, n: int, m: int, left: np.ndarray | None = None, right: np.ndarray | None = None
) -> np.ndarray:
    """(R kron L) M (R kron L)^dagger for an ``mn x mn`` array M, exactly
    Hermitian.

    The factors act on the (n, m, n, m) block view, so the dense
    ``mn x mn`` Kronecker factor is never formed: L (m x m) multiplies the
    inner row and column indices of every block, at n^2 m^3 work per side,
    and R (n x n) contracts the outer indices, at n^3 m^2 per side, against
    (nm)^3 for a dense product.  ``None`` stands for an identity factor.
    The factors need not be Hermitian: the operator Sinkhorn loop passes
    the products of its factors and forms its final iterate with one call.

    Nothing is validated here: callers check M and the factors at their
    boundary (``scale_choi``, ``scaling.operator_sinkhorn``).  For Hermitian
    PSD M the result is a congruence, PSD by construction; the closing
    symmetrization keeps it exactly Hermitian.  That is why the operator
    Sinkhorn loop checks the final it forms here for shape and finiteness
    only (``ChoiMatrix._trusted``).
    """
    d = n * m
    if left is not None:
        mat = np.matmul(left, mat.reshape(n, m, d)).reshape(d * n, m) @ left.conj().T
    if right is not None:
        mat = (right @ mat.reshape(n, m * d)).reshape(d, n, m)
        mat = np.matmul(right.conj(), mat)
    return linalg.hermitian_part(mat.reshape(d, d))


def scale_choi(choi: ChoiMatrix, left: np.ndarray, right: np.ndarray) -> ChoiMatrix:
    """Choi matrix of the scaled map X -> L Phi(R^dagger X R) L^dagger.

    For Hermitian L (m x m) and R (n x n) this is the congruence
    (R kron L) CH(Phi) (R kron L), applied blockwise by :func:`congruence`.
    The factors are checked Hermitian and of the right shapes here, and the
    result is validated as a :class:`ChoiMatrix`, Cholesky included; the
    Sinkhorn loop calls the kernel on plain arrays instead and checks only
    its final iterate, for shape and finiteness.
    """
    left = linalg.as_hermitian(left, what="left scaling factor")
    right = linalg.as_hermitian(right, what="right scaling factor")
    if left.shape != (choi.m, choi.m) or right.shape != (choi.n, choi.n):
        raise InvalidInputError(
            f"scaling factors must be {choi.m} x {choi.m} and {choi.n} x {choi.n}"
        )
    scaled = congruence(choi.matrix, choi.n, choi.m, left, right)
    return ChoiMatrix(n=choi.n, m=choi.m, matrix=scaled)


def random_density(dim: int, rng: np.random.Generator, *, real: bool = False) -> np.ndarray:
    """Random density matrix P^dagger P / tr(P^dagger P) from a Ginibre P.

    ``real=False`` draws independent standard complex Gaussians (the default;
    the resulting ensemble is unitarily invariant with mean I/dim), ``real=True``
    draws real standard Gaussians.  ``dim`` must be an int of at least 1.
    """
    dim = _integer(dim, "dimension", 1)
    if real:
        p = rng.standard_normal((dim, dim))
    else:
        p = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
    rho = p.conj().T @ p
    rho = linalg.hermitian_part(rho / np.trace(rho).real)
    return rho


def random_choi(n: int, m: int, rng: np.random.Generator, *, real: bool = False) -> ChoiMatrix:
    """Random positive definite, trace-one Choi matrix of block shape (n, m),
    both ints of at least 1."""
    n, m = _integer(n, "Choi dimension n", 1), _integer(m, "Choi dimension m", 1)
    return ChoiMatrix(n=n, m=m, matrix=random_density(n * m, rng, real=real))
