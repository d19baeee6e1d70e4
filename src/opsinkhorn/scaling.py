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
sets; they are dually-flat e-projections with closed dual characterizations,
each solved here by damped Newton with a closed-form Jacobian: the
Daleckii-Krein form of the matrix exponential for BKM and the resolvent
identity, written blockwise, for Burg.  Newton runs on the real
coordinates x of the Hermitian duals, d^2 for a d x d dual, A = reshape(U x)
with U the unitary whose columns are the Frobenius-orthonormal Hermitian
basis (:class:`_Frame`, built once per run).  The gradient is the
coordinates of the marginal mismatch, the Hessian the closed form taken to
coordinates as Re(U^dagger H U), and the Newton system is real symmetric,
positive definite once the gauge terms on the identity's coordinates are
added: one float64 solve per step, and no Hermitian part of a step to take.
The lift coord +- lift(A) is one copy and one indexed add of precomputed
rows of U.  Each projection is a straight move in that geometry's
e-coordinate (the normalized log rho for BKM, rho^{-1} for Burg), so the
alternation carries the coordinate and its spectrum from one projection to
the next instead of re-deriving it from every iterate.
Both geometries are dually flat, so the limit of either alternation is also
the e-projection onto both marginal sets at once: the same dual with both
dual variables free.  :func:`joint_limit` runs the projection's own solve,
:func:`_project`, on the frame of both sides (m^2 + n^2 coordinates,
block-diagonal U, one indexed add per side), in a few Newton steps where
the Burg alternation needs hundreds or thousands of sweeps.  So both
geometries share one point type (:class:`_Point`), one projection
(:func:`_project`) and one start (:func:`_start`), and each keeps its own
evaluation and Newton direction (:func:`_bkm_dual`, :func:`_burg_dual`),
for one side or both.

Every BKM and Burg solve starts from one ``eigh`` (w, v) of its validated
input rho, which is also its entry cone test: BKM at log rho with spectrum
(log w, v), Burg at rho^{-1} with spectrum 1/w, and rho itself as its
state.  A BKM Newton evaluation is one ``eigh`` of the lifted coordinate:
the marginal is read off its spectrum.  Its point holds the coordinate and
spectrum shifted by -log Z, with the Gibbs weights and the gradient, and
the state exp(coord) / Z is formed from the weights only where it is used
(:func:`_state`): the public projection's result, the joint limit and an
alternation's final, one state per run.  A start is evaluated the same
way, from the spectrum it carries.  Each Newton direction contracts the
eigenvectors by one matrix product.  A Burg direction takes its Jacobian,
sum_ij R_ij kron R_ji^T over the blocks of the resolvent R, as one Gram
product of a reshape of R.

A BKM or Burg residual after entry is read off the Newton gradients the
solves already hold.  The real coordinates are an isometry of the
Hermitian marginals, so a solve's gradient norm is the Frobenius norm of
its marginal mismatch: a sweep's residual is the squared gradient norm the
second-side solve ended at plus the one the next first-side solve starts
from, and the joint limit's is the squared norm of its last gradient.  The
sweep's start evaluation is formed once, at the sweep's end, and handed to
the next projection (:func:`_start_evaluation`), so a sweep takes each
marginal once and no partial trace of a state.

Every scheme is one alternation of e-projections onto the two marginal
sets, and only the projection differs, so one stop rule, :func:`_running`,
stops them all (a run sweeps while its residual is at least ``tol`` and its
budget lasts), and one end, :func:`_close`, closes them all, the joint limit
solve too.  One sweep loop, :func:`_alternate`, runs classical Sinkhorn
(the diagonal case) and the BKM and Burg alternations; each driver passes
in its per-side step and its residual.  Operator Sinkhorn sweeps a stack of
trials instead (below).  Likewise one damped-Newton loop, :func:`_newton`,
runs every BKM and Burg solve, one-sided or joint, with the geometry's
evaluation and Newton direction, and names the solve in its errors (the
side and sweep of an alternation's projection, or the joint solve).

Operator Sinkhorn runs on the factors instead of the iterate: after k steps
the iterate is (R kron L) rho0 (R kron L)^dagger, the Choi matrix of the
scaled map X -> L Phi(R^dagger X R) L^dagger, with L and R the ordered
products of the left and right factors so far.  Its marginals,
L Phi((R^dagger R)^T) L^dagger and its counterpart, come from one
permuted copy of rho0 by one matrix-vector product each (O(n^2 m^2) work
at any Kraus rank), so the loop carries the m x m and n x n products and
forms the ``mn x mn`` iterate once, at the end.

Operator Sinkhorn also runs many inputs of one block shape at once:
:func:`operator_sinkhorn_batch` stacks their permuted copies, products and
marginals on a leading axis (:class:`_SinkhornStack`), so a step is one
stacked ``eigh`` and a few stacked matmuls for every trial, and a trial
leaves the stack when it stops.  Stacked ``eigh`` and ``matmul`` give each
matrix the bits of the 2-D call, so each trial's trace is exactly the one
it gets alone, and :func:`operator_sinkhorn` is the batch of one.  A trial
whose step fails (a singular marginal, or factor products that overflow,
which is a ``ConvergenceError``) leaves the stack with every later trial,
and the batch raises the error of its lowest failing trial.  The step finds
it on what it already holds, the stacked marginals and their one stacked
``eigh``, and the trials before it go on from their rows of those.

Every driver validates its input at its boundary only, once at entry (a
Choi matrix with unit trace; positive definite for ``bkm`` and ``burg``,
read off their start's one ``eigh``).
Its final iterate is exactly Hermitian and PSD by construction (a
congruence by positive definite factors, a Gibbs state, the inverse of a
resolvent that passed the cone test, each ending in
``linalg.hermitian_part``), so :func:`_close` checks it for shape and
finiteness only (``ChoiMatrix._trusted``): a non-finite final is an
overflow, a ``ConvergenceError``.  ``TestTrustedFinals`` in
``tests/test_scaling.py`` shows that finals pass the full public check
all the same.  A batch checks each trial's input and final.  In between
the loops run on plain arrays: operator Sinkhorn on the marginals and
factors, the other two through the array-level projection
:func:`_project`.  The public single-step functions
(``_sld_step`` behind :func:`operator_sinkhorn_step`) carry their own
checks.

A run is summarized by a :class:`ScalingTrace` which records the iterates,
the scaling factors, the per-sweep stopping-criterion residuals

    ||tr_first rho - P||_F^2 + ||tr_second rho - Q||_F^2

and, for square doubly stochastic runs, the accumulated log-determinant
product that determines the capacity of the input map.  The iterates of
every run on a Choi matrix are one :class:`SinkhornIterates`, which holds
what the run holds (the factor products of operator Sinkhorn, the
cumulative duals of the BKM and Burg alternations) and rebuilds an
iterate on read, so a trace does not grow by an ``mn x mn`` array per
step.
"""

from __future__ import annotations

import cmath
import math
import numbers
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import linalg
from .channels import ChoiMatrix, _check_marginal, _check_unit_trace, _integer, as_density, congruence
from .errors import (
    ConvergenceError,
    DomainError,
    InvalidInputError,
    SingularityError,
    UnsupportedError,
)
from .geometry import ConstraintSet
from .policy import get_policy

_EPS = np.finfo(float).eps

__all__ = [
    "ScalingConfig",
    "ScalingTrace",
    "SinkhornIterates",
    "doubly_stochastic",
    "matrix_sinkhorn",
    "operator_sinkhorn_step",
    "operator_sinkhorn",
    "operator_sinkhorn_batch",
    "bkm_e_projection",
    "burg_e_projection",
    "alternating_projections",
    "joint_limit",
    "capacity_from_trace",
]

METHODS = ("sld", "bkm", "burg")


@dataclass(frozen=True)
class ScalingConfig:
    """Iteration budget, stopping tolerance and marginal targets.

    ``max_iters`` counts sweeps (one left plus one right step).  ``tol`` is
    compared against the squared-Frobenius stopping criterion; ``tol=0``
    disables early stopping so a run executes exactly ``max_iters`` sweeps.
    A ``max_iters`` that is not an int, or a ``tol`` that is not finite, is
    an ``InvalidInputError``.  ``target_p`` / ``target_q`` default to I/m
    and I/n.
    """

    max_iters: int = 200
    tol: float = 1e-8
    target_p: np.ndarray | None = None
    target_q: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "max_iters", _integer(self.max_iters, "max_iters", 0))
        if not (isinstance(self.tol, numbers.Real) and math.isfinite(self.tol) and self.tol >= 0):
            raise InvalidInputError(f"tol must be finite and nonnegative, got {self.tol!r}")

    def targets(self, n: int, m: int) -> tuple[np.ndarray, np.ndarray]:
        p = np.eye(m) / m if self.target_p is None else as_density(self.target_p, "target P")
        q = np.eye(n) / n if self.target_q is None else as_density(self.target_q, "target Q")
        for name, target, d in (("P", p, m), ("Q", q, n)):
            if target.shape != (d, d):
                raise InvalidInputError(f"target {name} must be {d} x {d}, got shape {target.shape}")
        return p, q


def _uniform_level(target: np.ndarray) -> float | None:
    """1/d if the d x d ``target`` is I/d within 1e-12 in every entry, else
    None.  The one test of a uniform target: :func:`doubly_stochastic` asks
    it of both sides, and the SLD steps pass a uniform side's 1/d to
    ``linalg.inverse_mean`` as a scalar, so capacity reporting and the
    one-``eigh`` factor agree on which runs are doubly stochastic."""
    d = len(target)
    return 1.0 / d if np.abs(target - np.eye(d) / d).max() <= 1e-12 else None


def doubly_stochastic(p: np.ndarray, q: np.ndarray) -> bool:
    """Whether the targets are the doubly stochastic ones, P = I/m and Q = I/n."""
    return _uniform_level(p) is not None and _uniform_level(q) is not None


class SinkhornIterates(Sequence):
    """The iterates of an ``sld``, ``bkm`` or ``burg`` run, held as what the
    run holds and rebuilt on read.

    Entry 0 is rho0, the input's ``choi.matrix`` itself (read-only, and
    sharing memory with the caller's array when that was exactly
    Hermitian), and the last entry the final iterate, ``trace.final.matrix``
    itself once the run ends.  In between the sequence holds one pair of
    small arrays per step, one per side, and reading entry k rebuilds it
    from its pair:

    - ``sld``: L_k and R_k, the ordered products of the left and right
      factors of the first k steps; the entry is
      (R_k kron L_k) rho0 (R_k kron L_k)^dagger, one
      :func:`channels.congruence`;
    - ``bkm`` and ``burg``: A_k and B_k, the cumulative duals of the first
      and second side, the sums of the duals of the first k projections;
      the entry is exp(H) / tr exp(H) for H = log rho0 + I kron A_k +
      B_k kron I, or K^{-1} for K = rho0^{-1} - I kron A_k - B_k kron I,
      from one lift of the two duals and one ``eigh``.  ``coord0`` is
      log rho0 or rho0^{-1}, the run's start coordinate.

    So a run holds at most three ``mn x mn`` arrays whatever its length.
    Slices are lazy views, and only the last entry can be replaced.
    """

    def __init__(self, rho0: np.ndarray, n: int, m: int, method: str = "sld", coord0: np.ndarray | None = None):
        self._rho0, self._n, self._m, self._method, self._coord0 = rho0, n, m, method, coord0
        self._held: list[tuple[np.ndarray | None, np.ndarray | None]] = [(None, None)]
        self._final = rho0

    def _append(self, first: np.ndarray, second: np.ndarray) -> None:
        self._held.append((first, second))

    def __len__(self) -> int:
        return len(self._held)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return _IterateView(self, range(len(self))[index])
        k = range(len(self))[index]
        if k == len(self) - 1:
            return self._final
        if k == 0:
            return self._rho0
        n, m, (first, second) = self._n, self._m, self._held[k]
        if self._method == "sld":
            return congruence(self._rho0, n, m, first, second)
        lift = np.kron(np.eye(n), first) + np.kron(second, np.eye(m))
        if self._method == "bkm":
            w, v = np.linalg.eigh(self._coord0 + lift)
            return _gibbs_state(v, _gibbs_weights(w)[0])
        coord = self._coord0 - lift
        return _burg_point(coord, *np.linalg.eigh(coord)).state

    def __setitem__(self, index, value: np.ndarray) -> None:
        if range(len(self))[index] != len(self) - 1:
            raise IndexError("only the final iterate can be replaced")
        self._final = value


class _IterateView(Sequence):
    """Lazy slice of a :class:`SinkhornIterates`: entries are rebuilt on read."""

    def __init__(self, iterates: SinkhornIterates, rows: range):
        self._iterates, self._rows = iterates, rows

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, index):
        rows = self._rows[index]
        return _IterateView(self._iterates, rows) if isinstance(index, slice) else self._iterates[rows]


@dataclass
class ScalingTrace:
    """Record of an alternating projection run.

    ``iterates`` starts with the input and ends with the final iterate: a
    list of arrays for ``classical``, a :class:`SinkhornIterates` for
    ``sld``, ``bkm`` and ``burg``, where reading an intermediate iterate
    rebuilds it (one congruence for ``sld``, one lift and one ``eigh`` for
    the other two).  ``final`` is the last iterate as a
    :class:`ChoiMatrix`: the validated input after a run that took no step,
    else the one :func:`_close` built, checked for shape and finiteness
    only (Hermitian and PSD by construction), whose ``matrix`` is
    ``iterates[-1]``.  A ``classical`` trace (from
    :func:`matrix_sinkhorn`) holds m x n arrays instead: ``n`` and ``m``
    are their column and row counts, as in the diagonal Choi embedding,
    the targets are I/m and I/n, and ``final`` is the scaled array.
    """

    method: str
    n: int
    m: int
    tol: float
    target_p: np.ndarray
    target_q: np.ndarray
    iterates: Sequence[np.ndarray] = field(default_factory=list)
    factors: list[tuple[str, np.ndarray]] = field(default_factory=list)
    residuals: list[float] = field(default_factory=list)
    capacity_log: float = 0.0
    converged: bool = False
    sweeps: int = 0
    preprocessed: bool = False
    final: ChoiMatrix | np.ndarray | None = field(default=None, repr=False)


def _running(trace: ScalingTrace, cfg: ScalingConfig) -> bool:
    """The stop rule of every sweep loop: a run takes another sweep while
    its last residual is at least ``cfg.tol`` and fewer than
    ``cfg.max_iters`` sweeps have run."""
    return trace.residuals[-1] >= cfg.tol and trace.sweeps < cfg.max_iters


def _alternate(
    trace: ScalingTrace, cfg: ScalingConfig, step: Callable[[str, np.ndarray], np.ndarray], residual: Callable[[], float]
) -> None:
    """The sweep loop of every driver but operator Sinkhorn, which runs the
    same sweeps over a stack of trials (:class:`_SinkhornStack`).  A sweep
    is ``step("first", P)`` then ``step("second", Q)``: each makes one
    e-projection onto {tr_side rho = target}, records its iterate and
    returns its factor, which the loop records.  Then ``residual()`` gives
    the stopping criterion.  Sweeps run while :func:`_running`."""
    while _running(trace, cfg):
        for side, target in (("first", trace.target_p), ("second", trace.target_q)):
            trace.factors.append((side, step(side, target)))
        trace.sweeps += 1
        trace.residuals.append(residual())


def _close(trace: ScalingTrace, cfg: ScalingConfig, state: np.ndarray | None = None) -> ScalingTrace:
    """The end of every run: ``converged`` from the last residual and, for a
    run that moved, the final ``state`` (a ``classical`` array as it is).
    A Choi final is exactly Hermitian and PSD by construction, so it is
    checked for shape and finiteness only (``ChoiMatrix._trusted``; a
    non-finite final is a ``ConvergenceError``), and its read-only view
    becomes ``iterates[-1]``."""
    trace.converged = trace.residuals[-1] < cfg.tol
    if state is not None:
        classical = trace.method == "classical"
        trace.final = state if classical else ChoiMatrix._trusted(trace.n, trace.m, state, f"{trace.method} run")
        trace.iterates[-1] = state if classical else trace.final.matrix
    return trace


def matrix_sinkhorn(a0: np.ndarray, cfg: ScalingConfig = ScalingConfig()) -> ScalingTrace:
    """Classical Sinkhorn iteration on an entrywise-positive matrix.

    Alternates row normalization A <- (1/m) Diag(A 1)^{-1} A with column
    normalization A <- (1/n) A Diag(A^T 1)^{-1} until the stopping criterion
    falls below ``cfg.tol`` or the sweep budget runs out.  Row sums are exact
    after every odd step, column sums after every even step.  The targets
    are the uniform ones: ``cfg.target_p`` or ``cfg.target_q`` set is an
    ``UnsupportedError``, a nonzero imaginary part a ``DomainError``.
    Returns a ``classical`` :class:`ScalingTrace`.
    """
    a = np.asarray(a0)
    if np.iscomplexobj(a) and np.any(a.imag != 0):
        raise DomainError("matrix scaling requires real entries")
    a = np.asarray(a.real, dtype=float)
    if a.ndim != 2:
        raise InvalidInputError(f"expected a matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)) or np.any(a <= 0):
        raise DomainError("matrix scaling requires strictly positive entries")
    if cfg.target_p is not None or cfg.target_q is not None:
        raise UnsupportedError("classical scaling targets uniform row and column sums")
    m, n = a.shape

    def residual() -> float:
        return float(np.linalg.norm(a.sum(axis=1) - 1.0 / m) ** 2 + np.linalg.norm(a.sum(axis=0) - 1.0 / n) ** 2)

    trace = ScalingTrace(
        method="classical", n=n, m=m, tol=cfg.tol, target_p=np.eye(m) / m, target_q=np.eye(n) / n,
        iterates=[a.copy()], residuals=[residual()],
    )

    def step(side: str, target: np.ndarray) -> np.ndarray:
        nonlocal a
        scale = 1.0 / (len(target) * a.sum(axis=1 if side == "first" else 0))
        a = a * scale[:, None] if side == "first" else a * scale
        trace.iterates.append(a)
        if m == n:
            trace.capacity_log += float(np.sum(np.log(scale))) / n
        return np.diag(scale)

    _alternate(trace, cfg, step, residual)
    return _close(trace, cfg, trace.iterates[-1])


def choi_residual(choi: ChoiMatrix, p: np.ndarray, q: np.ndarray) -> float:
    """Squared-Frobenius marginal mismatch used as the stopping criterion:
    the entry residual of every run.  After entry a run reads it off what
    its steps hold (the stacked marginals of operator Sinkhorn, the Newton
    gradients of the BKM and Burg solves)."""
    return float(np.linalg.norm(choi.trace_first() - p) ** 2 + np.linalg.norm(choi.trace_second() - q) ** 2)


def _sld_step(
    mat: np.ndarray, n: int, m: int, side: str, target: np.ndarray
) -> tuple[np.ndarray, np.ndarray, float]:
    """One SLD e-projection on a plain Hermitian PSD array; returns the new
    iterate, the factor F = marginal^{-1} # target and log det of the
    marginal.  ``linalg.inverse_mean`` checks that the marginal is positive
    definite from its ``eigh``, which also gives the factor: on its own for
    a uniform target I/d (passed as the scalar 1/d, see
    :func:`_uniform_level`), with one more ``eigh`` otherwise.  The side
    and the target are validated by the caller.  The congruence by the positive definite
    factor keeps the iterate PSD."""
    level = _uniform_level(target)
    factor, marginal_logdet = linalg.inverse_mean(
        linalg.partial_trace(mat, n, m, side), target if level is None else level, f"{side} marginal"
    )
    if side == "first":
        return congruence(mat, n, m, left=factor), factor, marginal_logdet
    return congruence(mat, n, m, right=factor), factor, marginal_logdet


def operator_sinkhorn_step(
    choi: ChoiMatrix, side: str, target: np.ndarray
) -> tuple[ChoiMatrix, np.ndarray]:
    """One operator Sinkhorn normalization.

    side "first" applies L = (tr_first rho)^{-1} # target on the inner factor,
    side "second" applies R = (tr_second rho)^{-1} # target on the outer one.
    The corresponding marginal of the result equals the target exactly (up to
    rounding), by the Riccati property of the geometric mean.  A side other
    than these two, or a target whose size is not that side's marginal's,
    is an ``InvalidInputError``.
    """
    target = as_density(target, "step target")
    _check_marginal(choi, side, target, "step target")
    mat, factor, _ = _sld_step(choi.matrix, choi.n, choi.m, side, target)
    return ChoiMatrix(n=choi.n, m=choi.m, matrix=mat), factor


def _new_trace(
    method: str, choi0: ChoiMatrix, cfg: ScalingConfig
) -> tuple[ScalingTrace, np.ndarray, np.ndarray, _Point | None]:
    """Entry checks and the trace of a run: a known method, for ``bkm`` and
    ``burg`` a positive definite input (both divergences need log rho and
    rho^{-1}, so a rank-deficient input is out of their domain), tested on
    the one ``eigh`` their start takes (:func:`_start`), and a unit-trace
    input.  Returns the trace with its first residual, P, Q and, for
    ``bkm`` and ``burg``, the start point, whose coordinate the trace's
    iterates rebuild from."""
    if method not in METHODS:
        raise UnsupportedError(f"unknown method {method!r}; expected one of {METHODS}")
    start = None if method == "sld" else _start(method, choi0.matrix, "initial Choi matrix")
    _check_unit_trace(choi0.matrix, "initial Choi matrix")
    p, q = cfg.targets(choi0.n, choi0.m)
    trace = ScalingTrace(
        method=method, n=choi0.n, m=choi0.m, tol=cfg.tol, target_p=p, target_q=q,
        iterates=SinkhornIterates(choi0.matrix, choi0.n, choi0.m, method, None if start is None else start.coord),
        residuals=[choi_residual(choi0, p, q)], final=choi0,
    )
    return trace, p, q, start


def _scaled_marginal(cross: np.ndarray, outer: np.ndarray, inner: np.ndarray) -> np.ndarray:
    """A marginal of (R kron L) rho0 (R kron L)^dagger from the factor
    products alone, for each trial of a stack.  With ``cross`` the
    (a b, i j) -> rho0[i a, j b] copy of rho0, ``outer`` = R and ``inner``
    = L this is tr_first, L X L^dagger with vec X = cross vec((R^dagger R)^T);
    with ``cross`` transposed, ``outer`` = L and ``inner`` = R it is
    tr_second.  One matrix-vector product with the (d^2 x d'^2) ``cross``
    and three small matmuls per trial, stacked; exactly Hermitian."""
    d = inner.shape[-1]
    vec = (outer.swapaxes(-1, -2) @ outer.conj()).reshape(len(outer), -1, 1)
    x = (cross @ vec).reshape(-1, d, d)
    return linalg.hermitian_part(inner @ x @ linalg._adjoint(inner))


class _SinkhornStack:
    """The running trials of :func:`operator_sinkhorn_batch`, stacked on a
    leading axis: stack row i holds trial ``rows[i]``, in ascending trial
    order, with its permuted copy of rho0 (``cross``), its factor products
    ``left`` and ``right``, its marginals and its last factor.

    Every step runs on the whole stack.  The per-trial records (factors,
    factor products, capacity, residuals, sweeps) go into each trial's
    trace after the step.  A trial that stops (see :func:`_running`)
    leaves the stack; :meth:`_select` copies the stacked arrays then, and
    only then.  A trial whose step fails leaves with every later trial
    (:meth:`_fail_first`): the batch raises the error of its lowest failing
    trial, so what later trials would give is never read.  A non-finite
    marginal and one outside the cone fail the same way, found on the
    step's stacked marginals and on their stacked spectrum.
    """

    def __init__(self, traces: list[ScalingTrace], chois: list[ChoiMatrix], cfg: ScalingConfig):
        self.traces, self.cfg, self.failure = traces, cfg, None
        # a trial whose input is already feasible takes no step, not even
        # the preprocessing one
        self.rows = [k for k, trace in enumerate(traces) if trace.residuals[0] >= cfg.tol]
        if not self.rows:
            return
        n, m = self.n, self.m = traces[0].n, traces[0].m
        self.p, self.q = traces[0].target_p, traces[0].target_q
        b = len(self.rows)
        # one permuted copy of each rho0, (a b, i j) -> rho0[i a, j b]; its
        # transpose is the (i j, a b) view the right marginals need
        self.cross = np.empty((b, m * m, n * n), dtype=complex)
        for row, k in enumerate(self.rows):
            self.cross[row].reshape(m, m, n, n)[...] = chois[k].matrix.reshape(n, m, n, m).transpose(1, 3, 0, 2)
        self.left = np.repeat(np.eye(m, dtype=complex)[None], b, axis=0)
        self.right = np.repeat(np.eye(n, dtype=complex)[None], b, axis=0)
        self.first = self.second = self.factor = None
        # a uniform side goes to inverse_mean as its scalar level c, so its
        # factor is (marginal / c)^{-1/2} and meets c I exactly, also when
        # the target is only within 1e-12 of it.  F marginal F = that
        # target, so log det F = (log det target - log det marginal) / 2,
        # read off the step's own spectrum of the marginal
        self.mean_target, self.target_logdet = {}, {}
        for side, target in (("first", self.p), ("second", self.q)):
            level = _uniform_level(target)
            self.mean_target[side] = target if level is None else level
            self.target_logdet[side] = (
                np.linalg.slogdet(target)[1] if level is None else len(target) * math.log(level)
            )

    def run(self) -> None:
        """Preprocess (general targets), then sweep until no trial runs."""
        if not self.rows:
            return
        if doubly_stochastic(self.p, self.q):
            self._marginal("first")
        else:
            for k in self.rows:
                self.traces[k].preprocessed = True
            self._step("second")
        self._select([_running(self.traces[k], self.cfg) for k in self.rows])
        while self.rows:
            self._step("first")
            self._step("second")
            if not self.rows:
                break
            # a sweep's residual reuses the marginals the stack holds: the
            # next left step's, and F M F after the right step
            first_gap = linalg.frobenius(self.first - self.p).tolist()
            second_gap = linalg.frobenius(self.factor @ self.second @ self.factor - self.q).tolist()
            running = []
            for k, gap, other in zip(self.rows, first_gap, second_gap):
                trace = self.traces[k]
                trace.sweeps += 1
                trace.residuals.append(gap**2 + other**2)
                running.append(_running(trace, self.cfg))
            self._select(running)

    def _select(self, keep: list[bool]) -> None:
        """Keep the stack rows where ``keep``, one bool per row, is true and
        drop the others.  This copies the stacked arrays, so it is applied
        only when some row leaves."""
        if all(keep):
            return
        self.rows = [k for k, kept in zip(self.rows, keep) if kept]
        keep = np.array(keep, dtype=bool)
        self.cross, self.left, self.right = self.cross[keep], self.left[keep], self.right[keep]
        self.first, self.second, self.factor = (
            None if a is None else a[keep] for a in (self.first, self.second, self.factor)
        )

    def _fail_first(self, ok: np.ndarray, error: Callable[[int], Exception]) -> int:
        """The first stack row whose ``ok`` is false, if any, fails with
        ``error(row)``: its trial leaves the stack with every later trial.
        Returns the number of rows left."""
        if ok.all():
            return len(ok)
        row = int(np.argmin(ok))
        self.failure = (self.rows[row], error(row))
        self._select([r < row for r in range(len(ok))])
        return row

    def _marginal(self, side: str) -> None:
        """Set the ``side`` marginal of every trial from its factor
        products.  A trial whose marginal is not finite (its products
        overflowed, as on inputs that cannot be scaled) fails with
        ``ConvergenceError``."""
        if side == "first":
            marginal = self.first = _scaled_marginal(self.cross, self.right, self.left)
        else:
            marginal = self.second = _scaled_marginal(self.cross.swapaxes(-1, -2), self.left, self.right)
        # a non-finite entry makes the sum non-finite, so only then is each
        # trial's marginal tested
        if not cmath.isfinite(np.add.reduce(marginal, axis=None)):
            self._fail_first(np.isfinite(marginal).all(axis=(1, 2)), lambda row: ConvergenceError(
                f"operator Sinkhorn overflowed in sweep {self.traces[self.rows[row]].sweeps + 1}: "
                f"the {side} marginal is not finite"
            ))

    def _factors(self, side: str) -> tuple[np.ndarray, np.ndarray] | None:
        """``linalg.inverse_mean`` of every trial's ``side`` marginal, the
        factors and the marginals' log determinants, from one stacked
        ``eigh`` of the marginals.  If a marginal is not positive definite,
        the first such trial fails with the error its own step raises, and
        the trials before it take their factors from their rows of the same
        spectrum.  None if no trial is left."""
        what = f"{side} marginal"
        w, v = np.linalg.eigh(self.first if side == "first" else self.second)
        left = self._fail_first(
            linalg._positive_definite(w), lambda row: linalg._not_positive_definite(w[row, 0], what)
        )
        return linalg._inverse_mean_from_spectrum(w[:left], v[:left], self.mean_target[side]) if left else None

    def _step(self, side: str) -> None:
        """One SLD e-projection of every trial onto {tr_side rho = target}:
        the factor F = marginal^{-1} # target, the product update and, after
        a right step, the next left marginal."""
        if side == "second" and self.rows:
            self._marginal("second")
        solved = self._factors(side) if self.rows else None
        if solved is None:
            return
        self.factor, logdet = solved
        if side == "first":
            self.left = self.factor @ self.left
        else:
            self.right = self.factor @ self.right
            self._marginal("first")
        target_logdet, square = self.target_logdet[side], self.n == self.m
        for row, (k, marginal_logdet) in enumerate(zip(self.rows, logdet.tolist())):
            trace = self.traces[k]
            trace.factors.append((side, self.factor[row]))
            trace.iterates._append(self.left[row], self.right[row])
            if square:
                # the congruence multiplies the encoded map by F twice, so
                # its capacity by det(F)^{2/n}
                trace.capacity_log += float(target_logdet - marginal_logdet) / self.n


def operator_sinkhorn_batch(
    chois: Sequence[ChoiMatrix], cfg: ScalingConfig = ScalingConfig()
) -> list[ScalingTrace]:
    """Operator Sinkhorn on many inputs of one block shape (n, m) at once.

    The result is exactly ``[operator_sinkhorn(c, cfg) for c in chois]``,
    trace for trace and bit for bit, and so is the error raised: that of the
    lowest-index failing trial.  The trials run as one stack (see
    :class:`_SinkhornStack`), so each step is one stacked ``eigh`` and a few
    stacked matmuls for all of them, not one set of calls per trial.

    For non-identity targets a run starts with one preprocessing right step
    with R = (tr_second rho)^{-1} # Q, after which left and right steps
    alternate, left first.  Each recorded step is an SLD e-projection onto
    its constraint set.

    An input needs unit trace and positive definite marginals, but may be
    rank-deficient.  The loop carries the factor products L (m x m) and
    R (n x n) instead of the iterate: each step's marginal comes from one
    permuted copy of rho0 by one matrix-vector product (see
    :func:`_scaled_marginal`), and ``linalg.inverse_mean`` checks it and
    gives the factor from its ``eigh``: on a uniform side (target I/d,
    decided once by :func:`_uniform_level`) the factor is (d M)^{-1/2} from
    that one small ``eigh``, on a general side one more ``eigh`` takes the
    middle factor's root.  The capacity bookkeeping reuses the marginal's
    spectrum.  A marginal that is not finite, because the factor products
    overflowed, is a ``ConvergenceError`` naming the sweep.  Each final
    iterate (R kron L) rho0 (R kron L)^dagger is formed once, by one
    congruence, PSD by construction and checked for shape and finiteness
    only (:func:`_close`); ``trace.iterates`` rebuilds the ones in between
    on read (:class:`SinkhornIterates`).
    """
    chois = list(chois)
    shapes = sorted({(choi.n, choi.m) for choi in chois})
    if len(shapes) > 1:
        raise InvalidInputError(f"a batch takes one block shape (n, m), got {shapes}")
    if not chois:
        return []
    (n, m), traces, failure = shapes[0], [], None
    for k, choi in enumerate(chois):
        try:
            traces.append(_new_trace("sld", choi, cfg)[0])
        except (InvalidInputError, SingularityError) as error:
            failure = (k, error)
            break
    stack = _SinkhornStack(traces, chois, cfg)
    # an overflow ends its trial with a ConvergenceError; numpy's warnings
    # on the way there say nothing more
    with np.errstate(over="ignore", invalid="ignore"):
        stack.run()
    failure = stack.failure or failure
    for k in range(len(traces) if failure is None else failure[0]):
        # a trial that took a step ends on one congruence of its input
        products = traces[k].iterates._held[-1]
        _close(traces[k], cfg, congruence(chois[k].matrix, n, m, *products) if traces[k].factors else None)
    if failure is not None:
        raise failure[1]
    return traces


def operator_sinkhorn(choi0: ChoiMatrix, cfg: ScalingConfig = ScalingConfig()) -> ScalingTrace:
    """Operator Sinkhorn iteration, doubly stochastic or general marginals:
    the batch of one, ``operator_sinkhorn_batch([choi0], cfg)[0]`` (see
    :func:`operator_sinkhorn_batch` for the iteration)."""
    return operator_sinkhorn_batch([choi0], cfg)[0]


class _Frame(NamedTuple):
    """Real coordinates of the Hermitian duals lifted on ``sides`` of an
    n x m block shape: ("first",), ("second",) or both, in that order, with
    a d x d dual per side (d = m for "first", n for "second").

    The duals are reshapes of U x for x in R^D, D the sum of the d^2, with
    ``basis`` U block diagonal: per side, the d^2 x d^2 unitary whose
    columns are the row-major vec of the Frobenius-orthonormal Hermitian
    basis E_ii, (E_ij + E_ji) / sqrt 2 and i (E_ji - E_ij) / sqrt 2
    (i < j).  ``adjoint`` is U^dagger: the coordinates of Hermitian
    matrices, one per side, are Re(U^dagger (vec M_1, ...)), and of any
    square ones those of their Hermitian parts.  ``lifts`` holds per side
    its slice of x, the flat indices of the entries its lift (I_n kron A,
    or B kron I_m) sets in an mn x mn matrix and the rows of its block of U
    that give them, so that lift there is ``rows @ x[part]``: one indexed
    add per side, since both lifts set the diagonal.  With e the
    coordinates of I_d (ones on the E_ii), ``gauge`` is e e^T / d on each
    side's block, the BKM gauge; ``null`` is (e_m, -e_n), along which the
    two-sided Burg dual is flat (zero on one side, where it has no flat
    direction); and ``unit`` is e over the number of sides, which lifts to
    I_mn."""

    n: int
    m: int
    sides: tuple[str, ...]
    basis: np.ndarray
    adjoint: np.ndarray
    lifts: tuple[tuple[slice, np.ndarray, np.ndarray], ...]
    gauge: np.ndarray
    null: np.ndarray
    unit: np.ndarray


def _frame(n: int, m: int, sides: tuple[str, ...]) -> _Frame:
    """The :class:`_Frame` of ``sides`` of an n x m block shape: O(d^4)
    work per side, built once per run.  Each side's basis runs E_ii first,
    then for each i < j (E_ij + E_ji) / sqrt 2 and i (E_ji - E_ij) / sqrt 2."""
    dim, s, lifts, start = n * m, math.sqrt(0.5), [], 0
    size = sum((m if side == "first" else n) ** 2 for side in sides)
    basis, gauge, eye = np.zeros((size, size), dtype=complex), np.zeros((size, size)), np.zeros(size)
    for side in sides:
        d = m if side == "first" else n
        part, block, k = slice(start, start + d * d), np.zeros((d, d, d * d), dtype=complex), d
        for i in range(d):
            block[i, i, i] = 1.0
            for j in range(i + 1, d):
                block[i, j, k] = block[j, i, k] = s
                block[j, i, k + 1], block[i, j, k + 1] = 1j * s, -1j * s
                k += 2
        block = basis[part, part] = block.reshape(d * d, d * d)
        if side == "first":  # (I_n kron A)[(i, a), (i, b)] = A[a, b]
            i, a, b = np.arange(n)[:, None, None], np.arange(m)[:, None], np.arange(m)
            flat, entry = (i * m + a) * dim + i * m + b, np.broadcast_to(a * m + b, (n, m, m))
        else:  # (B kron I_m)[(i, a), (j, a)] = B[i, j]
            i, j, a = np.arange(n)[:, None, None], np.arange(n)[:, None], np.arange(m)
            flat, entry = (i * m + a) * dim + j * m + a, np.broadcast_to(i * n + j, (n, n, m))
        lifts.append((part, flat.reshape(-1), block[entry.reshape(-1)]))
        eye[start : start + d] = 1.0
        gauge[part, part] = np.outer(eye[part], eye[part]) / d
        start += d * d
    # (e_m, -e_n) on both sides
    null = eye * np.repeat([1.0, -1.0], [m * m, n * n]) if len(sides) == 2 else np.zeros(size)
    return _Frame(n, m, tuple(sides), basis, basis.conj().T, tuple(lifts), gauge, null, eye / len(sides))


def _lifted(base: np.ndarray, frame: _Frame, x: np.ndarray) -> np.ndarray:
    """base + the lifts of the duals with coordinates ``x``: one copy and
    one indexed add per side."""
    out = base.copy()
    for part, flat, rows in frame.lifts:
        out.reshape(-1)[flat] += rows @ x[part]
    return out


def _coordinates(frame: _Frame, mats: Sequence[np.ndarray]) -> np.ndarray:
    """The real coordinates of the Hermitian parts of ``mats``, a square
    matrix per side of ``frame``: one product with each side's block of
    U^dagger."""
    if len(mats) == 1:
        return (frame.adjoint @ mats[0].reshape(-1)).real
    parts = (part for part, _, _ in frame.lifts)
    return np.concatenate([(frame.adjoint[part, part] @ mat.reshape(-1)).real for mat, part in zip(mats, parts)])


def _duals(frame: _Frame, x: np.ndarray) -> list[np.ndarray]:
    """The Hermitian duals with coordinates ``x``, a d x d array per side
    (its d^2 entries of U x), each its own array, so that a trace that
    keeps one does not keep U x."""
    u = frame.basis @ x
    return [u[part].reshape(math.isqrt(part.stop - part.start), -1).copy() for part, _, _ in frame.lifts]


def _real_form(adjoint: np.ndarray, jac: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Re(U^dagger jac U): a complex Jacobian on row-major vec of a map that
    takes Hermitian matrices to Hermitian ones, as the real symmetric matrix
    it is on real coordinates."""
    return (adjoint @ jac @ basis).real


def _burg_jacobian(r: np.ndarray, n: int, m: int, sides: tuple[str, ...]) -> np.ndarray:
    """Jacobian of the duals -> the marginals on ``sides`` of R lift R, the
    Hessian of the Burg dual at the state R, as a complex matrix acting on
    the row-major vecs of the duals end to end.

    For side "first" it is sum_ij R_ij kron R_ji^T over the m x m blocks
    R_ij of R, and for "second" the same over the n x n matrices
    R[:, a, :, b].  Since R is Hermitian, each is one Gram product X
    X^dagger, with X[(c, a), (i, j)] = R[(i, c), (j, a)] for "first" and
    X[(i, j), (a, b)] = R[(i, a), (j, b)] for "second", moved from ((row,
    column), (row', column')) to ((row, row'), (column, column')).  Both
    sides put those two blocks on the diagonal, the cross block
    d tr_first(R (B kron I) R) / dB from one ``einsum`` and, since R is
    Hermitian, its adjoint below."""
    blocks, grams = r.reshape(n, m, n, m), []
    for side in sides:
        if side == "first":
            d, x = m, blocks.transpose(1, 3, 0, 2).reshape(m * m, n * n)
        else:
            d, x = n, blocks.transpose(0, 2, 1, 3).reshape(n * n, m * m)
        grams.append((x @ x.conj().T).reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d))
    if len(sides) == 1:
        return grams[0]
    cross = np.einsum("iajb,kbid->adjk", blocks, blocks).reshape(m * m, n * n)
    return np.concatenate([np.concatenate([grams[0], cross], 1), np.concatenate([cross.conj().T, grams[1]], 1)])


def _bkm_contraction(v: np.ndarray, n: int, m: int, side: str) -> np.ndarray:
    """C[x, pq] = (v^dagger lift(E_x) v)[p, q] for the d x d matrix units E_x
    of ``side``, as a d^2 x (mn)^2 array: one product X^dagger X, with X
    the (n, m mn) reshape of v for side "first" (rows i, columns (a, p)) and
    the (m, n mn) one for side "second" (rows a, columns (i, p)), then
    moved from ((x1, p), (x2, q)) to ((x1, x2), (p, q))."""
    dim = n * m
    if side == "first":
        d, x = m, v.reshape(n, m * dim)
    else:
        d, x = n, v.reshape(n, m, dim).transpose(1, 0, 2).reshape(m, n * dim)
    return (x.conj().T @ x).reshape(d, dim, d, dim).transpose(0, 2, 1, 3).reshape(d * d, dim * dim)


def _bkm_hessian(w: np.ndarray, v: np.ndarray, n: int, m: int, sides: tuple[str, ...]) -> np.ndarray:
    """Jacobian of the marginals on ``sides`` of exp(H) / Z, Z = tr exp(H),
    in the dual variables lifted on those sides, H = log rho0 + the lifts,
    at the point with spectrum H - log Z = v diag(w) v^dagger (so that
    sum exp(w) = 1), for Z held fixed: the Hessian of the BKM dual but for
    its normalization term, acting on row-major vec(A) (one side) or
    (vec A, vec B) (both).

    Daleckii-Krein: d exp(H)[X] = v (Phi o (v^dagger X v)) v^dagger, with
    Phi the divided differences of exp on the spectrum of H.  With
    C[x, pq] = (v^dagger lift(E_x) v)[p, q] for the matrix units E_x, entry
    x of tr_side d exp(H)[lift(E_y)] is sum_pq conj(C[x, pq]) Phi[p, q]
    C[y, pq]; the divided differences on the shifted spectrum w divide it
    by Z.  The derivative of Z, the rank-one term mu mu^T with mu the
    marginals' real coordinates, is subtracted in real coordinates
    (:func:`_bkm_dual`).  C is one matrix product per side
    (:func:`_bkm_contraction`), stacked so that the cross blocks of two
    sides come from the same product; Phi is the package's one Loewner
    matrix, the expm1 form of the divided differences
    (``linalg._exp_divided_differences``, which ``geometry.dexp_frechet``
    and ``geometry.dlog_frechet`` read too), and the Hessian is one more
    product."""
    if len(sides) == 1:  # no stacking copies on the one-sided projection's path
        c = _bkm_contraction(v, n, m, sides[0])
    else:
        c = np.concatenate([_bkm_contraction(v, n, m, side) for side in sides])
    phi = linalg._exp_divided_differences(w)
    return (c.conj() * phi.reshape(-1)) @ c.T


class _Point(NamedTuple):
    """A point of a BKM or Burg solve: a positive definite state with its
    e-coordinate ``coord`` = v diag(w) v^dagger, log rho for BKM and
    K = rho^{-1} for Burg.  Each projection is a straight move in this
    coordinate, coord +- lift(A), so the alternation carries it from one
    projection to the next instead of taking log rho or rho^{-1} of every
    iterate.  Every start (:func:`_start`) is one, and so is every
    evaluation of either dual (:func:`_bkm_dual`, :func:`_burg_dual`),
    with ``gradient`` the dual gradient there: the real coordinates of its
    marginal mismatch on that solve's sides, whose squared norm is that
    part of the residual.

    ``state`` is rho for Burg, formed with the point, since every Burg
    evaluation reads its marginals off it; a Burg start's is its input
    itself.  A BKM point has none: its coordinate and spectrum are shifted
    by -log Z, so that they are the normalized log of the state
    (tr exp(coord) = 1), ``weights`` holds the Gibbs weights exp(w), and
    :func:`_state` forms the state from them only where it is used.  A BKM
    start is log rho as it is, with neither weights nor state."""

    coord: np.ndarray
    w: np.ndarray
    v: np.ndarray
    state: np.ndarray | None
    weights: np.ndarray | None = None
    gradient: np.ndarray | None = None


def _newton(method: str, evaluate: Callable, direction: Callable, current, what: str):
    """Damped Newton on a smooth convex dual in real coordinates: the loop
    of every ``bkm`` and ``burg`` solve, one-sided or joint.

    ``current`` and every ``evaluate(x)`` are tuples (x, value, point): the
    real coordinate vector x (an evaluation may move it along a line on
    which it minimizes the dual in closed form), the dual value as a
    function of no arguments, called only for a step that fails the
    gradient test below, and the :class:`_Point` there, whose ``gradient``
    is the real gradient vector and from which ``direction(point)``
    returns the Newton step, a real vector.  ``None`` means outside the
    domain: a rejected candidate, or ``SingularityError`` for ``current``.

    A step is halved until it passes Armijo on the dual value or halves the
    gradient norm: near the solution the decrease of the value falls below
    its rounding while the gradient still shrinks.  The solve stops when
    the gradient norm reaches the policy tolerance (``bkm_gradient_tol``,
    ``burg_residual_tol``), or a Burg solve its rounding floor if that is
    higher: its gradient is read off rho = K^{-1}, so it cannot get below
    about eps w_max / w_min^2, with w the spectrum of the K in hand (the
    point's ``w``, two scalars read per step).  A solve near the cone's
    boundary then stops where it is, not after creeping through its
    budget.  BKM needs no floor: its counterpart, about eps max |w| of the
    decomposed coordinate, stays five orders under ``bkm_gradient_tol``
    (at most 1.4e-14 over the solves measured).  Burg then takes one more full step, kept if it
    lowers the gradient norm: Newton is quadratic near the solution, so this
    drives the gradient to rounding level.  A rejected polishing step ends
    the solve instead of a search over shorter ones.  A step halved below
    1e-14, or more steps than the policy's ``bkm_max_iters`` or
    ``burg_max_iters``, is a ``ConvergenceError`` whose message starts with
    ``what``, the solve's name.  Returns the final x, its point and the
    number of steps taken.
    """
    pol = get_policy()
    tol, max_iters = (
        (pol.bkm_gradient_tol, pol.bkm_max_iters) if method == "bkm" else (pol.burg_residual_tol, pol.burg_max_iters)
    )
    if current is None:
        raise SingularityError(f"{what} source is too ill-conditioned to invert")
    x, value, point = current
    g_norm, steps, polish = math.sqrt(point.gradient @ point.gradient), 0, False
    for _ in range(max_iters):
        if g_norm <= tol or (method == "burg" and g_norm <= _EPS * point.w[-1] / point.w[0] ** 2):
            if polish or method == "bkm":
                return x, point, steps
            polish = True
        step = direction(point)
        slope = point.gradient @ step
        t = 1.0
        while t > 1e-14:
            cand = evaluate(x + t * step)
            if cand is not None:
                g = cand[2].gradient
                cand_norm = math.sqrt(g @ g)
                if polish:
                    accept = cand_norm < g_norm
                else:
                    accept = cand_norm <= 0.5 * g_norm or cand[1]() <= value() + 1e-4 * t * slope
                if accept:
                    (x, value, point), g_norm = cand, cand_norm
                    steps += 1
                    break
            if polish:
                # a rejected polishing step keeps the point as it is
                break
            t /= 2.0
        else:
            raise ConvergenceError(f"{what} Newton stalled at gradient norm {g_norm:.3e}")
    raise ConvergenceError(f"{what} Newton exhausted {max_iters} iterations (gradient norm {g_norm:.3e})")


def _gibbs_weights(w: np.ndarray) -> tuple[np.ndarray, float]:
    """The weights p = exp(w - log Z) of the state exp(coord) / Z on the
    ascending spectrum ``w`` of coord, and log Z = log sum exp(w)."""
    shift = float(w[-1])
    ew = np.exp(w - shift)
    z = float(ew.sum())
    return ew / z, math.log(z) + shift


def _gibbs_state(v: np.ndarray, p: np.ndarray) -> np.ndarray:
    """The state v diag(p) v^dagger, exactly Hermitian: exp(coord) / Z for
    the eigenvectors ``v`` of coord and its Gibbs weights ``p``."""
    return linalg.hermitian_part((v * p) @ v.conj().T)


def _state(point: _Point) -> np.ndarray:
    """The state of a projected point: a Burg point's own, and a BKM
    point's exp(coord) / Z, formed here from the Gibbs weights of the
    evaluation it came from (:class:`_Point`)."""
    return point.state if point.state is not None else _gibbs_state(point.v, point.weights)


def _start(method: str, rho: np.ndarray, what: str) -> _Point:
    """The start of a ``bkm`` or ``burg`` solve at ``rho``, validated and
    exactly Hermitian, read off one ``eigh`` (w, v) of it.  That spectrum
    is also the entry cone test (``linalg._positive_definite``): outside
    the cone is a ``SingularityError`` naming ``what``.  BKM starts at
    log rho, with spectrum (log w, v) and no state; Burg at K = rho^{-1},
    with spectrum 1/w and eigenvectors v, both reversed into ascending
    order, and rho itself as its state.  The coordinate is
    v diag(f(w)) v^dagger, as ``linalg.logm`` and ``linalg.invm`` form it."""
    w, v = np.linalg.eigh(rho)
    linalg._check_positive_definite(w, what)
    fw = np.log(w) if method == "bkm" else 1.0 / w
    coord = linalg.hermitian_part((v * fw) @ v.conj().T)
    if method == "bkm":
        return _Point(coord, fw, v, None)
    return _Point(coord, fw[::-1], v[:, ::-1], rho)


# tr_side(V diag(p) V^dagger) on the (n, m, mn) view of V
_BKM_MARGINAL = {"first": "iak,ibk->ab", "second": "iak,jak->ij"}


def _projection_name(method: str, side: str, sweep: int | None = None) -> str:
    """The name of a projection in its Newton errors."""
    return f"{method} projection onto the {side} marginal" + (f" in sweep {sweep}" if sweep else "")


def _bkm_dual(start: _Point, frame: _Frame, t: np.ndarray) -> tuple[Callable, Callable]:
    """The BKM dual from ``start`` on the sides of ``frame``, with ``t`` the
    targets' coordinates, as :func:`_newton` takes it: ``evaluate`` and
    ``direction``.  ``evaluate(x)`` takes one ``eigh`` of start.coord + the
    lifts and reads the marginals off its spectrum; ``evaluate(x, start)``
    reads them off the spectrum the start carries, with no ``eigh``, and
    shifts a copy of its coordinate.  An evaluation's point is normalized,
    with its Gibbs weights and gradient (:class:`_Point`).  ``direction``
    takes :func:`_bkm_hessian` to real coordinates and subtracts the
    normalization term mu mu^T, with mu = gradient + t the marginals' own
    coordinates."""
    n, m, sides = frame.n, frame.m, frame.sides

    def evaluate(x: np.ndarray, at: _Point | None = None):
        if at is None:
            coord = _lifted(start.coord, frame, x)
            w, v = np.linalg.eigh(coord)
        else:
            coord, w, v = at.coord.copy(), at.w, at.v
        p, log_z = _gibbs_weights(w)
        vb = v.reshape(n, m, n * m)
        weighted, conj = vb * p, vb.conj()
        g = _coordinates(frame, [np.einsum(_BKM_MARGINAL[side], weighted, conj) for side in sides]) - t
        coord.reshape(-1)[:: n * m + 1] -= log_z
        return x, lambda: log_z - float(t @ x), _Point(coord, w - log_z, v, None, p, g)

    def direction(point: _Point) -> np.ndarray:
        mu = point.gradient + t
        hess = _real_form(frame.adjoint, _bkm_hessian(point.w, point.v, n, m, sides), frame.basis)
        return np.linalg.solve(hess - np.outer(mu, mu) + frame.gauge, -point.gradient)

    return evaluate, direction


def _start_evaluation(method: str, start: _Point, frame: _Frame, t: np.ndarray):
    """The evaluation at ``start`` (x = 0) of the ``method`` dual from it
    (:func:`_bkm_dual`, :func:`_burg_dual`): the ``current`` of a Newton
    solve, read off the start's own spectrum and state.  The alternation
    forms the next first-side projection's at the end of a sweep, where its
    gradient is half of the sweep's residual, and hands it to that
    projection."""
    return (_bkm_dual if method == "bkm" else _burg_dual)(start, frame, t)[0](np.zeros(len(t)), start)


def _project(
    method: str, start: _Point, frame: _Frame, t: np.ndarray, what: str, current: tuple | None = None
) -> tuple[_Point, list[np.ndarray], int]:
    """The ``bkm`` or ``burg`` e-projection of ``start`` onto
    {tr_side rho = target} on every side of ``frame`` at once (one side:
    the public projections and the alternation; both: :func:`joint_limit`),
    on plain arrays, with ``t`` the targets' coordinates, by Newton on the
    geometry's dual from ``current``, the start's evaluation
    (:func:`_start_evaluation`, formed here if not given).  Returns the
    point of the last accepted evaluation, with its gradient (a BKM point
    has no state: :func:`_state` forms it where it is used), the duals (a
    Hermitian array per side) and the number of Newton steps.  ``what``
    names the solve in its errors."""
    evaluate, direction = (_bkm_dual if method == "bkm" else _burg_dual)(start, frame, t)
    current = evaluate(np.zeros(len(t)), start) if current is None else current
    x, point, steps = _newton(method, evaluate, direction, current, what=what)
    return point, _duals(frame, x), steps


def _e_projection(method: str, choi0: ChoiMatrix, constraint: ConstraintSet) -> tuple[ChoiMatrix, np.ndarray]:
    """The wrapper of :func:`bkm_e_projection` and
    :func:`burg_e_projection`: checks the source, positive definite on its
    start's one ``eigh`` (:func:`_start`) and of unit trace, runs the
    one-sided solve on plain arrays (:func:`_project`) and validates the
    result as a :class:`ChoiMatrix`.  A constraint target that does not fit
    the source's block shape is an ``InvalidInputError``."""
    n, m, side = choi0.n, choi0.m, constraint.side
    _check_marginal(choi0, side, constraint.target, "constraint target")
    source = _start(method, choi0.matrix, "projection source")
    _check_unit_trace(choi0.matrix, "projection source")
    frame = _frame(n, m, (side,))
    t = _coordinates(frame, [constraint.target])
    point, (dual,), _ = _project(method, source, frame, t, _projection_name(method, side))
    return ChoiMatrix(n=n, m=m, matrix=_state(point)), dual


def bkm_e_projection(choi0: ChoiMatrix, constraint: ConstraintSet) -> tuple[ChoiMatrix, np.ndarray]:
    """Umegaki relative entropy minimizer over a partial-trace constraint set.

    The minimizer has the exponential-family form
    rho(A) = exp(log rho0 + lift(A)) / Z with a Hermitian dual variable A on
    the constrained factor.  A is found by minimizing the smooth convex dual

        F(A) = log tr exp(log rho0 + lift(A)) - tr(target A)

    whose exact gradient is the marginal mismatch tr_side rho(A) - target,
    by damped Newton on the d^2 real coordinates of A (:class:`_Frame`).
    Each evaluation takes one ``eigh`` of log rho0 + lift(A) =
    V diag(w) V^dagger and reads the marginal off it, as
    tr_side(V diag(p) V^dagger) with p = exp(w - log Z); the state is
    formed once, at the returned point.  The Hessian is the Daleckii-Krein
    form in the same eigenbasis minus the normalization term (see
    :func:`_bkm_hessian`), taken to real coordinates as Re(U^dagger H U), a
    real symmetric matrix.  F is flat along A -> A + cI, so the Hessian is
    singular in that direction; adding e e^T / d, with e the coordinates of
    I, fixes the gauge and makes the system positive definite, and since
    the gradient is orthogonal to e every step (hence A) stays traceless.
    The line search and stopping rule are those of :func:`_newton`.
    Returns the projected state and the dual variable, a Hermitian d x d
    array.

    The source is checked (positive definite, unit trace) and the result
    validated as a :class:`ChoiMatrix` (:func:`_e_projection`); the Newton
    solve itself, :func:`_project`, is the one
    :func:`alternating_projections` and :func:`joint_limit` run.
    """
    return _e_projection("bkm", choi0, constraint)


def _burg_point(coord: np.ndarray, w: np.ndarray, v: np.ndarray) -> _Point:
    """The state coord^{-1} from the spectrum of ``coord``."""
    return _Point(coord, w, v, linalg.hermitian_part((v / w) @ v.conj().T))


def _burg_dual(start: _Point, frame: _Frame, t: np.ndarray) -> tuple[Callable, Callable]:
    """The Burg dual from ``start`` on the sides of ``frame``, with ``t`` the
    targets' coordinates, as :func:`_newton` takes it: ``evaluate`` and
    ``direction``.  ``evaluate(x)`` gives x, the dual value and the point
    at K = start.coord - the lifts, with its gradient; None outside the
    cone.  ``evaluate(x, start)`` takes the start's spectrum and state as
    they are.  The value -log det K - t.x comes from the spectrum of K.  On
    two sides x first moves along ``frame.unit`` to the unit-trace point,
    and the system gains the gauge on ``frame.null`` (see
    :func:`joint_limit`); one-sided solves keep their own Newton path, with
    neither."""
    n, m, sides = frame.n, frame.m, frame.sides
    joint = len(sides) == 2

    def evaluate(x: np.ndarray, point: _Point | None = None):
        if point is None:
            coord = _lifted(start.coord, frame, -x)
            w, v = np.linalg.eigh(coord)
            if joint and w[0] > 0:  # the cone test below rejects any other spectrum
                c = _unit_trace_shift(w)
                coord.flat[:: n * m + 1] -= c
                w, x = w - c, x + c * frame.unit
            if not linalg._positive_definite(w):
                return None
            point = _burg_point(coord, w, v)
        elif not linalg._positive_definite(point.w):
            return None
        g = _coordinates(frame, [linalg.partial_trace(point.state, n, m, side) for side in sides]) - t
        return x, lambda: -float(np.log(point.w).sum()) - float(t @ x), _Point(*point[:5], g)

    def direction(point: _Point) -> np.ndarray:
        jac = _real_form(frame.adjoint, _burg_jacobian(point.state, n, m, sides), frame.basis)
        if joint:
            jac += np.outer(frame.null, frame.null) / (n + m)
        return np.linalg.solve(jac, -point.gradient)

    return evaluate, direction


def burg_e_projection(choi0: ChoiMatrix, constraint: ConstraintSet) -> tuple[ChoiMatrix, np.ndarray]:
    """Burg divergence minimizer over a partial-trace constraint set.

    The minimizer is the resolvent rho = (rho0^{-1} - lift(A))^{-1} with the
    Hermitian dual variable A minimizing the convex dual
    F(A) = -log det(rho0^{-1} - lift(A)) - tr(target A), whose gradient is
    tr_side rho - target.  Damped Newton (:func:`_newton`) minimizes it on
    the d^2 real coordinates of A (:class:`_Frame`).  By
    d(R^{-1}) = -R^{-1} dR R^{-1} the Hessian is B -> tr_side(R lift(B) R),
    one Gram product of a reshape of R (see :func:`_burg_jacobian`), taken
    to real coordinates as Re(U^dagger J U): a real symmetric positive
    definite d^2 x d^2 system, whose solution is the step.  A candidate
    must keep the resolvent argument positive definite
    (``linalg._positive_definite``: relative to its largest eigenvalue, by
    the policy floor); one eigendecomposition gives that test, the
    resolvent and F.  Returns the projected state and A, a Hermitian d x d
    array.

    The source is checked (positive definite, unit trace) and the result
    validated as a :class:`ChoiMatrix` (:func:`_e_projection`); the Newton
    solve itself, :func:`_project`, is the one
    :func:`alternating_projections` and :func:`joint_limit` run.
    """
    return _e_projection("burg", choi0, constraint)


def alternating_projections(
    method: str, choi0: ChoiMatrix, cfg: ScalingConfig = ScalingConfig()
) -> ScalingTrace:
    """Alternating e-projections onto the two marginal constraint sets.

    ``method`` selects the geometry: ``sld`` dispatches to the operator
    Sinkhorn iteration; ``bkm`` and ``burg`` alternate the corresponding
    divergence minimizers, left constraint first.

    For ``bkm`` and ``burg`` the input is checked once at entry (unit
    trace, positive definite) and taken to its e-coordinate once: log rho
    or rho^{-1}.  The loop then carries that coordinate with its spectrum
    from one projection to the next on plain arrays, since each projection
    moves it by lift(A) and its last Newton evaluation already holds the
    projected point's spectrum.  The two one-sided frames of real
    coordinates and the targets' coordinates are built once per run.  A
    sweep's residual is the squared norm of the second projection's final
    Newton gradient plus that of the next first projection's start
    gradient, which the sweep evaluates once and hands to that projection.
    The trace's iterates hold the cumulative dual of each side and rebuild
    each state on read (:class:`SinkhornIterates`); a BKM run forms one
    state, its final.  A Newton error names the side and the sweep of its
    projection.  The final iterate, PSD by construction, is checked for
    shape and finiteness only (:func:`_close`).
    """
    if method == "sld":
        return operator_sinkhorn(choi0, cfg)
    trace, p, q, point = _new_trace(method, choi0, cfg)
    n, m = choi0.n, choi0.m
    frames = {side: _frame(n, m, (side,)) for side in ("first", "second")}
    coordinates = {side: _coordinates(frames[side], [target]) for side, target in (("first", p), ("second", q))}
    # the cumulative dual of each side, and the start evaluation of the
    # next first-side projection, formed at the end of each sweep
    held = {"first": np.zeros((m, m), dtype=complex), "second": np.zeros((n, n), dtype=complex)}
    opened = None

    def step(side: str, target: np.ndarray) -> np.ndarray:
        nonlocal point, opened
        name = _projection_name(method, side, trace.sweeps + 1)
        current = opened if side == "first" else None
        point, (factor,), _ = _project(method, point, frames[side], coordinates[side], name, current)
        held[side] = held[side] + factor
        trace.iterates._append(held["first"], held["second"])
        if side == "second":
            opened = _start_evaluation(method, point, frames["first"], coordinates["first"])
        return factor

    def residual() -> float:
        # the coordinates are an isometry of the marginal mismatch, so the
        # next first-side start's gradient and the second side's end
        # gradient give ||tr_first rho - P||^2 + ||tr_second rho - Q||^2
        first, second = opened[2].gradient, point.gradient
        return float(first @ first + second @ second)

    _alternate(trace, cfg, step, residual)
    return _close(trace, cfg, _state(point) if trace.sweeps else None)


def _unit_trace_shift(w: np.ndarray) -> float:
    """The c < w[0] with sum 1 / (w - c) = 1, for an ascending positive
    spectrum ``w``: the shift that gives (K - cI)^{-1} unit trace.  Newton
    on the concave, decreasing 1 / sum 1 / (w - c), started at w[0] - 1
    where the sum is at least one, decreases c monotonically to the root;
    it stops when rounding stalls it."""
    c = w[0] - 1.0
    for _ in range(100):
        r = 1.0 / (w - c)
        tau = r.sum()
        nxt = c - tau * (tau - 1.0) / np.dot(r, r)
        if not nxt < c:
            break
        c = nxt
    return float(c)


def joint_limit(method: str, choi0: ChoiMatrix, cfg: ScalingConfig = ScalingConfig()) -> ScalingTrace:
    """The limit of the ``bkm`` or ``burg`` alternation, by one Newton solve.

    Alternating Bregman projections onto two affine sets converge to the
    projection onto their intersection (Bregman 1967; Csiszar 1975), so the
    limit of :func:`alternating_projections` is the state at the minimizer
    of one convex dual in the pair (A, B) of Hermitian m x m and n x n
    matrices:

        bkm:   F = log tr exp(log rho0 + I kron A + B kron I) - tr PA - tr QB,
        burg:  F = -log det(rho0^{-1} - I kron A - B kron I) - tr PA - tr QB,

    with rho = exp(...) / Z or (...)^{-1}.  That is the dual of an
    e-projection with both marginals constrained, so the solve is the
    projection's own (:func:`_project`) on the two-sided frame
    (:class:`_Frame`): Newton on the m^2 + n^2 real
    coordinates x = (x_A, x_B), with the pair of marginal mismatches as the
    gradient and the Hessian with the one-sided Jacobians on the diagonal
    and one more contraction for the cross blocks (:func:`_bkm_hessian`,
    :func:`_burg_jacobian`), taken to real coordinates by the block-diagonal
    U.  The solve starts where the alternation does (:func:`_start`).  A
    BKM evaluation reads both marginals off its one ``eigh``, the start's
    too, from the spectrum of log rho0: no start state is formed, and the
    state is formed once, at the returned point.

    Both duals are flat along (A + cI, B - cI), and the BKM dual along
    (A + cI, B) and (A, B + cI) separately, since Z absorbs either shift.
    Rank-one terms on the identity's coordinates along those directions,
    (e_m, -e_n) for Burg (the frame's ``null``) and (e_m, 0), (0, e_n) for
    BKM (its ``gauge``), fix the gauge and make the real system positive
    definite; the gradient is orthogonal to them, so every step is too.
    The Burg dual is not flat along (A + cI, B + cI), which shifts rho^{-1}
    by -2cI, but its minimum along that line is explicit: the shift that
    gives rho unit trace, from the spectrum at hand
    (:func:`_unit_trace_shift`).  Every Burg candidate is taken there, the
    counterpart of the normalization by Z for BKM; without it a Newton step
    can leave rho with trace in the hundreds, from where damped Newton needs
    hundreds of steps to return.  The one-sided projections take no such
    shift, which would change their Newton paths.

    :func:`_newton` minimizes F, with its line search, stopping rule, Burg
    polish and policy budget (``ConvergenceError`` past it); a Burg
    candidate must keep rho^{-1} positive definite
    (``linalg._positive_definite``).  ``cfg.max_iters`` does not bound the
    solve.

    ``sld`` raises ``UnsupportedError``: that geometry is not dually flat,
    and operator Sinkhorn has no such joint dual.  The input is checked once
    (positive definite, unit trace); the limit, PSD by construction, is
    checked for shape and finiteness only (:func:`_close`).  The returned
    trace has ``iterates`` [rho0, limit] (a :class:`SinkhornIterates` of
    two entries), ``factors`` [("first", A), ("second", B)] as Hermitian
    arrays, ``residuals`` the initial and final stopping criterion (the
    final one the squared norm of the solve's last Newton gradient),
    ``sweeps`` the number of Newton steps taken, and ``converged`` whether
    the final residual is below ``cfg.tol``.
    """
    if method == "sld":
        raise UnsupportedError("the sld geometry is not dually flat: it has no joint limit solve")
    trace, p, q, start = _new_trace(method, choi0, cfg)
    frame = _frame(choi0.n, choi0.m, ("first", "second"))
    point, duals, trace.sweeps = _project(method, start, frame, _coordinates(frame, [p, q]), f"joint {method}")
    trace.factors += list(zip(frame.sides, duals))
    trace.residuals.append(float(point.gradient @ point.gradient))
    trace.iterates._append(*duals)
    return _close(trace, cfg, _state(point))


def capacity_from_trace(trace: ScalingTrace) -> float:
    """Capacity of the input map recovered from a converged Sinkhorn run.

    One congruence step multiplies the capacity by det(factor)^{2/n}, and a
    doubly stochastic map has capacity one, so the input capacity is
    exp(-capacity_log) with capacity_log the accumulated per-step
    log-determinant sum.  Requires a square, doubly stochastic, converged
    Sinkhorn trace; its negative log equals the minimal Kullback-Leibler
    divergence from the input in the classical (diagonal) case.
    """
    if trace.n != trace.m:
        raise UnsupportedError("capacity is defined for m = n only")
    if trace.method not in ("sld", "classical"):
        raise UnsupportedError("capacity tracking requires a Sinkhorn (sld or classical) trace")
    if not doubly_stochastic(trace.target_p, trace.target_q):
        raise UnsupportedError("capacity is defined for doubly stochastic targets")
    if not trace.converged:
        raise ConvergenceError(
            f"trace did not reach tolerance (final residual {trace.residuals[-1]:.3e})"
        )
    return math.exp(-trace.capacity_log)
