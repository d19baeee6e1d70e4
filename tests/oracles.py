"""Independent reference computations used to cross-check the package.

Everything here deliberately avoids the code paths under test: the Lyapunov
oracles use quadrature and a vectorized linear solve, the KL minimizers use
a null-space Newton method on explicit affine parameterizations, and
derivative checks use central finite differences.  The geometric mean
reference takes the textbook formula with three separate spectral powers.  The dual-solver oracles
build the Burg Newton Jacobian one Hermitian basis matrix at a time from
dense Kronecker lifts, and solve the BKM dual by Barzilai-Borwein gradient
steps, so neither shares the closed-form Jacobians in ``scaling``.  The BKM
and Burg Newton references are the package's earlier projections: they run
the earlier Newton loop on the complex d x d dual, with a complex solve and
the Hermitian part of its solution as the step, where the package runs on
real coordinates.  The BKM one forms the ``mn x mn`` state and its partial
trace on every evaluation and builds the Hessian from an ``einsum``
contraction and the quotient form of the exp divided differences
(``divided_differences``, defined here); the Burg
one builds its Jacobian by one ``einsum`` on the block view of the
resolvent, where the package takes a Gram product.  The
constraint tangent basis is built by Gram-Schmidt over the canonical
Hermitian basis, the reference for the closed-form projection that
certifies e-projections in ``geometry``.  The
operator Sinkhorn reference forms every ``mn x mn`` iterate and takes its
marginals by partial traces, where the package carries factor products.
The BKM and Burg Newton references take their starts by ``logm`` or
``invm`` and one more ``eigh`` (``bkm_start_ref``, ``burg_start_ref``),
where the package reads both off one ``eigh`` of the input; their
alternation and the operator Sinkhorn reference take every residual by
``einsum`` partial traces on the block view (``marginal_residual``),
where the package reads residuals off Newton gradients or stacked
marginals.  The difference quotient reference validates and evaluates one
h at a time, with one 2-D divergence call per probe, where the package
evaluates every probe of a grid in one stacked call.  The capacity oracle minimizes
log det Phi(X) - log det X directly by L-BFGS and never touches a scaling
factor.  ``diagonal_choi`` and ``choi_diagonal_to_matrix`` embed a
positive matrix as a diagonal Choi matrix and read it back, the classical
case of operator Sinkhorn.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
from scipy import integrate, optimize

from opsinkhorn import divergences, linalg, policy, scaling
from opsinkhorn.channels import ChoiMatrix, apply_map
from opsinkhorn.errors import ConvergenceError, DomainError, InvalidInputError, SingularityError, UnsupportedError
from opsinkhorn.geometry import dexp_frechet


def divided_differences(w: np.ndarray, f, fprime) -> np.ndarray:
    """Loewner matrix of first divided differences of ``f`` on the spectrum
    ``w`` in the quotient form (f(a) - f(b)) / (a - b), with ``fprime`` at
    the midpoint where the gap is within 1e-12 of max(|a|, |b|, 1): the
    textbook kernel, independent of the package's expm1 form."""
    num = f(w)[:, None] - f(w)[None, :]
    den = w[:, None] - w[None, :]
    scale = np.maximum(np.abs(w)[:, None], np.abs(w)[None, :])
    near = np.abs(den) <= 1e-12 * np.maximum(scale, 1.0)
    mid = fprime((w[:, None] + w[None, :]) / 2.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(near, mid, num / np.where(near, 1.0, den))


def diagonal_choi(a: np.ndarray) -> ChoiMatrix:
    """Embed a positive m x n matrix as a diagonal Choi matrix: the (j, j)
    block holds column j of ``a`` on its diagonal."""
    m, n = a.shape
    mat = np.zeros((n * m, n * m), dtype=complex)
    for j in range(n):
        for i in range(m):
            mat[j * m + i, j * m + i] = a[i, j]
    return ChoiMatrix(n=n, m=m, matrix=mat)


def choi_diagonal_to_matrix(choi: ChoiMatrix) -> np.ndarray:
    """The m x n matrix whose (i, j) entry is the (i, i) entry of the
    (j, j) block of ``choi``: the inverse of :func:`diagonal_choi`."""
    blocks = choi.blocks()
    return np.array(
        [[blocks[j, i, j, i].real for j in range(choi.n)] for i in range(choi.m)]
    )


def hermitize(a: np.ndarray) -> np.ndarray:
    return (a + a.conj().T) / 2


def geometric_mean_ref(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """A # B = A^{1/2} (A^{-1/2} B A^{-1/2})^{1/2} A^{1/2}, each power taken
    by its own eigendecomposition, after checking both arguments."""
    a = linalg.assert_positive_definite(a, "geometric mean left argument")
    b = linalg.assert_positive_definite(b, "geometric mean right argument")
    r = linalg.powm(a, 0.5)
    ri = linalg.powm(a, -0.5)
    middle = linalg.hermitian_part(ri @ b @ ri)
    return linalg.hermitian_part(r @ linalg.powm(middle, 0.5) @ r)


def lyapunov_vectorized(a: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Solve A X + X A = Q as one dense linear system via vec(AXB) identities."""
    d = a.shape[0]
    eye = np.eye(d)
    # column-stacking convention: vec(A X) = (I kron A) vec(X), vec(X A) = (A^T kron I) vec(X)
    system = np.kron(eye, a) + np.kron(a.T, eye)
    x = np.linalg.solve(system, q.flatten(order="F"))
    return x.reshape(d, d, order="F")


def lyapunov_quadrature(a: np.ndarray, q: np.ndarray, upper: float = np.inf) -> np.ndarray:
    """Solve A X + X A = Q as the integral of exp(-tA) Q exp(-tA) dt."""
    w, v = np.linalg.eigh(hermitize(a))
    qt = v.conj().T @ q @ v

    def integrand(t: float) -> np.ndarray:
        e = np.exp(-t * w)
        return (e[:, None] * qt * e[None, :]).copy()

    d = a.shape[0]
    out = np.zeros((d, d), dtype=complex)
    for i in range(d):
        for j in range(d):
            re, _ = integrate.quad(lambda t: integrand(t)[i, j].real, 0.0, upper, limit=200)
            im, _ = integrate.quad(lambda t: integrand(t)[i, j].imag, 0.0, upper, limit=200)
            out[i, j] = re + 1j * im
    return v @ out @ v.conj().T


def _nullspace_newton_kl(a_flat: np.ndarray, b0: np.ndarray, nullspace: np.ndarray,
                         tol: float = 1e-13, max_iters: int = 300) -> np.ndarray:
    """Minimize sum b log(b / a) over b = b0 + N c > 0 by damped Newton."""
    c = np.zeros(nullspace.shape[1])
    for _ in range(max_iters):
        b = b0 + nullspace @ c
        grad = nullspace.T @ (np.log(b / a_flat) + 1.0)
        if np.linalg.norm(grad) <= tol:
            break
        hess = nullspace.T @ (nullspace / b[:, None])
        step = np.linalg.solve(hess, -grad)
        t = 1.0
        f0 = float(np.sum(b * np.log(b / a_flat)))
        while t > 1e-16:
            b_next = b0 + nullspace @ (c + t * step)
            if b_next.min() > 0 and float(np.sum(b_next * np.log(b_next / a_flat))) <= f0 + 1e-4 * t * float(grad @ step):
                break
            t /= 2.0
        c = c + t * step
    return b0 + nullspace @ c


def kl_projection_row_sums(a: np.ndarray, row_sum: float) -> np.ndarray:
    """argmin of sum B log(B/A) over positive B with prescribed row sums."""
    m, n = a.shape
    out = np.zeros_like(a, dtype=float)
    directions = np.zeros((n, n - 1))
    for k in range(n - 1):
        directions[k, k] = 1.0
        directions[k + 1, k] = -1.0
    for i in range(m):
        b0 = np.full(n, row_sum / n)
        out[i] = _nullspace_newton_kl(a[i].astype(float), b0, directions)
    return out


def min_kl_doubly_stochastic(a: np.ndarray) -> tuple[float, np.ndarray]:
    """Minimal KL divergence to ``a`` over matrices with row sums 1/m and
    column sums 1/n, via Newton on an explicit null-space parameterization."""
    m, n = a.shape

    def simplex_dirs(d: int) -> list[np.ndarray]:
        dirs = []
        for k in range(d - 1):
            u = np.zeros(d)
            u[k] = 1.0
            u[k + 1] = -1.0
            dirs.append(u)
        return dirs

    columns = [np.outer(u, v).flatten() for u in simplex_dirs(m) for v in simplex_dirs(n)]
    nullspace = np.array(columns).T
    b0 = np.full(m * n, 1.0 / (m * n))
    b = _nullspace_newton_kl(a.flatten().astype(float), b0, nullspace)
    value = float(np.sum(b * np.log(b / a.flatten())))
    return value, b.reshape(m, n)


def central_difference(f, x: float, h: float) -> float:
    return (f(x + h) - f(x - h)) / (2.0 * h)


def matrix_central_difference(f, x: float, h: float) -> np.ndarray:
    return (f(x + h) - f(x - h)) / (2.0 * h)


def hermitian_basis(d: int) -> list[np.ndarray]:
    """Orthonormal basis of d x d Hermitian matrices (Hilbert-Schmidt inner
    product): diagonal units, then real and imaginary off-diagonal pairs."""
    basis: list[np.ndarray] = []
    for i in range(d):
        e = np.zeros((d, d), dtype=complex)
        e[i, i] = 1.0
        basis.append(e)
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    for i in range(d):
        for j in range(i + 1, d):
            e = np.zeros((d, d), dtype=complex)
            e[i, j] = e[j, i] = inv_sqrt2
            basis.append(e)
            e = np.zeros((d, d), dtype=complex)
            e[i, j] = -1j * inv_sqrt2
            e[j, i] = 1j * inv_sqrt2
            basis.append(e)
    return basis


def constraint_tangent_basis(n: int, m: int, side: str) -> list[np.ndarray]:
    """Orthonormal basis of the tangent space of a partial-trace constraint
    set: Hermitian mn x mn matrices Y with tr_side Y = 0.

    Built by Gram-Schmidt over the canonical Hermitian basis after projecting
    out span{I kron F} (side "first") or span{F kron I} (side "second"),
    whose orthogonal complement is exactly the constrained subspace.  The
    reference for ``geometry.orthogonality_residual``, which takes the norm
    of the projection onto this space in closed form instead."""
    dim = n * m
    if side == "first":
        fixed = [np.kron(np.eye(n), f) / np.sqrt(n) for f in hermitian_basis(m)]
    else:
        fixed = [np.kron(f, np.eye(m)) / np.sqrt(m) for f in hermitian_basis(n)]
    basis: list[np.ndarray] = []
    for y in hermitian_basis(dim):
        # remove the orthogonal complement of the constraint kernel, then
        # Gram-Schmidt against what is already collected
        for g in fixed:
            y = y - np.vdot(g, y) * g
        for z in basis:
            y = y - np.vdot(z, y) * z
        norm = np.linalg.norm(y)
        if norm > 1e-8:
            basis.append(y / norm)
    assert len(basis) == dim * dim - (m * m if side == "first" else n * n)
    return basis


def lift(a: np.ndarray, n: int, m: int, side: str) -> np.ndarray:
    """I_n kron a (side "first") or a kron I_m (side "second")."""
    return np.kron(np.eye(n), a) if side == "first" else np.kron(a, np.eye(m))


def burg_projection_per_basis(rho0: np.ndarray, n: int, m: int, side: str,
                              target: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Burg e-projection rho = (rho0^{-1} - lift(A))^{-1} with tr_side rho =
    target, by damped Newton whose Jacobian is assembled one Hermitian basis
    matrix at a time from dense Kronecker lifts.  Stops like the package
    solver: residual norm 1e-10, then one polishing step; 200 iterations at
    most.  Returns (rho, A)."""
    d = m if side == "first" else n
    basis = hermitian_basis(d)
    rho0_inv = linalg.invm(rho0)

    def resolvent(a):
        return linalg.invm(hermitize(rho0_inv - lift(a, n, m, side)))

    def in_cone(a):
        w = np.linalg.eigvalsh(hermitize(rho0_inv - lift(a, n, m, side)))
        return bool(w[0] > 1e-13 * max(abs(w[-1]), np.finfo(float).tiny))

    def residual_of(a):
        return hermitize(linalg.partial_trace(resolvent(a), n, m, side) - target)

    a = np.zeros((d, d), dtype=complex)
    g = residual_of(a)
    polish = False
    for _ in range(200):
        g_norm = np.linalg.norm(g)
        if g_norm <= 1e-10:
            if polish:
                break
            polish = True
        r = resolvent(a)
        columns = [linalg.partial_trace(r @ lift(b, n, m, side) @ r, n, m, side) for b in basis]
        jac = np.array([[np.vdot(bi, col).real for col in columns] for bi in basis])
        rhs = np.array([-np.vdot(bi, g).real for bi in basis])
        coeffs = np.linalg.solve(jac, rhs)
        newton = sum(c * b for c, b in zip(coeffs, basis))
        alpha = 1.0
        while alpha > 1e-14:
            candidate = a + alpha * newton
            if in_cone(candidate):
                g_cand = residual_of(candidate)
                if np.linalg.norm(g_cand) < g_norm:
                    a, g = candidate, g_cand
                    break
            alpha /= 2.0
        else:
            if polish:
                break
            raise RuntimeError(f"per-basis Burg Newton stalled at residual norm {g_norm:.3e}")
    else:
        raise RuntimeError("per-basis Burg Newton exhausted its budget")
    return resolvent(a), a


def bkm_projection_barzilai_borwein(rho0: np.ndarray, n: int, m: int, side: str,
                                    target: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Umegaki e-projection rho = exp(log rho0 + lift(A)) / Z with tr_side rho
    = target, by Barzilai-Borwein gradient steps with nonmonotone Armijo
    backtracking on the dual F(A) = log tr exp(log rho0 + lift(A)) - tr(target A).
    Stops at gradient norm 1e-9, like the package solver, within 10,000
    iterations.  Returns (rho, A)."""
    d = m if side == "first" else n
    log_rho0 = linalg.logm(rho0)

    def state_of(a):
        w, v = np.linalg.eigh(hermitize(log_rho0 + lift(a, n, m, side)))
        s = hermitize((v * np.exp(w - w.max())) @ v.conj().T)
        return s / np.trace(s).real

    def dual_value(a):
        w = np.linalg.eigvalsh(hermitize(log_rho0 + lift(a, n, m, side)))
        shift = w.max()
        return float(np.log(np.sum(np.exp(w - shift))) + shift - np.trace(target @ a).real)

    def gradient(a):
        return hermitize(linalg.partial_trace(state_of(a), n, m, side) - target)

    a = np.zeros((d, d), dtype=complex)
    g = gradient(a)
    step = 1.0
    values = [dual_value(a)]
    grad_norm = np.linalg.norm(g)
    for _ in range(10_000):
        if grad_norm <= 1e-9:
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
        da, dg = candidate - a, g_new - g
        curvature = np.vdot(da, dg).real
        step = float(np.vdot(da, da).real / curvature) if curvature > 1e-300 else 1.0
        a, g = candidate, g_new
        values.append(value)
        grad_norm = np.linalg.norm(g)
    else:
        raise RuntimeError("Barzilai-Borwein BKM exhausted its budget")
    return state_of(a), a


def newton_ref(method: str, evaluate, direction, current):
    """The package's earlier damped Newton loop on complex Hermitian duals:
    gradient norms by ``linalg.frobenius`` and the slope by ``np.vdot``,
    with the acceptance rule, Burg polish and policy budget of
    ``scaling._newton``, but stopping at the policy tolerance alone: the
    Burg rounding floor of ``scaling._newton`` is under the tolerance on
    every input the references are compared on.  Returns the final dual,
    its state and the number of steps."""
    pol = policy.get_policy()
    tol, max_iters = (
        (pol.bkm_gradient_tol, pol.bkm_max_iters) if method == "bkm" else (pol.burg_residual_tol, pol.burg_max_iters)
    )
    if current is None:
        raise SingularityError(f"reference {method} source is too ill-conditioned to invert")
    x, value, g, state = current
    g_norm, steps, polish = linalg.frobenius(g), 0, False
    for _ in range(max_iters):
        if g_norm <= tol:
            if polish or method == "bkm":
                return x, state, steps
            polish = True
        step = direction(state, g)
        slope = np.vdot(g, step).real
        t = 1.0
        while t > 1e-14:
            cand = evaluate(x + t * step)
            if cand is not None:
                cand_norm = linalg.frobenius(cand[2])
                accept = cand_norm < g_norm if polish else (
                    cand_norm <= 0.5 * g_norm or cand[1]() <= value() + 1e-4 * t * slope)
                if accept:
                    (x, value, g, state), g_norm = cand, cand_norm
                    steps += 1
                    break
            if polish:
                break
            t /= 2.0
        else:
            raise ConvergenceError(f"reference {method} Newton stalled at gradient norm {g_norm:.3e}")
    raise ConvergenceError(f"reference {method} Newton exhausted {max_iters} iterations")


def _plus_lift(base: np.ndarray, a: np.ndarray, n: int, m: int, side: str) -> np.ndarray:
    """base + lift(a), added on the (n, m, n, m) block view."""
    out = base.copy()
    blocks = out.reshape(n, m, n, m)
    if side == "first":
        blocks[np.arange(n), :, np.arange(n), :] += a
    else:
        blocks[:, np.arange(m), :, np.arange(m)] += a
    return out


def bkm_project_ref(start: scaling._Point, n: int, m: int, side: str,
                    target: np.ndarray) -> tuple[scaling._Point, np.ndarray, int]:
    """BKM e-projection of ``start`` onto {tr_side rho = target} by
    :func:`newton_ref` on the complex d x d dual, forming the state
    exp(coord) / Z and its partial trace at every evaluation.  The Hessian
    contracts the eigenvectors by ``einsum`` and takes the divided
    differences of exp as quotients of differences; the step is the
    Hermitian part of the complex solve.  Returns the projected point, the
    dual variable and the number of Newton steps."""
    d = m if side == "first" else n
    gauge = np.outer(np.eye(d).reshape(-1), np.eye(d).reshape(-1)) / d

    def point_of(coord, w, v):
        shift = w.max()
        ew = np.exp(w - shift)
        z = ew.sum()
        log_z = float(np.log(z) + shift)
        state = linalg.hermitian_part((v * (ew / z)) @ v.conj().T)
        normalized = coord.copy()
        normalized.flat[:: len(w) + 1] -= log_z
        return scaling._Point(normalized, w - log_z, v, state), log_z

    def evaluate(a):
        coord = _plus_lift(start.coord, a, n, m, side)
        point, log_z = point_of(coord, *np.linalg.eigh(coord))
        marginal = linalg.partial_trace(point.state, n, m, side)
        return (a, lambda: log_z - float(np.trace(target @ a).real),
                linalg.hermitian_part(marginal - target), (point, marginal))

    def direction(state, g):
        point, marginal = state
        vb = point.v.reshape(n, m, n * m)
        if side == "first":
            c = np.einsum("iap,ibq->abpq", vb.conj(), vb).reshape(d * d, -1)
        else:
            c = np.einsum("iap,jaq->ijpq", vb.conj(), vb).reshape(d * d, -1)
        shifted = point.w - point.w.max()
        phi = divided_differences(shifted, np.exp, np.exp) / np.exp(shifted).sum()
        flat = marginal.reshape(-1)
        hess = (c.conj() * phi.reshape(-1)) @ c.T - np.outer(flat, flat.conj()) + gauge
        return linalg.hermitian_part(np.linalg.solve(hess, -g.reshape(-1)).reshape(d, d))

    if start.state is None:
        start = point_of(start.coord, start.w, start.v)[0]
    marginal = linalg.partial_trace(start.state, n, m, side)
    current = (np.zeros((d, d), dtype=complex), lambda: float(np.logaddexp.reduce(start.w)),
               linalg.hermitian_part(marginal - target), (start, marginal))
    a, (point, _), steps = newton_ref("bkm", evaluate, direction, current)
    return point, a, steps


# d tr_side(R lift(B) R) / dB on the (n, m, n, m) block view of R, indexed
# (row of the marginal, column of the marginal, row of B, column of B)
BURG_JACOBIAN = {"first": "icja,jbid->cdab", "second": "iajb,lbka->ikjl"}


def burg_jacobian_ref(r: np.ndarray, n: int, m: int, side: str) -> np.ndarray:
    """Jacobian of B -> tr_side(R lift(B) R) on row-major vec(B) by one
    ``einsum`` on the block view of R."""
    d = m if side == "first" else n
    blocks = r.reshape(n, m, n, m)
    return np.einsum(BURG_JACOBIAN[side], blocks, blocks).reshape(d * d, d * d)


def burg_project_ref(start: scaling._Point, n: int, m: int, side: str,
                     target: np.ndarray) -> tuple[scaling._Point, np.ndarray, int]:
    """Burg e-projection of ``start`` onto {tr_side rho = target} by
    :func:`newton_ref` on the complex d x d dual, as the package ran it
    before its duals had real coordinates: the lift added on the block
    view, the :func:`burg_jacobian_ref` ``einsum`` Jacobian, a complex
    solve and the Hermitian part of its solution as the step, and the cone
    test min eig > floor * max(|max eig|, tiny).  Returns the projected
    point, the dual variable and the number of Newton steps."""
    floor, tiny = policy.get_policy().pd_rel_floor, np.finfo(float).tiny
    d = m if side == "first" else n

    def in_cone(w):
        return bool(w[0] > floor * max(abs(w[-1]), tiny))

    def evaluate(a, point=None):
        if point is None:
            coord = _plus_lift(start.coord, -a, n, m, side)
            w, v = np.linalg.eigh(coord)
            if not in_cone(w):
                return None
            point = scaling._Point(coord, w, v, linalg.hermitian_part((v / w) @ v.conj().T))
        return (a, lambda: -float(np.log(point.w).sum()) - float(np.vdot(a, target).real),
                linalg.hermitian_part(linalg.partial_trace(point.state, n, m, side) - target), point)

    def direction(point, g):
        jac = burg_jacobian_ref(point.state, n, m, side)
        return linalg.hermitian_part(np.linalg.solve(jac, -g.reshape(-1)).reshape(d, d))

    current = evaluate(np.zeros((d, d), dtype=complex), start) if in_cone(start.w) else None
    a, point, steps = newton_ref("burg", evaluate, direction, current)
    return point, a, steps


def bkm_start_ref(rho: np.ndarray) -> scaling._Point:
    """The BKM start by two decompositions: log rho by ``linalg.logm``,
    then its spectrum by one more ``eigh``, and no state."""
    h = linalg.logm(rho)
    return scaling._Point(h, *np.linalg.eigh(h), None)


def burg_start_ref(rho: np.ndarray) -> scaling._Point:
    """The Burg start by two decompositions: K = rho^{-1} by
    ``linalg.invm``, its spectrum by one more ``eigh``, and the state
    K^{-1} from that spectrum."""
    k = linalg.invm(rho)
    w, v = np.linalg.eigh(k)
    return scaling._Point(k, w, v, linalg.hermitian_part((v / w) @ v.conj().T))


def marginal_residual(mat: np.ndarray, n: int, m: int, p: np.ndarray, q: np.ndarray) -> float:
    """||tr_first mat - P||_F^2 + ||tr_second mat - Q||_F^2, with the
    partial traces taken by ``einsum`` on the (n, m, n, m) block view: the
    sum of the diagonal blocks and the blockwise traces."""
    blocks = mat.reshape(n, m, n, m)
    first, second = np.einsum("iaib->ab", blocks), np.einsum("iaja->ij", blocks)
    return float(np.linalg.norm(first - p) ** 2 + np.linalg.norm(second - q) ** 2)


def dual_alternation_ref(method: str, choi: ChoiMatrix, cfg: scaling.ScalingConfig) -> tuple[np.ndarray, int]:
    """The BKM or Burg alternation of :func:`bkm_project_ref` or
    :func:`burg_project_ref` projections from :func:`bkm_start_ref` or
    :func:`burg_start_ref`, first side first, under the package's stop
    rule, with every residual by :func:`marginal_residual`.  Returns the
    final state and the number of sweeps."""
    n, m = choi.n, choi.m
    p, q = cfg.targets(n, m)
    start, project = {"bkm": (bkm_start_ref, bkm_project_ref), "burg": (burg_start_ref, burg_project_ref)}[method]
    point, sweeps = start(choi.matrix), 0
    residual = marginal_residual(choi.matrix, n, m, p, q)
    while residual >= cfg.tol and sweeps < cfg.max_iters:
        point, _, _ = project(point, n, m, "first", p)
        point, _, _ = project(point, n, m, "second", q)
        sweeps += 1
        residual = marginal_residual(point.state, n, m, p, q)
    return point.state, sweeps


def operator_sinkhorn_ref(choi: ChoiMatrix, cfg: scaling.ScalingConfig) -> dict:
    """Operator Sinkhorn with a materialized iterate per step: every step
    takes the partial trace of the current ``mn x mn`` iterate, its factor
    from ``linalg.inverse_mean`` and the next iterate by one congruence
    (``scaling._sld_step``), and every sweep's residual from the partial
    traces of its last iterate.  On a square shape capacity_log is the sum
    of the steps' 2 log det F / n = (log det target - log det marginal) / n,
    with log det of the marginal from its own ``eigvalsh``, so it does not
    rest on the factor products the package reads it off.  Returns the
    iterates, factors, residuals, capacity_log, sweeps, preprocessed and
    converged of the run."""
    n, m = choi.n, choi.m
    p, q = cfg.targets(n, m)
    mat = choi.matrix
    run = {"iterates": [mat], "factors": [], "residuals": [marginal_residual(mat, n, m, p, q)],
           "capacity_log": 0.0, "sweeps": 0, "preprocessed": False, "converged": False}
    if run["residuals"][0] < cfg.tol:
        run["converged"] = True
        return run
    sweep = (("first", p, np.linalg.slogdet(p)[1]), ("second", q, np.linalg.slogdet(q)[1]))
    steps = () if scaling.doubly_stochastic(p, q) else sweep[1:]
    run["preprocessed"] = bool(steps)
    while True:
        for side, target, target_logdet in steps:
            marginal_logdet = np.sum(np.log(np.linalg.eigvalsh(linalg.partial_trace(mat, n, m, side))))
            mat, factor = scaling._sld_step(mat, n, m, side, target)
            run["factors"].append((side, factor))
            run["iterates"].append(mat)
            if n == m:
                run["capacity_log"] += float(target_logdet - marginal_logdet) / n
        if steps is sweep:
            run["sweeps"] += 1
            run["residuals"].append(marginal_residual(mat, n, m, p, q))
        if run["residuals"][-1] < cfg.tol or run["sweeps"] >= cfg.max_iters:
            break
        steps = sweep
    run["converged"] = run["residuals"][-1] < cfg.tol
    return run


def central_difference_quotient_ref(tag: str, rho_star: np.ndarray, rho_0: np.ndarray, direction: np.ndarray,
                                    h: float, *, n: int | None = None, m: int | None = None) -> float:
    """[D(rho* + hA || rho0) - D(rho* - hA || rho0)] / (2h) for one h: the
    inputs checked for this h alone, the critical step computed again, and
    the two probes evaluated by two 2-D divergence calls (two classical KL
    sums of the diagonals for ``kl``).  ``DomainError`` when the probe
    leaves the positive cone."""
    if h <= 0:
        raise InvalidInputError("step h must be positive")
    rho_star, w, v = linalg._pd_eigh(rho_star, "expansion point")
    direction = linalg.as_hermitian(direction, what="perturbation direction")
    if abs(np.trace(direction)) > 1e-10:
        raise InvalidInputError("perturbation direction must be traceless")
    if n is not None and m is not None:
        for which in ("first", "second"):
            part = linalg.partial_trace(direction, n, m, which)
            if np.abs(part).max() > 1e-10:
                raise InvalidInputError(f"perturbation direction has nonzero {which} partial trace")
    h_max = divergences._critical_step(w, v, direction)
    if h >= h_max:
        raise DomainError(f"perturbation h={h:.3e} leaves the positive cone (critical h = {h_max:.3e})")
    if tag == "kl":
        for mat, what in ((rho_star, "expansion point"), (rho_0, "reference point")):
            off = mat - np.diag(np.diag(mat))
            if np.abs(off).max() > 1e-10:
                raise DomainError(f"kl difference quotient requires a diagonal {what}")
        base = np.diag(rho_0).real
        d_plus = divergences._classical_kl(np.diag(rho_star + h * direction).real, base)
        d_minus = divergences._classical_kl(np.diag(rho_star - h * direction).real, base)
    else:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            d_plus = divergences.divergence(tag, rho_star + h * direction, rho_0)
            d_minus = divergences.divergence(tag, rho_star - h * direction, rho_0)
    return (d_plus - d_minus) / (2.0 * h)


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
    the capacity normalized like ``scaling.capacity_from_trace``:
    n * inf(det Phi(X)/det X)^{1/n}, so doubly stochastic maps score one.

    This is an independent oracle for the determinant-product bookkeeping of
    the Sinkhorn trace; it never touches scaling factors.
    """
    if choi.n != choi.m:
        raise UnsupportedError("capacity is defined for m = n only")
    n = choi.n
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    basis = hermitian_basis(n)

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
