"""Output checks, computed apart from the program.

Nothing here imports ``opsinkhorn``.  Marginals come from a plain numpy
reshape and trace, spectra from ``numpy.linalg``, matrix logarithms from
``scipy.linalg.logm``.  Each check returns a list of failure messages; an
empty list means the output is right.  Tolerances follow from the input's
conditioning and from the solver tolerances the method promises, never from
a stored copy of an earlier output.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
from scipy.linalg import logm

EPS = float(np.finfo(float).eps)

# gates of acceptance criterion 3
SLD_CERT_GATE = 1e-8
DUAL_CERT_GATE = 1e-6
# the dual inner solvers stop at a marginal mismatch of 1e-9 (BKM gradient)
# and 1e-10 (Burg residual); a single projection must land within 1e-8
PROJECTION_ATOL = 1e-8


def marginals(rho: np.ndarray, n: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """(tr_first, tr_second) of an nm x nm matrix with n outer blocks of size m."""
    blocks = np.asarray(rho).reshape(n, m, n, m)
    return np.trace(blocks, axis1=0, axis2=2), np.trace(blocks, axis1=1, axis2=3)


def residual(rho: np.ndarray, n: int, m: int, p: np.ndarray, q: np.ndarray) -> float:
    first, second = marginals(rho, n, m)
    return float(np.linalg.norm(first - p) ** 2 + np.linalg.norm(second - q) ** 2)


def cond(a: np.ndarray) -> float:
    w = np.linalg.eigvalsh((a + a.conj().T) / 2)
    return float(abs(w[-1]) / max(abs(w[0]), np.finfo(float).tiny))


def span_defect(x: np.ndarray, n: int, m: int, side: str | None = None) -> float:
    """Frobenius norm of the part of Hermitian ``x`` outside the span of
    {I_n (x) A} (side "first"), {B (x) I_m} ("second") or both (None)."""
    first, second = marginals(x, n, m)
    proj = np.zeros_like(x)
    if side in (None, "first"):
        proj = proj + np.kron(np.eye(n), first / n)
    if side in (None, "second"):
        proj = proj + np.kron(second / m, np.eye(m))
    if side is None:
        proj = proj - np.trace(x) / (n * m) * np.eye(n * m)
    return float(np.linalg.norm(x - proj))


def check_state(rho: np.ndarray, n: int, m: int, p, q, tol: float) -> list[str]:
    """Hermitian, positive semidefinite, unit trace, and both marginals within
    ``tol`` (squared Frobenius mismatch) of their targets."""
    rho = np.asarray(rho)
    d = n * m
    if rho.shape != (d, d):
        return [f"shape {rho.shape}, expected {(d, d)}"]
    if not np.all(np.isfinite(rho)):
        return ["non-finite entries"]
    errs = []
    scale = float(np.abs(rho).max())
    gap = float(np.abs(rho - rho.conj().T).max())
    if gap > 1e-12 * scale:
        errs.append(f"not Hermitian (max |A - A^H| {gap:.2e})")
    w = np.linalg.eigvalsh((rho + rho.conj().T) / 2)
    if w[0] < -8 * d * EPS * abs(w[-1]):
        errs.append(f"not positive semidefinite (min eigenvalue {w[0]:.2e})")
    r = residual(rho, n, m, p, q)
    if not r < tol:
        errs.append(f"marginal residual {r:.3e} not below tol {tol:.1e}")
    # both targets have unit trace, so |tr rho - 1| <= sqrt(n * r)
    tr_gap = abs(np.trace(rho).real - 1.0)
    if tr_gap > math.sqrt(max(n, m) * r) + 16 * d * EPS:
        errs.append(f"trace deviates from one by {tr_gap:.2e}")
    return errs


def check_dual_form(method: str, rho0: np.ndarray, rho: np.ndarray, n: int, m: int, side=None) -> list[str]:
    """BKM: log rho - log rho0 lies in span{I (x) A + B (x) I};
    Burg: rho^{-1} - rho0^{-1} lies there.  The allowance is rounding in the
    logarithm or inverse, which grows with the condition number."""
    d = n * m
    kappa = cond(rho0) + cond(rho)
    if method == "bkm":
        x = logm(rho) - logm(rho0)
        scale = float(np.linalg.norm(logm(rho0))) + float(np.linalg.norm(logm(rho)))
    else:
        inv0, inv = np.linalg.inv(rho0), np.linalg.inv(rho)
        x = inv - inv0
        scale = float(np.linalg.norm(inv0)) + float(np.linalg.norm(inv))
    x = (x + x.conj().T) / 2
    defect = span_defect(x, n, m, side)
    allowed = 1e3 * d * EPS * kappa * scale
    if not defect <= allowed:
        return [f"{method} dual form violated: defect {defect:.2e} > {allowed:.2e}"]
    return []


def check_factors(rho0: np.ndarray, trace, n: int, m: int) -> list[str]:
    """The SLD final equals (R (x) L) rho0 (R (x) L)^H with L and R the
    ordered products of the recorded factors, and for square doubly
    stochastic runs capacity_log = 2 (log det L + log det R) / n."""
    left, right = np.eye(m, dtype=complex), np.eye(n, dtype=complex)
    for side, factor in trace.factors:
        if side == "first":
            left = factor @ left
        else:
            right = factor @ right
    f = np.kron(right, left)
    rebuilt = f @ rho0 @ f.conj().T
    final = trace.iterates[-1]
    steps = len(trace.factors)
    kappa = np.linalg.cond(left) * np.linalg.cond(right)
    gap = float(np.abs(rebuilt - final).max())
    allowed = 1e2 * (steps + 1) * n * m * EPS * kappa * float(np.abs(final).max())
    errs = []
    if not gap <= allowed:
        errs.append(f"final differs from the rebuilt congruence by {gap:.2e} > {allowed:.2e}")
    doubly = (
        n == m
        and np.allclose(trace.target_p, np.eye(m) / m, rtol=0, atol=1e-12)
        and np.allclose(trace.target_q, np.eye(n) / n, rtol=0, atol=1e-12)
    )
    if doubly:
        sign_l, logdet_l = np.linalg.slogdet(left)
        sign_r, logdet_r = np.linalg.slogdet(right)
        expected = 2.0 * (logdet_l + logdet_r) / n
        gap = abs(trace.capacity_log - expected)
        allowed = 1e2 * (steps + 1) * n * EPS * (math.log(kappa) + abs(expected) + 1.0)
        if abs(sign_l - 1) > 1e-9 or abs(sign_r - 1) > 1e-9 or not gap <= allowed:
            errs.append(f"capacity_log {trace.capacity_log!r} differs from {expected!r} by {gap:.2e}")
    return errs


def check_solve(method: str, rho0: np.ndarray, trace, p, q, tol: float) -> list[str]:
    """Every check a solve to tolerance must pass."""
    n, m = trace.n, trace.m
    final = trace.iterates[-1]
    errs = []
    if not trace.converged:
        errs.append("converged is false")
    if trace.method != method:
        errs.append(f"method {trace.method!r}, expected {method!r}")
    errs += check_state(final, n, m, p, q, tol)
    r = residual(final, n, m, p, q)
    reported = float(trace.residuals[-1])
    if not abs(r - reported) <= 1e-6 * max(r, reported) + 1e-18:
        errs.append(f"reported residual {reported:.6e} differs from recomputed {r:.6e}")
    if errs:
        return errs
    if method == "sld":
        return check_factors(rho0, trace, n, m)
    return check_dual_form(method, rho0, final, n, m)


def check_projection(method: str, rho0, rho, n: int, m: int, side: str, target) -> list[str]:
    """A single BKM or Burg e-projection onto one marginal constraint set."""
    rho = np.asarray(rho)
    first, second = marginals(rho, n, m)
    got = first if side == "first" else second
    gap = float(np.linalg.norm(got - target))
    errs = []
    if not gap <= PROJECTION_ATOL:
        errs.append(f"{method} projection misses its {side} target by {gap:.2e}")
    w = np.linalg.eigvalsh((rho + rho.conj().T) / 2)
    if w[0] <= 0:
        errs.append(f"{method} projection is not positive definite")
    return errs + check_dual_form(method, rho0, rho, n, m, side)


def check_certificates(kind: str, certs, expected: int) -> list[str]:
    gate = SLD_CERT_GATE if kind == "sld" else DUAL_CERT_GATE
    if len(certs) != expected:
        return [f"{len(certs)} {kind} certificates, expected {expected}"]
    bad = [c for c in certs if not (math.isfinite(c) and 0.0 <= c <= gate)]
    return [f"{kind} certificate {c:.2e} above gate {gate:.0e}" for c in bad]


# ------------------------------------------------------------------ CLI output


def parse_csv(text: str) -> tuple[list[str], list[list[str]]]:
    lines = [line for line in text.strip().splitlines() if line]
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


def load_payload(path: Path) -> np.ndarray:
    payload = json.loads(Path(path).read_text())
    return np.asarray(payload["re"], dtype=float) + 1j * np.asarray(payload["im"], dtype=float)


def check_compare(stdout: str, outdir: Path, rho0: np.ndarray, tol: float) -> list[str]:
    """Distance table symmetric with a zero diagonal and equal to the
    distances between the written finals; SLD and BKM finals meet the
    marginals (the Burg column is not a converged limit, see CHANGES.md)."""
    methods = ("sld", "bkm", "burg")
    header, rows = parse_csv(stdout)
    if header != ["method", *methods] or [r[0] for r in rows] != list(methods):
        return [f"unexpected table layout {header}"]
    table = np.array([[float(v) for v in r[1:]] for r in rows])
    errs = []
    if not np.array_equal(table, table.T):
        errs.append("distance table is not symmetric")
    if np.any(np.diag(table) != 0.0):
        errs.append("distance table has a nonzero diagonal")
    finals = {k: load_payload(Path(outdir) / f"{k}.json") for k in methods}
    for i, a in enumerate(methods):
        for j, b in enumerate(methods):
            gap = float(np.abs(finals[a] - finals[b]).max())
            if abs(gap - table[i, j]) > 1e-15 + 1e-12 * gap:
                errs.append(f"table entry {a},{b} = {table[i, j]!r} but finals differ by {gap!r}")
    half = np.eye(2) / 2
    for method in ("sld", "bkm"):
        errs += [f"{method}: {e}" for e in check_state(finals[method], 2, 2, half, half, tol)]
    errs += check_dual_form("bkm", rho0, finals["bkm"], 2, 2)
    return errs


def check_diffquot(stdout: str, floor: float | None) -> list[str]:
    """Grid h = 2^-5 .. 2^-40, every quotient finite, the quotient settled
    to 1e-6 relative over h = 2^-15 .. 2^-21, and for the
    Belavkin-Staszewski tag every |quotient| above ``floor``.

    Central differences converge as h^2 and pick up rounding as eps/h; at
    this window both stay below 1e-6 for the reference input."""
    header, rows = parse_csv(stdout)
    if header != ["log10_h", "delta"] or len(rows) != 36:
        return [f"unexpected layout: {header}, {len(rows)} rows"]
    logh = np.array([float(r[0]) for r in rows])
    delta = np.array([float(r[1]) for r in rows])
    errs = []
    expected = np.log10(2.0 ** -np.arange(5, 41))
    if np.abs(logh - expected).max() > 1e-12:
        errs.append("h grid is not 2^-5 .. 2^-40")
    if not np.all(np.isfinite(delta)):
        return errs + ["non-finite difference quotient"]
    settled = delta[10:17]
    spread = float(settled.max() - settled.min())
    if spread > 1e-6 * max(1.0, float(np.abs(settled).max())):
        errs.append(f"quotient not settled over h = 2^-15..2^-21 (spread {spread:.2e})")
    if floor is not None and float(np.abs(delta).min()) <= floor:
        errs.append(f"min |quotient| {np.abs(delta).min():.2e} not above {floor:.0e}")
    return errs


def check_scatter(stdout: str, tags, trials: int) -> list[str]:
    """Every trial converged; Umegaki divergence and -log capacity are
    nonnegative (capacity <= 1 for trace-one inputs, by AM-GM)."""
    header, rows = parse_csv(stdout)
    expected = ["trial", "converged", *[f"D_{t}" for t in tags], "neg_log_capacity"]
    if header != expected or len(rows) != trials:
        return [f"unexpected layout: {header}, {len(rows)} rows"]
    errs = []
    for i, row in enumerate(rows):
        vals = [float(v) for v in row[2:]]
        if int(row[0]) != i or int(row[1]) != 1:
            errs.append(f"trial {row[0]} not converged")
        elif not all(math.isfinite(v) for v in vals):
            errs.append(f"trial {i}: non-finite value")
        else:
            for tag, v in zip(tags, vals):
                if tag == "umegaki" and v < -1e-12:
                    errs.append(f"trial {i}: negative Umegaki divergence {v:.2e}")
            if vals[-1] < -1e-12:
                errs.append(f"trial {i}: negative -log capacity {vals[-1]:.2e}")
    return errs


def classical_sinkhorn(a: np.ndarray, sweeps: int = 100_000) -> tuple[np.ndarray, np.ndarray]:
    """Row and column factors d1, d2 with diag(d1) a diag(d2) doubly
    stochastic (sums 1/n), to rounding level."""
    n = a.shape[0]
    d1, d2 = np.ones(n), np.ones(n)
    for _ in range(sweeps):
        d1 = 1.0 / (n * (a @ d2))
        d2 = 1.0 / (n * (a.T @ d1))
        s = d1[:, None] * a * d2[None, :]
        if np.abs(s.sum(axis=1) - 1.0 / n).max() < 1e-15:
            break
    return d1, d2


def check_scatter_diagonal(stdout: str, n: int, trials: int, seed: int, tol: float) -> list[str]:
    """The classical identity D_kl(rho* || rho0) = -log capacity, per trial.

    The run stops with row sums off by at most sqrt(tol) in 2-norm, and the
    identity then holds to sqrt(tol) times the spread of the log row and
    column factors.  The factors come from the trial's input matrix, rebuilt
    as the CLI draws it (uniform(0.05, 1) entries, seed + trial) and scaled
    here independently.
    """
    header, rows = parse_csv(stdout)
    if header != ["trial", "converged", "D_kl", "neg_log_capacity"] or len(rows) != trials:
        return [f"unexpected layout: {header}, {len(rows)} rows"]
    errs = []
    for i, row in enumerate(rows):
        if int(row[0]) != i or int(row[1]) != 1:
            errs.append(f"trial {row[0]} not converged")
            continue
        d_kl, neg_log_cap = float(row[2]), float(row[3])
        a = np.random.default_rng(seed + i).uniform(0.05, 1.0, size=(n, n))
        a /= a.sum()
        d1, d2 = classical_sinkhorn(a)
        lg1, lg2 = np.log(d1), np.log(d2)
        exact = float((lg1.sum() + lg2.sum()) / n)
        spread = float(np.linalg.norm(lg1 - lg1.mean()) + np.linalg.norm(lg2 - lg2.mean()))
        allowed = 2.0 * math.sqrt(tol) * spread + 1e-12
        if not abs(d_kl - neg_log_cap) <= allowed:
            errs.append(f"trial {i}: D_kl {d_kl!r} vs -log capacity {neg_log_cap!r} (allowed {allowed:.1e})")
        if not abs(neg_log_cap - exact) <= allowed:
            errs.append(f"trial {i}: -log capacity {neg_log_cap!r}, independent value {exact!r}")
    return errs


def check_matrix_scale(stdout: str, a: np.ndarray, tol: float) -> list[str]:
    """Classical Sinkhorn output: positive, row sums 1/rows and column sums
    1/cols within tol, and diag(r) a diag(c) for some positive r, c."""
    summary = json.loads(stdout)
    final = np.asarray(summary["matrix"]["re"], dtype=float)
    rows, cols = a.shape
    if final.shape != a.shape or not summary["converged"]:
        return [f"shape {final.shape} or not converged"]
    if np.any(final <= 0):
        return ["nonpositive entry"]
    errs = []
    r = float(
        np.linalg.norm(final.sum(axis=1) - 1.0 / rows) ** 2
        + np.linalg.norm(final.sum(axis=0) - 1.0 / cols) ** 2
    )
    if not r < tol or abs(r - summary["residual"]) > 1e-6 * r + 1e-18:
        errs.append(f"residual {r:.3e} (reported {summary['residual']:.3e})")
    lg = np.log(final / a)
    rank_one = lg[:, :1] + lg[:1, :] - lg[0, 0]
    if np.abs(lg - rank_one).max() > 1e-10:
        errs.append("final is not a diagonal scaling of the input")
    return errs


def check_scale_summary(stdout: str, method: str, rho0: np.ndarray, n: int, m: int, tol: float) -> list[str]:
    """A `scale` run on a Choi input, checked from its printed summary."""
    summary = json.loads(stdout)
    payload = summary["matrix"]
    final = np.asarray(payload["re"], dtype=float) + 1j * np.asarray(payload["im"], dtype=float)
    p, q = np.eye(m) / m, np.eye(n) / n
    errs = [] if summary["converged"] else ["converged is false"]
    errs += check_state(final, n, m, p, q, tol)
    r = residual(final, n, m, p, q)
    if not abs(r - summary["residual"]) <= 1e-6 * r + 1e-18:
        errs.append(f"reported residual {summary['residual']:.6e} differs from {r:.6e}")
    if not errs and method in ("bkm", "burg"):
        errs += check_dual_form(method, rho0, final, n, m)
    return errs
