"""Print one digest per family of the package's outputs on a fixed input set.

Two commits that print the same digest for a key give the same outputs for
it, bit for bit, so running this script on both is the check that a change
keeps its outputs.  Inputs: ``random_choi(n, m, default_rng(seed))`` for
seeds 0-11 at 2x2, 2x3, 3x2, 3x3, 3x4 and 4x4, each with uniform targets
and with targets drawn by ``random_density`` from the same generator.  Keys:

- ``sld``, ``bkm``, ``burg``: the alternation of each geometry, at the
  default ``ScalingConfig`` budget and tolerance;
- ``joint-bkm``, ``joint-burg``: ``joint_limit`` of each dual geometry;
- ``sld-batch``: ``operator_sinkhorn_batch`` once per shape, on that
  shape's 12 uniform-target inputs at the default ``ScalingConfig``, so
  that a change to the stacked layout, which runs two or more trials at
  once, shows up (single runs, the ``sld`` key's, run the same loop on 2-D
  arrays, and only the batch keys run it stacked);
- ``sld-batch-fail``: the same batch with a trial whose first marginal is
  singular, kron(I_n / n, diag(1, 0, ...)), inserted mid-batch, so that a
  change to the error a failing batch raises shows up;
- ``sld-batch-general``: the same 12 inputs as one batch at the targets
  ``random_density`` drew for the first seed, so that a change to the
  stacked preprocessing step or to the two-``eigh`` general factor shows
  up;
- ``iterates``: every entry of the ``trace.iterates`` of those ``sld``,
  ``bkm`` and ``burg`` alternations, read through the sequence, so that
  a change to a path that rebuilds an iterate on read shows up;
- ``classical``: ``matrix_sinkhorn`` at the default ``ScalingConfig`` on
  an m x n matrix per shape and seed, uniform on [0.1, 1) from
  ``default_rng(seed)``;
- ``capacity``: the ``capacity_log`` of every trace above, in the order
  the runs are made, so that a change to the capacity bookkeeping alone
  moves this key alone;
- ``dexp``, ``dlog``: ``geometry.dexp_frechet`` at log rho and
  ``geometry.dlog_frechet`` at rho, along a traceless Hermitian direction;
- ``certificates``: ``orthogonality_residual`` of one step per tag (an
  operator Sinkhorn step onto P, a BKM projection onto P, a Burg
  projection onto Q, certified in the congruence metric);
- ``divergences``: every tag of ``divergences.DIVERGENCES`` from the
  input's state rho / tr rho to the product state Q kron P of its
  targets (``kl`` on their diagonals), then each matrix tag's
  ``central_difference_quotients`` there along the direction of ``dexp``
  on one h grid, which leaves the cone at its largest steps;
- ``geodesics``: ``e_geodesic`` of each tag from that state to Q kron P
  at t = -0.5, 0.3 and 1.7.

A trace contributes its final, residuals, sweep count, converged flag and
factors (the duals for ``bkm`` and ``burg``) to its key, and its capacity
log to ``capacity``; an array its dtype, shape and bytes; a raised package
error its type and message.
Prints each key with the first 16 hex digits of its SHA-256, then one
``work`` line per run family (``sld``, ``bkm``, ``burg``, ``joint-bkm``,
``joint-burg``, ``sld-batch``): its number of runs, of converged runs and
its summed sweeps (Newton steps for ``joint_limit``; every trial of a batch
is a run; a run that raised, or a trial of a batch that raised, counts as
unconverged, with none).  Two commits that print the same work lines did
the same work, also where a digest moved by rounding.  Standard library,
numpy and the package only; it takes about a quarter of a minute.

Usage: PYTHONPATH=src python tools/fingerprint.py
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np

from opsinkhorn import channels, divergences, geometry, linalg, scaling
from opsinkhorn.geometry import ConstraintSet
from opsinkhorn.scaling import ScalingConfig

SHAPES = ((2, 2), (2, 3), (3, 2), (3, 3), (3, 4), (4, 4))
SEEDS = range(12)
FAMILIES = ("sld", "bkm", "burg", "joint-bkm", "joint-burg", "sld-batch")
# only the families have work lines: the failing batch raises, and the
# general-target batch is there for its digest
KEYS = FAMILIES + (
    "sld-batch-fail", "sld-batch-general", "dexp", "dlog", "certificates", "iterates", "classical", "capacity",
    "divergences", "geodesics",
)
# the difference quotients' step grid and the geodesic parameters
HS = (1.0, 2.0**-4, 2.0**-10, 2.0**-20)
TS = (-0.5, 0.3, 1.7)


def _feed(h, obj) -> None:
    """Hash ``obj`` with a tag per type, so that no two values collide by
    concatenation."""
    if isinstance(obj, scaling.ScalingTrace):
        _feed(h, (obj.final, obj.residuals, obj.sweeps, obj.converged, obj.factors))
    elif isinstance(obj, channels.ChoiMatrix):
        _feed(h, obj.matrix)
    elif isinstance(obj, np.ndarray):
        h.update(f"a{obj.dtype.str}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, (list, tuple)):
        h.update(f"l{len(obj)}".encode())
        for item in obj:
            _feed(h, item)
    elif isinstance(obj, (bool, int, str)) or obj is None:
        h.update(f"{type(obj).__name__}:{obj!r};".encode())
    else:
        h.update(b"f" + struct.pack("<d", float(obj)))


def _inputs(shapes, seeds):
    """(choi, P, Q) for every shape and seed, uniform targets first."""
    for n, m in shapes:
        for seed in seeds:
            rng = np.random.default_rng(seed)
            choi = channels.random_choi(n, m, rng)
            yield choi, np.eye(m) / m, np.eye(n) / n
            yield choi, channels.random_density(m, rng), channels.random_density(n, rng)


def _direction(d: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h = (g + g.conj().T) / 2
    return h - np.trace(h).real / d * np.eye(d)


def _outputs(choi: channels.ChoiMatrix, p: np.ndarray, q: np.ndarray, rng: np.random.Generator):
    """(key, thunk) for every output of one input."""
    cfg = ScalingConfig(target_p=p, target_q=q)
    rho = choi.matrix
    direction = _direction(rho.shape[0], rng)
    first, second = ConstraintSet("first", p), ConstraintSet("second", q)

    def certificates():
        sld, _ = scaling.operator_sinkhorn_step(choi, "first", p)
        bkm, _ = scaling.bkm_e_projection(choi, first)
        burg, _ = scaling.burg_e_projection(choi, second)
        return [
            geometry.orthogonality_residual("sld", choi, sld, first),
            geometry.orthogonality_residual("bkm", choi, bkm, first),
            geometry.orthogonality_residual("congruence", choi, burg, second),
        ]

    for method in scaling.METHODS:
        yield method, lambda method=method: scaling.alternating_projections(method, choi, cfg)
    for method in ("bkm", "burg"):
        yield f"joint-{method}", lambda method=method: scaling.joint_limit(method, choi, cfg)
    yield "dexp", lambda: geometry.dexp_frechet(linalg.logm(rho), direction)
    yield "dlog", lambda: geometry.dlog_frechet(rho, direction)
    yield "certificates", certificates
    state, product = rho / np.trace(rho).real, np.kron(q, p)
    yield "divergences", lambda: divergences.divergence("kl", np.diag(state).real, np.diag(product).real)
    for tag in divergences.DIVERGENCES[1:]:
        yield "divergences", lambda tag=tag: divergences.divergence(tag, state, product)
    for tag in divergences.DIVERGENCES[1:]:
        yield "divergences", lambda tag=tag: divergences.central_difference_quotients(tag, state, product, direction, HS)
    for tag in geometry.METRICS:
        for t in TS:
            yield "geodesics", lambda tag=tag, t=t: geometry.e_geodesic(tag, state, product, t)


def _run(thunk):
    """The output of ``thunk()``, or the type and message of the package
    error it raised."""
    try:
        return thunk()
    except (ValueError, RuntimeError) as exc:  # every package error is one of these
        return f"{type(exc).__name__}: {exc}"


def fingerprint(shapes=SHAPES, seeds=SEEDS) -> dict[str, str]:
    """The 16-hex-digit SHA-256 prefix of each key's outputs on the inputs
    of ``shapes`` and ``seeds``, then the ``work`` line of each family,
    keyed ``work <family>``."""
    hashes = {key: hashlib.sha256() for key in KEYS}
    work = {family: [0, 0, 0] for family in FAMILIES}

    def count(family: str, outs: list) -> None:
        for out in outs:
            ran = isinstance(out, scaling.ScalingTrace)
            runs, converged, sweeps = work[family]
            work[family] = [runs + 1, converged + (ran and out.converged), sweeps + (out.sweeps if ran else 0)]

    def feed(key: str, out) -> None:
        # a trace's capacity log goes to its own key
        _feed(hashes[key], out)
        traces = out if isinstance(out, list) else [out]
        _feed(hashes["capacity"], [trace.capacity_log for trace in traces if isinstance(trace, scaling.ScalingTrace)])

    directions = np.random.default_rng(0)
    for shape in shapes:
        inputs = list(_inputs((shape,), seeds))
        for choi, p, q in inputs:
            for key, thunk in _outputs(choi, p, q, directions):
                out = _run(thunk)
                feed(key, out)
                if key in FAMILIES:
                    count(key, [out])
                if key in scaling.METHODS:
                    _feed(hashes["iterates"], list(out.iterates) if isinstance(out, scaling.ScalingTrace) else out)
        # the uniform-target inputs, every other one, as one batch
        chois = [choi for choi, _, _ in inputs[::2]]
        out = _run(lambda: scaling.operator_sinkhorn_batch(chois))
        feed("sld-batch", out)
        count("sld-batch", out if isinstance(out, list) else [out] * len(chois))
        n, m = shape
        singular = channels.ChoiMatrix(n=n, m=m, matrix=np.kron(np.eye(n) / n, np.diag(np.eye(m)[0])))
        failing = chois[: len(chois) // 2] + [singular] + chois[len(chois) // 2 :]
        feed("sld-batch-fail", _run(lambda: scaling.operator_sinkhorn_batch(failing)))
        _, p, q = inputs[1]
        general = ScalingConfig(target_p=p, target_q=q)
        feed("sld-batch-general", _run(lambda: scaling.operator_sinkhorn_batch(chois, general)))
        for seed in seeds:
            a = np.random.default_rng(seed).uniform(0.1, 1.0, (m, n))
            feed("classical", _run(lambda: scaling.matrix_sinkhorn(a)))
    digests = {key: h.hexdigest()[:16] for key, h in hashes.items()}
    return digests | {f"work {family}": "{} runs, {} converged, {} sweeps".format(*work[family]) for family in FAMILIES}


if __name__ == "__main__":
    for key, line in fingerprint().items():
        print(f"{key:<18} {line}")
