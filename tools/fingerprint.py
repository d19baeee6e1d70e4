"""Print one digest per family of the package's outputs on a fixed input set.

Two commits that print the same digest for a key give the same outputs for
it, bit for bit, so running this script on both is the check that a change
keeps its outputs.  Inputs: ``random_choi(n, m, default_rng(seed))`` for
seeds 0-11 at 2x2, 2x3, 3x2, 3x3, 3x4 and 4x4, each with uniform targets
and with targets drawn by ``random_density`` from the same generator.  Keys:

- ``sld``, ``bkm``, ``burg``: the alternation of each geometry, at the
  default ``ScalingConfig`` budget and tolerance;
- ``joint-bkm``, ``joint-burg``: ``joint_limit`` of each dual geometry;
- ``iterates``: every entry of the ``trace.iterates`` of those ``sld``,
  ``bkm`` and ``burg`` alternations, read through the sequence, so that
  a change to a path that rebuilds an iterate on read shows up;
- ``dexp``, ``dlog``: ``geometry.dexp_frechet`` at log rho and
  ``geometry.dlog_frechet`` at rho, along a traceless Hermitian direction;
- ``certificates``: ``orthogonality_residual`` of one step per tag (an
  operator Sinkhorn step onto P, a BKM projection onto P, a Burg
  projection onto Q, certified in the congruence metric).

A trace contributes its final, residuals, sweep count, converged flag,
capacity log and factors (the duals for ``bkm`` and ``burg``); an array its
dtype, shape and bytes; a raised package error its type and message.
Prints each key with the first 16 hex digits of its SHA-256, then one
``work`` line per run family (``sld``, ``bkm``, ``burg``, ``joint-bkm``,
``joint-burg``): its number of runs, of converged runs and its summed
sweeps (Newton steps for ``joint_limit``; a run that raised counts as
unconverged, with none).  Two commits that print the same work lines did
the same work, also where a digest moved by rounding.  Standard library,
numpy and the package only; it takes about a quarter of a minute.

Usage: PYTHONPATH=src python tools/fingerprint.py
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np

from opsinkhorn import channels, geometry, linalg, scaling
from opsinkhorn.geometry import ConstraintSet
from opsinkhorn.scaling import ScalingConfig

SHAPES = ((2, 2), (2, 3), (3, 2), (3, 3), (3, 4), (4, 4))
SEEDS = range(12)
KEYS = ("sld", "bkm", "burg", "joint-bkm", "joint-burg", "dexp", "dlog", "certificates", "iterates")
FAMILIES = KEYS[:5]


def _feed(h, obj) -> None:
    """Hash ``obj`` with a tag per type, so that no two values collide by
    concatenation."""
    if isinstance(obj, scaling.ScalingTrace):
        _feed(h, (obj.final, obj.residuals, obj.sweeps, obj.converged, obj.capacity_log, obj.factors))
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


def fingerprint(shapes=SHAPES, seeds=SEEDS) -> dict[str, str]:
    """The 16-hex-digit SHA-256 prefix of each key's outputs on the inputs
    of ``shapes`` and ``seeds``, then the ``work`` line of each family,
    keyed ``work <family>``."""
    hashes = {key: hashlib.sha256() for key in KEYS}
    work = {family: [0, 0, 0] for family in FAMILIES}
    directions = np.random.default_rng(0)
    for choi, p, q in _inputs(shapes, seeds):
        for key, thunk in _outputs(choi, p, q, directions):
            try:
                out = thunk()
            except (ValueError, RuntimeError) as exc:  # every package error is one of these
                out = f"{type(exc).__name__}: {exc}"
            _feed(hashes[key], out)
            ran = isinstance(out, scaling.ScalingTrace)
            if key in FAMILIES:
                runs, converged, sweeps = work[key]
                work[key] = [runs + 1, converged + (ran and out.converged), sweeps + (out.sweeps if ran else 0)]
            if key in scaling.METHODS:
                _feed(hashes["iterates"], list(out.iterates) if ran else out)
    digests = {key: h.hexdigest()[:16] for key, h in hashes.items()}
    return digests | {f"work {family}": "{} runs, {} converged, {} sweeps".format(*work[family]) for family in FAMILIES}


if __name__ == "__main__":
    for key, line in fingerprint().items():
        print(f"{key:<16} {line}")
