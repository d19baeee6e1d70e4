"""Workload definitions: inputs, the fixed list of operations and set-up.

Every workload is built in two stages.

1. A *family* of base instances is drawn from a fixed generator seed
   (``FAMILY_SEED``).  The family fixes what the solvers' cost depends on:
   block shapes, Kraus rank, the mixing weight, spectra and therefore the
   number of sweeps every solve needs.
2. The run seed (``--seed``) draws one Haar-random local unitary W (x) U per
   instance and conjugates the instance with it (targets P and Q are
   conjugated by U and W).  Every matrix entry changes with the seed, but all
   three methods are covariant under local unitaries, so sweep counts, inner
   iteration counts and memory stay the same.  Runs at different seeds
   therefore do the same amount of work, and no seed can turn a converging
   solve into one that hits its budget.

An operation is a callable that runs the program and returns what its check
needs; ``run.py`` times the call and then runs the check outside the timed
region.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

import checks

FAMILY_SEED = 20200503


@dataclass
class Op:
    """One timed operation: ``call()`` runs the program, ``check(out)``
    returns a list of failure messages (empty when the output is right)."""

    name: str
    dims: tuple[int, int]
    call: Callable[[], Any]
    check: Callable[[Any], list[str]]


@dataclass
class Workload:
    ops: list[Op]
    warm: list[Callable[[], Any]] = field(default_factory=list)


# ---------------------------------------------------------------- inputs


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def herm(a: np.ndarray) -> np.ndarray:
    return (a + a.conj().T) / 2


def ginibre_density(d: int, rng: np.random.Generator) -> np.ndarray:
    g = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2.0)
    rho = g.conj().T @ g
    return herm(rho / np.trace(rho).real)


def low_rank_choi(n: int, m: int, rank: int, eps: float, rng: np.random.Generator) -> np.ndarray:
    """Choi matrix of a map with ``rank`` Gaussian Kraus operators, mixed
    with eps * I/(nm) so that it is positive definite."""
    kraus = (rng.standard_normal((rank, m, n)) + 1j * rng.standard_normal((rank, m, n))) / np.sqrt(2.0)
    vecs = kraus.transpose(0, 2, 1).reshape(rank, n * m)  # column-stacked |A_k>
    choi = vecs.T @ vecs.conj()
    choi = herm(choi / np.trace(choi).real)
    return (1.0 - eps) * choi + eps * np.eye(n * m) / (n * m)


def conditioned_density(d: int, rng: np.random.Generator) -> np.ndarray:
    """A marginal target: half Ginibre state, half maximally mixed."""
    return herm(0.5 * ginibre_density(d, rng) + 0.5 * np.eye(d) / d)


@dataclass
class Instance:
    n: int
    m: int
    rho: np.ndarray
    p: np.ndarray | None = None  # first-marginal target (m x m); None is I/m
    q: np.ndarray | None = None  # second-marginal target (n x n); None is I/n

    def rotated(self, rng: np.random.Generator) -> "Instance":
        w, u = haar_unitary(self.n, rng), haar_unitary(self.m, rng)
        f = np.kron(w, u)
        return Instance(
            self.n,
            self.m,
            herm(f @ self.rho @ f.conj().T),
            None if self.p is None else herm(u @ self.p @ u.conj().T),
            None if self.q is None else herm(w @ self.q @ w.conj().T),
        )


# (n, m, Kraus rank, eps, general targets): n*m from 144 to 256, 8 to 40 sweeps
SLD_LARGE = (
    (16, 16, 2, 0.01, False),
    (16, 16, 4, 0.10, False),
    (12, 12, 2, 0.05, False),
    (12, 12, 4, 0.02, False),
    (12, 16, 3, 0.03, False),
    (16, 12, 3, 0.05, False),
    (9, 16, 2, 0.10, False),
    (16, 9, 2, 0.02, True),
    (14, 14, 3, 0.03, True),
)

DUAL_SHAPES = ((2, 3), (3, 2), (3, 3), (4, 4))
DUAL_PER_SHAPE = (("bkm", 4), ("burg", 2))

# dims of the certified trajectories (the certificate gate holds for the
# first two sweeps there; see README)
CERT_SHAPES = ((2, 2), (2, 3))
CERT_SWEEPS = 2


def sld_large_family() -> list[Instance]:
    rng = np.random.default_rng(FAMILY_SEED)
    out = []
    for n, m, rank, eps, general in SLD_LARGE:
        rho = low_rank_choi(n, m, rank, eps, rng)
        p = conditioned_density(m, rng) if general else None
        q = conditioned_density(n, rng) if general else None
        out.append(Instance(n, m, rho, p, q))
    return out


def dual_small_family() -> list[tuple[str, Instance]]:
    rng = np.random.default_rng(FAMILY_SEED + 1)
    return [
        (method, Instance(n, m, ginibre_density(n * m, rng)))
        for n, m in DUAL_SHAPES
        for method, count in DUAL_PER_SHAPE
        for _ in range(count)
    ]


def cert_family() -> list[Instance]:
    rng = np.random.default_rng(FAMILY_SEED + 2)
    return [Instance(n, m, ginibre_density(n * m, rng)) for n, m in CERT_SHAPES]


# ---------------------------------------------------------------- workloads


def _config(ops, inst: Instance, max_iters: int = 200):
    return ops.ScalingConfig(max_iters=max_iters, tol=1e-8, target_p=inst.p, target_q=inst.q)


def _targets(inst: Instance) -> tuple[np.ndarray, np.ndarray]:
    p = np.eye(inst.m) / inst.m if inst.p is None else inst.p
    q = np.eye(inst.n) / inst.n if inst.q is None else inst.q
    return p, q


def _solve_op(ops, method: str, inst: Instance, label: str) -> Op:
    choi = ops.ChoiMatrix(n=inst.n, m=inst.m, matrix=inst.rho)
    cfg = _config(ops, inst)
    p, q = _targets(inst)

    def call():
        return ops.alternating_projections(method, choi, cfg)

    def check(trace):
        return checks.check_solve(method, inst.rho, trace, p, q, cfg.tol)

    return Op(label, (inst.n, inst.m), call, check)


def build_sld_large(ops, seed: int) -> Workload:
    rng = np.random.default_rng(seed)
    insts = [inst.rotated(rng) for inst in sld_large_family()]
    work = Workload([_solve_op(ops, "sld", inst, f"sld-{inst.n}x{inst.m}-{i}") for i, inst in enumerate(insts)])
    seen = set()
    for inst in insts:
        key = (inst.n, inst.m, inst.p is None)
        if key not in seen:
            seen.add(key)
            choi = ops.ChoiMatrix(n=inst.n, m=inst.m, matrix=inst.rho)
            work.warm.append(lambda c=choi, cfg=_config(ops, inst, 1): ops.operator_sinkhorn(c, cfg))
    return work


def build_dual_small(ops, seed: int) -> Workload:
    rng = np.random.default_rng(seed)
    work = Workload([])
    seen = set()
    for i, (method, base) in enumerate(dual_small_family()):
        inst = base.rotated(rng)
        work.ops.append(_solve_op(ops, method, inst, f"{method}-{inst.n}x{inst.m}-{i}"))
        if (method, inst.n, inst.m) not in seen:
            seen.add((method, inst.n, inst.m))
            choi = ops.ChoiMatrix(n=inst.n, m=inst.m, matrix=inst.rho)
            cfg = _config(ops, inst, 1)
            work.warm.append(lambda c=choi, cfg=cfg, mt=method: ops.alternating_projections(mt, c, cfg))
    return work


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Run ``opsinkhorn.cli.main`` in-process, returning (exit code, stdout)."""
    from opsinkhorn import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def _cli_op(label: str, argv: list[str], check: Callable[[str], list[str]], dims=(2, 2)) -> Op:
    def checked(result):
        code, stdout = result
        if code != 0:
            return [f"exit code {code}"]
        return check(stdout)

    return Op(label, dims, lambda: run_cli(argv), checked)


def _cert_sld_op(ops, inst: Instance) -> Op:
    from opsinkhorn import geometry, scaling

    choi = ops.ChoiMatrix(n=inst.n, m=inst.m, matrix=inst.rho)
    cfg = _config(ops, inst)
    p, q = _targets(inst)

    def call():
        trace = scaling.operator_sinkhorn(choi, cfg)
        certs = []
        prev = choi
        for (side, _), mat in zip(trace.factors[: 2 * CERT_SWEEPS], trace.iterates[1:]):
            cur = ops.ChoiMatrix(n=inst.n, m=inst.m, matrix=mat)
            target = p if side == "first" else q
            certs.append(geometry.orthogonality_residual("sld", prev, cur, geometry.ConstraintSet(side, target)))
            prev = cur
        return trace, certs

    def check(out):
        trace, certs = out
        errs = checks.check_solve("sld", inst.rho, trace, p, q, cfg.tol)
        return errs + checks.check_certificates("sld", certs, 2 * CERT_SWEEPS)

    return Op(f"cert-sld-{inst.n}x{inst.m}", (inst.n, inst.m), call, check)


def _cert_dual_op(ops, inst: Instance) -> Op:
    """One BKM projection onto the first constraint set and one Burg
    projection onto the second, each certified."""
    from opsinkhorn import geometry, scaling

    choi = ops.ChoiMatrix(n=inst.n, m=inst.m, matrix=inst.rho)
    p, q = _targets(inst)

    def call():
        first, second = geometry.ConstraintSet("first", p), geometry.ConstraintSet("second", q)
        bkm, _ = scaling.bkm_e_projection(choi, first)
        burg, _ = scaling.burg_e_projection(choi, second)
        return (
            bkm.matrix,
            burg.matrix,
            geometry.orthogonality_residual("bkm", choi, bkm, first),
            geometry.orthogonality_residual("congruence", choi, burg, second),
        )

    def check(out):
        bkm, burg, cert_bkm, cert_burg = out
        return (
            checks.check_projection("bkm", inst.rho, bkm, inst.n, inst.m, "first", p)
            + checks.check_projection("burg", inst.rho, burg, inst.n, inst.m, "second", q)
            + checks.check_certificates("dual", [cert_bkm, cert_burg], 2)
        )

    return Op(f"cert-dual-{inst.n}x{inst.m}", (inst.n, inst.m), call, check)


def build_paper_experiments(ops, seed: int, workdir: Path) -> Workload:
    from opsinkhorn import geometry, scaling
    from opsinkhorn.reference import reference_rho0

    rho0 = reference_rho0().matrix
    rng = np.random.default_rng(seed)
    certs = [inst.rotated(rng) for inst in cert_family()]

    # a positive 3 x 4 matrix file for the classical `scale` command
    a = rng.uniform(0.05, 1.0, size=(3, 4))
    a /= a.sum()
    matrix_file = workdir / "matrix.json"
    matrix_file.write_text(json.dumps({"kind": "matrix", "re": a.tolist(), "im": np.zeros_like(a).tolist()}))
    compare_dir = workdir / "compare"
    scatter_seed = str(seed)

    work = Workload(
        [
            _cli_op(
                "compare",
                ["compare", "--paper-rho0", "--out", str(compare_dir)],
                lambda out: checks.check_compare(out, compare_dir, rho0, 1e-8),
            ),
            _cli_op(
                "diffquot-bs",
                ["diffquot", "--paper-rho0", "--tag", "bs"],
                lambda out: checks.check_diffquot(out, floor=1e-3),
            ),
            _cli_op(
                "diffquot-nagaoka",
                ["diffquot", "--paper-rho0", "--tag", "nagaoka"],
                lambda out: checks.check_diffquot(out, floor=None),
            ),
            _cli_op(
                "scatter",
                ["capacity-scatter", "--dims", "2", "--trials", "30", "--tags", "umegaki,nagaoka",
                 "--seed", scatter_seed],
                lambda out: checks.check_scatter(out, ("umegaki", "nagaoka"), 30),
            ),
            _cli_op(
                "scatter-diagonal",
                ["capacity-scatter", "--dims", "2", "--trials", "30", "--diagonal", "--tags", "kl",
                 "--seed", scatter_seed],
                lambda out: checks.check_scatter_diagonal(out, 2, 30, int(scatter_seed), 1e-8),
            ),
            _cli_op(
                "scale-matrix",
                ["scale", str(matrix_file)],
                lambda out: checks.check_matrix_scale(out, a, 1e-8),
                dims=a.shape,
            ),
        ]
        + [_cert_sld_op(ops, inst) for inst in certs]
        + [_cert_dual_op(ops, inst) for inst in certs]
        + [
            _cli_op(
                "scale-bkm",
                ["scale", "--paper-rho0", "--method", "bkm"],
                lambda out: checks.check_scale_summary(out, "bkm", rho0, 2, 2, 1e-8),
            )
        ]
    )

    # first calls: every command once on a tiny budget, every certificate
    # shape once (this fills the geometry tangent-basis cache)
    warm_cli = [
        ["compare", "--paper-rho0", "--max-iters", "1"],
        ["diffquot", "--paper-rho0", "--tag", "bs", "--max-iters", "1"],
        ["diffquot", "--paper-rho0", "--tag", "nagaoka", "--max-iters", "1"],
        ["capacity-scatter", "--dims", "2", "--trials", "1", "--tags", "umegaki,nagaoka"],
        ["capacity-scatter", "--dims", "2", "--trials", "1", "--diagonal", "--tags", "kl"],
        ["scale", str(matrix_file), "--max-iters", "1"],
        ["scale", "--paper-rho0", "--method", "bkm", "--max-iters", "1"],
    ]
    work.warm += [lambda argv=argv: run_cli(argv) for argv in warm_cli]
    for inst in certs:
        choi = ops.ChoiMatrix(n=inst.n, m=inst.m, matrix=inst.rho)
        p, q = _targets(inst)

        def warm_cert(choi=choi, p=p, q=q):
            for side, target in (("first", p), ("second", q)):
                constraint = geometry.ConstraintSet(side, target)
                step, _ = scaling.operator_sinkhorn_step(choi, side, target)
                geometry.orthogonality_residual("sld", choi, step, constraint)
            scaling.bkm_e_projection(choi, geometry.ConstraintSet("first", p))
            scaling.burg_e_projection(choi, geometry.ConstraintSet("second", q))

        work.warm.append(warm_cert)
    return work


BUILDERS = {
    "sld-large": lambda ops, seed, workdir: build_sld_large(ops, seed),
    "dual-small": lambda ops, seed, workdir: build_dual_small(ops, seed),
    "paper-experiments": build_paper_experiments,
}
