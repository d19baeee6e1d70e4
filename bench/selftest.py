"""Self-test of the output checks: each accepts a real output of the
program and rejects a corrupted copy of it.

    python3 bench/selftest.py

Prints one line per case and exits with status 1 if any check accepts a
corrupted output or rejects a real one.
"""

from __future__ import annotations

import copy
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

import checks
from run import import_program
from workloads import Instance, conditioned_density, ginibre_density, run_cli

TOL = 1e-8


def hermitian_bump(d: int, size: float) -> np.ndarray:
    e = np.zeros((d, d), dtype=complex)
    e[0, 1] = size
    e[1, 0] = size
    return e


def with_final(trace, final):
    """The trace with another final matrix, its reported residual made to
    agree, so that the deeper checks have to catch it."""
    bad = copy.deepcopy(trace)
    bad.iterates[-1] = final
    bad.residuals[-1] = checks.residual(final, trace.n, trace.m, trace.target_p, trace.target_q)
    return bad


def cases(ops, workdir: Path):
    rng = np.random.default_rng(7)
    eye = lambda d: np.eye(d) / d  # noqa: E731

    # doubly stochastic SLD, BKM and Burg solves of one 2 x 3 input
    rho = ginibre_density(6, rng)
    choi = ops.ChoiMatrix(n=2, m=3, matrix=rho)
    p, q = eye(3), eye(2)
    sld = ops.alternating_projections("sld", choi)
    bkm = ops.alternating_projections("bkm", choi)
    burg = ops.alternating_projections("burg", choi)
    yield "sld solve", lambda t: checks.check_solve("sld", rho, t, p, q, TOL), sld, [
        ("perturbed final", with_final(sld, sld.iterates[-1] + hermitian_bump(6, 1e-6))),
        ("not converged", _set(sld, converged=False)),
        ("wrong reported residual", _set(sld, residuals=sld.residuals[:-1] + [sld.residuals[-1] * 10])),
        ("perturbed factor", _perturb_factor(sld)),
        ("not Hermitian", with_final(sld, sld.iterates[-1] + 1e-9j * np.triu(np.ones((6, 6)), 1))),
        ("bkm limit passed off as sld", with_final(sld, bkm.iterates[-1])),
    ]
    yield "bkm solve", lambda t: checks.check_solve("bkm", rho, t, p, q, TOL), bkm, [
        ("sld limit passed off as bkm", with_final(bkm, sld.iterates[-1])),
        ("burg limit passed off as bkm", with_final(bkm, burg.iterates[-1])),
    ]
    yield "burg solve", lambda t: checks.check_solve("burg", rho, t, p, q, TOL), burg, [
        ("bkm limit passed off as burg", with_final(burg, bkm.iterates[-1])),
    ]

    # square SLD run with general targets, checked with the targets swapped
    inst = Instance(3, 3, ginibre_density(9, rng), conditioned_density(3, rng), conditioned_density(3, rng))
    cfg = ops.ScalingConfig(target_p=inst.p, target_q=inst.q)
    general = ops.operator_sinkhorn(ops.ChoiMatrix(n=3, m=3, matrix=inst.rho), cfg)
    yield "sld general targets", lambda pq: checks.check_solve("sld", inst.rho, general, *pq, TOL), (
        inst.p, inst.q), [("swapped marginals", (inst.q, inst.p))]

    square = ops.operator_sinkhorn(ops.ChoiMatrix(n=3, m=3, matrix=inst.rho))
    yield "sld capacity_log", lambda t: checks.check_solve("sld", inst.rho, t, eye(3), eye(3), TOL), square, [
        ("shifted capacity_log", _set(square, capacity_log=square.capacity_log + 1e-6)),
    ]

    first = ops.ConstraintSet("first", p)
    bkm_proj, _ = ops.bkm_e_projection(choi, first)
    burg_proj, _ = ops.burg_e_projection(choi, first)
    yield "bkm projection", lambda m: checks.check_projection("bkm", rho, m, 2, 3, "first", p), bkm_proj.matrix, [
        ("burg projection passed off as bkm", burg_proj.matrix),
        ("projection onto the other side", ops.bkm_e_projection(choi, ops.ConstraintSet("second", q))[0].matrix),
    ]
    yield "certificates", lambda c: checks.check_certificates("sld", c, 2), [1e-10, 3e-9], [
        ("certificate above gate", [1e-10, 2e-8]),
        ("missing certificate", [1e-10]),
    ]

    # CLI outputs
    rho0 = ops.reference_rho0().matrix
    outdir = workdir / "compare"
    _, table = run_cli(["compare", "--paper-rho0", "--out", str(outdir)])
    lines = table.splitlines()
    cells = lines[1].split(",")
    cells[2], cells[3] = cells[3], cells[2]
    asym = "\n".join([lines[0], ",".join(cells), *lines[2:]]) + "\n"
    yield "compare", lambda t: checks.check_compare(t, outdir, rho0, TOL), table, [("asymmetric table", asym)]
    yield "compare finals", lambda d: checks.check_compare(table, d, rho0, TOL), outdir, [
        ("sld final replaced by the bkm final", _swapped_final_dir(outdir, workdir / "bad"))
    ]

    _, bs = run_cli(["diffquot", "--paper-rho0", "--tag", "bs"])
    yield "diffquot bs", lambda t: checks.check_diffquot(t, floor=1e-3), bs, [
        ("quotient at the floor", _replace_row(bs, 20, "5e-4")),
        ("unsettled quotient", _replace_row(bs, 14, "2.1")),
    ]

    _, scatter = run_cli(["capacity-scatter", "--dims", "2", "--trials", "5", "--tags", "umegaki,nagaoka"])
    rows = scatter.splitlines()
    yield "scatter", lambda t: checks.check_scatter(t, ("umegaki", "nagaoka"), 5), scatter, [
        ("unconverged trial", "\n".join(rows[:2] + ["1,0,nan,nan,nan"] + rows[3:])),
        ("negative -log capacity", "\n".join(rows[:-1] + [rows[-1].rsplit(",", 1)[0] + ",-0.5"])),
    ]

    _, diag = run_cli(["capacity-scatter", "--dims", "2", "--trials", "5", "--diagonal", "--tags", "kl"])
    rows = diag.splitlines()
    swapped = rows[:2] + [rows[3].replace("2,", "1,", 1), rows[2].replace("1,", "2,", 1)] + rows[4:]
    yield "scatter diagonal", lambda t: checks.check_scatter_diagonal(t, 2, 5, 0, TOL), diag, [
        ("trials swapped", "\n".join(swapped))
    ]

    a = rng.uniform(0.05, 1.0, size=(3, 4))
    a /= a.sum()
    path = workdir / "m.json"
    path.write_text(json.dumps({"kind": "matrix", "re": a.tolist(), "im": np.zeros_like(a).tolist()}))
    _, out = run_cli(["scale", str(path)])
    bad = json.loads(out)
    bad["matrix"]["re"][1][2] *= 1 + 1e-6
    f = np.asarray(bad["matrix"]["re"])
    bad["residual"] = float(np.linalg.norm(f.sum(1) - 1 / 3) ** 2 + np.linalg.norm(f.sum(0) - 1 / 4) ** 2)
    yield "matrix scale", lambda t: checks.check_matrix_scale(t, a, TOL), out, [("perturbed entry", json.dumps(bad))]

    _, out = run_cli(["scale", "--paper-rho0", "--method", "bkm"])
    sld_final = json.loads(run_cli(["scale", "--paper-rho0", "--method", "sld"])[1])["matrix"]
    yield "scale bkm", lambda t: checks.check_scale_summary(t, "bkm", rho0, 2, 2, TOL), out, [
        ("sld final passed off as bkm", _summary_with(out, sld_final, 2, 2))
    ]


def _set(trace, **fields):
    bad = copy.deepcopy(trace)
    for k, v in fields.items():
        setattr(bad, k, v)
    return bad


def _perturb_factor(trace):
    bad = copy.deepcopy(trace)
    side, f = bad.factors[1]
    bad.factors[1] = (side, f + hermitian_bump(f.shape[0], 1e-7))
    return bad


def _swapped_final_dir(src: Path, dst: Path) -> Path:
    dst.mkdir(exist_ok=True)
    for name, source in (("sld", "bkm"), ("bkm", "bkm"), ("burg", "burg")):
        (dst / f"{name}.json").write_text((src / f"{source}.json").read_text())
    return dst


def _summary_with(summary: str, matrix_payload: dict, n: int, m: int) -> str:
    """A `scale` summary with another final matrix and a residual that agrees."""
    bad = json.loads(summary)
    bad["matrix"] = matrix_payload
    final = np.asarray(matrix_payload["re"]) + 1j * np.asarray(matrix_payload["im"])
    bad["residual"] = checks.residual(final, n, m, np.eye(m) / m, np.eye(n) / n)
    return json.dumps(bad)


def _replace_row(csv: str, row: int, value: str) -> str:
    lines = csv.splitlines()
    lines[row] = lines[row].split(",")[0] + "," + value
    return "\n".join(lines) + "\n"


def main() -> int:
    ops = import_program()
    failures = 0
    with tempfile.TemporaryDirectory(dir=Path(__file__).resolve().parent) as tmp:
        for name, check, real, corrupted in cases(ops, Path(tmp)):
            errs = check(real)
            ok = not errs
            print(f"{'PASS' if ok else 'FAIL'} {name}: real output accepted" + ("" if ok else f" ({errs})"))
            failures += not ok
            for label, bad in corrupted:
                errs = check(bad)
                print(f"{'PASS' if errs else 'FAIL'} {name}: {label} rejected" + (f" ({errs[0]})" if errs else ""))
                failures += not errs
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
