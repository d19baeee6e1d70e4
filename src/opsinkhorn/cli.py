"""Command-line front end.

Subcommands: ``scale`` (run one scaling), ``compare`` (solve all three
methods from one start: the sld and bkm alternations and the Burg limit),
``diffquot`` (central difference quotients of a divergence at the Sinkhorn
output, over an h grid in one call), ``capacity-scatter`` (divergence vs
capacity over random trials, solved as one operator Sinkhorn batch) and
``gen`` (write a random instance file).

``scale``, ``compare`` and ``diffquot`` share one definition of their input
and solve flags (:func:`_solve_flags`) and one input path (:func:`_input`);
``capacity-scatter`` takes the budget but no targets (capacity needs the
doubly stochastic ones), ``gen`` neither.  A run reports its end through
:func:`_status`, and every CSV table is formed by :func:`_table`.

Exit codes: 0 success, 2 parse failure (a malformed command line, an
out-of-range flag value or an unreadable payload), 3 numeric domain
violation, 4 unsupported option, 5 non-convergence.  Flag values are
range-checked by the parser, before any library call.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import divergences, scaling, serialization
from .channels import ChoiMatrix, random_choi, random_density
from .errors import (
    ConvergenceError,
    DomainError,
    InvalidInputError,
    ParseError,
    SingularityError,
    UnsupportedError,
)
from .reference import REFERENCE_M, REFERENCE_N, reference_direction, reference_rho0
from .serialization import csv_line

EXIT_PARSE = 2
EXIT_DOMAIN = 3
EXIT_UNSUPPORTED = 4
EXIT_NO_CONVERGENCE = 5

# the exit code of each error type a subcommand can raise
_EXIT_CODES = {ParseError: EXIT_PARSE, InvalidInputError: EXIT_DOMAIN, DomainError: EXIT_DOMAIN,
               SingularityError: EXIT_DOMAIN, UnsupportedError: EXIT_UNSUPPORTED, ConvergenceError: EXIT_NO_CONVERGENCE}

# h = 2^-k for k = 5..40, descending in h
_DEFAULT_H_GRID = tuple(2.0 ** (-k) for k in range(5, 41))


def _flag(convert, ok, rule: str):
    """An argparse ``type=`` that converts a flag value and checks its
    range, so a bad value is a usage error (exit 2) before any library
    call."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text!r}")
        return value
    return parse


_COUNT = _flag(int, lambda v: v >= 0, "a nonnegative integer")
_DIMENSION = _flag(int, lambda v: v >= 1, "a positive integer")
_TOLERANCE = _flag(float, lambda v: math.isfinite(v) and v >= 0, "a finite nonnegative number")


def _common_flags(parser: argparse.ArgumentParser, *, budget: bool = True) -> None:
    """``--seed``, ``--out`` and ``--real``, which every subcommand takes;
    with ``budget``, a solve's ``--tol`` and ``--max-iters``."""
    parser.add_argument("--seed", type=_COUNT, default=0, help="base RNG seed (default 0)")
    parser.add_argument("--out", type=str, default=None, help="output file or directory")
    parser.add_argument("--real", action="store_true",
                        help="draw real instead of complex Gaussian instances")
    if budget:
        parser.add_argument("--tol", type=_TOLERANCE, default=1e-8,
                            help="stopping tolerance on the squared marginal residual (default 1e-8; 0 disables early stop)")
        parser.add_argument("--max-iters", type=_COUNT, default=200,
                            help="sweep budget (default 200)")


def _solve_flags(parser: argparse.ArgumentParser) -> None:
    """What ``scale``, ``compare`` and ``diffquot`` share: one input, the
    common flags and the marginal targets."""
    parser.add_argument("input", nargs="?", help="JSON file: a choi or density payload (scale: also a matrix)")
    parser.add_argument("--paper-rho0", action="store_true", help="use the built-in 4x4 reference input")
    parser.add_argument("--dims", type=_DIMENSION, nargs=2, metavar=("N", "M"), default=None,
                        help="block structure of a density input; with no input, of a random seeded instance")
    _common_flags(parser)
    parser.add_argument("--target-p", type=str, default=None,
                        help="JSON file with the first-marginal target (default I/m)")
    parser.add_argument("--target-q", type=str, default=None,
                        help="JSON file with the second-marginal target (default I/n)")


def _load_target(path: str | None) -> np.ndarray | None:
    if path is None:
        return None
    kind, matrix, _, _ = serialization.load_matrix(path)
    if kind == "choi":
        raise ParseError(f"marginal target {path} must be a matrix or density payload")
    return matrix


def _config(args) -> scaling.ScalingConfig:
    return scaling.ScalingConfig(
        max_iters=args.max_iters,
        tol=args.tol,
        target_p=_load_target(args.target_p),
        target_q=_load_target(args.target_q),
    )


def _check_dims(args, n: int, m: int, what: str) -> None:
    """A ``--dims`` other than the block shape ``(n, m)`` of ``what`` is a
    usage error."""
    if args.dims and tuple(args.dims) != (n, m):
        raise ParseError(f"--dims {args.dims[0]} {args.dims[1]} contradicts the block shape ({n}, {m}) of {what}")


def _check_targets(cfg: scaling.ScalingConfig, choi: ChoiMatrix) -> None:
    """A target file whose size is not its marginal's (m x m for
    ``--target-p``, n x n for ``--target-q``) contradicts the input: a
    usage error naming the flag and both shapes."""
    for flag, target, d in (("--target-p", cfg.target_p, choi.m), ("--target-q", cfg.target_q, choi.n)):
        if target is not None and np.shape(target) != (d, d):
            raise ParseError(
                f"{flag} of shape {np.shape(target)} does not fit the input of block shape "
                f"({choi.n}, {choi.m}): it must be {d} x {d}"
            )


def _input(args, cfg: scaling.ScalingConfig, matrix: bool = False) -> ChoiMatrix | np.ndarray:
    """The one input of ``scale``, ``compare`` and ``diffquot``: the file's
    choi or density payload, ``--paper-rho0``, or with neither a random
    instance of block shape ``--dims``; with ``matrix`` (``scale``), a
    matrix payload's array.  Inputs given in ways that disagree are usage
    errors: a file together with ``--paper-rho0``, a ``--dims`` that
    contradicts the payload or is given with a matrix payload, and a
    target in ``cfg`` that does not fit the Choi input."""
    if args.input is None:
        if args.paper_rho0:
            _check_dims(args, REFERENCE_N, REFERENCE_M, "the reference input")
            choi = reference_rho0()
        elif args.dims:
            n, m = args.dims
            choi = random_choi(n, m, np.random.default_rng(args.seed), real=args.real)
        else:
            raise ParseError("no input: give a file, --paper-rho0, or --dims")
    else:
        if args.paper_rho0:
            raise ParseError("give an input file or --paper-rho0, not both")
        kind, array, n, m = serialization.load_matrix(args.input)
        if kind == "matrix":
            if not matrix:
                raise ParseError("expected a choi or density payload")
            if args.dims:
                raise ParseError("--dims does not apply to a matrix payload: its shape is its own")
            return array
        if kind == "density":
            if not args.dims:
                raise ParseError("density input needs --dims N M to fix the block structure")
            n, m = args.dims
            if array.shape != (n * m, n * m):
                raise ParseError(f"--dims {n} {m} contradicts the shape {array.shape} of the density payload")
        else:
            _check_dims(args, n, m, "the choi payload")
        choi = ChoiMatrix(n=n, m=m, matrix=array)
    _check_targets(cfg, choi)
    return choi


def _status(trace: scaling.ScalingTrace) -> dict:
    """How a run ended: whether it converged, its sweeps and its last
    residual."""
    return {"converged": trace.converged, "sweeps": trace.sweeps, "residual": trace.residuals[-1]}


def _table(header: list[str], rows) -> str:
    """CSV text: the header line, then one :func:`csv_line` per row."""
    return "\n".join(csv_line(*row) for row in [header, *rows]) + "\n"


def cmd_scale(args) -> int:
    cfg = _config(args)
    if args.method not in scaling.METHODS:
        raise UnsupportedError(f"unknown method {args.method!r}; expected one of {scaling.METHODS}")
    given = _input(args, cfg, matrix=True)
    if isinstance(given, ChoiMatrix):
        trace = scaling.alternating_projections(args.method, given, cfg)
        payload = serialization.matrix_to_payload("choi", trace.final.matrix, trace.n, trace.m)
    else:
        if args.method != "sld":
            raise UnsupportedError("matrix payloads support the sld (Sinkhorn) method only")
        flags = [flag for flag, path in (("--target-p", args.target_p), ("--target-q", args.target_q))
                 if path is not None]
        if flags:
            raise UnsupportedError(
                f"{' and '.join(flags)} not supported for matrix payloads: "
                "classical scaling targets uniform row and column sums"
            )
        trace = scaling.matrix_sinkhorn(given, cfg)
        payload = serialization.matrix_to_payload("matrix", trace.final)
    status = _status(trace)
    try:
        status["capacity"] = scaling.capacity_from_trace(trace)
    except (UnsupportedError, ConvergenceError):
        status["capacity"] = None
    print(json.dumps({**status, "matrix": payload}, sort_keys=True))
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "final.json").write_text(json.dumps(payload, sort_keys=True) + "\n")
        (out / "residuals.csv").write_text(_table(["iter", "residual"], enumerate(map(float, trace.residuals))))
        (out / "summary.json").write_text(json.dumps(status, sort_keys=True) + "\n")
    return 0


def cmd_compare(args) -> int:
    cfg = _config(args)
    choi = _input(args, cfg)
    traces, status = {}, {}
    for method in scaling.METHODS:
        # the Burg alternation converges too slowly to reach its limit in a
        # sweep budget, so its column is the limit itself; sld and bkm keep
        # the paper's alternation
        joint = method == "burg"
        solve = scaling.joint_limit if joint else scaling.alternating_projections
        traces[method] = solve(method, choi, cfg)
        status[method] = {**_status(traces[method]), "solver": "joint" if joint else "alternation"}
    for method, s in status.items():
        if not s["converged"]:
            print(
                f"warning: {method} did not converge: {s['sweeps']} sweeps, "
                f"final residual {s['residual']:.3e}",
                file=sys.stderr,
            )
    finals = {method: trace.final.matrix for method, trace in traces.items()}
    rows = [(a, *(float(np.abs(finals[a] - finals[b]).max()) for b in scaling.METHODS)) for a in scaling.METHODS]
    table = _table(["method", *scaling.METHODS], rows)
    sys.stdout.write(table)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        for method, trace in traces.items():
            serialization.save_choi(out / f"{method}.json", trace.final)
        (out / "distances.csv").write_text(table)
        (out / "summary.json").write_text(json.dumps(status, sort_keys=True) + "\n")
    return 0


def _parse_h_grid(raw: str | None) -> tuple[float, ...]:
    if raw is None:
        return _DEFAULT_H_GRID
    try:
        grid = tuple(float(tok) for tok in raw.split(","))
    except ValueError as exc:
        raise ParseError(f"invalid --h-grid: {exc}") from exc
    if not all(math.isfinite(h) for h in grid):
        raise ParseError(f"--h-grid entries must be finite, got {raw!r}")
    if not grid or any(h <= 0 for h in grid) or any(a <= b for a, b in zip(grid, grid[1:])):
        raise ParseError("--h-grid must be positive and strictly descending")
    return grid


def _check_tags(tags: tuple[str, ...]) -> None:
    """Every tag names a divergence this package computes."""
    for tag in tags:
        if tag == "measured":
            raise UnsupportedError("measured relative entropy is not supported")
        if tag not in divergences.DIVERGENCES:
            raise UnsupportedError(f"unknown divergence tag {tag!r}")


def cmd_diffquot(args) -> int:
    cfg = _config(args)
    choi = _input(args, cfg)
    _check_tags((args.tag,))
    if args.direction is not None:
        kind, direction, _, _ = serialization.load_matrix(args.direction)
        if kind == "choi":
            raise ParseError("perturbation direction must be a matrix payload")
    else:
        if choi.dim != REFERENCE_N * REFERENCE_M:
            raise InvalidInputError(
                "built-in perturbation direction is 4 x 4; pass --direction for other sizes"
            )
        direction = reference_direction()
    grid = _parse_h_grid(args.h_grid)
    trace = scaling.operator_sinkhorn(choi, cfg)
    # an h whose probe leaves the positive cone gives a nan row; any other
    # domain error is the input's and exits 3
    deltas = divergences.central_difference_quotients(
        args.tag, trace.final.matrix, choi.matrix, direction, grid, n=choi.n, m=choi.m
    )
    table = _table(["log10_h", "delta"], [(float(np.log10(h)), float(delta)) for h, delta in zip(grid, deltas)])
    sys.stdout.write(table)
    if args.out:
        Path(args.out).write_text(table)
    return 0


def _scatter_instance(n: int, rng: np.random.Generator, args) -> ChoiMatrix:
    if args.diagonal:
        a = rng.uniform(0.05, 1.0, size=(n, n))
        a /= a.sum()
        # the diagonal Choi matrix of a: entry (j n + i) is a[i, j]
        return ChoiMatrix(n=n, m=n, matrix=np.diag(a.T.ravel().astype(complex)))
    return random_choi(n, n, rng, real=args.real)


def cmd_capacity_scatter(args) -> int:
    if len(args.dims) > 2:
        raise ParseError(f"--dims takes one dimension (m = n), got {len(args.dims)} values")
    # capacity is defined for the doubly stochastic targets alone
    cfg = scaling.ScalingConfig(max_iters=args.max_iters, tol=args.tol)
    n = args.dims[0]
    if len(args.dims) > 1 and args.dims[1] != n:
        raise UnsupportedError("capacity requires m = n; pass a single dimension")
    tags = tuple(args.tags.split(","))
    _check_tags(tags)
    if "kl" in tags and not args.diagonal:
        raise UnsupportedError("the classical kl tag needs the --diagonal ensemble")
    chois = [_scatter_instance(n, np.random.default_rng(args.seed + trial), args) for trial in range(args.trials)]
    traces = scaling.operator_sinkhorn_batch(chois, cfg)
    # each tag once over the stack of converged trials: finals against inputs
    done = [trial for trial, trace in enumerate(traces) if trace.converged]
    divergences_of: dict[int, tuple] = {}
    if done:
        finals = np.stack([traces[trial].final.matrix for trial in done])
        starts = np.stack([chois[trial].matrix for trial in done])
        columns = [
            [divergences.divergence("kl", np.diag(f).real, np.diag(s).real) for f, s in zip(finals, starts)]
            if tag == "kl" else divergences.divergence(tag, finals, starts)
            for tag in tags
        ]
        divergences_of = dict(zip(done, zip(*columns)))
    rows = [
        (trial, 1, *map(float, divergences_of[trial]), -float(np.log(scaling.capacity_from_trace(trace))))
        if trace.converged else (trial, 0, *[float("nan")] * (len(tags) + 1))
        for trial, trace in enumerate(traces)
    ]
    table = _table(["trial", "converged", *(f"D_{tag}" for tag in tags), "neg_log_capacity"], rows)
    sys.stdout.write(table)
    # each tag's mean gap over its columns (two, if it is given twice), trial by trial
    kept = [row for row in rows if row[1]]
    summary = {
        f"mean_gap_{tag}": float(np.mean([abs(v - row[-1]) for row in kept for t, v in zip(tags, row[2:]) if t == tag]))
        if kept else None
        for tag in tags
    }
    print(json.dumps(summary, sort_keys=True), file=sys.stderr)
    if args.out:
        Path(args.out).write_text(table)
    return 0


def cmd_gen(args) -> int:
    rng = np.random.default_rng(args.seed)
    n, m = args.dims
    if args.kind == "choi":
        payload = serialization.matrix_to_payload(
            "choi", random_choi(n, m, rng, real=args.real).matrix, n, m
        )
    elif args.kind == "density":
        payload = serialization.matrix_to_payload("density", random_density(n * m, rng, real=args.real))
    elif args.kind == "matrix":
        a = rng.uniform(0.05, 1.0, size=(n, m))
        payload = serialization.matrix_to_payload("matrix", (a / a.sum()).astype(complex))
    else:
        raise UnsupportedError(f"unknown kind {args.kind!r}")
    text = json.dumps(payload, sort_keys=True) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="opsinkhorn",
        description="Matrix and operator Sinkhorn scaling experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    scale = sub.add_parser("scale", help="run one scaling / alternating projection")
    _solve_flags(scale)
    scale.add_argument("--method", default="sld", help="sld, bkm or burg (default sld)")
    scale.set_defaults(func=cmd_scale)

    compare = sub.add_parser("compare", help="run sld, bkm and burg from one start (burg: its joint limit)")
    _solve_flags(compare)
    compare.set_defaults(func=cmd_compare)

    diffquot = sub.add_parser("diffquot", help="central difference quotient at the Sinkhorn output")
    _solve_flags(diffquot)
    diffquot.add_argument("--tag", default="bs", help="divergence tag (default bs)")
    diffquot.add_argument("--direction", default=None,
                          help="JSON matrix file with the perturbation direction (default diag(1,-1,-1,1))")
    diffquot.add_argument("--h-grid", default=None, help="comma-separated descending step sizes")
    diffquot.set_defaults(func=cmd_diffquot)

    scatter = sub.add_parser("capacity-scatter", help="divergences vs capacity on random instances")
    scatter.add_argument("--dims", type=_DIMENSION, nargs="+", default=(2,), metavar="N",
                         help="system dimension (m = n, default 2)")
    scatter.add_argument("--trials", type=_COUNT, default=30, help="number of random instances (default 30)")
    scatter.add_argument("--tags", default="umegaki",
                         help="comma-separated divergence tags (default umegaki)")
    scatter.add_argument("--diagonal", action="store_true",
                         help="draw diagonal (classical matrix scaling) instances")
    _common_flags(scatter)
    scatter.set_defaults(func=cmd_capacity_scatter)

    gen = sub.add_parser("gen", help="write a random instance file")
    gen.add_argument("--dims", type=_DIMENSION, nargs=2, metavar=("N", "M"), default=(2, 2))
    gen.add_argument("--kind", default="choi", help="choi, density or matrix (default choi)")
    _common_flags(gen, budget=False)
    gen.set_defaults(func=cmd_gen)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use and shared by every later call: each
    ``parse_args`` fills a fresh namespace, so calls stay independent."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse has printed its usage error (2) or the help text (0)
        return exc.code
    try:
        return args.func(args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
