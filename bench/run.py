"""Benchmark for opsinkhorn: one workload, one client, a closed loop.

    python3 bench/run.py --workload sld-large --seed 1 --seconds 25 --trace 0

A run builds the workload's inputs from ``--seed``, makes a first call for
each entry point and shape, then repeats whole passes over the workload's
fixed list of operations until ``--seconds`` have elapsed.  Every
operation's output is checked apart from the program; an operation that
raises or fails its check counts as failed.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics of the traced
ones, with the tracing overhead.  Details and span files go to
``bench/results/``.  See bench/README.md.
"""

import os

# one BLAS thread: with two, pass times on a two-core machine spread several
# fold.  Set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import time  # noqa: E402

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import calibrate  # noqa: E402
import workloads  # noqa: E402

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
RESULTS = BENCH / "results"
SETUP_SAMPLES = 8
END_TO_END_UNITS = {"setup_s": "s", "op_ms_p50": "ms", "ops_per_s": "1/s", "peak_rss_mb": "MB"}


def import_program():
    """Import opsinkhorn from this checkout's src/, and from nowhere else."""
    package = SRC / "opsinkhorn"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: {package} not found; run from a checkout of the repository")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import opsinkhorn

    if Path(opsinkhorn.__file__).resolve().parent != package.resolve():
        sys.exit(f"error: imported opsinkhorn from {opsinkhorn.__file__}, not {package}")
    return opsinkhorn


def set_up(name: str, seed: int, workdir: Path, tracer=None):
    """Import the program, build and validate the inputs, make first calls."""
    ops = import_program()
    if tracer is not None:
        tracer.install()
    work = workloads.BUILDERS[name](ops, seed, workdir)
    for warm in work.warm:
        warm()
    if tracer is not None:
        tracer.uninstall()
    return work


def setup_seconds(name: str, seed: int) -> list[tuple[float, float]]:
    """(set-up seconds, reference seconds) of pairs of fresh processes, the
    reference process right before its set-up process."""
    def child(role: str) -> float:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed), "--child", role],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        return json.loads(done.stdout.strip().splitlines()[-1])["seconds"]

    samples = []
    for _ in range(SETUP_SAMPLES):
        reference = child("reference")
        samples.append((child("setup"), reference))
    return samples


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.notes: list[str] = []

    def note(self, msg: str) -> None:
        if len(self.notes) < 20:
            self.notes.append(msg)
            print(msg, file=sys.stderr)


def run_pass(work, tally: Tally, kernel, records: list, tracer=None) -> None:
    """One pass over the operation list.  Appends one record per operation:
    [name, seconds in the program, calibration seconds, traced, completed].
    A failed operation keeps the time it took to raise or to return."""
    for i, op in enumerate(work.ops):
        tally.attempted += 1
        record = [op.name, 0.0, kernel(), tracer is not None, False]
        records.append(record)
        if tracer is not None:
            tracer.begin_op(i, op.dims)
            tracer.install()
        start = time.perf_counter()
        try:
            out = op.call()
        except Exception as exc:  # a failed operation is counted, the run goes on
            record[1] = time.perf_counter() - start
            tally.failed += 1
            tally.note(f"{op.name}: {type(exc).__name__}: {exc}")
            continue
        finally:
            if tracer is not None:
                tracer.uninstall()
        record[1] = time.perf_counter() - start
        try:
            errs = op.check(out)
        except Exception as exc:  # malformed output fails its check
            errs = [f"check raised {type(exc).__name__}: {exc}"]
        del out
        if errs:
            tally.failed += 1
            tally.wrong += 1
            tally.note(f"{op.name}: {'; '.join(errs)}")
            continue
        record[4] = True


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", choices=("setup", "reference"), help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    RESULTS.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=RESULTS))
    try:
        if args.child:
            if args.child == "setup":
                set_up(args.workload, args.seed, workdir)
            else:
                calibrate.reference(args.workload)
            print(json.dumps({"seconds": time.perf_counter() - T0}))
            return 0
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workdir: Path) -> int:
    import_program()  # fail here, before any child process, without the program
    setup = [] if args.trace else setup_seconds(args.workload, args.seed)
    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
    work = set_up(args.workload, args.seed, workdir, tracer)
    kernel, nominal = calibrate.kernel(args.workload)

    tally = Tally()
    records: list[list] = []
    passes = 0
    deadline = time.perf_counter() + args.seconds
    while True:
        run_pass(work, tally, kernel, records)
        if tracer is not None:
            run_pass(work, tally, kernel, records, tracer)
        passes += 1
        if time.perf_counter() >= deadline:
            break

    # rescale each operation by the machine speed around it; by_op[kind]
    # maps (traced, operation) to the times in ms of its completed runs
    local = calibrate.local_medians([r[2] for r in records])
    by_op: dict[str, dict] = {"scaled": {}, "raw": {}}
    totals: dict[tuple, list] = {}  # (kind, traced) -> [completed, ms of all]
    for (name, elapsed, _, traced, completed), cal in zip(records, local):
        for kind, ms in (("scaled", 1e3 * elapsed * nominal / cal), ("raw", 1e3 * elapsed)):
            total = totals.setdefault((kind, traced), [0, 0.0])
            total[0] += completed
            total[1] += ms
            if completed:
                by_op[kind].setdefault((traced, name), []).append(ms)

    def rate(kind: str, traced: bool) -> float:
        # completed operations over the time of every timed operation,
        # failed ones included
        done, ms = totals.get((kind, traced), (0, 0.0))
        return 1e3 * done / ms if ms else 0.0

    def p50(kind: str) -> float:
        # the median over the operation list of each operation's median time
        ms = [statistics.median(v) for (t, _), v in by_op[kind].items() if not t]
        return statistics.median(ms) if ms else 0.0

    if tracer is None:
        metrics = {
            "setup_s": statistics.median(s * calibrate.REFERENCE_NOMINAL_S[args.workload] / r for s, r in setup),
            "op_ms_p50": p50("scaled"),
            "ops_per_s": rate("scaled", False),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
    else:
        layer = tracer.metrics(sum(1 for r in records if r[3] and r[4]))
        traced, untraced = rate("scaled", True), rate("scaled", False)
        layer["trace.ops_per_s"] = (traced, "1/s")
        layer["trace.untraced_ops_per_s"] = (untraced, "1/s")
        layer["trace.overhead_ratio"] = (traced / untraced if untraced else 0.0, "ratio")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
        tracer.save(RESULTS / f"spans-{args.workload}-seed{args.seed}.npz")

    result = {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    detail = dict(
        result,
        workload=args.workload,
        seed=args.seed,
        passes=passes,
        setup_samples=[{"setup_s": s, "reference_s": r} for s, r in setup],
        raw_op_ms_p50=p50("raw"),
        raw_ops_per_s=rate("raw", False),
        calibration_ms_median=1e3 * statistics.median(r[2] for r in records),
        calibration_nominal_ms=1e3 * nominal,
        op_ms_median={name: statistics.median(v) for (t, name), v in by_op["scaled"].items() if not t},
        records=records,
        notes=tally.notes,
    )
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(detail, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
