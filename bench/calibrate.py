"""Machine-speed calibration.

The machine this benchmark was tuned on shares its cores with other work,
and its speed drifts by 20-40% over tens of seconds.  Raw wall times of ten
runs spread by more than any useful bound (see README), so every run also
times a fixed calibration kernel, written here with numpy alone, right
before each operation.  A kernel mirrors the kind of work its workload does
(matrix sizes, the share of interpreter work and of LAPACK work), so a slow
spell slows kernel and program alike.  An operation's time is rescaled by
``nominal / c``, where c is the median kernel time over the nine operations
around it and ``nominal`` the workload's constant in ``KERNELS``; the result
reads as milliseconds on this machine at its quiet speed.

Set-up time is mostly imports (scipy alone takes about 0.4 s), which the
kernel does not mirror.  So each set-up process is paired with a reference
process started right before it, which imports the same third-party
modules and runs the kernel for a fixed count (``reference``), but never
imports the program.  A set-up time s is rescaled by ``nominal / r``, where
r is its reference process's time and ``nominal`` the workload's constant
in ``REFERENCE_NOMINAL_S``.
"""

from __future__ import annotations

import json
import statistics
import time
from dataclasses import dataclass

import numpy as np


def _hermitian(d: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return g @ g.conj().T / d + np.eye(d)


@dataclass(frozen=True)
class _Record:
    value: float
    key: tuple

    def __post_init__(self):
        if not self.value >= 0:
            raise ValueError("negative record")


class Kernel:
    """A fixed slice of the kinds of work the program does: for each
    Hermitian size in ``sizes``, the spectral, inversion, Kronecker and
    partial-trace calls and the validation idioms of ``linalg``; then
    validated dataclass records, float formatting and JSON; and, when
    ``big`` is set, a congruence-sized product and ``eigvalsh``."""

    def __init__(self, sizes: tuple[int, ...], reps: int, records: int, big: int = 0):
        rng = np.random.default_rng(0)
        self.mats = [_hermitian(d, rng) for d in sizes]
        self.reps = reps
        self.records = records
        self.big = _hermitian(big, rng) if big else None

    def _linalg(self) -> None:
        for a in self.mats:
            d = a.shape[0]
            w, v = np.linalg.eigh(a)
            np.linalg.eigvalsh(a)
            np.linalg.inv(a)
            np.linalg.solve(a, np.eye(d))
            blocks = np.kron(np.eye(2), a).reshape(2, d, 2, d)
            np.einsum("iaib->ab", blocks)
            np.trace(blocks, axis1=1, axis2=3)
            f = (v * np.log(w)) @ v.conj().T
            f = (f + f.conj().T) / 2
            np.linalg.norm(f)
            np.abs(f - f.conj().T).max()
            np.all(np.isfinite(f))
            try:
                if w[0] <= 0:
                    raise ValueError("not positive definite")
            except ValueError:
                pass

    def __call__(self) -> float:
        start = time.perf_counter()
        for _ in range(self.reps):
            self._linalg()
        recs = [_Record(float(i), (i, "k")) for i in range(self.records)]
        text = ",".join(f"{r.value:.17g}" for r in recs)
        json.loads(json.dumps({"re": [[r.value for r in recs[:40]]] * 8, "csv": text}))
        if self.big is not None:
            f = self.big
            scaled = f @ self.big @ f
            np.linalg.eigvalsh((scaled + scaled.conj().T) / 2)
        return time.perf_counter() - start


# kernel per workload, and its median time on the reference machine when idle
KERNELS = {
    "sld-large": (lambda: Kernel((12, 16), reps=3, records=800, big=192), 8e-3),
    "dual-small": (lambda: Kernel((6, 9, 16), reps=4, records=800), 2.6e-3),
    "paper-experiments": (lambda: Kernel((2, 4, 6), reps=6, records=800), 2.5e-3),
}


def kernel(workload: str):
    make, nominal = KERNELS[workload]
    return make(), nominal


# the reference process for set-up time: seconds of kernel work after the
# imports, roughly what the workload's set-up does past its imports, and the
# reference process's median time on the reference machine when idle
REFERENCE_WORK_S = {"sld-large": 0.3, "dual-small": 0.1, "paper-experiments": 0.1}
REFERENCE_NOMINAL_S = {"sld-large": 0.75, "dual-small": 0.5, "paper-experiments": 0.5}


def reference(workload: str) -> None:
    """Stand-in for a set-up process without the program: import the
    third-party modules the program imports, then run the workload's kernel
    a fixed number of times."""
    import scipy.linalg  # noqa: F401
    import scipy.optimize  # noqa: F401

    run, nominal = kernel(workload)
    for _ in range(round(REFERENCE_WORK_S[workload] / nominal)):
        run()


HALF_WIDTH = 4


def local_medians(samples: list[float]) -> list[float]:
    """Median of each sample's neighbourhood of 2 * HALF_WIDTH + 1 samples."""
    n = len(samples)
    return [
        statistics.median(samples[max(0, i - HALF_WIDTH) : min(n, i + HALF_WIDTH + 1)])
        for i in range(n)
    ]
