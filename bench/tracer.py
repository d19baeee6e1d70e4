"""Layer tracing from outside the program.

``Tracer.install()`` replaces the public functions of the layer modules with
wrappers that record a span per call: name, start, end, parent span and
operation id.  It rebinds every module attribute of the ``opsinkhorn``
package that refers to a wrapped function, which covers names a module
imports from another (``scaling.scale_choi``, ``cli.csv_line``).  It also
wraps ``ChoiMatrix.__post_init__`` (entry validation) and counts calls to
``numpy.linalg.eigh``, ``eigvalsh``, ``solve`` and ``numpy.kron`` made while
program code runs.  ``uninstall()`` restores every original.

Spans are kept in flat arrays and written out by ``save()``.  Self times are
accumulated as spans close: a span's duration minus the durations of its
direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("linalg", "channels", "scaling", "geometry", "divergences", "cli", "serialization")
DRIVERS = ("scaling.operator_sinkhorn", "scaling.alternating_projections", "scaling.matrix_sinkhorn")
PROJECTIONS = ("scaling.bkm_e_projection", "scaling.burg_e_projection")


class Aggregate:
    """Per-phase sums: self and inclusive seconds and calls per span name,
    counters, sweeps per method."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.sweeps = Counter()
        self.iterate_mb = 0.0


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[list] = []  # [span index, name, start, child seconds]
        self.active = Counter()
        self.phases = {"setup": Aggregate(), "ops": Aggregate()}
        self.agg = self.phases["setup"]
        self.op_id = -1
        self.dims = (0, 0)
        self._patches: list[tuple[object, str, object]] = []
        self._wrappers: dict[object, object] = {}

    # ------------------------------------------------------------ spans

    def begin_op(self, op_id: int, dims: tuple[int, int]) -> None:
        self.agg = self.phases["ops"]
        self.op_id = op_id
        self.dims = dims

    def _enter(self, name: str) -> None:
        nid = self.name_ids.get(name)
        if nid is None:
            nid = self.name_ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self.stack[-1][0] if self.stack else -1)
        self.span_op.append(self.op_id)
        self.span_end.append(0.0)
        self.active[name] += 1
        start = time.perf_counter()
        self.span_start.append(start)
        self.stack.append([index, name, start, 0.0])

    def _exit(self, exc: BaseException | None) -> None:
        end = time.perf_counter()
        index, name, start, child = self.stack.pop()
        self.span_end[index] = end
        duration = end - start
        if self.stack:
            self.stack[-1][3] += duration
        agg = self.agg
        agg.self_s[name] += duration - child
        if self.active[name] == 1:
            agg.incl_s[name] += duration
        self.active[name] -= 1
        agg.calls[name] += 1
        if exc is not None and name in PROJECTIONS and type(exc).__name__ == "ConvergenceError":
            agg.counts["inner_failures"] += 1

    def _hook(self, name: str, args, result) -> None:
        agg = self.agg
        if name in DRIVERS:
            method = getattr(result, "method", "classical")
            # alternating_projections("sld") delegates to operator_sinkhorn,
            # whose own span already counted the sweeps
            if not (name == "scaling.alternating_projections" and method == "sld"):
                agg.sweeps[method] += result.sweeps
            held = sum(x.nbytes for x in result.iterates) / 2**20
            agg.iterate_mb = max(agg.iterate_mb, held)
        elif name == "channels.scale_choi":
            # two dense complex (mn)^3 products, 8 real flops per multiply-add
            agg.counts["scale_choi_flop"] += 16 * args[0].dim ** 3

    def _wrap(self, name: str, fn):
        hooked = name in DRIVERS or name == "channels.scale_choi"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._exit(exc)
                raise
            self._exit(None)
            if hooked:
                self._hook(name, args, result)
            return result

        return wrapper

    def _counting(self, key: str, fn):
        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            if self.stack:
                counts = self.agg.counts
                if key == "eig":
                    size = np.shape(a)[-1]
                    n, m = self.dims
                    if size == n * m:
                        counts["eig_big"] += 1
                    elif size in (n, m):
                        counts["eig_small"] += 1
                    if self.active["scaling.bkm_e_projection"]:
                        counts["bkm_eig"] += 1
                elif self.active["scaling.burg_e_projection"]:
                    counts[f"burg_{key}"] += 1
            return fn(a, *args, **kwargs)

        return wrapper

    # ------------------------------------------------------------ patching

    def install(self) -> None:
        if not self._wrappers:
            for layer in LAYERS:
                module = importlib.import_module(f"opsinkhorn.{layer}")
                public = getattr(module, "__all__", [k for k in vars(module) if not k.startswith("_")])
                for attr in public:
                    obj = getattr(module, attr)
                    if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                        self._wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
        for name, module in list(sys.modules.items()):
            if name == "opsinkhorn" or name.startswith("opsinkhorn."):
                for attr, value in list(vars(module).items()):
                    if inspect.isfunction(value) and value in self._wrappers:
                        self._patch(module, attr, self._wrappers[value])
        from opsinkhorn.channels import ChoiMatrix

        self._patch(ChoiMatrix, "__post_init__", self._wrap("channels.ChoiMatrix", ChoiMatrix.__post_init__))
        for attr in ("eigh", "eigvalsh"):
            self._patch(np.linalg, attr, self._counting("eig", getattr(np.linalg, attr)))
        self._patch(np.linalg, "solve", self._counting("solve", np.linalg.solve))
        self._patch(np, "kron", self._counting("kron", np.kron))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------ results

    def metrics(self, n_ops: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics over the traced operations; times and counts
        are per operation unless the name says otherwise."""
        a = self.phases["ops"]
        per = 1.0 / max(n_ops, 1)

        def ms(seconds: float) -> tuple[float, str]:
            return 1e3 * seconds * per, "ms"

        def self_sum(prefix: str) -> float:
            return sum(v for k, v in a.self_s.items() if k.startswith(prefix))

        def ratio(count: float, base: float) -> float:
            return count / base if base else 0.0

        sweeps = sum(a.sweeps.values())
        bkm_calls = a.calls["scaling.bkm_e_projection"]
        burg_calls = a.calls["scaling.burg_e_projection"]
        basis = "geometry.constraint_tangent_basis"
        return {
            "linalg.eig_big_per_sweep": (ratio(a.counts["eig_big"], sweeps), "count"),
            "linalg.eig_small_per_op": (a.counts["eig_small"] * per, "count"),
            "linalg.geometric_mean_ms": ms(a.self_s["linalg.geometric_mean"]),
            "linalg.matrix_function_ms": ms(a.self_s["linalg.matrix_function"]),
            "linalg.partial_trace_ms": ms(a.self_s["linalg.partial_trace"]),
            "channels.choi_validate_ms": ms(a.self_s["channels.ChoiMatrix"]),
            "channels.scale_choi_ms": ms(a.self_s["channels.scale_choi"]),
            "channels.scale_choi_gflop": (a.counts["scale_choi_flop"] * per / 1e9, "GFLOP"),
            "channels.iterate_mb": (a.iterate_mb, "MB"),
            "scaling.sweeps_per_op.sld": (a.sweeps["sld"] * per, "count"),
            "scaling.sweeps_per_op.bkm": (a.sweeps["bkm"] * per, "count"),
            "scaling.sweeps_per_op.burg": (a.sweeps["burg"] * per, "count"),
            "scaling.sld_step_ms": ms(a.incl_s["scaling.operator_sinkhorn_step"]),
            "scaling.bkm_projection_ms": ms(a.incl_s["scaling.bkm_e_projection"]),
            "scaling.bkm_eig_per_projection": (ratio(a.counts["bkm_eig"], bkm_calls), "count"),
            "scaling.burg_projection_ms": ms(a.incl_s["scaling.burg_e_projection"]),
            "scaling.burg_newton_per_projection": (ratio(a.counts["burg_solve"], burg_calls), "count"),
            "scaling.burg_kron_per_projection": (ratio(a.counts["burg_kron"], burg_calls), "count"),
            "scaling.loop_self_ms": ms(
                a.self_s["scaling.operator_sinkhorn"] + a.self_s["scaling.alternating_projections"]
            ),
            "scaling.inner_failures": (float(a.counts["inner_failures"]), "count"),
            # the basis is cached after its first use, which falls in set-up:
            # total over the whole process, not per operation
            "geometry.tangent_basis_ms": (
                1e3 * (self.phases["setup"].incl_s[basis] + a.incl_s[basis]),
                "ms",
            ),
            "geometry.orthogonality_residual_ms": ms(a.incl_s["geometry.orthogonality_residual"]),
            "divergences.divergence_ms": ms(a.incl_s["divergences.divergence"]),
            "divergences.divergence_calls": (a.calls["divergences.divergence"] * per, "count"),
            "divergences.cdq_ms": ms(a.self_s["divergences.central_difference_quotient"]),
            "cli.command_self_ms": ms(self_sum("cli.")),
            "serialization.io_ms": ms(self_sum("serialization.")),
        }

    def save(self, path) -> None:
        n = len(self.span_start)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32, count=n),
            parent=np.frombuffer(self.span_parent, dtype=np.int32, count=n),
            op=np.frombuffer(self.span_op, dtype=np.int32, count=n),
            start=np.frombuffer(self.span_start, dtype=np.float64, count=n),
            end=np.frombuffer(self.span_end, dtype=np.float64, count=n),
        )
