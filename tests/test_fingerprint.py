import importlib.util
from pathlib import Path

import numpy as np
import pytest

from opsinkhorn import geometry, scaling
from opsinkhorn.errors import SingularityError

_SPEC = importlib.util.spec_from_file_location(
    "fingerprint", Path(__file__).resolve().parents[1] / "tools" / "fingerprint.py"
)
fingerprint = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(fingerprint)


def test_digests_are_stable_and_a_moved_output_changes_its_key_alone(monkeypatch):
    digests = fingerprint.fingerprint(shapes=((2, 3),), seeds=(0,))
    assert tuple(digests) == fingerprint.KEYS + tuple(f"work {family}" for family in fingerprint.FAMILIES)
    assert all(len(digests[key]) == 16 and int(digests[key], 16) >= 0 for key in fingerprint.KEYS)
    assert fingerprint.fingerprint(shapes=((2, 3),), seeds=(0,)) == digests

    dlog = geometry.dlog_frechet
    monkeypatch.setattr(geometry, "dlog_frechet", lambda rho, d: dlog(rho, d) * (1.0 + np.finfo(float).eps))
    moved = fingerprint.fingerprint(shapes=((2, 3),), seeds=(0,))
    assert [key for key in digests if moved[key] != digests[key]] == ["dlog"]


def test_a_rebuilt_iterate_changes_the_iterates_key_alone(monkeypatch):
    digests = fingerprint.fingerprint(shapes=((2, 3),), seeds=(0,))
    getitem = scaling.SinkhornIterates.__getitem__

    def perturbed(self, index):
        # entry 1 of a run of more than one step is rebuilt on read
        out = getitem(self, index)
        return out * (1.0 + np.finfo(float).eps) if index == 1 and len(self) > 2 else out

    monkeypatch.setattr(scaling.SinkhornIterates, "__getitem__", perturbed)
    moved = fingerprint.fingerprint(shapes=((2, 3),), seeds=(0,))
    assert [key for key in digests if moved[key] != digests[key]] == ["iterates"]


@pytest.mark.parametrize(
    "general_only, keys", [(False, ["sld-batch", "sld-batch-general"]), (True, ["sld-batch-general"])]
)
def test_the_stack_changes_the_batch_keys_alone(general_only, keys, monkeypatch):
    # two seeds make batches of two, the one path that runs the stacked
    # layout; a lone run goes through the same loop on 2-D arrays and is
    # left as it is
    digests = fingerprint.fingerprint(shapes=((2, 3),), seeds=(0, 1))
    loop = scaling._sinkhorn

    def nudged(chois, cfg):
        traces = loop(chois, cfg)
        if len(chois) > 1 and not (general_only and cfg.target_p is None):
            traces[0].capacity_log += 1.0
        return traces

    monkeypatch.setattr(scaling, "_sinkhorn", nudged)
    moved = fingerprint.fingerprint(shapes=((2, 3),), seeds=(0, 1))
    assert [key for key in digests if moved[key] != digests[key]] == keys


def test_a_failing_batch_changes_its_key_alone(monkeypatch):
    digests = fingerprint.fingerprint(shapes=((2, 3),), seeds=(0, 1))
    batch = scaling.operator_sinkhorn_batch

    def renamed(chois, *args):
        try:
            return batch(chois, *args)
        except SingularityError as exc:
            raise SingularityError(f"{exc}, renamed") from None

    monkeypatch.setattr(scaling, "operator_sinkhorn_batch", renamed)
    moved = fingerprint.fingerprint(shapes=((2, 3),), seeds=(0, 1))
    assert [key for key in digests if moved[key] != digests[key]] == ["sld-batch-fail"]


@pytest.mark.parametrize("family", fingerprint.FAMILIES)
def test_one_more_sweep_changes_its_work_line_alone(family, monkeypatch):
    digests = fingerprint.fingerprint(shapes=((2, 3),), seeds=(0,))
    if family == "sld-batch":
        method, name = None, "operator_sinkhorn_batch"
    else:
        method, name = family.split("-")[-1], "joint_limit" if family.startswith("joint") else "alternating_projections"
    run, moved_runs = getattr(scaling, name), []

    def one_more(first, *args, **kwargs):
        # the first run of the family takes one more sweep: a batch's first
        # trial, or the first run of the method
        out = run(first, *args, **kwargs)
        if (method is None or first == method) and not moved_runs:
            trace = out[0] if method is None else out
            moved_runs.append(trace)
            trace.sweeps += 1
        return out

    monkeypatch.setattr(scaling, name, one_more)
    moved = fingerprint.fingerprint(shapes=((2, 3),), seeds=(0,))
    assert len(moved_runs) == 1
    # the family's digest hashes the sweep count too
    assert [key for key in digests if moved[key] != digests[key]] == [family, f"work {family}"]
    runs, converged, sweeps = (int(word) for word in digests[f"work {family}"].replace(",", "").split()[::2])
    assert moved[f"work {family}"] == f"{runs} runs, {converged} converged, {sweeps + 1} sweeps"
    # one seed: a batch of its uniform-target input, or a run at each target
    assert runs == (1 if method is None else 2)
