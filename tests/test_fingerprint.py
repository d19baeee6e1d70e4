import importlib.util
from pathlib import Path

import numpy as np
import pytest

from opsinkhorn import geometry, scaling

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


@pytest.mark.parametrize("family", fingerprint.FAMILIES)
def test_one_more_sweep_changes_its_work_line_alone(family, monkeypatch):
    digests = fingerprint.fingerprint(shapes=((2, 3),), seeds=(0,))
    method, name = family.split("-")[-1], "joint_limit" if family.startswith("joint") else "alternating_projections"
    run, moved_runs = getattr(scaling, name), []

    def one_more(run_method, *args, **kwargs):
        # the first run of the family takes one more sweep
        trace = run(run_method, *args, **kwargs)
        if run_method == method and not moved_runs:
            moved_runs.append(trace)
            trace.sweeps += 1
        return trace

    monkeypatch.setattr(scaling, name, one_more)
    moved = fingerprint.fingerprint(shapes=((2, 3),), seeds=(0,))
    assert len(moved_runs) == 1
    # the family's digest hashes the sweep count too
    assert [key for key in digests if moved[key] != digests[key]] == [family, f"work {family}"]
    runs, converged, sweeps = (int(word) for word in digests[f"work {family}"].replace(",", "").split()[::2])
    assert moved[f"work {family}"] == f"{runs} runs, {converged} converged, {sweeps + 1} sweeps"
    assert runs == 2
