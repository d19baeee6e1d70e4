import importlib.util
from pathlib import Path

import numpy as np

from opsinkhorn import geometry, scaling

_SPEC = importlib.util.spec_from_file_location(
    "fingerprint", Path(__file__).resolve().parents[1] / "tools" / "fingerprint.py"
)
fingerprint = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(fingerprint)


def test_digests_are_stable_and_a_moved_output_changes_its_key_alone(monkeypatch):
    digests = fingerprint.fingerprint(shapes=((2, 3),), seeds=(0,))
    assert tuple(digests) == fingerprint.KEYS
    assert all(len(d) == 16 and int(d, 16) >= 0 for d in digests.values())
    assert fingerprint.fingerprint(shapes=((2, 3),), seeds=(0,)) == digests

    dlog = geometry.dlog_frechet
    monkeypatch.setattr(geometry, "dlog_frechet", lambda rho, d: dlog(rho, d) * (1.0 + np.finfo(float).eps))
    moved = fingerprint.fingerprint(shapes=((2, 3),), seeds=(0,))
    assert [key for key in fingerprint.KEYS if moved[key] != digests[key]] == ["dlog"]


def test_a_rebuilt_iterate_changes_the_iterates_key_alone(monkeypatch):
    digests = fingerprint.fingerprint(shapes=((2, 3),), seeds=(0,))
    getitem = scaling.SinkhornIterates.__getitem__

    def perturbed(self, index):
        # entry 1 of a run of more than one step is rebuilt on read
        out = getitem(self, index)
        return out * (1.0 + np.finfo(float).eps) if index == 1 and len(self) > 2 else out

    monkeypatch.setattr(scaling.SinkhornIterates, "__getitem__", perturbed)
    moved = fingerprint.fingerprint(shapes=((2, 3),), seeds=(0,))
    assert [key for key in fingerprint.KEYS if moved[key] != digests[key]] == ["iterates"]
