import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from opsinkhorn import linalg

# make the sibling oracles module importable from every test file
sys.path.insert(0, str(Path(__file__).parent))

# keep property tests reproducible run to run
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")


@pytest.fixture
def eig_calls(monkeypatch):
    """(name, shape) of every ``eigh`` and ``eigvalsh`` the package makes
    while the test runs: the calls of its kernels ``linalg._eigh`` and
    ``linalg._eigvalsh``, through which every one of them goes
    (``tests/test_linalg.py::TestKernelsAreTheOnlyRoute``)."""
    calls = []
    for attr in ("eigh", "eigvalsh"):
        original = getattr(linalg, f"_{attr}")

        def counted(a, *args, _name=attr, _f=original, **kwargs):
            calls.append((_name, np.shape(a)))
            return _f(a, *args, **kwargs)

        monkeypatch.setattr(linalg, f"_{attr}", counted)
    return calls
