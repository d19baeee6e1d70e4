import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

# make the sibling oracles module importable from every test file
sys.path.insert(0, str(Path(__file__).parent))

# keep property tests reproducible run to run
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")


@pytest.fixture
def eig_calls(monkeypatch):
    """(name, shape) of every numpy ``eigh`` and ``eigvalsh`` call made
    while the test runs."""
    calls = []
    for attr in ("eigh", "eigvalsh"):
        original = getattr(np.linalg, attr)

        def counted(a, *args, _name=attr, _f=original, **kwargs):
            calls.append((_name, np.shape(a)))
            return _f(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, attr, counted)
    return calls
