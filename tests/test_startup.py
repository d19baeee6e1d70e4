"""What importing the package gives.  The library and the CLI import numpy
alone: scipy serves only the test oracles, and importing it would dominate
the start-up of every CLI run.  Every exported name resolves: the
benchmark's tracer looks up each name of each module's ``__all__``."""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import opsinkhorn

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = """
import contextlib, io, json, sys
import opsinkhorn
import opsinkhorn.cli as cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["scale", "--paper-rho0"])
print(json.dumps({"code": code, "scipy": sorted(k for k in sys.modules if k == "scipy" or k.startswith("scipy."))}))
"""


def test_library_and_cli_run_without_scipy():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, timeout=120, check=True
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result == {"code": 0, "scipy": []}


def test_every_exported_name_resolves():
    # importing __main__ runs the CLI
    names = [info.name for info in pkgutil.iter_modules(opsinkhorn.__path__) if info.name != "__main__"]
    modules = [opsinkhorn] + [importlib.import_module(f"opsinkhorn.{name}") for name in names]
    for module in modules:
        exported = getattr(module, "__all__", [])
        assert len(set(exported)) == len(exported), module.__name__
        missing = [name for name in exported if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ names missing attributes: {missing}"
