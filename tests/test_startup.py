"""The library and the CLI import numpy alone: scipy serves only the test
oracles, and importing it would dominate the start-up of every CLI run."""

import json
import os
import subprocess
import sys
from pathlib import Path

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
