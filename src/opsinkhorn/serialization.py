"""Matrix JSON files and CSV helpers.

The on-disk matrix format is one JSON object:

    {"kind": "choi", "n": 2, "m": 2, "re": [[...]], "im": [[...]]}

``kind`` is one of ``matrix``, ``density`` or ``choi``; ``re`` and ``im`` are
row-major real and imaginary parts.  ``n``/``m`` are required for ``choi``,
as JSON integers of at least 1 (not 2.7, "2" or true), and ignored
otherwise.  ``density`` and ``choi`` payloads must be Hermitian within
the policy's ``hermitian_atol`` (1e-12 by default), the tolerance the
package's own checks apply.  Writing uses shortest round-trip float
representation and sorted keys so that load/save cycles are byte-stable.

CSV floats are printed with 17 significant digits for lossless round trips.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .channels import ChoiMatrix, _instance, _integer
from .errors import InvalidInputError, ParseError
from .policy import get_policy

__all__ = [
    "KINDS",
    "format_float",
    "csv_line",
    "matrix_to_payload",
    "payload_to_matrix",
    "save_matrix",
    "load_matrix",
    "save_choi",
    "load_choi",
]

KINDS = ("matrix", "density", "choi")

def format_float(x: float) -> str:
    """17-significant-digit decimal form (lossless for binary64)."""
    return f"{x:.17g}"


def csv_line(*fields) -> str:
    """One CSV row; floats are rendered losslessly, other values via str."""
    return ",".join(format_float(f) if isinstance(f, float) else str(f) for f in fields)


def matrix_to_payload(kind: str, matrix: np.ndarray, n: int | None = None, m: int | None = None) -> dict:
    if kind not in KINDS:
        raise ParseError(f"unknown kind {kind!r}; expected one of {KINDS}")
    matrix = np.asarray(matrix, dtype=complex)
    payload: dict = {"kind": kind}
    if kind == "choi":
        if n is None or m is None:
            raise ParseError("choi payloads need block dimensions n and m")
        payload["n"] = int(n)
        payload["m"] = int(m)
    payload["re"] = matrix.real.tolist()
    payload["im"] = matrix.imag.tolist()
    return payload


def payload_to_matrix(payload: dict) -> tuple[str, np.ndarray, int | None, int | None]:
    """Parse a payload dict, returning (kind, matrix, n, m)."""
    if not isinstance(payload, dict):
        raise ParseError("matrix file must contain a JSON object")
    kind = payload.get("kind")
    if kind not in KINDS:
        raise ParseError(f"unknown kind {kind!r}; expected one of {KINDS}")
    try:
        re = np.asarray(payload["re"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"invalid 're' field: {exc}") from exc
    if re.ndim != 2:
        raise ParseError(f"'re' must be a 2-d array, got ndim={re.ndim}")
    if "im" in payload:
        try:
            im = np.asarray(payload["im"], dtype=float)
        except (TypeError, ValueError) as exc:
            raise ParseError(f"invalid 'im' field: {exc}") from exc
        if im.shape != re.shape:
            raise ParseError(f"'im' shape {im.shape} differs from 're' shape {re.shape}")
    else:
        im = np.zeros_like(re)
    matrix = re + 1j * im
    if not np.all(np.isfinite(re)) or not np.all(np.isfinite(im)):
        raise ParseError("matrix file contains non-finite entries")
    n = m = None
    if kind == "choi":
        try:
            n, m = (_integer(payload.get(key), f"choi payload '{key}'", 1) for key in ("n", "m"))
        except InvalidInputError as exc:
            raise ParseError(str(exc)) from exc
        if matrix.shape != (n * m, n * m):
            raise ParseError(f"choi payload shape {matrix.shape} inconsistent with n={n}, m={m}")
    if kind in ("density", "choi"):
        if matrix.shape[0] != matrix.shape[1]:
            raise ParseError(f"{kind} payload must be square, got {matrix.shape}")
        gap, tol = np.abs(matrix - matrix.conj().T).max(), get_policy().hermitian_atol
        if gap > tol:
            raise ParseError(f"{kind} payload is not Hermitian: max deviation {gap:.3e} > {tol:.1e}")
    return kind, matrix, n, m


def save_matrix(path: str | Path, kind: str, matrix: np.ndarray, n: int | None = None, m: int | None = None) -> None:
    payload = matrix_to_payload(kind, matrix, n, m)
    Path(path).write_text(json.dumps(payload, sort_keys=True) + "\n")


def load_matrix(path: str | Path) -> tuple[str, np.ndarray, int | None, int | None]:
    try:
        payload = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read matrix file {path}: {exc}") from exc
    return payload_to_matrix(payload)


def save_choi(path: str | Path, choi: ChoiMatrix) -> None:
    _instance(choi, ChoiMatrix, "choi")
    save_matrix(path, "choi", choi.matrix, choi.n, choi.m)


def load_choi(path: str | Path) -> ChoiMatrix:
    kind, matrix, n, m = load_matrix(path)
    if kind != "choi":
        raise ParseError(f"expected a choi payload, found kind {kind!r}")
    return ChoiMatrix(n=n, m=m, matrix=matrix)
