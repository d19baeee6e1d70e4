import json

import numpy as np
import pytest

from opsinkhorn import channels, serialization
from opsinkhorn.errors import ParseError


class TestFloatFormatting:
    def test_seventeen_digits_round_trip(self):
        values = [1.0 / 3.0, np.pi, 1e-300, -2.5e17, 0.1]
        for v in values:
            assert float(serialization.format_float(v)) == v

    def test_csv_line(self):
        assert serialization.csv_line(3, "x", 0.5) == "3,x,0.5"


class TestMatrixFiles:
    def test_choi_round_trip_is_exact(self, tmp_path):
        choi = channels.random_choi(2, 3, np.random.default_rng(0))
        path = tmp_path / "c.json"
        serialization.save_choi(path, choi)
        loaded = serialization.load_choi(path)
        assert loaded.n == 2 and loaded.m == 3
        np.testing.assert_array_equal(loaded.matrix, choi.matrix)

    def test_save_load_save_is_byte_stable(self, tmp_path):
        choi = channels.random_choi(2, 2, np.random.default_rng(1))
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        serialization.save_choi(first, choi)
        serialization.save_choi(second, serialization.load_choi(first))
        assert first.read_bytes() == second.read_bytes()

    def test_matrix_kind_accepts_rectangular(self, tmp_path):
        a = np.arange(6.0).reshape(2, 3) + 1.0
        path = tmp_path / "m.json"
        serialization.save_matrix(path, "matrix", a.astype(complex))
        kind, loaded, n, m = serialization.load_matrix(path)
        assert kind == "matrix" and n is None and m is None
        np.testing.assert_array_equal(loaded, a.astype(complex))

    def test_missing_im_defaults_to_zero(self, tmp_path):
        path = tmp_path / "r.json"
        path.write_text(json.dumps({"kind": "matrix", "re": [[1.0, 2.0]]}))
        _, loaded, _, _ = serialization.load_matrix(path)
        np.testing.assert_array_equal(loaded, np.array([[1.0 + 0j, 2.0 + 0j]]))

    def test_rejects_non_hermitian_density(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps({"kind": "density", "re": [[1.0, 1.0], [0.0, 0.0]], "im": [[0.0, 0.0], [0.0, 0.0]]})
        )
        with pytest.raises(ParseError, match="Hermitian"):
            serialization.load_matrix(path)

    def test_rejects_unknown_kind(self, tmp_path):
        path = tmp_path / "k.json"
        path.write_text(json.dumps({"kind": "superop", "re": [[1.0]]}))
        with pytest.raises(ParseError):
            serialization.load_matrix(path)

    def test_rejects_inconsistent_choi_dims(self, tmp_path):
        path = tmp_path / "d.json"
        payload = {"kind": "choi", "n": 2, "m": 2, "re": np.eye(3).tolist(), "im": np.zeros((3, 3)).tolist()}
        path.write_text(json.dumps(payload))
        with pytest.raises(ParseError, match="inconsistent"):
            serialization.load_matrix(path)

    @pytest.mark.parametrize("value", [2.7, "2", True, 0, -1, None, "missing"])
    @pytest.mark.parametrize("key", ["n", "m"])
    def test_choi_dims_are_json_integers_of_at_least_one(self, tmp_path, key, value):
        # a 4 x 4 payload, so int() of 2.7 or "2" would give a consistent 2
        payload = {"kind": "choi", "n": 2, "m": 2, "re": (np.eye(4) / 4).tolist(), "im": np.zeros((4, 4)).tolist()}
        if value == "missing":
            del payload[key]
        else:
            payload[key] = value
        path = tmp_path / "dims.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ParseError, match=f"choi payload '{key}' must be an int of at least 1"):
            serialization.load_matrix(path)

    def test_rejects_malformed_json(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            serialization.load_matrix(path)

    def test_rejects_non_finite(self, tmp_path):
        path = tmp_path / "inf.json"
        path.write_text(json.dumps({"kind": "matrix", "re": [[1.0, float("inf")]]}))
        with pytest.raises(ParseError):
            serialization.load_matrix(path)

    def test_rejects_ragged_rows(self, tmp_path):
        path = tmp_path / "rag.json"
        path.write_text('{"kind": "matrix", "re": [[1.0, 2.0], [3.0]]}')
        with pytest.raises(ParseError):
            serialization.load_matrix(path)
