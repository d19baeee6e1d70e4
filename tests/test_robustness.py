"""Stress and edge-shape coverage beyond the seeded unit tests."""

import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opsinkhorn import channels, geometry, linalg, scaling, serialization
from opsinkhorn.channels import ChoiMatrix
from opsinkhorn.errors import InvalidInputError
from opsinkhorn.geometry import ConstraintSet


def ill_conditioned_choi(seed: int) -> ChoiMatrix:
    """Squaring a random state roughly squares its condition number."""
    rng = np.random.default_rng(seed)
    base = channels.random_density(4, rng)
    squared = linalg.hermitian_part(base @ base)
    return ChoiMatrix(n=2, m=2, matrix=squared / np.trace(squared).real)


class TestIllConditionedInputs:
    @pytest.mark.parametrize("seed", range(5))
    def test_projections_still_hit_constraints(self, seed):
        choi = ill_conditioned_choi(20_000 + seed)
        target = np.eye(2) / 2
        constraint = ConstraintSet("first", target)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            bkm, _ = scaling.bkm_e_projection(choi, constraint)
            burg, _ = scaling.burg_e_projection(choi, constraint)
            step, _ = scaling.operator_sinkhorn_step(choi, "first", target)
        for out in (bkm, burg, step):
            assert np.linalg.norm(out.trace_first() - target) <= 1e-7

    def test_sinkhorn_run_converges(self):
        choi = ill_conditioned_choi(31)
        trace = scaling.operator_sinkhorn(choi, scaling.ScalingConfig(max_iters=500))
        assert trace.converged


class TestEdgeShapes:
    @pytest.mark.parametrize("n,m", [(1, 1), (1, 3), (3, 1), (4, 4)])
    def test_sinkhorn_supports_degenerate_and_larger_blocks(self, n, m):
        choi = channels.random_choi(n, m, np.random.default_rng(123))
        trace = scaling.operator_sinkhorn(choi, scaling.ScalingConfig(max_iters=500, tol=1e-10))
        assert trace.converged
        assert np.linalg.norm(trace.final.trace_first() - np.eye(m) / m) <= 1e-5
        assert np.linalg.norm(trace.final.trace_second() - np.eye(n) / n) <= 1e-5

    def test_trivial_system_has_unit_capacity(self):
        choi = channels.random_choi(1, 1, np.random.default_rng(5))
        trace = scaling.operator_sinkhorn(choi)
        assert scaling.capacity_from_trace(trace) == pytest.approx(1.0)

    def test_orthogonality_certificate_at_larger_blocks(self):
        choi = channels.random_choi(4, 4, np.random.default_rng(7))
        p = np.eye(4) / 4
        step, _ = scaling.operator_sinkhorn_step(choi, "first", p)
        res = geometry.orthogonality_residual("sld", choi, step, ConstraintSet("first", p))
        assert res <= 1e-8


PLAIN = np.eye(4) / 4
GOOD = ChoiMatrix(n=2, m=2, matrix=PLAIN)
FIRST = ConstraintSet("first", np.eye(2) / 2)
TANGENT = geometry.TangentVector(np.eye(2) / 2, np.diag([1.0, -1.0]))


class TestPlainArrayWhereAValueClassBelongs:
    @pytest.mark.parametrize(
        "call, what",
        [
            (lambda: scaling.operator_sinkhorn(PLAIN), "choi0 must be a ChoiMatrix"),
            (lambda: scaling.operator_sinkhorn_batch([GOOD, PLAIN]), r"chois\[1\] must be a ChoiMatrix"),
            (lambda: scaling.operator_sinkhorn_step(PLAIN, "first", np.eye(2) / 2), "choi must be a ChoiMatrix"),
            (lambda: scaling.alternating_projections("sld", PLAIN), "choi0 must be a ChoiMatrix"),
            (lambda: scaling.alternating_projections("bkm", PLAIN), "choi0 must be a ChoiMatrix"),
            (lambda: scaling.joint_limit("burg", PLAIN), "choi0 must be a ChoiMatrix"),
            (lambda: scaling.bkm_e_projection(PLAIN, FIRST), "choi0 must be a ChoiMatrix"),
            (lambda: scaling.burg_e_projection(PLAIN, FIRST), "choi0 must be a ChoiMatrix"),
            (lambda: geometry.orthogonality_residual("sld", PLAIN, GOOD, FIRST), "rho_from must be a ChoiMatrix"),
            (lambda: geometry.orthogonality_residual("sld", GOOD, PLAIN, FIRST), "rho_to must be a ChoiMatrix"),
            (lambda: scaling.capacity_from_trace(GOOD), "trace must be a ScalingTrace, got ChoiMatrix"),
            (lambda: channels.apply_map(PLAIN, np.eye(2)), "choi must be a ChoiMatrix, got ndarray"),
            (lambda: channels.apply_dual(PLAIN, np.eye(2)), "choi must be a ChoiMatrix, got ndarray"),
            (lambda: channels.scale_choi(PLAIN, np.eye(2), np.eye(2)), "choi must be a ChoiMatrix, got ndarray"),
            (lambda: channels.choi_from_kraus([np.eye(2)]), "kraus must be a KrausMap, got list"),
            (lambda: channels.random_density(2, 0), "rng must be a Generator, got int"),
            (lambda: channels.random_choi(2, 2, None), "rng must be a Generator, got NoneType"),
            (lambda: FIRST.violation(PLAIN), "choi must be a ChoiMatrix, got ndarray"),
            (lambda: geometry.sld_e_rep(np.eye(2) / 2), "x must be a TangentVector, got ndarray"),
            (lambda: geometry.metric_inner("sld", np.eye(2) / 2, TANGENT), "x must be a TangentVector, got ndarray"),
            (lambda: geometry.metric_inner("sld", TANGENT, np.eye(2) / 2), "y must be a TangentVector, got ndarray"),
            (lambda: scaling.bkm_e_projection(GOOD, np.eye(2) / 2), "constraint must be a ConstraintSet, got ndarray"),
            (lambda: scaling.burg_e_projection(GOOD, np.eye(2) / 2), "constraint must be a ConstraintSet, got ndarray"),
            (
                lambda: geometry.orthogonality_residual("sld", GOOD, GOOD, np.eye(2) / 2),
                "constraint must be a ConstraintSet, got ndarray",
            ),
            (lambda: serialization.save_choi(os.devnull, PLAIN), "choi must be a ChoiMatrix, got ndarray"),
            (lambda: scaling.operator_sinkhorn(GOOD, {"tol": 1e-9}), "cfg must be a ScalingConfig, got dict"),
            (lambda: scaling.operator_sinkhorn_batch([GOOD, GOOD], None), "cfg must be a ScalingConfig, got NoneType"),
            (lambda: scaling.alternating_projections("bkm", GOOD, None), "cfg must be a ScalingConfig, got NoneType"),
            (lambda: scaling.joint_limit("burg", GOOD, 5), "cfg must be a ScalingConfig, got int"),
            (lambda: scaling.matrix_sinkhorn(np.ones((2, 2)), None), "cfg must be a ScalingConfig, got NoneType"),
            (lambda: channels.KrausMap([np.eye(2)]).apply(GOOD), "x is not a numeric array.*ChoiMatrix"),
            (lambda: channels.KrausMap([np.eye(2)]).apply_dual(GOOD), "y is not a numeric array.*ChoiMatrix"),
        ],
    )
    def test_is_a_typed_error_naming_the_argument(self, call, what):
        with pytest.raises(InvalidInputError, match=what):
            call()


finite_floats = st.floats(
    allow_nan=False, allow_infinity=False, allow_subnormal=False, width=64
)


class TestSerializationProperties:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(finite_floats, min_size=4, max_size=4), st.lists(finite_floats, min_size=4, max_size=4))
    def test_matrix_payload_round_trips_bit_exactly(self, re, im):
        mat = (np.array(re) + 1j * np.array(im)).reshape(2, 2)
        payload = serialization.matrix_to_payload("matrix", mat)
        kind, loaded, _, _ = serialization.payload_to_matrix(payload)
        assert kind == "matrix"
        np.testing.assert_array_equal(loaded, mat)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_choi_file_round_trips_bit_exactly(self, tmp_path_factory, seed):
        path = tmp_path_factory.mktemp("rt") / "c.json"
        choi = channels.random_choi(2, 2, np.random.default_rng(seed))
        serialization.save_choi(path, choi)
        np.testing.assert_array_equal(serialization.load_choi(path).matrix, choi.matrix)
