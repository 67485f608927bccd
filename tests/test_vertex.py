import numpy as np
import pytest

from qstar import (
    BoundaryCondition,
    ChannelSet,
    DimensionMismatchError,
    InvalidParameterError,
    SingularMatrixError,
    bc_from_dict,
    bc_from_json,
    bc_to_json,
    make_delta,
    make_st_form,
    smatrix,
    validate,
)

from conftest import random_st_coupling, rng_for


class TestMakeStForm:
    def test_three_line_filter_matrices(self):
        bc = make_st_form(3, 1, [[1.0, 3.0]])
        assert np.array_equal(bc.B[0], [1.0, 1.0, 3.0])
        assert np.array_equal(bc.B[1:], np.zeros((2, 3)))
        assert np.array_equal(bc.A[0], np.zeros(3))
        assert np.array_equal(bc.A[1], [-1.0, 1.0, 0.0])
        assert np.array_equal(bc.A[2], [-3.0, 0.0, 1.0])

    def test_four_line_gate_matrices(self):
        bc = make_st_form(4, 2, [[1.0, 1.0], [1.0, -1.0]])
        expect_b = np.array(
            [[1, 0, 1, 1], [0, 1, 1, -1], [0, 0, 0, 0], [0, 0, 0, 0]], dtype=float
        )
        expect_a = np.array(
            [[0, 0, 0, 0], [0, 0, 0, 0], [-1, -1, 1, 0], [-1, 1, 0, 1]], dtype=float
        )
        assert np.array_equal(bc.B, expect_b)
        assert np.array_equal(bc.A, expect_a)

    def test_two_line_free_like_is_momentum_independent(self):
        bc = make_st_form(2, 1, [[1.0]])
        s1 = smatrix(bc, ChannelSet(2, (0.0, 0.0), 0.04)).S
        s2 = smatrix(bc, ChannelSet(2, (0.0, 0.0), 100.0)).S
        assert np.abs(s1 - s2).max() < 1e-12
        assert np.allclose(s1, [[0, 1], [1, 0]], atol=1e-12)

    def test_dimension_checks(self):
        with pytest.raises(DimensionMismatchError):
            make_st_form(3, 3, [[1.0]])
        with pytest.raises(DimensionMismatchError):
            make_st_form(3, 1, [[1.0, 2.0, 3.0]])
        with pytest.raises(ValueError):
            make_st_form(3, 1, [[np.inf, 1.0]])

    def test_random_blocks_are_self_adjoint(self):
        rng = rng_for("st-self-adjoint")
        for _ in range(100):
            bc = random_st_coupling(rng)
            diag = validate(bc)
            assert diag.full_rank
            assert diag.hermiticity_defect < 1e-12
            assert diag.self_adjoint

    def test_complex_block_accepted(self):
        bc = make_st_form(3, 1, [[1.0 + 2.0j, 0.5 - 1.0j]])
        diag = validate(bc)
        assert diag.self_adjoint and diag.scale_invariant


class TestMakeDelta:
    def test_free_two_line_transmits_fully(self):
        bc = make_delta(2, 0.0)
        for k in (0.3, 1.0, 4.0):
            sm = smatrix(bc, ChannelSet(2, (0.0, 0.0), k**2))
            assert abs(sm.S[1, 0]) == pytest.approx(1.0, abs=1e-12)

    def test_strength_matches_chain_vertex_example(self):
        # [a(a-1)+b(b-1)]/d with a=1, b=3, d=0.1
        strength = (1 * 0 + 3 * 2) / 0.1
        assert strength == 60.0
        bc = make_delta(3, strength)
        assert np.array_equal(bc.B[2], [1.0, 1.0, 1.0])
        assert bc.A[2, 0] == -60.0

    def test_robin_end(self):
        bc = make_delta(1, 2.5)
        assert bc.A[0, 0] == -2.5
        assert bc.B[0, 0] == 1.0

    def test_delta_transmission_formula(self):
        # |S21|^2 = k^2 / (k^2 + v^2/4) for a two-line delta of strength v
        v, k = 3.0, 1.7
        sm = smatrix(make_delta(2, v), ChannelSet(2, (0.0, 0.0), k**2))
        assert abs(sm.S[1, 0]) ** 2 == pytest.approx(
            k**2 / (k**2 + v**2 / 4), abs=1e-12
        )

    def test_continuity_rows(self):
        bc = make_delta(4, 1.0)
        psi = np.array([2.0, 2.0, 2.0, 2.0])
        assert np.abs(bc.A[:3] @ psi).max() == 0.0

    def test_invalid_inputs(self):
        with pytest.raises(DimensionMismatchError, match="need n >= 1"):
            make_delta(0, 1.0)
        with pytest.raises(ValueError, match="strength must be finite"):
            make_delta(2, np.inf)


class TestBoundaryCondition:
    def test_shape_checked(self):
        with pytest.raises(DimensionMismatchError, match="A and B must be 2x2"):
            BoundaryCondition(2, np.eye(3), np.eye(2))


class TestValidate:
    def test_st_form_diagnostics(self):
        diag = validate(make_st_form(3, 1, [[1.0, 3.0]]))
        assert diag.rank == 3
        assert diag.hermiticity_defect == 0.0
        assert diag.scale_invariant

    def test_delta_not_scale_invariant(self):
        diag = validate(make_delta(3, 1.0))
        assert diag.self_adjoint
        assert not diag.scale_invariant

    def test_free_delta_is_scale_invariant(self):
        assert validate(make_delta(3, 0.0)).scale_invariant

    @pytest.mark.parametrize("bc", [
        make_st_form(3, 1, [[1.0, 2.0]]),                           # full rank
        BoundaryCondition(2, np.zeros((2, 2)), [[1.0, 0.0], [0.0, 0.0]]),  # rank 1
    ], ids=["full_rank", "rank_deficient"])
    def test_flags_are_python_bools(self, bc):
        diag = validate(bc)
        flags = (diag.full_rank, diag.self_adjoint, diag.scale_invariant)
        assert [type(flag) for flag in flags] == [bool] * 3

    def test_singular_solve_reported_not_scale_invariant(self, monkeypatch):
        def singular(bc, ch):
            raise SingularMatrixError("pivot below floor")

        monkeypatch.setattr("qstar.scattering.smatrix", singular)
        diag = validate(make_st_form(3, 1, [[1.0, 3.0]]))
        assert diag.full_rank
        assert not diag.scale_invariant

    def test_unrelated_error_propagates(self, monkeypatch):
        def broken(bc, ch):
            raise RuntimeError("not a singular solve")

        monkeypatch.setattr("qstar.scattering.smatrix", broken)
        with pytest.raises(RuntimeError, match="not a singular solve"):
            validate(make_st_form(3, 1, [[1.0, 3.0]]))

    @staticmethod
    def _known_rank_coupling(kind, n, rng):
        """(coupling of degree n, rank of its (A|B) by construction)."""
        if kind == "single_entry":
            a, b = np.zeros((n, n)), np.zeros((n, n))
            b[0, 0] = 1.0
            return BoundaryCondition(n, a, b), 1
        if kind == "st":
            t = rng.uniform(-3, 3, (1, n - 1)) + 1j * rng.uniform(-3, 3, (1, n - 1))
            return make_st_form(n, 1, t), n
        if kind == "delta":
            return make_delta(n, rng.uniform(-5, 5)), n
        block = rng.normal(size=(n, 2 * n)) + 1j * rng.normal(size=(n, 2 * n))
        i, j = rng.choice(n, size=2, replace=False)
        if kind == "zero_row":
            block[i] = 0.0
        elif kind == "duplicate_row":
            block[j] = block[i]
        else:  # complex multiple of another row
            block[j] = (0.6 - 0.8j) * block[i]
        return BoundaryCondition(n, block[:, :n], block[:, n:]), n - 1

    @pytest.mark.parametrize(
        "kind",
        ["single_entry", "zero_row", "duplicate_row", "complex_multiple", "st", "delta"],
    )
    def test_rank_failure_reported(self, kind):
        rng = rng_for(f"test_rank_failure_reported-{kind}")
        for n in range(2, 17):
            bc, rank = self._known_rank_coupling(kind, n, rng)
            diag = validate(bc)
            assert diag.rank == rank, f"n={n}"
            assert diag.full_rank == (rank == n)
            assert diag.self_adjoint == (rank == n)


class TestJson:
    def test_round_trip_exact(self):
        bc = make_st_form(3, 1, [[1.25 + 0.5j, -2.0]])
        again = bc_from_json(bc_to_json(bc))
        assert again.n == bc.n
        assert np.array_equal(again.A, bc.A)
        assert np.array_equal(again.B, bc.B)

    def test_entries_are_re_im_pairs(self):
        import json

        data = json.loads(bc_to_json(make_st_form(2, 1, [[2.0]])))
        assert data["n"] == 2
        assert data["B"][0][1] == [2.0, 0.0]

    @pytest.mark.parametrize("data", [
        {"A": [], "B": []},                                # no "n"
        {"n": 2, "A": 5, "B": 5},                          # not nested lists
        {"n": "two", "A": [], "B": []},                    # n not an integer
        {"n": 1, "A": [[[1.0]]], "B": [[[0.0, 0.0]]]},     # entry not a pair
        {"n": 1, "A": [[[1e400, 0.0]]], "B": [[[0.0, 0.0]]]},  # not finite
        {"n": 2, "A": [[[0, 0]]], "B": [[[1, 0]]]},        # wrong shape
        {"n": 1.7, "A": [[[1.0, 0.0]]], "B": [[[0.0, 0.0]]]},   # not read as 1
        {"n": True, "A": [[[1.0, 0.0]]], "B": [[[0.0, 0.0]]]},
        {"n": 1, "A": [[[1.0, 2.0, 99.0]]], "B": [[[0.0, 0.0]]]},  # not 1+2j
        {"n": 1, "A": [[[True, False]]], "B": [[[0.0, 0.0]]]},     # not 1+0j
        {"n": 1, "A": [[[1.0, 0.0]]], "B": [[[True, 0.5]]]},
        {"n": 1, "A": [[[1.0, 0.0]]], "B": [[["1.5", 0.0]]]},
        {"n": 1, "A": [[[1.0, 0.0]]], "B": [[[None, 0.0]]]},
    ])
    def test_malformed_dict_is_invalid_parameter(self, data):
        with pytest.raises(InvalidParameterError,
                           match="malformed boundary-condition config"):
            bc_from_dict(data)
