"""Tests for the sweep drivers."""

import numpy as np

from repro.analysis import apply_grid, reliability_sweep
from repro.schemes import NoEcc, PairScheme


class TestApplyGrid:
    def test_cartesian_coverage(self):
        results = apply_grid(lambda a, b: a * b, a=[1, 2, 3], b=[10, 20])
        assert len(results) == 6
        assert {(r["a"], r["b"]) for r in results} == {
            (a, b) for a in (1, 2, 3) for b in (10, 20)
        }
        assert all(r["value"] == r["a"] * r["b"] for r in results)

    def test_single_axis(self):
        results = apply_grid(lambda x: x + 1, x=[0, 1])
        assert [r["value"] for r in results] == [1, 2]

    def test_empty_axis_yields_nothing(self):
        assert apply_grid(lambda x: x, x=[]) == []


class TestReliabilitySweep:
    def test_adds_combined_fail_column(self):
        bers = [1e-5, 1e-4]
        out = reliability_sweep([NoEcc()], bers, samples=50)
        data = out["no-ecc"]
        assert np.allclose(data["fail"], data["sdc"] + data["due"])
        assert data["ber"].tolist() == bers

    def test_multiple_schemes_keyed_by_name(self):
        out = reliability_sweep([NoEcc(), PairScheme()], [1e-4], samples=100)
        assert set(out) == {"no-ecc", "pair"}
