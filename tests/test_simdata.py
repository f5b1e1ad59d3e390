"""Tests for the synthetic benchmark generators."""

import math

import numpy as np
import pytest

from cvgfa.errors import UsageError
from cvgfa.simdata import (
    ABSENT,
    DENSE,
    SPARSE,
    SPARSE_ZERO_FRACTION,
    SparsityPattern,
    empirical_check,
    generate,
    simulation1_pattern,
    simulation2_pattern,
)


class TestPatterns:
    def test_simulation1_layout(self):
        pat = simulation1_pattern()
        assert pat.n_groups == 4
        assert pat.n_factors == 6
        sparse_sets = [
            {k for k in range(6) if pat.entries[m][k] == SPARSE} for m in range(4)
        ]
        assert sparse_sets == [{0, 3}, {1, 3, 4, 5}, {2, 4, 5}, {5}]
        assert all(DENSE not in row for row in pat.entries)
        # first three factors group-specific, factor 1 in group 1 only
        for j in range(3):
            assert [m for m in range(4) if pat.entries[m][j] != ABSENT] == [j]
        # factors 4-6 each span more than one group
        for j in range(3, 6):
            assert sum(pat.entries[m][j] == SPARSE for m in range(4)) >= 2
        pat.validate()

    def test_simulation2_layout(self):
        pat = simulation2_pattern()
        assert pat.n_groups == 4
        assert pat.n_factors == 8
        sparse_sets = [
            {k for k in range(8) if pat.entries[m][k] == SPARSE} for m in range(4)
        ]
        dense_sets = [
            {k for k in range(8) if pat.entries[m][k] == DENSE} for m in range(4)
        ]
        assert sparse_sets == [{0}, {1, 3}, {2, 3}, {2}]
        assert dense_sets == [{4}, {5}, {6}, {7}]
        # one dense factor per group, none shared
        assert sorted(k for s in dense_sets for k in s) == [4, 5, 6, 7]
        pat.validate()

    def test_validate_rejects_bad_grids(self):
        with pytest.raises(UsageError):
            SparsityPattern([]).validate()
        with pytest.raises(UsageError):
            SparsityPattern([[SPARSE], [SPARSE, DENSE]]).validate()
        with pytest.raises(UsageError):
            SparsityPattern([[SPARSE, "thick"]]).validate()
        # factor column nobody uses
        with pytest.raises(UsageError):
            SparsityPattern([[SPARSE, ABSENT], [SPARSE, ABSENT]]).validate()


class TestGenerate:
    def test_simulation1_shapes(self):
        data, truth = generate(simulation1_pattern(), 100, [100] * 4, seed=1)
        assert [g.shape for g in data.groups] == [(100, 100)] * 4
        assert truth.factors.shape == (100, 6)
        assert [w.shape for w in truth.loadings] == [(6, 100)] * 4
        assert data.group_names == ["group1", "group2", "group3", "group4"]
        data.validate()

    def test_exact_zero_counts(self):
        data, truth = generate(simulation1_pattern(), 30, [100, 50, 10, 40], seed=3)
        pat = truth.pattern
        for m, d_m in enumerate([100, 50, 10, 40]):
            want = math.ceil(SPARSE_ZERO_FRACTION * d_m)
            for k, kind in enumerate(pat.entries[m]):
                row = truth.loadings[m][k]
                if kind == SPARSE:
                    assert int((row == 0.0).sum()) == want
                    assert truth.sparse_mask[m][k].sum() == want
                elif kind == ABSENT:
                    assert np.all(row == 0.0)

    def test_dense_rows_fully_loaded(self):
        _, truth = generate(simulation2_pattern(), 20, [60] * 4, seed=5)
        for m in range(4):
            for k, kind in enumerate(truth.pattern.entries[m]):
                if kind == DENSE:
                    assert np.all(truth.loadings[m][k] != 0.0)

    def test_deterministic(self):
        a_data, a_truth = generate(simulation1_pattern(), 15, [20] * 4, seed=42)
        b_data, b_truth = generate(simulation1_pattern(), 15, [20] * 4, seed=42)
        for m in range(4):
            assert np.array_equal(a_data.groups[m], b_data.groups[m])
            assert np.array_equal(a_truth.loadings[m], b_truth.loadings[m])
        assert np.array_equal(a_truth.factors, b_truth.factors)
        c_data, _ = generate(simulation1_pattern(), 15, [20] * 4, seed=43)
        assert not np.array_equal(a_data.groups[0], c_data.groups[0])

    def test_rejects_bad_config(self):
        pat = simulation1_pattern()
        with pytest.raises(UsageError):
            generate(pat, 10, [20] * 3, seed=0)  # wrong group count
        with pytest.raises(UsageError):
            generate(pat, 0, [20] * 4, seed=0)
        with pytest.raises(UsageError):
            generate(pat, 10, [20, 20, 20, 0], seed=0)

    @pytest.mark.parametrize("seed", [-0.5, 2.7, True, math.inf, math.nan])
    def test_rejects_a_seed_that_is_not_a_whole_number(self, seed):
        # int() would run -0.5 as seed 0, 2.7 as 2 and True as 1
        with pytest.raises(UsageError, match="seed"):
            generate(simulation1_pattern(), 10, [20] * 4, seed=seed)


class TestEmpiricalCheck:
    def test_simulation1_summary(self):
        _, truth = generate(simulation1_pattern(), 100, [100] * 4, seed=0)
        report = empirical_check(truth)
        assert report["n_samples"] == 100
        assert report["n_factors"] == 6
        # factors ~ N(0,1): loose variance window
        assert 0.7 < report["factor_variance"] < 1.3
        sparse_vars = []
        for cell in report["cells"]:
            if cell["kind"] == SPARSE:
                assert cell["zero_fraction"] == 0.9
                assert cell["nonzero_count"] == 10
                sparse_vars.append(cell["nonzero_variance"])
            elif cell["kind"] == ABSENT:
                assert cell["nonzero_count"] == 0
        # only 10 nonzeros per sparse cell, so bound the mean, not each cell
        assert 2.5 < np.mean(sparse_vars) < 5.5

    def test_dense_cells_have_full_support(self):
        _, truth = generate(simulation2_pattern(), 50, [100] * 4, seed=2)
        report = empirical_check(truth)
        dense = [c for c in report["cells"] if c["kind"] == DENSE]
        assert len(dense) == 4
        for cell in dense:
            assert cell["zero_fraction"] == 0.0
            assert cell["nonzero_count"] == 100
            assert 2.5 < cell["nonzero_variance"] < 5.5
