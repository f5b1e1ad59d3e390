"""Tests for domain types and state initialization."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cvgfa.errors import DataError, UsageError
from cvgfa.model import (
    FitOptions,
    GroupedDataset,
    Hyperparameters,
    VariationalState,
    active_factors,
    init_state,
)


def make_dataset(seed=0, n=6, dims=(4, 3)):
    rng = np.random.default_rng(seed)
    groups = [rng.standard_normal((n, d)) for d in dims]
    return GroupedDataset(groups, [f"g{i}" for i in range(len(dims))])


class TestGroupedDataset:
    def test_shape_accessors(self):
        data = make_dataset(dims=(4, 3, 2))
        assert data.n_groups == 3
        assert data.n_samples == 6
        assert data.dims == [4, 3, 2]
        data.validate()

    def test_rejects_mismatched_rows(self):
        data = make_dataset()
        data.groups[1] = data.groups[1][:-1]
        with pytest.raises(DataError):
            data.validate()

    def test_rejects_non_finite(self):
        data = make_dataset()
        data.groups[0][0, 0] = np.nan
        with pytest.raises(DataError):
            data.validate()

    def test_rejects_empty(self):
        with pytest.raises(DataError):
            GroupedDataset([], []).validate()

    def test_rejects_duplicate_names(self):
        data = make_dataset()
        data.group_names = ["g0", "g0"]
        with pytest.raises(DataError):
            data.validate()


class TestHyperparameters:
    def test_defaults_match_experiment_settings(self):
        h = Hyperparameters(K=30)
        assert h.kappa0 == 1.0
        assert (h.c0, h.d0, h.e0, h.f0, h.g0, h.h0) == (0.1,) * 6
        h.validate()

    def test_rejects_bad_values(self):
        with pytest.raises(UsageError):
            Hyperparameters(K=0).validate()
        with pytest.raises(UsageError):
            Hyperparameters(K=5, c0=-1.0).validate()
        with pytest.raises(UsageError):
            Hyperparameters(K=5, kappa0=0.0).validate()

    @pytest.mark.parametrize(
        "name, value",
        [(name, math.inf) for name in ("kappa0", "c0", "d0", "e0", "f0", "g0", "h0")]
        + [("e0", -math.inf), ("e0", math.nan)],
    )
    def test_rejects_non_finite_values(self, name, value):
        with pytest.raises(UsageError, match=f"{name} must be positive and finite"):
            Hyperparameters(K=5, **{name: value}).validate()


class TestFitOptions:
    def test_defaults_valid(self):
        FitOptions().validate()

    def test_rejects_bad_values(self):
        with pytest.raises(UsageError):
            FitOptions(max_sweeps=0).validate()
        with pytest.raises(UsageError):
            FitOptions(rel_tolerance=0.0).validate()
        with pytest.raises(UsageError):
            FitOptions(seed=-1).validate()


class TestInitState:
    def test_shapes_and_validity(self):
        data = make_dataset(dims=(4, 3))
        hyper = Hyperparameters(K=5)
        state = init_state(data, hyper, seed=7)
        state.validate()
        assert state.n_groups == 2
        assert state.n_factors == 5
        assert state.n_samples == 6
        assert [r.shape for r in state.rho] == [(5, 4), (5, 3)]
        for r in state.rho:
            assert np.all(r >= 0.0) and np.all(r <= 1.0)
        assert state.f_mean.shape == (6, 5)

    def test_posterior_shaped_precisions(self):
        data = make_dataset(dims=(4, 3))
        hyper = Hyperparameters(K=10)
        state = init_state(data, hyper, seed=0)
        assert hyper.lambda_shape == hyper.e0 + 0.5
        assert hyper.tau_shape(4) == hyper.g0 + 0.5 * 4
        assert hyper.tau_shape(3) == hyper.g0 + 0.5 * 3
        assert np.all(state.lambda_rate[0] > 0)
        assert np.all(state.tau_rate[0] > 0)
        assert np.all(state.eta_log_mean <= 0)

    def test_recovers_planted_factor(self):
        rng = np.random.default_rng(11)
        n = 60
        f = rng.standard_normal((n, 1))
        w0 = rng.normal(0.0, 2.0, (1, 20))
        w1 = rng.normal(0.0, 2.0, (1, 20))
        groups = [
            f @ w0 + rng.standard_normal((n, 20)),
            f @ w1 + rng.standard_normal((n, 20)),
        ]
        data = GroupedDataset(groups, ["a", "b"])
        state = init_state(data, Hyperparameters(K=6), seed=0)
        recon = [state.f_mean @ (state.rho[m] * state.w_mean[m]) for m in range(2)]
        sq = sum(float(((g - r) ** 2).sum()) for g, r in zip(groups, recon))
        mse = sq / sum(g.size for g in groups)
        assert mse < 1.3  # near the unit noise floor
        assert len(active_factors(state, 1e-2)) >= 1

    def test_stationary_under_extra_sweep(self):
        from cvgfa import engine

        data = make_dataset(seed=3, n=30, dims=(8, 6))
        hyper = Hyperparameters(K=4)
        state = init_state(data, hyper, seed=1)

        def mse(st):
            sq = 0.0
            for m in range(2):
                r = data.groups[m] - st.f_mean @ (st.rho[m] * st.w_mean[m])
                sq += float((r * r).sum())
            return sq / sum(g.size for g in data.groups)

        before = mse(state)
        engine.sweep(state, data, hyper)
        after = mse(state)
        assert abs(after - before) < 1e-4 * max(before, 1e-12)

    def test_k_equal_one(self):
        data = make_dataset(dims=(3,))
        state = init_state(data, Hyperparameters(K=1), seed=0)
        assert state.n_factors == 1
        state.validate()

    def test_deterministic(self):
        data = make_dataset()
        hyper = Hyperparameters(K=4)
        s1 = init_state(data, hyper, seed=7)
        s2 = init_state(data, hyper, seed=7)
        assert all(np.array_equal(a, b) for a, b in zip(s1.rho, s2.rho))
        assert all(np.array_equal(a, b) for a, b in zip(s1.w_mean, s2.w_mean))
        assert np.array_equal(s1.f_mean, s2.f_mean)
        assert all(np.array_equal(a, b) for a, b in zip(s1.tau_rate, s2.tau_rate))

    def test_rejects_bad_config(self):
        data = make_dataset()
        with pytest.raises(UsageError):
            init_state(data, Hyperparameters(K=0), seed=0)
        with pytest.raises(DataError):
            init_state(GroupedDataset([], []), Hyperparameters(K=3), seed=0)
        with pytest.raises(UsageError):
            init_state(data, Hyperparameters(K=3), seed=-2)

    def test_copy_is_deep(self):
        data = make_dataset()
        state = init_state(data, Hyperparameters(K=4), seed=1)
        clone = state.copy()
        clone.rho[0][0, 0] = 0.0
        clone.f_mean[0, 0] = 99.0
        assert state.rho[0][0, 0] != 0.0
        assert state.f_mean[0, 0] != 99.0


class TestActiveFactors:
    def _state_with_rho(self, rho_rows):
        data = make_dataset(dims=(len(rho_rows[0]),))
        state = init_state(data, Hyperparameters(K=len(rho_rows)), seed=0)
        state.rho[0] = np.asarray(rho_rows, dtype=float)
        return state

    def test_all_zero_rho(self):
        state = self._state_with_rho(np.zeros((3, 4)))
        assert active_factors(state, 1e-2) == set()

    def test_all_one_rho(self):
        state = self._state_with_rho(np.ones((3, 4)))
        assert active_factors(state, 1.0) == {0, 1, 2}

    def test_below_threshold_excluded(self):
        rho = np.zeros((2, 4))
        rho[0] = 0.5
        rho[1] = 0.00125  # sums to 0.005 < 0.01
        state = self._state_with_rho(rho)
        assert active_factors(state, 0.01) == {0}

    def test_max_over_groups(self):
        data = make_dataset(dims=(4, 4))
        state = init_state(data, Hyperparameters(K=2), seed=0)
        state.rho[0] = np.zeros((2, 4))
        state.rho[1] = np.zeros((2, 4))
        state.rho[1][1, 0] = 0.8
        assert active_factors(state, 0.5) == {1}

    def test_monotone_in_threshold(self):
        data = make_dataset()
        state = init_state(data, Hyperparameters(K=6), seed=3)
        prev = None
        for thr in (1e-3, 1e-1, 1.0, 2.0, 5.0):
            cur = active_factors(state, thr)
            if prev is not None:
                assert cur <= prev
            prev = cur
