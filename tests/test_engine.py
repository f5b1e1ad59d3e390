"""Tests for the coordinate-ascent engine.

The per-coordinate oracles (oracle.py) and the fused sweep are pinned
against each other, and single coordinates are pinned against hand-built
states with analytically known outputs.
"""

import dataclasses
import functools
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from numpy.testing import assert_allclose

import oracle
from cvgfa import approx, engine, model
from cvgfa.approx import (
    _count_moments,
    crt_mean_approx,
    digamma,
    expect_log_shifted_count,
)
from cvgfa.errors import DataError, NumericalError, UsageError
from cvgfa.model import (
    FitOptions,
    GroupedDataset,
    Hyperparameters,
    VariationalState,
    _beta_prior,
    _keep_rows,
    _lambda_rate,
    active_factors,
    init_state,
    spectral_start,
)
from test_model import assert_stacked_layout, warmed_up


def make_dataset(seed=0, n=6, dims=(4, 3)):
    rng = np.random.default_rng(seed)
    groups = [rng.standard_normal((n, d)) for d in dims]
    return GroupedDataset(groups, [f"g{i}" for i in range(len(dims))])


# default priors; their K is not read by any single-coordinate update
PRIOR = Hyperparameters(K=1)


def make_state(
    rho,
    w_mean=None,
    w_var=None,
    f_mean=None,
    f_var=None,
    beta=(1.0, 1.0),
    tau_rate=None,
    alpha=(1.0, 1.0),
    aux_s=None,
    aux_t=None,
    n=2,
):
    """Hand-built state from per-group K x D_m blocks of rho, w_mean and
    w_var and per-group N vectors of tau_rate, joined into the state's
    arrays; anything unspecified sits at a bland default.

    The default loadings (mean 0, variance 1) and noise rates make
    E[lambda] = E[tau] = 1 under PRIOR, the hyperparameters the
    single-coordinate tests pass: the lambda rate f0 + 1/2 equals the
    shape e0 + 1/2.
    """
    rho = [np.array(r, dtype=float) for r in rho]
    m = len(rho)
    k = rho[0].shape[0]

    def per_group(given, default):
        if given is None:
            return np.concatenate([default(r.shape) for r in rho], axis=1)
        return np.concatenate([np.array(g, dtype=float) for g in given], axis=1)

    f_mean = (
        np.zeros((n, k)) if f_mean is None else np.array(f_mean, dtype=float)
    )
    n = f_mean.shape[0]
    return VariationalState(
        rho=np.concatenate(rho, axis=1),
        w_mean=per_group(w_mean, np.zeros),
        w_var=per_group(w_var, np.ones),
        dims=[r.shape[1] for r in rho],
        f_mean=f_mean,
        f_var=np.ones((n, k)) if f_var is None else np.array(f_var, dtype=float),
        beta_a=np.full(k, float(beta[0])),
        beta_b=np.full(k, float(beta[1])),
        tau_rate=(
            np.array([np.full(n, PRIOR.tau_shape(r.shape[1])) for r in rho])
            if tau_rate is None
            else np.array(tau_rate, dtype=float)
        ),
        alpha_shape=np.full(m, float(alpha[0])),
        alpha_rate=np.full(m, float(alpha[1])),
        aux_s_mean=(
            np.zeros((m, k)) if aux_s is None else np.array(aux_s, dtype=float)
        ),
        aux_t_mean=(
            np.zeros((m, k)) if aux_t is None else np.array(aux_t, dtype=float)
        ),
    )


def sweep_eta_log_mean(state, hyper=PRIOR):
    """E[log eta] of every group as update_alpha reads it in a sweep of a
    copy of state (on data that E[log eta] does not read): the sweep's own,
    from its first digamma call, at the q(alpha) of state."""
    data = make_dataset(n=state.n_samples, dims=state.dims)
    seen = []
    update_alpha = engine.update_alpha

    def spy(state, hyper, eta_log_mean):
        seen.append(eta_log_mean)
        return update_alpha(state, hyper, eta_log_mean)

    with mock.patch.object(engine, "update_alpha", spy):
        engine.sweep(state.copy(), data, hyper)
    return seen[0]


def assert_holds_the_active_factors(state):
    """The state holds exactly its active factors, one row (score column)
    each, in ascending order: what every sweep leaves."""
    held = sorted(active_factors(state))
    assert list(state.factors) == held
    assert state.rho.shape[0] == state.f_mean.shape[1] == len(held)


def holding(state, hyper, factors):
    """A copy of state that holds the factors given, ascending: the rows of
    those state does not hold are at the prior (oracle.full_state)."""
    held = oracle.full_state(state, hyper)
    _keep_rows(held, np.isin(np.arange(state.n_factors), factors))
    return held


def random_state(rng, n, dims, k):
    m = len(dims)

    def blocks(draw):
        return np.concatenate([draw(d) for d in dims], axis=1)

    return VariationalState(
        rho=blocks(lambda d: rng.uniform(0.05, 0.95, size=(k, d))),
        w_mean=blocks(lambda d: rng.normal(0.0, 0.7, size=(k, d))),
        w_var=blocks(lambda d: rng.uniform(0.1, 0.9, size=(k, d))),
        dims=list(dims),
        f_mean=rng.standard_normal((n, k)),
        f_var=rng.uniform(0.2, 1.5, size=(n, k)),
        beta_a=rng.uniform(0.2, 2.0, size=k),
        beta_b=rng.uniform(0.2, 2.0, size=k),
        tau_rate=np.array([rng.uniform(0.5, 3.0, size=n) for _ in dims]),
        alpha_shape=rng.uniform(0.5, 2.0, size=m),
        alpha_rate=rng.uniform(0.5, 2.0, size=m),
        aux_s_mean=rng.uniform(0.0, 1.0, size=(m, k)),
        aux_t_mean=rng.uniform(0.0, 1.0, size=(m, k)),
    )


class TestSufficientStats:
    def test_half_half_row(self):
        state = make_state([[[0.5, 0.5]]])
        mom = oracle.update_sufficient_stats(state, 0, 0)
        assert mom.mean == 1.0
        assert mom.variance == 0.5

    def test_leave_one_out(self):
        state = make_state([[[0.5, 0.5]]])
        mom = oracle.update_sufficient_stats(state, 0, 0, exclude_d=1)
        assert mom.mean == 0.5
        assert mom.variance == 0.25

    def test_certain_row(self):
        state = make_state([np.ones((1, 10))])
        mom = oracle.update_sufficient_stats(state, 0, 0)
        assert mom.mean == 10.0
        assert mom.variance == 0.0
        assert mom.p_plus == 1.0

    def test_complement(self):
        state = make_state([[[0.9, 0.8]]])
        mom = oracle.update_sufficient_stats(state, 0, 0, complement=True)
        assert mom.mean == pytest.approx(0.3, abs=1e-15)

    def test_bad_column(self):
        state = make_state([[[0.5, 0.5]]])
        with pytest.raises(IndexError):
            oracle.update_sufficient_stats(state, 0, 0, exclude_d=5)


class TestUpdateZ:
    def test_symmetric_setup_gives_half(self):
        # equal prior branches (symmetric beta, rho complement 0.5) and a
        # vanishing likelihood term (E[w] = E[w^2] = 0)
        state = make_state(
            [[[0.3, 0.5]]], w_mean=[[[0.0, 0.0]]], w_var=[[[0.0, 1.0]]]
        )
        data = make_dataset(n=2, dims=(2,))
        residual = oracle.residual(state, data)
        assert oracle.update_z(state, residual, PRIOR, 0, 0, 0) == 0.5

    def test_likelihood_exponent_log3(self):
        state = make_state(
            [[[0.3, 0.5]]],
            w_mean=[[[0.0, 0.0]]],
            w_var=[[[math.log(3.0), 1.0]]],
            f_mean=[[1.0], [1.0]],
            f_var=np.zeros((2, 1)),
        )
        data = GroupedDataset([np.zeros((2, 2))], ["g0"])
        residual = oracle.residual(state, data)
        # logit = -0.5 * E[w^2] * sum tau E[f^2] = -log 3  =>  1/(1+3)
        assert oracle.update_z(state, residual, PRIOR, 0, 0, 0) == pytest.approx(
            0.25, abs=1e-14
        )

    def test_large_positive_exponent_is_stable(self):
        state = make_state(
            [[[0.0, 0.5]]],
            w_mean=[[[1.0, 0.0]]],
            w_var=[[[0.0, 1.0]]],
            f_mean=[[1.0], [1.0]],
            f_var=np.zeros((2, 1)),
        )
        x = np.zeros((2, 2))
        x[:, 0] = 25.5  # likelihood exponent (2*51 - 2)/2 = +50
        data = GroupedDataset([x], ["g0"])
        residual = oracle.residual(state, data)
        rho = oracle.update_z(state, residual, PRIOR, 0, 0, 0)
        assert rho >= 1.0 - 1e-12
        assert math.isfinite(rho)

    def test_non_finite_logit_raises_with_context(self):
        state = make_state(
            [[[0.5, 0.5]]],
            w_var=[[[1.0, 1.0]]],
            f_var=np.full((2, 1), np.inf),
        )
        data = make_dataset(n=2, dims=(2,))
        residual = oracle.residual(state, data)
        with pytest.raises(NumericalError) as err:
            oracle.update_z(state, residual, PRIOR, 0, 0, 0)
        assert err.value.context == {"group": 0, "factor": 0, "column": 0}


class TestUpdateW:
    def test_excluded_coordinate_relaxes_to_prior(self):
        # E[lambda] = (e0 + 1/2) / (f0 + (0 + 1) / 2) = 2.0 / 1.0
        state = make_state([[[0.0]]])
        data = make_dataset(n=2, dims=(1,))
        residual = oracle.residual(state, data)
        hyper = Hyperparameters(K=1, e0=1.5, f0=0.5)
        mean, var = oracle.update_w(state, residual, hyper, 0, 0, 0)
        assert mean == 0.0
        assert var == 0.5

    def test_posterior_variance(self):
        state = make_state(
            [[[1.0]]],
            f_mean=[[1.0], [1.0]],
            f_var=np.zeros((2, 1)),
        )
        data = GroupedDataset([np.zeros((2, 1))], ["g0"])
        residual = oracle.residual(state, data)
        _, var = oracle.update_w(state, residual, PRIOR, 0, 0, 0)
        assert var == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_posterior_mean(self):
        state = make_state(
            [[[1.0]]],
            f_mean=[[1.0], [1.0]],
            f_var=np.zeros((2, 1)),
        )
        data = GroupedDataset([np.full((2, 1), 1.5)], ["g0"])
        residual = oracle.residual(state, data)
        mean, var = oracle.update_w(state, residual, PRIOR, 0, 0, 0)
        assert var == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert mean == pytest.approx(1.0, abs=1e-14)


class TestUpdateF:
    def test_all_excluded_recovers_prior(self):
        state = make_state([np.zeros((1, 3))])
        data = make_dataset(n=2, dims=(3,))
        residual = oracle.residual(state, data)
        assert oracle.update_f(state, residual, PRIOR, 0, 0) == (0.0, 1.0)

    def test_posterior_variance(self):
        state = make_state(
            [np.ones((1, 4))],
            w_mean=[np.ones((1, 4))],
            w_var=[np.zeros((1, 4))],
        )
        data = GroupedDataset([np.zeros((2, 4))], ["g0"])
        residual = oracle.residual(state, data)
        _, var = oracle.update_f(state, residual, PRIOR, 0, 0)
        assert var == pytest.approx(0.2, abs=1e-15)

    def test_posterior_mean(self):
        state = make_state(
            [np.ones((1, 4))],
            w_mean=[np.ones((1, 4))],
            w_var=[np.zeros((1, 4))],
        )
        data = GroupedDataset([np.full((2, 4), 1.25)], ["g0"])
        residual = oracle.residual(state, data)
        mean, _ = oracle.update_f(state, residual, PRIOR, 0, 0)
        assert mean == pytest.approx(1.0, abs=1e-14)


class TestUpdateBetaParams:
    def test_prior_only(self):
        state = make_state([np.full((10, 3), 0.5)])
        hyper = Hyperparameters(K=10)
        a, b = engine.update_beta_params(state, hyper, 0)
        assert a == pytest.approx(0.1, abs=1e-15)
        assert b == pytest.approx(0.9, abs=1e-15)

    def test_with_table_counts(self):
        aux_s = np.zeros((2, 10))
        aux_t = np.zeros((2, 10))
        aux_s[:, 3] = [1.2, 0.8]
        aux_t[:, 3] = [2.5, 2.5]
        state = make_state(
            [np.full((10, 3), 0.5), np.full((10, 2), 0.5)],
            aux_s=aux_s,
            aux_t=aux_t,
        )
        hyper = Hyperparameters(K=10)
        a, b = engine.update_beta_params(state, hyper, 3)
        assert a == pytest.approx(2.1, abs=1e-12)
        assert b == pytest.approx(5.9, abs=1e-12)

    def test_single_factor_floor(self):
        state = make_state([np.full((1, 3), 0.5)], aux_s=[[0.7]])
        hyper = Hyperparameters(K=1)
        a, b = engine.update_beta_params(state, hyper, 0)
        assert a == pytest.approx(1.7, abs=1e-12)
        assert b == 1e-6


class TestUpdateAuxST:
    def test_empty_row_gives_zero_tables(self):
        state = make_state([np.zeros((1, 4))])
        e_s, _ = oracle.update_aux_s_t(state, 0, 0)
        assert e_s == 0.0

    def test_deterministic_count_telescopes(self):
        # engineer G[alpha beta] = 1 so E_s = psi(4) - psi(1) = 11/6
        g_beta = oracle.geo_beta(0.7, 0.9)[0]
        state = make_state(
            [np.ones((1, 3))],
            beta=(0.7, 0.9),
            alpha=(1.0, math.exp(digamma(1.0)) * g_beta),
        )
        e_s, e_t = oracle.update_aux_s_t(state, 0, 0)
        assert e_s == pytest.approx(11.0 / 6.0, abs=1e-9)
        assert e_t == 0.0

    def test_full_row_has_no_complement_tables(self):
        state = make_state([np.ones((1, 4))])
        _, e_t = oracle.update_aux_s_t(state, 0, 0)
        assert e_t == 0.0

    def test_clamped_to_column_count(self):
        for seed in range(3):
            state = random_state(np.random.default_rng(seed), 4, [6, 3], 3)
            for m in range(2):
                for k in range(3):
                    e_s, e_t = oracle.update_aux_s_t(state, m, k)
                    assert 0.0 <= e_s <= state.dims[m]
                    assert 0.0 <= e_t <= state.dims[m]


class TestUpdateLambda:
    def test_shape_is_constant(self):
        state = make_state([[[0.5]]], w_mean=[[[0.0]]], w_var=[[[1.0]]])
        hyper = Hyperparameters(K=1)
        rate = oracle.update_lambda(state, hyper, 0, 0, 0)
        assert hyper.lambda_shape == pytest.approx(0.6, abs=1e-15)
        assert rate == pytest.approx(0.6, abs=1e-15)

    def test_point_mass_weight(self):
        state = make_state([[[0.5]]], w_mean=[[[2.0]]], w_var=[[[0.0]]])
        hyper = Hyperparameters(K=1)
        rate = oracle.update_lambda(state, hyper, 0, 0, 0)
        assert rate == pytest.approx(2.1, abs=1e-15)


class TestUpdateTau:
    def test_shape_from_dimension(self):
        hyper = Hyperparameters(K=1)
        assert hyper.tau_shape(100) == pytest.approx(50.1, abs=1e-12)

    def test_empty_reconstruction(self):
        state = make_state([np.zeros((1, 3))])
        x = np.array([[1.0, -2.0, 2.0], [0.5, 0.0, 0.0]])
        data = GroupedDataset([x], ["g0"])
        residual = oracle.residual(state, data)
        hyper = Hyperparameters(K=1)
        rate = oracle.update_tau(state, residual, hyper, 0, 0)
        assert rate == pytest.approx(0.1 + 0.5 * 9.0, abs=1e-12)

    def test_exact_reconstruction_leaves_prior_rate(self):
        rng = np.random.default_rng(17)
        f = rng.standard_normal((3, 2))
        w = rng.standard_normal((2, 4))
        state = make_state(
            [np.ones((2, 4))],
            w_mean=[w],
            w_var=[np.zeros((2, 4))],
            f_mean=f,
            f_var=np.zeros((3, 2)),
        )
        data = GroupedDataset([f @ w], ["g0"])
        residual = oracle.residual(state, data)
        hyper = Hyperparameters(K=2)
        for n in range(3):
            rate = oracle.update_tau(state, residual, hyper, 0, n)
            assert rate == pytest.approx(0.1, abs=1e-12)


class TestUpdateAlpha:
    def test_shape_from_table_totals(self):
        state = make_state(
            [np.full((2, 3), 0.5)],
            aux_s=[[1.0, 2.0]],
            aux_t=[[3.0, 1.0]],
        )
        hyper = Hyperparameters(K=2)
        eta = sweep_eta_log_mean(state, hyper)
        shape, rate = engine.update_alpha(state, hyper, eta)
        assert shape.shape == rate.shape == (1,)
        assert shape[0] == pytest.approx(7.1, abs=1e-12)
        # d0 - K E[log eta] at K = 2, E[alpha] = 1 and D = 3, where
        # -E[log eta] = psi(4) - psi(1) = 11/6: one eta per factor
        assert rate[0] == pytest.approx(0.1 + 2.0 * (1.0 + 0.5 + 1.0 / 3.0), abs=1e-9)

    @pytest.mark.parametrize("data_seed", [0, 1])
    @pytest.mark.parametrize("spec", ["sim1", "sim2"])
    def test_no_sweep_lowers_the_objective(self, spec, data_seed):
        # with one E[log eta] per group in the rate, not one per factor,
        # the objective fell by hundreds of nats in sweeps 4-7 of each draw
        from cvgfa import simdata

        patterns = {"sim1": simdata.simulation1_pattern, "sim2": simdata.simulation2_pattern}
        pattern = patterns[spec]()
        data, _ = simdata.generate(pattern, 60, [30] * 4, seed=data_seed)
        hyper = Hyperparameters(K=12)
        state = init_state(data, hyper, seed=0)
        before = engine.surrogate_elbo(state, data, hyper)
        for n_sweep in range(1, 61):
            engine.sweep(state, data, hyper)
            after = engine.surrogate_elbo(state, data, hyper)
            assert after >= before, f"sweep {n_sweep}: {before} -> {after}"
            before = after

    def test_prior_limit(self):
        # E[log eta] = psi(1e9) - psi(1e9 + 3), about -3e-9
        state = make_state([np.full((2, 3), 0.5)], alpha=(1e9, 1.0))
        hyper = Hyperparameters(K=2)
        eta = sweep_eta_log_mean(state, hyper)
        shape, rate = engine.update_alpha(state, hyper, eta)
        assert (shape[0], rate[0]) == (pytest.approx(0.1), pytest.approx(0.1))


class TestUpdateEta:
    """E[log eta] as update_alpha reads it, derived from q(alpha) by the
    sweep (sweep_eta_log_mean)."""

    def test_harmonic_sum(self):
        eta = sweep_eta_log_mean(make_state([np.full((1, 3), 0.5)]))
        assert eta.shape == (1,)
        assert eta[0] == pytest.approx(-(1.0 + 0.5 + 1.0 / 3.0), abs=1e-9)

    def test_empty_group_degenerates_to_zero(self):
        state = make_state([np.full((1, 3), 0.5), np.zeros((1, 0))])
        assert sweep_eta_log_mean(state)[1] == 0.0

    def test_large_concentration_limit(self):
        state = make_state([np.full((1, 3), 0.5)], alpha=(1e8, 1.0))
        val = sweep_eta_log_mean(state)[0]
        assert -1e-6 < val < 0.0


class TestLambdaRate:
    """The derived q(lambda) rates (model._lambda_rate) against the printed
    update, transcribed one coordinate at a time in oracle.update_lambda."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_oracle_bitwise(self, seed):
        dims = [13, 40, 7, 25]
        state = random_state(np.random.default_rng(seed), 6, dims, 5)
        hyper = Hyperparameters(K=5, f0=0.37)
        for m in range(len(dims)):
            _, w, v = oracle.group_loadings(state, m)
            rates = _lambda_rate(w, v, hyper.f0)
            want = [
                [oracle.update_lambda(state, hyper, m, k, d) for d in range(dims[m])]
                for k in range(5)
            ]
            assert rates.tobytes() == np.array(want).tobytes()
        # a factor's whole row, as the sweep reads it, gives the same
        row = _lambda_rate(state.w_mean[2], state.w_var[2], 0.37)
        per_group = [
            _lambda_rate(state.w_mean[2, cols], state.w_var[2, cols], 0.37)
            for cols in state.spans
        ]
        assert row.tobytes() == np.concatenate(per_group).tobytes()


class TestConcentrationsMatchPerGroupOracle:
    """update_alpha and the E[log eta] the sweep passes it take every group
    in one step; each entry must equal the per-group transcription in
    oracle.py bit for bit."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bitwise(self, seed):
        dims = [13, 40, 7, 25]
        state = random_state(np.random.default_rng(seed), 6, dims, 12)
        # table counts of the sizes a sweep leaves, up to each group's width
        for counts in (state.aux_s_mean, state.aux_t_mean):
            counts *= np.array(dims, dtype=float)[:, None]
        state.alpha_shape[2] = 1e-3
        hyper = Hyperparameters(K=12)
        eta = sweep_eta_log_mean(state, hyper)
        shape, rate = engine.update_alpha(state, hyper, eta)
        want = [oracle.update_alpha(state, hyper, m) for m in range(len(dims))]
        assert shape.tobytes() == np.array([w[0] for w in want]).tobytes()
        assert rate.tobytes() == np.array([w[1] for w in want]).tobytes()
        # eta at the new alpha, as the next sweep reads it; group 2 keeps
        # its tiny shape, so its E[alpha] is far below 1
        state.alpha_shape[:] = shape
        state.alpha_rate[:] = rate
        state.alpha_shape[2] = 1e-3
        eta = sweep_eta_log_mean(state, hyper)
        want = [oracle.update_eta(state, m) for m in range(len(dims))]
        assert eta.tobytes() == np.array(want).tobytes()
        assert np.all(eta < 0.0)


class TestMicroInstanceOracle:
    """One sweep on M=1, D=2, N=2, K=1 against a scalar transliteration."""

    X = np.array([[1.0, -0.5], [0.5, 2.0]])

    @staticmethod
    def micro_state():
        return make_state(
            [[[0.6, 0.4]]],
            w_mean=[[[0.3, -0.2]]],
            w_var=[[[0.5, 0.7]]],
            f_mean=[[0.8], [-0.1]],
            f_var=[[0.9], [1.1]],
            beta=(0.5, 0.5),
            tau_rate=[[1.0, 2.0]],
            alpha=(0.7, 0.9),
            aux_s=[[0.4]],
            aux_t=[[0.8]],
        )

    def hand_sweep(self, hyper):
        x = self.X
        # q(tau) shape g0 + D/2 with D = 2, q(lambda) shape e0 + 1/2
        tau_bar = (hyper.g0 + 1.0) / np.array([1.0, 2.0])
        f = np.array([0.8, -0.1])
        f_var = np.array([0.9, 1.1])
        rho = [0.6, 0.4]
        w = [0.3, -0.2]
        w_var = [0.5, 0.7]
        # q(lambda) as the previous q(w) left it: (e0 + 1/2, f0 + E[w^2] / 2)
        lam = [
            (hyper.e0 + 0.5, hyper.f0 + 0.5 * (w[d] * w[d] + w_var[d]))
            for d in range(2)
        ]

        a_k = hyper.kappa0 / 1.0 + 0.4
        b_k = max(hyper.kappa0 * 0.0 + 0.8, 1e-6)
        g_alpha = oracle.geo_gamma(0.7, 0.9)
        g_beta, g_beta_bar = oracle.geo_beta(a_k, b_k)
        g_ab = max(g_alpha * g_beta, 1e-300)
        g_abbar = max(g_alpha * g_beta_bar, 1e-300)

        nhat = oracle.count_moments(rho)
        ntil = oracle.count_moments(1.0 - np.array(rho))
        aux_s = min(max(crt_mean_approx(g_ab, nhat), 0.0), 2.0)
        aux_t = min(max(crt_mean_approx(g_abbar, ntil), 0.0), 2.0)

        sff = float(tau_bar @ (f * f + f_var))
        # with one factor the no-k residual at column d is x[:, d] itself
        xdot = [float(tau_bar @ (f * x[:, d])) for d in range(2)]
        # every column's rho reads the other column's pre-sweep value
        rho_new = [0.0, 0.0]
        for d in range(2):
            other = np.array([rho[1 - d]])
            nh = oracle.count_moments(other)
            nt = oracle.count_moments(1.0 - other)
            prior1 = expect_log_shifted_count(g_ab, nh.mean, nh.variance)
            prior0 = expect_log_shifted_count(g_abbar, nt.mean, nt.variance)
            ew2 = w[d] * w[d] + w_var[d]
            logit = prior1 - 0.5 * (ew2 * sff - 2.0 * w[d] * xdot[d]) - prior0
            rho_new[d] = 1.0 / (1.0 + math.exp(-logit))
        rho = rho_new
        lam_rate = [0.0, 0.0]
        for d in range(2):
            var_new = 1.0 / (lam[d][0] / lam[d][1] + rho[d] * sff)
            w[d] = var_new * rho[d] * xdot[d]
            w_var[d] = var_new
            lam_rate[d] = hyper.f0 + 0.5 * (w[d] * w[d] + var_new)

        rho_v = np.array(rho)
        w_v = np.array(w)
        coef = rho_v * w_v
        precision = 1.0 + tau_bar * float(rho_v @ (w_v * w_v + np.array(w_var)))
        f_new = (tau_bar * (x @ coef)) / precision
        f_var_new = 1.0 / precision

        alpha_shape = hyper.c0 + aux_s + aux_t
        # E[log eta] at the old q(alpha) = Gamma(0.7, 0.9), with D = 2
        alpha_rate = hyper.d0 - (digamma(0.7 / 0.9) - digamma(0.7 / 0.9 + 2.0))
        alpha_mean = alpha_shape / alpha_rate
        eta_new = digamma(alpha_mean) - digamma(alpha_mean + 2.0)

        svec = float(rho_v @ (w_v * w_v + np.array(w_var)))
        tvec = float(coef @ coef)
        resid = x - np.outer(f_new, coef)
        sq = (resid * resid).sum(axis=1) + (f_new * f_new + f_var_new) * svec
        sq -= f_new * f_new * tvec
        tau_rate = hyper.h0 + 0.5 * sq
        return {
            "beta": (a_k, b_k),
            "aux": (aux_s, aux_t),
            "rho": rho,
            "w": w,
            "w_var": w_var,
            "lam_rate": lam_rate,
            "f": f_new,
            "f_var": f_var_new,
            "alpha": (alpha_shape, alpha_rate),
            "eta": eta_new,
            "tau_shape": hyper.g0 + 1.0,
            "tau_rate": tau_rate,
        }

    def test_one_sweep_matches(self):
        hyper = Hyperparameters(K=1)
        state = self.micro_state()
        data = GroupedDataset([self.X.copy()], ["g0"])
        want = self.hand_sweep(hyper)
        engine.sweep(state, data, hyper)

        assert state.beta_a[0] == pytest.approx(want["beta"][0], abs=1e-10)
        assert state.beta_b[0] == pytest.approx(want["beta"][1], abs=1e-10)
        assert state.aux_s_mean[0, 0] == pytest.approx(want["aux"][0], abs=1e-10)
        assert state.aux_t_mean[0, 0] == pytest.approx(want["aux"][1], abs=1e-10)
        assert_allclose(state.rho[0], want["rho"], atol=1e-10)
        assert_allclose(state.w_mean[0], want["w"], atol=1e-10)
        assert_allclose(state.w_var[0], want["w_var"], atol=1e-10)
        assert hyper.lambda_shape == pytest.approx(0.6, abs=1e-15)
        lam_rate = _lambda_rate(state.w_mean, state.w_var, hyper.f0)
        assert_allclose(lam_rate[0], want["lam_rate"], atol=1e-10)
        assert_allclose(state.f_mean[:, 0], want["f"], atol=1e-10)
        assert_allclose(state.f_var[:, 0], want["f_var"], atol=1e-10)
        assert state.alpha_shape[0] == pytest.approx(want["alpha"][0], abs=1e-10)
        assert state.alpha_rate[0] == pytest.approx(want["alpha"][1], abs=1e-10)
        eta = sweep_eta_log_mean(state, hyper)
        assert eta[0] == pytest.approx(want["eta"], abs=1e-10)
        assert hyper.tau_shape(2) == pytest.approx(want["tau_shape"], abs=1e-15)
        assert_allclose(state.tau_rate[0], want["tau_rate"], atol=1e-10)


def fresh_slots(state, hyper):
    """The inactive factors of a state holding all K whose q(beta) is still
    at the prior (model._beta_prior), which engine.sweep updates as rows
    with no inclusion."""
    prior = _beta_prior(hyper)
    active = active_factors(state)
    return [
        k
        for k in range(int(hyper.K))
        if k not in active and (state.beta_a[k], state.beta_b[k]) == prior
    ]


def reference_sweep(state, data, hyper):
    """Same schedule as engine.sweep, one oracle op at a time.

    The explicit residual is rebuilt before every op, so each op sees a
    residual exactly consistent with the current state. The loading block
    comes first: for each active factor, the inclusion probabilities of a
    (factor, group) row all read the state the row started from; only then
    are its loadings updated, each reading the lambda rate the printed
    update derives from the loading it replaces (oracle.update_w). The
    score block follows, one factor's scores after another, each reading
    the scores the earlier ones left. A factor inactive as the pass begins
    is at the prior (oracle.prior_reset); one whose q(beta) is still at the
    prior is a row with no inclusion, whose q(beta) and table counts are
    updated as any row's (fresh_slots).
    """
    oracle.prior_reset(state, hyper)
    active = sorted(active_factors(state))
    for k in sorted(active + fresh_slots(state, hyper)):
        a_k, b_k = engine.update_beta_params(state, hyper, k)
        state.beta_a[k] = a_k
        state.beta_b[k] = b_k
        for m in range(state.n_groups):
            e_s, e_t = oracle.update_aux_s_t(state, m, k)
            state.aux_s_mean[m, k] = e_s
            state.aux_t_mean[m, k] = e_t
            if k not in active:
                continue
            residual = oracle.residual(state, data)
            rho_new = [
                oracle.update_z(state, residual, hyper, m, k, d)
                for d in range(state.dims[m])
            ]
            rho, w, w_var = oracle.group_loadings(state, m)
            rho[k] = rho_new
            for d in range(state.dims[m]):
                residual = oracle.residual(state, data)
                mean, var = oracle.update_w(state, residual, hyper, m, k, d)
                w[k, d] = mean
                w_var[k, d] = var
    oracle.prior_reset(state, hyper)
    for k in sorted(active_factors(state)):
        residual = oracle.residual(state, data)
        f_new = np.empty(state.n_samples)
        f_var_new = np.empty(state.n_samples)
        for n in range(state.n_samples):
            f_new[n], f_var_new[n] = oracle.update_f(state, residual, hyper, n, k)
        state.f_mean[:, k] = f_new
        state.f_var[:, k] = f_var_new
    for m in range(state.n_groups):
        shape, rate = oracle.update_alpha(state, hyper, m)
        state.alpha_shape[m] = shape
        state.alpha_rate[m] = rate
        residual = oracle.residual(state, data)
        for n in range(state.n_samples):
            state.tau_rate[m][n] = oracle.update_tau(state, residual, hyper, m, n)
    return state


class TestSweepRoutesAgree:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fused_matches_reference(self, seed):
        self.check_routes_agree(seed)

    @pytest.mark.parametrize("pruned", [0, 1])
    def test_fused_matches_reference_with_a_pruned_factor(self, pruned):
        # the active factors are then not 0, 1, ..., so a factor's index
        # and its row in the sweep's batched product differ
        self.check_routes_agree(3, pruned=pruned)

    @staticmethod
    def check_routes_agree(seed, pruned=None):
        rng = np.random.default_rng(seed)
        n, dims, k = 5, [4, 3], 3
        data = GroupedDataset(
            [rng.standard_normal((n, d)) for d in dims], ["g0", "g1"]
        )
        hyper = Hyperparameters(K=k)
        fast = random_state(np.random.default_rng(100 + seed), n, dims, k)
        if pruned is not None:
            fast.rho[pruned] = 0.0
            assert pruned not in active_factors(fast)
        slow = fast.copy()

        engine.sweep(fast, data, hyper)
        reference_sweep(slow, data, hyper)
        # the oracle's rows at fast.factors, and the prior at every other
        assert_holds_the_active_factors(fast)
        fast = oracle.full_state(fast, hyper)

        assert fast.dims == slow.dims
        assert_allclose(fast.rho, slow.rho, rtol=1e-9, atol=1e-9)
        assert_allclose(fast.w_mean, slow.w_mean, rtol=1e-9, atol=1e-9)
        assert_allclose(fast.w_var, slow.w_var, rtol=1e-9, atol=1e-9)
        assert_allclose(fast.tau_rate, slow.tau_rate, rtol=1e-9, atol=1e-9)
        assert_allclose(fast.f_mean, slow.f_mean, rtol=1e-9, atol=1e-9)
        assert_allclose(fast.f_var, slow.f_var, rtol=1e-9, atol=1e-9)
        assert_allclose(fast.beta_a, slow.beta_a, rtol=1e-9, atol=1e-9)
        assert_allclose(fast.beta_b, slow.beta_b, rtol=1e-9, atol=1e-9)
        assert_allclose(fast.aux_s_mean, slow.aux_s_mean, rtol=1e-9, atol=1e-9)
        assert_allclose(fast.aux_t_mean, slow.aux_t_mean, rtol=1e-9, atol=1e-9)
        assert_allclose(fast.alpha_shape, slow.alpha_shape, rtol=1e-9, atol=1e-9)
        assert_allclose(fast.alpha_rate, slow.alpha_rate, rtol=1e-9, atol=1e-9)


def per_column_sweep(state, data, hyper):
    """engine.sweep written one scalar at a time.

    The loading block: for each (k, m), every column's rho is computed from
    the row's pre-update count sums minus its own term, and then every
    column's w and lambda from the new rho. The scores stay fixed through
    it, so sff and the products dotx needs are taken before it, for every
    active factor, as in engine.sweep: X_m^T (tau_bar_m f_k) and
    F^T (tau_bar_m f_k), one product per group. The score block then
    updates one factor's scores after another, one sample at a time, from
    the products X_m C_m^T and C_m C_m^T of the final loadings; the
    leave-one-factor-out part of each moment, a length-K dot product per
    sample, is taken as in engine.sweep. The complementary count's moments
    derive from the row's, as in engine.sweep. A factor inactive as the
    pass begins is at the prior (oracle.prior_reset), its rho all 0; one
    whose q(beta) is still at the prior (fresh_slots) has its q(beta) and
    table counts updated as any row's, and nothing else. log and exp are
    numpy's, as in engine.sweep: math's differ from numpy's vector loops in the last
    bit on some CPUs. Kept here only as the oracle that the vectorised
    sweep must match bit for bit.
    """
    M = state.n_groups
    N = state.n_samples
    F = state.f_mean
    lam_shape = hyper.lambda_shape
    tau_bar = [hyper.tau_shape(state.dims[m]) / state.tau_rate[m] for m in range(M)]
    g_alpha = [
        oracle.geo_gamma(state.alpha_shape[m], state.alpha_rate[m]) for m in range(M)
    ]

    # the inactive factors are at the prior: every product below runs over
    # the active rows (columns of F) only
    oracle.prior_reset(state, hyper)
    active = sorted(active_factors(state))
    fresh = fresh_slots(state, hyper)
    # each group's columns of rho, w_mean and w_var, views of the state's
    blocks = [oracle.group_loadings(state, m) for m in range(M)]
    loads = [rho[active] * w[active] for rho, w, _ in blocks]
    f_act = F[:, active]
    f2 = f_act * f_act + state.f_var[:, active]
    sff_all = [tau_bar[m] @ f2 for m in range(M)]
    tf = [tau_bar[m][:, None] * f_act for m in range(M)]
    xt_tf = [tf[m].T @ data.groups[m] for m in range(M)]
    ft_tf = [tf[m].T @ f_act for m in range(M)]

    K = int(hyper.K)
    for k in sorted(active + fresh):
        # q(beta_k), each table-count sum np.sum of factor k's column alone
        a_k = hyper.kappa0 / K + float(np.sum(state.aux_s_mean[:, k]))
        b_k = hyper.kappa0 * (1.0 - 1.0 / K) + float(np.sum(state.aux_t_mean[:, k]))
        b_k = max(b_k, engine.BETA_B_FLOOR)
        state.beta_a[k] = a_k
        state.beta_b[k] = b_k
        g_beta, g_beta_bar = oracle.geo_beta(a_k, b_k)

        for m in range(M):
            d_m = state.dims[m]
            rho_row, w_row, wvar_row = (a[k] for a in blocks[m])
            # the rates the printed q(lambda) update left after the last
            # q(w) update of this row
            lam_rate_row = hyper.f0 + 0.5 * (w_row * w_row + wvar_row)
            g_ab = max(g_alpha[m] * g_beta, engine.GEO_FLOOR)
            g_abbar = max(g_alpha[m] * g_beta_bar, engine.GEO_FLOOR)

            nhat = _count_moments(rho_row)[0]
            ntil = _count_moments(rho_row)[1]
            state.aux_s_mean[m, k] = min(
                max(crt_mean_approx(g_ab, nhat), 0.0), float(d_m)
            )
            state.aux_t_mean[m, k] = min(
                max(crt_mean_approx(g_abbar, ntil), 0.0), float(d_m)
            )
            if k in fresh:
                continue

            i = active.index(k)
            sff = float(sff_all[m][i])
            g = ft_tf[m][i].copy()
            g[i] = 0.0
            dotx = xt_tf[m][i] - loads[m].T @ g

            rho_new = np.empty(d_m)
            for d in range(d_m):
                r_old = rho_row[d]
                e1 = max(nhat.mean - r_old, 0.0)
                v1 = max(nhat.variance - r_old * (1.0 - r_old), 0.0)
                e0 = max((d_m - 1) - e1, 0.0)
                tot1 = g_ab + e1
                prior1 = np.log(tot1) - v1 / (2.0 * tot1 * tot1)
                tot0 = g_abbar + e0
                prior0 = np.log(tot0) - v1 / (2.0 * tot0 * tot0)
                ew = w_row[d]
                ew2 = ew * ew + wvar_row[d]
                logit = prior1 - 0.5 * (ew2 * sff - 2.0 * ew * dotx[d]) - prior0
                if not math.isfinite(logit):
                    raise NumericalError(
                        "non-finite inclusion logit",
                        context={"group": m, "factor": k, "column": d},
                    )
                if logit >= 0:
                    rho_new[d] = 1.0 / (1.0 + np.exp(-logit))
                else:
                    e = np.exp(logit)
                    rho_new[d] = e / (1.0 + e)

            for d in range(d_m):
                r_new = rho_new[d]
                rho_row[d] = r_new
                xdot = dotx[d]
                var_new = 1.0 / (lam_shape / lam_rate_row[d] + r_new * sff)
                mu_new = var_new * r_new * xdot
                w_row[d] = mu_new
                wvar_row[d] = var_new

            loads[m][i] = rho_row * w_row

    # the factors the loading block left inactive go to the prior, and the
    # score block and the noise precisions read the rest, K+ rows
    oracle.prior_reset(state, hyper)
    kept = sorted(active_factors(state))
    loads = [loads[m][[active.index(k) for k in kept]] for m in range(M)]
    xc = [data.groups[m] @ loads[m].T for m in range(M)]
    cc = [loads[m] @ loads[m].T for m in range(M)]
    tau = np.column_stack(tau_bar)
    # sum_d rho E[w^2] of every (group, kept factor) row
    second = [
        (rho[kept] * (w[kept] ** 2 + w_var[kept])).sum(axis=1)
        for rho, w, w_var in blocks
    ]
    f_kept = F[:, kept]
    for i in range(len(kept)):
        # sum_m tau_bar_m F h_m, h_m column i of C_m C_m^T without entry i
        h = np.array([cc[m][:, i] for m in range(M)])
        h[:, i] = 0.0
        loo = np.einsum("nj,nj->n", f_kept, tau @ h)
        for n in range(N):
            precision = 1.0
            moment = 0.0
            for m in range(M):
                precision += tau_bar[m][n] * second[m][i]
                moment += tau_bar[m][n] * xc[m][n, i]
            var = 1.0 / precision
            f_kept[n, i] = var * (moment - loo[n])
            state.f_var[n, kept[i]] = var
    F[:, kept] = f_kept

    for m in range(M):
        shape, rate = oracle.update_alpha(state, hyper, m)
        state.alpha_shape[m] = shape
        state.alpha_rate[m] = rate
        rho, w, w_var = (a[kept] for a in blocks[m])
        (sq,) = engine._expected_sq_residuals(
            engine._sq_norms(engine._row_norms([data.groups[m]]), f_kept, xc[m], cc[m]),
            f_kept,
            state.f_var[:, kept],
            *engine._loading_sums(rho, w, w_var, rho * w, [rho.shape[1]])[:2],
        )
        state.tau_rate[m][:] = hyper.h0 + 0.5 * sq
    return state


STATE_ARRAYS = ("rho", "w_mean", "w_var", "tau_rate", "f_mean", "f_var",
                "beta_a", "beta_b", "alpha_shape", "alpha_rate", "aux_s_mean",
                "aux_t_mean", "factors")


def assert_states_bitwise_equal(a, b):
    assert a.dims == b.dims
    for name in STATE_ARRAYS:
        x, y = getattr(a, name), getattr(b, name)
        assert x.shape == y.shape and x.tobytes() == y.tobytes(), name


# nine groups: from eight terms on, numpy's pairwise sum over a factor's
# groups leaves the sequential order
NINE_GROUPS = ["s..s..", ".s.s.s", "..s.s.", "...s.s", "s....s",
               ".s..s.", "..s..s", "s.s...", ".ss..."]


class TestSweepMatchesPerColumnLoop:
    # K above sim1's 6 true factors; the sweep steps through every group's
    # row of a factor at once, so unequal widths get their own cases.
    # relax_cap caps fit's sweeps (None: the default cap, 0: no sweep). gap
    # names a factor pruned by hand before the first sweep, so the active
    # set is not 0, 1, ..., |A| - 1 and the sweep's batch rows are not the
    # factors' indices
    @pytest.mark.parametrize(
        "relax_cap, n, dims, k, grid, gap",
        [
            pytest.param(0, 40, [20] * 4, 10, None, None, id="0"),
            pytest.param(None, 40, [20] * 4, 10, None, None, id="None"),
            pytest.param(0, 60, [13, 40, 7, 25], 12, None, None, id="0-unequal"),
            pytest.param(None, 60, [13, 40, 7, 25], 12, None, None, id="None-unequal"),
            pytest.param(
                0, 60, [13, 40, 7, 25, 18, 30, 11, 22, 16], 12, NINE_GROUPS, 2,
                id="0-nine-groups-gap",
            ),
        ],
    )
    def test_bitwise_over_sweeps_with_pruning(self, relax_cap, n, dims, k, grid, gap):
        from cvgfa.simdata import _from_grid, generate, simulation1_pattern

        pattern = simulation1_pattern() if grid is None else _from_grid(grid)
        data, _ = generate(pattern, n, dims, seed=2)
        hyper = Hyperparameters(K=k)
        # relax_cap 0 starts from the bare spectral warm start, before any
        # pruning: it holds the signal rows only
        cap = FitOptions.max_sweeps if relax_cap is None else relax_cap
        fast = warmed_up(data, hyper, seed=0, max_sweeps=cap)
        held = len(fast.factors)
        if gap is not None:
            fast.rho[gap] = 0.0
        if relax_cap == 0:
            # held factor 1 keeps a little mass on unsupported loadings of
            # large variance, so the first loading block prunes it
            fast.rho[1], fast.w_mean[1], fast.w_var[1] = 0.003, 0.0, 50.0
        # the oracle runs on all K rows, the factors fast does not hold at
        # the prior; fast's rows must be the oracle's rows at fast.factors
        # and every other oracle row the prior, bit for bit
        slow = oracle.full_state(fast, hyper)
        active = [sorted(active_factors(fast))]
        for _ in range(6):
            engine.sweep(fast, data, hyper)
            per_column_sweep(slow, data, hyper)
            assert_holds_the_active_factors(fast)
            assert_states_bitwise_equal(oracle.full_state(fast, hyper), slow)
            active.append(sorted(active_factors(fast)))
        sizes = [len(a) for a in active]
        assert sizes[-1] < hyper.K
        if relax_cap == 0:
            start = spectral_start(data, hyper)
            assert held == start.loadings.shape[0]
            assert sizes[0] == held - (gap is not None) and 1 in active[0]
            assert all(1 not in a for a in active[1:]) and sizes[-1] < sizes[0]
        if gap is not None:
            assert all(gap not in a and a[-1] > gap for a in active)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_logit_raises_with_context(self, bad):
        n, dims, k = 5, [4, 3], 3
        rng = np.random.default_rng(31)
        data = GroupedDataset(
            [rng.standard_normal((n, d)) for d in dims], ["g0", "g1"]
        )
        state = random_state(np.random.default_rng(32), n, dims, k)
        # w_var enters only column (1, 0, 2)'s likelihood term: NaN gives a
        # NaN logit, +inf a -inf logit and -inf a +inf logit. Group 1's
        # columns start at 4
        state.w_var[0, 4 + 2] = bad
        with pytest.raises(NumericalError) as info:
            engine.sweep(state, data, Hyperparameters(K=k))
        assert info.value.context == {"group": 1, "factor": 0, "column": 2}

    def test_opposite_infinite_logits_in_one_row_raise_with_context(self):
        # a +inf and a -inf logit: the error, with no warning before it
        logit = np.zeros(7)
        logit[[5, 6]] = math.inf, -math.inf
        with pytest.raises(NumericalError) as info:
            engine._inclusion_probs(logit, np.array([4, 3]), 2)
        assert info.value.context == {"group": 1, "factor": 2, "column": 1}

    @pytest.mark.parametrize("columns", [(1, 2), (2, 0), (0, 1, 2)])
    def test_lowest_non_finite_column_is_named(self, columns):
        n, dims, k = 5, [4, 3], 3
        rng = np.random.default_rng(31)
        data = GroupedDataset(
            [rng.standard_normal((n, d)) for d in dims], ["g0", "g1"]
        )
        state = random_state(np.random.default_rng(32), n, dims, k)
        for d, bad in zip(columns, [math.inf, math.nan, -math.inf]):
            state.w_var[0, 4 + d] = bad
        want = {"group": 1, "factor": 0, "column": min(columns)}
        slow = state.copy()
        with pytest.raises(NumericalError) as info:
            engine.sweep(state, data, Hyperparameters(K=k))
        assert info.value.context == want
        # the scalar oracle stops at the first bad column it meets
        with pytest.raises(NumericalError) as info:
            per_column_sweep(slow, data, Hyperparameters(K=k))
        assert info.value.context == want

    def test_first_group_with_a_non_finite_column_is_named(self):
        # factor 0 has bad columns in both groups; group 1's column 0 comes
        # before group 0's column 2 by index, but the per-row loop meets
        # group 0 first
        n, dims, k = 5, [4, 3], 3
        rng = np.random.default_rng(31)
        data = GroupedDataset(
            [rng.standard_normal((n, d)) for d in dims], ["g0", "g1"]
        )
        state = random_state(np.random.default_rng(32), n, dims, k)
        state.w_var[0, 3] = math.nan
        state.w_var[0, 2] = math.inf
        state.w_var[0, 4 + 0] = math.nan
        want = {"group": 0, "factor": 0, "column": 2}
        slow = state.copy()
        with pytest.raises(NumericalError) as info:
            engine.sweep(state, data, Hyperparameters(K=k))
        assert info.value.context == want
        with pytest.raises(NumericalError) as info:
            per_column_sweep(slow, data, Hyperparameters(K=k))
        assert info.value.context == want


class TestRhoRow:
    def test_extreme_logits_saturate_without_warnings(self):
        rho = np.full(6, 0.5)
        # equal concentrations and E = D - 1 - E = 2.5 make the two priors
        # cancel, so the logit is -lik
        lik = np.array([-1e4, 1e4, -800.0, 800.0, 0.0, -0.0])
        with warnings.catch_warnings(), np.errstate(
            over="warn", invalid="warn", divide="warn"
        ):
            warnings.simplefilter("error", RuntimeWarning)
            widths = np.array([6])
            nhat = _count_moments(rho, widths)[0]
            on, off = oracle.rho_row_priors(
                rho, nhat.mean, nhat.variance, np.ones(1), np.ones(1), widths
            )
            got = engine._inclusion_probs((on - lik) - off, widths, 0)
        np.testing.assert_array_equal(got, [1.0, 0.0, 1.0, 0.0, 0.5, 0.5])


class TestBatchedRowTerms:
    """The sweep's batch of every active row's prior halves and
    leave-one-out weights against the per-row oracles, bit for bit."""

    DIMS = [13, 40, 7, 25]
    INACTIVE = (1, 4)

    def batch(self):
        rng = np.random.default_rng(23)
        n, k = 11, 6
        data = GroupedDataset(
            [rng.standard_normal((n, d)) for d in self.DIMS],
            [f"g{m}" for m in range(len(self.DIMS))],
        )
        state = random_state(rng, n, self.DIMS, k)
        state.rho[list(self.INACTIVE)] = 0.0
        active = sorted(active_factors(state))
        assert active == [j for j in range(k) if j not in self.INACTIVE]
        return data, state, active

    def test_prior_halves_match_the_row_oracle(self):
        _, state, active = self.batch()
        hyper = Hyperparameters(K=state.n_factors)
        idx = np.array(active)
        widths = np.array(state.dims)
        beta_a, beta_b = engine.update_beta_params(state, hyper, idx)
        # the concentrations as engine.sweep takes them
        g_alpha = oracle.geo_gamma(state.alpha_shape, state.alpha_rate)
        g_ab, g_abbar = (
            np.maximum(g[:, None] * g_alpha, engine.GEO_FLOOR)
            for g in oracle.geo_beta(beta_a, beta_b)
        )
        block = state.rho[idx]
        nhat = _count_moments(block, widths)[0]
        # the first halves are written over the rows they read
        on, off = engine._prior_halves(block.copy(), nhat, g_ab, g_abbar, widths)
        for i in range(len(active)):
            want_on, want_off = oracle.rho_row_priors(
                block[i], nhat.mean[i], nhat.variance[i], g_ab[i], g_abbar[i], widths
            )
            assert on[i].tobytes() == want_on.tobytes()
            assert off[i].tobytes() == want_off.tobytes()

    def test_loo_weights_match_the_row_oracle(self):
        data, state, active = self.batch()
        idx = np.array(active)
        tau_bar = [PRIOR.tau_shape(d) / t for d, t in zip(state.dims, state.tau_rate)]
        # the active rows of the expected loadings and columns of F, as
        # engine.sweep takes them: the inactive factors are at the prior
        loads = [engine.expected_loadings(state, m)[idx] for m in range(len(self.DIMS))]
        F = state.f_mean[:, idx]
        tf = [tb[:, None] * F for tb in tau_bar]
        xt_tf = [t.T @ x for t, x in zip(tf, data.groups)]
        ft_tf = [t.T @ F for t in tf]
        weights = engine._loo_weights(np.array([t.T for t in tf]), F)
        assert weights.shape == (len(self.DIMS), len(active), len(active))
        for i in range(len(active)):
            for m in range(len(self.DIMS)):
                got = xt_tf[m][i] - loads[m].T @ weights[m, i]
                want = oracle.loo_dotx(xt_tf[m][i], loads[m], ft_tf[m][i], i)
                assert got.tobytes() == want.tobytes()


def one_value_per_call(kernel):
    """approx._psi that passes kernel one value per call: the per-element
    schedule that the whole-array kernel's batching must not change."""

    def each(x, trigamma=False):
        x = np.asarray(x, dtype=float)
        values = [kernel(v, trigamma) for v in x.ravel()]
        if not trigamma:
            return np.reshape(values, x.shape)
        pairs = np.reshape(values, x.shape + (2,))
        return pairs[..., 0], pairs[..., 1]

    return each


class TestRunsOfGroups:
    """The collapsed-prior batch and whole fits change no bit with the run
    budget (approx._RUN_BUDGET) at either extreme, nor when the psi kernel
    takes the values of each call one at a time."""

    @pytest.mark.parametrize(
        "dims", [[20] * 4, [13, 40, 7, 25]], ids=["equal", "unequal"]
    )
    def test_prior_halves_match_across_budgets(self, monkeypatch, dims):
        state = random_state(np.random.default_rng(41), 5, dims, 7)
        block = state.rho
        widths = np.array(dims)
        nhat = _count_moments(block, widths)[0]
        rng = np.random.default_rng(42)
        g_ab, g_abbar = rng.uniform(0.05, 3.0, (2, len(block), len(dims)))
        g_ab[:, 1] = engine.GEO_FLOOR
        halves = []
        for budget in (1, 10**9):
            monkeypatch.setattr(approx, "_RUN_BUDGET", budget)
            halves.append(
                engine._prior_halves(block.copy(), nhat, g_ab, g_abbar, widths)
            )
        for got, want in zip(*halves):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("budget", [1, 10**9])
    @pytest.mark.parametrize("chunk", [1, math.inf])
    def test_fit_matches_across_budgets_and_kernels(self, monkeypatch, budget, chunk):
        # chunk 1: every psi call's values one at a time; inf: whole calls
        from cvgfa.simdata import generate, simulation1_pattern

        data, _ = generate(simulation1_pattern(), 30, [13, 40, 7, 25], seed=4)
        hyper = Hyperparameters(K=12)
        opts = FitOptions(max_sweeps=8, seed=1)
        want = engine.fit(data, hyper, opts)
        monkeypatch.setattr(approx, "_RUN_BUDGET", budget)
        if chunk == 1:
            monkeypatch.setattr(approx, "_psi", one_value_per_call(approx._psi))
        got = engine.fit(data, hyper, opts)
        assert_states_bitwise_equal(got.final_state, want.final_state)
        assert got.trace == want.trace

    @pytest.mark.parametrize("case", ["random-1", "init", "fitted"])
    def test_objective_warm_start_and_active_rule_match_across_budgets(
        self, monkeypatch, case
    ):
        # they sum over the state's rows one run of groups at a time, as the
        # sweep does; random-1 has unequal widths (4, 9, 3)
        state, data, hyper = elbo_case(case)
        rows, dims = state.rho, state.dims
        results = []
        for budget in (1, 10**9):
            monkeypatch.setattr(approx, "_RUN_BUDGET", budget)
            results.append(
                (
                    engine.surrogate_elbo(state, data, hyper),
                    model._group_mass(rows, dims).tobytes(),
                    model._active_rows(rows, dims).tobytes(),
                    init_state(data, hyper, seed=2),
                )
            )
        (*got, got_init), (*want, want_init) = results
        assert got == want
        assert_states_bitwise_equal(got_init, want_init)


class TestLeaveOneFactorOutProducts:
    """The sweep's data-side products against their explicit-residual forms:
    dotx in the loading block and the moment of the score block."""

    # the two forms round differently; their gap, relative to the largest
    # entry, stays below 1e-14 on these sizes (and is 0 for a zero row,
    # whose score term is exactly 0 both ways)
    RTOL = 1e-12

    def assert_close(self, got, want):
        assert np.max(np.abs(got - want)) <= self.RTOL * np.max(np.abs(want))

    @pytest.mark.parametrize(
        "seed, dims, k, zero_factor",
        [(0, (6, 5), 3, None), (1, (4, 7), 1, None), (2, (5, 3), 4, 2), (3, (8,), 1, 0)],
    )
    def test_match_residual_forms(self, seed, dims, k, zero_factor):
        rng = np.random.default_rng(seed)
        n = 9
        data = GroupedDataset(
            [rng.standard_normal((n, d)) for d in dims],
            [f"g{i}" for i in range(len(dims))],
        )
        state = random_state(rng, n, dims, k)
        if zero_factor is not None:
            state.w_mean[zero_factor] = 0.0
        residual = oracle.residual(state, data)
        F = state.f_mean
        tau_bar = [PRIOR.tau_shape(d) / t for d, t in zip(dims, state.tau_rate)]
        blocks = [oracle.group_loadings(state, m) for m in range(len(dims))]
        loads = [r * w for r, w, _ in blocks]
        for m in range(len(dims)):
            tf = tau_bar[m][:, None] * F
            # X^T (tau_bar f_j) and F^T (tau_bar f_j) for every j at once, as
            # engine.sweep takes them
            xt_tf = tf.T @ data.groups[m]
            ft_tf = tf.T @ F
            for j in range(k):
                want = residual[m].T @ tf[:, j]
                want += loads[m][j] * float(tf[:, j] @ F[:, j])
                got = oracle.loo_dotx(xt_tf[j], loads[m], ft_tf[j], j)
                self.assert_close(got, want)
        xc, cc = engine._loading_products(data.groups, np.hstack(loads))
        second = np.array(
            [
                engine._loading_sums(r, w, v, c, [r.shape[1]])[0, 0]
                for (r, w, v), c in zip(blocks, loads)
            ]
        )
        for j in range(k):
            want = sum(
                tb * (R @ c[j] + F[:, j] * float(c[j] @ c[j]))
                for tb, R, c in zip(tau_bar, residual, loads)
            )
            # the block's new score is its moment times the new variance
            moved = state.copy()
            engine._score_block(moved, np.array(tau_bar), xc, cc, second, [j])
            self.assert_close(moved.f_mean[:, j] / moved.f_var[:, j], want)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_returned_norms_are_those_of_the_final_state(self, seed):
        from cvgfa.simdata import generate, simulation1_pattern

        data, _ = generate(simulation1_pattern(), 30, [12] * 4, seed=seed)
        hyper = Hyperparameters(K=8)
        state = warmed_up(data, hyper, seed=seed)
        for _ in range(3):
            norms = engine.sweep(state, data, hyper)
            residual = oracle.residual(oracle.full_state(state, hyper), data)
            # the sweep's products run over the rows it holds, the active ones
            assert_holds_the_active_factors(state)
            assert len(state.factors) < hyper.K
            for m in range(data.n_groups):
                x = data.groups[m]
                c = engine.expected_loadings(state, m)
                # the one group alone
                built = engine._sq_norms(
                    engine._row_norms([x]),
                    state.f_mean,
                    *engine._loading_products([x], c),
                )
                assert norms[m].tobytes() == built.tobytes()
                assert_allclose(norms[m], (residual[m] ** 2).sum(axis=1), rtol=1e-12)



class TestStackedFormsMatchPerGroup:
    """The sweep's stacked steps against their per-group forms, bit for bit.

    Each step takes every group in one numpy call where it took one call
    per group. It keeps the fit's bits only if every group's slice of the
    stacked result equals that group's own call: a numpy whose batched
    matmul or einsum adds in another order than the 2-D call fails here.
    Each test calls the helper that engine.sweep calls for its step. The
    groups have unequal widths and the scores are in Fortran order, as the
    state holds them."""

    SEEDS = range(20)

    @staticmethod
    def inputs(seed):
        rng = np.random.default_rng(seed)
        n = int(rng.choice([7, 30, 100]))
        k = int(rng.integers(1, 8))
        dims = [int(d) for d in rng.integers(1, 60, size=int(rng.integers(2, 6)))]
        groups = [rng.standard_normal((n, d)) for d in dims]
        f_mean = np.asfortranarray(rng.standard_normal((n, k)))
        f_var = np.asfortranarray(rng.uniform(0.01, 1.0, (n, k)))
        tau_bar = rng.uniform(0.5, 5.0, (len(dims), n))
        coef = rng.standard_normal((k, sum(dims)))
        spans = np.cumsum([0] + dims)
        per_group = [coef[:, a:b] for a, b in zip(spans[:-1], spans[1:])]
        return groups, f_mean, f_var, tau_bar, coef, per_group

    @pytest.mark.parametrize("seed", SEEDS)
    def test_score_sums(self, seed):
        # sum_n tau_bar F^2 of every group: one batched vector-matrix product
        _, f_mean, f_var, tau_bar, _, _ = self.inputs(seed)
        got = engine._score_sums(tau_bar, f_mean, f_var)
        f2 = f_mean * f_mean + f_var
        assert got.shape == tau_bar.shape[:1] + f_mean.shape[1:]
        for m, tb in enumerate(tau_bar):
            assert np.array_equal(got[m], tb @ f2)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_loo_weights_and_data_products(self, seed):
        groups, f_mean, _, tau_bar, coef, _ = self.inputs(seed)
        ends = np.cumsum([x.shape[1] for x in groups])
        spans = [slice(end - x.shape[1], end) for x, end in zip(groups, ends)]
        xt_tf, weights = engine._weighted_products(tau_bar, f_mean, groups, spans)
        assert xt_tf.shape == coef.shape
        assert weights.shape == (len(groups),) + 2 * f_mean.shape[1:]
        for m, (x, cols) in enumerate(zip(groups, spans)):
            t = tau_bar[m][:, None] * f_mean
            want = t.T @ f_mean
            np.fill_diagonal(want, 0.0)
            assert np.array_equal(weights[m], want)
            assert np.array_equal(xt_tf[:, cols], t.T @ x)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_residual_norms(self, seed):
        groups, f_mean, _, _, coef, per_group = self.inputs(seed)
        x_norms = model._row_norms(groups)
        xc, cc = model._loading_products(groups, coef)
        got = model._sq_norms(x_norms, f_mean, xc, cc)
        for m, (x, c) in enumerate(zip(groups, per_group)):
            assert np.array_equal(xc[m], x @ c.T)
            assert np.array_equal(cc[m], c @ c.T)
            cross = f_mean @ (c @ c.T) - 2.0 * (x @ c.T)
            want = x_norms[m] + np.einsum("nk,nk->n", f_mean, cross)
            assert np.array_equal(got[m], np.maximum(want, 0.0))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_expected_residuals_and_noise_rates(self, seed):
        groups, f_mean, f_var, _, _, _ = self.inputs(seed)
        rng = np.random.default_rng(100 + seed)
        norms = rng.uniform(0.0, 50.0, (len(groups), f_mean.shape[0]))
        second, square = rng.uniform(0.0, 3.0, (2, len(groups), f_mean.shape[1]))
        got = model._expected_sq_residuals(norms, f_mean, f_var, second, square)
        # the sweep's q(tau) rates: h0 + E[||x_n - G_m f_n||^2] / 2
        h0 = 0.1
        rates = engine._noise_rates(h0, norms, f_mean, f_var, second, square)
        f2 = f_mean * f_mean
        ef2 = f2 + f_var
        for m in range(len(groups)):
            want = norms[m] + ef2 @ second[m] - f2 @ square[m]
            assert np.array_equal(got[m], want)
            assert np.array_equal(rates[m], h0 + 0.5 * want)


class TestCheckStateFinite:
    """engine._check_state_finite, the last step of every sweep. tau_rate[m]
    is row m of tau_rate, which the error names as one array."""

    FIELDS = [
        "f_mean",
        "f_var",
        "beta_a",
        "beta_b",
        "alpha_shape",
        "alpha_rate",
        "w_mean",
        "w_var",
        "tau_rate[0]",
        "tau_rate[1]",
    ]

    @staticmethod
    def state():
        return random_state(np.random.default_rng(4), 6, (4, 3), 3)

    @staticmethod
    def field(state, name):
        if name.startswith("tau_rate"):
            return state.tau_rate[int(name[-2])]
        return getattr(state, name)

    @staticmethod
    def variable(name):
        """The state array that the error names."""
        return name.split("[")[0]

    def test_a_finite_state_passes(self):
        engine._check_state_finite(self.state())

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", FIELDS)
    def test_names_the_non_finite_field(self, name, bad):
        state = self.state()
        self.field(state, name).flat[-1] = bad
        with pytest.raises(NumericalError, match="non-finite values in") as err:
            engine._check_state_finite(state)
        assert str(err.value) == f"non-finite values in {self.variable(name)}"
        assert err.value.context == {"variable": self.variable(name)}

    @pytest.mark.parametrize("first", range(len(FIELDS) - 1))
    def test_names_the_first_in_its_order(self, first):
        # every field from first on is non-finite
        state = self.state()
        for name in self.FIELDS[first:]:
            self.field(state, name).flat[0] = np.nan
        with pytest.raises(NumericalError) as err:
            engine._check_state_finite(state)
        assert err.value.context == {"variable": self.variable(self.FIELDS[first])}

    @pytest.mark.parametrize("name", FIELDS)
    def test_finite_entries_whose_sum_overflows_pass(self, name):
        state = self.state()
        values = self.field(state, name)
        values.flat[:2] = 1e308
        with np.errstate(over="ignore"):
            assert np.isinf(values.sum())
        engine._check_state_finite(state)


class TestGeoFloorInSweep:
    def test_underflowing_concentrations_are_floored(self, monkeypatch):
        n, dims, k = 6, [5, 4], 3
        rng = np.random.default_rng(41)
        data = GroupedDataset(
            [rng.standard_normal((n, d)) for d in dims], ["g0", "g1"]
        )
        state = random_state(np.random.default_rng(42), n, dims, k)
        # E[log alpha_0] = digamma(1e-3) - log(1) is about -1000, so the
        # geometric mean of alpha_0 and both concentrations underflow to 0
        state.alpha_shape[0] = 1e-3
        state.alpha_rate[0] = 1.0
        assert oracle.geo_gamma(state.alpha_shape[0], state.alpha_rate[0]) == 0.0

        seen = []

        def spy(a_geo, count):
            seen.append(a_geo)
            return crt_mean_approx(a_geo, count)

        monkeypatch.setattr(engine, "crt_mean_approx", spy)
        assert active_factors(state) == set(range(k))
        engine.sweep(state, data, Hyperparameters(K=k))
        # one call: g_ab and g_abbar stacked, each with one row per active
        # factor and one column per group
        assert len(seen) == 1
        assert seen[0].shape == (2, k, len(dims))
        for a_geo in seen[0]:
            assert np.all(a_geo[:, 0] == engine.GEO_FLOOR)
            assert np.all(a_geo[:, 1] > engine.GEO_FLOOR)
        assert np.all(np.isfinite(state.rho))
        assert np.all((state.rho >= 0.0) & (state.rho <= 1.0))

    # g_ab of group 0 is floored at GEO_FLOOR. With the first row, column 0
    # of factor 0 sees a leave-one-out count of mean and variance 0: its
    # total is 1e-300, whose square underflows to 0, so the variance term
    # would be 0/0. With the second, columns 0 and 1 see mean and variance
    # 1e-200, whose square also underflows: the term would be 1e-200/0.
    @pytest.mark.parametrize(
        "row", [(0.5, 0.0, 0.0, 0.0, 0.0), (1e-200, 1e-200, 0.0, 0.0, 0.0)]
    )
    def test_floored_concentration_with_no_other_count(self, row):
        n, dims, k = 6, [5, 4], 3
        rng = np.random.default_rng(41)
        data = GroupedDataset(
            [rng.standard_normal((n, d)) for d in dims], ["g0", "g1"]
        )
        state = random_state(np.random.default_rng(42), n, dims, k)
        state.alpha_shape[0] = 1e-3
        # factor 0's row in group 0, the first five columns
        state.rho[0, :5] = row
        with warnings.catch_warnings(), np.errstate(
            over="warn", invalid="warn", divide="warn"
        ):
            warnings.simplefilter("error", RuntimeWarning)
            engine.sweep(state, data, Hyperparameters(K=k))
        assert np.all(np.isfinite(state.rho))
        assert np.all((state.rho >= 0.0) & (state.rho <= 1.0))


class TestNoInclusionCounts:
    @pytest.mark.parametrize("widths", [[30], [13, 40, 7, 25]])
    def test_match_a_pass_over_zero_rows_bitwise(self, widths):
        widths = np.array(widths)
        block = np.random.default_rng(5).uniform(0.0, 1.0, (3, widths.sum()))
        block[1] = 0.0
        counts = _count_moments(block, widths)
        got = engine._no_inclusion_counts(counts, 2, widths)
        want = _count_moments(np.vstack([block, np.zeros((2, widths.sum()))]), widths)
        for name in ("mean", "variance", "p_plus"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


class TestSweepPsiCalls:
    def test_a_steady_sweep_takes_two_kernel_calls(self, monkeypatch):
        from cvgfa.simdata import generate, simulation1_pattern

        data, _ = generate(simulation1_pattern(), 40, [30] * 4, seed=1)
        hyper = Hyperparameters(K=10)
        state = warmed_up(data, hyper, seed=0)
        held, groups = len(state.factors), data.n_groups
        assert 0 < held < hyper.K
        calls = []
        kernel = approx._psi

        def counted(x, trigamma=False):
            calls.append((np.size(x), trigamma))
            return kernel(x, trigamma)

        monkeypatch.setattr(approx, "_psi", counted)
        engine.sweep(state, data, hyper)
        # the alpha shapes, E[alpha] and E[alpha] + D_m, and q(beta)'s a, b
        # and a + b; then both table counts of every (factor, group) row
        # with a count above P_PLUS_FLOOR, each at its shifted argument and
        # at a_geo, with psi'
        assert len(calls) == 2
        assert calls[0] == (3 * groups + 3 * held, False)
        assert calls[1][1] and 0 < calls[1][0] <= 2 * (2 * held * groups)

    def test_the_first_sweep_takes_the_unheld_slots_in_the_same_calls(
        self, monkeypatch
    ):
        from cvgfa.simdata import generate, simulation1_pattern

        data, _ = generate(simulation1_pattern(), 40, [30] * 4, seed=1)
        hyper = Hyperparameters(K=10)
        state = init_state(data, hyper, seed=0)
        held, groups = len(state.factors), data.n_groups
        assert 0 < held < hyper.K
        calls = []
        kernel = approx._psi

        def counted(x, trigamma=False):
            calls.append((np.size(x), trigamma))
            return kernel(x, trigamma)

        monkeypatch.setattr(approx, "_psi", counted)
        engine.sweep(state, data, hyper)
        # q(beta) of all K slots; each unheld slot's count of zeros, D_m
        # certain, in every group, and its count of ones, certain to be 0,
        # below P_PLUS_FLOOR
        unheld = (hyper.K - held) * groups
        assert len(calls) == 2
        assert calls[0] == (3 * groups + 3 * hyper.K, False)
        assert calls[1][1]
        assert 2 * unheld < calls[1][0] <= 2 * (2 * held * groups + unheld)


def assert_updated_as_rows_with_no_inclusion(before, after, hyper, slots):
    """Each of slots is updated by a sweep from before to after as a row
    with no inclusion: (a, b) as update_beta_params gives them from its
    table counts before, bit for bit; in every group E[s] exactly 0 and
    E[t] the exact mean table count of D_m certain customers
    (oracle.crt_mean_exact, which crt_mean_approx telescopes to for a
    certain count) at the concentration g = alpha (1 - beta)'s geometric
    mean at the pass's q(alpha) and q(beta), floored at GEO_FLOOR."""
    g_alpha = oracle.geo_gamma(before.alpha_shape, before.alpha_rate)
    for k in slots:
        a, b = engine.update_beta_params(before, hyper, k)
        assert (after.beta_a[k], after.beta_b[k]) == (a, b), k
        g_beta_bar = oracle.geo_beta(a, b)[1]
        for m, d_m in enumerate(before.dims):
            assert after.aux_s_mean[m, k] == 0.0, (m, k)
            g = max(float(g_alpha[m] * g_beta_bar), engine.GEO_FLOOR)
            want = min(oracle.crt_mean_exact(g, d_m), d_m)
            assert after.aux_t_mean[m, k] == pytest.approx(want, rel=1e-12), (m, k)


class TestSweepInvariants:
    def test_state_stays_valid_over_sweeps(self):
        data = make_dataset(seed=5, n=8, dims=(6, 5))
        hyper = Hyperparameters(K=4)
        state = init_state(data, hyper, seed=0)
        for _ in range(3):
            engine.sweep(state, data, hyper)
            state.validate()
            assert np.all(state.rho >= 0.0)
            assert np.all(state.rho <= 1.0)
            assert np.all(state.w_var > 0.0)
            assert np.all(state.tau_rate > 0.0)
            assert np.all(state.f_var > 0.0)

    def test_count_complementarity(self):
        data = make_dataset(seed=6, n=7, dims=(5, 4))
        hyper = Hyperparameters(K=3)
        state = init_state(data, hyper, seed=1)
        engine.sweep(state, data, hyper)
        for m in range(2):
            for rho_row in oracle.group_loadings(state, m)[0]:
                nhat = oracle.count_moments(rho_row)
                ntil = oracle.count_moments(1.0 - rho_row)
                total = nhat.mean + ntil.mean
                assert total == pytest.approx(state.dims[m], abs=1e-9)
                # a count and its complement share one Bernoulli variance
                assert ntil.variance == pytest.approx(nhat.variance, abs=1e-12)

    def test_prior_recovery_on_zero_data(self):
        data = GroupedDataset(
            [np.zeros((6, 5)), np.zeros((6, 4))], ["g0", "g1"]
        )
        hyper = Hyperparameters(K=3)
        state = init_state(data, hyper, seed=0)
        for _ in range(10):
            engine.sweep(state, data, hyper)
        # every loading the state still holds is near zero
        assert np.all(np.abs(state.w_mean) < 1e-6)

    def test_factors_outside_the_active_set_keep_their_collapsed_state(self):
        n, dims, k = 6, [5, 4], 4
        rng = np.random.default_rng(51)
        data = GroupedDataset(
            [rng.standard_normal((n, d)) for d in dims], ["g0", "g1"]
        )
        state = random_state(np.random.default_rng(52), n, dims, k)
        state.rho[1] = 0.0
        assert active_factors(state) == {0, 2, 3}
        before = state.copy()
        engine.sweep(state, data, Hyperparameters(K=k))
        for name in ("beta_a", "beta_b", "aux_s_mean", "aux_t_mean"):
            old, new = getattr(before, name), getattr(state, name)
            assert new[..., 1].tobytes() == old[..., 1].tobytes(), name
            # while the batch moved every active factor's
            assert np.all(new[..., [0, 2, 3]] != old[..., [0, 2, 3]]), name

    def test_inactive_factors_leave_the_sweep_at_the_prior(self):
        n, dims, k = 8, [5, 4], 4
        rng = np.random.default_rng(53)
        data = GroupedDataset(
            [rng.standard_normal((n, d)) for d in dims], ["g0", "g1"]
        )
        hyper = Hyperparameters(K=k)
        state = random_state(np.random.default_rng(54), n, dims, k)
        # factor 1 is inactive as the sweep begins, with its loadings and
        # scores away from the prior; factor 2 is active with little mass,
        # unsupported loadings and a large loading variance, so the loading
        # block prunes it
        state.rho[1] = 0.0
        state.rho[2] = 0.003
        state.w_mean[2] = 0.0
        state.w_var[2] = 50.0
        assert active_factors(state) == {0, 2, 3}
        before = state.copy()
        engine.sweep(state, data, hyper)
        # both leave the state: its rows are those of factors 0 and 3
        assert active_factors(state) == {0, 3}
        assert_holds_the_active_factors(state)
        assert state.rho.shape == (2, 9) and state.dims == [5, 4]
        for name in ("beta_a", "beta_b", "aux_s_mean", "aux_t_mean"):
            old, new = getattr(before, name), getattr(state, name)
            # frozen as it was for the factor inactive from the start, and
            # as the batch left it, before the prune, for the other
            assert new[..., 1].tobytes() == old[..., 1].tobytes(), name
            assert np.all(new[..., 2] != old[..., 2]), name

        # a further sweep leaves both exactly where they are
        after = state.copy()
        engine.sweep(state, data, hyper)
        for name in ("beta_a", "beta_b", "aux_s_mean", "aux_t_mean"):
            old, new = getattr(after, name), getattr(state, name)
            assert new[..., [1, 2]].tobytes() == old[..., [1, 2]].tobytes(), name
        assert list(state.factors) == [0, 3]

    def test_the_slots_the_warm_start_leaves_out_read_two_passes(self):
        from cvgfa.simdata import generate, simulation1_pattern

        data, _ = generate(simulation1_pattern(), 40, [25] * 4, seed=3)
        hyper = Hyperparameters(K=12)
        state = init_state(data, hyper, seed=0)
        unheld = [k for k in range(hyper.K) if k not in state.factors]
        assert unheld
        names = ("beta_a", "beta_b", "aux_s_mean", "aux_t_mean")
        for n_pass in range(4):
            before = state.copy()
            engine.sweep(state, data, hyper)
            assert set(unheld).isdisjoint(state.factors.tolist())
            if n_pass < 2:
                # rows with no inclusion; the first pass's q(beta) reads
                # table counts of 0, so it stays at the prior
                assert_updated_as_rows_with_no_inclusion(before, state, hyper, unheld)
                at_prior = [
                    (state.beta_a[k], state.beta_b[k]) == _beta_prior(hyper)
                    for k in unheld
                ]
                assert all(at_prior) == (n_pass == 0)
            else:
                # then they keep their values, as a pruned factor does
                for name in names:
                    old, new = getattr(before, name), getattr(state, name)
                    assert new[..., unheld].tobytes() == old[..., unheld].tobytes()

    def test_every_fitted_inactive_factor_is_at_the_prior(self):
        from cvgfa.simdata import generate, simulation1_pattern

        data, _ = generate(simulation1_pattern(), 40, [25] * 4, seed=3)
        hyper = Hyperparameters(K=12)
        # a state as fit returns it
        state = warmed_up(data, hyper, seed=0)
        inactive = set(range(hyper.K)) - active_factors(state)
        assert inactive
        # held no more: the state's rows are those of the active factors
        assert inactive.isdisjoint(state.factors.tolist())
        assert_holds_the_active_factors(state)

    def test_a_pruned_factor_never_returns(self):
        from cvgfa.simdata import generate, simulation1_pattern

        data, _ = generate(simulation1_pattern(), 40, [25] * 4, seed=3)
        hyper = Hyperparameters(K=12)
        state = init_state(data, hyper, seed=0)
        r_sig = spectral_start(data, hyper).loadings.shape[0]
        assert list(state.factors) == list(range(r_sig))
        held = [list(state.factors)]
        for _ in range(20):
            engine.sweep(state, data, hyper)
            state.validate()
            assert_holds_the_active_factors(state)
            # the factors held only ever shrink
            assert set(state.factors.tolist()) <= set(held[-1])
            held.append(list(state.factors))
        assert len(held[-1]) < hyper.K

    def test_aux_bounded_after_sweep(self):
        data = make_dataset(seed=7, n=6, dims=(5, 3))
        hyper = Hyperparameters(K=3)
        state = init_state(data, hyper, seed=2)
        engine.sweep(state, data, hyper)
        for m in range(2):
            for k in range(3):
                assert state.aux_s_mean[m, k] <= state.dims[m]
                assert state.aux_t_mean[m, k] <= state.dims[m]


class TestSweepMemory:
    def test_builds_no_group_sized_array(self):
        import tracemalloc

        from cvgfa.simdata import generate, simulation1_pattern

        data, _ = generate(simulation1_pattern(), 120, [400] * 4, seed=3)
        hyper = Hyperparameters(K=6)
        state = init_state(data, hyper, seed=0)
        # the first sweep after the warm start may still prune factors
        engine.sweep(state, data, hyper)
        tracemalloc.start()
        try:
            engine.sweep(state, data, hyper)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the N x K and K x D temporaries, the batch's two |A| x sum_m D_m
        # prior halves and the temporaries of the stacked row of a factor
        # (sum_m D_m columns) take 0.972 of one group's bytes here; one
        # N x D residual or reconstruction alone would take 1
        assert peak < data.groups[0].nbytes


class TestScoreBlock:
    """engine._score_block alone, with everything but the scores held fixed."""

    @staticmethod
    def setup(seed, pruned=None):
        """Random state on widths 6, 13 and 3, the block's inputs at it."""
        rng = np.random.default_rng(seed)
        n, dims, k = 7, (6, 13, 3), 4
        data = GroupedDataset(
            [rng.standard_normal((n, d)) for d in dims], ["g0", "g1", "g2"]
        )
        hyper = Hyperparameters(K=k)
        state = random_state(rng, n, dims, k)
        if pruned is not None:
            state.rho[pruned] = 0.0
        tau_bar = np.array(
            [hyper.tau_shape(d) / t for d, t in zip(dims, state.tau_rate)]
        )
        products = engine._loading_products(data.groups, state.rho * state.w_mean)
        blocks = [oracle.group_loadings(state, m) for m in range(len(dims))]
        second = np.array(
            [
                engine._loading_sums(r, w, v, r * w, [r.shape[1]])[0, 0]
                for r, w, v in blocks
            ]
        )
        # _score_block's arguments after the state, but for the factors
        return data, hyper, state, (tau_bar, *products, second)

    @pytest.mark.parametrize("pruned", [None, 2])
    @pytest.mark.parametrize("seed", range(10))
    def test_never_lowers_the_objective(self, seed, pruned):
        data, hyper, state, inputs = self.setup(seed, pruned)
        active = sorted(active_factors(state))
        assert (pruned is None) == (len(active) == hyper.K)

        # the whole block, and each column's update alone
        moved = state.copy()
        engine._score_block(moved, *inputs, active)
        assert engine.surrogate_elbo(moved, data, hyper) >= engine.surrogate_elbo(
            state, data, hyper
        )
        step = state.copy()
        for j in active:
            before = engine.surrogate_elbo(step, data, hyper)
            engine._score_block(step, *inputs, [j])
            assert engine.surrogate_elbo(step, data, hyper) >= before
        assert_states_bitwise_equal(step, moved)

        # nothing but the active factors' scores moves
        for name in ("f_mean", "f_var"):
            getattr(moved, name)[:, active] = getattr(state, name)[:, active]
        assert_states_bitwise_equal(moved, state)

    @pytest.mark.parametrize("seed", range(50, 55))
    def test_each_column_lands_on_its_maximiser(self, seed):
        # moving a just-updated column's means or variances either way
        # lowers the objective: the update is the column's exact maximiser
        data, hyper, state, inputs = self.setup(seed)
        for j in range(hyper.K):
            engine._score_block(state, *inputs, [j])
            top = engine.surrogate_elbo(state, data, hyper)
            shifts = [("f_mean", 1e-3), ("f_var", 1e-3 * state.f_var[:, j])]
            for name, shift in shifts:
                for sign in (1.0, -1.0):
                    moved = state.copy()
                    getattr(moved, name)[:, j] += sign * shift
                    assert engine.surrogate_elbo(moved, data, hyper) < top


class TestNoiseBlock:
    """The q(tau) rates a sweep leaves are the objective's exact maximiser
    given everything else: the sweep updates them last."""

    @staticmethod
    def swept(case):
        from cvgfa.simdata import generate, simulation1_pattern

        if case == "sim1":
            # test_single_sweep_from_init_increases_objective's draw
            data, _ = generate(simulation1_pattern(), 40, [25] * 4, seed=1)
            hyper = Hyperparameters(K=12)
            state = init_state(data, hyper, seed=0)
        else:
            data = make_dataset(seed=9, n=10, dims=(8, 6))
            hyper = Hyperparameters(K=3)
            state = random_state(np.random.default_rng(9), 10, (8, 6), 3)
        engine.sweep(state, data, hyper)
        return data, hyper, state

    @pytest.mark.parametrize("case", ["sim1", "random"])
    def test_each_group_lands_on_its_maximiser(self, case):
        data, hyper, state = self.swept(case)
        top = engine.surrogate_elbo(state, data, hyper)
        for m in range(state.n_groups):
            for scale in (1.0 + 1e-2, 1.0 - 1e-2):
                moved = state.copy()
                moved.tau_rate[m] *= scale
                assert engine.surrogate_elbo(moved, data, hyper) < top


@functools.cache
def _fitted_acceptance():
    """The criterion fixture's data (sim1, N=100, 4 x 100, data seed 0)
    and restart seed 0's fitted state at K=30, most of its factors pruned
    to the prior."""
    from cvgfa.simdata import generate, simulation1_pattern

    data, _ = generate(simulation1_pattern(), 100, [100] * 4, seed=0)
    hyper = Hyperparameters(K=30)
    report = engine.fit(data, hyper, FitOptions(seed=0))
    return data, hyper, report.final_state


def elbo_case(name):
    """(state, data, hyper) of one objective test case, a fresh state."""
    from cvgfa.simdata import generate, simulation1_pattern

    if name.startswith("random"):
        seed = int(name[-1])
        # K = 3 is a K where kappa0 (K - 1) / K and kappa0 (1 - 1/K) differ
        # in the last bit: q(beta)'s prior (model._beta_prior) is the latter
        k = 3 if name.startswith("random-k3") else 4
        dims = (4, 9, 3)
        data = make_dataset(seed=seed, n=7, dims=dims)
        state = random_state(np.random.default_rng(seed), 7, dims, k)
        hyper = Hyperparameters(K=k)
        if name.startswith("random-priors"):
            hyper = Hyperparameters(K=k, e0=0.3, f0=0.7, g0=2.0, h0=0.4)
        return state, data, hyper
    if name == "init":
        data, _ = generate(simulation1_pattern(), 40, [25] * 4, seed=1)
        hyper = Hyperparameters(K=12)
        return init_state(data, hyper, seed=0), data, hyper
    data, hyper, fitted = _fitted_acceptance()
    state = fitted.copy()
    pruned = sorted(set(range(hyper.K)) - active_factors(state))
    assert pruned and list(state.factors) == sorted(active_factors(state))
    if name == "fitted-kept":
        # a pruned factor's row held, exactly at the prior
        state = holding(state, hyper, state.factors.tolist() + pruned[:1])
        assert pruned[0] in state.factors
    return state, data, hyper


ELBO_CASES = [
    "random-0",
    "random-1",
    "random-2",
    "random-priors-3",
    "random-k3-4",
    "init",
    "fitted",
    "fitted-kept",
]


class TestSurrogateElbo:
    def test_empty_state_is_zero(self):
        state = VariationalState(
            rho=np.zeros((0, 0)),
            w_mean=np.zeros((0, 0)),
            w_var=np.zeros((0, 0)),
            dims=[],
            f_mean=np.zeros((0, 0)),
            f_var=np.zeros((0, 0)),
            beta_a=np.zeros(0),
            beta_b=np.zeros(0),
            tau_rate=np.zeros((0, 0)),
            alpha_shape=np.zeros(0),
            alpha_rate=np.zeros(0),
            aux_s_mean=np.zeros((0, 0)),
            aux_t_mean=np.zeros((0, 0)),
        )
        data = GroupedDataset([], [])
        hyper = Hyperparameters(K=0)
        assert engine.surrogate_elbo(state, data, hyper) == 0.0

    def test_finite_on_random_states(self):
        for seed in range(3):
            rng = np.random.default_rng(seed)
            dims = [4, 3]
            data = GroupedDataset(
                [rng.standard_normal((5, d)) for d in dims], ["g0", "g1"]
            )
            state = random_state(rng, 5, dims, 3)
            hyper = Hyperparameters(K=3)
            assert math.isfinite(engine.surrogate_elbo(state, data, hyper))

    def test_given_norms_give_the_same_value(self):
        data = make_dataset(seed=8, n=6, dims=(4, 3))
        state = random_state(np.random.default_rng(8), 6, (4, 3), 3)
        hyper = Hyperparameters(K=3)
        norms = [
            engine._sq_norms(
                engine._row_norms([x]),
                state.f_mean,
                *engine._loading_products([x], engine.expected_loadings(state, m)),
            )[0]
            for m, x in enumerate(data.groups)
        ]
        assert engine.surrogate_elbo(
            state, data, hyper, norms=norms
        ) == engine.surrogate_elbo(state, data, hyper)

    @pytest.mark.parametrize("case", ELBO_CASES)
    def test_matches_the_term_by_term_oracle(self, case):
        # the closed-form q(lambda) and q(tau) terms against the textbook
        # form with psi of their shapes and the general gamma gap
        state, data, hyper = elbo_case(case)
        assert_allclose(
            engine.surrogate_elbo(state, data, hyper),
            oracle.surrogate_elbo(oracle.full_state(state, hyper), data, hyper),
            rtol=1e-12,
        )

    def test_takes_digamma_twice(self, monkeypatch):
        # once on the alpha shapes, whose exp(psi) / rate are also the
        # collapsed term's geometric means, and once on q(beta)'s a, b, a + b
        state, data, hyper = elbo_case("random-0")
        calls = []

        def counted(x):
            calls.append(np.shape(x))
            return digamma(x)

        def refused(*args):
            raise AssertionError("geo_expect_gamma called")

        monkeypatch.setattr(engine, "digamma", counted)
        monkeypatch.setattr(engine, "geo_expect_gamma", refused)
        engine.surrogate_elbo(state, data, hyper)
        assert calls == [(state.n_groups,), (3, hyper.K)]

    def test_prior_loading_term_is_the_per_entry_sum(self):
        # the closed form the objective adds for the factors at the prior
        hyper = Hyperparameters(K=30, e0=0.3, f0=0.7)
        n = 24 * 8000
        prior = np.full(n, hyper.f0 / hyper.e0)
        want = engine._loading_terms(np.zeros(n), prior, hyper)
        got = n * engine._prior_loading_term(hyper)
        assert_allclose(got, want, rtol=1e-12)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_factors_at_the_prior_add_their_per_entry_terms(self, seed):
        # a state that holds the pruned factors' rows, exactly at the prior,
        # sums their terms entry by entry; the one without them adds the
        # closed-form prior term instead, and the two must agree
        from cvgfa.simdata import generate, simulation1_pattern

        data, _ = generate(simulation1_pattern(), 40, [25] * 4, seed=seed)
        hyper = Hyperparameters(K=12)
        state = warmed_up(data, hyper, seed=seed)
        pruned = sorted(set(range(hyper.K)) - active_factors(state))
        assert pruned
        per_entry = oracle.full_state(state, hyper)
        assert list(per_entry.factors) == list(range(hyper.K))
        assert_allclose(
            engine.surrogate_elbo(state, data, hyper),
            engine.surrogate_elbo(per_entry, data, hyper),
            rtol=1e-12,
        )

    def test_single_sweep_from_init_increases_objective(self):
        from cvgfa.simdata import generate, simulation1_pattern

        data, _ = generate(simulation1_pattern(), 40, [25] * 4, seed=1)
        hyper = Hyperparameters(K=8)
        state = init_state(data, hyper, seed=0)
        before = engine.surrogate_elbo(state, data, hyper)
        engine.sweep(state, data, hyper)
        after = engine.surrogate_elbo(state, data, hyper)
        assert after > before

    def test_first_sweep_from_cold_state_is_a_large_ascent(self):
        data = make_dataset(seed=9, n=10, dims=(8, 6))
        hyper = Hyperparameters(K=3)
        state = random_state(np.random.default_rng(9), 10, (8, 6), 3)
        before = engine.surrogate_elbo(state, data, hyper)
        engine.sweep(state, data, hyper)
        after = engine.surrogate_elbo(state, data, hyper)
        assert after > before


class TestFit:
    def test_single_sweep_budget(self):
        data = make_dataset(seed=10, n=6, dims=(4, 3))
        hyper = Hyperparameters(K=2)
        report = engine.fit(data, hyper, FitOptions(max_sweeps=1))
        # one sweep, at the cap, which takes the fit's objective
        assert report.sweeps_run == len(report.trace) == 1
        assert report.converged is False
        ((objective, mse, k_active),) = report.trace
        assert math.isfinite(objective)
        assert mse >= 0.0
        assert isinstance(k_active, int)

    def test_trace_length_matches_sweeps(self):
        data = make_dataset(seed=11, n=6, dims=(4, 3))
        hyper = Hyperparameters(K=2)
        report = engine.fit(data, hyper, FitOptions(max_sweeps=5))
        assert len(report.trace) == report.sweeps_run <= 5
        # only the last row has an objective
        assert [row[0] is None for row in report.trace] == [True] * (
            report.sweeps_run - 1
        ) + [False]

    def test_bitwise_deterministic(self):
        data = make_dataset(seed=12, n=8, dims=(5, 4))
        hyper = Hyperparameters(K=3)
        opts = FitOptions(max_sweeps=6, seed=4)
        a = engine.fit(data, hyper, opts)
        b = engine.fit(data, hyper, opts)
        assert a.trace == b.trace
        assert a.converged == b.converged
        assert np.array_equal(a.final_state.rho, b.final_state.rho)
        assert np.array_equal(a.final_state.w_mean, b.final_state.w_mean)
        assert np.array_equal(a.final_state.f_mean, b.final_state.f_mean)

    @pytest.mark.parametrize("fail_at", [1, 2])
    def test_abort_names_the_sweep(self, monkeypatch, fail_at):
        data = make_dataset(seed=19, n=6, dims=(4, 3))
        sweep = engine.sweep
        calls = []

        def spy(*args, **kwargs):
            calls.append(None)
            if len(calls) == fail_at:
                raise NumericalError("planted", context={"group": 1})
            return sweep(*args, **kwargs)

        monkeypatch.setattr(engine, "sweep", spy)
        with pytest.raises(NumericalError) as info:
            engine.fit(data, Hyperparameters(K=2), FitOptions(max_sweeps=2))
        # numbered as trace.csv numbers its rows, from 1
        assert info.value.context == {"sweep": fail_at, "group": 1}
        assert len(calls) == fail_at

    def test_a_non_finite_objective_names_the_last_sweep(self, monkeypatch):
        data = make_dataset(seed=19, n=6, dims=(4, 3))
        monkeypatch.setattr(engine, "surrogate_elbo", lambda *a, **k: math.nan)
        with pytest.raises(NumericalError, match="non-finite objective") as info:
            engine.fit(data, Hyperparameters(K=2), FitOptions(max_sweeps=3))
        assert info.value.context == {"sweep": 3}

    def test_acceptance_fit_raises_no_floating_point_warning(self):
        from cvgfa.simdata import generate, simulation1_pattern

        # the criterion fixture: sim1, N=100, 4 x 100, K=30, data seed 0
        data, _ = generate(simulation1_pattern(), 100, [100] * 4, seed=0)
        with warnings.catch_warnings(), np.errstate(
            over="warn", invalid="warn", divide="warn"
        ):
            warnings.simplefilter("error", RuntimeWarning)
            report = engine.fit(data, Hyperparameters(K=30), FitOptions(seed=0))
        assert report.converged

    def test_warm_up_runs_inside_fit(self, monkeypatch):
        # fit starts from init_state's warm start and sweeps it until the
        # rule holds, every sweep under fit and a row of the trace
        from cvgfa.simdata import generate, simulation1_pattern

        data, _ = generate(simulation1_pattern(), 30, [12] * 4, seed=1)
        hyper = Hyperparameters(K=8)
        sweep = engine.sweep
        calls = []

        def spy(*args, **kwargs):
            calls.append(None)
            return sweep(*args, **kwargs)

        monkeypatch.setattr(engine, "sweep", spy)
        report = engine.fit(data, hyper, FitOptions(seed=3))
        assert report.converged is True
        # the rule reads three changes, so four sweeps at the least
        assert len(calls) == report.sweeps_run >= 4
        state = init_state(data, hyper, seed=3)
        rows = []
        for _ in range(report.sweeps_run):
            norms = sweep(state, data, hyper)
            rows.append((None, engine._norms_mse(norms, data.dims), len(state.factors)))
        assert report.trace[:-1] == rows[:-1]
        assert report.trace[-1][1:] == rows[-1][1:]
        assert_states_bitwise_equal(report.final_state, state)

    def test_the_objective_is_taken_once_of_the_final_state(self, monkeypatch):
        from cvgfa.simdata import generate, simulation1_pattern

        data, _ = generate(simulation1_pattern(), 30, [12] * 4, seed=1)
        hyper = Hyperparameters(K=8)
        surrogate_elbo = engine.surrogate_elbo
        calls = []

        def spy(*args, **kwargs):
            calls.append(None)
            return surrogate_elbo(*args, **kwargs)

        monkeypatch.setattr(engine, "surrogate_elbo", spy)
        report = engine.fit(data, hyper, FitOptions(seed=3))
        assert report.sweeps_run > 1
        assert len(calls) == 1
        want = surrogate_elbo(report.final_state, data, hyper)
        assert report.trace[-1][0] == want
        assert all(row[0] is None for row in report.trace[:-1])

    def test_a_warm_up_at_its_cap_is_recorded(self):
        # a fit that the cap, not the rule, ends
        data = make_dataset(seed=13, n=5, dims=(3,))
        report = engine.fit(data, Hyperparameters(K=2), FitOptions(max_sweeps=2))
        assert report.sweeps_run == 2
        assert report.trace[0][0] is None and math.isfinite(report.trace[1][0])
        assert report.converged is False

    @pytest.mark.parametrize("cap", [1, 3, 10])
    def test_max_sweeps_bounds_the_sweeps(self, cap):
        from cvgfa.simdata import generate, simulation1_pattern

        data, _ = generate(simulation1_pattern(), 30, [12] * 4, seed=1)
        hyper = Hyperparameters(K=8)
        free = engine.fit(data, hyper, FitOptions(seed=3))
        # the rule alone would take more sweeps than the cap
        assert free.converged and free.sweeps_run > cap
        report = engine.fit(data, hyper, FitOptions(max_sweeps=cap, seed=3))
        assert report.sweeps_run == cap
        assert report.converged is False
        # the same sweeps; only the capped fit's last row has an objective
        assert report.trace[: cap - 1] == free.trace[: cap - 1]
        assert report.trace[-1][1:] == free.trace[cap - 1][1:]
        assert free.trace[cap - 1][0] is None

    def test_metadata_names_the_collapsed_term(self):
        data = make_dataset(seed=13, n=5, dims=(3,))
        report = engine.fit(data, Hyperparameters(K=2), FitOptions(max_sweeps=1))
        assert report.metadata == {
            "collapsed_z_term": engine.COLLAPSED_Z_METHOD,
            "convergence_monitor": "train_mse",
            "seed": 0,
        }


class TestExpectedLoadings:
    def test_elementwise_product(self):
        state = make_state([[[0.5, 0.0], [1.0, 0.25]]], w_mean=[[[2.0, 3.0], [1.5, 4.0]]])
        g = engine.expected_loadings(state, 0)
        assert_allclose(g, [[1.0, 0.0], [1.5, 1.0]], atol=1e-15)


def predict_once(state, hyper, observed):
    """(mean, covariance) of one sample through condition_scores and
    predict_factors."""
    posterior = engine.condition_scores(state, hyper, observed)
    return engine.predict_factors(posterior, observed), posterior.covariance


class TestPredictFactors:
    def test_zero_loadings_return_prior(self):
        state = make_state([np.zeros((3, 4))], n=2)
        mean, cov = predict_once(state, PRIOR, {0: np.ones(4)})
        assert_allclose(mean, np.zeros(3), atol=1e-15)
        assert_allclose(cov, np.eye(3), atol=1e-12)

    def test_single_factor_matches_least_squares(self):
        w = np.array([[1.0, 2.0, -1.0]])
        state = make_state(
            [np.ones((1, 3))],
            w_mean=[w],
            w_var=[np.zeros((1, 3))],
            tau_rate=[[PRIOR.tau_shape(3) * 1e-6]],
            n=1,
        )
        x = 2.5 * w[0]
        mean, _ = predict_once(state, PRIOR, {0: x})
        ls = float(w[0] @ x) / float(w[0] @ w[0])
        assert mean[0] == pytest.approx(ls, rel=1e-5)

    def test_noise_precision_uses_the_derived_shape(self):
        # E[tau] = tau_shape(3) / rate = 2: mean = tau w.x / (1 + tau w.w)
        w = np.array([[1.0, 2.0, -1.0]])
        state = make_state(
            [np.ones((1, 3))],
            w_mean=[w],
            w_var=[np.zeros((1, 3))],
            tau_rate=[[PRIOR.tau_shape(3) / 2.0]],
            n=1,
        )
        mean, cov = predict_once(state, PRIOR, {0: 2.5 * w[0]})
        assert mean[0] == pytest.approx(2.0 * 15.0 / 13.0, rel=1e-14)
        assert cov[0, 0] == pytest.approx(1.0 / 13.0, rel=1e-14)

    def test_group_order_does_not_matter(self):
        rng = np.random.default_rng(14)
        state = random_state(rng, 4, [5, 3], 2)
        xa = rng.standard_normal(5)
        xb = rng.standard_normal(3)
        m1, c1 = predict_once(state, PRIOR, {0: xa, 1: xb})
        m2, c2 = predict_once(state, PRIOR, {1: xb, 0: xa})
        assert np.array_equal(m1, m2)
        assert np.array_equal(c1, c2)

    def test_rejects_bad_input(self):
        state = make_state([np.zeros((2, 3))])
        with pytest.raises(UsageError):
            engine.condition_scores(state, PRIOR, [])
        with pytest.raises(DataError):
            predict_once(state, PRIOR, {0: np.ones(5)})

    def test_rejects_bad_groups(self):
        rng = np.random.default_rng(19)
        state = random_state(rng, 4, [5, 3, 2], 2)
        for groups in ([0, 0], [3], [-1]):
            with pytest.raises(UsageError):
                engine.condition_scores(state, PRIOR, groups)
        posterior = engine.condition_scores(state, PRIOR, [0, 2])
        xs = {m: np.ones(d) for m, d in enumerate(state.dims)}
        for groups in ([], [0], [2], [0, 1], [0, 1, 2]):
            with pytest.raises(UsageError):
                engine.predict_factors(posterior, {m: xs[m] for m in groups})
        with pytest.raises(DataError):
            engine.predict_factors(posterior, {0: xs[0], 2: np.ones(3)})

    def test_posterior_is_read_only(self):
        rng = np.random.default_rng(20)
        state = random_state(rng, 4, [5, 3], 2)
        posterior = engine.condition_scores(state, PRIOR, [0, 1])
        with pytest.raises(ValueError):
            posterior.covariance[0, 0] = 1.0
        with pytest.raises(ValueError):
            posterior.loadings[0][0, 0] = 1.0
        # the loadings are copies: the state's arrays stay writable
        state.rho[0, 0] = 0.5


class TestConditionedMatchesOracle:
    """The once-per-command posterior gives oracle.predict_factors's
    rebuild-per-sample values bit for bit, both over the rows the state
    holds; against the oracle on all K rows, it gives the oracle's entries
    at state.factors, and every other factor keeps its prior N(0, 1)."""

    @staticmethod
    def state_with_pruned_factor(seed):
        rng = np.random.default_rng(seed)
        state = random_state(rng, 9, [13, 40, 7, 25], 5)
        state.rho[3] = 0.0  # factor 3 is pruned in every group
        assert active_factors(state) == {0, 1, 2, 4}
        # and leaves the state, as a sweep would drop it
        _keep_rows(state, np.array([True, True, True, False, True]))
        assert list(state.factors) == [0, 1, 2, 4]
        return state, rng

    @pytest.mark.parametrize("seed", [21, 22])
    @pytest.mark.parametrize(
        "groups", [(2, 0), (3, 1, 0), (1,), (3, 2, 1, 0), (1, 3, 0, 2)]
    )
    def test_bitwise_equal_to_oracle(self, seed, groups):
        state, rng = self.state_with_pruned_factor(seed)
        posterior = engine.condition_scores(state, PRIOR, groups)
        assert posterior.groups == tuple(sorted(groups))
        for _ in range(3):
            observed = {m: rng.standard_normal(state.dims[m]) for m in groups}
            mean, cov = oracle.predict_factors(state, PRIOR, observed)
            assert np.array_equal(engine.predict_factors(posterior, observed), mean)
            assert np.array_equal(posterior.covariance, cov)

    def test_row_slices_bitwise_equal_to_oracle(self):
        # cmd_reconstruct passes slices of one row of the observed matrix
        state, rng = self.state_with_pruned_factor(23)
        groups = (3, 0)
        rows = rng.standard_normal((4, state.dims[3] + state.dims[0]))
        posterior = engine.condition_scores(state, PRIOR, groups)
        for row in rows:
            observed = {3: row[:25], 0: row[25:]}
            mean, _ = oracle.predict_factors(state, PRIOR, observed)
            assert np.array_equal(engine.predict_factors(posterior, observed), mean)

    @pytest.mark.parametrize("seed", [21, 22])
    @pytest.mark.parametrize("groups", [(2, 0), (1,), (3, 2, 1, 0)])
    def test_held_rows_are_the_oracles_at_their_ids(self, seed, groups):
        # with factor 3 dropped, the package conditions 4 x 4 where the
        # oracle, on all K rows, conditions 5 x 5 with factor 3 at the prior:
        # the inverses round apart, so the held entries agree to rounding
        state, rng = self.state_with_pruned_factor(seed)
        held = state.factors
        posterior = engine.condition_scores(state, PRIOR, groups)
        for _ in range(3):
            observed = {m: rng.standard_normal(state.dims[m]) for m in groups}
            mean, cov = oracle.predict_factors(
                oracle.full_state(state, PRIOR), PRIOR, observed
            )
            # factor 3 keeps its prior, whatever is observed
            assert mean[3] == 0.0
            assert np.array_equal(cov[3], np.eye(5)[3])
            assert np.array_equal(cov[:, 3], np.eye(5)[:, 3])
            got = engine.predict_factors(posterior, observed)
            assert_allclose(got, mean[held], rtol=0, atol=1e-14 * np.abs(mean).max())
            want = cov[np.ix_(held, held)]
            assert_allclose(
                posterior.covariance, want, rtol=0, atol=1e-14 * np.abs(want).max()
            )


class TestReconstructGroup:
    def test_zero_factors(self):
        state = make_state([np.full((2, 3), 0.5)], w_mean=[np.ones((2, 3))])
        out = engine.reconstruct_group(state, np.zeros((4, 2)), 0)
        assert np.all(out == 0.0)
        assert out.shape == (4, 3)

    def test_unit_factor_emits_loading_row(self):
        w = np.array([[1.5, -2.0, 0.5]])
        state = make_state([np.ones((1, 3))], w_mean=[w])
        out = engine.reconstruct_group(state, np.array([[1.0]]), 0)
        assert_allclose(out[0], w[0], atol=1e-15)

    def test_linearity(self):
        rng = np.random.default_rng(15)
        state = random_state(rng, 4, [5], 3)
        fm = rng.standard_normal((6, 3))
        once = engine.reconstruct_group(state, fm, 0)
        twice = engine.reconstruct_group(state, 2.0 * fm, 0)
        assert_allclose(twice, 2.0 * once, rtol=1e-12)

    def test_rejects_bad_shape(self):
        state = make_state([np.zeros((2, 3))])
        with pytest.raises(DataError):
            engine.reconstruct_group(state, np.zeros((4, 3)), 0)


class TestRunRestarts:
    def test_seed_sequence(self):
        data = make_dataset(seed=16, n=6, dims=(4, 3))
        hyper = Hyperparameters(K=2)
        opts = FitOptions(max_sweeps=2, seed=5)
        results = engine.run_restarts(data, hyper, opts, n_restarts=3)
        assert [r["seed"] for r in results] == [5, 6, 7]
        assert all(r["error"] is None for r in results)
        # two sweeps, at the cap, too few for the stopping rule
        assert all(len(r["report"].trace) == 2 for r in results)
        assert all(r["report"].converged is False for r in results)

    def test_worker_count_does_not_change_results(self):
        data = make_dataset(seed=18, n=8, dims=(5, 4))
        hyper = Hyperparameters(K=3)
        opts = FitOptions(max_sweeps=3, seed=0)
        serial = engine.run_restarts(data, hyper, opts, n_restarts=2, workers=1)
        parallel = engine.run_restarts(data, hyper, opts, n_restarts=2, workers=2)
        for a, b in zip(serial, parallel):
            assert a["seed"] == b["seed"]
            assert a["report"].trace == b["report"].trace
            # states come back from the workers through pickle
            assert_states_bitwise_equal(a["report"].final_state, b["report"].final_state)
            assert_stacked_layout(b["report"].final_state)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_one_shared_start_read_only_and_unchanged(self, monkeypatch, workers):
        data = make_dataset(seed=20, n=9, dims=(13, 7))
        hyper = Hyperparameters(K=4)
        starts = []

        def spy(*args):
            starts.append(spectral_start(*args))
            return starts[-1]

        monkeypatch.setattr(engine, "spectral_start", spy)
        results = engine.run_restarts(
            data, hyper, FitOptions(max_sweeps=3), n_restarts=3, workers=workers
        )
        assert all(r["error"] is None for r in results)
        (start,) = starts
        fresh = spectral_start(data, hyper)
        for got, want in (
            (start.scores, fresh.scores),
            (start.loadings, fresh.loadings),
            *zip(start.row_norms, fresh.row_norms),
        ):
            assert not got.flags.writeable
            assert got.tobytes() == want.tobytes()

    def test_each_restart_is_the_fit_alone(self):
        data = make_dataset(seed=21, n=9, dims=(13, 7))
        hyper = Hyperparameters(K=4)
        opts = FitOptions(max_sweeps=4, seed=3)
        results = engine.run_restarts(data, hyper, opts, n_restarts=2)
        for res in results:
            alone = engine.fit(data, hyper, dataclasses.replace(opts, seed=res["seed"]))
            assert res["report"].trace == alone.trace
            assert_states_bitwise_equal(res["report"].final_state, alone.final_state)

    def test_rejects_zero_restarts(self):
        data = make_dataset()
        with pytest.raises(UsageError):
            engine.run_restarts(data, Hyperparameters(K=2), FitOptions(), 0)

    # int() would run 2.7 as 2 restarts, True as 1 and 1.5 workers serially,
    # and raise OverflowError or ValueError on inf or NaN
    @pytest.mark.parametrize("n_restarts", [2.7, True, math.inf, math.nan, -1])
    def test_rejects_a_restart_count_that_is_not_whole(self, n_restarts):
        with pytest.raises(UsageError, match="n_restarts must be an integer"):
            engine.run_restarts(
                make_dataset(), Hyperparameters(K=2), FitOptions(), n_restarts
            )

    @pytest.mark.parametrize("workers", [1.5, True, math.inf, math.nan, 0])
    def test_rejects_a_worker_count_that_is_not_whole(self, workers):
        with pytest.raises(UsageError, match="workers must be an integer"):
            engine.run_restarts(
                make_dataset(), Hyperparameters(K=2), FitOptions(), 2, workers=workers
            )

    def test_whole_floats_are_counts(self):
        data, hyper = make_dataset(), Hyperparameters(K=2)
        opts = FitOptions(max_sweeps=2)
        results = engine.run_restarts(data, hyper, opts, 2.0, workers=1.0)
        assert [r["seed"] for r in results] == [0, 1]
