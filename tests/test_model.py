"""Tests for domain types and state initialization."""

import dataclasses
import math
import pickle
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose

import oracle
from cvgfa import engine, model
from cvgfa.errors import DataError, UsageError
from cvgfa.model import (
    ACTIVE_MASS,
    FitOptions,
    GroupedDataset,
    Hyperparameters,
    VariationalState,
    active_factors,
    init_state,
)

BLOCK_FIELDS = ("rho", "w_mean", "w_var")


def make_dataset(seed=0, n=6, dims=(4, 3)):
    rng = np.random.default_rng(seed)
    groups = [rng.standard_normal((n, d)) for d in dims]
    return GroupedDataset(groups, [f"g{i}" for i in range(len(dims))])


def holding_all(data, hyper, seed):
    """init_state's warm start holding all K factors, the ones it leaves at
    the prior at the prior (oracle.full_state): a state for the tests of
    rows that need every factor held."""
    return oracle.full_state(init_state(data, hyper, seed), hyper)


def warmed_up(data, hyper, seed, max_sweeps=FitOptions.max_sweeps):
    """The state engine.fit returns at the default stopping rule, at most
    max_sweeps sweeps from init_state's warm start (0: the warm start)."""
    if max_sweeps == 0:
        return init_state(data, hyper, seed)
    opts = FitOptions(max_sweeps=max_sweeps, seed=seed)
    return engine.fit(data, hyper, opts).final_state


def assert_stacked_layout(state):
    """Each of rho, w_mean and w_var is one C-contiguous K+ x sum(D_m)
    float64 array, one row per held factor, whose spans[m] are exactly
    group m's columns; tau_rate is one C-contiguous M x N array; f_mean and
    f_var are N x K+ in Fortran order."""
    K, dims = len(state.factors), state.dims
    assert all(type(d) is int for d in dims)
    ends = np.cumsum(dims).tolist()
    assert state.spans == [slice(e - d, e) for e, d in zip(ends, dims)]
    for name in ("f_mean", "f_var"):
        scores = getattr(state, name)
        assert scores.shape == (state.n_samples, K), name
        assert scores.flags.f_contiguous and scores.flags.writeable, name
    shapes = {name: (K, sum(dims)) for name in BLOCK_FIELDS}
    shapes["tau_rate"] = (len(dims), state.n_samples)
    for name, shape in shapes.items():
        whole = getattr(state, name)
        assert type(whole) is np.ndarray, name
        assert whole.shape == shape and whole.dtype == np.float64, name
        assert whole.flags.c_contiguous and whole.flags.writeable, name


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
        "value", [2.7, True, False, math.inf, -math.inf, math.nan, "3"]
    )
    def test_rejects_a_truncation_that_is_not_a_whole_number(self, value):
        # int() would take 2.7 for 2 and True for 1, and raise OverflowError
        # at inf and ValueError at nan
        with pytest.raises(UsageError, match="truncation level K"):
            Hyperparameters(K=value).validate()

    @pytest.mark.parametrize("value", [1, 3.0, np.int64(7)])
    def test_accepts_a_whole_truncation(self, value):
        Hyperparameters(K=value).validate()

    @pytest.mark.parametrize(
        "name, value",
        [(name, math.inf) for name in ("kappa0", "c0", "d0", "e0", "f0", "g0", "h0")]
        + [("e0", -math.inf), ("e0", math.nan)],
    )
    def test_rejects_non_finite_values(self, name, value):
        with pytest.raises(UsageError, match=f"{name} must be positive and finite"):
            Hyperparameters(K=5, **{name: value}).validate()

    @pytest.mark.parametrize("name", ["kappa0", "c0", "h0"])
    @pytest.mark.parametrize("value", [True, False, "0.1", None, [0.1], 10**400])
    def test_rejects_a_value_that_is_not_a_real_number(self, name, value):
        # a bool compares as 0 or 1, a string or None does not compare
        # with a number, and 10**400 overflows a float
        with pytest.raises(UsageError, match=f"{name} must be positive and finite"):
            Hyperparameters(K=5, **{name: value}).validate()

    @pytest.mark.parametrize("value", [1, np.float64(0.5), np.int64(2)])
    def test_accepts_integers_and_numpy_scalars(self, value):
        Hyperparameters(K=5, kappa0=value, c0=value).validate()


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

    @pytest.mark.parametrize("name", ["max_sweeps", "seed"])
    @pytest.mark.parametrize(
        "value", [math.inf, -math.inf, math.nan, 2.7, -0.5, True, False, "3"]
    )
    def test_rejects_a_count_that_is_not_a_whole_number(self, name, value):
        # int() would truncate 2.7 and -0.5, take True for 1 and raise
        # OverflowError at inf and ValueError at nan
        with pytest.raises(UsageError, match=name):
            FitOptions(**{name: value}).validate()

    @pytest.mark.parametrize("value", [1, 3.0, np.int64(7), np.float64(2.0), 10**30])
    def test_accepts_whole_numbers(self, value):
        FitOptions(max_sweeps=value, seed=value).validate()

    @pytest.mark.parametrize("tol", [math.inf, math.nan])
    def test_rejects_a_non_finite_tolerance(self, tol):
        # at inf the rule would hold at once, whatever the MSE does
        message = "rel_tolerance must be positive and finite"
        with pytest.raises(UsageError, match=message):
            FitOptions(rel_tolerance=tol).validate()

    @pytest.mark.parametrize("tol", [True, "5e-7", None, 10**400])
    def test_rejects_a_tolerance_that_is_not_a_real_number(self, tol):
        # a bool compares as 1, a string or None does not compare with a
        # number, and 10**400 overflows the stopping rule's float product
        with pytest.raises(UsageError, match="rel_tolerance"):
            FitOptions(rel_tolerance=tol).validate()


class TestInitState:
    def test_shapes_and_validity(self):
        data = make_dataset(dims=(4, 3))
        hyper = Hyperparameters(K=5)
        state = init_state(data, hyper, seed=7)
        state.validate()
        assert state.n_groups == 2
        assert state.n_factors == 5
        assert state.n_samples == 6
        # no sweep has pruned a factor: every one is active and held
        held = sorted(active_factors(state))
        assert list(state.factors) == held
        assert state.rho.shape == (len(held), 7)
        assert state.spans == [slice(0, 4), slice(4, 7)]
        assert np.all(state.rho >= 0.0) and np.all(state.rho <= 1.0)
        assert state.f_mean.shape == (6, len(held))
        assert_stacked_layout(state)

    def test_posterior_shaped_precisions(self):
        data = make_dataset(dims=(4, 3))
        hyper = Hyperparameters(K=10)
        state = init_state(data, hyper, seed=0)
        assert hyper.lambda_shape == hyper.e0 + 0.5
        assert hyper.tau_shape(4) == hyper.g0 + 0.5 * 4
        assert hyper.tau_shape(3) == hyper.g0 + 0.5 * 3
        lambda_rate = model._lambda_rate(state.w_mean, state.w_var, hyper.f0)
        assert np.all(lambda_rate >= hyper.f0)
        assert np.all(state.tau_rate[0] > 0)
        assert all(oracle.update_eta(state, m) <= 0 for m in range(state.n_groups))

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
        recon = [state.f_mean @ engine.expected_loadings(state, m) for m in range(2)]
        sq = sum(float(((g - r) ** 2).sum()) for g, r in zip(groups, recon))
        mse = sq / sum(g.size for g in groups)
        assert mse < 1.3  # near the unit noise floor
        assert len(active_factors(state)) >= 1

    def test_stationary_under_extra_sweep(self):
        # the warm start as fit leaves it
        data = make_dataset(seed=3, n=30, dims=(8, 6))
        hyper = Hyperparameters(K=4)
        state = warmed_up(data, hyper, seed=1)

        def mse(st):
            sq = 0.0
            for m in range(2):
                r = data.groups[m] - st.f_mean @ engine.expected_loadings(st, m)
                sq += float((r * r).sum())
            return sq / sum(g.size for g in data.groups)

        before = mse(state)
        engine.sweep(state, data, hyper)
        after = mse(state)
        assert abs(after - before) < 1e-4 * max(before, 1e-12)

    def test_runs_no_sweep(self, monkeypatch):
        def no_sweep(*args, **kwargs):
            raise AssertionError("init_state ran a sweep")

        monkeypatch.setattr(engine, "sweep", no_sweep)
        data = make_dataset(seed=3, n=30, dims=(8, 6))
        hyper = Hyperparameters(K=4)
        state = init_state(data, hyper, seed=1)
        # every signal row still held, none pruned, q(beta) at its prior
        r_sig = model.spectral_start(data, hyper).loadings.shape[0]
        assert list(state.factors) == list(range(r_sig))
        assert np.all(state.beta_a == 1.0 / 4) and not state.aux_s_mean.any()

    @pytest.mark.parametrize("seed", [0, 3])
    @pytest.mark.parametrize(
        "n, dims, k", [(40, [13, 40, 7, 25], 12), (8, [4, 3, 5, 6], 5)]
    )
    def test_holds_exactly_the_signal_rows(self, seed, n, dims, k):
        from cvgfa.simdata import generate, simulation1_pattern

        data, _ = generate(simulation1_pattern(), n, dims, seed=seed)
        hyper = Hyperparameters(K=k)
        start = model.spectral_start(data, hyper)
        r_sig = start.loadings.shape[0]
        state = init_state(data, hyper, seed, start=start)
        state.validate()
        # the signal components' rows, in their order, and no other
        assert state.factors.dtype.kind == "i"
        assert list(state.factors) == list(range(r_sig))
        assert state.rho.shape == (r_sig, sum(dims))
        assert state.f_mean.shape == state.f_var.shape == (n, r_sig)
        keep = np.abs(start.loadings) >= model._INIT_LOADING_CUT
        assert np.array_equal(state.w_mean, np.where(keep, start.loadings, 0.0))
        # the held columns of one N x K draw, so the jitter of a held
        # factor does not depend on K
        draw = np.random.default_rng(seed).standard_normal((n, k))
        want = model._INIT_F_JITTER * draw[:, :r_sig] + start.scores[:, :r_sig]
        assert state.f_mean.tobytes(order="F") == np.asfortranarray(want).tobytes(
            order="F"
        )
        # every held row is active; q(beta) of all K slots is at the prior,
        # as the sweep tells the slots it has yet to update, and no table
        # count has been taken
        assert active_factors(state) == set(range(r_sig))
        prior_a, prior_b = model._beta_prior(hyper)
        assert np.all(state.beta_a == prior_a) and np.all(state.beta_b == prior_b)
        assert state.beta_a.shape == (k,) and not state.aux_t_mean.any()

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
        assert np.array_equal(s1.rho, s2.rho)
        assert np.array_equal(s1.w_mean, s2.w_mean)
        assert np.array_equal(s1.f_mean, s2.f_mean)
        assert np.array_equal(s1.tau_rate, s2.tau_rate)

    def test_rejects_bad_config(self):
        data = make_dataset()
        with pytest.raises(UsageError):
            init_state(data, Hyperparameters(K=0), seed=0)
        with pytest.raises(DataError):
            init_state(GroupedDataset([], []), Hyperparameters(K=3), seed=0)
        with pytest.raises(UsageError):
            init_state(data, Hyperparameters(K=3), seed=-2)

    @pytest.mark.parametrize("seed", [-0.5, 2.7, True, math.inf, math.nan])
    def test_rejects_a_seed_that_is_not_a_whole_number(self, seed):
        # int() would run -0.5 as seed 0, 2.7 as 2 and True as 1
        with pytest.raises(UsageError, match="seed"):
            init_state(make_dataset(), Hyperparameters(K=3), seed)

    @pytest.mark.parametrize("seed", [0, 3])
    def test_a_given_start_gives_the_same_state(self, seed):
        from cvgfa.simdata import generate, simulation1_pattern

        data, _ = generate(simulation1_pattern(), 40, [13, 40, 7, 25], seed=seed)
        hyper = Hyperparameters(K=12)
        start = model.spectral_start(data, hyper)
        own = init_state(data, hyper, seed)
        shared = init_state(data, hyper, seed, start=start)
        for f in dataclasses.fields(VariationalState):
            a, b = getattr(own, f.name), getattr(shared, f.name)
            assert np.array_equal(a, b), f.name

    def test_start_is_read_only_and_holds_only_the_signal_rows(self):
        from cvgfa.simdata import generate, simulation1_pattern

        data, _ = generate(simulation1_pattern(), 40, [13, 40, 7, 25], seed=1)
        hyper = Hyperparameters(K=12)
        start = model.spectral_start(data, hyper)
        assert start.scores.shape == (40, 12)
        # the signal rows only: no K x sum D_m array
        assert 1 <= start.loadings.shape[0] < hyper.K
        assert start.loadings.shape[1] == sum(data.dims)
        assert [r.shape for r in start.row_norms] == [(40,)] * 4
        # a pool worker gets the start pickled: still read-only there
        for s in (start, pickle.loads(pickle.dumps(start))):
            for a in (s.scores, s.loadings, *s.row_norms):
                assert not a.flags.writeable
                with pytest.raises(ValueError):
                    a[0] = 0.0
        again = pickle.loads(pickle.dumps(start))
        assert np.array_equal(again.loadings, start.loadings)
        with pytest.raises(dataclasses.FrozenInstanceError):
            start.scores = start.scores.copy()

    @pytest.mark.parametrize(
        "n, dims, k", [(6, (4, 3), 3), (7, (4, 3), 4), (6, (4, 4), 4), (6, (4, 3), 2)]
    )
    def test_a_start_of_other_data_or_k_is_rejected(self, n, dims, k):
        start = model.spectral_start(make_dataset(), Hyperparameters(K=4))
        with pytest.raises(UsageError):
            init_state(make_dataset(n=n, dims=dims), Hyperparameters(K=k), 0, start=start)

    def test_copy_is_deep(self):
        data = make_dataset()
        state = init_state(data, Hyperparameters(K=4), seed=1)
        state.factors = np.array([0, 1, 3, 4])
        clone = state.copy()
        rho, f = state.rho[0, 0], state.f_mean[0, 0]
        clone.rho[0, 0] = 0.5 * (rho + 1.0)
        clone.f_mean[0, 0] = f + 99.0
        clone.factors[0] = 2
        clone.dims[0] = 99
        assert state.rho[0, 0] == rho
        assert state.dims[0] == 4
        assert state.f_mean[0, 0] == f
        assert list(state.factors) == [0, 1, 3, 4]


def svd_components(groups, k):
    """The warm start's components from the SVD of the stacked data.

    The oracle for model._principal_components: the same outputs, up to
    each component's sign, from the factorization the warm start used to
    take. Loadings are kept for the signal components only, those whose
    singular value clears omega(beta) times the median (at least one, at
    most k_use), with Gavish & Donoho's omega(beta) = 0.56 beta^3 -
    0.95 beta^2 + 1.82 beta + 1.43 at the aspect ratio beta.
    """
    stacked = np.hstack(groups)
    n = stacked.shape[0]
    u, sv, vt = np.linalg.svd(stacked, full_matrices=False)
    beta = min(stacked.shape) / max(stacked.shape)
    omega = 0.56 * beta**3 - 0.95 * beta**2 + 1.82 * beta + 1.43
    k_use = min(k, u.shape[1])
    r_sig = max(1, min(k_use, int((sv > omega * np.median(sv)).sum())))
    return sv, np.sqrt(n) * u[:, :k_use], (sv[:r_sig, None] * vt[:r_sig]) / np.sqrt(n)


def rank_deficient_dataset():
    """Rank 4 over 12 samples: repeated columns and a constant column."""
    rng = np.random.default_rng(3)
    base = rng.standard_normal((12, 3)) * [3.0, 2.0, 1.0]
    groups = [
        np.hstack([base, base]),
        np.hstack([np.repeat(base[:, :1], 4, axis=1), np.full((12, 1), 0.7)]),
    ]
    return GroupedDataset(groups, ["a", "b"])


class TestPrincipalComponents:
    """The Gram-matrix warm start against the SVD of the stacked data."""

    @staticmethod
    def assert_same_components(data, k, sv_tol=0.0):
        sv, scores, loads = model._principal_components(data.groups, k)
        sv_o, scores_o, loads_o = svd_components(data.groups, k)
        assert_allclose(sv, sv_o, rtol=1e-12, atol=sv_tol * sv_o[0])
        assert scores.shape == scores_o.shape and loads.shape == loads_o.shape
        for j in range(scores.shape[1]):
            sign = 1.0 if float(scores[:, j] @ scores_o[:, j]) >= 0.0 else -1.0
            assert_allclose(scores[:, j], sign * scores_o[:, j], rtol=0, atol=1e-9)
            if j < len(loads):
                assert_allclose(loads[j], sign * loads_o[j], rtol=0, atol=1e-10 * sv_o[0])

    @staticmethod
    def assert_same_inclusions(monkeypatch, data, hyper):
        state = init_state(data, hyper, 0)
        monkeypatch.setattr(model, "_principal_components", svd_components)
        want = init_state(data, hyper, 0)
        assert np.array_equal(state.rho, want.rho)
        assert_allclose(np.abs(state.w_mean), np.abs(want.w_mean), atol=1e-12)

    # N < sum D and N > sum D
    @pytest.mark.parametrize("n, dims", [(30, [10] * 4), (60, [5] * 4)])
    def test_match_the_svd_on_sim1(self, monkeypatch, n, dims):
        from cvgfa.simdata import generate, simulation1_pattern

        data, _ = generate(simulation1_pattern(), n, dims, seed=4)
        self.assert_same_components(data, 8)
        self.assert_same_inclusions(monkeypatch, data, Hyperparameters(K=8))

    # at beta = 1 noise singular values reach past twice the median, and a
    # fixed cut of 2.0 passed all 30 components
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("spec", ["sim1", "sim2"])
    def test_square_shape_keeps_the_true_count(self, spec, seed):
        from cvgfa.simdata import generate, simulation1_pattern, simulation2_pattern

        pattern = {"sim1": simulation1_pattern, "sim2": simulation2_pattern}[spec]()
        data, truth = generate(pattern, 400, [100] * 4, seed=seed)
        _, _, loads = model._principal_components(data.groups, 30)
        assert loads.shape[0] == truth.factors.shape[1] == {"sim1": 6, "sim2": 8}[spec]

    def test_single_sample(self, monkeypatch):
        data = make_dataset(seed=8, n=1, dims=(4, 3))
        self.assert_same_components(data, 5)
        self.assert_same_inclusions(monkeypatch, data, Hyperparameters(K=5))
        init_state(data, Hyperparameters(K=5), seed=0).validate()

    @pytest.mark.parametrize("k", [3, 10])
    def test_rank_deficient_data(self, monkeypatch, k):
        data = rank_deficient_dataset()
        # the Gram matrix's zero eigenvalues come out at rounding level,
        # eps times the largest, so their singular values at sqrt(eps)
        # times the largest: 4e-7 here against the SVD's 2e-15
        sv, _, _ = model._principal_components(data.groups, k)
        assert np.all(sv[4:] < 1e-6 * sv[0])
        self.assert_same_components(data, min(k, 4), sv_tol=1e-6)
        # components past the rank carry loadings of order sqrt(eps) by
        # either route, far below the inclusion cut
        self.assert_same_inclusions(monkeypatch, data, Hyperparameters(K=k))
        init_state(data, Hyperparameters(K=k), seed=0).validate()


class TestSqNorms:
    """_sq_norms against the squared rows of the explicit residual."""

    @staticmethod
    def explicit(state, data):
        return [(r * r).sum(axis=1) for r in oracle.residual(state, data)]

    @staticmethod
    def sq_norms(x, f, rho, w):
        # one group: its row norms and products with a leading axis of one
        return model._sq_norms(
            model._row_norms([x]), f, *model._loading_products([x], rho * w)
        )[0]

    @staticmethod
    def check(got, want, rtol_rows, rtol_mse):
        for g, w in zip(got, want):
            assert np.max(np.abs(g - w) / w) <= rtol_rows
        total = sum(float(w.sum()) for w in want)
        assert abs(sum(float(g.sum()) for g in got) - total) <= rtol_mse * total

    def test_criterion_fixture(self):
        from cvgfa.simdata import generate, simulation1_pattern

        data, _ = generate(simulation1_pattern(), 100, [100] * 4, seed=0)
        state = init_state(data, Hyperparameters(K=30), seed=0)
        # every group at once, as the sweep takes them
        got = model._sq_norms(
            model._row_norms(data.groups),
            state.f_mean,
            *model._loading_products(data.groups, state.rho * state.w_mean),
        )
        assert got.shape == (4, 100)
        self.check(got, self.explicit(state, data), 4e-13, 2e-14)

    # The identity subtracts terms of the size of ||x_n||^2, so its relative
    # error grows as the residual shrinks next to the data. The tolerances
    # are ten to twenty times the largest errors on these draws (rows
    # 2.0e-14, 2.5e-10 and 2.2e-6, the MSE 1.5e-15, 1.6e-11 and 2.0e-7 at
    # noise sd 1, 1e-2 and 1e-4); at 1e-6 the MSE is off by about 1e-3.
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize(
        "noise, rtol_rows, rtol_mse",
        [(1.0, 4e-13, 2e-14), (1e-2, 4e-9, 2e-10), (1e-4, 5e-5, 2e-6)],
    )
    def test_low_noise_draws(self, seed, noise, rtol_rows, rtol_mse):
        rng = np.random.default_rng(seed)
        n, d, k = 100, 400, 6
        f = rng.standard_normal((n, k))
        w = 2.0 * rng.standard_normal((k, d))
        rho = rng.uniform(0.5, 1.0, (k, d))
        x = f @ (rho * w) + noise * rng.standard_normal((n, d))
        state = SimpleNamespace(f_mean=f, rho=rho, w_mean=w, spans=[slice(0, d)])
        data = SimpleNamespace(groups=[x])
        got = [self.sq_norms(x, f, rho, w)]
        self.check(got, self.explicit(state, data), rtol_rows, rtol_mse)

    def test_exact_reconstruction_is_clamped_at_zero(self):
        rng = np.random.default_rng(7)
        f = rng.standard_normal((50, 4))
        w = rng.standard_normal((4, 30))
        rho = np.ones((4, 30))
        x = f @ w
        with warnings.catch_warnings(), np.errstate(
            over="warn", invalid="warn", divide="warn"
        ):
            warnings.simplefilter("error", RuntimeWarning)
            got = self.sq_norms(x, f, rho, w)
        assert np.all(got >= 0.0)
        # only rounding is left, far below the rows' own squared norms
        assert np.all(got <= 1e-12 * (x * x).sum(axis=1))


class TestActiveFactors:
    """The one rule: inclusion mass of at least ACTIVE_MASS in some group."""

    def _state_with_rho(self, rho_rows):
        data = make_dataset(dims=(len(rho_rows[0]),))
        state = holding_all(data, Hyperparameters(K=len(rho_rows)), seed=0)
        state.rho[...] = rho_rows
        return state

    def test_all_zero_rho(self):
        state = self._state_with_rho(np.zeros((3, 4)))
        assert active_factors(state) == set()

    def test_all_one_rho(self):
        state = self._state_with_rho(np.ones((3, 4)))
        assert active_factors(state) == {0, 1, 2}

    def test_below_threshold_excluded(self):
        assert ACTIVE_MASS == 1e-2
        rho = np.zeros((4, 4))
        rho[0] = 0.011 / 4  # mass 0.011, just above
        rho[1] = 0.009 / 4  # mass 0.009, just below
        rho[2, 0] = ACTIVE_MASS  # exactly the mass counts
        rho[3, 0] = np.nextafter(ACTIVE_MASS, 0.0)
        state = self._state_with_rho(rho)
        assert active_factors(state) == {0, 2}

    def test_max_over_groups(self):
        data = make_dataset(dims=(4, 4))
        state = holding_all(data, Hyperparameters(K=2), seed=0)
        state.rho[...] = 0.0
        # factor 0: 0.006 in each group, 0.012 in all, below in every group;
        # group 1's columns start at 4
        state.rho[0, [0, 4]] = 0.006
        # factor 1: below in group 0, above in group 1
        state.rho[1, [0, 4]] = [0.005, 0.8]
        assert active_factors(state) == {1}

    def test_warm_start_floor_reaches_the_active_mass(self):
        # init_state gives each entry of a signal row below the loading cut
        # inclusion 0.02 (its confident entries 0.9), so every held row has
        # at least 0.02 in each column, and a group of one column already
        # holds it active; the slots it does not hold are at the prior
        assert model._INIT_RHO_OUT >= ACTIVE_MASS


class TestStackedLayout:
    """rho, w_mean and w_var keep all their groups in one array, and
    tau_rate all its groups in one M x N array."""

    @staticmethod
    def state(seed=0):
        # unequal widths, four of five factors held
        data = make_dataset(seed=seed, n=8, dims=(5, 2, 7))
        state = holding_all(data, Hyperparameters(K=5), seed=seed)
        model._keep_rows(state, np.arange(5) != 2)
        return state

    def test_init_state_and_its_sweeps_keep_the_layout(self):
        data = make_dataset(n=8, dims=(5, 2, 7))
        hyper = Hyperparameters(K=4)
        state = init_state(data, hyper, seed=0)
        assert_stacked_layout(state)
        for _ in range(2):
            engine.sweep(state, data, hyper)
            assert_stacked_layout(state)

    @pytest.mark.parametrize("how", ["copy", "pickle"])
    def test_copy_and_pickle_keep_the_layout(self, how):
        state = self.state()
        other = state.copy() if how == "copy" else pickle.loads(pickle.dumps(state))
        assert_stacked_layout(other)
        assert other.factors.tolist() == [0, 1, 3, 4]
        assert other.dims == state.dims == [5, 2, 7]
        for name in BLOCK_FIELDS + ("tau_rate", "f_mean", "factors"):
            a, b = getattr(state, name), getattr(other, name)
            assert a.tobytes() == b.tobytes(), name
            assert not np.shares_memory(a, b), name


class TestHeldFactors:
    """VariationalState.validate on the list of held factors; the checkpoint
    tests (test_io) reject the malformed lists a file can hold."""

    @staticmethod
    def state():
        data = make_dataset(seed=4, n=8, dims=(5, 2, 7))
        state = holding_all(data, Hyperparameters(K=5), seed=4)
        model._keep_rows(state, np.isin(np.arange(5), [0, 2, 3]))
        return state

    @pytest.mark.parametrize(
        "factors",
        [
            pytest.param(np.array([0.0, 2.0, 3.0]), id="float"),
            pytest.param(np.array([True, False, True]), id="bool"),
            pytest.param(np.array([[0, 2, 3]]), id="matrix"),
            pytest.param([0, 2, 3], id="list"),
        ],
    )
    def test_factors_must_be_an_integer_vector(self, factors):
        state = self.state()
        state.validate()
        state.factors = factors
        with pytest.raises(DataError, match="vector of integers"):
            state.validate()

    @pytest.mark.parametrize(
        "dims",
        [
            pytest.param([True, 7], id="true"),
            pytest.param([5, 2, False], id="false"),
            pytest.param([5, 2.0, 7], id="float"),
            pytest.param([5, 0, 7], id="zero"),
            pytest.param([], id="empty"),
            pytest.param((5, 2, 7), id="tuple"),
        ],
    )
    def test_bad_group_widths_rejected(self, dims):
        state = self.state()
        state.validate()
        state.dims = dims
        with pytest.raises(DataError, match="positive group widths"):
            state.validate()

    def test_numpy_integer_widths_accepted(self):
        state = self.state()
        state.dims = [np.int64(d) for d in state.dims]
        state.validate()

    def test_scores_need_one_column_per_held_factor(self):
        state = self.state()
        state.f_var = state.f_var[:, :2]
        with pytest.raises(DataError, match="one column per held factor"):
            state.validate()
