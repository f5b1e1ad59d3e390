"""Coordinate-ascent inference engine.

sweep() is the one implementation of the update equations, and fit()
drives it. The per-coordinate transcriptions of the printed equations, which
tests pin sweep() against, live with the tests (tests/oracle.py).

Every update of a (factor, group) row is a whole-row numpy expression,
the inclusion probabilities included: each column's collapsed prior reads
the row's leave-one-out count sums as they stood before the row was
updated, not as the earlier columns of the row have moved them. This
departs from the paper's strictly sequential column order; it is the
minibatch update of stochastic collapsed variational inference (Foulds et
al., KDD 2013), with the whole row as the batch. sweep() keeps no
residual: it takes the products that leave one factor out from the data
and the K x D expected loadings, and builds the residual once at its end
(see sweep).
"""

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .approx import (
    bernoulli_sum_moments,
    crt_mean_approx,
    digamma,
    geo_expect_beta,
    geo_expect_gamma,
)
from .errors import DataError, NumericalError, UsageError
from .model import (
    BETA_B_FLOOR,
    FitOptions,
    GroupedDataset,
    Hyperparameters,
    VariationalState,
    active_factors,
    init_state,
)

__all__ = [
    "SweepCaches",
    "FitReport",
    "build_caches",
    "update_beta_params",
    "update_alpha",
    "update_eta",
    "sweep",
    "surrogate_elbo",
    "fit",
    "expected_loadings",
    "predict_factors",
    "reconstruct_group",
    "run_restarts",
]

LOG_2PI = math.log(2.0 * math.pi)

# Geometric means of near-degenerate beta variates underflow; the shifted-log
# and table-count formulas need a strictly positive concentration.
GEO_FLOOR = 1e-300

COLLAPSED_Z_METHOD = "log-gamma ratios at geometric means and expected counts"

_LGAMMA_VEC = np.vectorize(math.lgamma, otypes=[float])


@dataclass
class SweepCaches:
    """The residual of one state.

    residual[m] is the data minus the full expected reconstruction,
    X - E[F] (rho * mu_w). build_caches makes it from a state; sweep
    returns the one of the state it ends with. Nothing updates it in
    place, so it is valid only until the state next changes.
    """

    residual: list


@dataclass
class FitReport:
    final_state: VariationalState
    sweeps_run: int
    trace: list  # one (objective, train_mse, k_active) tuple per sweep
    converged: bool
    metadata: dict = field(default_factory=dict)


def build_caches(state: VariationalState, data: GroupedDataset) -> SweepCaches:
    residual = [
        data.groups[m] - state.f_mean @ (state.rho[m] * state.w_mean[m])
        for m in range(state.n_groups)
    ]
    return SweepCaches(residual)


def update_beta_params(state, hyper, k):
    """q(beta_k) parameters from the prior plus table-count sums."""
    K = int(hyper.K)
    a = hyper.kappa0 / K + float(state.aux_s_mean[:, k].sum())
    b = hyper.kappa0 * (1.0 - 1.0 / K) + float(state.aux_t_mean[:, k].sum())
    return a, max(b, BETA_B_FLOOR)


def _expected_sq_residual(state, caches, m):
    """E[||x_n - G f_n||^2] for every sample of group m, as a vector.

    Expands to the squared full residual plus the posterior-variance
    corrections sum_k (rho E[w^2] E[f^2] - (rho mu_w mu_f)^2).
    """
    rho = state.rho[m]
    w = state.w_mean[m]
    coef = rho * w
    svec = (rho * (w * w + state.w_var[m])).sum(axis=1)
    tvec = (coef * coef).sum(axis=1)
    ef2 = state.f_mean * state.f_mean + state.f_var
    return (
        (caches.residual[m] ** 2).sum(axis=1)
        + ef2 @ svec
        - (state.f_mean**2) @ tvec
    )


def update_alpha(state, hyper, m):
    """q(alpha_m) gamma parameters from the table-count totals."""
    shape = hyper.c0 + float(state.aux_s_mean[m].sum() + state.aux_t_mean[m].sum())
    rate = hyper.d0 - float(state.eta_log_mean[m])
    return shape, rate


def update_eta(state, m) -> float:
    """E[log eta_m] at the current posterior mean of alpha_m."""
    alpha_mean = float(state.alpha_shape[m] / state.alpha_rate[m])
    return digamma(alpha_mean) - digamma(alpha_mean + state.dims[m])


def _rho_row(rho, lik, nhat, g_ab, g_abbar, m, k):
    """New inclusion probabilities of one (group, factor) row, all at once.

    Every column d reads the row's pre-update count moments minus its own
    term: E = nhat.mean - rho[d], V = nhat.variance - rho[d](1 - rho[d]),
    with D_m - 1 - E for the complementary count, each clamped at 0
    (np.maximum passes NaN on to the non-finite check). rho and lik are the old probabilities and the likelihood terms; a new
    array is returned. A non-finite logit raises NumericalError naming the
    lowest such column.
    """
    e1 = nhat.mean - rho
    np.maximum(e1, 0.0, out=e1)
    v1 = nhat.variance - rho * (1.0 - rho)
    np.maximum(v1, 0.0, out=v1)
    e0 = (rho.shape[0] - 1) - e1
    np.maximum(e0, 0.0, out=e0)
    # expect_log_shifted_count, for both counts, on the whole row
    tot1 = g_ab + e1
    prior1 = np.log(tot1) - v1 / (2.0 * tot1 * tot1)
    tot0 = g_abbar + e0
    prior0 = np.log(tot0) - v1 / (2.0 * tot0 * tot0)
    logit = prior1 - lik - prior0
    bad = ~np.isfinite(logit)
    if bad.any():
        raise NumericalError(
            "non-finite inclusion logit",
            context={"group": m, "factor": k, "column": int(bad.argmax())},
        )
    # 1 / (1 + exp(-x)) for x >= 0 and e / (1 + e), e = exp(x), below 0:
    # exp never sees a positive argument, so it cannot overflow
    e = np.exp(-np.abs(logit))
    return np.where(logit >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _loo_dotx(x, loads, f_mean, tf, k):
    """X^T tf minus every factor but k's share: R^T tf + loads[k] (tf . f_k).

    R = x - f_mean @ loads is the residual; tf is a length-N weight vector.
    """
    g = f_mean.T @ tf
    g[k] = 0.0
    return x.T @ tf - loads.T @ g


def _loo_score_term(x, loads, f_mean, k):
    """X c minus every factor but k's share, c = loads[k]: R c + f_k (c . c)."""
    c = loads[k]
    h = loads @ c
    h[k] = 0.0
    return x @ c - f_mean @ h


def sweep(state, data, hyper, active_threshold=1e-2):
    """One full coordinate-ascent pass, mutating state in place.

    Order per iteration: for each active factor k, update (a_k, b_k), then
    per group the count stats and (E[s], E[t]), then the row's rho, then
    its w and lambda, then the factor scores; finally per group alpha, eta,
    and the noise precisions.

    The row's rho moves in one step (_rho_row): column d reads the row's
    pre-update count moments minus its own term. The paper updates the
    columns one after another, each reading the sums its predecessors have
    moved; reading the pre-row sums instead is what lets the row be one
    numpy expression. Column d's likelihood term, new loading and lambda
    read only its own values and dotx[d], which stays fixed while the row
    is updated, so they are whole-row expressions too.

    No N x D residual is kept during the pass. The products that leave
    factor k out (_loo_dotx, _loo_score_term) are taken from the data and
    the K x D expected loadings C_m = rho[m] * w_mean[m], whose row k is
    rewritten after each row update. They equal the residual forms, with
    R = X_m - F C_m, but round differently, so states differ at rounding
    level from those of earlier commits, which kept R up to date by two
    rank-1 updates per (factor, group). The residual is built once, after
    the factor loop, for the noise precisions; it is returned as
    SweepCaches so that the caller can reuse it for the training error and
    the objective.
    """
    M = state.n_groups
    lam_shape = hyper.lambda_shape
    f_mean = state.f_mean
    tau_bar = [
        hyper.tau_shape(d_m) / state.tau_rate[m] for m, d_m in enumerate(state.dims)
    ]
    g_alpha = [
        geo_expect_gamma(state.alpha_shape[m], state.alpha_rate[m]) for m in range(M)
    ]
    loads = [state.rho[m] * state.w_mean[m] for m in range(M)]

    for k in sorted(active_factors(state, active_threshold)):
        a_k, b_k = update_beta_params(state, hyper, k)
        state.beta_a[k] = a_k
        state.beta_b[k] = b_k
        g_beta = geo_expect_beta(a_k, b_k)
        g_beta_bar = geo_expect_beta(b_k, a_k)

        for m in range(M):
            d_m = state.dims[m]
            rho_row = state.rho[m][k]
            w_row = state.w_mean[m][k]
            wvar_row = state.w_var[m][k]
            lam_rate_row = state.lambda_rate[m][k]
            g_ab = max(g_alpha[m] * g_beta, GEO_FLOOR)
            g_abbar = max(g_alpha[m] * g_beta_bar, GEO_FLOOR)

            nhat = bernoulli_sum_moments(rho_row)
            ntil = bernoulli_sum_moments(1.0 - rho_row)
            state.aux_s_mean[m, k] = min(
                max(crt_mean_approx(g_ab, nhat), 0.0), float(d_m)
            )
            state.aux_t_mean[m, k] = min(
                max(crt_mean_approx(g_abbar, ntil), 0.0), float(d_m)
            )

            f_col = f_mean[:, k]
            f2_col = f_col * f_col + state.f_var[:, k]
            tb = tau_bar[m]
            sff = float(tb @ f2_col)
            # sum_n tau f x~(no k): constant through the d-loop since only
            # factor k's own parameters change inside it
            dotx = _loo_dotx(data.groups[m], loads[m], f_mean, tb * f_col, k)

            lik = 0.5 * ((w_row * w_row + wvar_row) * sff - 2.0 * w_row * dotx)
            rho_row[:] = _rho_row(rho_row, lik, nhat, g_ab, g_abbar, m, k)

            wvar_row[:] = 1.0 / (lam_shape / lam_rate_row + rho_row * sff)
            w_row[:] = wvar_row * rho_row * dotx
            lam_rate_row[:] = hyper.f0 + 0.5 * (w_row * w_row + wvar_row)
            loads[m][k] = rho_row * w_row

        # factor scores for column k; samples are mutually independent here
        precision = np.ones(state.n_samples)
        moment = np.zeros(state.n_samples)
        for m in range(M):
            rho_row = state.rho[m][k]
            w_row = state.w_mean[m][k]
            precision += tau_bar[m] * float(rho_row @ (w_row * w_row + state.w_var[m][k]))
            moment += tau_bar[m] * _loo_score_term(data.groups[m], loads[m], f_mean, k)
        f_var_new = 1.0 / precision
        f_mean[:, k] = f_var_new * moment
        state.f_var[:, k] = f_var_new

    caches = build_caches(state, data)
    for m in range(M):
        shape, rate = update_alpha(state, hyper, m)
        state.alpha_shape[m] = shape
        state.alpha_rate[m] = rate
        state.eta_log_mean[m] = update_eta(state, m)
        sq = _expected_sq_residual(state, caches, m)
        state.tau_rate[m][:] = hyper.h0 + 0.5 * sq

    _check_state_finite(state)
    return caches


def _check_state_finite(state):
    checks = [
        ("f_mean", state.f_mean),
        ("f_var", state.f_var),
        ("beta_a", state.beta_a),
        ("beta_b", state.beta_b),
        ("alpha_shape", state.alpha_shape),
        ("alpha_rate", state.alpha_rate),
    ]
    for m in range(state.n_groups):
        checks.append((f"w_mean[{m}]", state.w_mean[m]))
        checks.append((f"w_var[{m}]", state.w_var[m]))
        checks.append((f"tau_rate[{m}]", state.tau_rate[m]))
    for name, arr in checks:
        if not np.all(np.isfinite(arr)):
            raise NumericalError(
                f"non-finite values in {name}", context={"variable": name}
            )


def _gamma_prior_gap(a0, b0, shape, rate):
    """E_q[log p(x)] - E_q[log q(x)] for gamma prior (a0, b0), summed.

    shape is one number shared by every rate, or an array shaped like rate.
    """
    rate = np.asarray(rate, dtype=float)
    if rate.size == 0:
        return 0.0
    e_log = digamma(shape) - np.log(rate)
    e_x = shape / rate
    term = (
        a0 * math.log(b0)
        - math.lgamma(a0)
        - (shape * np.log(rate) - _LGAMMA_VEC(shape))
        + (a0 - shape) * e_log
        - (b0 - rate) * e_x
    )
    return float(np.sum(term))


def _bernoulli_entropy(rho):
    interior = (rho > 0.0) & (rho < 1.0)
    r = rho[interior]
    return float(-np.sum(r * np.log(r) + (1.0 - r) * np.log1p(-r)))


def surrogate_elbo(state, data, hyper, caches=None) -> float:
    """Variational objective with the collapsed inclusion prior approximated.

    Conjugate terms are exact given the posterior moments; E[log p(Z)] uses
    the marginal's log-gamma ratios evaluated at geometric means of the
    concentrations and expected counts (see COLLAPSED_Z_METHOD). The
    auxiliary-variable terms cancel because their posteriors are exact.
    caches, if given, must be consistent with state (only its residual is
    read); otherwise they are built here.
    """
    total = 0.0
    M = state.n_groups
    K = state.n_factors
    lam_shape = hyper.lambda_shape

    if caches is None and M:
        caches = build_caches(state, data)
    for m in range(M):
        d_m = state.dims[m]
        tau_shape = hyper.tau_shape(d_m)
        tb = tau_shape / state.tau_rate[m]
        e_log_tau = digamma(tau_shape) - np.log(state.tau_rate[m])
        sq = _expected_sq_residual(state, caches, m)
        total += float(0.5 * d_m * np.sum(e_log_tau - LOG_2PI) - 0.5 * (tb @ sq))

        # loadings against their elementwise gamma-precision prior
        e_log_lam = digamma(lam_shape) - np.log(state.lambda_rate[m])
        lam_bar = lam_shape / state.lambda_rate[m]
        ew2 = state.w_mean[m] ** 2 + state.w_var[m]
        total += float(
            0.5 * np.sum(e_log_lam - lam_bar * ew2 + np.log(state.w_var[m]) + 1.0)
        )
        total += _gamma_prior_gap(hyper.e0, hyper.f0, lam_shape, state.lambda_rate[m])
        total += _gamma_prior_gap(hyper.g0, hyper.h0, tau_shape, state.tau_rate[m])
        total += _bernoulli_entropy(state.rho[m])

    # factor scores against the standard normal prior
    if state.f_mean.size:
        ef2 = state.f_mean**2 + state.f_var
        total += float(0.5 * np.sum(np.log(state.f_var) - ef2 + 1.0))

    if M:
        total += _gamma_prior_gap(
            hyper.c0, hyper.d0, state.alpha_shape, state.alpha_rate
        )

    if K:
        a0 = hyper.kappa0 / K
        b0 = max(hyper.kappa0 * (K - 1) / K, BETA_B_FLOOR)
        a = state.beta_a
        b = state.beta_b
        e_log_beta = digamma(a) - digamma(a + b)
        e_log_bbar = digamma(b) - digamma(a + b)
        log_b_q = _LGAMMA_VEC(a) + _LGAMMA_VEC(b) - _LGAMMA_VEC(a + b)
        log_b_0 = math.lgamma(a0) + math.lgamma(b0) - math.lgamma(a0 + b0)
        total += float(
            np.sum(
                log_b_q - log_b_0 + (a0 - a) * e_log_beta + (b0 - b) * e_log_bbar
            )
        )

    # collapsed prior on Z at plug-in concentrations and expected counts
    for m in range(M):
        if K == 0:
            break
        d_m = state.dims[m]
        g_alpha = geo_expect_gamma(state.alpha_shape[m], state.alpha_rate[m])
        g_ab = np.maximum(
            g_alpha * geo_expect_beta(state.beta_a, state.beta_b), GEO_FLOOR
        )
        g_abbar = np.maximum(
            g_alpha * geo_expect_beta(state.beta_b, state.beta_a), GEO_FLOOR
        )
        nhat = state.rho[m].sum(axis=1)
        ntil = (1.0 - state.rho[m]).sum(axis=1)
        total += float(
            K * (math.lgamma(g_alpha) - math.lgamma(g_alpha + d_m))
            + np.sum(_LGAMMA_VEC(g_ab + nhat) - _LGAMMA_VEC(g_ab))
            + np.sum(_LGAMMA_VEC(g_abbar + ntil) - _LGAMMA_VEC(g_abbar))
        )
    return total


def fit(data: GroupedDataset, hyper: Hyperparameters, opts: FitOptions) -> FitReport:
    """Initialize and sweep to convergence.

    Convergence is monitored on the training MSE: three consecutive sweeps
    with relative change below rel_tolerance. The surrogate objective is
    recorded per sweep but not used as the stopping rule since its collapsed
    term is approximate.
    """
    data.validate()
    hyper.validate()
    opts.validate()
    state = init_state(data, hyper, opts.seed, opts.active_factor_threshold)
    total_cells = float(sum(data.n_samples * d for d in data.dims))
    trace = []
    prev_mse = None
    streak = 0
    converged = False
    for it in range(int(opts.max_sweeps)):
        # the previous residual goes first, so that two sets never coexist
        caches = None
        try:
            caches = sweep(
                state, data, hyper, active_threshold=opts.active_factor_threshold
            )
        except NumericalError as err:
            err.context.setdefault("sweep", it)
            raise
        # the residual the sweep ends with serves the MSE and the objective;
        # the state does not change after it is built
        sq_err = 0.0
        for m in range(data.n_groups):
            sq_err += float((caches.residual[m] ** 2).sum())
        mse = sq_err / total_cells
        objective = surrogate_elbo(state, data, hyper, caches=caches)
        if not (math.isfinite(objective) and math.isfinite(mse)):
            raise NumericalError("non-finite objective", context={"sweep": it})
        k_active = len(active_factors(state, opts.active_factor_threshold))
        trace.append((objective, mse, k_active))
        if prev_mse is not None:
            rel = abs(mse - prev_mse) / max(mse, 1e-12)
            streak = streak + 1 if rel < opts.rel_tolerance else 0
        prev_mse = mse
        if streak >= 3:
            converged = True
            break
    return FitReport(
        final_state=state,
        sweeps_run=len(trace),
        trace=trace,
        converged=converged,
        metadata={
            "collapsed_z_term": COLLAPSED_Z_METHOD,
            "convergence_monitor": "train_mse",
            "seed": int(opts.seed),
        },
    )


def expected_loadings(state, m):
    """Posterior mean loading matrix E[G] = rho * mu_w for group m."""
    return state.rho[m] * state.w_mean[m]


def predict_factors(state, hyper, observed):
    """Posterior factor scores for one new sample.

    observed maps group index -> length-D_m value vector. Gaussian
    conditioning at posterior-mean loadings, with the loading variances
    rho E[w^2] - (rho mu_w)^2 entering the precision diagonal. Noise
    precisions are averaged over the training samples; hyper supplies
    their q(tau) shapes.
    """
    if not observed:
        raise UsageError("at least one observed group is required")
    K = state.n_factors
    precision = np.eye(K)
    rhs = np.zeros(K)
    for m in sorted(observed):
        x = np.asarray(observed[m], dtype=float).ravel()
        if x.shape[0] != state.dims[m]:
            raise DataError(
                f"observed group {m} has {x.shape[0]} values, expected {state.dims[m]}"
            )
        tau_avg = float(np.mean(hyper.tau_shape(state.dims[m]) / state.tau_rate[m]))
        g = state.rho[m] * state.w_mean[m]
        g_var = (
            state.rho[m] * (state.w_mean[m] ** 2 + state.w_var[m]) - g * g
        ).sum(axis=1)
        precision += tau_avg * (g @ g.T + np.diag(g_var))
        rhs += tau_avg * (g @ x)
    covariance = np.linalg.inv(precision)
    return covariance @ rhs, covariance


def reconstruct_group(state, factor_means, m):
    """Reconstruction F_hat E[G] of group m from given factor scores."""
    fm = np.asarray(factor_means, dtype=float)
    if fm.ndim != 2 or fm.shape[1] != state.n_factors:
        raise DataError("factor_means must be N' x K")
    return fm @ expected_loadings(state, m)


def _one_restart(data, hyper, opts, seed):
    run_opts = replace(opts, seed=seed)
    try:
        report = fit(data, hyper, run_opts)
        return {"seed": seed, "report": report, "error": None, "context": None}
    except NumericalError as err:
        return {
            "seed": seed,
            "report": None,
            "error": str(err),
            "context": err.context,
        }


def run_restarts(data, hyper, opts, n_restarts, workers=1):
    """Independent fits from seeds opts.seed .. opts.seed + n_restarts - 1.

    Numerical aborts are captured per restart rather than failing the batch.
    Results are returned in seed order regardless of worker count.
    """
    if int(n_restarts) < 1:
        raise UsageError("n_restarts must be at least 1")
    seeds = [int(opts.seed) + r for r in range(int(n_restarts))]
    if int(workers) <= 1:
        return [_one_restart(data, hyper, opts, s) for s in seeds]
    with ProcessPoolExecutor(max_workers=int(workers)) as pool:
        futures = [pool.submit(_one_restart, data, hyper, opts, s) for s in seeds]
        return [f.result() for f in futures]
