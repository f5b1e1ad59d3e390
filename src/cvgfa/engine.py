"""Coordinate-ascent inference engine.

Two routes to the same updates live here. The per-coordinate functions
(update_z, update_w, ...) are direct transcriptions of the printed update
equations and are convenient for testing single coordinates; sweep() fuses
them into one pass with incrementally maintained caches and running
leave-one-out count sums, which is what fit() drives. Tests pin the two
routes against each other.

Within sweep() only the inclusion probabilities are updated one column at
a time, because each column's collapsed prior reads count sums that the
earlier columns have moved; everything else in a (factor, group) row is a
whole-row numpy expression (see sweep).
"""

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .approx import (
    bernoulli_sum_moments,
    crt_mean_approx,
    digamma,
    expect_log_shifted_count,
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
    "update_sufficient_stats",
    "update_z",
    "update_w",
    "update_f",
    "update_beta_params",
    "update_aux_s_t",
    "update_lambda",
    "update_tau",
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
    """Per-sweep working quantities.

    residual[m] is the data minus the full expected reconstruction,
    X - E[F] (rho * mu_w), kept consistent with the current state. The
    count moments are per (group, factor) over all columns.
    """

    nhat_mean: np.ndarray
    nhat_var: np.ndarray
    ntilde_mean: np.ndarray
    ntilde_var: np.ndarray
    residual: list


@dataclass
class FitReport:
    final_state: VariationalState
    sweeps_run: int
    trace: list  # one (objective, train_mse, k_active) tuple per sweep
    converged: bool
    metadata: dict = field(default_factory=dict)


def build_caches(state: VariationalState, data: GroupedDataset) -> SweepCaches:
    M = state.n_groups
    K = state.n_factors
    nhat_mean = np.zeros((M, K))
    nhat_var = np.zeros((M, K))
    ntilde_mean = np.zeros((M, K))
    residual = []
    for m in range(M):
        r = state.rho[m]
        nhat_mean[m] = r.sum(axis=1)
        nhat_var[m] = (r * (1.0 - r)).sum(axis=1)
        ntilde_mean[m] = (1.0 - r).sum(axis=1)
        residual.append(data.groups[m] - state.f_mean @ (r * state.w_mean[m]))
    # counts and their complements share the same Bernoulli variance
    return SweepCaches(nhat_mean, nhat_var, ntilde_mean, nhat_var.copy(), residual)


def update_sufficient_stats(state, m, k, exclude_d=None, complement=False):
    """Moments of the inclusion count for factor k in group m.

    complement=True gives the count of zeros (probabilities 1 - rho);
    exclude_d leaves column d out of the sum.
    """
    row = state.rho[m][k]
    if exclude_d is not None:
        if not 0 <= exclude_d < row.shape[0]:
            raise IndexError(f"column {exclude_d} out of range")
        mask = np.ones(row.shape[0], dtype=bool)
        mask[exclude_d] = False
        row = row[mask]
    return bernoulli_sum_moments(1.0 - row if complement else row)


def _geo_concentrations(state, m, k):
    """Clamped geometric means of alpha beta_k and alpha (1 - beta_k)."""
    g_alpha = geo_expect_gamma(state.alpha_shape[m], state.alpha_rate[m])
    g_ab = g_alpha * geo_expect_beta(state.beta_a[k], state.beta_b[k])
    g_abbar = g_alpha * geo_expect_beta(state.beta_b[k], state.beta_a[k])
    return max(g_ab, GEO_FLOOR), max(g_abbar, GEO_FLOOR)


def _sigmoid(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def update_z(state, caches, m, k, d) -> float:
    """Inclusion probability for one coordinate.

    q(z=1) weighs the active-count prior term against the Gaussian
    likelihood; q(z=0) carries the complementary inactive-count term.
    Normalization happens in log space.
    """
    g_ab, g_abbar = _geo_concentrations(state, m, k)
    nhat = update_sufficient_stats(state, m, k, exclude_d=d)
    ntil = update_sufficient_stats(state, m, k, exclude_d=d, complement=True)
    prior1 = expect_log_shifted_count(g_ab, nhat.mean, nhat.variance)
    prior0 = expect_log_shifted_count(g_abbar, ntil.mean, ntil.variance)

    tau_bar = state.tau_shape[m] / state.tau_rate[m]
    ew = state.w_mean[m][k, d]
    ew2 = ew * ew + state.w_var[m][k, d]
    ef = state.f_mean[:, k]
    ef2 = ef * ef + state.f_var[:, k]
    xk = caches.residual[m][:, d] + ef * (state.rho[m][k, d] * ew)
    lik = -0.5 * (ew2 * float(tau_bar @ ef2) - 2.0 * ew * float(tau_bar @ (ef * xk)))
    logit = prior1 + lik - prior0
    if not math.isfinite(logit):
        raise NumericalError(
            "non-finite inclusion logit",
            context={"group": m, "factor": k, "column": d},
        )
    return _sigmoid(logit)


def update_w(state, caches, m, k, d):
    """Posterior (mean, variance) of one loading coefficient."""
    tau_bar = state.tau_shape[m] / state.tau_rate[m]
    ef = state.f_mean[:, k]
    ef2 = ef * ef + state.f_var[:, k]
    rho = state.rho[m][k, d]
    lam_mean = state.lambda_shape[m][k, d] / state.lambda_rate[m][k, d]
    variance = 1.0 / (lam_mean + rho * float(tau_bar @ ef2))
    xk = caches.residual[m][:, d] + ef * (rho * state.w_mean[m][k, d])
    mean = variance * rho * float(tau_bar @ (ef * xk))
    return mean, variance


def update_f(state, caches, n, k):
    """Posterior (mean, variance) of one factor score."""
    precision = 1.0
    moment = 0.0
    for m in range(state.n_groups):
        tau_n = state.tau_shape[m][n] / state.tau_rate[m][n]
        rho_row = state.rho[m][k]
        w_row = state.w_mean[m][k]
        ew2_row = w_row * w_row + state.w_var[m][k]
        precision += tau_n * float(rho_row @ ew2_row)
        coef = rho_row * w_row
        xk = caches.residual[m][n] + state.f_mean[n, k] * coef
        moment += tau_n * float(coef @ xk)
    variance = 1.0 / precision
    return variance * moment, variance


def update_beta_params(state, hyper, k):
    """q(beta_k) parameters from the prior plus table-count sums."""
    K = int(hyper.K)
    a = hyper.kappa0 / K + float(state.aux_s_mean[:, k].sum())
    b = hyper.kappa0 * (1.0 - 1.0 / K) + float(state.aux_t_mean[:, k].sum())
    return a, max(b, BETA_B_FLOOR)


def update_aux_s_t(state, m, k):
    """Expected table counts (E[s], E[t]) for factor k in group m.

    The Taylor form can overshoot; both are clamped to [0, D_m] since a
    table count never exceeds its customer count.
    """
    g_ab, g_abbar = _geo_concentrations(state, m, k)
    nhat = update_sufficient_stats(state, m, k)
    ntil = update_sufficient_stats(state, m, k, complement=True)
    d_m = state.dims[m]
    e_s = min(max(crt_mean_approx(g_ab, nhat), 0.0), float(d_m))
    e_t = min(max(crt_mean_approx(g_abbar, ntil), 0.0), float(d_m))
    return e_s, e_t


def update_lambda(state, hyper, m, k, d):
    """q(lambda_kd) gamma parameters."""
    ew2 = state.w_mean[m][k, d] ** 2 + state.w_var[m][k, d]
    return hyper.e0 + 0.5, hyper.f0 + 0.5 * ew2


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


def update_tau(state, caches, hyper, m, n):
    """q(tau_n) gamma parameters for one sample of group m."""
    shape = hyper.g0 + 0.5 * state.dims[m]
    resid = caches.residual[m][n]
    rho = state.rho[m]
    w = state.w_mean[m]
    coef = rho * w
    svec = (rho * (w * w + state.w_var[m])).sum(axis=1)
    tvec = (coef * coef).sum(axis=1)
    ef = state.f_mean[n]
    ef2 = ef * ef + state.f_var[n]
    sq = float(resid @ resid) + float(ef2 @ svec) - float((ef * ef) @ tvec)
    return shape, hyper.h0 + 0.5 * sq


def update_alpha(state, hyper, m):
    """q(alpha_m) gamma parameters from the table-count totals."""
    shape = hyper.c0 + float(state.aux_s_mean[m].sum() + state.aux_t_mean[m].sum())
    rate = hyper.d0 - float(state.eta_log_mean[m])
    return shape, rate


def update_eta(state, m) -> float:
    """E[log eta_m] at the current posterior mean of alpha_m."""
    alpha_mean = float(state.alpha_shape[m] / state.alpha_rate[m])
    return digamma(alpha_mean) - digamma(alpha_mean + state.dims[m])


def _rho_recurrence(rho, lik, nhat, g_ab, g_abbar, m, k):
    """New inclusion probabilities of one (group, factor) row, in column order.

    Column d's leave-one-out count moments come from the running sums se
    and sv, which every earlier column has already moved. rho and lik are
    Python lists (old inclusion probabilities, likelihood terms); the
    returned list holds the new probabilities. The clamps are written
    `0.0 if x < 0.0 else x`, which keeps -0.0 and passes NaN on to the
    non-finite check, exactly as max(x, 0.0) does.
    """
    log = math.log
    exp = math.exp
    isfinite = math.isfinite
    n_other = len(rho) - 1
    se = nhat.mean
    sv = nhat.variance
    out = []
    append = out.append
    for r_old, lik_d in zip(rho, lik):
        v_old = r_old * (1.0 - r_old)
        e1 = se - r_old
        e1 = 0.0 if e1 < 0.0 else e1
        v1 = sv - v_old
        v1 = 0.0 if v1 < 0.0 else v1
        e0 = n_other - e1
        e0 = 0.0 if e0 < 0.0 else e0
        # inline of expect_log_shifted_count, twice
        tot1 = g_ab + e1
        prior1 = log(tot1) - v1 / (2.0 * tot1 * tot1)
        tot0 = g_abbar + e0
        prior0 = log(tot0) - v1 / (2.0 * tot0 * tot0)
        logit = prior1 - lik_d - prior0
        if not isfinite(logit):
            # len(out) is the index of the column at hand
            raise NumericalError(
                "non-finite inclusion logit",
                context={"group": m, "factor": k, "column": len(out)},
            )
        if logit >= 0:
            r_new = 1.0 / (1.0 + exp(-logit))
        else:
            e = exp(logit)
            r_new = e / (1.0 + e)
        append(r_new)
        se += r_new - r_old
        sv += r_new * (1.0 - r_new) - v_old
    return out


def sweep(state, data, hyper, caches=None, active_threshold=1e-2):
    """One full coordinate-ascent pass, mutating state in place.

    Order per iteration: for each active factor k, update (a_k, b_k), then
    per group the count stats and (E[s], E[t]), then per column rho -> w ->
    lambda (rho strictly ascending in d because the leave-one-out counts
    depend on the other columns), then the factor scores; finally per group
    alpha, eta, and the noise precisions.

    Only the rho step runs column by column (_rho_recurrence), because it
    alone reads the running count sums. Column d's likelihood term, new
    loading and lambda read only its own pre-sweep values and dotx[d],
    which stays fixed while the row is updated, so they are computed for
    the whole row before and after the recurrence, in the operation order
    of a per-column loop and so with bit-identical results. caches, if
    given, must be consistent with state; sweep keeps its residual up to
    date.
    """
    if caches is None:
        caches = build_caches(state, data)
    M = state.n_groups
    e0_half = hyper.e0 + 0.5
    tau_bar = [state.tau_shape[m] / state.tau_rate[m] for m in range(M)]
    g_alpha = [
        geo_expect_gamma(state.alpha_shape[m], state.alpha_rate[m]) for m in range(M)
    ]

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
            lam_shape_row = state.lambda_shape[m][k]
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

            f_col = state.f_mean[:, k]
            f2_col = f_col * f_col + state.f_var[:, k]
            tb = tau_bar[m]
            sff = float(tb @ f2_col)
            tf = tb * f_col
            ff = float(tf @ f_col)
            coef_old = rho_row * w_row
            # sum_n tau f x~(no k): constant through the d-loop since only
            # factor k's own parameters change inside it
            dotx = caches.residual[m].T @ tf + coef_old * ff

            lik = 0.5 * ((w_row * w_row + wvar_row) * sff - 2.0 * w_row * dotx)
            rho_row[:] = _rho_recurrence(
                rho_row.tolist(), lik.tolist(), nhat, g_ab, g_abbar, m, k
            )

            wvar_row[:] = 1.0 / (lam_shape_row / lam_rate_row + rho_row * sff)
            w_row[:] = wvar_row * rho_row * dotx
            lam_shape_row[:] = e0_half
            lam_rate_row[:] = hyper.f0 + 0.5 * (w_row * w_row + wvar_row)

            caches.residual[m] += np.outer(f_col, coef_old - rho_row * w_row)
            caches.nhat_mean[m, k] = rho_row.sum()
            caches.nhat_var[m, k] = (rho_row * (1.0 - rho_row)).sum()
            caches.ntilde_mean[m, k] = (1.0 - rho_row).sum()
            caches.ntilde_var[m, k] = caches.nhat_var[m, k]

        # factor scores for column k; samples are mutually independent here
        precision = np.ones(state.n_samples)
        moment = np.zeros(state.n_samples)
        coefs = []
        for m in range(M):
            rho_row = state.rho[m][k]
            w_row = state.w_mean[m][k]
            coef = rho_row * w_row
            coefs.append(coef)
            precision += tau_bar[m] * float(rho_row @ (w_row * w_row + state.w_var[m][k]))
            moment += tau_bar[m] * (
                caches.residual[m] @ coef + state.f_mean[:, k] * float(coef @ coef)
            )
        f_var_new = 1.0 / precision
        f_new = f_var_new * moment
        f_old = state.f_mean[:, k].copy()
        state.f_mean[:, k] = f_new
        state.f_var[:, k] = f_var_new
        for m in range(M):
            caches.residual[m] += np.outer(f_old - f_new, coefs[m])

    for m in range(M):
        shape, rate = update_alpha(state, hyper, m)
        state.alpha_shape[m] = shape
        state.alpha_rate[m] = rate
        state.eta_log_mean[m] = update_eta(state, m)
        sq = _expected_sq_residual(state, caches, m)
        state.tau_shape[m][:] = hyper.g0 + 0.5 * state.dims[m]
        state.tau_rate[m][:] = hyper.h0 + 0.5 * sq

    _check_state_finite(state)
    return state


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


def _lgamma_of(arr):
    """Elementwise log-gamma; fast path for constant arrays."""
    a = np.asarray(arr, dtype=float)
    if a.size == 0:
        return np.zeros(a.shape)
    first = a.flat[0]
    if np.all(a == first):
        return np.full(a.shape, math.lgamma(first))
    return _LGAMMA_VEC(a)


def _gamma_prior_gap(a0, b0, shape, rate):
    """E_q[log p(x)] - E_q[log q(x)] for gamma prior (a0, b0), summed."""
    shape = np.asarray(shape, dtype=float)
    rate = np.asarray(rate, dtype=float)
    if shape.size == 0:
        return 0.0
    e_log = digamma(shape) - np.log(rate)
    e_x = shape / rate
    term = (
        a0 * math.log(b0)
        - math.lgamma(a0)
        - (shape * np.log(rate) - _lgamma_of(shape))
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

    if caches is None and M:
        caches = build_caches(state, data)
    for m in range(M):
        d_m = state.dims[m]
        tb = state.tau_shape[m] / state.tau_rate[m]
        e_log_tau = digamma(state.tau_shape[m]) - np.log(state.tau_rate[m])
        sq = _expected_sq_residual(state, caches, m)
        total += float(0.5 * d_m * np.sum(e_log_tau - LOG_2PI) - 0.5 * (tb @ sq))

        # loadings against their elementwise gamma-precision prior
        e_log_lam = digamma(state.lambda_shape[m]) - np.log(state.lambda_rate[m])
        lam_bar = state.lambda_shape[m] / state.lambda_rate[m]
        ew2 = state.w_mean[m] ** 2 + state.w_var[m]
        total += float(
            0.5 * np.sum(e_log_lam - lam_bar * ew2 + np.log(state.w_var[m]) + 1.0)
        )
        total += _gamma_prior_gap(
            hyper.e0, hyper.f0, state.lambda_shape[m], state.lambda_rate[m]
        )
        total += _gamma_prior_gap(
            hyper.g0, hyper.h0, state.tau_shape[m], state.tau_rate[m]
        )
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
        log_b_q = _lgamma_of(a) + _lgamma_of(b) - _lgamma_of(a + b)
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
            + np.sum(_lgamma_of(g_ab + nhat) - _lgamma_of(g_ab))
            + np.sum(_lgamma_of(g_abbar + ntil) - _lgamma_of(g_abbar))
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
    state = init_state(data, hyper, opts.seed)
    total_cells = float(sum(data.n_samples * d for d in data.dims))
    trace = []
    prev_mse = None
    streak = 0
    converged = False
    caches = None
    for it in range(int(opts.max_sweeps)):
        try:
            sweep(
                state,
                data,
                hyper,
                caches=caches,
                active_threshold=opts.active_factor_threshold,
            )
        except NumericalError as err:
            err.context.setdefault("sweep", it)
            raise
        # one fresh residual per sweep serves the MSE, the objective and the
        # next sweep; the state does not change between them. The swept
        # caches go first, so that two sets never coexist.
        caches = None
        caches = build_caches(state, data)
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


def predict_factors(state, observed):
    """Posterior factor scores for one new sample.

    observed maps group index -> length-D_m value vector. Gaussian
    conditioning at posterior-mean loadings, with the loading variances
    rho E[w^2] - (rho mu_w)^2 entering the precision diagonal. Noise
    precisions are averaged over the training samples.
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
        tau_avg = float(np.mean(state.tau_shape[m] / state.tau_rate[m]))
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
