"""Per-coordinate transcriptions of the printed update equations.

engine.sweep is the only implementation the package runs; these scalar
forms exist so that tests can pin single coordinates against hand-built
states and pin sweep against a coordinate-by-coordinate schedule. The
loading, score and noise updates read the explicit residual, one N x D
matrix per group (residual below), which the package itself never forms,
and the constant q(lambda) and q(tau) shapes from the hyperparameters. The
state stores neither the q(lambda) rates nor E[log eta]: update_w reads the
rate update_lambda gives for the loading it replaces, and update_alpha the
E[log eta] update_eta gives for the alpha it replaces, one group at a time,
where the package takes every group in one step (model._lambda_rate and
model._eta_log_mean).

More oracles pin code the package runs in another form: crt_mean_exact,
the closed-form table count that crt_mean_approx telescopes to;
predict_factors, held-out prediction for one sample conditioned from
scratch, which engine.condition_scores and engine.predict_factors split
into a once-per-command and a per-row step; and rho_row_priors and
loo_dotx, the collapsed-prior halves of one stacked row's inclusion logits
and the leave-one-factor-out data product of one (factor, group) row, which
engine.sweep takes for every active factor before its factor loop
(engine._prior_halves and engine._loo_weights).
"""

import math

import numpy as np

from cvgfa.approx import (
    bernoulli_sum_moments,
    crt_mean_approx,
    digamma,
    expect_log_shifted_count,
    geo_expect_beta,
    geo_expect_gamma,
)
from cvgfa.engine import GEO_FLOOR
from cvgfa.errors import DataError, NumericalError, UsageError


def rho_row_priors(rho, count_mean, count_var, g_ab, g_abbar, widths):
    """The two collapsed-prior halves of one stacked row's inclusion logits.

    rho holds the old probabilities of factor k's rows of every group,
    side by side, widths[m] columns for group m (an integer array).
    count_mean and count_var (each group's count moments, as
    bernoulli_sum_moments gives them with widths), g_ab and g_abbar hold
    one entry per group. Every column d reads its group's pre-update count
    moments minus its own term: E = count_mean - rho[d],
    V = count_var - rho[d](1 - rho[d]), with D_m - 1 - E for the
    complementary count, each clamped at 0. Returns E[log(g_ab + count)]
    and E[log(g_abbar + complement)]; the logit of column d is
    (first - lik) - second, lik its likelihood term. The per-group scalars
    are repeated over their group's columns.
    """
    e1 = np.repeat(count_mean, widths)
    e1 -= rho
    np.maximum(e1, 0.0, out=e1)
    v1 = np.repeat(count_var, widths)
    v1 -= rho * (1.0 - rho)
    np.maximum(v1, 0.0, out=v1)
    on = expect_log_shifted_count(np.repeat(g_ab, widths), e1, v1)
    e0 = np.repeat(widths - 1, widths) - e1
    np.maximum(e0, 0.0, out=e0)
    off = expect_log_shifted_count(np.repeat(g_abbar, widths), e0, v1)
    return on, off


def loo_dotx(xt_tf, loads, g, k):
    """X^T tf minus every factor but k's share: R^T tf + loads[k] (tf . f_k).

    R = X - f_mean @ loads is the residual and tf = tau_bar * f_k a
    length-N weight vector; the caller supplies the products xt_tf = X^T tf
    and g = f_mean^T tf.
    """
    g = g.copy()
    g[k] = 0.0
    return xt_tf - loads.T @ g


def residual(state, data):
    """X_m - E[F] (rho_m * mu_w,m) of every group: the data minus the full
    expected reconstruction, valid until the state next changes."""
    return [
        x - state.f_mean @ (r * w)
        for x, r, w in zip(data.groups, state.rho, state.w_mean)
    ]


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


def update_z(state, residual, hyper, m, k, d) -> float:
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

    tau_bar = hyper.tau_shape(state.dims[m]) / state.tau_rate[m]
    ew = state.w_mean[m][k, d]
    ew2 = ew * ew + state.w_var[m][k, d]
    ef = state.f_mean[:, k]
    ef2 = ef * ef + state.f_var[:, k]
    xk = residual[m][:, d] + ef * (state.rho[m][k, d] * ew)
    lik = -0.5 * (ew2 * float(tau_bar @ ef2) - 2.0 * ew * float(tau_bar @ (ef * xk)))
    logit = prior1 + lik - prior0
    if not math.isfinite(logit):
        raise NumericalError(
            "non-finite inclusion logit",
            context={"group": m, "factor": k, "column": d},
        )
    return _sigmoid(logit)


def update_w(state, residual, hyper, m, k, d):
    """Posterior (mean, variance) of one loading coefficient."""
    tau_bar = hyper.tau_shape(state.dims[m]) / state.tau_rate[m]
    ef = state.f_mean[:, k]
    ef2 = ef * ef + state.f_var[:, k]
    rho = state.rho[m][k, d]
    lam_mean = hyper.lambda_shape / update_lambda(state, hyper, m, k, d)
    variance = 1.0 / (lam_mean + rho * float(tau_bar @ ef2))
    xk = residual[m][:, d] + ef * (rho * state.w_mean[m][k, d])
    mean = variance * rho * float(tau_bar @ (ef * xk))
    return mean, variance


def update_f(state, residual, hyper, n, k):
    """Posterior (mean, variance) of one factor score."""
    precision = 1.0
    moment = 0.0
    for m in range(state.n_groups):
        tau_n = hyper.tau_shape(state.dims[m]) / state.tau_rate[m][n]
        rho_row = state.rho[m][k]
        w_row = state.w_mean[m][k]
        ew2_row = w_row * w_row + state.w_var[m][k]
        precision += tau_n * float(rho_row @ ew2_row)
        coef = rho_row * w_row
        xk = residual[m][n] + state.f_mean[n, k] * coef
        moment += tau_n * float(coef @ xk)
    variance = 1.0 / precision
    return variance * moment, variance


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


def update_alpha(state, hyper, m):
    """q(alpha_m) gamma (shape, rate) from group m's table-count totals and
    E[log eta_m] at the current q(alpha_m)."""
    totals = float(np.sum(state.aux_s_mean[m]) + np.sum(state.aux_t_mean[m]))
    return hyper.c0 + totals, hyper.d0 - update_eta(state, m)


def update_eta(state, m):
    """E[log eta_m] at the posterior mean of alpha_m, a float."""
    alpha_mean = float(state.alpha_shape[m] / state.alpha_rate[m])
    return float(digamma(alpha_mean) - digamma(alpha_mean + state.dims[m]))


def update_lambda(state, hyper, m, k, d):
    """q(lambda_kd) gamma rate at the current q(w_kd); its shape is
    hyper.lambda_shape."""
    ew = state.w_mean[m][k, d]
    ew2 = ew * ew + state.w_var[m][k, d]
    return hyper.f0 + 0.5 * ew2


def update_tau(state, residual, hyper, m, n):
    """q(tau_n) gamma rate for one sample of group m; its shape is
    hyper.tau_shape(D_m)."""
    resid = residual[m][n]
    rho = state.rho[m]
    w = state.w_mean[m]
    coef = rho * w
    svec = (rho * (w * w + state.w_var[m])).sum(axis=1)
    tvec = (coef * coef).sum(axis=1)
    ef = state.f_mean[n]
    ef2 = ef * ef + state.f_var[n]
    sq = float(resid @ resid) + float(ef2 @ svec) - float((ef * ef) @ tvec)
    return hyper.h0 + 0.5 * sq


def crt_mean_exact(a, l):
    """Exact mean table count of a Chinese restaurant process.

    Closed form sum_{i=0}^{l-1} a / (a + i) for concentration a and l
    customers; a = 0 or l = 0 gives 0. Serves as the brute-force oracle for
    crt_mean_approx.
    """
    if a < 0 or l < 0:
        raise ValueError("requires a >= 0 and l >= 0")
    if a == 0:
        return 0.0
    return float(sum(a / (a + i) for i in range(int(l))))


def predict_factors(state, hyper, observed):
    """Posterior factor scores (mean, covariance) for one new sample.

    observed maps group index -> length-D_m value vector. Gaussian
    conditioning at posterior-mean loadings, with the loading variances
    rho E[w^2] - (rho mu_w)^2 entering the precision diagonal. Noise
    precisions are averaged over the training samples; hyper supplies
    their q(tau) shapes. Everything is rebuilt for the one sample.
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
