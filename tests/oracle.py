"""Per-coordinate transcriptions of the printed update equations.

engine.sweep is the only implementation the package runs; these scalar
forms exist so that tests can pin single coordinates against hand-built
states and pin sweep against a coordinate-by-coordinate schedule. Each reads
the explicit residual, one N x D matrix per group (residual below), which
the package itself never forms, and the constant q(lambda) and q(tau) shapes
from the hyperparameters.
"""

import math

import numpy as np

from cvgfa.approx import (
    bernoulli_sum_moments,
    crt_mean_approx,
    expect_log_shifted_count,
    geo_expect_beta,
    geo_expect_gamma,
)
from cvgfa.engine import GEO_FLOOR
from cvgfa.errors import NumericalError


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
    lam_mean = hyper.lambda_shape / state.lambda_rate[m][k, d]
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


def update_lambda(state, hyper, m, k, d):
    """q(lambda_kd) gamma rate; its shape is hyper.lambda_shape."""
    ew2 = state.w_mean[m][k, d] ** 2 + state.w_var[m][k, d]
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
