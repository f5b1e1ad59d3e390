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
where the package takes every group in one step (model._lambda_rate, and
the first digamma call of engine.sweep).

More oracles pin code the package runs in another form: digamma_float
and digamma_trigamma_float, the recurrence and asymptotic series of one
float at a time, which approx's whole-array kernel repeats bit for bit,
with digamma mapping the first over an array; geo_gamma and geo_beta, the
geometric means of alpha and beta from it, and count_moments, the
Bernoulli-sum moments of one row from its sums, which engine.sweep takes
in batches; crt_mean_exact, the closed-form table count that crt_mean_approx
telescopes to;
predict_factors, held-out prediction for one sample conditioned from
scratch, which engine.condition_scores and engine.predict_factors split
into a once-per-command and a per-row step; and rho_row_priors and
loo_dotx, the collapsed-prior halves of one stacked row's inclusion logits
and the leave-one-factor-out data product of one (factor, group) row, which
engine.sweep takes for every active factor before its factor loop
(engine._prior_halves and engine._loo_weights).

The oracles run on states that hold all K factors, the layout of the
printed equations: prior_reset sets the factors the loading block leaves
inactive to the prior one coordinate at a time, where the sweep drops
their rows from the state (model._keep_rows). full_state gives such a
state from one that holds fewer rows, every other factor at the prior, so
the package's rows can be compared with the oracle's rows at
state.factors and every other oracle row with the prior.

surrogate_elbo is the objective written term by term, as the textbook
conjugate-gamma bound of variational group factor analysis (Virtanen et
al., AISTATS 2012) gives it: each gamma factor q(lambda), q(tau) and
q(alpha) against its prior through one general prior/entropy gap, and the
likelihood and loading terms through E[log lambda], E[lambda], E[log tau]
and E[tau], psi of their shapes included, every entry of all K factors
summed. Its likelihood reads E[||x_n - G_m f_n||^2] from the explicit
residual (expected_sq_residual), not from the expanded squared norms and
stacked sums of model that the package reads. engine.surrogate_elbo takes
the q(lambda) and q(tau) parts in the closed forms these cancel to, and
the factors it does not hold as one closed-form prior term.
"""

import collections
import math

import numpy as np

from cvgfa.approx import _SERIES_START, crt_mean_approx, expect_log_shifted_count
from cvgfa.engine import GEO_FLOOR, LOG_2PI, _bernoulli_entropy, _lgamma
from cvgfa.errors import DataError, NumericalError, UsageError
from cvgfa.model import ACTIVE_MASS, BETA_B_FLOOR, _lambda_rate


def _digamma_tail(inv2):
    """B_2n/(2n) series of digamma in 1/x^2, innermost last."""
    return 1.0 / 12.0 - inv2 * (
        1.0 / 120.0
        - inv2
        * (
            1.0 / 252.0
            - inv2
            * (
                1.0 / 240.0
                - inv2 * (1.0 / 132.0 - inv2 * (691.0 / 32760.0 - inv2 / 12.0))
            )
        )
    )


def _trigamma_tail(inv2):
    """B_2n series of trigamma in 1/x^2, innermost last."""
    return 1.0 / 6.0 - inv2 * (
        1.0 / 30.0
        - inv2
        * (
            1.0 / 42.0
            - inv2
            * (
                1.0 / 30.0
                - inv2 * (5.0 / 66.0 - inv2 * (691.0 / 2730.0 - inv2 * (7.0 / 6.0)))
            )
        )
    )


def digamma_float(y):
    """digamma of one float: psi(x) = psi(x + 1) - 1/x until the argument
    reaches 6, then psi(x) ~ log x - 1/(2x) - sum_n B_2n / (2n x^2n). The
    log is numpy's, as approx's kernel takes it."""
    if not y > 0:
        raise ValueError("digamma requires x > 0")
    acc = 0.0
    while y < _SERIES_START:
        acc -= 1.0 / y
        y += 1.0
    inv = 1.0 / y
    inv2 = inv * inv
    return float(acc + (np.log(y) - 0.5 * inv - inv2 * _digamma_tail(inv2)))


def digamma_trigamma_float(y):
    """digamma and trigamma of one float from one recurrence: the digamma
    is digamma_float's, since both step y alike, and the trigamma keeps its
    own sum: psi'(x) = psi'(x + 1) + 1/x^2 up to 6, then
    psi'(x) ~ 1/x + 1/(2x^2) + sum_n B_2n / x^(2n+1)."""
    if not y > 0:
        raise ValueError("digamma and trigamma require x > 0")
    acc = 0.0
    acc2 = 0.0
    while y < _SERIES_START:
        acc -= 1.0 / y
        y2 = y * y
        # 1 / y^2 is inf where y * y underflows to 0
        acc2 += 1.0 / y2 if y2 > 0.0 else math.inf
        y += 1.0
    inv = 1.0 / y
    inv2 = inv * inv
    psi = float(acc + (np.log(y) - 0.5 * inv - inv2 * _digamma_tail(inv2)))
    return psi, acc2 + (inv + 0.5 * inv2 + inv * inv2 * _trigamma_tail(inv2))


def digamma(x):
    """digamma_float of every element of x, an array of x's shape."""
    x = np.asarray(x, dtype=float)
    return np.reshape([digamma_float(v) for v in x.ravel().tolist()], x.shape)


def geo_gamma(shape, rate):
    """exp(E[log y]) of y ~ Gamma(shape, rate): exp(psi(shape)) / rate."""
    return np.exp(digamma(shape)) / rate


def geo_beta(a, b):
    """exp(E[log y]) and exp(E[log(1 - y)]) of y ~ Beta(a, b):
    exp(psi(a) - psi(a + b)) and exp(psi(b) - psi(a + b))."""
    psi_ab = digamma(np.add(a, b))
    return np.exp(digamma(a) - psi_ab), np.exp(digamma(b) - psi_ab)


CountMoments = collections.namedtuple("CountMoments", "mean variance p_plus")


def count_moments(row):
    """Moments of the sum of Bernoulli(xi) over one row of probabilities
    xi: its mean sum(xi), its variance sum(xi (1 - xi)) and the probability
    that it is positive, 1 - prod(1 - xi), as -expm1(sum(log1p(-xi))). Each
    sum is np.sum of the row."""
    row = np.asarray(row, dtype=float)
    with np.errstate(divide="ignore"):
        log_none = np.sum(np.log1p(-row))
    return CountMoments(np.sum(row), np.sum(row * (1.0 - row)), -np.expm1(log_none))


def rho_row_priors(rho, count_mean, count_var, g_ab, g_abbar, widths):
    """The two collapsed-prior halves of one stacked row's inclusion logits.

    rho holds the old probabilities of factor k's rows of every group,
    side by side, widths[m] columns for group m (an integer array).
    count_mean and count_var (each group's count moments, as
    approx._count_moments gives them with widths), g_ab and g_abbar hold
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


def group_loadings(state, m):
    """Group m's K x D_m columns of rho, w_mean and w_var (state.spans[m]),
    views that read and write the state's arrays."""
    cols = state.spans[m]
    return state.rho[:, cols], state.w_mean[:, cols], state.w_var[:, cols]


def residual(state, data):
    """X_m - E[F] (rho_m * mu_w,m) of every group: the data minus the full
    expected reconstruction, valid until the state next changes."""
    return [
        x - state.f_mean @ (state.rho[:, cols] * state.w_mean[:, cols])
        for x, cols in zip(data.groups, state.spans)
    ]


def expected_sq_residual(state, data, m):
    """E[||x_n - G_m f_n||^2] of every sample n of group m, from the explicit
    residual: its squared row plus, for every factor k and column d, the
    variance the posterior adds, E[g_kd^2] E[f_nk^2] - (E[g_kd] E[f_nk])^2
    with E[g_kd^2] = rho (mu_w^2 + var_w) and E[g_kd] = rho mu_w, summed
    over the columns of the group first."""
    r = residual(state, data)[m]
    rho, w, w_var = group_loadings(state, m)
    ef_sq = state.f_mean**2 + state.f_var
    f_sq = state.f_mean**2
    second = np.sum(rho * (w**2 + w_var), axis=1)
    square = np.sum((rho * w) ** 2, axis=1)
    return np.sum(r * r, axis=1) + ef_sq @ second - f_sq @ square


def update_sufficient_stats(state, m, k, exclude_d=None, complement=False):
    """Moments of the inclusion count for factor k in group m.

    complement=True gives the count of zeros (probabilities 1 - rho);
    exclude_d leaves column d out of the sum.
    """
    row = group_loadings(state, m)[0][k]
    if exclude_d is not None:
        if not 0 <= exclude_d < row.shape[0]:
            raise IndexError(f"column {exclude_d} out of range")
        mask = np.ones(row.shape[0], dtype=bool)
        mask[exclude_d] = False
        row = row[mask]
    return count_moments(1.0 - row if complement else row)


def _geo_concentrations(state, m, k):
    """Clamped geometric means of alpha beta_k and alpha (1 - beta_k)."""
    g_alpha = geo_gamma(state.alpha_shape[m], state.alpha_rate[m])
    g_beta, g_beta_bar = geo_beta(state.beta_a[k], state.beta_b[k])
    g_ab = g_alpha * g_beta
    g_abbar = g_alpha * g_beta_bar
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
    rho, w, w_var = group_loadings(state, m)
    ew = w[k, d]
    ew2 = ew * ew + w_var[k, d]
    ef = state.f_mean[:, k]
    ef2 = ef * ef + state.f_var[:, k]
    xk = residual[m][:, d] + ef * (rho[k, d] * ew)
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
    rho, w, _ = group_loadings(state, m)
    rho = rho[k, d]
    lam_mean = hyper.lambda_shape / update_lambda(state, hyper, m, k, d)
    variance = 1.0 / (lam_mean + rho * float(tau_bar @ ef2))
    xk = residual[m][:, d] + ef * (rho * w[k, d])
    mean = variance * rho * float(tau_bar @ (ef * xk))
    return mean, variance


def update_f(state, residual, hyper, n, k):
    """Posterior (mean, variance) of one factor score."""
    precision = 1.0
    moment = 0.0
    for m in range(state.n_groups):
        tau_n = hyper.tau_shape(state.dims[m]) / state.tau_rate[m][n]
        rho, w, w_var = group_loadings(state, m)
        rho_row = rho[k]
        w_row = w[k]
        ew2_row = w_row * w_row + w_var[k]
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
    E[log eta_m] at the current q(alpha_m), once for each of the K
    factors' eta_mk ~ Beta(alpha_m, D_m)."""
    totals = float(np.sum(state.aux_s_mean[m]) + np.sum(state.aux_t_mean[m]))
    return hyper.c0 + totals, hyper.d0 - state.n_factors * update_eta(state, m)


def update_eta(state, m):
    """E[log eta_m] at the posterior mean of alpha_m, a float."""
    alpha_mean = float(state.alpha_shape[m] / state.alpha_rate[m])
    return float(digamma(alpha_mean) - digamma(alpha_mean + state.dims[m]))


def update_lambda(state, hyper, m, k, d):
    """q(lambda_kd) gamma rate at the current q(w_kd); its shape is
    hyper.lambda_shape."""
    _, w, w_var = group_loadings(state, m)
    ew = w[k, d]
    ew2 = ew * ew + w_var[k, d]
    return hyper.f0 + 0.5 * ew2


def update_tau(state, residual, hyper, m, n):
    """q(tau_n) gamma rate for one sample of group m; its shape is
    hyper.tau_shape(D_m)."""
    resid = residual[m][n]
    rho, w, w_var = group_loadings(state, m)
    coef = rho * w
    svec = (rho * (w * w + w_var)).sum(axis=1)
    tvec = (coef * coef).sum(axis=1)
    ef = state.f_mean[n]
    ef2 = ef * ef + state.f_var[n]
    sq = float(resid @ resid) + float(ef2 @ svec) - float((ef * ef) @ tvec)
    return hyper.h0 + 0.5 * sq


def prior_reset(state, hyper):
    """Every factor below model.ACTIVE_MASS in every group, one coordinate
    at a time, to the prior: rho 0, q(w) mean 0 and variance f0 / e0,
    q(f) mean 0 and variance 1. q(beta) and the table counts stay."""
    blocks = [group_loadings(state, m) for m in range(state.n_groups)]
    for k in range(state.n_factors):
        if any(np.sum(rho[k]) >= ACTIVE_MASS for rho, _, _ in blocks):
            continue
        for rho, w, w_var in blocks:
            for d in range(rho.shape[1]):
                rho[k, d] = 0.0
                w[k, d] = 0.0
                w_var[k, d] = hyper.f0 / hyper.e0
        for n in range(state.n_samples):
            state.f_mean[n, k] = 0.0
            state.f_var[n, k] = 1.0


def full_state(state, hyper):
    """A copy of state holding all K factors: the rows of rho, w_mean and
    w_var and the columns of f_mean and f_var of the held factors at their
    ids (state.factors), every other factor at the prior as prior_reset
    sets it."""
    full = state.copy()
    K, ids = state.n_factors, state.factors
    prior = {"rho": 0.0, "w_mean": 0.0, "w_var": hyper.f0 / hyper.e0}
    for name, value in prior.items():
        held = getattr(state, name)
        rows = np.full((K, held.shape[1]), value)
        rows[ids] = held
        setattr(full, name, rows)
    for name, value in (("f_mean", 0.0), ("f_var", 1.0)):
        held = getattr(state, name)
        scores = np.full((held.shape[0], K), value, order="F")
        scores[:, ids] = held
        setattr(full, name, scores)
    full.factors = np.arange(K)
    return full


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
    their q(tau) shapes. Everything is rebuilt for the one sample. The
    scores are those of the factors whose loadings state holds: all K, or
    the rows of state.factors only.
    """
    if not observed:
        raise UsageError("at least one observed group is required")
    K = state.rho.shape[0]
    precision = np.eye(K)
    rhs = np.zeros(K)
    for m in sorted(observed):
        x = np.asarray(observed[m], dtype=float).ravel()
        if x.shape[0] != state.dims[m]:
            raise DataError(
                f"observed group {m} has {x.shape[0]} values, expected {state.dims[m]}"
            )
        tau_avg = float(np.mean(hyper.tau_shape(state.dims[m]) / state.tau_rate[m]))
        rho, w_mean, w_var = group_loadings(state, m)
        g = rho * w_mean
        g_var = (rho * (w_mean**2 + w_var) - g * g).sum(axis=1)
        precision += tau_avg * (g @ g.T + np.diag(g_var))
        rhs += tau_avg * (g @ x)
    covariance = np.linalg.inv(precision)
    return covariance @ rhs, covariance


def _gamma_prior_gap(a0, b0, shape, rate, log_rate, e_log, mean, log_gamma):
    """E_q[log p(x)] - E_q[log q(x)] for gamma prior (a0, b0), summed.

    shape is one number shared by every rate, or an array shaped like rate;
    log_gamma is its log-gamma. The caller, which reads them too, hands in
    log_rate = log(rate), e_log = E[log x] = psi(shape) - log_rate and
    mean = E[x] = shape / rate.
    """
    if rate.size == 0:
        return 0.0
    term = (
        a0 * math.log(b0)
        - math.lgamma(a0)
        - (shape * log_rate - log_gamma)
        + (a0 - shape) * e_log
        - (b0 - rate) * mean
    )
    return float(np.sum(term))


def _gamma_moments(shape, rate, psi):
    """log(rate), E[log x] = psi - log(rate) and E[x] = shape / rate of
    x ~ Gamma(shape, rate), psi the digamma of shape: each log taken once."""
    log_rate = np.log(rate)
    return log_rate, psi - log_rate, shape / rate


def _loading_terms(w_mean, w_var, hyper, psi_lam, lgamma_lam):
    """The loadings' share of the objective, summed over the entries of
    (w_mean, w_var): E[log p(w | lambda)] + H[q(w)] and the q(lambda) gap,
    the rates derived from q(w). psi_lam and lgamma_lam are the digamma
    and log-gamma of the q(lambda) shape."""
    lam_shape = hyper.lambda_shape
    lam_rate = _lambda_rate(w_mean, w_var, hyper.f0)
    log_lam, e_log_lam, lam_bar = _gamma_moments(lam_shape, lam_rate, psi_lam)
    ew2 = w_mean**2 + w_var
    total = float(0.5 * np.sum(e_log_lam - lam_bar * ew2 + np.log(w_var) + 1.0))
    return total + _gamma_prior_gap(
        hyper.e0, hyper.f0, lam_shape, lam_rate, log_lam, e_log_lam, lam_bar, lgamma_lam
    )


def surrogate_elbo(state, data, hyper) -> float:
    """The variational objective term by term: the likelihood through
    E[log tau], E[tau] and the expected squared residual of the explicit
    residual (expected_sq_residual), the loadings through E[log lambda] and
    E[lambda], every gamma factor against its prior through
    _gamma_prior_gap, the inclusion entropy, the scores, q(beta) and the
    collapsed prior on Z at plug-in concentrations. state must hold all K
    factors (full_state), each of which adds its terms entry by entry."""
    total = 0.0
    M = state.n_groups
    K = state.n_factors
    assert list(state.factors) == list(range(K)), "the oracle reads all K rows"

    # the q(tau) and q(lambda) shapes' special functions, for every group at once
    tau_shapes = hyper.tau_shape(np.array(state.dims))
    psi_tau, lgamma_tau = digamma(tau_shapes), _lgamma(tau_shapes)
    psi_lam, lgamma_lam = digamma(hyper.lambda_shape), _lgamma(hyper.lambda_shape)
    f_mean, f_var = state.f_mean, state.f_var
    counts = []
    for m in range(M):
        d_m = state.dims[m]
        tau_shape = tau_shapes[m]
        tau_rate = state.tau_rate[m]
        log_tau, e_log_tau, tb = _gamma_moments(tau_shape, tau_rate, psi_tau[m])
        rho, w_mean, w_var = group_loadings(state, m)
        sq = expected_sq_residual(state, data, m)
        total += float(0.5 * d_m * np.sum(e_log_tau - LOG_2PI) - 0.5 * (tb @ sq))

        # loadings against their elementwise gamma-precision prior
        total += _loading_terms(w_mean, w_var, hyper, psi_lam, lgamma_lam)
        total += _gamma_prior_gap(
            hyper.g0, hyper.h0, tau_shape, tau_rate, log_tau, e_log_tau, tb,
            lgamma_tau[m],
        )
        total += _bernoulli_entropy(rho)
        counts.append((rho.sum(axis=1), (1.0 - rho).sum(axis=1)))
    # factor scores against the standard normal prior
    if f_mean.size:
        ef2 = f_mean**2 + f_var
        total += float(0.5 * np.sum(np.log(f_var) - ef2 + 1.0))

    if M:
        shape, rate = state.alpha_shape, state.alpha_rate
        total += _gamma_prior_gap(
            hyper.c0, hyper.d0, shape, rate, *_gamma_moments(shape, rate, digamma(shape)),
            _lgamma(shape),
        )

    if K:
        a0 = hyper.kappa0 / K
        b0 = max(hyper.kappa0 * (K - 1) / K, BETA_B_FLOOR)
        a = state.beta_a
        b = state.beta_b
        ab = a + b
        psi_a, psi_b, psi_ab = digamma(np.stack([a, b, ab]))
        e_log_beta = psi_a - psi_ab
        e_log_bbar = psi_b - psi_ab
        log_b_q = _lgamma(a) + _lgamma(b) - _lgamma(ab)
        log_b_0 = math.lgamma(a0) + math.lgamma(b0) - math.lgamma(a0 + b0)
        total += float(
            np.sum(
                log_b_q - log_b_0 + (a0 - a) * e_log_beta + (b0 - b) * e_log_bbar
            )
        )

        # collapsed prior on Z at plug-in concentrations and expected counts
        g_beta = np.exp(e_log_beta)
        g_beta_bar = np.exp(e_log_bbar)
        g_alphas = geo_gamma(state.alpha_shape, state.alpha_rate)
        for m in range(M):
            d_m = state.dims[m]
            g_alpha = g_alphas[m]
            g_ab = np.maximum(g_alpha * g_beta, GEO_FLOOR)
            g_abbar = np.maximum(g_alpha * g_beta_bar, GEO_FLOOR)
            nhat, ntil = counts[m]
            total += float(
                K * (math.lgamma(g_alpha) - math.lgamma(g_alpha + d_m))
                + np.sum(_lgamma(g_ab + nhat) - _lgamma(g_ab))
                + np.sum(_lgamma(g_abbar + ntil) - _lgamma(g_abbar))
            )
    return total
