"""Coordinate-ascent inference engine.

sweep() is the one implementation of the update equations, and fit()
drives it. The per-coordinate transcriptions of the printed equations, which
tests pin sweep() against, live with the tests (tests/oracle.py).

A sweep updates the loadings of every active factor first and their
scores after, the block order of variational group factor analysis
(Virtanen et al., AISTATS 2012); each block is an exact coordinate update.
Every update of a (factor, group) row is a whole-row numpy expression,
the inclusion probabilities included: each column's collapsed prior reads
the row's leave-one-out count sums as they stood before the row was
updated, not as the earlier columns of the row have moved them. This
departs from the paper's strictly sequential column order; it is the
minibatch update of stochastic collapsed variational inference (Foulds et
al., KDD 2013), with the whole row as the batch. What the collapsed prior
needs of a row, q(beta), the count moments and the expected table counts
of the auxiliary-variable augmentation (as in Teh, Kurihara & Welling,
NIPS 2008), reads no other factor's update within the block, so it is
taken for every active factor in one batch before the factor loop. Given
the factor's q(beta) parameters, the rows of one factor in different
groups read disjoint state, so each factor takes one step for all of
them: its rows side by side, whatever the group widths, with the
per-group quantities (count moments, concentrations, factor-score sums)
taken per group. No N x D residual is formed: the products that leave
one factor out come from products of the data taken once per sweep and
the K x D expected loadings, and every other reader of the residual takes
its per-sample squared norms, which sweep() returns (see model._sq_norms).
"""

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .approx import (
    _complement_moments,
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
    _expected_sq_residual,
    _loading_products,
    _norms_mse,
    _row_norms,
    _sq_norms,
    active_factors,
    init_state,
)

__all__ = [
    "FitReport",
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
class FitReport:
    final_state: VariationalState
    sweeps_run: int
    trace: list  # one (objective, train_mse, k_active) tuple per sweep
    converged: bool
    metadata: dict = field(default_factory=dict)


def _state_sq_norms(state, data):
    """_sq_norms of every group at the state's expected loadings and scores."""
    return [
        _sq_norms(_row_norms(x), state.f_mean, *_loading_products(x, r * w))
        for x, r, w in zip(data.groups, state.rho, state.w_mean)
    ]


def update_beta_params(state, hyper, k):
    """q(beta) parameters from the prior plus table-count sums.

    k is one factor, giving two numbers, or an index array of factors,
    giving two arrays with one entry per factor. A factor's table counts
    are summed over the groups along the last axis of a C-ordered array,
    numpy's pairwise sum, so a factor's sum is np.sum of its column alone
    however many factors are taken; a reduction across the rows of the
    M x K count arrays would add sequentially and differ in the last bit
    from 8 groups on.
    """
    K = int(hyper.K)
    s = np.add.reduce(np.ascontiguousarray(state.aux_s_mean.T[k]), axis=-1)
    t = np.add.reduce(np.ascontiguousarray(state.aux_t_mean.T[k]), axis=-1)
    a = hyper.kappa0 / K + s
    b = hyper.kappa0 * (1.0 - 1.0 / K) + t
    return a, np.maximum(b, BETA_B_FLOOR)


def update_alpha(state, hyper, m):
    """q(alpha_m) gamma parameters from the table-count totals."""
    shape = hyper.c0 + float(state.aux_s_mean[m].sum() + state.aux_t_mean[m].sum())
    rate = hyper.d0 - float(state.eta_log_mean[m])
    return shape, rate


def update_eta(state, m) -> float:
    """E[log eta_m] at the current posterior mean of alpha_m."""
    alpha_mean = float(state.alpha_shape[m] / state.alpha_rate[m])
    return digamma(alpha_mean) - digamma(alpha_mean + state.dims[m])


def _rho_row(rho, lik, count_mean, count_var, g_ab, g_abbar, widths, k):
    """New inclusion probabilities of factor k's stacked row, all at once.

    rho and lik are the old probabilities and the likelihood terms of the
    rows of every group, side by side, widths[m] columns for group m (an
    integer array). count_mean and count_var (the moments of each group's
    count, as bernoulli_sum_moments gives them with widths), g_ab and
    g_abbar hold one entry per group. Every column d reads its group's
    pre-update count moments minus its own term: E = count_mean - rho[d],
    V = count_var - rho[d](1 - rho[d]), with D_m - 1 - E for the
    complementary count, each clamped at 0 (np.maximum passes NaN on to the
    non-finite check). The logits overwrite lik, which saves a row-sized
    array; the new probabilities are a new array. A non-finite logit raises
    NumericalError naming the lowest such column, of the lowest such group.
    """
    e1 = np.repeat(count_mean, widths)
    e1 -= rho
    np.maximum(e1, 0.0, out=e1)
    v1 = np.repeat(count_var, widths)
    v1 -= rho * (1.0 - rho)
    np.maximum(v1, 0.0, out=v1)
    logit = np.subtract(
        expect_log_shifted_count(np.repeat(g_ab, widths), e1, v1), lik, out=lik
    )
    e0 = np.repeat(widths - 1, widths) - e1
    del e1
    np.maximum(e0, 0.0, out=e0)
    logit -= expect_log_shifted_count(np.repeat(g_abbar, widths), e0, v1)
    del e0, v1
    bad = ~np.isfinite(logit)
    if bad.any():
        col = int(bad.argmax())
        ends = np.cumsum(widths)
        m = int(np.searchsorted(ends, col, side="right"))
        raise NumericalError(
            "non-finite inclusion logit",
            context={"group": m, "factor": k, "column": col - int(ends[m] - widths[m])},
        )
    # 1 / (1 + exp(-x)) for x >= 0 and e / (1 + e), e = exp(x), below 0:
    # exp never sees a positive argument, so it cannot overflow
    e = np.exp(-np.abs(logit))
    new = np.where(logit >= 0, 1.0, e)
    e += 1.0
    new /= e
    return new


def _loo_dotx(xt_tf, loads, g, k):
    """X^T tf minus every factor but k's share: R^T tf + loads[k] (tf . f_k).

    R = X - f_mean @ loads is the residual and tf = tau_bar * f_k a
    length-N weight vector; the caller supplies the products xt_tf = X^T tf
    and g = f_mean^T tf.
    """
    g = g.copy()
    g[k] = 0.0
    return xt_tf - loads.T @ g


def _score_block(state, tau_bar, products, active):
    """Update the scores of the active factors, one column after another.

    products[m] holds group m's _loading_products (X_m C_m^T, C_m C_m^T),
    C_m = rho[m] * w_mean[m], at the state's loadings, which the block does
    not move; tau_bar[m] holds E[tau] of group m's samples. Column k's
    moment is sum_m tau_bar_m (R_m c_k + f_k (c_k . c_k)), taken as
    sum_m tau_bar_m (X_m C_m^T[:, k] - F h_m) with h_m column k of
    C_m C_m^T, entry k zeroed, and F the scores as the earlier columns of
    the block have left them. Its precision, 1 + sum_m tau_bar_m
    sum_d rho E[w^2], reads no score, so every column's is taken at once.
    Each column's update maximises the objective given everything else,
    and the samples are independent given the loadings.
    """
    f_mean = state.f_mean
    tau = np.column_stack(tau_bar)
    txc = np.zeros_like(f_mean)
    precision = np.ones_like(f_mean)
    for m, (xc, _) in enumerate(products):
        tb = tau_bar[m][:, None]
        txc += tb * xc
        w = state.w_mean[m]
        precision += tb * (state.rho[m] * (w * w + state.w_var[m])).sum(axis=1)
    # h[k] is M x K: row m is column k of C_m C_m^T with entry k zeroed
    h = np.stack([cc.T for _, cc in products], axis=1)
    diag = np.arange(h.shape[0])
    h[diag, :, diag] = 0.0
    f_var = 1.0 / precision
    for k in active:
        moment = txc[:, k] - np.einsum("nj,nj->n", f_mean, tau @ h[k])
        f_mean[:, k] = f_var[:, k] * moment
    state.f_var[:, active] = f_var[:, active]


def sweep(state, data, hyper, active_threshold=1e-2, *, _data_norms=None):
    """One full coordinate-ascent pass, mutating state in place.

    Order per iteration, in two blocks and a tail. The loading block: for
    every active factor, (a_k, b_k), then every group's count moments and
    (E[s], E[t]); then, one active factor k after another, every group's
    row of rho, then their w and lambda. The score block: each active
    factor's scores (_score_block). Then per group alpha, eta, and the noise
    precisions. This is the block order of variational group factor
    analysis (Virtanen et al., AISTATS 2012): all loadings, then all latent
    factors.

    The collapsed-prior part of the loading block is one batch over the
    active factors A, taken before the factor loop: q(beta) of every factor
    in A (update_beta_params), the concentrations g_ab and g_abbar as
    |A| x M arrays, each group's count moments and those of its complement
    over the |A| x D_m block rho[m][A] (bernoulli_sum_moments and
    _complement_moments, one reduction per group), and the table counts of
    every (factor, group) row from one crt_mean_approx call for E[s] and
    one for E[t]. Factor k's batch values read only its own rows, q(beta_k)
    and alpha, which no other factor's step moves, so each equals the value
    a step of k alone would compute after the factors before it, bit for
    bit: every sum runs over one row (or the groups of one factor) in
    numpy's pairwise order, as np.sum of it alone would.

    A factor's step in the loop moves all its rows at once: they are laid
    side by side in one stacked row of sum_m D_m columns (gathered once per
    array and written back once), and the group widths mark the
    boundaries. Given (a_k, b_k) the rows read disjoint state, so this
    regroups the same update. The per-group scalars (the concentrations,
    sff, the count moments) are broadcast over their group's columns, and
    dotx stays a per-group product, so every value equals the one a
    per-group loop would compute, bit for bit.

    The rows' rho moves in one step (_rho_row): column d reads its row's
    pre-update count moments minus its own term. The paper updates the
    columns one after another, each reading the sums its predecessors have
    moved; reading the pre-row sums instead is what lets the row be one
    numpy expression. Column d's likelihood term, new loading and lambda
    read only its own values and dotx[d], which stays fixed while the row
    is updated, so they are whole-row expressions too.

    No N x D residual R = X_m - F C_m is formed, and the factor loop reads
    no data. F and the noise precisions stay fixed through the loading
    block, so what it needs of them is taken before it, for all active
    factors A at once: each group's sff, and one (tau_bar_m F_A)^T F and
    one (tau_bar_m F_A)^T X_m product per group, from which _loo_dotx
    leaves factor k out through the K x D expected loadings
    C_m = rho[m] * w_mean[m] (row k rewritten after each row update).
    After the loading block C_m is final for the pass: one X_m C_m^T and
    one C_m C_m^T per group (model._loading_products) serve the score block
    and then the residual's per-sample squared norms (model._sq_norms),
    which the noise precisions read and which are returned, one vector per
    group, for the caller's training error and objective. So per pass and
    group the data is read by (tau_bar_m F_A)^T X_m and X_m C_m^T only; its
    row norms (model._row_norms) are taken once per fit by the caller and
    passed as _data_norms, or here when it is omitted. The moments of a
    row's count of zeros derive from those of its count of ones
    (_complement_moments).
    """
    M = state.n_groups
    lam_shape = hyper.lambda_shape
    f_mean = state.f_mean
    dims = state.dims
    widths = np.array(dims)
    # each group's columns in a stacked row, the groups side by side
    ends = np.cumsum(dims).tolist()
    spans = [slice(end - d_m, end) for end, d_m in zip(ends, dims)]
    tau_bar = [hyper.tau_shape(d_m) / state.tau_rate[m] for m, d_m in enumerate(dims)]
    active = sorted(active_factors(state, active_threshold))

    # the batch: every active factor's q(beta), count moments and table
    # counts, taken before the loadings and products below so that its
    # temporaries are gone before those exist
    idx = np.array(active, dtype=np.intp)
    beta_a, beta_b = update_beta_params(state, hyper, idx)
    state.beta_a[idx] = beta_a
    state.beta_b[idx] = beta_b
    g_alpha = geo_expect_gamma(state.alpha_shape, state.alpha_rate)
    g_ab = np.maximum(geo_expect_beta(beta_a, beta_b)[:, None] * g_alpha, GEO_FLOOR)
    g_abbar = np.maximum(geo_expect_beta(beta_b, beta_a)[:, None] * g_alpha, GEO_FLOOR)
    block = np.concatenate([r[idx] for r in state.rho], axis=1)
    nhat = bernoulli_sum_moments(block, widths)
    ntil = _complement_moments(nhat, block, widths)
    del block
    state.aux_s_mean[:, idx] = np.minimum(
        np.maximum(crt_mean_approx(g_ab, nhat), 0.0), widths
    ).T
    state.aux_t_mean[:, idx] = np.minimum(
        np.maximum(crt_mean_approx(g_abbar, ntil), 0.0), widths
    ).T

    loads = [state.rho[m] * state.w_mean[m] for m in range(M)]
    f2 = f_mean * f_mean + state.f_var
    sff_all = np.array([tb @ f2 for tb in tau_bar])
    tf = [tb[:, None] * f_mean[:, active] for tb in tau_bar]
    xt_tf = [t.T @ x for t, x in zip(tf, data.groups)]
    ft_tf = [t.T @ f_mean for t in tf]
    del f2, tf

    for i, k in enumerate(active):
        rho = np.concatenate([r[k] for r in state.rho])
        sff = np.repeat(sff_all[:, k], widths)
        # sum_n tau f x~(no k): constant through the row update since only
        # factor k's own parameters change inside it
        dotx = np.concatenate(
            [_loo_dotx(xt_tf[m][i], loads[m], ft_tf[m][i], k) for m in range(M)]
        )
        w = np.concatenate([x[k] for x in state.w_mean])
        ew2 = np.concatenate([x[k] for x in state.w_var])
        ew2 += w * w
        lik = 0.5 * (ew2 * sff - 2.0 * w * dotx)
        # row-sized arrays are dropped as soon as they are spent, which keeps
        # the sweep's peak memory below one group's data at wide sizes
        del w, ew2
        rho = _rho_row(
            rho, lik, nhat.mean[i], nhat.variance[i], g_ab[i], g_abbar[i], widths, k
        )
        del lik

        lam_rate = np.concatenate([x[k] for x in state.lambda_rate])
        w_var = 1.0 / (lam_shape / lam_rate + rho * sff)
        del lam_rate, sff
        w = w_var * rho * dotx
        del dotx
        lam_rate = hyper.f0 + 0.5 * (w * w + w_var)
        load = rho * w
        for m, cols in enumerate(spans):
            state.rho[m][k] = rho[cols]
            state.w_mean[m][k] = w[cols]
            state.w_var[m][k] = w_var[cols]
            state.lambda_rate[m][k] = lam_rate[cols]
            loads[m][k] = load[cols]

    products = [_loading_products(x, c) for x, c in zip(data.groups, loads)]
    _score_block(state, tau_bar, products, active)
    if _data_norms is None:
        _data_norms = [_row_norms(x) for x in data.groups]
    norms = [
        _sq_norms(xx, f_mean, xc, cc) for xx, (xc, cc) in zip(_data_norms, products)
    ]
    for m in range(M):
        shape, rate = update_alpha(state, hyper, m)
        state.alpha_shape[m] = shape
        state.alpha_rate[m] = rate
        state.eta_log_mean[m] = update_eta(state, m)
        sq = _expected_sq_residual(
            norms[m],
            f_mean,
            state.f_var,
            state.rho[m],
            state.w_mean[m],
            state.w_var[m],
        )
        state.tau_rate[m][:] = hyper.h0 + 0.5 * sq

    _check_state_finite(state)
    return norms


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


def surrogate_elbo(state, data, hyper, norms=None) -> float:
    """Variational objective with the collapsed inclusion prior approximated.

    Conjugate terms are exact given the posterior moments; E[log p(Z)] uses
    the marginal's log-gamma ratios evaluated at geometric means of the
    concentrations and expected counts (see COLLAPSED_Z_METHOD). The
    auxiliary-variable terms cancel because their posteriors are exact.
    norms, if given, must be the residual's per-sample squared norms at
    state, as sweep returns them; otherwise they are computed here.
    """
    total = 0.0
    M = state.n_groups
    K = state.n_factors
    lam_shape = hyper.lambda_shape

    if norms is None:
        norms = _state_sq_norms(state, data)
    for m in range(M):
        d_m = state.dims[m]
        tau_shape = hyper.tau_shape(d_m)
        tb = tau_shape / state.tau_rate[m]
        e_log_tau = digamma(tau_shape) - np.log(state.tau_rate[m])
        sq = _expected_sq_residual(
            norms[m],
            state.f_mean,
            state.f_var,
            state.rho[m],
            state.w_mean[m],
            state.w_var[m],
        )
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
    g_beta = geo_expect_beta(state.beta_a, state.beta_b)
    g_beta_bar = geo_expect_beta(state.beta_b, state.beta_a)
    for m in range(M):
        if K == 0:
            break
        d_m = state.dims[m]
        g_alpha = geo_expect_gamma(state.alpha_shape[m], state.alpha_rate[m])
        g_ab = np.maximum(g_alpha * g_beta, GEO_FLOOR)
        g_abbar = np.maximum(g_alpha * g_beta_bar, GEO_FLOOR)
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
    term is approximate. Both read the squared norms the sweep returns, so
    the MSE is not exact on near noise-free data (model._sq_norms);
    metrics.train_mse is. A NumericalError from a sweep of the fit, or a
    non-finite objective, carries the context {"phase": "main", "sweep": n},
    n counted from 1 as trace.csv counts it; one from the warm-up inside
    init_state carries phase "warmup".
    """
    data.validate()
    hyper.validate()
    opts.validate()
    state = init_state(data, hyper, opts.seed, opts.active_factor_threshold)
    data_norms = [_row_norms(x) for x in data.groups]
    trace = []
    prev_mse = None
    streak = 0
    converged = False
    for n_sweep in range(1, int(opts.max_sweeps) + 1):
        try:
            norms = sweep(
                state,
                data,
                hyper,
                active_threshold=opts.active_factor_threshold,
                _data_norms=data_norms,
            )
        except NumericalError as err:
            err.context.setdefault("phase", "main")
            err.context.setdefault("sweep", n_sweep)
            raise
        mse = _norms_mse(norms, data.dims)
        objective = surrogate_elbo(state, data, hyper, norms=norms)
        if not (math.isfinite(objective) and math.isfinite(mse)):
            raise NumericalError(
                "non-finite objective", context={"phase": "main", "sweep": n_sweep}
            )
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
