"""Coordinate-ascent inference engine.

sweep() is the one implementation of the update equations, and fit()
drives it through one loop that its one stopping rule ends, then takes
the objective of the final state. The per-coordinate transcriptions of
the printed equations, which tests pin sweep() against, live with the
tests (tests/oracle.py).

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
needs of a row, q(beta), the count moments, the expected table counts of
the auxiliary-variable augmentation (as in Teh, Kurihara & Welling, NIPS
2008) and the two shifted-log halves of every column's inclusion logit,
reads no other factor's update within the block, so it is taken for every
active factor in one batch before the factor loop, and so are the weights
that leave each factor out of the data products. The batch takes every
digamma and trigamma of the sweep in two calls of approx's one kernel,
and the moments of every row's counts of ones and of zeros in one pass
over the rows. It is built one run of consecutive whole groups at a time
(approx._group_runs): a run takes groups while its |A| rows (for |A|
active factors) times its columns stay within approx._RUN_BUDGET, 4,096
values, and a wider group is a run of its own. So each temporary holds
at most a few kinds of summand over 4,096 values, or over |A| x D_m for a
wider group. A steady acceptance-size sweep (5 or 6 factors, 4 groups of
100 columns) takes its groups as one run. At K = 30 and at the wide size
(4 groups of 2,000) each group stays its own run. The budget is not
larger because block-wide temporaries are fresh pages at wide sizes:
their page faults made such a sweep slower than one row at a time, and
at the wide K = 30 size whole-block prior halves took 9.5 ms a call
against 4.9 ms group by group (medians on a shared 2-vCPU x86-64 host). Given
the factor's q(beta) parameters, the rows of one factor in different
groups read disjoint state, so each factor takes one step for all of
them: its rows side by side, whatever the group widths, with the
per-group quantities (count moments, concentrations, factor-score sums)
taken per group. No N x D residual is formed: the products that leave
one factor out come from products of the data taken once per sweep and
the expected loadings, and every other reader of the residual takes its
per-sample squared norms, which sweep() returns (see model._sq_norms). A
factor that falls below model.ACTIVE_MASS leaves the state (it is at its
prior, whose expected loadings are zeros), so these products, like the
objective's per-entry terms, run over the rows the state holds.
"""

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .approx import (
    _count_moments,
    _group_runs,
    crt_mean_approx,
    digamma,
    expect_log_shifted_count,
    geo_expect_gamma,  # not called here; bench/test_bench.py times it via engine
)
from .errors import DataError, NumericalError, UsageError
from .model import (
    BETA_B_FLOOR,
    FitOptions,
    GroupedDataset,
    Hyperparameters,
    VariationalState,
    _eta_log_mean,
    _active_rows,
    _expected_sq_residual,
    _keep_rows,
    _lambda_rate,
    _loading_products,
    _loading_sums,
    _prior_w_var,
    _row_norms,
    _sq_norms,
    init_state,
    spectral_start,
)

__all__ = [
    "FitReport",
    "update_beta_params",
    "update_alpha",
    "sweep",
    "surrogate_elbo",
    "fit",
    "expected_loadings",
    "ScorePosterior",
    "condition_scores",
    "predict_factors",
    "reconstruct_group",
    "run_restarts",
]

LOG_2PI = math.log(2.0 * math.pi)

# Geometric means of near-degenerate beta variates underflow; the shifted-log
# and table-count formulas need a strictly positive concentration.
GEO_FLOOR = 1e-300

COLLAPSED_Z_METHOD = "log-gamma ratios at geometric means and expected counts"


def _lgamma(x):
    """math.lgamma of every element of x, as an array of its shape: a list
    comprehension over the Python floats, whose fixed cost on the few
    values the objective passes is about half np.vectorize's."""
    x = np.asarray(x, dtype=float)
    return np.array([math.lgamma(v) for v in x.ravel().tolist()]).reshape(x.shape)


@dataclass
class FitReport:
    """What fit returns: the final state and one row per sweep.

    trace holds one (objective, train_mse, k_active) row per sweep, in the
    order of trace.csv. Only the last row has an objective, that of the
    final state; every other row records None. sweeps_run is its length,
    and converged says whether the stopping rule, not
    FitOptions.max_sweeps, ended the loop.
    """

    final_state: VariationalState
    trace: list
    converged: bool
    metadata: dict = field(default_factory=dict)

    @property
    def sweeps_run(self):
        return len(self.trace)


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


def update_alpha(state, hyper, eta_log_mean=None):
    """q(alpha_m) gamma (shapes, rates) of every group. Group m's collapsed
    prior has one normaliser Gamma(alpha_m) / Gamma(alpha_m + D_m) per
    factor, K in all, each augmented by its own eta_mk ~ Beta(alpha_m, D_m).
    So the shape is c0 plus the table-count totals of all K factors, row
    sums of the C-ordered M x K counts, each np.sum of its row, and the rate
    d0 - sum_k E[log eta_mk] = d0 - K E[log eta_m], as q(eta_mk) does not
    depend on k; E[log eta_m] is at the current q(alpha_m): eta_log_mean,
    which sweep takes with the other digammas of its pass, or
    model._eta_log_mean(state) when it is omitted."""
    if eta_log_mean is None:
        eta_log_mean = _eta_log_mean(state)
    totals = np.add.reduce(state.aux_s_mean, axis=-1)
    totals += np.add.reduce(state.aux_t_mean, axis=-1)
    return hyper.c0 + totals, hyper.d0 - state.n_factors * eta_log_mean


def _prior_halves(block, nhat, g_ab, g_abbar, widths):
    """The collapsed-prior halves of the inclusion logits of a block of rows.

    block holds the rows (one per active factor) of rho.stacked as the
    sweep begins, nhat their count moments and g_ab, g_abbar the rows'
    concentrations (rows x groups), widths each group's column count.
    Column d of group m reads its row's count moments minus its own term:
    E = count_mean - rho[d], V = count_var - rho[d](1 - rho[d]), and
    D_m - 1 - E for the complementary count, each clamped at 0 (np.maximum
    passes NaN on to the sweep's non-finite check). Returns
    E[log(g_ab + count)] and E[log(g_abbar + complement)]
    (expect_log_shifted_count), two arrays shaped like block; the logit of
    a column is (first - lik) - second. They are taken one run of whole
    groups at a time (approx._group_runs), so the temporaries hold at most
    _RUN_BUDGET values or one group's rows x D_m, and the first halves
    overwrite block, each run's columns once they are read, so that only
    one array is new. Every step is elementwise, so the runs change no bit.
    """
    widths = np.asarray(widths)
    others = widths[None] - 1.0
    on = block
    off = np.empty(block.shape)
    for first, end, start, stop in _group_runs(block.shape[0], widths):
        run = (first, end, widths[first:end])
        rho = block[:, start:stop]
        e1 = _spread(nhat.mean, *run) - rho
        np.maximum(e1, 0.0, out=e1)
        v1 = _spread(nhat.variance, *run) - rho * (1.0 - rho)
        np.maximum(v1, 0.0, out=v1)
        on[:, start:stop] = expect_log_shifted_count(_spread(g_ab, *run), e1, v1)
        e0 = np.subtract(_spread(others, *run), e1, out=e1)
        np.maximum(e0, 0.0, out=e0)
        off[:, start:stop] = expect_log_shifted_count(_spread(g_abbar, *run), e0, v1)
    return on, off


def _spread(values, first, end, widths):
    """Columns first to end - 1 of values (rows x groups), each repeated
    over its group's widths[m - first] columns; one group's column is
    returned as a rows x 1 view, which broadcasts over them."""
    if end - first == 1:
        return values[:, first, None]
    return np.repeat(values[:, first:end], widths, axis=1)


def _loo_weights(ft_tf):
    """The weights that leave each active factor out of dotx.

    ft_tf[m] is F_A^T (tau_bar_m F_A), |A| x |A| over the active factors A;
    returns them as one |A| x M x |A| array with row i's own entry i
    zeroed. Then, with C_m the active rows of the expected loadings (the
    other rows are zero) and tf = tau_bar_m f_i, X_m^T tf minus every
    factor but i's share, R_m^T tf + C_m[i] (tf . f_i) with
    R_m = X_m - F_A C_m, is X_m^T tf - C_m^T weights[i, m].
    """
    weights = np.stack(ft_tf, axis=1)
    diag = np.arange(weights.shape[0])
    weights[diag, :, diag] = 0.0
    return weights


def _inclusion_probs(logit, widths, k):
    """The sigmoid of factor k's stacked logits, which it overwrites.

    A non-finite logit raises NumericalError naming the lowest such column,
    of the lowest such group.
    """
    if not np.isfinite(logit).all():
        col = int((~np.isfinite(logit)).argmax())
        ends = np.cumsum(widths)
        m = int(np.searchsorted(ends, col, side="right"))
        raise NumericalError(
            "non-finite inclusion logit",
            context={"group": m, "factor": k, "column": col - int(ends[m] - widths[m])},
        )
    # 1 / (1 + exp(-x)) for x >= 0 and e / (1 + e), e = exp(x), below 0:
    # exp never sees a positive argument, so it cannot overflow
    pos = logit >= 0
    e = np.abs(logit, out=logit)
    np.negative(e, out=e)
    np.exp(e, out=e)
    new = np.where(pos, 1.0, e)
    e += 1.0
    new /= e
    return new


def _score_block(state, tau_bar, products, second, update):
    """Update the scores of held factors, one column after another.

    products[m] holds group m's _loading_products (X_m C_m^T, C_m C_m^T)
    and second[m] its sums sum_d rho E[w^2] (model._loading_sums), taken
    over the held rows (C_m = rho[m] * w_mean[m]) at the state's loadings,
    which the block does not move. tau_bar[m] holds E[tau] of group m's
    samples. The held rows update, each a row index, are updated in that
    order (the sweep updates every held row), in place. Column i's moment
    is sum_m tau_bar_m (R_m c_i + f_i (c_i . c_i)), taken as
    sum_m tau_bar_m (X_m C_m^T[:, i] - F h_m) with h_m column i of
    C_m C_m^T, entry i zeroed, and F the scores as the earlier columns of
    the block have left them. Its precision, 1 + sum_m tau_bar_m second[m],
    reads no score, so every column's is taken at once, and so are the
    sums sum_m tau_bar_m X_m C_m^T (one reduction over the groups for
    both) and tau_bar h_m of every column (one stacked matmul). Each
    column's update maximises the objective given everything else, and the
    samples are independent given the loadings.
    """
    update = [int(i) for i in update]
    f_mean = state.f_mean
    tau = np.column_stack(tau_bar)
    # the moments' data parts from 0 and the precisions from 1, each adding
    # group m's tau_bar_m-weighted N x K+ terms in group order: a reduction
    # over the leading axis of a block of more than one column adds its
    # rows one after another
    terms = np.empty((len(products) + 1, 2) + f_mean.shape)
    terms[0] = np.array([0.0, 1.0])[:, None, None]
    weight = tau.T[:, :, None]
    np.multiply(weight, np.stack([xc for xc, _ in products]), out=terms[1:, 0])
    np.multiply(weight, np.asarray(second)[:, None, :], out=terms[1:, 1])
    txc, precision = np.add.reduce(terms, axis=0)
    del terms
    # h[i] is M x K+: row m is column i of C_m C_m^T with entry i zeroed
    h = np.stack([cc.T for _, cc in products], axis=1)
    diag = np.arange(h.shape[0])
    h[diag, :, diag] = 0.0
    # th[i] = tau @ h[i] of every column at once, one matmul per column
    th = tau @ h
    f_var = 1.0 / precision
    for i in update:
        moment = txc[:, i] - np.einsum("nj,nj->n", f_mean, th[i])
        f_mean[:, i] = f_var[:, i] * moment
    state.f_var[:, update] = f_var[:, update]


def sweep(state, data, hyper, *, _data_norms=None):
    """One full coordinate-ascent pass, mutating state in place.

    Order per iteration, in two blocks and a tail. The loading block: for
    every held factor, (a_k, b_k), then every group's count moments and
    (E[s], E[t]); then, one held factor after another, every group's row of
    rho, then their w. The score block: each held factor's scores
    (_score_block). Then every group's alpha, then each group's noise
    precisions. This is the block order of variational group factor
    analysis (Virtanen et al., AISTATS 2012): all loadings, then all latent
    factors.

    The pass runs over the factors the state holds (state.factors), and it
    holds only active ones: a held factor below model.ACTIVE_MASS as the
    pass begins leaves the state first (model._keep_rows), and so does
    every factor the loading block, the only block that moves rho, leaves
    below it. A factor that leaves is at its prior: rho 0, q(w) mean 0 and
    variance f0 / e0 (the fixed point of the w_var update and its derived
    lambda rate at rho 0), q(f) N(0, 1), whose expected loadings are zeros,
    so no product of the pass needs its rows. This is the treatment of an
    unused feature in the truncated variational IBP (Doshi-Velez et al.,
    AISTATS 2009), and the always-accepted delete move of memoized
    variational inference (Hughes & Sudderth, NIPS 2013). Its q(beta) and
    table counts keep their values (the batch's, for a factor pruned in
    this pass), so update_alpha reads them as before. Rows are indexed by
    position; the ids in state.factors index q(beta) and the table counts
    only, which keep all K factors.

    The collapsed-prior part of the loading block is one batch over the
    held factors A, taken before the factor loop: q(beta) of every factor
    in A (update_beta_params), the concentrations g_ab and g_abbar stacked
    as one 2 x |A| x M array, the moments of every (factor, group) row's
    count of ones and of its count of zeros over the |A| x sum_m D_m block
    rho.stacked (approx._count_moments, one pass over the rows for both),
    the table counts E[s] and E[t] of every row from one crt_mean_approx
    call, and the two prior halves of every column's inclusion logit as
    two |A| x sum_m D_m arrays (_prior_halves, over a copy of
    rho.stacked). The moments and the halves take their elementwise steps
    over one run of whole groups at a time (approx._group_runs), at most
    approx._RUN_BUDGET (4,096) values or one group. Every digamma and
    trigamma of the pass comes from two calls of approx's one kernel: one
    as the pass begins, on the alpha shapes (the geometric means of
    alpha), E[alpha] and E[alpha] + D_m (the E[log eta] that update_alpha
    reads at the alpha it replaces, which is the alpha the pass began
    with) and q(beta)'s a, b and a + b; and crt_mean_approx's, on both
    table counts. Each call's fixed cost is most of its time at the
    acceptance size, where the seven calls that took them before, of 4 to
    24 values each, took 169 us of a steady sweep (5 held factors, 4 x 100)
    against 102 us for the two, and the two count passes 70 us against 43
    us for the one (medians on a shared 2-vCPU x86-64 host). Factor k's
    batch values read
    only its own rows as the pass began, q(beta_k) and alpha, which no
    other factor's step moves (only factor k's step writes its row of rho),
    so each equals the value a step of k alone would compute after the
    factors before it, bit for bit: every sum runs over one row (or the
    groups of one factor) in numpy's pairwise order, as np.sum of it alone
    would, and every elementwise step is the one a row alone would take.

    A factor's step in the loop moves all its rows at once: they lie side
    by side in one row of the state's stacked arrays (model.GroupBlocks),
    of sum_m D_m columns, which the step reads and writes back as one row
    each, and the group widths mark the boundaries. Given (a_k, b_k) the
    rows read disjoint state, so this regroups the same update. The
    per-group scalars (the concentrations, sff, the count moments) are
    broadcast over their group's columns, and dotx stays a per-group
    product, so every value equals the one a per-group loop would compute,
    bit for bit.

    The rows' rho moves in one step: column d's logit,
    (prior_on - lik) - prior_off, reads its row's pre-update count moments
    minus its own term through the batch's prior halves, and only its
    likelihood term lik is taken in the loop. The paper updates the
    columns one after another, each reading the sums its predecessors have
    moved; reading the pre-row sums instead is what lets the row be one
    numpy expression. Column d's likelihood term and new loading read only
    its own values and dotx[d], which stays fixed while the row is updated,
    so they are whole-row expressions too, built in place over rows that
    are spent. The lambda rates a w_var update reads are derived from the
    loadings it replaces (model._lambda_rate), and update_alpha reads
    E[log eta] at the alpha it replaces (model._eta_log_mean).

    No N x D residual R = X_m - F C_m is formed, and the factor loop reads
    no data. F and the noise precisions stay fixed through the loading
    block, so what it needs of them is taken before it, for all held
    factors at once: each group's sff, and one (tau_bar_m F)^T F and one
    (tau_bar_m F)^T X_m product per group. The first, with each factor's
    own entry zeroed, gives the |A| x M x |A| leave-one-out weights
    (_loo_weights); in the loop, dotx of group m is the second's row minus
    one product of those weights with the |A| x D_m expected loadings
    C_m = rho[m] * w_mean[m], group m's columns of one |A| x sum_m D_m
    product (row i rewritten after factor i's update). After the loading
    block and the pruning C_m is final for the pass, over the rows K+ left:
    one X_m C_m^T and one C_m C_m^T per group (model._loading_products)
    serve the score block and then the residual's per-sample squared norms
    (model._sq_norms), which the noise precisions read and which are
    returned, one vector per group, for the caller's training error and
    objective. The loading sums of every group (model._loading_sums) are
    taken once, over the runs of whole groups, for both the score block's
    precision and the noise precisions, which take the scores' squares
    once for all groups. So per pass and group the data is read by
    (tau_bar_m F)^T X_m and X_m C_m^T only; its row norms
    (model._row_norms) are taken once per fit by the caller and passed as
    _data_norms, or here when it is omitted.
    """
    lam_shape = hyper.lambda_shape
    dims = state.dims
    widths = np.array(dims)
    # each group's columns in a stacked row, the groups side by side
    ends = np.cumsum(dims).tolist()
    spans = [slice(end - d_m, end) for end, d_m in zip(ends, dims)]
    tau_bar = [hyper.tau_shape(d_m) / state.tau_rate[m] for m, d_m in enumerate(dims)]
    # a held factor that is inactive as the pass begins (only a state not
    # returned by a sweep holds one) leaves the state unswept
    _keep_rows(state, _active_rows(state.rho.stacked, dims))
    ids = state.factors
    rho_all = state.rho.stacked
    w_all = state.w_mean.stacked
    w_var_all = state.w_var.stacked
    f_mean = state.f_mean

    # the batch: every held factor's q(beta), count moments, table counts
    # and the prior halves of its inclusion logits, taken before the
    # loadings and products below so that its temporaries are gone before
    # those exist
    beta_a, beta_b = update_beta_params(state, hyper, ids)
    state.beta_a[ids] = beta_a
    state.beta_b[ids] = beta_b
    # every digamma of the pass but the table counts' in one call: of the
    # alpha shapes, of E[alpha] and E[alpha] + D_m (E[log eta], which
    # update_alpha reads at the alpha the pass began with) and of q(beta)'s
    # a, b and a + b
    n_groups = len(dims)
    alpha_mean = state.alpha_shape / state.alpha_rate
    psi = digamma(
        np.concatenate(
            [state.alpha_shape, alpha_mean, alpha_mean + widths]
            + [beta_a, beta_b, beta_a + beta_b]
        )
    )
    psi_alpha, psi_mean, psi_mean_d = psi[: 3 * n_groups].reshape(3, n_groups)
    psi_beta = psi[3 * n_groups :].reshape(3, len(ids))
    eta_log_mean = psi_mean - psi_mean_d
    # the geometric means of alpha (geo_expect_gamma's expression) and of
    # beta and 1 - beta (geo_expect_beta's), then g_ab and g_abbar stacked
    g_alpha = np.exp(psi_alpha) / state.alpha_rate
    geo = np.exp(psi_beta[:2] - psi_beta[2])[:, :, None] * g_alpha
    np.maximum(geo, GEO_FLOOR, out=geo)
    # the moments of every row's count of ones and of zeros from one pass,
    # stacked as geo is, and both table counts from one call
    block = rho_all.copy()
    counts = _count_moments(block, widths)
    tables = crt_mean_approx(geo, counts)
    np.maximum(tables, 0.0, out=tables)
    np.minimum(tables, widths, out=tables)
    state.aux_s_mean[:, ids], state.aux_t_mean[:, ids] = tables.transpose(0, 2, 1)
    prior_on, prior_off = _prior_halves(block, counts[0], *geo, widths)
    del block, counts, tables, geo

    loads = rho_all * w_all
    f2 = f_mean * f_mean + state.f_var
    sff_all = np.array([tb @ f2 for tb in tau_bar])
    tf = [tb[:, None] * f_mean for tb in tau_bar]
    xt_tf = [t.T @ x for t, x in zip(tf, data.groups)]
    loo = _loo_weights([t.T @ f_mean for t in tf])
    del f2, tf
    dotx = np.empty(loads.shape[1])

    for i, k in enumerate(ids.tolist()):
        sff = np.repeat(sff_all[:, i], widths)
        # sum_n tau f x~(no k): constant through the row update since only
        # factor k's own parameters change inside it
        for m, cols in enumerate(spans):
            np.subtract(xt_tf[m][i], loads[:, cols].T @ loo[i, m], out=dotx[cols])
        # the likelihood term 0.5 (E[w^2] sff - 2 w dotx), built in place:
        # row-sized arrays are few and dropped as soon as they are spent,
        # which keeps the sweep's peak memory below one group's data
        w = w_all[i]
        logit = w * w
        logit += w_var_all[i]
        logit *= sff
        wx = 2.0 * w
        wx *= dotx
        logit -= wx
        del wx
        logit *= 0.5
        np.subtract(prior_on[i], logit, out=logit)
        logit -= prior_off[i]
        rho = _inclusion_probs(logit, widths, k)
        del logit

        # w_var = 1 / (lam_shape / lam + rho sff) and w = w_var rho dotx,
        # each written over its spent row, lam from the old loadings
        w_var = w_var_all[i]
        np.divide(lam_shape, _lambda_rate(w, w_var, hyper.f0), out=w_var)
        sff *= rho
        w_var += sff
        del sff
        np.divide(1.0, w_var, out=w_var)
        np.multiply(w_var, rho, out=w)
        w *= dotx
        rho_all[i] = rho
        np.multiply(rho, w, out=loads[i])
        del rho
    del prior_on, prior_off, xt_tf, loo

    # the loading block alone moves rho: the factors it leaves inactive
    # leave the state
    still = _active_rows(rho_all, dims)
    _keep_rows(state, still)
    loads = loads[still]

    # each group's products and loading sums at the final loadings of the
    # pass, for the score block and the noise precisions
    products = [
        _loading_products(x, loads[:, cols]) for x, cols in zip(data.groups, spans)
    ]
    rows = (a.stacked for a in (state.rho, state.w_mean, state.w_var))
    second, square = _loading_sums(*rows, loads, widths)
    _score_block(state, tau_bar, products, second, range(len(state.factors)))
    if _data_norms is None:
        _data_norms = [_row_norms(x) for x in data.groups]
    f_mean = state.f_mean
    norms = [
        _sq_norms(xx, f_mean, xc, cc) for xx, (xc, cc) in zip(_data_norms, products)
    ]
    # group m's alpha reads only its own eta, at the alpha it replaces
    shape, rate = update_alpha(state, hyper, eta_log_mean)
    state.alpha_shape[:], state.alpha_rate[:] = shape, rate
    f2 = f_mean * f_mean
    ef2 = f2 + state.f_var
    for m in range(state.n_groups):
        sq = _expected_sq_residual(norms[m], f2, ef2, second[m], square[m])
        state.tau_rate[m][:] = hyper.h0 + 0.5 * sq

    _check_state_finite(state)
    return norms


def _check_state_finite(state):
    """Raise NumericalError naming the first state array with a non-finite
    entry. An array's sum is finite only if every entry is (an inf or NaN
    makes it inf or NaN), so the entries are checked only where the sum is
    not: a sum of huge finite entries can overflow."""
    checks = [
        ("f_mean", state.f_mean),
        ("f_var", state.f_var),
        ("beta_a", state.beta_a),
        ("beta_b", state.beta_b),
        ("alpha_shape", state.alpha_shape),
        ("alpha_rate", state.alpha_rate),
        ("w_mean", state.w_mean.stacked),
        ("w_var", state.w_var.stacked),
    ]
    for m in range(state.n_groups):
        checks.append((f"tau_rate[{m}]", state.tau_rate[m]))
    with np.errstate(over="ignore", invalid="ignore"):
        for name, arr in checks:
            if not math.isfinite(np.add.reduce(arr, axis=None)) and not np.isfinite(
                arr
            ).all():
                raise NumericalError(
                    f"non-finite values in {name}", context={"variable": name}
                )


def _bernoulli_entropy(rho):
    interior = (rho > 0.0) & (rho < 1.0)
    r = rho[interior]
    return float(-np.sum(r * np.log(r) + (1.0 - r) * np.log1p(-r)))


def _loading_terms(w_mean, w_var, hyper):
    """The loadings' share of the objective, summed over the entries of
    (w_mean, w_var): E[log p(w | lambda)] + H[q(w)] and the q(lambda) gap,
    the rates r = f0 + E[w^2] / 2 derived from q(w) (model._lambda_rate)
    and the shape e0 + 1/2. At that shape and rate E[log lambda] and
    E[lambda] cancel, so each entry adds 1/2 log w_var - (e0 + 1/2) log r
    plus 1/2 + e0 log f0 - lgamma(e0) + lgamma(e0 + 1/2)."""
    shape = hyper.lambda_shape
    const = 0.5 + hyper.e0 * math.log(hyper.f0) - math.lgamma(hyper.e0)
    const += math.lgamma(shape)
    log_rate = np.log(_lambda_rate(w_mean, w_var, hyper.f0))
    total = 0.5 * np.sum(np.log(w_var)) - shape * np.sum(log_rate)
    return float(total) + w_mean.size * const


def _prior_loading_term(hyper):
    """_loading_terms of one entry at the prior (mean 0, variance f0 / e0):
    what each entry of a factor at the prior adds to the objective."""
    return _loading_terms(np.zeros(1), np.full(1, _prior_w_var(hyper)), hyper)


def surrogate_elbo(state, data, hyper, norms=None) -> float:
    """Variational objective with the collapsed inclusion prior approximated.

    The terms: the likelihood with q(tau) against its gamma prior; the
    loadings against their normal prior with q(lambda) against its gamma
    prior (_loading_terms); the inclusion entropy; the scores against their
    standard normal prior; q(alpha) and q(beta) against their priors; and
    E[log p(Z)], the collapsed prior on the inclusions, which uses the
    marginal's log-gamma ratios at the geometric means of the
    concentrations and the expected counts (see COLLAPSED_Z_METHOD). That
    last term is a plug-in approximation, not a bound. No auxiliary
    variable enters the objective: the collapsed term is taken from the
    marginal of Z itself, so eta and the table counts, which only the
    alpha and beta updates read, add no term of their own.

    Only the q(alpha) and q(beta) terms take digamma: one call on the alpha
    shapes, whose exp(psi) / rate are also the geometric means the
    collapsed term reads, and one on [a, b, a + b] of q(beta). The q(lambda)
    and q(tau) shapes, e0 + 1/2 and g0 + D_m / 2, are derived, and so are
    the q(lambda) rates; at them E[log lambda], E[lambda] and E[log tau]
    cancel for every state, not only at the updates. Each loading entry
    adds 1/2 log w_var - (e0 + 1/2) log r plus a constant (_loading_terms).
    Each sample n of group m, with a = g0 + D_m / 2, rate r_n and sq_n its
    expected squared residual, adds -a log r_n - a (h0 + sq_n / 2) / r_n
    plus a - D_m / 2 log(2 pi) + g0 log h0 - lgamma(g0) + lgamma(a).
    norms, if given, must be the residual's per-sample squared norms at
    state, as sweep returns them; otherwise they are computed here.

    The per-entry terms (the likelihood's loading sums, the loadings
    against their prior, the inclusion entropy, the scores against theirs)
    are summed over the rows the state holds (state.factors). Every other
    factor is at the prior, and each of its entries adds the same loading
    term (_prior_loading_term), so those K - len(factors) factors add it
    times their count times sum_m D_m; their entropy and score terms are 0,
    their expected loadings zeros. Their q(beta) terms and collapsed counts
    (none included, D_m excluded) are taken with every other factor's.
    """
    total = 0.0
    M = state.n_groups
    K = state.n_factors

    if norms is None:
        norms = _state_sq_norms(state, data)
    g0, h0 = hyper.g0, hyper.h0
    tau_prior = g0 * math.log(h0) - math.lgamma(g0)
    f_mean, f_var = state.f_mean, state.f_var
    f2 = f_mean * f_mean
    ef2 = f2 + f_var
    counts = []
    for m in range(M):
        d_m = state.dims[m]
        tau_shape = hyper.tau_shape(d_m)
        tau_rate = state.tau_rate[m]
        # contiguous copies of the group's rows: numpy's elementwise steps
        # on a column block of a stacked array take about twice as long
        blocks = (state.rho, state.w_mean, state.w_var)
        rho, w_mean, w_var = (a[m].copy() for a in blocks)
        sums = _loading_sums(rho, w_mean, w_var, rho * w_mean)
        sq = _expected_sq_residual(norms[m], f2, ef2, *sums)
        # the likelihood with q(tau) against its prior
        per_sample = np.log(tau_rate) + (h0 + 0.5 * sq) / tau_rate
        const = tau_shape - 0.5 * d_m * LOG_2PI + tau_prior + math.lgamma(tau_shape)
        total += float(-tau_shape * np.sum(per_sample)) + tau_rate.size * const

        # loadings against their elementwise gamma-precision prior
        total += _loading_terms(w_mean, w_var, hyper)
        total += _bernoulli_entropy(rho)
        counts.append((rho.sum(axis=1), (1.0 - rho).sum(axis=1)))
    n_prior = K - state.factors.size
    if n_prior:
        prior_entries = n_prior * sum(state.dims)
        total += prior_entries * _prior_loading_term(hyper)

    # factor scores against the standard normal prior
    if f_mean.size:
        total += float(0.5 * np.sum(np.log(f_var) - ef2 + 1.0))

    # q(alpha) against its gamma prior; exp(psi) / rate is
    # geo_expect_gamma's expression, the concentrations' geometric means
    shape, rate = state.alpha_shape, state.alpha_rate
    psi_alpha = digamma(shape)
    log_rate = np.log(rate)
    c0, d0 = hyper.c0, hyper.d0
    total += float(
        np.sum(
            c0 * math.log(d0)
            - math.lgamma(c0)
            - (shape * log_rate - _lgamma(shape))
            + (c0 - shape) * (psi_alpha - log_rate)
            - (d0 - rate) * (shape / rate)
        )
    )
    g_alphas = np.exp(psi_alpha) / rate

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

        # collapsed prior on Z at plug-in concentrations and expected counts;
        # the geometric means of beta and 1 - beta are exp(E[log]), which is
        # what geo_expect_beta computes
        g_beta = np.exp(e_log_beta)
        g_beta_bar = np.exp(e_log_bbar)
        for m in range(M):
            d_m = state.dims[m]
            g_alpha = g_alphas[m]
            g_ab = np.maximum(g_alpha * g_beta, GEO_FLOOR)
            g_abbar = np.maximum(g_alpha * g_beta_bar, GEO_FLOOR)
            # a factor at the prior includes no column of any group
            nhat = np.zeros(K)
            ntil = np.full(K, float(d_m))
            nhat[state.factors], ntil[state.factors] = counts[m]
            total += float(
                K * (math.lgamma(g_alpha) - math.lgamma(g_alpha + d_m))
                + np.sum(_lgamma(g_ab + nhat) - _lgamma(g_ab))
                + np.sum(_lgamma(g_abbar + ntil) - _lgamma(g_abbar))
            )
    return total


def _norms_mse(norms, dims):
    """Mean squared residual entry from every group's per-sample squared norms."""
    return sum(float(r.sum()) for r in norms) / (norms[0].shape[0] * sum(dims))


def fit(
    data: GroupedDataset, hyper: Hyperparameters, opts: FitOptions, start=None
) -> FitReport:
    """Initialize, then sweep until the stopping rule holds.

    start is model.spectral_start(data, hyper), taken here when None;
    run_restarts takes it once and passes it to every restart, whose
    results are the same bit for bit as without it. Its row norms serve
    every sweep. From init_state's warm start, fit sweeps until three
    consecutive sweeps each change the training MSE by less than
    opts.rel_tolerance of its previous value, at most opts.max_sweeps
    sweeps; converged says whether the rule, not the cap, ended the loop.
    The first sweeps renegotiate the warm start's borderline inclusions
    and are not monotone in the MSE. The rule reads the squared norms the
    sweep returns, so the traced MSE is an estimate, not exact on near
    noise-free data (model._sq_norms); metrics.train_mse is exact, and
    cvgfa fit takes it once from the report's final state for every output
    but trace.csv, the choice of the best restart included. The surrogate
    objective, which is not the rule since its collapsed term is
    approximate, is taken once, of the final state with the last sweep's
    norms, and fills the last trace row. A NumericalError from a sweep, or
    a non-finite final objective, carries the context {"sweep": n}, n the
    sweep's row in trace.csv.
    """
    data.validate()
    hyper.validate()
    opts.validate()
    if start is None:
        start = spectral_start(data, hyper)
    state = init_state(data, hyper, opts.seed, start=start)
    trace = []
    streak = 0
    while streak < 3 and len(trace) < int(opts.max_sweeps):
        try:
            norms = sweep(state, data, hyper, _data_norms=start.row_norms)
        except NumericalError as err:
            err.context.setdefault("sweep", len(trace) + 1)
            raise
        mse = _norms_mse(norms, data.dims)
        if trace:
            prev = trace[-1][1]
            settled = abs(mse - prev) < opts.rel_tolerance * max(prev, 1e-12)
            streak = streak + 1 if settled else 0
        trace.append((None, mse, len(state.factors)))
    objective = surrogate_elbo(state, data, hyper, norms=norms)
    if not (math.isfinite(objective) and math.isfinite(mse)):
        raise NumericalError("non-finite objective", context={"sweep": len(trace)})
    trace[-1] = (objective,) + trace[-1][1:]
    return FitReport(
        final_state=state,
        trace=trace,
        converged=streak >= 3,
        metadata={
            "collapsed_z_term": COLLAPSED_Z_METHOD,
            "convergence_monitor": "train_mse",
            "seed": int(opts.seed),
        },
    )


def expected_loadings(state, m):
    """Posterior mean loading matrix E[G] = rho * mu_w for group m, one row
    per held factor (state.factors); every other factor's row is zero."""
    return state.rho[m] * state.w_mean[m]


@dataclass(frozen=True)
class ScorePosterior:
    """q(f) of a new sample given which groups are observed.

    It depends on the fitted state and on the observed groups, not on the
    sample's values. groups is in sorted order; tau_bar[i] and loadings[i]
    are group groups[i]'s averaged noise precision and its contiguous
    E[G] = rho * mu_w. The arrays are read-only.
    """

    groups: tuple
    covariance: np.ndarray
    tau_bar: tuple
    loadings: tuple


def condition_scores(state, hyper, groups):
    """The factor-score posterior shared by every sample observed on groups.

    Gaussian conditioning at posterior-mean loadings, with the loading
    variances rho E[w^2] - (rho mu_w)^2 entering the precision diagonal,
    over the held factors (state.factors): a factor at the prior has zero
    loadings, so its score's posterior is its N(0, 1) prior whatever is
    observed, and it adds nothing to a reconstruction.
    Noise precisions are averaged over the training samples; hyper supplies
    their q(tau) shapes. Each group adds its share to the identity prior
    precision in sorted group order, and the sum is inverted once. Pass the
    result to predict_factors for each sample.
    """
    groups = sorted(groups)
    if not groups:
        raise UsageError("at least one observed group is required")
    if len(set(groups)) != len(groups):
        raise UsageError("an observed group is listed twice")
    for m in groups:
        if not 0 <= m < state.n_groups:
            raise UsageError(f"group index {m} out of range [0, {state.n_groups})")
    precision = np.eye(len(state.factors))
    tau_bars, loadings = [], []
    for m in groups:
        tau_bar = float(np.mean(hyper.tau_shape(state.dims[m]) / state.tau_rate[m]))
        g = expected_loadings(state, m)
        g_var = (
            state.rho[m] * (state.w_mean[m] ** 2 + state.w_var[m]) - g * g
        ).sum(axis=1)
        precision += tau_bar * (g @ g.T + np.diag(g_var))
        g.setflags(write=False)
        tau_bars.append(tau_bar)
        loadings.append(g)
    covariance = np.linalg.inv(precision)
    covariance.setflags(write=False)
    return ScorePosterior(tuple(groups), covariance, tuple(tau_bars), tuple(loadings))


def predict_factors(posterior, observed):
    """Posterior mean scores of the held factors for one new sample.

    posterior comes from condition_scores; observed maps each of its groups
    to that group's length-D_m value vector. The mean is
    covariance @ sum_m tau_bar_m (E[G_m] @ x_m), summed in sorted group
    order; the covariance is posterior.covariance, the same for every
    sample.
    """
    if set(observed) != set(posterior.groups):
        raise UsageError(
            f"observed groups {sorted(observed)} are not the conditioned "
            f"groups {list(posterior.groups)}"
        )
    rhs = np.zeros(posterior.covariance.shape[0])
    for m, tau_bar, g in zip(posterior.groups, posterior.tau_bar, posterior.loadings):
        x = np.asarray(observed[m], dtype=float).ravel()
        if x.shape[0] != g.shape[1]:
            raise DataError(
                f"observed group {m} has {x.shape[0]} values, expected {g.shape[1]}"
            )
        rhs += tau_bar * (g @ x)
    return posterior.covariance @ rhs


def reconstruct_group(state, factor_means, m):
    """Reconstruction F_hat E[G] of group m from given factor scores, one
    column per held factor (state.factors)."""
    fm = np.asarray(factor_means, dtype=float)
    if fm.ndim != 2 or fm.shape[1] != len(state.factors):
        raise DataError("factor_means must be N' x K+, one column per held factor")
    return fm @ expected_loadings(state, m)


def _one_restart(data, hyper, opts, seed, start):
    run_opts = replace(opts, seed=seed)
    try:
        report = fit(data, hyper, run_opts, start=start)
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

    The seed-free part of the warm start (model.spectral_start) is taken
    once, before any restart, and shared by all of them; pool workers get
    it pickled, read-only as it is here. Each restart's result is the one
    fit() alone gives. Numerical aborts are captured per restart rather
    than failing the batch. Results are returned in seed order regardless
    of worker count.
    """
    if int(n_restarts) < 1:
        raise UsageError("n_restarts must be at least 1")
    seeds = [int(opts.seed) + r for r in range(int(n_restarts))]
    start = spectral_start(data, hyper)
    if int(workers) <= 1:
        return [_one_restart(data, hyper, opts, s, start) for s in seeds]
    with ProcessPoolExecutor(max_workers=int(workers)) as pool:
        futures = [
            pool.submit(_one_restart, data, hyper, opts, s, start) for s in seeds
        ]
        return [f.result() for f in futures]
