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
wider group. An acceptance-size sweep (5 or 6 factors, 4 groups of 100
columns) takes its groups as one run, and at the wide size (4 groups of
2,000) each group is its own run. The budget is not larger because
block-wide temporaries are fresh pages at wide sizes: their page faults
made such a sweep slower than one row at a time, and with 30 rows at the
wide size they made whole-block prior halves slower than group by group.
Given the factor's q(beta) parameters, the rows of one factor in different
groups read disjoint state, so each factor takes one step for all of
them: its rows side by side, whatever the group widths, with the
per-group quantities (count moments, concentrations, factor-score sums)
taken per group. No N x D residual is formed: the products that leave
one factor out come from products of the data taken once per sweep and
the expected loadings, and every other reader of the residual takes its
per-sample squared norms, which sweep() returns (see model._sq_norms).
The steps that take every group, the noise means, the factor-score sums,
the leave-one-out weights, X_m C_m^T and C_m C_m^T, the squared norms,
the expected squared residuals and the noise rates, are each one stacked
numpy call over arrays with a leading axis of the M groups, whose slice m
is bit for bit the call on group m alone; only the products with one
group's data or loadings, whose widths differ, loop over the groups. A
factor that falls below model.ACTIVE_MASS leaves the state (it is at its
prior, whose expected loadings are zeros), so these products, like the
objective's per-entry terms, run over the rows the state holds, and a fit
starts from the warm start's signal rows only (model.init_state): its
cost follows the factors the data support, not the truncation K.
"""

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .approx import (
    BernoulliSumMoments,
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
    _beta_prior,
    _expected_sq_residuals,
    _is_active,
    _is_whole,
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
    """_sq_norms of every group at the state's expected loadings and scores,
    M x N."""
    coef = state.rho * state.w_mean
    products = _loading_products(data.groups, coef)
    return _sq_norms(_row_norms(data.groups), state.f_mean, *products)


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


def update_alpha(state, hyper, eta_log_mean):
    """q(alpha_m) gamma (shapes, rates) of every group. Group m's collapsed
    prior has one normaliser Gamma(alpha_m) / Gamma(alpha_m + D_m) per
    factor, K in all, each augmented by its own eta_mk ~ Beta(alpha_m, D_m).
    So the shape is c0 plus the table-count totals of all K factors, row
    sums of the C-ordered M x K counts, each np.sum of its row, and the rate
    d0 - sum_k E[log eta_mk] = d0 - K E[log eta_m], as q(eta_mk) does not
    depend on k; E[log eta_m] is at the current q(alpha_m): eta_log_mean,
    which sweep takes with the other digammas of its pass."""
    totals = np.add.reduce(state.aux_s_mean, axis=-1)
    totals += np.add.reduce(state.aux_t_mean, axis=-1)
    return hyper.c0 + totals, hyper.d0 - state.n_factors * eta_log_mean


def _concentrations(e_log_beta, g_alpha):
    """g_ab and g_abbar of every factor in every group, one 2 x K x M array:
    exp(e_log_beta), E[log beta] and E[log(1 - beta)] stacked (2 x K), times
    the geometric means of alpha (g_alpha, one per group), floored at
    GEO_FLOOR."""
    geo = np.exp(e_log_beta)[:, :, None] * g_alpha
    return np.maximum(geo, GEO_FLOOR, out=geo)


def _prior_halves(block, nhat, g_ab, g_abbar, widths):
    """The collapsed-prior halves of the inclusion logits of a block of rows.

    block holds the rows (one per active factor) of the state's rho as the
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


def _no_inclusion_counts(counts, n, widths):
    """counts, the moments of the held rows' counts of ones and of zeros
    (2 x rows x groups fields), followed by those of n rows with no
    inclusion: a count of ones certain to be 0 and of zeros certain to be
    D_m. They are the moments approx._count_moments gives for a row whose
    every probability is 0, bit for bit, taken without a pass."""
    zero = np.zeros((n, len(widths)))
    certain = (
        np.stack([zero, zero + widths]),  # mean
        np.stack([zero, zero]),  # variance
        np.stack([-zero, zero + 1.0]),  # p_plus: -expm1(0) is -0.0
    )
    fields = (counts.mean, counts.variance, counts.p_plus)
    return BernoulliSumMoments(
        *(np.concatenate([f, c], axis=1) for f, c in zip(fields, certain))
    )


def _spread(values, first, end, widths):
    """Columns first to end - 1 of values (rows x groups), each repeated
    over its group's widths[m - first] columns; one group's column is
    returned as a rows x 1 view, which broadcasts over them."""
    if end - first == 1:
        return values[:, first, None]
    return np.repeat(values[:, first:end], widths, axis=1)


def _score_sums(tau_bar, f_mean, f_var):
    """sff of every group, sum_n tau_bar_m (f_n^2 + f_var_n) of each held
    factor, M x |A|: one batched vector-matrix product whose row m is
    tau_bar_m @ (F * F + f_var) alone, bit for bit, where a 2-D matmul
    tau_bar @ (F * F + f_var) adds in another order."""
    f2 = f_mean * f_mean + f_var
    return np.matmul(tau_bar[:, None, :], f2)[:, 0]


def _weighted_products(tau_bar, f_mean, groups, spans):
    """(tau_bar_m F)^T X_m of every group and the leave-one-out weights.

    The rows (tau_bar_m F)^T of every group are one M x |A| x N product,
    each slice laid out as the transpose of the Fortran-ordered
    tau_bar_m F, so that its product with X_m, written into group m's
    columns (spans[m]) of one |A| x sum_m D_m array, is that group's own
    product; the weights are _loo_weights of the same rows.
    """
    tf = tau_bar[:, None, :] * f_mean.T
    xt_tf = np.empty((f_mean.shape[1], sum(x.shape[1] for x in groups)))
    for m, (x, cols) in enumerate(zip(groups, spans)):
        np.matmul(tf[m], x, out=xt_tf[:, cols])
    return xt_tf, _loo_weights(tf, f_mean)


def _loo_weights(tf, f_mean):
    """The weights that leave each held factor out of dotx.

    tf is M x |A| x N over the held factors A, slice m (tau_bar_m F_A)^T;
    returns (tau_bar_m F_A)^T F_A of every group m from one batched matmul,
    M x |A| x |A|, with row i's own entry i zeroed. Then, with C_m the
    held rows of the expected loadings and tf_i = tau_bar_m f_i, X_m^T tf_i
    minus every factor but i's share, R_m^T tf_i + C_m[i] (tf_i . f_i) with
    R_m = X_m - F_A C_m, is X_m^T tf_i - C_m^T weights[m, i].
    """
    weights = np.matmul(tf, f_mean)
    diag = np.arange(weights.shape[1])
    weights[:, diag, diag] = 0.0
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


def _score_block(state, tau_bar, xc, cc, second, update):
    """Update the scores of held factors, one column after another.

    xc and cc are the stacked _loading_products (X_m C_m^T, M x N x K+, and
    C_m C_m^T, M x K+ x K+) and second the M x K+ sums sum_d rho E[w^2]
    (model._loading_sums), taken over the held rows (C_m is group m's
    columns of rho * w_mean) at the state's loadings, which the block does
    not move. tau_bar (M x N) holds E[tau] of every group's samples. The
    held rows update, each a row index, are updated in that order (the
    sweep updates every held row), in place. Column i's moment is
    sum_m tau_bar_m (R_m c_i + f_i (c_i . c_i)), taken as
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
    # the moments' data parts from 0 and the precisions from 1, each adding
    # group m's tau_bar_m-weighted terms in group order: a reduction over
    # the leading axis of a block of more than one column adds its rows one
    # after another. The terms are K+ x N per group, so that every product
    # runs along the samples
    n, k = f_mean.shape
    terms = np.empty((len(xc) + 1, 2, k, n))
    terms[0, 0] = 0.0
    terms[0, 1] = 1.0
    weight = tau_bar[:, None, :]
    np.multiply(weight, xc.transpose(0, 2, 1), out=terms[1:, 0])
    np.multiply(weight, second[:, :, None], out=terms[1:, 1])
    txc, precision = np.add.reduce(terms, axis=0)
    del terms
    # h[i] is M x K+: row m is column i of C_m C_m^T with entry i zeroed
    h = cc.transpose(2, 0, 1).copy()
    diag = np.arange(k)
    h[diag, :, diag] = 0.0
    # th[i] = tau @ h[i] of every column at once, one matmul per column
    th = np.ascontiguousarray(tau_bar.T) @ h
    f_var = 1.0 / precision
    for i in update:
        moment = txc[i] - np.einsum("nj,nj->n", f_mean, th[i])
        f_mean[:, i] = f_var[i] * moment
    state.f_var[:, update] = f_var[update].T


def sweep(state, data, hyper, *, _data_norms=None):
    """One full coordinate-ascent pass, mutating state in place.

    Order per iteration, in two blocks and a tail. The loading block: for
    every held factor (and every slot whose q(beta) is still at the prior,
    below), (a_k, b_k), then every group's count moments and
    (E[s], E[t]); then, one held factor after another, every group's row of
    rho, then their w. The score block: each held factor's scores
    (_score_block). Then every group's alpha, then each group's noise
    precisions. This is the block order of variational group factor
    analysis (Virtanen et al., AISTATS 2012): all loadings, then all latent
    factors.

    The pass runs over the factors the state holds (state.factors), and it
    holds only active ones: a held factor below model.ACTIVE_MASS as the
    pass begins leaves the state first (model._keep_rows; the masses are
    the means of the count moments the batch takes), and so does
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

    A slot the state does not hold whose q(beta) is still at the prior
    (model._beta_prior) has not yet read a table count: the slots
    model.init_state leaves out, through the first two passes, and a
    factor pruned in the first. The batch updates it as a row with no
    inclusion: (a, b) from update_beta_params, E[s] = 0 (a count of ones
    certain to be 0) and E[t] = g (psi(g + D_m) - psi(g)), the exact mean
    table count of D_m certain customers at g the floored geometric mean of
    alpha (1 - beta), clamped to [0, D_m]. Two passes give it table counts
    taken at a q(alpha) that the data have moved and a q(beta) that has
    read them; from then on it keeps them, as a pruned factor does. A slot
    updated in every pass instead makes q(alpha) and those table counts
    pull on each other slowly: on a small draw (sim1, N = 30, 4 x 12,
    K = 8) the stopping rule then took 190 sweeps against 53, and q(alpha)
    still moved.

    The collapsed-prior part of the loading block is one batch over the
    held factors A and those slots U, taken before the factor loop:
    q(beta) of every slot in A and U (update_beta_params), the
    concentrations g_ab and g_abbar as one 2 x (|A| + |U|) x M array
    (_concentrations), the moments of every held (factor, group) row's
    count of ones and of zeros over the |A| x sum_m D_m block of rho
    (approx._count_moments, one pass over the rows for both) and the
    certain counts of U (_no_inclusion_counts), the table counts E[s] and
    E[t] of every row from one crt_mean_approx call, and the two prior
    halves of every held column's inclusion logit as two |A| x sum_m D_m
    arrays (_prior_halves, over a copy of rho). The moments and
    the halves take their elementwise steps over one run of whole groups
    at a time (approx._group_runs), at most approx._RUN_BUDGET (4,096)
    values or one group. Every digamma and trigamma of the pass comes from
    two calls of approx's one kernel: one as the pass begins, on the alpha
    shapes (the geometric means of alpha), E[alpha] and E[alpha] + D_m (the
    E[log eta] that update_alpha reads at the alpha it replaces, which is
    the alpha the pass began with) and q(beta)'s a, b and a + b; and
    crt_mean_approx's, on both table counts. Each call's fixed cost is most
    of its time at the acceptance size, so the two calls take less of a
    sweep than the seven calls of 4 to 24 values each that took them
    before, and one count pass less than two; the slots U ride in the same
    two calls. Factor k's batch values read only its own rows as the pass
    began, q(beta_k) and alpha, which no other factor's step moves (only
    factor k's step writes its row of rho), so each equals the value a
    step of k alone would compute after the factors before it, bit for bit: every sum runs over one row (or the
    groups of one factor) in numpy's pairwise order, as np.sum of it alone
    would, and every elementwise step is the one a row alone would take.

    A factor's step in the loop moves all its rows at once: they lie side
    by side in one row of the state's rho, w_mean and w_var, of sum_m D_m
    columns, which the step reads and writes back as one row each, and the
    group widths mark the boundaries (state.spans). Given (a_k, b_k) the
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
    E[log eta] at the alpha it replaces, from the pass's first digamma
    call.

    No N x D residual R = X_m - F C_m is formed, and the factor loop reads
    no data. F and the noise precisions stay fixed through the loading
    block, so what it needs of them is taken before it, for all held factors
    and groups at once: the noise means tau_bar (one M x N division), every
    group's sff (one batched vector-matrix product, _score_sums), the rows
    of (tau_bar_m F)^T of every group (one M x |A| x N product), and from
    them (tau_bar_m F)^T F of every group (one batched matmul), which with
    each factor's own entry zeroed gives the M x |A| x |A| leave-one-out
    weights (_loo_weights), and (tau_bar_m F)^T X_m, one product per group
    written into its columns of one |A| x sum_m D_m array (both
    _weighted_products). In the loop, dotx of group m is that array's row
    minus one product of the weights with the |A| x D_m expected loadings
    C_m, group m's columns (state.spans[m]) of one |A| x sum_m D_m product
    rho * w_mean (row i rewritten after factor i's update). After the loading
    block one pass over the runs of whole groups takes every group's loading
    sums and the rows' group masses (model._loading_sums), and the masses
    decide the pruning; C_m is then final for the pass, over the rows K+
    left: X_m C_m^T and C_m C_m^T of every group, stacked
    (model._loading_products), serve the score block and then the residual's
    per-sample squared norms (model._sq_norms, one M x N array), which the
    noise precisions read and which are returned for the caller's training
    error and objective. The expected squared residuals and the noise rates
    are one expression each over the M x N stack (_noise_rates). So per pass
    and group the data is read by (tau_bar_m F)^T X_m and X_m C_m^T only;
    its row norms (model._row_norms) are taken once per fit by the caller
    and passed as _data_norms (M x N), or here when it is omitted.

    Each of these stacked steps gives every group the bits of that group's
    own call: a batched matmul runs one BLAS call per group on the group's
    slices, laid out as the per-group operands were, where a single 2-D
    product over the groups (tau_bar @ F^2, F^2 @ second.T) adds in another
    order and moves the last bits. Only the products with X_m and C_m,
    whose widths differ from group to group, take one call per group.
    """
    lam_shape = hyper.lambda_shape
    widths = np.array(state.dims)
    spans = state.spans
    tau_bar = hyper.tau_shape(widths)[:, None] / state.tau_rate
    # the moments of every held row's count of ones and of zeros from one
    # pass; the count of ones' means are the rows' group masses, bit for bit
    # model._group_mass, so they give the activity rule (model._active_rows)
    # too: a held factor that is inactive as the pass begins (only a state
    # not returned by a sweep holds one) leaves the state unswept
    block = state.rho.copy()
    counts = _count_moments(block, widths)
    active = _is_active(counts.mean[0])
    if not active.all():
        _keep_rows(state, active)
        block = block[active]
        counts = _count_moments(block, widths)
    ids = state.factors
    # the slots not held whose q(beta) is still at the prior, after the
    # held factors: the batch updates them as rows with no inclusion
    prior_a, prior_b = _beta_prior(hyper)
    fresh = state.beta_a == prior_a
    fresh &= state.beta_b == prior_b
    fresh[ids] = False
    slots = np.concatenate([ids, np.flatnonzero(fresh)]) if fresh.any() else ids
    rho_all = state.rho
    w_all = state.w_mean
    w_var_all = state.w_var
    f_mean = state.f_mean

    # the batch: every held factor's q(beta), table counts and the prior
    # halves of its inclusion logits, and the q(beta) and table counts of
    # the fresh slots, taken before the loadings and products below so that
    # its temporaries are gone before those exist
    beta_a, beta_b = update_beta_params(state, hyper, slots)
    state.beta_a[slots] = beta_a
    state.beta_b[slots] = beta_b
    # every digamma of the pass but the table counts' in one call: of the
    # alpha shapes, of E[alpha] and E[alpha] + D_m (E[log eta], which
    # update_alpha reads at the alpha the pass began with) and of q(beta)'s
    # a, b and a + b
    n_groups = len(spans)
    alpha_mean = state.alpha_shape / state.alpha_rate
    psi = digamma(
        np.concatenate(
            [state.alpha_shape, alpha_mean, alpha_mean + widths]
            + [beta_a, beta_b, beta_a + beta_b]
        )
    )
    psi_alpha, psi_mean, psi_mean_d = psi[: 3 * n_groups].reshape(3, n_groups)
    psi_beta = psi[3 * n_groups :].reshape(3, len(slots))
    eta_log_mean = psi_mean - psi_mean_d
    # the geometric mean of alpha (geo_expect_gamma's expression), then
    # g_ab and g_abbar stacked
    g_alpha = np.exp(psi_alpha) / state.alpha_rate
    geo = _concentrations(psi_beta[:2] - psi_beta[2], g_alpha)
    # the count moments stacked as geo is, and both table counts from one
    # call
    ones = counts[0]
    held = len(ids)
    if len(slots) > held:
        counts = _no_inclusion_counts(counts, len(slots) - held, widths)
    tables = crt_mean_approx(geo, counts)
    np.maximum(tables, 0.0, out=tables)
    np.minimum(tables, widths, out=tables)
    state.aux_s_mean[:, slots], state.aux_t_mean[:, slots] = tables.transpose(0, 2, 1)
    prior_on, prior_off = _prior_halves(block, ones, *geo[:, :held], widths)
    del block, counts, ones, tables, geo

    # what the loading block reads of the scores and the noise, for every
    # held factor and group at once
    loads = rho_all * w_all
    sff_all = _score_sums(tau_bar, f_mean, state.f_var)
    xt_tf, loo = _weighted_products(tau_bar, f_mean, data.groups, spans)
    dotx = np.empty(loads.shape[1])
    # each group's C_m^T and columns of dotx, views that see every row the
    # loop writes
    parts = [(loads[:, cols].T, dotx[cols]) for cols in spans]

    for i, k in enumerate(ids.tolist()):
        sff = np.repeat(sff_all[:, i], widths)
        # sum_n tau f x~(no k): constant through the row update since only
        # factor k's own parameters change inside it. Group m's columns are
        # xt_tf[i] minus one product of C_m^T with the weights, the products
        # written into dotx first
        for (c_t, out), weights in zip(parts, loo[:, i]):
            np.matmul(c_t, weights, out=out)
        np.subtract(xt_tf[i], dotx, out=dotx)
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
    del prior_on, prior_off, xt_tf, loo, parts

    # every group's loading sums at the final loadings of the pass, for the
    # score block and the noise precisions, and the group masses: the
    # loading block alone moves rho, and the factors it leaves inactive
    # leave the state
    sums = _loading_sums(rho_all, w_all, w_var_all, loads, widths)
    still = _is_active(sums[2].T)
    if not still.all():
        _keep_rows(state, still)
        loads = loads[still]
        # compress keeps the sums C-ordered, the layout whose batched
        # products below give each group's bits
        sums = sums.compress(still, axis=2)
    second, square = sums[:2]
    xc, cc = _loading_products(data.groups, loads)
    _score_block(state, tau_bar, xc, cc, second, range(len(state.factors)))
    if _data_norms is None:
        _data_norms = _row_norms(data.groups)
    f_mean = state.f_mean
    norms = _sq_norms(_data_norms, f_mean, xc, cc)
    # group m's alpha reads only its own eta, at the alpha it replaces
    shape, rate = update_alpha(state, hyper, eta_log_mean)
    state.alpha_shape[:], state.alpha_rate[:] = shape, rate
    state.tau_rate = _noise_rates(hyper.h0, norms, f_mean, state.f_var, second, square)

    _check_state_finite(state)
    return norms


def _noise_rates(h0, norms, f_mean, f_var, second, square):
    """The q(tau) rates h0 + E[||x_n - G_m f_n||^2] / 2 of every group and
    sample, one expression over the M x N stack of
    model._expected_sq_residuals (whose arguments follow h0)."""
    rates = _expected_sq_residuals(norms, f_mean, f_var, second, square)
    rates *= 0.5
    rates += h0
    return rates


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
        ("w_mean", state.w_mean),
        ("w_var", state.w_var),
        ("tau_rate", state.tau_rate),
    ]
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
    are summed over the rows the state holds (state.factors), read from
    the state's arrays as the sweep reads them; only the likelihood loops
    over the groups. Every other factor is at the prior, and each of its
    entries adds the same loading term (_prior_loading_term), so those
    K - len(factors) factors add it times their count times sum_m D_m;
    their entropy and score terms are 0, their expected loadings zeros.
    Their q(beta) terms and collapsed counts (none included, D_m excluded)
    are taken with every other factor's, the collapsed term in one
    expression over 2 x K x M concentrations (_concentrations) and counts.
    """
    total = 0.0
    K = state.n_factors
    dims = state.dims
    widths = np.array(dims)

    if norms is None:
        norms = _state_sq_norms(state, data)
    g0, h0 = hyper.g0, hyper.h0
    tau_prior = g0 * math.log(h0) - math.lgamma(g0)
    f_mean, f_var = state.f_mean, state.f_var
    rho, w_mean, w_var = state.rho, state.w_mean, state.w_var
    second, square, mass = _loading_sums(rho, w_mean, w_var, rho * w_mean, dims)
    sq = _expected_sq_residuals(norms, f_mean, f_var, second, square)
    # the likelihood with q(tau) against its prior
    for d_m, tau_rate, sq_m in zip(dims, state.tau_rate, sq):
        tau_shape = hyper.tau_shape(d_m)
        per_sample = np.log(tau_rate) + (h0 + 0.5 * sq_m) / tau_rate
        const = tau_shape - 0.5 * d_m * LOG_2PI + tau_prior + math.lgamma(tau_shape)
        total += float(-tau_shape * np.sum(per_sample)) + tau_rate.size * const

    # loadings against their elementwise gamma-precision prior
    total += _loading_terms(w_mean, w_var, hyper)
    total += _bernoulli_entropy(rho)
    n_prior = K - state.factors.size
    if n_prior:
        total += n_prior * sum(dims) * _prior_loading_term(hyper)

    # factor scores against the standard normal prior
    if f_mean.size:
        ef2 = f_mean * f_mean + f_var
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
    g_alpha = np.exp(psi_alpha) / rate

    if K:
        a0, b0 = _beta_prior(hyper)
        a = state.beta_a
        b = state.beta_b
        ab = a + b
        psi = digamma(np.stack([a, b, ab]))
        e_log = psi[:2] - psi[2]
        log_b_q = _lgamma(a) + _lgamma(b) - _lgamma(ab)
        log_b_0 = math.lgamma(a0) + math.lgamma(b0) - math.lgamma(a0 + b0)
        total += float(
            np.sum(log_b_q - log_b_0 + (a0 - a) * e_log[0] + (b0 - b) * e_log[1])
        )

        # collapsed prior on Z at plug-in concentrations and expected counts
        # of ones and of zeros, 2 x K x M; a factor at the prior includes no
        # column of any group
        geo = _concentrations(e_log, g_alpha)
        ones = np.zeros((K, len(dims)))
        ones[state.factors] = mass.T
        counts = np.stack([ones, widths - ones])
        total += float(
            K * np.sum(_lgamma(g_alpha) - _lgamma(g_alpha + widths))
            + np.sum(_lgamma(geo + counts) - _lgamma(geo))
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
    cols = state.spans[m]
    return state.rho[:, cols] * state.w_mean[:, cols]


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
        cols = state.spans[m]
        rho, w, w_var = state.rho[:, cols], state.w_mean[:, cols], state.w_var[:, cols]
        g_var = (rho * (w**2 + w_var) - g * g).sum(axis=1)
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
    if not (_is_whole(n_restarts) and n_restarts >= 1):
        raise UsageError("n_restarts must be an integer of at least 1")
    if not (_is_whole(workers) and workers >= 1):
        raise UsageError("workers must be an integer of at least 1")
    opts.validate()
    seeds = [int(opts.seed) + r for r in range(int(n_restarts))]
    start = spectral_start(data, hyper)
    if workers == 1:
        return [_one_restart(data, hyper, opts, s, start) for s in seeds]
    with ProcessPoolExecutor(max_workers=int(workers)) as pool:
        futures = [
            pool.submit(_one_restart, data, hyper, opts, s, start) for s in seeds
        ]
        return [f.result() for f in futures]
