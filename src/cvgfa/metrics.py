"""Stability indices and ranking metrics for recovered loading matrices.

"Factors" are rows of a K x D loading matrix throughout; every index here
compares such rows across two matrices over the same D columns.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import UsageError

__all__ = [
    "StabilityReport",
    "abs_correlation",
    "ssi",
    "dsi",
    "split_sparse_dense",
    "dense_max_corr",
    "ranking_score",
    "auc",
    "train_mse",
]


@dataclass
class StabilityReport:
    """cvgfa eval's indices; n_dense_selected holds, per group, the number
    of rows the sim2 split took as dense (0 in sim1 mode)."""

    ssi: float
    dsi: float
    per_group: list = field(default_factory=list)
    n_dense_selected: list = field(default_factory=list)


def abs_correlation(a, b) -> np.ndarray:
    """K1 x K2 matrix of absolute Pearson correlations between rows.

    Rows with zero variance correlate at 0 with everything rather than
    producing NaNs, so degenerate (all-zero) factors never poison an index.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    if a.shape[1] != b.shape[1]:
        raise UsageError("row length mismatch between the two matrices")
    if a.shape[1] < 2:
        raise UsageError("correlation needs at least two columns")
    ac = a - a.mean(axis=1, keepdims=True)
    bc = b - b.mean(axis=1, keepdims=True)
    a_norm = np.sqrt((ac * ac).sum(axis=1))
    b_norm = np.sqrt((bc * bc).sum(axis=1))
    denom = np.outer(a_norm, b_norm)
    with np.errstate(invalid="ignore", divide="ignore"):
        corr = np.where(denom > 0.0, (ac @ bc.T) / np.where(denom > 0, denom, 1.0), 0.0)
    return np.abs(corr)


def _one_sided_ssi(c: np.ndarray) -> float:
    # per row: best match minus the mean-exceeding competitors, competitors
    # averaged over the K-1 possible rivals (zero rivals when K == 1)
    k1, k2 = c.shape
    total = 0.0
    for r in range(k1):
        row = c[r]
        best = float(row.max())
        if k2 > 1:
            above = row > row.mean()
            penalty = float(row[above].sum()) / (k2 - 1)
        else:
            penalty = 0.0
        total += best - penalty
    return total / k1


def ssi(corr: np.ndarray) -> float:
    """Sparse stability index of an absolute-correlation matrix.

    Mean over rows of (max - sum of above-row-mean entries / (K2 - 1)),
    plus the same over columns, halved. Lives in [0, 1]: at most K - 1
    entries of a row can exceed its mean, so the penalty never exceeds
    the max.
    """
    corr = np.atleast_2d(np.asarray(corr, dtype=float))
    if corr.size == 0:
        raise UsageError("empty correlation matrix")
    return 0.5 * (_one_sided_ssi(corr) + _one_sided_ssi(corr.T))


def dsi(m1, m2) -> float:
    """Dense stability index between two K x D matrices.

    Rows are scaled to unit Euclidean norm (zero rows left alone), then
    the traces of the two row Gram matrices are differenced and scaled
    by D^2. After normalization each trace counts the nonzero rows, so
    the index measures agreement in effective dense-factor count and is
    invariant to rotations applied to either matrix.
    """
    m1 = np.atleast_2d(np.asarray(m1, dtype=float))
    m2 = np.atleast_2d(np.asarray(m2, dtype=float))
    if m1.shape[1] != m2.shape[1]:
        raise UsageError("row length mismatch between the two matrices")
    d = m1.shape[1]
    if d < 1:
        raise UsageError("matrices need at least one column")
    t1 = _normalized_gram_trace(m1)
    t2 = _normalized_gram_trace(m2)
    return abs(t1 - t2) / float(d * d)


def _normalized_gram_trace(m: np.ndarray) -> float:
    norms = np.sqrt((m * m).sum(axis=1, keepdims=True))
    unit = np.where(norms > 0.0, m / np.where(norms > 0.0, norms, 1.0), 0.0)
    return float(np.trace(unit @ unit.T))


def split_sparse_dense(g_hat, threshold: float, n_dense: int):
    """Threshold a loading matrix and split its rows into sparse and dense.

    Entries with |value| < threshold become 0. The n_dense rows with the
    most surviving nonzeros are classified dense; ties prefer the larger
    Euclidean norm, then the lower row index. Returns (sparse_rows,
    dense_rows) as thresholded matrices, rows in original order.
    """
    g = np.atleast_2d(np.asarray(g_hat, dtype=float)).copy()
    if n_dense < 0:
        raise UsageError("n_dense must be nonnegative")
    if n_dense > g.shape[0]:
        raise UsageError(
            f"cannot select {n_dense} dense rows from {g.shape[0]} rows"
        )
    g[np.abs(g) < float(threshold)] = 0.0
    counts = (g != 0.0).sum(axis=1)
    norms = (g * g).sum(axis=1)
    order = sorted(
        range(g.shape[0]), key=lambda r: (-counts[r], -norms[r], r)
    )
    dense_idx = sorted(order[:n_dense])
    sparse_idx = sorted(order[n_dense:])
    return g[sparse_idx], g[dense_idx]


def dense_max_corr(true_dense, dense_hat) -> float:
    """Mean over true dense rows of the best |correlation| with any
    recovered dense row."""
    c = abs_correlation(true_dense, dense_hat)
    return float(c.max(axis=1).mean())


def ranking_score(state, group_a: int, group_b: int) -> np.ndarray:
    """Per-column evidence that two same-width groups share structure.

    score_d = sum_k |E[g_a]_kd * E[g_b]_kd| with E[g] = rho * mu_w.
    """
    ga = np.asarray(state.rho[group_a]) * np.asarray(state.w_mean[group_a])
    gb = np.asarray(state.rho[group_b]) * np.asarray(state.w_mean[group_b])
    if ga.shape[1] != gb.shape[1]:
        raise UsageError("groups must have the same column count to rank")
    return np.abs(ga * gb).sum(axis=0)


def auc(scores, labels) -> float:
    """Area under the ROC curve via the rank-sum statistic, ties at 1/2."""
    scores = np.asarray(scores, dtype=float).ravel()
    labels = np.asarray(labels).ravel().astype(bool)
    if scores.shape[0] != labels.shape[0]:
        raise UsageError("scores and labels differ in length")
    n_pos = int(labels.sum())
    n_neg = int(labels.size - n_pos)
    if n_pos == 0 or n_neg == 0:
        raise UsageError("auc needs at least one positive and one negative")
    order = np.argsort(scores, kind="stable")
    sorted_scores = scores[order]
    ranks = np.empty(scores.size, dtype=float)
    i = 0
    while i < scores.size:
        j = i
        while j + 1 < scores.size and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        # average rank over the tie run, 1-based
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    rank_sum = float(ranks[labels].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def train_mse(data, state) -> float:
    """Mean squared reconstruction error over every observed cell.

    Exact, unlike the sweep's MSE from squared norms (model._sq_norms):
    each group's residual X - F (rho * mu_w) is formed and squared in one
    N x D_m array, one group at a time. cvgfa fit records it in each
    restart's checkpoint, and cvgfa eval reports the recorded value.
    """
    groups = [np.asarray(x) for x in data.groups]
    cells = sum(x.size for x in groups)
    if cells == 0:
        raise UsageError("dataset has no cells")
    f = np.asarray(state.f_mean)
    sq = 0.0
    for x, rho, w in zip(groups, state.rho, state.w_mean):
        r = f @ (np.asarray(rho) * np.asarray(w))
        np.subtract(x, r, out=r)
        np.multiply(r, r, out=r)
        sq += float(r.sum())
        del r  # freed before the next group's is built
    return sq / cells
