"""Special functions and moment approximations used by the inference engine.

Dependency-free digamma (and trigamma, for crt_mean_approx), the
geometric expectation of a gamma variable, exact moments of sums of
independent Bernoullis, and the second-order approximations for expected
shifted logs and Chinese restaurant table counts. Everything here is a
pure function.

Every public function takes arrays and returns one of their broadcast
shape, 0-d for scalars. Every digamma and trigamma comes from one
whole-array kernel (_psi), which takes the recurrence's steps and the
asymptotic series as numpy steps over all the values of a call at once:
digamma is the kernel, and crt_mean_approx takes the digamma of its
shifted argument and of its concentration, with the trigamma, from one
call. Each element's value is that of one recurrence per element, bit
for bit, whatever the call's size or shape; the per-element transcription
is kept with the tests (tests/oracle.py) as the pin. So the caller's
batching is free: engine.sweep takes every psi of a pass in two calls,
where each call's fixed cost, some 40 numpy steps, is what small calls
pay most for. The kernel takes numpy's log, not math.log: the two are
different implementations that disagree in the last bit for a few
arguments in a hundred thousand (measured on an AVX-512 x86-64 host).
numpy's log of an array equals its log of each element alone, which the
tests pin on every numpy they run.

The Bernoulli-sum moments take one row of probabilities or a block of
rows, one count per row, and optionally the widths of groups lying side
by side along the rows. engine.sweep takes, once per sweep, the moments
of the counts of ones and of zeros of every active factor in every group
from one pass over the rows (_count_moments), and their table counts from
one crt_mean_approx call on 2 x active factors x groups arrays. Each
count's sums are numpy's pairwise sums over its own row (and group),
which are part of the result: they equal np.sum of that row taken alone,
so batching the rows changes no bit. A count's moments are its mean E,
its variance V and the probability p+ that it is positive; crt_mean_approx
divides E and V by p+ where it reads them, into E+ = E / p+, the mean over
the positive counts, and V+ = V / p+, which is not the variance over them
(that is V+ - (1 - p+) E+^2).
The summands are taken over runs of consecutive whole groups
(_group_runs): as many groups as fit in a block of _RUN_BUDGET (4,096)
values, rows times columns, and a wider group alone.
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BernoulliSumMoments",
    "P_PLUS_FLOOR",
    "digamma",
    "geo_expect_gamma",
    "expect_log_shifted_count",
    "crt_mean_approx",
]

# Below this mass p+ a Bernoulli sum is treated as 0: crt_mean_approx takes no
# E+ = E / p+ or V+ = V / p+ there, and gives no tables.
P_PLUS_FLOOR = 1e-12

# Arguments are pushed above this point before the asymptotic series is used.
_SERIES_START = 6.0

_SMALLEST_DOUBLE = float(np.finfo(float).smallest_subnormal)

# The asymptotic series' polynomials in 1/x^2 by Horner's rule, digamma's
# coefficient above trigamma's: the innermost constants (from which 1/(12x^2)
# and 7/(6x^2) are taken), then each outer level's, B_2n/(2n) and B_2n.
_TAIL_INNER = np.array([[691.0 / 32760.0], [691.0 / 2730.0]])
_TAIL_OUTER = np.array(
    [
        [[1.0 / 132.0], [5.0 / 66.0]],
        [[1.0 / 240.0], [1.0 / 30.0]],
        [[1.0 / 252.0], [1.0 / 42.0]],
        [[1.0 / 120.0], [1.0 / 30.0]],
        [[1.0 / 12.0], [1.0 / 6.0]],
    ]
)

# A run of consecutive whole groups is taken as one block while its rows times
# its columns stay within this many values (_group_runs).
_RUN_BUDGET = 4096


@dataclass(frozen=True)
class BernoulliSumMoments:
    """Moments of l = sum of independent Bernoulli(xi_i) variables: its
    mean E, its variance V and the probability p_plus that l > 0.

    crt_mean_approx derives E+ = E / p_plus, the mean of l conditional on
    l > 0, and V+ = V / p_plus from them. The fields share one shape: 0-d
    for one row of probabilities, or one entry per row of a block and,
    given group widths, per group, the group last (see _count_moments).
    """

    mean: np.ndarray
    variance: np.ndarray
    p_plus: np.ndarray

    def __getitem__(self, i):
        """The moments of entry i along the fields' first axis, such as the
        count of ones (0) or of zeros (1) of _count_moments; views."""
        fields = (self.mean, self.variance, self.p_plus)
        return BernoulliSumMoments(*(f[i, ...] for f in fields))


def _psi(x, trigamma=False):
    """digamma of every element of x, and with trigamma its trigamma too,
    arrays of x's shape: the one kernel of this module.

    psi(y) = psi(y + 1) - 1/y and psi'(y) = psi'(y + 1) + 1/y^2 step y up
    to _SERIES_START, then psi(y) ~ log y - 1/(2y) - sum_n B_2n/(2n y^2n)
    and psi'(y) ~ 1/y + 1/(2y^2) + sum_n B_2n/y^(2n+1) take over. A
    positive y needs at most six steps, and the least element the most, as
    y + 1 keeps it the least. Row j + 1 of the recurrence block is row j
    plus 1 (one np.add.accumulate down y and rows of ones, which adds them
    one after another), so row j holds every element after j steps. An
    element takes the step of row j where that row is below the start
    (low), and its series reads its first row at the start or above;
    low / y is 1/y or 0.
    Each element's terms are summed down the block, in the order of its
    steps: a reduction over the (at most six) rows adds them one after
    another. The two series' polynomials are one Horner pass over a block
    of one or two rows. Every float step is that of one recurrence per
    element (tests/oracle.py pins them bit for bit), and np.log of the whole
    array equals np.log of each element. 1/y overflows to inf for a
    subnormal y and 1/y^2 where y * y underflows to 0, and the series'
    powers of 1/y underflow to 0 at a huge y: none of them warns.
    """
    x = np.asarray(x, dtype=float)
    y = x.ravel()
    # min propagates NaN, so a NaN fails the check
    least = float(y.min()) if y.size else _SERIES_START
    if not least > 0:
        raise ValueError("digamma requires x > 0")
    steps = 0
    while least < _SERIES_START:
        least += 1.0
        steps += 1
    kinds = 2 if trigamma else 1
    with np.errstate(divide="ignore", over="ignore", under="ignore"):
        if steps:
            rows = np.empty((steps + 1, y.size))
            rows[0] = y
            rows[1:] = 1.0
            np.add.accumulate(rows, axis=0, out=rows)
            low = rows < _SERIES_START
            # each element's first row at the start or above, the least
            # such as the rows increase
            y = np.where(low, np.inf, rows).min(axis=0)
            stepped, low = rows[:steps], low[:steps]
            terms = np.empty((steps, kinds, y.size))
            np.divide(low, stepped, out=terms[:, 0])
            if trigamma:
                np.multiply(stepped, stepped, out=terms[:, 1])
                np.divide(low, terms[:, 1], out=terms[:, 1])
            sums = np.add.reduce(terms, axis=0)
        inv = 1.0 / y
        inv2 = inv * inv
        # the innermost terms, inv2 / 12 and inv2 * 7/6, then Horner steps
        tail = np.empty((kinds, y.size))
        np.divide(inv2, 12.0, out=tail[0])
        if trigamma:
            np.multiply(inv2, 7.0 / 6.0, out=tail[1])
        np.subtract(_TAIL_INNER[:kinds], tail, out=tail)
        for coef in _TAIL_OUTER:
            tail *= inv2
            np.subtract(coef[:kinds], tail, out=tail)
        psi = np.log(y)
        psi -= 0.5 * inv
        tail[0] *= inv2
        psi -= tail[0]
        if steps:
            psi -= sums[0]
        if not trigamma:
            return psi.reshape(x.shape)
        tri = inv + 0.5 * inv2
        inv *= inv2
        inv *= tail[1]
        tri += inv
        if steps:
            tri += sums[1]
    return psi.reshape(x.shape), tri.reshape(x.shape)


def digamma(x):
    """Digamma function for positive arguments, elementwise on arrays.

    Applies the recurrence psi(x) = psi(x + 1) - 1/x until the argument
    exceeds 6, then evaluates the asymptotic expansion
    psi(x) ~ log x - 1/(2x) - sum_n B_2n / (2n x^2n).

    Parameters
    ----------
    x : array_like
        Positive argument(s).

    Returns
    -------
    ndarray
        psi evaluated at x, of x's shape (0-d for a scalar).
    """
    return _psi(x)


def geo_expect_gamma(shape, rate):
    """Geometric expectation exp(E[log y]) of y ~ Gamma(shape, rate).

    Equals exp(psi(shape)) / rate, strictly below the arithmetic mean.
    """
    shape_arr = np.asarray(shape, dtype=float)
    rate_arr = np.asarray(rate, dtype=float)
    if not (np.all(shape_arr > 0) and np.all(rate_arr > 0)):
        raise ValueError("gamma parameters must be positive")
    return np.exp(digamma(shape_arr)) / rate_arr


def _group_runs(rows, widths):
    """Runs of consecutive whole groups, as (first group, end group, first
    column, end column) each, in order.

    widths[m] is group m's column count and rows the rows of the block: a
    run grows by the next group while its rows times its columns stay
    within _RUN_BUDGET, and a group wider than that is a run of its own.
    """
    runs = []
    first = start = end = 0
    for m, width in enumerate(int(w) for w in widths):
        if m > first and rows * (end + width - start) > _RUN_BUDGET:
            runs.append((first, m, start, end))
            first, start = m, end
        end += width
    runs.append((first, len(widths), start, end))
    return runs


def _group_sums(terms, rows, widths):
    """Sums over each group's columns of the summands of a block of rows.

    terms maps a slice of the block's columns to their summands, an array
    whose last axis runs along those columns (with several kinds of summand
    stacked on leading axes); rows is the block's row count and widths[m]
    group m's column count, the groups side by side. The sums have one
    entry per group along their last axis. The summands of one run of
    groups (_group_runs) exist at a time. Every sum is one np.add.reduce
    along the last axis of its own group's slice, numpy's pairwise
    summation, so it equals np.sum of that row's (group's) values taken
    alone, however the groups are run. np.add.reduceat would add
    sequentially and differ from it in the last bit, and so would a
    reduction across rows.
    """
    sums = None
    for first, end, start, stop in _group_runs(rows, widths):
        run = terms(slice(start, stop))
        if sums is None:
            sums = np.empty(run.shape[:-1] + (len(widths),))
        col = 0
        for m in range(first, end):
            width = widths[m]
            np.add.reduce(run[..., col : col + width], axis=-1, out=sums[..., m])
            col += width
    return sums


def _count_terms(xi):
    """xi, log(1 - xi), log xi and xi (1 - xi): the summands of the moments
    of a count of ones and of its count of zeros."""
    rows = np.empty((4,) + xi.shape)
    rows[0] = xi
    with np.errstate(divide="ignore"):
        np.log1p(-xi, out=rows[1])
        np.log(xi, out=rows[2])
    np.multiply(xi, 1.0 - xi, out=rows[3])
    return rows


def _count_moments(probs, widths=None) -> BernoulliSumMoments:
    """Moments of each count of ones, the sum of Bernoulli(xi) over a row
    (or group) of probabilities xi, and of its count of zeros, the sum of
    Bernoulli(1 - xi): entries 0 and 1 of the result, whose fields stack
    them on a leading axis of two (see BernoulliSumMoments.__getitem__).

    probs, each in [0, 1], is one row or a block of rows (2-D), one count
    per row; widths, if given, are those of groups side by side along the
    rows, and each group gets its own moments, along a last axis of the
    fields. A count of ones is positive with probability
    -expm1(sum(log1p(-xi))), free of cancellation and exactly 1 where some
    xi is 1. A group of width D has a count of zeros of mean D - mean and
    the same variance, positive with probability -expm1(sum(log xi)),
    exactly 1 where some xi is 0. One pass over the
    probabilities (_group_sums) takes the summands of both counts.
    """
    xi = np.atleast_1d(np.asarray(probs, dtype=float))
    # min and max propagate NaN, so a NaN fails the range check
    if xi.size and not (xi.min() >= 0 and xi.max() <= 1):
        raise ValueError("probabilities must lie in [0, 1]")
    groups = [xi.shape[-1]] if widths is None else widths
    rows = math.prod(xi.shape[:-1])
    sums = _group_sums(lambda cols: _count_terms(xi[..., cols]), rows, groups)
    if widths is None:
        sums = sums[..., 0]
    means = np.empty((2,) + sums.shape[1:])
    means[0] = sums[0]
    np.subtract(groups, sums[0], out=means[1:])
    variances = np.repeat(sums[None, 3], 2, axis=0)
    # sums[1:3] are the logs of the masses of no one and of no zero
    return BernoulliSumMoments(means, variances, -np.expm1(sums[1:3]))


def expect_log_shifted_count(shift_geo, count_mean, count_var):
    """Approximate E[log(c + n)] for a Bernoulli-sum count n.

    The shift c enters through its geometric expectation; the count through
    its exact mean and variance. Second-order expansion:
    log(shift_geo + count_mean) - count_var / (2 (shift_geo + count_mean)^2).
    The shift and the count moments may be arrays (one shift and count per
    element) and give an array.

    Where 2 (shift_geo + count_mean)^2 underflows to 0 (a shift floored
    near the smallest double and a tiny or no expected count), the smallest
    positive double divides instead: a zero variance then gives no
    correction, not 0/0, and a positive one a finite correction, not an
    infinite one, since a Bernoulli-sum variance is at most its mean.
    """
    # an empty shift passes, a NaN one fails
    if not np.all(np.greater(shift_geo, 0)):
        raise ValueError("shift_geo must be positive")
    total = shift_geo + count_mean
    correction = count_var / np.maximum(2.0 * total * total, _SMALLEST_DOUBLE)
    return np.log(total) - correction


def crt_mean_approx(a_geo, count: BernoulliSumMoments):
    """Approximate mean table count when the customer count is random.

    Evaluates a_geo * p_plus * (psi(a_geo + E+) - psi(a_geo)
    + V+ * psi'(a_geo + E+) / 2) with E+ = E / p_plus, the count's mean over
    its positive values, and V+ = V / p_plus (not the variance over them,
    which is V+ - (1 - p_plus) E+^2), and gives 0 where
    p_plus < P_PLUS_FLOOR. For a deterministic count this telescopes to
    the exact CRT mean. a_geo and the count's fields broadcast to the
    result's shape: one entry per count, such as _count_moments gives for
    a block of rows with widths, or 0-d for one count.
    """
    a_geo, mean, variance, p_plus = np.broadcast_arrays(
        a_geo, count.mean, count.variance, count.p_plus
    )
    if not np.all(a_geo > 0):
        raise ValueError("a_geo must be positive")
    # where p_plus is below the floor the digamma terms are not taken: at a
    # floored a_geo, V+ = 0 times an infinite trigamma would be NaN
    ok = p_plus >= P_PLUS_FLOOR
    a, p = a_geo[ok], p_plus[ok]
    n = a.size
    # psi of the shifted argument and of a_geo, with psi' (of the shifted
    # one only read), from one kernel call
    psi, tri = _psi(np.concatenate([a + mean[ok] / p, a]), trigamma=True)
    bracket = psi[:n] - psi[n:] + 0.5 * (variance[ok] / p) * tri[:n]
    tables = np.zeros(ok.shape)
    tables[ok] = a * p * bracket
    return tables
