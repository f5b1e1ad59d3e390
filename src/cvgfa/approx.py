"""Special functions and moment approximations used by the inference engine.

Dependency-free digamma (and trigamma, for crt_mean_approx), geometric
expectations of gamma and beta variables, exact moments of sums of
independent Bernoullis, and the second-order approximations for expected
shifted logs and Chinese restaurant table counts. Everything here is a
pure function.

Every public function takes arrays and returns one of their broadcast
shape, 0-d for scalars. digamma has two kernels that give the same bits.
A call of fewer than _ARRAY_PSI_MIN (40) values maps a float kernel over
the elements (_elementwise). A larger call takes one whole-array kernel
(_psi_array), which repeats the float kernel's steps as numpy steps over
the whole array. crt_mean_approx is one masked array expression, which
takes the digamma and trigamma of its shifted argument from one
recurrence per element (_digamma_trigamma), or from the array kernel at
40 values or more. The switch follows what the sweep passes. A steady
acceptance-size sweep (6 factors, 4 groups) passes at most 24 values per
call. There the float kernel is as fast or faster: 23 to 37 us against
32 to 56 us for 24 digamma values, and the array kernel on every call
made an acceptance-size engine.fit 9% slower (the median ratio of 300
alternating fits). The first sweeps at K = 30 pass 90 to 120 values. For
120 values the array kernel took 34 us against 106 us (digamma) and 50
us against 180 us (digamma and trigamma). These are medians over 3,000
calls on a shared 2-vCPU x86-64 host, on arguments spread over [0.001,
30].
The kernels take numpy's log, not math.log: the two are different
implementations that disagree in the last bit for a few arguments in a
hundred thousand (measured on an AVX-512 x86-64 host). numpy's log of an
array equals its log of each element alone, which keeps the two kernels
equal bit for bit; the tests pin that on every numpy they run.

The Bernoulli-sum moments take one row of probabilities or a block of
rows, one count per row, and optionally the widths of groups lying side
by side along the rows. engine.sweep hands them, once per sweep, the rows
of every active factor in every group, and crt_mean_approx the resulting
active factors x groups arrays: one call for all the (factor, group) rows
in place of one per factor. Each count's sums are numpy's pairwise sums
over its own row (and group), which are part of the result: they equal
np.sum of that row taken alone, so batching the rows changes no bit.
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
    "geo_expect_beta",
    "bernoulli_sum_moments",
    "expect_log_shifted_count",
    "crt_mean_approx",
]

# Below this mass the conditional moments of a Bernoulli sum are treated as 0.
P_PLUS_FLOOR = 1e-12

# Arguments are pushed above this point before the asymptotic series is used.
_SERIES_START = 6.0

_SMALLEST_DOUBLE = float(np.finfo(float).smallest_subnormal)

# digamma and crt_mean_approx take calls of at least this many values through
# the whole-array kernel (_psi_array), smaller ones one float at a time.
_ARRAY_PSI_MIN = 40

# A run of consecutive whole groups is taken as one block while its rows times
# its columns stay within this many values (_group_runs).
_RUN_BUDGET = 4096


@dataclass(frozen=True)
class BernoulliSumMoments:
    """Moments of l = sum of independent Bernoulli(xi_i) variables.

    mean_plus and var_plus are the moments of l conditional on l > 0; both
    are defined as 0 when p_plus < P_PLUS_FLOOR. The fields share one
    shape: 0-d for one row of probabilities, or one entry per row of a
    block and, given group widths, per group, the group last (see
    bernoulli_sum_moments).
    """

    mean: np.ndarray
    variance: np.ndarray
    p_plus: np.ndarray
    mean_plus: np.ndarray
    var_plus: np.ndarray


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


def _digamma(y):
    """digamma of one float: the kernel of :func:`digamma`."""
    if not y > 0:
        raise ValueError("digamma requires x > 0")
    acc = 0.0
    while y < _SERIES_START:
        acc -= 1.0 / y
        y += 1.0
    inv = 1.0 / y
    inv2 = inv * inv
    return float(acc + (np.log(y) - 0.5 * inv - inv2 * _digamma_tail(inv2)))


def _digamma_trigamma(y):
    """digamma and trigamma of one float from one recurrence: the digamma
    is _digamma's bit for bit, since both step y alike and the trigamma
    keeps its own sum: psi'(x) = psi'(x + 1) + 1/x^2 up to 6, then
    psi'(x) ~ 1/x + 1/(2x^2) + sum_n B_2n / x^(2n+1). crt_mean_approx needs
    both of one argument."""
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


def _psi_array(x, trigamma=False):
    """digamma of every element of a float64 array, and with trigamma its
    trigamma too: _digamma and _digamma_trigamma as whole-array steps.

    Each pass of the recurrence takes every element, weighted by low, 1.0
    where the element is still below _SERIES_START and 0.0 elsewhere:
    low / y is 1 / y or 0, and y + low is y + 1 or y, so an element that
    has reached the start is left as it is. The passes stop when the least
    element reaches the start, as y + 1 keeps it the least. Every float
    step is the float kernels' own, so every value equals theirs bit for
    bit. 1 / y overflows to inf for a subnormal y, as the float division
    does, 1 / y^2 is inf where y * y underflows to 0, and the series'
    powers of 1 / y underflow to 0 at a huge y: none of them warns, as no
    float step does.
    """
    y = np.array(x, dtype=float)
    if not np.all(y > 0):
        raise ValueError("digamma requires x > 0")
    acc = np.zeros(y.shape)
    acc2 = np.zeros(y.shape)
    low = np.empty(y.shape)
    step = np.empty(y.shape)
    least = float(y.min()) if y.size else _SERIES_START
    with np.errstate(divide="ignore", over="ignore", under="ignore"):
        while least < _SERIES_START:
            least += 1.0
            np.less(y, _SERIES_START, out=low)
            acc -= np.divide(low, y, out=step)
            if trigamma:
                np.multiply(y, y, out=step)
                acc2 += np.divide(low, step, out=step)
            y += low
        inv = 1.0 / y
        inv2 = inv * inv
        acc += np.log(y) - 0.5 * inv - inv2 * _digamma_tail(inv2)
        if not trigamma:
            return acc
        acc2 += inv + 0.5 * inv2 + inv * inv2 * _trigamma_tail(inv2)
    return acc, acc2


def _elementwise(kernel, x):
    """kernel of every element of x, a float64 array of x's shape.

    A list comprehension over the Python floats: on the few values the
    sweep passes, np.vectorize's fixed cost is about twice its time.
    """
    x = np.asarray(x, dtype=float)
    return np.array([kernel(v) for v in x.ravel().tolist()]).reshape(x.shape)


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
    x = np.asarray(x, dtype=float)
    if x.size >= _ARRAY_PSI_MIN:
        return _psi_array(x)
    return _elementwise(_digamma, x)


def geo_expect_gamma(shape, rate):
    """Geometric expectation exp(E[log y]) of y ~ Gamma(shape, rate).

    Equals exp(psi(shape)) / rate, strictly below the arithmetic mean.
    """
    shape_arr = np.asarray(shape, dtype=float)
    rate_arr = np.asarray(rate, dtype=float)
    if not (np.all(shape_arr > 0) and np.all(rate_arr > 0)):
        raise ValueError("gamma parameters must be positive")
    return np.exp(digamma(shape_arr)) / rate_arr


def geo_expect_beta(a, b):
    """Geometric expectations exp(E[log y]) and exp(E[log(1 - y)]) of
    y ~ Beta(a, b), a pair of arrays of the broadcast shape.

    They equal exp(psi(a) - psi(a + b)), strictly below a / (a + b), and
    exp(psi(b) - psi(a + b)), the first of geo_expect_beta(b, a) bit for bit
    (a + b and b + a are one float). One digamma call on [a, b, a + b]
    takes all three, psi(a + b) once.
    """
    a_arr, b_arr = np.broadcast_arrays(
        np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    )
    if not (np.all(a_arr > 0) and np.all(b_arr > 0)):
        raise ValueError("beta parameters must be positive")
    psi_a, psi_b, psi_ab = digamma(np.stack([a_arr, b_arr, a_arr + b_arr]))
    return np.exp(psi_a - psi_ab), np.exp(psi_b - psi_ab)


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


def _group_sums(terms, xi, widths):
    """Sums of terms(xi) along the last axis, of one row or a block of rows.

    terms maps probabilities to their summands, an array whose last axis
    runs along them (with several kinds of summand stacked on a leading
    axis). Without widths each row is one group, and the sums drop the last
    axis. With widths the groups lie side by side along the last axis,
    widths[m] columns for group m, and the last axis of the sums has one
    entry per group; the terms of one run of groups (_group_runs) exist at
    a time. Every sum is one np.add.reduce along the last axis of its own
    group's slice, numpy's pairwise summation, so it equals np.sum of that
    row's (group's) values taken alone, however the groups are run.
    np.add.reduceat would add sequentially and differ from it in the last
    bit, and so would a reduction across rows.
    """
    if widths is None:
        return np.add.reduce(terms(xi), axis=-1)
    sums = []
    for first, end, start, stop in _group_runs(math.prod(xi.shape[:-1]), widths):
        run = terms(xi[..., start:stop])
        col = 0
        for width in widths[first:end]:
            sums.append(np.add.reduce(run[..., col : col + width], axis=-1))
            col += width
    return np.stack(sums, axis=-1)


def _count_terms(xi):
    """xi, xi (1 - xi) and log(1 - xi): the summands of a count's moments."""
    rows = np.empty((3,) + xi.shape)
    rows[0] = xi
    np.multiply(xi, 1.0 - xi, out=rows[1])
    with np.errstate(divide="ignore"):
        np.log1p(-xi, out=rows[2])
    return rows


def _log_terms(xi):
    """log xi: the summands of log prod(xi), the complement's no-zero mass."""
    with np.errstate(divide="ignore"):
        return np.log(xi)


def bernoulli_sum_moments(probs, widths=None) -> BernoulliSumMoments:
    """Exact moments of sums of independent Bernoulli variables.

    Parameters
    ----------
    probs : array_like
        Success probabilities, each in [0, 1]: one row, whose sum is the
        count, or a block of rows (2-D) with one count per row.
    widths : sequence of int, optional
        Group widths of stacked rows: the groups' probabilities lie side by
        side along the last axis, widths[m] of them for group m, summing to
        its length. Each group's sum gets its own moments, along a last
        axis of the fields. Omitted, each row is one group.

    Returns
    -------
    BernoulliSumMoments
        Unconditional mean/variance, the probability p_plus that the sum is
        positive, and the conditional moments given a positive sum.

    Notes
    -----
    p_plus is computed as -expm1(sum(log1p(-xi))) to avoid cancellation;
    any xi equal to 1 makes that sum -inf, so p_plus = 1 exactly.
    """
    xi = np.atleast_1d(np.asarray(probs, dtype=float))
    # min and max propagate NaN, so a NaN fails the range check
    if xi.size and not (xi.min() >= 0 and xi.max() <= 1):
        raise ValueError("probabilities must lie in [0, 1]")
    mean, variance, log_none = _group_sums(_count_terms, xi, widths)
    return _with_conditional(mean, variance, -np.expm1(log_none))


def _with_conditional(mean, variance, p_plus):
    """BernoulliSumMoments, adding the moments conditional on a positive sum.

    The arguments share one shape. The conditional moments are divided out
    only where p_plus reaches P_PLUS_FLOOR.
    """
    ok = p_plus >= P_PLUS_FLOOR
    mean_plus = np.divide(mean, p_plus, out=np.zeros(ok.shape), where=ok)
    var_plus = np.divide(variance, p_plus, out=np.zeros(ok.shape), where=ok)
    return BernoulliSumMoments(mean, variance, p_plus, mean_plus, var_plus)


def _complement_moments(count, probs, widths=None):
    """Moments of the complementary sums, of Bernoulli(1 - xi) over probs xi.

    count is bernoulli_sum_moments(probs, widths), whose range check probs
    have passed. A group of width D has a complement of mean D - count.mean
    and the same variance, positive with probability 1 - prod(xi) =
    -expm1(sum(log xi)): exactly 1 when some xi is 0, whose log is -inf.
    Only that product reads probs again. A step of engine.sweep, not an
    entry point, hence the private name: its time stays with the sweep when
    bench/tracer.py times public functions.
    """
    xi = np.atleast_1d(np.asarray(probs, dtype=float))
    log_all = _group_sums(_log_terms, xi, widths)
    width = xi.shape[-1] if widths is None else np.asarray(widths)
    return _with_conditional(
        np.subtract(width, count.mean), count.variance, -np.expm1(log_all)
    )


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
    + V+ * psi'(a_geo + E+) / 2) with the conditional count moments, and 0
    where p_plus < P_PLUS_FLOOR. For a deterministic count this telescopes
    to the exact CRT mean. a_geo and the count's fields broadcast to the
    result's shape: one entry per count, such as bernoulli_sum_moments
    gives for a block of rows with widths, or 0-d for one count.
    """
    a_geo, p_plus, mean_plus, var_plus = np.broadcast_arrays(
        a_geo, count.p_plus, count.mean_plus, count.var_plus
    )
    if not np.all(a_geo > 0):
        raise ValueError("a_geo must be positive")
    # where p_plus is below the floor the digamma terms are not taken: at a
    # floored a_geo, V+ = 0 times an infinite trigamma would be NaN
    ok = p_plus >= P_PLUS_FLOOR
    a = a_geo[ok]
    shifted = a + mean_plus[ok]
    # psi and psi' of the shifted argument from one recurrence per element
    if shifted.size >= _ARRAY_PSI_MIN:
        psi_s, tri_s = _psi_array(shifted, trigamma=True)
    else:
        pairs = [_digamma_trigamma(v) for v in shifted.tolist()]
        psi_s, tri_s = np.array(pairs).reshape(-1, 2).T
    bracket = psi_s - digamma(a) + 0.5 * var_plus[ok] * tri_s
    tables = np.zeros(ok.shape)
    tables[ok] = a * p_plus[ok] * bracket
    return tables
