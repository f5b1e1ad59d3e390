"""Special functions and moment approximations used by the inference engine.

Dependency-free digamma and trigamma, geometric expectations of gamma and
beta variables, exact moments of sums of independent Bernoullis, and the
second-order approximations for expected shifted logs and Chinese restaurant
table counts. Everything here is a pure function.

digamma and trigamma run their recurrence and series in Python floats, one
argument at a time; an array maps that scalar kernel over its elements
(np.vectorize). crt_mean_approx likewise maps its scalar kernel over its
entries, which calls them on scalars, thousands of times per sweep, where
building small arrays would cost more than the arithmetic. The kernels
take numpy's log, not math.log: the two are different implementations
that disagree in the last bit for a few arguments in a hundred thousand
(measured on an AVX-512 x86-64 host).

The Bernoulli-sum moments take one row of probabilities or a block of
rows, one count per row, and optionally the widths of groups lying side
by side along the rows. engine.sweep hands them, once per sweep, the rows
of every active factor in every group, and crt_mean_approx the resulting
active factors x groups arrays: one call for all the (factor, group) rows
in place of one per factor. Each count's sums are numpy's pairwise sums
over its own row (and group), which are part of the result: they equal
np.sum of that row taken alone, so batching the rows changes no bit.
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BernoulliSumMoments",
    "P_PLUS_FLOOR",
    "digamma",
    "trigamma",
    "geo_expect_gamma",
    "geo_expect_beta",
    "bernoulli_sum_moments",
    "expect_log_shifted_count",
    "crt_mean_exact",
    "crt_mean_approx",
]

# Below this mass the conditional moments of a Bernoulli sum are treated as 0.
P_PLUS_FLOOR = 1e-12

# Arguments are pushed above this point before the asymptotic series is used.
_SERIES_START = 6.0

_SMALLEST_DOUBLE = float(np.finfo(float).smallest_subnormal)


@dataclass(frozen=True)
class BernoulliSumMoments:
    """Moments of l = sum of independent Bernoulli(xi_i) variables.

    mean_plus and var_plus are the moments of l conditional on l > 0; both
    are defined as 0 when p_plus < P_PLUS_FLOOR. Each field is a float for
    one row of probabilities, or an array with one entry per row of a block
    and, given group widths, per group, the group last (see
    bernoulli_sum_moments).
    """

    mean: float
    variance: float
    p_plus: float
    mean_plus: float
    var_plus: float


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


def _is_scalar(x):
    """True for Python and numpy scalars and 0-d arrays."""
    # the isinstance test spares floats (np.float64 included) the np.ndim call
    return isinstance(x, (int, float)) or np.ndim(x) == 0


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


def _trigamma(y):
    """trigamma of one float: the kernel of :func:`trigamma`."""
    if not y > 0:
        raise ValueError("trigamma requires x > 0")
    acc = 0.0
    while y < _SERIES_START:
        y2 = y * y
        # 1 / y^2 is inf where y * y underflows to 0
        acc += 1.0 / y2 if y2 > 0.0 else math.inf
        y += 1.0
    inv = 1.0 / y
    inv2 = inv * inv
    return acc + (inv + 0.5 * inv2 + inv * inv2 * _trigamma_tail(inv2))


# the kernels, not the public functions, are mapped: those would re-dispatch
# on the argument's type for every element
_DIGAMMA_VEC = np.vectorize(_digamma, otypes=[float])
_TRIGAMMA_VEC = np.vectorize(_trigamma, otypes=[float])


def digamma(x):
    """Digamma function for positive arguments, elementwise on arrays.

    Applies the recurrence psi(x) = psi(x + 1) - 1/x until the argument
    exceeds 6, then evaluates the asymptotic expansion
    psi(x) ~ log x - 1/(2x) - sum_n B_2n / (2n x^2n).

    Parameters
    ----------
    x : float or array_like
        Positive argument(s).

    Returns
    -------
    float or ndarray
        psi evaluated at x; a plain float for scalar input.
    """
    if _is_scalar(x):
        return _digamma(float(x))
    return _DIGAMMA_VEC(np.asarray(x, dtype=float))


def trigamma(x):
    """Trigamma function for positive arguments, elementwise on arrays.

    Same scheme as :func:`digamma`: recurrence psi'(x) = psi'(x+1) + 1/x^2
    up to 6, then psi'(x) ~ 1/x + 1/(2x^2) + sum_n B_2n / x^(2n+1).
    """
    if _is_scalar(x):
        return _trigamma(float(x))
    return _TRIGAMMA_VEC(np.asarray(x, dtype=float))


def geo_expect_gamma(shape, rate):
    """Geometric expectation exp(E[log y]) of y ~ Gamma(shape, rate).

    Equals exp(psi(shape)) / rate, strictly below the arithmetic mean.
    """
    if _is_scalar(shape) and _is_scalar(rate):
        shape = float(shape)
        rate = float(rate)
        if not (shape > 0 and rate > 0):
            raise ValueError("gamma parameters must be positive")
        return float(np.exp(digamma(shape)) / rate)
    shape_arr = np.asarray(shape, dtype=float)
    rate_arr = np.asarray(rate, dtype=float)
    if not (np.all(shape_arr > 0) and np.all(rate_arr > 0)):
        raise ValueError("gamma parameters must be positive")
    return np.exp(digamma(shape_arr)) / rate_arr


def geo_expect_beta(a, b):
    """Geometric expectation exp(E[log y]) of y ~ Beta(a, b).

    Equals exp(psi(a) - psi(a + b)), strictly below a / (a + b).
    """
    if _is_scalar(a) and _is_scalar(b):
        a = float(a)
        b = float(b)
        if not (a > 0 and b > 0):
            raise ValueError("beta parameters must be positive")
        return float(np.exp(digamma(a) - digamma(a + b)))
    a_arr = np.asarray(a, dtype=float)
    b_arr = np.asarray(b, dtype=float)
    if not (np.all(a_arr > 0) and np.all(b_arr > 0)):
        raise ValueError("beta parameters must be positive")
    return np.exp(digamma(a_arr) - digamma(a_arr + b_arr))


def _group_sums(terms, xi, widths):
    """Sums of terms(xi) along the last axis, of one row or a block of rows.

    terms maps probabilities to their summands, an array whose last axis
    runs along them (with several kinds of summand stacked on a leading
    axis). Without widths each row is one group, and the sums drop the last
    axis. With widths the groups lie side by side along the last axis,
    widths[m] columns for group m, and the last axis of the sums has one
    entry per group; only one group's terms exist at a time. Every sum is
    one np.add.reduce along the last axis, numpy's pairwise summation, so
    it equals np.sum of that row's (group's) values taken alone.
    np.add.reduceat would add sequentially and differ from it in the last
    bit, and so would a reduction across rows.
    """
    if widths is None:
        return np.add.reduce(terms(xi), axis=-1)
    sums = []
    start = 0
    for width in widths:
        sums.append(np.add.reduce(terms(xi[..., start : start + width]), axis=-1))
        start += width
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
    only where p_plus reaches P_PLUS_FLOOR. The moments of a single count
    (0-d arguments) are floats.
    """
    ok = p_plus >= P_PLUS_FLOOR
    mean_plus = np.divide(mean, p_plus, out=np.zeros(ok.shape), where=ok)
    var_plus = np.divide(variance, p_plus, out=np.zeros(ok.shape), where=ok)
    fields = (mean, variance, p_plus, mean_plus, var_plus)
    if ok.ndim == 0:
        return BernoulliSumMoments(*(float(f) for f in fields))
    return BernoulliSumMoments(*fields)


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
    if not np.min(shift_geo) > 0:
        raise ValueError("shift_geo must be positive")
    total = shift_geo + count_mean
    correction = count_var / np.maximum(2.0 * total * total, _SMALLEST_DOUBLE)
    return np.log(total) - correction


def crt_mean_exact(a, l):
    """Exact mean table count of a Chinese restaurant process.

    Closed form sum_{i=0}^{l-1} a / (a + i) for concentration a and l
    customers; a = 0 or l = 0 gives 0. Serves as the brute-force oracle for
    :func:`crt_mean_approx`.
    """
    if a < 0 or l < 0:
        raise ValueError("requires a >= 0 and l >= 0")
    if a == 0:
        return 0.0
    return float(sum(a / (a + i) for i in range(int(l))))


def crt_mean_approx(a_geo, count: BernoulliSumMoments):
    """Approximate mean table count when the customer count is random.

    Evaluates a_geo * p_plus * (psi(a_geo + E+) - psi(a_geo)
    + V+ * psi'(a_geo + E+) / 2) with the conditional count moments, and 0
    where p_plus < P_PLUS_FLOOR. For a deterministic count this telescopes
    to the exact CRT mean. a_geo and the count's fields are floats, giving a
    float, or arrays of one shape (one entry per count, such as
    bernoulli_sum_moments gives for a block of rows with widths), giving an
    array of that shape: the entries are taken one at a time, in Python
    floats, as digamma takes its elements.
    """
    if _is_scalar(a_geo):
        return _crt_mean(float(a_geo), count.p_plus, count.mean_plus, count.var_plus)
    fields = (a_geo, count.p_plus, count.mean_plus, count.var_plus)
    tables = [_crt_mean(*entry) for entry in zip(*(f.ravel().tolist() for f in fields))]
    return np.array(tables).reshape(a_geo.shape)


def _crt_mean(a_geo, p_plus, mean_plus, var_plus):
    """crt_mean_approx of one count, from floats."""
    if not a_geo > 0:
        raise ValueError("a_geo must be positive")
    # where p_plus is below the floor the digamma terms are not taken: at a
    # floored a_geo, V+ = 0 times an infinite trigamma would be NaN
    if p_plus < P_PLUS_FLOOR:
        return 0.0
    shifted = a_geo + mean_plus
    bracket = digamma(shifted) - digamma(a_geo) + 0.5 * var_plus * trigamma(shifted)
    return a_geo * p_plus * bracket
