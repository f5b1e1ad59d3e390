"""Tests for special functions and moment approximations.

scipy.special is the independent oracle for digamma/trigamma; Bernoulli-sum
quantities are checked against exhaustive enumeration of all 2^L outcomes.
"""

import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import special

from cvgfa import approx, engine
from cvgfa.approx import (
    _SERIES_START,
    P_PLUS_FLOOR,
    BernoulliSumMoments,
    bernoulli_sum_moments,
    crt_mean_approx,
    digamma,
    expect_log_shifted_count,
    geo_expect_beta,
    geo_expect_gamma,
)
from oracle import crt_mean_exact, digamma_float, digamma_trigamma_float

EULER_GAMMA = 0.5772156649015329


def trigamma(xs):
    """psi' of each element of xs, from approx._psi: the one trigamma route,
    which crt_mean_approx takes."""
    return approx._psi(np.ravel(xs), trigamma=True)[1]


def complement_moments(probs, widths=None):
    """Moments of the counts of zeros, sums of Bernoulli(1 - xi) over probs
    xi, as engine.sweep takes them with those of the counts of ones."""
    return approx._count_moments(probs, widths)[1]


def enumerate_count_pmf(probs):
    """Exact distribution of a Bernoulli sum over all 2^L outcomes."""
    probs = np.asarray(probs, dtype=float)
    L = probs.size
    masks = (np.arange(2**L)[:, None] >> np.arange(L)) & 1
    outcome_p = np.prod(np.where(masks == 1, probs, 1.0 - probs), axis=1)
    counts = masks.sum(axis=1)
    pmf = np.zeros(L + 1)
    np.add.at(pmf, counts, outcome_p)
    return pmf


class TestDigammaTrigamma:
    def test_known_values(self):
        assert_allclose(digamma(1.0), -EULER_GAMMA, atol=1e-10)
        assert_allclose(digamma(2.0), 1.0 - EULER_GAMMA, atol=1e-10)
        # psi(1/2) = -gamma - 2 ln 2
        assert_allclose(digamma(0.5), -EULER_GAMMA - 2 * math.log(2), atol=1e-10)
        assert_allclose(trigamma(1.0), math.pi**2 / 6, atol=1e-8)
        assert_allclose(trigamma(2.0), math.pi**2 / 6 - 1.0, atol=1e-8)
        # psi'(1/2) = pi^2 / 2
        assert_allclose(trigamma(0.5), math.pi**2 / 2, atol=1e-8)

    def test_accuracy_against_scipy(self):
        xs = np.concatenate(
            [np.logspace(-3, 6, 600), np.linspace(1e-3, 40.0, 600)]
        )
        assert np.max(np.abs(digamma(xs) - special.digamma(xs))) <= 1e-10
        assert np.max(np.abs(trigamma(xs) - special.polygamma(1, xs))) <= 1e-8

    def test_recurrences(self):
        rng = np.random.default_rng(11)
        xs = np.exp(rng.uniform(np.log(1e-3), np.log(1e4), 200))
        assert_allclose(digamma(xs + 1) - digamma(xs), 1.0 / xs, atol=1e-10)
        assert_allclose(
            trigamma(xs + 1) - trigamma(xs), -1.0 / xs**2, atol=1e-8
        )

    def test_domain_errors(self):
        for fn in (digamma, trigamma):
            with pytest.raises(ValueError):
                fn(0.0)
            with pytest.raises(ValueError):
                fn(-1.0)

    def test_scalar_in_scalar_out(self):
        # one route: a scalar gives a 0-d array, the array route's element
        got = digamma(1.5)
        assert isinstance(got, np.ndarray) and got.shape == ()
        assert same_bits(got, digamma(np.array([1.5]))[0])
        assert digamma(np.array([1.5, 2.5])).shape == (2,)


class TestGeometricExpectations:
    def test_gamma_examples(self):
        assert_allclose(geo_expect_gamma(1, 1), math.exp(-EULER_GAMMA), atol=1e-9)
        assert_allclose(geo_expect_gamma(2, 3), 0.5087350371985538, atol=1e-9)
        # oracle value exp(psi(100))/100; tends to 1 as shape grows with rate
        assert_allclose(geo_expect_gamma(100, 100), 0.995004187539485, atol=1e-9)
        assert geo_expect_gamma(1e4, 1e4) > geo_expect_gamma(100, 100)

    def test_beta_examples(self):
        # the pair: the geometric means of beta and of 1 - beta
        assert_allclose(geo_expect_beta(1, 1), [math.exp(-1.0)] * 2, atol=1e-9)
        assert_allclose(geo_expect_beta(2, 2), [math.exp(-5.0 / 6.0)] * 2, atol=1e-9)
        # psi(1) - psi(1/2) = 2 ln 2
        assert_allclose(geo_expect_beta(0.5, 0.5), [0.25] * 2, atol=1e-9)
        # Beta(2, 1): psi(2) - psi(3) = -1/2 and psi(1) - psi(3) = -3/2
        assert_allclose(
            geo_expect_beta(2, 1), [math.exp(-0.5), math.exp(-1.5)], atol=1e-9
        )

    def test_against_scipy(self):
        rng = np.random.default_rng(3)
        a = np.exp(rng.uniform(-2, 4, 100))
        b = np.exp(rng.uniform(-2, 4, 100))
        assert_allclose(
            geo_expect_gamma(a, b),
            np.exp(special.digamma(a)) / b,
            rtol=1e-12,
        )
        g_beta, g_beta_bar = geo_expect_beta(a, b)
        assert_allclose(
            g_beta, np.exp(special.digamma(a) - special.digamma(a + b)), rtol=1e-12
        )
        assert_allclose(
            g_beta_bar, np.exp(special.digamma(b) - special.digamma(a + b)), rtol=1e-12
        )

    def test_below_arithmetic_mean(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            a = float(np.exp(rng.uniform(-2, 4)))
            b = float(np.exp(rng.uniform(-2, 4)))
            assert geo_expect_gamma(a, b) < a / b
            g_beta, g_beta_bar = geo_expect_beta(a, b)
            assert g_beta < a / (a + b)
            assert g_beta_bar < b / (a + b)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            geo_expect_gamma(0.0, 1.0)
        with pytest.raises(ValueError):
            geo_expect_gamma(1.0, -1.0)
        with pytest.raises(ValueError):
            geo_expect_beta(-0.5, 1.0)
        with pytest.raises(ValueError):
            geo_expect_beta(1.0, 0.0)


def scalar_grid(n_random=100_000):
    """Arguments on both sides of _SERIES_START, tiny, huge and random.

    The random part is large because a log or exp that differs from
    numpy's in the last bit does so on only a few arguments in 100k.
    """
    rng = np.random.default_rng(21)
    below = np.nextafter(_SERIES_START, 0.0)
    above = np.nextafter(_SERIES_START, np.inf)
    return np.concatenate(
        [
            [below, _SERIES_START, above, 0.5, 1.0, 2.5, 5.999, 6.001, 40.0],
            # 1e-160 squared underflows to 0, 5e-324 is the least subnormal
            [5e-324, 1e-310, 1e-200, 1e-160, 1e-12, 1e12, 1e200, 1e300],
            np.exp(rng.uniform(math.log(1e-300), math.log(1e300), n_random)),
            rng.uniform(0.0, 2.0 * _SERIES_START, n_random),
        ]
    )


def same_bits(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:divide by zero encountered:RuntimeWarning")
class TestScalarRoute:
    """Scalar inputs take the array route and give 0-d results, whose bits
    are the array route's element for element."""

    @pytest.mark.parametrize("fn", [digamma])
    def test_float_matches_array_route(self, fn):
        grid = scalar_grid()
        whole = fn(grid)
        assert same_bits([fn(x) for x in grid.tolist()], whole)
        for i in range(0, grid.size, 500):
            x = grid[i]
            got = fn(np.float64(x))
            assert np.shape(got) == ()
            assert same_bits(got, whole[i]), x
            assert same_bits(got, fn(np.array([x]))[0]), x

    def test_one_recurrence_gives_the_digamma_kernel(self):
        # crt_mean_approx takes psi and psi' of one argument together
        grid = scalar_grid()
        assert same_bits(approx._psi(grid, trigamma=True)[0], digamma(grid))

    def test_lgamma_array_route_matches_math_lgamma(self):
        # engine maps math.lgamma over the arrays of its objective
        grid = scalar_grid()
        assert same_bits(engine._lgamma(grid), [math.lgamma(x) for x in grid.tolist()])
        block = grid[:12].reshape(3, 4)
        assert same_bits(engine._lgamma(block), engine._lgamma(grid[:12]).reshape(3, 4))
        assert same_bits(engine._lgamma(2.5), math.lgamma(2.5))
        assert engine._lgamma(np.zeros((0, 3))).shape == (0, 3)

    @pytest.mark.parametrize("fn", [digamma])
    def test_array_shapes_are_kept(self, fn):
        grid = scalar_grid(n_random=10)
        whole = fn(grid)
        assert same_bits(fn(grid[:12].reshape(2, 3, 2)), whole[:12].reshape(2, 3, 2))
        assert fn(np.zeros((0, 2))).shape == (0, 2)

    @pytest.mark.parametrize("fn", [digamma])
    def test_other_scalars_match_array_route(self, fn):
        ints = [1, 2, 5, 6, 7, 100, 10**6, 10**15]
        whole = fn(np.array(ints, dtype=float))
        for i, x in enumerate(ints):
            for arg in (x, np.int64(x), np.array(float(x))):
                got = fn(arg)
                assert np.shape(got) == ()
                assert same_bits(got, whole[i]), x

    @pytest.mark.parametrize("fn", [geo_expect_gamma, geo_expect_beta])
    def test_geo_expectations_match_array_route(self, fn):
        if fn is geo_expect_beta:
            # each half of the pair, the second the first of the swapped call
            self.check_geo_route(lambda a, b: geo_expect_beta(a, b)[0])
            self.check_geo_route(lambda a, b: geo_expect_beta(a, b)[1])
            first = scalar_grid(n_random=1_000)
            first = first[(first > 1e-6) & (first < 1e6)]
            second = first[::-1].copy()
            assert same_bits(
                geo_expect_beta(first, second)[1], geo_expect_beta(second, first)[0]
            )
        else:
            self.check_geo_route(fn)

    @staticmethod
    def check_geo_route(fn):
        grid = scalar_grid(n_random=25_000)
        # keep both parameters where the results are finite and nonzero
        first = grid[(grid > 1e-6) & (grid < 1e6)]
        second = first[::-1].copy()
        whole = fn(first, second)
        got = [fn(x, y) for x, y in zip(first.tolist(), second.tolist())]
        assert same_bits(got, whole)
        for x, y in zip(first[::200], second[::200]):
            got = fn(np.float64(x), np.float64(y))
            assert np.shape(got) == ()
            assert same_bits(got, fn(np.array([x]), np.array([y]))[0]), (x, y)
        got = fn(2, 3)
        assert np.shape(got) == ()
        assert same_bits(got, fn(np.array([2.0]), np.array([3.0]))[0])
        # a 0-d argument broadcasts against an array one
        assert same_bits(fn(first[0], second[:5]), fn(np.full(5, first[0]), second[:5]))

    @pytest.mark.parametrize("bad", [0, 0.0, -0.0, -1, -2.5, float("nan")])
    def test_scalar_domain_errors(self, bad):
        for fn in (digamma, trigamma):
            with pytest.raises(ValueError):
                fn(bad)
            with pytest.raises(ValueError):
                fn(np.float64(bad))
        for fn in (geo_expect_gamma, geo_expect_beta):
            with pytest.raises(ValueError):
                fn(bad, 1.0)
            with pytest.raises(ValueError):
                fn(1.0, bad)


class TestBernoulliSumMoments:
    def test_trivial_cases(self):
        m = bernoulli_sum_moments([])
        assert (m.mean, m.variance, m.p_plus, m.mean_plus, m.var_plus) == (
            0.0,
            0.0,
            0.0,
            0.0,
            0.0,
        )
        m = bernoulli_sum_moments([1.0])
        assert (m.mean, m.variance, m.p_plus, m.mean_plus, m.var_plus) == (
            1.0,
            0.0,
            1.0,
            1.0,
            0.0,
        )
        m = bernoulli_sum_moments([0.5, 0.5])
        assert_allclose(
            [m.mean, m.variance, m.p_plus, m.mean_plus, m.var_plus],
            [1.0, 0.5, 0.75, 4.0 / 3.0, 2.0 / 3.0],
            atol=1e-12,
        )

    def test_against_enumeration(self):
        rng = np.random.default_rng(5)
        for _ in range(60):
            L = int(rng.integers(1, 13))
            probs = rng.uniform(0, 1, L)
            pmf = enumerate_count_pmf(probs)
            ls = np.arange(L + 1, dtype=float)
            mean = float(pmf @ ls)
            var = float(pmf @ ls**2 - mean**2)
            p_plus = float(1.0 - pmf[0])
            m = bernoulli_sum_moments(probs)
            assert_allclose(m.mean, mean, atol=1e-10)
            assert_allclose(m.variance, var, atol=1e-10)
            assert_allclose(m.p_plus, p_plus, atol=1e-10)
            assert_allclose(m.mean_plus, mean / p_plus, atol=1e-10)
            assert_allclose(m.var_plus, var / p_plus, atol=1e-10)

    def test_invariants(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            probs = rng.uniform(0, 1, int(rng.integers(0, 13)))
            m = bernoulli_sum_moments(probs)
            assert m.variance <= m.mean + 1e-12
            assert 0.0 <= m.p_plus <= 1.0
            if m.p_plus > 0:
                assert abs(m.mean_plus * m.p_plus - m.mean) <= 1e-12
                assert abs(m.var_plus * m.p_plus - m.variance) <= 1e-12

    def test_sure_success_is_exact(self):
        m = bernoulli_sum_moments([0.3, 1.0, 0.9999999])
        assert m.p_plus == 1.0

    def test_tiny_probabilities_no_cancellation(self):
        m = bernoulli_sum_moments([1e-15, 1e-15])
        assert_allclose(m.p_plus, 2e-15, rtol=1e-6)

    def test_all_zero_probs(self):
        m = bernoulli_sum_moments(np.zeros(5))
        assert m.p_plus == 0.0
        assert m.mean_plus == 0.0 and m.var_plus == 0.0

    def test_domain_error(self):
        with pytest.raises(ValueError):
            bernoulli_sum_moments([0.2, 1.2])
        with pytest.raises(ValueError):
            bernoulli_sum_moments([-0.1])


class TestComplementMoments:
    """Moments of the count of zeros, derived from the count of ones."""

    @staticmethod
    def fields(m):
        return [m.mean, m.variance, m.p_plus, m.mean_plus, m.var_plus]

    def test_match_the_complementary_sum(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            probs = rng.uniform(0, 1, int(rng.integers(0, 13)))
            got = complement_moments(probs)
            want = bernoulli_sum_moments(1.0 - probs)
            assert_allclose(self.fields(got), self.fields(want), rtol=1e-12, atol=1e-12)

    def test_against_enumeration(self):
        rng = np.random.default_rng(10)
        for _ in range(30):
            probs = rng.uniform(0, 1, int(rng.integers(1, 11)))
            pmf = enumerate_count_pmf(1.0 - probs)
            p_plus = float(1.0 - pmf[0])
            m = complement_moments(probs)
            assert_allclose(m.p_plus, p_plus, atol=1e-12)
            assert_allclose(m.mean, float(pmf @ np.arange(probs.size + 1)), atol=1e-10)

    def test_a_zero_probability_makes_the_complement_sure(self):
        probs = np.array([0.3, 0.0, 0.9999999])
        m = complement_moments(probs)
        # taken without log(0): a RuntimeWarning fails the test
        assert m.p_plus == 1.0
        assert m.mean_plus == m.mean and m.var_plus == m.variance

    def test_certain_ones_leave_no_complement(self):
        probs = np.ones(4)
        m = complement_moments(probs)
        assert self.fields(m) == [0.0] * 5
        m = complement_moments([])
        assert self.fields(m) == [0.0] * 5

    def test_near_certain_ones_no_cancellation(self):
        probs = np.array([1.0 - 2.0**-50, 1.0 - 2.0**-50])
        m = complement_moments(probs)
        assert_allclose(m.p_plus, 2.0 * 2.0**-50, rtol=1e-6)


class TestStackedGroups:
    """Moments and table counts of groups side by side, against each alone."""

    @staticmethod
    def fields(m):
        return [m.mean, m.variance, m.p_plus, m.mean_plus, m.var_plus]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_match_each_group_alone_bitwise(self, seed):
        rng = np.random.default_rng(seed)
        widths = rng.integers(1, 300, size=5)
        groups = [rng.uniform(0.0, 1.0, w) for w in widths]
        # a sure one, a sure zero, and a group whose count is 0 for sure
        groups[1][0] = 1.0
        groups[2][-1] = 0.0
        groups[3][:] = 0.0
        probs = np.concatenate(groups)
        a_geo = rng.uniform(0.05, 3.0, size=len(widths))
        a_geo[4] = 1e-300
        with warnings.catch_warnings(), np.errstate(all="warn"):
            warnings.simplefilter("error", RuntimeWarning)
            nhat = bernoulli_sum_moments(probs, widths)
            ntil = complement_moments(probs, widths)
            tables = [crt_mean_approx(a_geo, nhat), crt_mean_approx(a_geo, ntil)]
        for m, xi in enumerate(groups):
            one = bernoulli_sum_moments(xi)
            other = complement_moments(xi)
            # each group's sums are numpy's pairwise sums of its row alone
            assert same_bits(one.mean, np.sum(xi))
            assert same_bits(one.variance, np.sum(xi * (1.0 - xi)))
            for got, want in ((nhat, one), (ntil, other)):
                assert same_bits([f[m] for f in self.fields(got)], self.fields(want))
            for got, want in zip(tables, (one, other)):
                assert same_bits(got[m], crt_mean_approx(float(a_geo[m]), want))
        assert nhat.p_plus[1] == 1.0 and ntil.p_plus[2] == 1.0
        assert nhat.p_plus[3] == 0.0 and tables[0][3] == 0.0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            bernoulli_sum_moments([0.2, 0.5, 1.2], [2, 1])
        m = bernoulli_sum_moments([0.5, 0.5], [1, 1])
        with pytest.raises(ValueError):
            crt_mean_approx(np.array([0.5, 0.0]), m)


class TestBlocksOfRows:
    """Moments and table counts of a block of rows, one count per row (and
    group), against each row taken alone: the sweep's batch of every active
    factor's rows."""

    @staticmethod
    def fields(m):
        return [m.mean, m.variance, m.p_plus, m.mean_plus, m.var_plus]

    @staticmethod
    def block(seed, widths, rows=7):
        rng = np.random.default_rng(seed)
        block = rng.uniform(0.0, 1.0, (rows, int(np.sum(widths))))
        block[1, 0] = 1.0  # a sure one
        block[2, -1] = 0.0  # a sure zero
        block[3] = 0.0  # counts that are 0 for sure
        block[4] = 1e-14  # a positive count below P_PLUS_FLOOR
        block[5, : widths[0]] = 1.0  # a first group with no zero
        return block

    @pytest.mark.parametrize("seed", [0, 1])
    def test_rows_match_each_row_alone_bitwise(self, seed):
        block = self.block(seed, [30])
        with warnings.catch_warnings(), np.errstate(all="warn"):
            warnings.simplefilter("error", RuntimeWarning)
            nhat = bernoulli_sum_moments(block)
            ntil = complement_moments(block)
        for i, xi in enumerate(block):
            one = bernoulli_sum_moments(xi)
            for got, want in ((nhat, one), (ntil, complement_moments(xi))):
                assert same_bits([f[i] for f in self.fields(got)], self.fields(want))
        assert nhat.mean.shape == (len(block),)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_grouped_rows_match_each_group_alone_bitwise(self, seed):
        widths = [13, 40, 7, 25, 18, 30, 11, 22, 16]
        block = self.block(seed, widths)
        nhat = bernoulli_sum_moments(block, widths)
        ntil = complement_moments(block, widths)
        assert nhat.mean.shape == (len(block), len(widths))
        ends = np.cumsum(widths)
        for i, row in enumerate(block):
            for m, end in enumerate(ends):
                xi = row[end - widths[m] : end]
                one = bernoulli_sum_moments(xi)
                other = complement_moments(xi)
                for got, want in ((nhat, one), (ntil, other)):
                    got_m = [f[i, m] for f in self.fields(got)]
                    assert same_bits(got_m, self.fields(want))

    def test_crt_on_a_2d_array_matches_the_scalar_kernel_bitwise(self):
        widths = [13, 40, 7, 25]
        block = self.block(2, widths)
        rng = np.random.default_rng(3)
        a_geo = rng.uniform(0.05, 3.0, (len(block), len(widths)))
        a_geo[:, 2] = 1e-300  # a floored concentration
        nhat = bernoulli_sum_moments(block, widths)
        ntil = complement_moments(block, widths)
        for count in (nhat, ntil):
            got = crt_mean_approx(a_geo, count)
            assert got.shape == a_geo.shape
            for i in range(len(block)):
                for m in range(len(widths)):
                    one = BernoulliSumMoments(*(f[i, m] for f in self.fields(count)))
                    want = crt_mean_approx(float(a_geo[i, m]), one)
                    assert same_bits(got[i, m], want)
        # the all-zero row and the row of 1e-14 have no mass above the floor,
        # and the complement of a first group of sure ones has none either
        assert np.all(nhat.p_plus[3:5] < P_PLUS_FLOOR)
        assert ntil.p_plus[5, 0] < P_PLUS_FLOOR
        assert np.all(crt_mean_approx(a_geo, nhat)[3:5] == 0.0)
        assert crt_mean_approx(a_geo, ntil)[5, 0] == 0.0


class TestArrayPsiKernel:
    """approx._psi, the one psi kernel, against the per-element recurrence
    it repeats as whole-array steps (oracle.digamma_float and
    oracle.digamma_trigamma_float)."""

    @staticmethod
    def points():
        below = np.nextafter(_SERIES_START, 0.0)
        above = np.nextafter(_SERIES_START, np.inf)
        rng = np.random.default_rng(31)
        return np.concatenate(
            [
                [engine.GEO_FLOOR, below, _SERIES_START, above, 1.0, 1e300],
                np.exp(rng.uniform(math.log(1e-300), math.log(1e300), 20_000)),
                rng.uniform(0.0, 2.0 * _SERIES_START, 20_000),
            ]
        )

    @staticmethod
    def assert_pinned(xs):
        floats = np.ravel(xs).tolist()
        with warnings.catch_warnings(), np.errstate(all="warn"):
            warnings.simplefilter("error", RuntimeWarning)
            psi = approx._psi(xs)
            pair = approx._psi(xs, trigamma=True)
        want = np.array([digamma_trigamma_float(x) for x in floats]).reshape(
            np.shape(xs) + (2,)
        )
        psi_want = np.reshape([digamma_float(x) for x in floats], np.shape(xs))
        assert same_bits(psi, psi_want)
        assert same_bits(pair[0], want[..., 0])
        assert same_bits(pair[1], want[..., 1])

    def test_equals_the_float_kernels_bitwise_without_warnings(self):
        self.assert_pinned(self.points())

    # the least subnormal, a subnormal, one whose square underflows, the
    # start and its neighbours, and one whose powers of 1/x underflow
    EDGES = [5e-324, 1e-310, 1e-160, np.nextafter(_SERIES_START, 0.0), 6.0, 1e300]

    @pytest.mark.parametrize("size", ["0-d", 1, 2, 7, 8, 9, 17, 1_055])
    def test_pins_the_oracle_at_every_size(self, size):
        # the recurrence's terms are summed down at most six rows, for any
        # number of values in a call, a 0-d one included
        rng = np.random.default_rng(37)
        if size == "0-d":
            for x in self.EDGES + [0.5, 2.5, 40.0]:
                self.assert_pinned(np.float64(x))
            return
        for draw in range(200 if size < 1_000 else 20):
            xs = np.exp(rng.uniform(math.log(1e-300), math.log(1e300), size))
            xs[: size // 2] = rng.uniform(0.0, 2.0 * _SERIES_START, size // 2)
            xs[rng.integers(size)] = self.EDGES[draw % len(self.EDGES)]
            self.assert_pinned(xs)
            if size == 1_055:
                self.assert_pinned(xs[:1_000].reshape(10, 4, 25))

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan])
    def test_domain_errors(self, bad):
        xs = np.full(40, 2.0)
        xs[7] = bad
        with pytest.raises(ValueError):
            digamma(xs)


class TestGroupRuns:
    """Runs of whole groups (approx._group_runs) change no bit of the
    Bernoulli-sum moments, whatever approx._RUN_BUDGET is."""

    WIDTHS = {"equal": [20, 20, 20, 20], "unequal": [13, 40, 7, 25, 18, 30]}

    def test_runs(self, monkeypatch):
        assert approx._group_runs(6, [100] * 4) == [(0, 4, 0, 400)]
        assert approx._group_runs(30, [100] * 4) == [
            (0, 1, 0, 100), (1, 2, 100, 200), (2, 3, 200, 300), (3, 4, 300, 400)
        ]
        # a group wider than the budget is a run of its own
        assert approx._group_runs(1, [5000, 3, 4]) == [
            (0, 1, 0, 5000), (1, 3, 5000, 5007)
        ]
        monkeypatch.setattr(approx, "_RUN_BUDGET", 10**9)
        assert approx._group_runs(30, [2000] * 4) == [(0, 4, 0, 8000)]

    @pytest.mark.parametrize("kind", sorted(WIDTHS))
    @pytest.mark.parametrize("seed", [0, 1])
    def test_moments_match_across_budgets_bitwise(self, monkeypatch, kind, seed):
        widths = self.WIDTHS[kind]
        block = TestBlocksOfRows.block(seed, widths)
        fields = TestBlocksOfRows.fields
        results, runs = [], []
        for budget in (1, 10**9):
            monkeypatch.setattr(approx, "_RUN_BUDGET", budget)
            runs.append(len(approx._group_runs(len(block), widths)))
            nhat = bernoulli_sum_moments(block, widths)
            ntil = complement_moments(block, widths)
            results.append(fields(nhat) + fields(ntil))
        # each group its own run, then all groups one run
        assert runs == [len(widths), 1]
        assert all(same_bits(a, b) for a, b in zip(*results))


class TestExpectLogShiftedCount:
    def test_examples(self):
        assert_allclose(expect_log_shifted_count(1, 3, 0), math.log(4), atol=1e-12)
        assert_allclose(
            expect_log_shifted_count(0.5, 1.5, 0.75),
            math.log(2) - 0.75 / 8.0,
            atol=1e-12,
        )
        assert_allclose(expect_log_shifted_count(2, 0, 0), math.log(2), atol=1e-12)

    def test_against_enumeration(self):
        # shift drawn from [1, 10] where the 2% window holds with margin
        rng = np.random.default_rng(12)
        checked = 0
        for _ in range(200):
            L = int(rng.integers(1, 13))
            probs = rng.uniform(0, 1, L)
            c = float(np.exp(rng.uniform(np.log(1.0), np.log(10.0))))
            m = bernoulli_sum_moments(probs)
            if c + m.mean < 2:
                continue
            pmf = enumerate_count_pmf(probs)
            exact = float(pmf @ np.log(c + np.arange(L + 1)))
            got = expect_log_shifted_count(c, m.mean, m.variance)
            assert abs(got - exact) <= 0.02 * abs(exact)
            checked += 1
        assert checked >= 150

    def test_zero_variance_at_an_underflowing_total(self):
        # (1e-300)^2 underflows to 0; with no variance there is no correction
        with warnings.catch_warnings(), np.errstate(
            over="warn", invalid="warn", divide="warn"
        ):
            warnings.simplefilter("error", RuntimeWarning)
            got = expect_log_shifted_count(1e-300, 0.0, 0.0)
            row = expect_log_shifted_count(1e-300, np.zeros(3), np.zeros(3))
        assert got == np.log(1e-300)
        assert same_bits(row, np.full(3, np.log(1e-300)))

    def test_arrays_match_scalars(self):
        rng = np.random.default_rng(5)
        means = rng.uniform(0.0, 50.0, 200)
        variances = rng.uniform(0.0, 10.0, 200)
        for shift in (1e-300, 0.3, 7.0):
            row = expect_log_shifted_count(shift, means, variances)
            each = [
                expect_log_shifted_count(shift, a, v)
                for a, v in zip(means.tolist(), variances.tolist())
            ]
            assert same_bits(row, each)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            expect_log_shifted_count(0.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            expect_log_shifted_count(-1.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            expect_log_shifted_count(np.array([1.0, np.nan]), 1.0, 0.5)

    def test_no_shifts_give_an_empty_result(self):
        # a sweep with no active factor has no rows to take the prior of
        got = expect_log_shifted_count(np.ones((0, 1)), np.ones((0, 3)), np.ones((0, 3)))
        assert got.shape == (0, 3)


class TestCrtMean:
    def test_exact_examples(self):
        assert crt_mean_exact(1, 1) == 1.0
        assert_allclose(crt_mean_exact(1, 3), 1 + 0.5 + 1.0 / 3.0, atol=1e-12)
        assert crt_mean_exact(0, 5) == 0.0
        assert crt_mean_exact(2.5, 0) == 0.0

    def test_exact_monotone_in_l(self):
        vals = [crt_mean_exact(0.7, l) for l in range(20)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_approx_deterministic_matches_exact(self):
        # telescoping identity: zero-variance counts reduce to the closed form
        for a in (0.25, 0.5, 1.0, 2.0, 5.0):
            for l in range(1, 51):
                m = bernoulli_sum_moments(np.ones(l))
                assert_allclose(
                    crt_mean_approx(a, m), crt_mean_exact(a, l), atol=1e-10
                )

    def test_approx_p_plus_zero(self):
        m = BernoulliSumMoments(0.0, 0.0, 0.0, 0.0, 0.0)
        assert crt_mean_approx(0.7, m) == 0.0

    def test_one_count_gives_a_0d_result_and_broadcasts(self):
        m = bernoulli_sum_moments([0.5, 0.5])
        one = crt_mean_approx(0.5, m)
        assert isinstance(one, np.ndarray) and one.shape == ()
        # one count against several concentrations: one entry each
        row = crt_mean_approx(np.array([0.5, 0.7]), m)
        assert row.shape == (2,)
        assert same_bits(row, [one, crt_mean_approx(0.7, m)])

    def test_frozen_dispersed_value(self):
        # oracle value computed with scipy digamma/trigamma at
        # G = 0.5, p+ = 0.75, E+ = 4/3, V+ = 2/3
        m = bernoulli_sum_moments([0.5, 0.5])
        assert_allclose(crt_mean_approx(0.5, m), 0.942280794007, atol=1e-9)

    def test_approx_against_enumeration(self):
        # concentration in [0.02, 0.2]; larger values degrade (see ledger)
        rng = np.random.default_rng(12)
        checked = 0
        for _ in range(200):
            L = int(rng.integers(1, 13))
            probs = rng.uniform(0, 1, L)
            a = float(np.exp(rng.uniform(np.log(0.02), np.log(0.2))))
            m = bernoulli_sum_moments(probs)
            if m.mean < 2:
                continue
            pmf = enumerate_count_pmf(probs)
            exact = float(
                pmf @ [crt_mean_exact(a, l) for l in range(L + 1)]
            )
            assert abs(crt_mean_approx(a, m) - exact) <= 0.10 * exact
            checked += 1
        assert checked >= 100

    def test_domain_errors(self):
        m = bernoulli_sum_moments([0.5])
        with pytest.raises(ValueError):
            crt_mean_approx(0.0, m)
        with pytest.raises(ValueError):
            crt_mean_exact(-1.0, 3)
