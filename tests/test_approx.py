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

from cvgfa.approx import (
    _SERIES_START,
    P_PLUS_FLOOR,
    BernoulliSumMoments,
    _complement_moments,
    bernoulli_sum_moments,
    crt_mean_approx,
    crt_mean_exact,
    digamma,
    expect_log_shifted_count,
    geo_expect_beta,
    geo_expect_gamma,
    trigamma,
)

EULER_GAMMA = 0.5772156649015329


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
        assert isinstance(digamma(1.5), float)
        assert isinstance(trigamma(1.5), float)
        assert digamma(np.array([1.5, 2.5])).shape == (2,)


class TestGeometricExpectations:
    def test_gamma_examples(self):
        assert_allclose(geo_expect_gamma(1, 1), math.exp(-EULER_GAMMA), atol=1e-9)
        assert_allclose(geo_expect_gamma(2, 3), 0.5087350371985538, atol=1e-9)
        # oracle value exp(psi(100))/100; tends to 1 as shape grows with rate
        assert_allclose(geo_expect_gamma(100, 100), 0.995004187539485, atol=1e-9)
        assert geo_expect_gamma(1e4, 1e4) > geo_expect_gamma(100, 100)

    def test_beta_examples(self):
        assert_allclose(geo_expect_beta(1, 1), math.exp(-1.0), atol=1e-9)
        assert_allclose(geo_expect_beta(2, 2), math.exp(-5.0 / 6.0), atol=1e-9)
        # psi(1) - psi(1/2) = 2 ln 2
        assert_allclose(geo_expect_beta(0.5, 0.5), 0.25, atol=1e-9)

    def test_against_scipy(self):
        rng = np.random.default_rng(3)
        a = np.exp(rng.uniform(-2, 4, 100))
        b = np.exp(rng.uniform(-2, 4, 100))
        assert_allclose(
            geo_expect_gamma(a, b),
            np.exp(special.digamma(a)) / b,
            rtol=1e-12,
        )
        assert_allclose(
            geo_expect_beta(a, b),
            np.exp(special.digamma(a) - special.digamma(a + b)),
            rtol=1e-12,
        )

    def test_below_arithmetic_mean(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            a = float(np.exp(rng.uniform(-2, 4)))
            b = float(np.exp(rng.uniform(-2, 4)))
            assert geo_expect_gamma(a, b) < a / b
            assert geo_expect_beta(a, b) < a / (a + b)

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
    """Scalar inputs skip numpy arrays; the result must not move a bit."""

    @pytest.mark.parametrize("fn", [digamma, trigamma])
    def test_float_matches_array_route(self, fn):
        grid = scalar_grid()
        whole = fn(grid)
        assert same_bits([fn(x) for x in grid.tolist()], whole)
        for i in range(0, grid.size, 500):
            x = grid[i]
            got = fn(np.float64(x))
            assert type(got) is float
            assert same_bits(got, whole[i]), x
            # every scalar once took the array route as a length-1 array
            assert same_bits(got, fn(np.array([x]))[0]), x

    @pytest.mark.parametrize("fn", [digamma, trigamma])
    def test_other_scalars_match_array_route(self, fn):
        ints = [1, 2, 5, 6, 7, 100, 10**6, 10**15]
        whole = fn(np.array(ints, dtype=float))
        for i, x in enumerate(ints):
            for arg in (x, np.int64(x), np.array(float(x))):
                got = fn(arg)
                assert type(got) is float
                assert same_bits(got, whole[i]), x

    @pytest.mark.parametrize("fn", [geo_expect_gamma, geo_expect_beta])
    def test_geo_expectations_match_array_route(self, fn):
        grid = scalar_grid(n_random=25_000)
        # keep both parameters where the results are finite and nonzero
        first = grid[(grid > 1e-6) & (grid < 1e6)]
        second = first[::-1].copy()
        whole = fn(first, second)
        got = [fn(x, y) for x, y in zip(first.tolist(), second.tolist())]
        assert same_bits(got, whole)
        for x, y in zip(first[::200], second[::200]):
            got = fn(np.float64(x), np.float64(y))
            assert type(got) is float
            assert same_bits(got, fn(np.array([x]), np.array([y]))[0]), (x, y)
        got = fn(2, 3)
        assert type(got) is float
        assert same_bits(got, fn(np.array([2.0]), np.array([3.0]))[0])

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
            got = _complement_moments(bernoulli_sum_moments(probs), probs)
            want = bernoulli_sum_moments(1.0 - probs)
            assert_allclose(self.fields(got), self.fields(want), rtol=1e-12, atol=1e-12)

    def test_against_enumeration(self):
        rng = np.random.default_rng(10)
        for _ in range(30):
            probs = rng.uniform(0, 1, int(rng.integers(1, 11)))
            pmf = enumerate_count_pmf(1.0 - probs)
            p_plus = float(1.0 - pmf[0])
            m = _complement_moments(bernoulli_sum_moments(probs), probs)
            assert_allclose(m.p_plus, p_plus, atol=1e-12)
            assert_allclose(m.mean, float(pmf @ np.arange(probs.size + 1)), atol=1e-10)

    def test_a_zero_probability_makes_the_complement_sure(self):
        probs = np.array([0.3, 0.0, 0.9999999])
        m = _complement_moments(bernoulli_sum_moments(probs), probs)
        # taken without log(0): a RuntimeWarning fails the test
        assert m.p_plus == 1.0
        assert m.mean_plus == m.mean and m.var_plus == m.variance

    def test_certain_ones_leave_no_complement(self):
        probs = np.ones(4)
        m = _complement_moments(bernoulli_sum_moments(probs), probs)
        assert self.fields(m) == [0.0] * 5
        m = _complement_moments(bernoulli_sum_moments([]), [])
        assert self.fields(m) == [0.0] * 5

    def test_near_certain_ones_no_cancellation(self):
        probs = np.array([1.0 - 2.0**-50, 1.0 - 2.0**-50])
        m = _complement_moments(bernoulli_sum_moments(probs), probs)
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
            ntil = _complement_moments(nhat, probs, widths)
            tables = [crt_mean_approx(a_geo, nhat), crt_mean_approx(a_geo, ntil)]
        for m, xi in enumerate(groups):
            one = bernoulli_sum_moments(xi)
            other = _complement_moments(one, xi)
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
            ntil = _complement_moments(nhat, block)
        for i, xi in enumerate(block):
            one = bernoulli_sum_moments(xi)
            for got, want in ((nhat, one), (ntil, _complement_moments(one, xi))):
                assert same_bits([f[i] for f in self.fields(got)], self.fields(want))
        assert nhat.mean.shape == (len(block),)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_grouped_rows_match_each_group_alone_bitwise(self, seed):
        widths = [13, 40, 7, 25, 18, 30, 11, 22, 16]
        block = self.block(seed, widths)
        nhat = bernoulli_sum_moments(block, widths)
        ntil = _complement_moments(nhat, block, widths)
        assert nhat.mean.shape == (len(block), len(widths))
        ends = np.cumsum(widths)
        for i, row in enumerate(block):
            for m, end in enumerate(ends):
                xi = row[end - widths[m] : end]
                one = bernoulli_sum_moments(xi)
                other = _complement_moments(one, xi)
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
        ntil = _complement_moments(nhat, block, widths)
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
