"""Tests for stability indices, ranking scores, and reconstruction error."""

from types import SimpleNamespace

import numpy as np
import pytest

from cvgfa.errors import UsageError
from cvgfa.metrics import (
    abs_correlation,
    auc,
    dense_max_corr,
    dsi,
    ranking_score,
    split_sparse_dense,
    ssi,
    train_mse,
)
from cvgfa.model import _spans


def stacked_state(rho, w_mean, **fields):
    """A stand-in state from per-group K x D_m blocks of rho and w_mean,
    held side by side with their column spans, as VariationalState holds
    them."""
    spans = _spans([r.shape[1] for r in rho])
    return SimpleNamespace(
        rho=np.hstack(rho), w_mean=np.hstack(w_mean), spans=spans, **fields
    )


def _rotation(k: int, seed: int) -> np.ndarray:
    q, r = np.linalg.qr(np.random.default_rng(seed).standard_normal((k, k)))
    return q * np.sign(np.diag(r))


class TestAbsCorrelation:
    def test_zero_mean_orthogonal_rows_give_identity(self):
        a = np.array(
            [
                [1.0, -1.0, 0.0, 0.0],
                [1.0, 1.0, -2.0, 0.0],
                [1.0, 1.0, 1.0, -3.0],
            ]
        )
        c = abs_correlation(a, a)
        assert np.allclose(c, np.eye(3), atol=1e-12)

    def test_sign_flip_is_invisible(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((4, 9))
        assert np.allclose(abs_correlation(a, -a), abs_correlation(a, a), atol=1e-14)

    def test_constant_row_correlates_at_zero(self):
        a = np.array([[2.0, 2.0, 2.0]])
        b = np.array([[1.0, 0.0, -1.0]])
        assert abs_correlation(a, b)[0, 0] == 0.0
        assert abs_correlation(a, a)[0, 0] == 0.0

    def test_rejects_short_or_mismatched_rows(self):
        with pytest.raises(UsageError):
            abs_correlation(np.ones((2, 1)), np.ones((2, 1)))
        with pytest.raises(UsageError):
            abs_correlation(np.ones((2, 3)), np.ones((2, 4)))


class TestSsi:
    def test_single_perfect_match(self):
        assert ssi(np.array([[1.0]])) == 1.0

    def test_identity_three_by_three(self):
        # each row: max 1, rivals above the 1/3 mean sum to 1, over K-1=2
        assert ssi(np.eye(3)) == pytest.approx(0.5, abs=1e-15)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((5, 12))
        b = rng.standard_normal((6, 12))
        base = ssi(abs_correlation(a, b))
        perm = rng.permutation(5)
        assert ssi(abs_correlation(a[perm], b)) == pytest.approx(base, abs=1e-12)
        perm_b = rng.permutation(6)
        assert ssi(abs_correlation(a, b[perm_b])) == pytest.approx(base, abs=1e-12)

    def test_row_scaling_invariance(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((4, 10))
        b = rng.standard_normal((4, 10))
        scales = np.array([0.01, 3.0, -7.5, 100.0])[:, None]
        base = ssi(abs_correlation(a, b))
        assert ssi(abs_correlation(scales * a, b)) == pytest.approx(base, abs=1e-12)

    def test_rejects_empty(self):
        with pytest.raises(UsageError):
            ssi(np.zeros((0, 0)))


class TestDsi:
    def test_identical_matrices(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((4, 8))
        assert dsi(m, m) == 0.0

    def test_hand_value(self):
        m1 = np.eye(2)
        m2 = np.array([[1.0, 0.0]])
        assert dsi(m1, m2) == pytest.approx(0.25, abs=1e-15)

    def test_permutation_and_sign_invariance(self):
        rng = np.random.default_rng(4)
        m1 = rng.standard_normal((5, 7))
        m2 = rng.standard_normal((3, 7))
        base = dsi(m1, m2)
        perm = rng.permutation(5)
        signs = np.array([1.0, -1.0, 1.0, -1.0, -1.0])[:, None]
        assert abs(dsi(signs * m1[perm], m2) - base) < 1e-10
        assert abs(dsi(m1, -m2) - base) < 1e-10

    def test_row_scaling_invariance(self):
        rng = np.random.default_rng(5)
        m1 = rng.standard_normal((4, 6))
        m2 = rng.standard_normal((4, 6))
        scales = np.array([0.1, 2.0, 30.0, 0.5])[:, None]
        assert abs(dsi(scales * m1, m2) - dsi(m1, m2)) < 1e-10

    def test_orthogonal_rotation(self):
        rng = np.random.default_rng(6)
        m = rng.standard_normal((4, 9))
        q = _rotation(4, seed=7)
        assert dsi(q @ m, m) < 1e-10
        # the underlying trace identity, before any row normalization
        assert np.trace((q @ m) @ (q @ m).T) == pytest.approx(
            np.trace(m @ m.T), rel=1e-12
        )

    def test_rejects_mismatched_width(self):
        with pytest.raises(UsageError):
            dsi(np.ones((2, 3)), np.ones((2, 4)))


class TestSplitSparseDense:
    def test_all_subthreshold_entries_zeroed(self):
        g = np.full((5, 6), 0.1)
        sparse, dense = split_sparse_dense(g, 0.15, 2)
        assert np.all(sparse == 0.0) and np.all(dense == 0.0)
        assert sparse.shape == (3, 6) and dense.shape == (2, 6)

    def test_dense_row_wins_on_count(self):
        g = np.zeros((3, 8))
        g[0, :2] = 5.0
        g[1] = 1.0  # fully dense
        g[2, :3] = 2.0
        sparse, dense = split_sparse_dense(g, 0.15, 1)
        assert dense.shape == (1, 8)
        assert np.array_equal(dense[0], g[1])
        assert sparse.shape == (2, 8)

    def test_count_tie_broken_by_norm_then_index(self):
        g = np.zeros((3, 4))
        g[0, :2] = [1.0, 1.0]
        g[1, :2] = [3.0, 3.0]  # same count, bigger norm
        g[2, :2] = [1.0, 1.0]  # ties row 0 on both, higher index
        _, dense = split_sparse_dense(g, 0.15, 2)
        assert np.array_equal(dense[0], g[0])
        assert np.array_equal(dense[1], g[1])

    def test_n_dense_equals_k(self):
        g = np.ones((3, 4))
        sparse, dense = split_sparse_dense(g, 0.15, 3)
        assert sparse.shape == (0, 4)
        assert dense.shape == (3, 4)

    def test_rows_keep_original_order(self):
        g = np.array([[0.0, 9.0, 9.0], [5.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
        sparse, dense = split_sparse_dense(g, 0.15, 1)
        assert np.array_equal(dense[0], g[2])
        assert np.array_equal(sparse[0], g[0])
        assert np.array_equal(sparse[1], g[1])

    def test_rejects_bad_n_dense(self):
        with pytest.raises(UsageError):
            split_sparse_dense(np.ones((2, 3)), 0.1, 3)
        with pytest.raises(UsageError):
            split_sparse_dense(np.ones((2, 3)), 0.1, -1)


class TestDenseMaxCorr:
    def test_perfect_recovery(self):
        rng = np.random.default_rng(8)
        truth = rng.standard_normal((3, 20))
        hat = truth[::-1] * 2.5
        assert dense_max_corr(truth, hat) == pytest.approx(1.0, abs=1e-12)


class TestRankingScore:
    @staticmethod
    def _state(ga, gb):
        ga = np.asarray(ga, dtype=float)
        gb = np.asarray(gb, dtype=float)
        return stacked_state([np.ones_like(ga), np.ones_like(gb)], [ga, gb])

    def test_hand_value(self):
        # column 0 carries (1, -2) in group a and (3, 0) in group b
        st = self._state([[1.0, 0.0], [-2.0, 0.0]], [[3.0, 0.0], [0.0, 0.0]])
        s = ranking_score(st, 0, 1)
        assert s[0] == pytest.approx(3.0, abs=1e-15)
        assert s[1] == 0.0

    def test_sign_invariance(self):
        rng = np.random.default_rng(9)
        ga = rng.standard_normal((4, 6))
        gb = rng.standard_normal((4, 6))
        base = ranking_score(self._state(ga, gb), 0, 1)
        flipped = ranking_score(self._state(-ga, gb), 0, 1)
        assert np.array_equal(base, flipped)

    def test_zero_loadings(self):
        st = self._state(np.zeros((3, 5)), np.zeros((3, 5)))
        assert np.array_equal(ranking_score(st, 0, 1), np.zeros(5))

    def test_rejects_mismatched_widths(self):
        st = stacked_state(
            [np.ones((2, 3)), np.ones((2, 4))], [np.ones((2, 3)), np.ones((2, 4))]
        )
        with pytest.raises(UsageError):
            ranking_score(st, 0, 1)


class TestAuc:
    def test_canonical_values(self):
        assert auc([0.9, 0.1], [True, False]) == 1.0
        assert auc([0.1, 0.9], [True, False]) == 0.0
        assert auc([0.5, 0.5, 0.5], [True, False, True]) == 0.5

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(10)
        scores = rng.standard_normal(40)
        labels = rng.random(40) < 0.4
        base = auc(scores, labels)
        assert auc(np.exp(scores), labels) == pytest.approx(base, abs=1e-12)
        assert auc(3.0 * scores + 7.0, labels) == pytest.approx(base, abs=1e-12)

    def test_matches_pairwise_count_with_ties(self):
        rng = np.random.default_rng(11)
        scores = np.round(rng.standard_normal(60), 1)  # force ties
        labels = rng.random(60) < 0.5
        pos = scores[labels]
        neg = scores[~labels]
        wins = 0.0
        for p in pos:
            for q in neg:
                wins += 1.0 if p > q else (0.5 if p == q else 0.0)
        assert auc(scores, labels) == pytest.approx(
            wins / (pos.size * neg.size), abs=1e-12
        )

    def test_rejects_degenerate_input(self):
        with pytest.raises(UsageError):
            auc([1.0, 2.0], [True, True])
        with pytest.raises(UsageError):
            auc([1.0, 2.0], [False, False])
        with pytest.raises(UsageError):
            auc([1.0, 2.0, 3.0], [True, False])


class TestTrainMse:
    @staticmethod
    def _zero_state(groups, k=2):
        return stacked_state(
            [np.zeros((k, g.shape[1])) for g in groups],
            [np.zeros((k, g.shape[1])) for g in groups],
            f_mean=np.zeros((groups[0].shape[0], k)),
        )

    def test_perfect_reconstruction(self):
        rng = np.random.default_rng(12)
        f = rng.standard_normal((6, 2))
        w = rng.standard_normal((2, 5))
        x = f @ w
        state = stacked_state([np.ones((2, 5))], [w], f_mean=f)
        data = SimpleNamespace(groups=[x])
        assert train_mse(data, state) < 1e-28

    def test_zero_state_gives_mean_square(self):
        rng = np.random.default_rng(13)
        groups = [rng.standard_normal((4, 3)), rng.standard_normal((4, 6))]
        state = self._zero_state(groups)
        want = sum(float((g * g).sum()) for g in groups) / (4 * 3 + 4 * 6)
        assert train_mse(SimpleNamespace(groups=groups), state) == pytest.approx(
            want, rel=1e-14
        )

    def test_quadratic_in_scale(self):
        rng = np.random.default_rng(14)
        groups = [rng.standard_normal((5, 4))]
        state = self._zero_state(groups)
        base = train_mse(SimpleNamespace(groups=groups), state)
        scaled = train_mse(SimpleNamespace(groups=[3.0 * groups[0]]), state)
        assert scaled == pytest.approx(9.0 * base, rel=1e-12)

    def test_rejects_empty(self):
        with pytest.raises(UsageError):
            train_mse(SimpleNamespace(groups=[]), self._zero_state([np.zeros((1, 1))]))

    @staticmethod
    def _random_fit(n, dims, k, seed):
        rng = np.random.default_rng(seed)
        groups = [rng.standard_normal((n, d)) for d in dims]
        f_mean = rng.standard_normal((n, k))
        rho = [rng.uniform(0, 1, (k, d)) for d in dims]
        w_mean = [rng.standard_normal((k, d)) for d in dims]
        state = stacked_state(rho, w_mean, f_mean=f_mean)
        return SimpleNamespace(groups=groups), state

    @staticmethod
    def _three_temporaries(data, state):
        """train_mse with three N x D temporaries per group: the product,
        the residual and its square."""
        sq = 0.0
        for x, cols in zip(data.groups, state.spans):
            resid = x - state.f_mean @ (state.rho[:, cols] * state.w_mean[:, cols])
            sq += float((resid * resid).sum())
        return sq / sum(x.size for x in data.groups)

    def test_bitwise_equal_to_the_group_by_group_sum(self):
        data, state = self._random_fit(7, [5, 9, 4], 3, seed=15)
        assert train_mse(data, state) == self._three_temporaries(data, state)

    @pytest.mark.parametrize(
        "n, width",
        [pytest.param(100, 100, id="acceptance"), pytest.param(200, 2000, id="wide")],
    )
    def test_bitwise_equal_at_the_benchmark_shapes(self, n, width):
        # the in-place steps are the same elementwise operations and the
        # same pairwise sum over a C-ordered array
        data, state = self._random_fit(n, [width] * 4, 6, seed=17)
        assert train_mse(data, state) == self._three_temporaries(data, state)

    def test_holds_one_group_residual_at_a_time(self):
        import tracemalloc

        n, d, groups = 50, 400, 4
        data, state = self._random_fit(n, [d] * groups, 3, seed=16)
        one = n * d * 8
        tracemalloc.start()
        try:
            train_mse(data, state)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one group-sized array at a time, squared in place: two at once
        # (a residual and its square) would take at least 2 * one
        assert peak < 1.5 * one
