"""Acceptance gate: every shipped guarantee, one pass/fail line each.

Run with `python3 -m pytest tests/test_acceptance.py -v -s` to see the
per-criterion lines; plain -v gives one PASSED/FAILED row per criterion.
The two simulation fixtures each run the full 20-restart protocol, so
this module takes about a minute end to end.
"""

import math
import time
from collections import namedtuple

import numpy as np
import pytest

from cvgfa import cli, engine, io, metrics, simdata
from cvgfa.approx import (
    bernoulli_sum_moments,
    crt_mean_approx,
    expect_log_shifted_count,
)
from cvgfa.model import (
    FitOptions,
    GroupedDataset,
    Hyperparameters,
    active_factors,
)
from oracle import crt_mean_exact

N_RESTARTS = 20


def _report(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\ncriterion {number:02d}: {status} ({detail})")
    assert ok, f"criterion {number:02d}: {detail}"


SimRuns = namedtuple("SimRuns", "data truth results seconds_per_restart")
HYPER = Hyperparameters(K=30)


def _run_protocol(pattern):
    data, truth = simdata.generate(pattern, 100, [100] * 4, seed=0)
    start = time.perf_counter()
    results = engine.run_restarts(data, HYPER, FitOptions(), N_RESTARTS)
    per_restart = (time.perf_counter() - start) / N_RESTARTS
    assert all(r["error"] is None for r in results)
    return SimRuns(data, truth, results, per_restart)


@pytest.fixture(scope="module")
def sim1_runs():
    return _run_protocol(simdata.simulation1_pattern())


@pytest.fixture(scope="module")
def sim2_runs():
    return _run_protocol(simdata.simulation2_pattern())


def _truth_rows(truth, m, kinds):
    idx = [j for j, kind in enumerate(truth.pattern.entries[m]) if kind in kinds]
    return truth.loadings[m][idx]


def _ssi_vs_truth(state, truth, data):
    """Group-averaged SSI of the active recovered loadings against truth."""
    active = sorted(active_factors(state))
    scores = []
    for m in range(data.n_groups):
        recovered = engine.expected_loadings(state, m)[active]
        present = _truth_rows(truth, m, (simdata.SPARSE, simdata.DENSE))
        if recovered.shape[0] == 0 or present.shape[0] == 0:
            scores.append(0.0)
        else:
            scores.append(metrics.ssi(metrics.abs_correlation(present, recovered)))
    return float(np.mean(scores))


def _baseline_ssi(truth, data, k, seed):
    """Same protocol fed seeded random Gaussian loadings of the fitted shape."""
    rng = np.random.default_rng(seed)
    scores = []
    for m in range(data.n_groups):
        base = rng.normal(0.0, 2.0, size=(k, data.groups[m].shape[1]))
        present = _truth_rows(truth, m, (simdata.SPARSE, simdata.DENSE))
        scores.append(metrics.ssi(metrics.abs_correlation(present, base)))
    return float(np.mean(scores))


def _count_pmf(xi):
    """Exact distribution of a sum of independent Bernoullis."""
    pmf = np.array([1.0])
    for p in xi:
        nxt = np.zeros(len(pmf) + 1)
        nxt[:-1] += pmf * (1.0 - p)
        nxt[1:] += pmf * p
        pmf = nxt
    return pmf


def test_criterion_01_crt_mean_exact_on_deterministic_counts():
    start = time.perf_counter()
    worst = 0.0
    for a in (0.25, 0.5, 1.0, 2.0, 5.0):
        for count in range(1, 51):
            moments = bernoulli_sum_moments(np.ones(count))
            gap = abs(crt_mean_approx(a, moments) - crt_mean_exact(a, count))
            worst = max(worst, gap)
    elapsed = time.perf_counter() - start
    _report(
        1,
        worst <= 1e-10 and elapsed < 1.0,
        f"max |approx - exact| {worst:.2e} over 5x50 grid in {elapsed:.2f}s",
    )


def test_criterion_02_approximations_near_enumerated_expectations():
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    worst_crt = worst_log = 0.0
    n_crt = n_log = 0
    for _ in range(200):
        length = int(rng.integers(1, 13))
        xi = rng.uniform(0.0, 1.0, size=length)
        pmf = _count_pmf(xi)
        mean = float(np.dot(np.arange(len(pmf)), pmf))
        moments = bernoulli_sum_moments(xi)
        a = float(np.exp(rng.uniform(np.log(0.02), np.log(0.2))))
        if mean >= 2.0:
            exact = sum(pmf[l] * crt_mean_exact(a, l) for l in range(len(pmf)))
            rel = abs(crt_mean_approx(a, moments) - exact) / exact
            worst_crt = max(worst_crt, rel)
            n_crt += 1
        shift = float(np.exp(rng.uniform(np.log(1.0), np.log(10.0))))
        if shift + mean >= 2.0:
            exact = sum(pmf[n] * math.log(shift + n) for n in range(len(pmf)))
            approx = expect_log_shifted_count(shift, moments.mean, moments.variance)
            worst_log = max(worst_log, abs(approx - exact) / abs(exact))
            n_log += 1
    elapsed = time.perf_counter() - start
    _report(
        2,
        worst_crt <= 0.10 and worst_log <= 0.02 and n_crt >= 30 and elapsed < 30.0,
        f"crt rel err {worst_crt:.3f} <= 0.10 over {n_crt} probes, shifted-log "
        f"{worst_log:.4f} <= 0.02 over {n_log}, in {elapsed:.1f}s",
    )


def test_criterion_03_micro_instance_hand_oracle():
    from test_engine import TestMicroInstanceOracle

    case = TestMicroInstanceOracle()
    ok, detail = True, "one sweep matches the scalar hand computation at 1e-10"
    try:
        case.test_one_sweep_matches()
    except AssertionError as err:
        ok, detail = False, str(err).splitlines()[0]
    _report(3, ok, detail)


def test_criterion_04_sim1_recovery_beats_random_baseline(sim1_runs):
    ssis = [
        _ssi_vs_truth(r["report"].final_state, sim1_runs.truth, sim1_runs.data)
        for r in sim1_runs.results
    ]
    bases = [
        _baseline_ssi(sim1_runs.truth, sim1_runs.data, 30, seed=r["seed"])
        for r in sim1_runs.results
    ]
    margin = float(np.mean(ssis)) - float(np.mean(bases))
    _report(
        4,
        margin >= 0.2 and sim1_runs.seconds_per_restart < 300.0,
        f"mean SSI {np.mean(ssis):.3f} vs baseline {np.mean(bases):.3f} "
        f"(margin {margin:.3f} >= 0.2), {sim1_runs.seconds_per_restart:.2f}s "
        f"per restart",
    )


def test_criterion_05_truncation_shrinks_to_few_factors(sim1_runs):
    kplus = [
        len(active_factors(r["report"].final_state))
        for r in sim1_runs.results
    ]
    hits = sum(k <= 12 for k in kplus)
    _report(
        5,
        hits >= 15,
        f"K+ <= 12 in {hits}/{N_RESTARTS} restarts (values {sorted(set(kplus))}, "
        f"true 6, K=30)",
    )


def test_criterion_06_sim2_dense_factor_recovery(sim2_runs):
    corr_hits = dsi_hits = 0
    corr_means = []
    for res in sim2_runs.results:
        state = res["report"].final_state
        rng = np.random.default_rng(res["seed"])
        corrs, dsis, base_dsis = [], [], []
        for m in range(sim2_runs.data.n_groups):
            g_hat = engine.expected_loadings(state, m)
            _, dense_hat = metrics.split_sparse_dense(g_hat, 0.15, 4)
            true_dense = _truth_rows(sim2_runs.truth, m, (simdata.DENSE,))
            corrs.append(metrics.dense_max_corr(true_dense, dense_hat))
            dsis.append(metrics.dsi(true_dense, dense_hat))
            base = rng.normal(
                0.0, 2.0, size=(30, sim2_runs.data.groups[m].shape[1])
            )
            _, base_dense = metrics.split_sparse_dense(base, 0.15, 4)
            base_dsis.append(metrics.dsi(true_dense, base_dense))
        corr_means.append(float(np.mean(corrs)))
        if np.mean(corrs) >= 0.7:
            corr_hits += 1
        if np.mean(dsis) < np.mean(base_dsis):
            dsi_hits += 1
    _report(
        6,
        corr_hits >= 14 and dsi_hits >= 16,
        f"dense max-corr >= 0.7 in {corr_hits}/{N_RESTARTS} (mean "
        f"{np.mean(corr_means):.3f}), DSI < baseline in {dsi_hits}/{N_RESTARTS}",
    )


def test_criterion_07_noise_precision_recovered(sim1_runs, sim2_runs):
    fractions = []
    for runs in (sim1_runs, sim2_runs):
        for res in runs.results:
            state = res["report"].final_state
            tau = np.concatenate(
                [
                    HYPER.tau_shape(d_m) / state.tau_rate[m]
                    for m, d_m in enumerate(state.dims)
                ]
            )
            fractions.append(float(np.mean((tau >= 0.5) & (tau <= 2.0))))
    _report(
        7,
        min(fractions) >= 0.9,
        f"E[tau] in [0.5, 2.0] for >= {min(fractions):.1%} of (m, n) entries "
        f"on every fit (unit-noise generators)",
    )


def test_criterion_08_train_mse_non_increasing(sim1_runs, sim2_runs):
    violations = 0
    transitions = 0
    for runs in (sim1_runs, sim2_runs):
        for res in runs.results:
            trace = res["report"].trace
            for i in range(2, len(trace) - 1):  # transitions from sweep 3 on
                transitions += 1
                if trace[i + 1][1] > trace[i][1] * (1.0 + 1e-6):
                    violations += 1
    _report(
        8,
        violations == 0,
        f"{violations} increases over {transitions} post-sweep-3 transitions "
        f"across {2 * N_RESTARTS} fits at rel tol 1e-6",
    )


def test_criterion_09_metric_invariances():
    rng = np.random.default_rng(3)
    g = rng.normal(size=(5, 40))
    h = rng.normal(size=(6, 40))
    base = metrics.ssi(metrics.abs_correlation(g, h))
    perm = rng.permutation(6)
    scales = rng.uniform(0.5, 3.0, size=6) * rng.choice([-1.0, 1.0], size=6)
    ssi_gap = abs(
        metrics.ssi(metrics.abs_correlation(g, h[perm] * scales[:, None])) - base
    )
    gperm = rng.permutation(5)
    gscales = rng.uniform(0.5, 3.0, size=5) * rng.choice([-1.0, 1.0], size=5)
    ssi_gap = max(
        ssi_gap,
        abs(metrics.ssi(metrics.abs_correlation(g[gperm] * gscales[:, None], h)) - base),
    )

    q, _ = np.linalg.qr(rng.normal(size=(40, 40)))
    flips = rng.choice([-1.0, 1.0], size=5)
    dsi_worst = max(
        metrics.dsi(g, g),
        metrics.dsi(g, g[rng.permutation(5)]),
        metrics.dsi(g, g * flips[:, None]),
        metrics.dsi(g, g @ q),
    )

    scores = np.array([4.0, 3.0, 2.0, 1.0])
    auc_perfect = metrics.auc(scores, np.array([True, True, False, False]))
    auc_inverted = metrics.auc(scores, np.array([False, False, True, True]))
    auc_ties = metrics.auc(np.ones(4), np.array([True, True, False, False]))
    _report(
        9,
        ssi_gap <= 1e-12
        and dsi_worst <= 1e-10
        and (auc_perfect, auc_inverted, auc_ties) == (1.0, 0.0, 0.5),
        f"SSI drift {ssi_gap:.1e} <= 1e-12, DSI worst {dsi_worst:.1e} <= 1e-10, "
        f"AUC ({auc_perfect}, {auc_inverted}, {auc_ties})",
    )


def test_criterion_10_planted_columns_ranked_first():
    n, d, n_planted, n_factors = 60, 500, 20, 3
    aucs = []
    for seed in range(10):
        rng = np.random.default_rng(seed)
        cols = rng.choice(d, size=n_planted, replace=False)
        f = rng.normal(0.0, 1.0, size=(n, n_factors))
        groups = []
        for _ in range(2):
            g = np.zeros((n_factors, d))
            g[:, cols] = rng.normal(0.0, 2.0, size=(n_factors, n_planted))
            groups.append(f @ g + rng.normal(0.0, 1.0, size=(n, d)))
        data = GroupedDataset(groups, ["left", "right"])
        report = engine.fit(data, Hyperparameters(K=8), FitOptions(seed=seed))
        scores = metrics.ranking_score(report.final_state, 0, 1)
        labels = np.zeros(d, dtype=bool)
        labels[cols] = True
        aucs.append(metrics.auc(scores, labels))
    mean_auc = float(np.mean(aucs))
    _report(
        10,
        mean_auc >= 0.9,
        f"mean AUC {mean_auc:.4f} >= 0.9 over 10 seeds (min {min(aucs):.4f})",
    )


def test_criterion_11_determinism_and_persistence(tmp_path):
    ds = tmp_path / "ds"
    assert cli.main(["simulate", "sim1", "--n", "30", "--seed", "7", "--out", str(ds)]) == 0
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        code = cli.main(
            [
                "fit", str(ds), "--k", "8", "--restarts", "1", "--seed", "3",
                "--max-sweeps", "12", "--out", str(out),
            ]
        )
        assert code == 0
    trace_a = (outs[0] / "restart_3" / "trace.csv").read_bytes()
    trace_b = (outs[1] / "restart_3" / "trace.csv").read_bytes()

    ckpt = outs[0] / "restart_3" / "checkpoint.json"
    state, hyper, _ = io.read_checkpoint(ckpt)
    rewritten = tmp_path / "rewritten.json"
    io.write_checkpoint(rewritten, state, hyper)
    back, _, _ = io.read_checkpoint(rewritten)
    arrays_exact = (
        np.array_equal(back.f_mean, state.f_mean)
        and np.array_equal(back.f_var, state.f_var)
        and all(
            np.array_equal(getattr(back, name)[m], getattr(state, name)[m])
            for name in ("rho", "w_mean", "w_var", "tau_rate")
            for m in range(state.n_groups)
        )
        and np.array_equal(back.beta_a, state.beta_a)
        and np.array_equal(back.beta_b, state.beta_b)
        and np.array_equal(back.alpha_shape, state.alpha_shape)
        and np.array_equal(back.alpha_rate, state.alpha_rate)
        and np.array_equal(back.aux_s_mean, state.aux_s_mean)
        and np.array_equal(back.aux_t_mean, state.aux_t_mean)
    )
    _report(
        11,
        trace_a == trace_b and arrays_exact,
        "identical seed reruns give byte-identical trace.csv; checkpoint "
        "round-trip reproduces every array bitwise",
    )
