"""Tests of the benchmark itself: input determinism, checks and tracer.

    python3 -m pytest bench/test_bench.py -q
"""

import json
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
sys.path.insert(0, BENCH)

from cvgfa import cli, engine, model  # noqa: E402

import checks  # noqa: E402
import pace  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _bench(tmp_path, name, seed):
    work = tmp_path / name
    work.mkdir()
    return workloads.Bench(cli, str(work), seed)


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def _group_files(dataset):
    manifest = checks.read_json(os.path.join(dataset.path, "manifest.json"))
    return [_read(os.path.join(dataset.path, g["data_file"])) for g in manifest["groups"]]


ACCEPT = workloads.WORKLOADS["fit-accept"]


def test_same_seed_gives_same_checkpoint_sha256(tmp_path):
    shas = []
    for name in ("a", "b"):
        bench = _bench(tmp_path, name, seed=7)
        dataset = workloads.setup(bench, ACCEPT)[0][0]
        run = bench.fit(dataset, 2, bench.path("fit"))
        assert run is not None and not bench.problems
        shas.append(run.sha256)
    assert shas[0] == shas[1]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_different_seed_gives_different_dataset(tmp_path, workload):
    spec = workloads.WORKLOADS[workload]
    first, _ = workloads.setup(_bench(tmp_path, "a", seed=7), spec)
    again, _ = workloads.setup(_bench(tmp_path, "b", seed=7), spec)
    other, _ = workloads.setup(_bench(tmp_path, "c", seed=8), spec)
    for a, b, c in zip(first, again, other):
        assert _group_files(a) == _group_files(b)
        for x, y in zip(_group_files(a), _group_files(c)):
            assert x != y
        # the held-out rows belong to the draw, not to the seed
        assert _read(a.observed) == _read(c.observed)
        # each simulated row of the target group is a training row or,
        # after the first N, a held-out row
        manifest = checks.read_json(os.path.join(a.path, "manifest.json"))
        target = manifest["groups"][workloads.TARGET_GROUP]["data_file"]
        raw = os.path.join(os.path.dirname(a.path), "sim" + os.path.basename(a.path)[4:])
        simulated = _read(os.path.join(raw, target)).splitlines()
        train = _read(os.path.join(a.path, target)).splitlines()
        heldout = _read(a.truth).splitlines()
        assert len(train) == manifest["n_samples"] == spec.n
        assert heldout == simulated[spec.n:] and len(heldout) == spec.heldout_rows
        assert sorted(train) == sorted(simulated[: spec.n])


def test_checks_catch_broken_outputs(tmp_path):
    bench = _bench(tmp_path, "a", seed=3)
    dataset = workloads.setup(bench, ACCEPT)[0][0]
    run = bench.fit(dataset, 2, bench.path("fit"))
    times, _ = bench.queries(run, dataset, bench.path("q"))
    assert set(times) == {"eval_s", "rank_s", "reconstruct_s"} and not bench.problems

    best_path = os.path.join(run.out, "best.json")
    best = checks.read_json(best_path)
    other = [s for s in (6, 7) if s != best["seed"]][0]
    with open(best_path, "w") as fh:
        json.dump(dict(best, seed=other), fh)
    assert checks.check_fit(run.out, 2)[0]

    trace_path = os.path.join(run.out, f"restart_{other}", "trace.csv")
    with open(trace_path) as fh:
        lines = fh.readlines()
    with open(trace_path, "w") as fh:
        fh.writelines(lines[:-1])
    assert any("rows" in p for p in checks.check_fit(run.out, 2)[0])

    assert checks.check_eval(bench.path("q", "eval.json"), dict(best, k_active=99))

    scores_path = bench.path("q", "rank", "scores.csv")
    with open(scores_path) as fh:
        header, *rows = fh.readlines()
    with open(scores_path, "w") as fh:
        fh.writelines([header] + rows[::-1])
    assert checks.check_rank(bench.path("q", "rank"), dataset.n_columns)

    recon_path = bench.path("q", "recon", "reconstruct.json")
    recon = checks.read_json(recon_path)
    with open(recon_path, "w") as fh:
        json.dump(dict(recon, mse=recon["mse"] * (1 + 1e-15)), fh)
    assert checks.check_reconstruct(bench.path("q", "recon"), dataset.truth)


def test_tracer_replaces_every_binding_and_restores_them():
    modules = [sys.modules[f"cvgfa.{name}"] for name in workloads.TRACED_MODULES]
    original = engine.init_state
    t = tracer.Tracer(modules)
    with t.active():
        assert t.stray_bindings() == []
        assert engine.init_state is model.init_state is not original
        assert engine.digamma is sys.modules["cvgfa.approx"].digamma
        engine.geo_expect_gamma(2.0, 1.0)
    assert engine.init_state is original
    assert t.stray_bindings() != []
    # the digamma call inside geo_expect_gamma is a child span
    assert t.total("approx.digamma", "approx.geo_expect_gamma", "calls") == 1
    outer = t.stats[("approx.geo_expect_gamma", None)]
    assert outer.calls == 1 and 0.0 <= outer.self_s <= outer.total_s


class _Pace:
    """A pace probe that reads 2, 4, 6, ... times the reference time."""

    def __init__(self):
        self.calls = 0

    def probe(self):
        self.calls += 1
        return 2.0 * self.calls * pace.REFERENCE_S


class _Cli:
    def __init__(self, code):
        self.code = code

    def main(self, argv):
        return self.code


def test_paced_time_scales_wall_time_by_the_probes_around_it(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "PROBE_GAP_S", 0.0)  # probe around every command
    bench = workloads.Bench(_Cli(0), str(tmp_path), seed=1, pace=_Pace())
    first = bench.run(["simulate"])
    # probes 2x and 4x the reference around it: it ran at a third of the pace
    assert bench.paced(first) == pytest.approx(bench.wall["simulate"][0] / 3.0)
    second = bench.run(["fit"], weight=2)
    assert bench.pace.calls == 4
    # all four probes ended within PACE_REACH_S of it; the time is per restart
    assert bench.paced(second) == pytest.approx(bench.wall["fit"][0] / 5.0 / 2)
    # a probe that ended long before a command is not around it
    bench.probes[0] = (first.start - 10.0, 1000.0)
    assert bench.paced(first) == pytest.approx(bench.wall["simulate"][0] / 6.0)

    failing = workloads.Bench(_Cli(1), str(tmp_path), seed=1, pace=_Pace())
    assert failing.run(["fit"], weight=2) is None
    assert (failing.attempted, failing.failed, failing.wall) == (2, 2, {})


def test_no_probe_runs_within_the_gap_of_the_last_one(tmp_path):
    bench = workloads.Bench(_Cli(0), str(tmp_path), seed=1, pace=_Pace())
    timings = [bench.run(["rank"]) for _ in range(3)]
    assert bench.pace.calls == 1
    assert bench.paced(timings[2]) == pytest.approx(bench.wall["rank"][2] / 2.0)
