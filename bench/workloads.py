"""The two workloads: their inputs, the closed loop and the metrics.

Each workload fits a fixed panel of sim1 draws. The workload seed permutes
each draw's samples and picks the restart seeds, so every seed gives other
dataset files and another trajectory on the same problem instance. Fresh
draws per seed would not do: at N=100, 4x100 a restart ran anywhere from 15
to 130 sweeps across 40 sim1 draws, mostly in the warm-up inside
`init_state`, so the run-to-run spread would measure the draws, not the
program. README.md gives the reason for each workload.

A step of the loop is `fit` and then rounds of eval, rank and reconstruct
on the dataset's checkpoint, for one dataset; steps cycle through the
panel.
"""

import contextlib
import ctypes
import ctypes.util
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass

import numpy as np

import checks
import pace as pace_mod
import tracer as tracer_mod

K = 30


@dataclass(frozen=True)
class Workload:
    n: int  # samples
    d: int  # columns per group
    panel: tuple  # sim1 seeds of the datasets fitted
    restarts: int  # per `cvgfa fit` command
    heldout_rows: int  # extra samples per draw, held out for `cvgfa reconstruct`
    # Steps per dataset in a run, however short --seconds is: a time metric
    # is the median of a dataset's repeats.
    min_steps: int
    query_rounds: int  # eval/rank/reconstruct rounds per step
    setup_repeats: int  # panel simulations in an untraced run, one after each early step


WORKLOADS = {
    "fit-accept": Workload(
        100, 100, (1, 2, 3), 2, 400, min_steps=3, query_rounds=2, setup_repeats=5
    ),
    "fit-wide": Workload(
        200, 2000, (1,), 1, 100, min_steps=4, query_rounds=1, setup_repeats=3
    ),
}
# A pace probe runs before and after each command unless one ended less
# than PROBE_GAP_S ago; a command is paced by the probes that ended within
# PACE_REACH_S of it, or within half its wall time if that is longer.
PROBE_GAP_S = 0.5
PACE_REACH_S = 1.0
# One process, one restart at a time: on a 2-core machine shared with other
# jobs, parallel restarts would measure the scheduler.
WORKERS = 1
OBSERVED_GROUPS = (0, 1)
TARGET_GROUP = 2
TIMES = ("fit_s_per_restart", "eval_s", "rank_s", "reconstruct_s")
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "GOTO_NUM_THREADS",
)
TRACED_MODULES = ("approx", "model", "engine", "io", "metrics", "simdata", "cli")
try:  # glibc only: returns freed heap pages to the system
    LIBC = ctypes.CDLL(ctypes.util.find_library("c"))
    LIBC.malloc_trim
except (OSError, TypeError, AttributeError):
    LIBC = None


class SetupFailed(Exception):
    """A command the workload cannot go on without failed."""


@dataclass
class Dataset:
    """A dataset directory plus held-out rows for `cvgfa reconstruct`."""

    path: str
    observed: str
    truth: str
    n_columns: int
    heldout_rows: int


@dataclass(frozen=True)
class Timing:
    """When a command ran, and the number of attempts its time is shared by."""

    start: float
    end: float
    per: int = 1


class FitRun:
    """A checked `cvgfa fit` output directory."""

    def __init__(self, out, timing):
        self.out = out
        self.timing = timing  # its per is the restarts
        self.best = checks.read_json(os.path.join(out, "best.json"))
        self.checkpoint = os.path.join(out, self.best["checkpoint"])
        self.sha256 = checks.sha256_file(self.checkpoint)

    def rows(self):
        return checks.read_json(os.path.join(self.out, "aggregate.json"))["restarts"]


class Bench:
    """One benchmark run: its work directory, seed and failure count."""

    def __init__(self, cli, work, seed, pace=None):
        self.cli = cli
        self.work = work
        self.seed = seed
        self.pace = pace or pace_mod.Pace()
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.wall = {}  # command -> its wall times, unscaled
        self.probes = []  # (when it ended, seconds)

    def path(self, *parts):
        return os.path.join(self.work, *parts)

    def fail(self, problems, weight):
        self.failed += weight
        for problem in problems:
            self.problems.append(problem)
            print(f"CHECK FAILED: {problem}", file=sys.stderr)

    def probe_unless_recent(self):
        if not self.probes or time.perf_counter() - self.probes[-1][0] > PROBE_GAP_S:
            seconds = self.pace.probe()
            self.probes.append((time.perf_counter(), seconds))

    def paced(self, timing):
        """A command's time at the reference pace of pace.py, in seconds.

        That is its wall time times REFERENCE_S over the median of the pace
        probes that ended from half its wall time (at least PACE_REACH_S)
        before it started to as long after it ended. For a long command
        these are the probes right before and after it and the ones around
        the commands next to it.
        """
        elapsed = timing.end - timing.start
        reach = max(elapsed / 2.0, PACE_REACH_S)
        near = [
            seconds
            for ended, seconds in self.probes
            if timing.start - reach <= ended <= timing.end + reach
        ]
        return elapsed * pace_mod.REFERENCE_S / statistics.median(near) / timing.per

    def run(self, argv, weight=1):
        """Runs one cvgfa command; returns its Timing, or None if it failed.

        A pace probe runs right before and right after the command, unless
        one ended less than PROBE_GAP_S ago. weight is the number of
        attempts the command stands for: its restarts for `fit`, 1
        otherwise.
        """
        self.attempted += weight
        err = io.StringIO()
        self.probe_unless_recent()
        release_memory()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = self.cli.main(argv)
        except Exception:  # a crash is a failed command; keep measuring
            code = traceback.format_exc()
        end = time.perf_counter()
        self.probe_unless_recent()
        if code != 0:
            self.fail([f"cvgfa {' '.join(argv)}: exit {code} {err.getvalue()}"], weight)
            return None
        self.wall.setdefault(argv[0], []).append(end - start)
        return Timing(start, end, weight)

    def fit(self, dataset, restarts, out):
        """`cvgfa fit` with its output checked; returns a FitRun or None."""
        timing = self.run(
            [
                "fit", dataset.path, "--k", str(K), "--restarts", str(restarts),
                "--seed", str(self.seed * restarts), "--threads", str(WORKERS),
                "--out", out,
            ],
            weight=restarts,
        )
        if timing is None:
            return None
        problems, aborted = checks.check_fit(out, restarts)
        if problems:
            self.fail(problems, restarts)
            return None
        if aborted:
            self.fail([f"{out}: {aborted} restart(s) aborted"], aborted)
            return None
        return FitRun(out, timing)

    def queries(self, fit_run, dataset, out):
        """eval, rank and reconstruct on a fit's best checkpoint, checked.

        Returns (times, quality): the Timing of each command, and the ssi and
        reconstruction MSE; a command that failed is missing from both.
        """
        os.makedirs(out, exist_ok=True)
        times, quality = {}, {}
        groups = ",".join(str(g) for g in OBSERVED_GROUPS)
        eval_path = os.path.join(out, "eval.json")
        rank_dir = os.path.join(out, "rank")
        recon_dir = os.path.join(out, "recon")
        commands = [
            (
                "eval_s",
                ["eval", fit_run.checkpoint, dataset.path, "--mode", "sim1", "--out", eval_path],
                lambda: checks.check_eval(eval_path, fit_run.best),
            ),
            (
                "rank_s",
                ["rank", fit_run.checkpoint, "--groups", groups, "--out", rank_dir],
                lambda: checks.check_rank(rank_dir, dataset.n_columns),
            ),
            (
                "reconstruct_s",
                [
                    "reconstruct", fit_run.checkpoint, "--observed", dataset.observed,
                    "--observed-groups", groups, "--target", str(TARGET_GROUP),
                    "--truth", dataset.truth, "--out", recon_dir,
                ],
                lambda: checks.check_reconstruct(recon_dir, dataset.truth),
            ),
        ]
        for name, argv, check in commands:
            t = self.run(argv)
            if t is None:
                continue
            problems = check()
            if problems:
                self.fail(problems, 1)
            else:
                times[name] = t
        if "eval_s" in times:
            quality["ssi"] = checks.read_json(eval_path)["stability"]["ssi"]
        if "reconstruct_s" in times:
            recon = checks.read_json(os.path.join(recon_dir, "reconstruct.json"))
            quality["reconstruct_mse"] = recon["mse"]
        return times, quality


def release_memory():
    """Frees what earlier commands and the benchmark left, before a command.

    Each cvgfa command would normally run in a process of its own. Without
    this, glibc keeps freed heap pages and peak_rss_mb read about 168 or
    about 201 MB on fit-wide from run to run, depending on where the next
    command's allocations landed.
    """
    gc.collect()
    if LIBC is not None:
        LIBC.malloc_trim(0)


def permute_samples(src, dst, n_train, rng):
    """Splits a simulated dataset into training samples and held-out rows.

    dst gets the first n_train samples (CSV rows) of src in a new order.
    The rows after them are held out for `cvgfa reconstruct`, in their own
    order, so they depend on the draw only: the observed groups side by
    side go to heldout_observed.csv, the target group to heldout_truth.csv.
    """
    manifest = checks.read_json(os.path.join(src, "manifest.json"))
    groups = [g["data_file"] for g in manifest["groups"]]
    per_sample = groups + [manifest["generator"]["factors_file"]]
    shutil.rmtree(dst, ignore_errors=True)
    shutil.copytree(src, dst, ignore=shutil.ignore_patterns("manifest.json", *per_sample))
    order = rng.permutation(n_train)
    rows = {}
    for name in per_sample:
        with open(os.path.join(src, name), "r", encoding="utf-8") as fh:
            rows[name] = fh.read().splitlines()
        with open(os.path.join(dst, name), "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(rows[name][i] + "\n" for i in order)
    observed = os.path.join(dst, "heldout_observed.csv")
    truth = os.path.join(dst, "heldout_truth.csv")
    heldout = [rows[groups[m]][n_train:] for m in OBSERVED_GROUPS]
    with open(observed, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(",".join(parts) + "\n" for parts in zip(*heldout))
    with open(truth, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(row + "\n" for row in rows[groups[TARGET_GROUP]][n_train:])
    with open(os.path.join(dst, "manifest.json"), "w", encoding="utf-8", newline="\n") as fh:
        json.dump(dict(manifest, n_samples=n_train), fh, indent=2, sort_keys=True)
        fh.write("\n")
    n_heldout = manifest["n_samples"] - n_train
    return Dataset(dst, observed, truth, manifest["groups"][0]["n_columns"], n_heldout)


def simulate_panel(bench, spec):
    """`cvgfa simulate` for every draw of the panel, with its held-out rows.

    Returns the Timing of each simulate command; the deletion of the
    previous draw is not timed.
    """
    timings = []
    for panel_seed in spec.panel:
        raw = bench.path(f"sim{panel_seed}")
        shutil.rmtree(raw, ignore_errors=True)
        argv = ["simulate", "sim1", "--n", str(spec.n + spec.heldout_rows)]
        argv += ["--d", str(spec.d), "--seed", str(panel_seed), "--out", raw]
        timing = bench.run(argv)
        if timing is None:
            raise SetupFailed(raw)
        timings.append(timing)
    return timings


def setup(bench, spec):
    """Simulates the panel, then splits and permutes each draw by seed.

    Returns (datasets, Timings of the simulate commands).
    """
    timings = simulate_panel(bench, spec)
    datasets = [
        permute_samples(
            bench.path(f"sim{panel_seed}"),
            bench.path(f"data{panel_seed}"),
            spec.n,
            np.random.default_rng([bench.seed, panel_seed]),
        )
        for panel_seed in spec.panel
    ]
    return datasets, timings


def step(bench, spec, datasets, fits, k, tag):
    """One loop step on dataset k: fit, then rounds of eval, rank, reconstruct.

    The queries run on the dataset's first checkpoint; a repeated fit must
    leave a byte-identical one. Returns (times, quality, the step's FitRun
    or None), times mapping each metric to its Timings.
    """
    times = {name: [] for name in TIMES}
    run = bench.fit(datasets[k], spec.restarts, bench.path(f"fit{k}-{tag}"))
    if run is None:
        return times, {}, None
    times["fit_s_per_restart"].append(run.timing)
    if fits[k] is None:
        fits[k] = run
    elif run.sha256 != fits[k].sha256:
        bench.fail([f"{run.out}: best checkpoint differs from an identical earlier fit"], 1)
    for _ in range(spec.query_rounds):
        round_times, quality = bench.queries(fits[k], datasets[k], bench.path(f"query{k}"))
        for name, t in round_times.items():
            times[name].append(t)
    return times, quality, run


def end_to_end(bench, spec, seconds):
    """Untraced run: set-up, then steps for `seconds`.

    A step starts only if it would end by the deadline, taking as long as
    the step before it; but every dataset gets at least spec.min_steps
    steps, however short `seconds` is. Each time metric is the median
    of a dataset's paced times (see Bench.paced), averaged over the panel.
    setup_s is the median of spec.setup_repeats panel simulations: one
    before the loop and one after each early step, so that they fall at
    different times of the run. Returns (metrics, sha256).
    """
    datasets, timings = setup(bench, spec)
    setups = [timings]

    samples = {name: [[] for _ in datasets] for name in TIMES}
    fits = [None] * len(datasets)
    quality = [{} for _ in datasets]
    deadline = time.perf_counter() + seconds
    i = 0
    last_step = 0.0
    while i < spec.min_steps * len(datasets) or time.perf_counter() + last_step < deadline:
        k = i % len(datasets)
        start = time.perf_counter()
        times, quality[k], run = step(bench, spec, datasets, fits, k, i)
        last_step = time.perf_counter() - start
        for name, ts in times.items():
            samples[name][k].extend(ts)
        if run is not None and run is not fits[k]:
            shutil.rmtree(run.out)
        if len(setups) < spec.setup_repeats:
            setups.append(simulate_panel(bench, spec))
        i += 1

    ok_fits = [run for run in fits if run is not None]
    setup_s = [sum(bench.paced(t) for t in timings) for timings in setups]
    metrics = {"setup_s": (statistics.median(setup_s), "s")}
    for name in TIMES:
        per_dataset = [statistics.median(map(bench.paced, s)) for s in samples[name] if s]
        ok = len(per_dataset) == len(datasets)
        metrics[name] = (statistics.fmean(per_dataset) if ok else None, "s")
    metrics["train_mse"] = (_mean([r.best["train_mse"] for r in ok_fits], len(datasets)), "mse")
    metrics["ssi"] = (_mean([q["ssi"] for q in quality if "ssi" in q], len(datasets)), "index")
    metrics["reconstruct_mse"] = (
        _mean([q["reconstruct_mse"] for q in quality if "reconstruct_mse" in q], len(datasets)),
        "mse",
    )
    metrics["ok_frac"] = (1.0 - bench.failed / bench.attempted, "frac")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return metrics, combined_sha256(ok_fits)


def _mean(values, n_wanted):
    """Mean of values, or None unless every dataset gave one."""
    return statistics.fmean(values) if len(values) == n_wanted else None


def combined_sha256(fit_runs):
    """The best checkpoint's sha256, or for a panel the sha256 of the digests."""
    if len(fit_runs) == 1:
        return fit_runs[0].sha256
    return hashlib.sha256("".join(r.sha256 for r in fit_runs).encode("ascii")).hexdigest()


def file_size(path):
    return os.path.getsize(path) if os.path.isfile(path) else 0


def dataset_bytes(path):
    manifest = checks.read_json(os.path.join(path, "manifest.json"))
    return file_size(os.path.join(path, "manifest.json")) + sum(
        file_size(os.path.join(path, g["data_file"])) for g in manifest["groups"]
    )


BYTE_COUNTERS = {
    "io.read_dataset": lambda args, kwargs: dataset_bytes(args[0]),
    "io.read_checkpoint": lambda args, kwargs: file_size(args[0]),
    "io.write_checkpoint": lambda args, kwargs: file_size(args[0]),
}


def per_layer(bench, spec):
    """Traced run: a fixed amount of work, so that counts repeat exactly.

    Set-up is traced, so that simdata and the CSV writer have spans. Then
    each dataset gets one untraced step and right after it the same step
    traced; the ratio of their fit times is the tracing overhead. Returns
    (metrics, sha256).
    """
    tracer = tracer_mod.Tracer(
        [sys.modules[f"cvgfa.{name}"] for name in TRACED_MODULES], BYTE_COUNTERS
    )
    with tracer.active():
        datasets, _ = setup(bench, spec)
    fits = [None] * len(datasets)
    traced_fits = []
    untraced_s = traced_s = 0.0
    stray = []
    for k in range(len(datasets)):
        times, _, _ = step(bench, spec, datasets, fits, k, "u")
        untraced_s += sum(map(bench.paced, times["fit_s_per_restart"]))
        with tracer.active():
            stray += tracer.stray_bindings()
            times, _, run = step(bench, spec, datasets, fits, k, "t")
        if run is None:
            raise SetupFailed("traced fit")
        traced_s += sum(map(bench.paced, times["fit_s_per_restart"]))
        traced_fits.append(run)

    problems = coverage_problems(tracer, stray, traced_fits, datasets, spec.query_rounds)
    bench.fail(problems, 0)
    overhead = traced_s / untraced_s - 1.0 if untraced_s else None
    return layer_metrics(tracer, traced_fits, overhead), combined_sha256(traced_fits)


def coverage_problems(tracer, stray, fit_runs, datasets, query_rounds):
    """Cross-checks the spans against the outputs the traced commands wrote."""
    problems = [f"tracer left {name} unwrapped" for name in stray]
    sweeps_run = sum(
        checks.read_json(os.path.join(run.out, row["checkpoint"]))["fit"]["sweeps_run"]
        for run in fit_runs
        for row in run.rows()
    )
    main_calls = tracer.total("engine.sweep", "engine.fit", "calls")
    if main_calls != sweeps_run:
        problems.append(
            f"coverage: engine.sweep under engine.fit ran {main_calls} times, "
            f"the checkpoints record {sweeps_run} sweeps"
        )
    rows = query_rounds * sum(ds.heldout_rows for ds in datasets)
    predict_calls = tracer.total("engine.predict_factors", field="calls")
    if predict_calls != rows:
        problems.append(
            f"coverage: engine.predict_factors ran {predict_calls} times for "
            f"{rows} reconstructed rows"
        )
    read_calls = tracer.total("io.read_checkpoint", field="calls")
    rounds = query_rounds * len(datasets)
    if read_calls != 3 * rounds:
        problems.append(
            f"coverage: io.read_checkpoint ran {read_calls} times in "
            f"{rounds} eval/rank/reconstruct round(s)"
        )
    return problems


def layer_metrics(tracer, fit_runs, overhead_frac):
    total = tracer.total
    rows = [row for run in fit_runs for row in run.rows()]
    warmup_calls = total("engine.sweep", "model.init_state", "calls")
    main_calls = total("engine.sweep", "engine.fit", "calls")
    metrics = {
        "model.init_state.self_s": (total("model.init_state", field="self_s"), "s"),
        "engine.sweep.warmup_calls": (warmup_calls, "count"),
        "engine.sweep.warmup_s": (total("engine.sweep", "model.init_state"), "s"),
        "engine.sweep.main_calls": (main_calls, "count"),
        "engine.sweep.main_s": (total("engine.sweep", "engine.fit"), "s"),
        "engine.sweep.self_ms_per_call": (
            1000.0 * total("engine.sweep", field="self_s") / (warmup_calls + main_calls),
            "ms",
        ),
        "engine.build_caches.calls": (total("engine.build_caches", field="calls"), "count"),
        "engine.build_caches.s": (total("engine.build_caches"), "s"),
        "engine.surrogate_elbo.calls": (total("engine.surrogate_elbo", field="calls"), "count"),
        "engine.surrogate_elbo.self_s": (total("engine.surrogate_elbo", field="self_s"), "s"),
        "engine.fit.self_s": (total("engine.fit", field="self_s"), "s"),
    }
    for name in (
        "digamma",
        "trigamma",
        "bernoulli_sum_moments",
        "crt_mean_approx",
        "geo_expect_gamma",
        "geo_expect_beta",
    ):
        metrics[f"approx.{name}.calls"] = (total(f"approx.{name}", field="calls"), "count")
        metrics[f"approx.{name}.s"] = (total(f"approx.{name}"), "s")
    for name in ("read_dataset", "write_checkpoint", "read_checkpoint"):
        metrics[f"io.{name}.s"] = (total(f"io.{name}"), "s")
        metrics[f"io.{name}.bytes"] = (total(f"io.{name}", field="bytes"), "bytes")
    metrics["io.read_checkpoint.calls"] = (total("io.read_checkpoint", field="calls"), "count")
    metrics["io.read_matrix_csv.s"] = (total("io.read_matrix_csv"), "s")
    metrics["engine.predict_factors.calls"] = (
        total("engine.predict_factors", field="calls"),
        "count",
    )
    metrics["engine.predict_factors.s"] = (total("engine.predict_factors"), "s")
    metrics["engine.reconstruct_group.s"] = (total("engine.reconstruct_group"), "s")
    for name in ("abs_correlation", "ssi", "ranking_score", "train_mse"):
        metrics[f"metrics.{name}.s"] = (total(f"metrics.{name}"), "s")
    metrics["simdata.generate.s"] = (total("simdata.generate"), "s")
    metrics["io.write_matrix_csv.s"] = (total("io.write_matrix_csv"), "s")
    for name in ("fit", "eval", "rank", "reconstruct"):
        metrics[f"cli.cmd_{name}.self_s"] = (total(f"cli.cmd_{name}", field="self_s"), "s")
    metrics["solver.sweeps_per_restart"] = ((warmup_calls + main_calls) / len(rows), "count")
    metrics["solver.main_sweeps_per_restart"] = (main_calls / len(rows), "count")
    metrics["solver.k_active"] = (statistics.fmean(r["k_active"] for r in rows), "count")
    metrics["solver.converged_frac"] = (statistics.fmean(r["converged"] for r in rows), "frac")
    metrics["trace.overhead_frac"] = (overhead_frac, "frac")
    return metrics


def host_facts():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy before 1.25 has no mode="dicts"
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {v: os.environ[v] for v in THREAD_VARS if v in os.environ},
        "workers": WORKERS,
    }


def run(args, cli, work_root):
    """Runs one workload and prints its report; returns the exit code."""
    work = os.path.join(work_root, f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    bench = Bench(cli, work, args.seed)
    spec = WORKLOADS[args.workload]
    try:
        print("host " + json.dumps(host_facts(), sort_keys=True))
        if args.trace:
            metrics, sha = per_layer(bench, spec)
        else:
            metrics, sha = end_to_end(bench, spec, args.seconds)
    except SetupFailed as err:
        print(f"stopped: {err} failed", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(work_root)

    print(f"best_checkpoint_sha256 {args.workload} seed={args.seed} {sha}")
    for command, walls in sorted(bench.wall.items()):
        print(f"wall_median cvgfa {command} {statistics.median(walls)} s over {len(walls)}")
    if bench.probes:
        probes = [seconds for _, seconds in bench.probes]
        print(f"pace_probe_median {statistics.median(probes)} s over {len(probes)}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    missing = sorted(name for name, (value, _) in metrics.items() if value is None)
    if missing:
        bench.problems.append(f"no value for {', '.join(missing)}")
    correct = not bench.problems
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
            if value is not None
        },
    }))
    return 0 if correct else 1
