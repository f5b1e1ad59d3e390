"""Command-line surface: simulate, fit, eval, rank, reconstruct.

Orchestrates the multi-restart experiment protocol on top of the engine
and writes every result as CSV or versioned JSON. Exit codes: 0 success,
2 usage or configuration error, 3 data error, 4 numerical failure.
"""

import argparse
import functools
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import engine, io, metrics
from .errors import CvgfaError, DataError, NumericalError, UsageError
from .model import FitOptions, Hyperparameters, _active_rows, _is_whole
from .simdata import (
    ABSENT,
    DENSE,
    LOADING_STD,
    SPARSE,
    SPARSE_ZERO_FRACTION,
    generate,
    simulation1_pattern,
    simulation2_pattern,
)

# evaluation protocol: loading entries below the threshold are treated as
# zero; in sim2 mode, each group's densest surviving rows count as dense
# factors, as many as the truth pattern has dense factors in the group
EVAL_SPARSITY_THRESHOLD = 0.15

DEFAULT_N_RESTARTS = 20

FIT_OPTION_KEYS = ("max_sweeps", "rel_tolerance", "seed")

# the type of each config value, a number (int or float) where not listed;
# a JSON true or false loads as a bool, an int, which no key takes
_CONFIG_TYPES = {"K": int, "max_sweeps": int, "seed": int, "n_restarts": int}
_CONFIG_TYPES.update(dataset_path=str, output_dir=str)


def _check_config_value(path, name, value):
    want = _CONFIG_TYPES.get(name.rpartition(".")[2], (int, float))
    if isinstance(value, bool) or not isinstance(value, want):
        kind = {int: "an integer", str: "a string"}.get(want, "a number")
        raise UsageError(f"config {path}: {name} must be {kind}, got {value!r}")


@dataclass
class RunConfig:
    """Everything one experiment needs: priors, fit knobs, restart count."""

    hyper: Hyperparameters
    fit: FitOptions
    n_restarts: int
    dataset_path: str
    output_dir: str

    def validate(self):
        if not (_is_whole(self.n_restarts) and self.n_restarts >= 1):
            raise UsageError("n_restarts must be an integer of at least 1")
        self.hyper.validate()
        self.fit.validate()
        return self


def _parse_int_list(text, flag):
    try:
        return [int(part) for part in str(text).split(",") if part != ""]
    except ValueError:
        raise UsageError(f"{flag} expects comma-separated integers, got {text!r}")


def _resolve_pattern(spec):
    if spec == "sim1":
        return simulation1_pattern(), "sim1"
    if spec == "sim2":
        return simulation2_pattern(), "sim2"
    return io.read_pattern(spec), "custom"


def cmd_simulate(args) -> int:
    pattern, kind = _resolve_pattern(args.spec)
    if args.dims is None:
        dims = [int(args.n)] * pattern.n_groups
    else:
        dims = _parse_int_list(args.dims, "--d")
        if len(dims) == 1:
            dims = dims * pattern.n_groups
    data, truth = generate(pattern, args.n, dims, seed=args.seed)
    generator = {
        "kind": kind,
        "seed": int(args.seed),
        "factor_variance": 1.0,
        "loading_variance": LOADING_STD**2,
        "noise_variance": 1.0,
        "sparse_zero_fraction": SPARSE_ZERO_FRACTION,
    }
    io.write_dataset(args.out, data, truth=truth, generator=generator)
    print(
        f"wrote {len(data.groups)} groups ({data.n_samples} samples, "
        f"K={truth.factors.shape[1]}) to {os.path.abspath(args.out)}"
    )
    return 0


def _load_config_file(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as err:
        raise UsageError(f"cannot read config {path}: {err}")
    except json.JSONDecodeError as err:
        raise UsageError(f"config {path} is not valid JSON: {err}")
    if not isinstance(obj, dict):
        raise UsageError(f"config {path} must hold a JSON object")
    known = {"hyper", "fit", "n_restarts", "dataset_path", "output_dir"}
    unknown = set(obj) - known
    if unknown:
        raise UsageError(f"config {path} has unknown keys: {sorted(unknown)}")
    for key in ("n_restarts", "dataset_path", "output_dir"):
        if key in obj:
            _check_config_value(path, key, obj[key])
    for section, allowed in (("hyper", set(io.HYPER_FIELDS)), ("fit", set(FIT_OPTION_KEYS))):
        sub = obj.get(section)
        if sub is None:
            continue
        if not isinstance(sub, dict):
            raise UsageError(f"config section {section!r} must be an object")
        bad = set(sub) - allowed
        if bad:
            raise UsageError(f"config section {section!r} has unknown keys: {sorted(bad)}")
        for key, value in sub.items():
            _check_config_value(path, f"{section}.{key}", value)
    return obj


def _build_run_config(args):
    cfg = _load_config_file(args.config) if args.config else {}
    dataset_path = args.dataset or cfg.get("dataset_path")
    if not dataset_path:
        raise UsageError("a dataset directory is required (argument or config)")
    data, manifest = io.read_dataset(dataset_path)

    hyper_kw = dict(cfg.get("hyper") or {})
    if args.k is not None:
        hyper_kw["K"] = int(args.k)
    defaulted_k = "K" not in hyper_kw
    if defaulted_k:
        # one truncation serves every group: cap by the widest one
        hyper_kw["K"] = min(data.n_samples, max(x.shape[1] for x in data.groups))
    hyper = Hyperparameters(**hyper_kw)

    fit_kw = dict(cfg.get("fit") or {})
    if args.max_sweeps is not None:
        fit_kw["max_sweeps"] = int(args.max_sweeps)
    if args.tol is not None:
        fit_kw["rel_tolerance"] = float(args.tol)
    if args.seed is not None:
        fit_kw["seed"] = int(args.seed)
    opts = FitOptions(**fit_kw)

    n_restarts = args.restarts
    if n_restarts is None:
        n_restarts = cfg.get("n_restarts", DEFAULT_N_RESTARTS)
    out_dir = args.out or cfg.get("output_dir") or "."
    run = RunConfig(
        hyper=hyper,
        fit=opts,
        n_restarts=int(n_restarts),
        dataset_path=str(dataset_path),
        output_dir=str(out_dir),
    ).validate()
    return run, data, defaulted_k


def _usable_cpus():
    """The CPUs this process may run on: its affinity set where the platform
    has one (os.sched_getaffinity), else os.cpu_count(), which counts every
    CPU of the host, also those a container or taskset keeps it off."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def cmd_fit(args) -> int:
    run, data, defaulted_k = _build_run_config(args)
    workers = 1 if args.threads is None else int(args.threads)
    if workers < 1:
        raise UsageError("--threads must be at least 1")
    # more processes than restarts or usable cores would only wait on each
    # other
    workers = min(workers, run.n_restarts, _usable_cpus())

    results = engine.run_restarts(
        data, run.hyper, run.fit, run.n_restarts, workers=workers
    )

    os.makedirs(run.output_dir, exist_ok=True)
    rows = []
    for res in results:
        rdir_name = f"restart_{res['seed']}"
        rdir = os.path.join(run.output_dir, rdir_name)
        os.makedirs(rdir, exist_ok=True)
        if res["error"] is None:
            report = res["report"]
            # exact, while the data are in memory: every output but trace.csv
            # reads it
            summary = {
                "converged": bool(report.converged),
                "sweeps_run": int(report.sweeps_run),
                "train_mse": metrics.train_mse(data, report.final_state),
            }
            io.write_checkpoint(
                os.path.join(rdir, "checkpoint.json"),
                report.final_state,
                run.hyper,
                fit_info=dict(summary, metadata=report.metadata),
                group_names=data.group_names,
            )
            io.write_trace(os.path.join(rdir, "trace.csv"), report.trace)
            rows.append(
                dict(
                    summary,
                    seed=res["seed"],
                    status="ok",
                    restart_dir=rdir_name,
                    checkpoint=f"{rdir_name}/checkpoint.json",
                    objective=float(report.trace[-1][0]),
                    k_active=len(report.final_state.factors),
                )
            )
        else:
            status = {
                "seed": res["seed"],
                "status": "failed",
                "error": res["error"],
                "context": res["context"],
            }
            io.write_json(os.path.join(rdir, "status.json"), status)
            rows.append(dict(status, restart_dir=rdir_name))

    ok = [r for r in rows if r["status"] == "ok"]
    if not ok:
        raise NumericalError(
            "all restarts failed", context={"n_restarts": run.n_restarts}
        )

    best = min(ok, key=lambda r: (r["train_mse"], r["seed"]))
    # the best restart's row, but for its status and objective
    best_row = {k: v for k, v in best.items() if k not in ("status", "objective")}
    io.write_json(
        os.path.join(run.output_dir, "best.json"),
        dict(best_row, format="cvgfa-best", version=io.FORMAT_VERSION),
    )

    mses = [r["train_mse"] for r in ok]
    kacts = [r["k_active"] for r in ok]
    io.write_json(
        os.path.join(run.output_dir, "aggregate.json"),
        {
            "format": "cvgfa-aggregate",
            "version": io.FORMAT_VERSION,
            "dataset": run.dataset_path,
            "n_restarts": run.n_restarts,
            "seeds": [r["seed"] for r in rows],
            "workers": workers,
            "hyperparameters": dict(
                {f: getattr(run.hyper, f) for f in io.HYPER_FIELDS},
                K=int(run.hyper.K),
            ),
            "truncation_defaulted": bool(defaulted_k),
            "fit_options": {k: getattr(run.fit, k) for k in FIT_OPTION_KEYS},
            "restarts": rows,
            "summary": {
                "n_ok": len(ok),
                "n_failed": len(rows) - len(ok),
                "best_seed": best["seed"],
                "train_mse_mean": float(np.mean(mses)),
                "train_mse_std": float(np.std(mses)),
                "k_active_mean": float(np.mean(kacts)),
                "k_active_std": float(np.std(kacts)),
            },
        },
    )
    print(
        f"{len(ok)}/{len(rows)} restarts finished; best seed {best['seed']} "
        f"(train_mse {best['train_mse']:.6g}, K+ {best['k_active']})"
    )
    return 0


def _check_state_matches_manifest(state, manifest):
    dims = [entry["n_columns"] for entry in manifest["groups"]]
    if state.n_samples != manifest["n_samples"] or state.dims != dims:
        raise DataError("checkpoint shapes do not match the dataset")


def _recorded_train_mse(path, fit):
    """The exact training MSE fit recorded in the checkpoint's fit block:
    None when there is none, else a finite float >= 0."""
    if "train_mse" not in fit:
        return None
    value = fit["train_mse"]
    # a JSON number (bool is an int type); NaN fails both comparisons, and
    # an int compares exactly, so none that float() cannot hold passes
    if type(value) not in (int, float) or not 0 <= value <= sys.float_info.max:
        raise DataError(f"{path}: fit train_mse {value!r} is not a finite number >= 0")
    return float(value)


def _present_rows(loadings_m, pattern_row, kinds):
    idx = [j for j, kind in enumerate(pattern_row) if kind in kinds]
    return loadings_m[idx]


def cmd_eval(args) -> int:
    state, hyper, info = io.read_checkpoint(args.checkpoint)
    mse = _recorded_train_mse(args.checkpoint, info["fit"])
    manifest = io.read_manifest(args.dataset)
    loadings, pattern, factors = io.read_truth(args.dataset, manifest)
    _check_state_matches_manifest(state, manifest)
    names = io.manifest_group_names(manifest)
    if pattern.n_groups != len(names):
        raise DataError("truth pattern does not match the dataset groups")

    active = _active_rows(state.rho.stacked, state.dims)

    per_group = []
    if args.mode == "sim1":
        for m, name in enumerate(names):
            recovered = engine.expected_loadings(state, m)[active]
            truth_rows = _present_rows(loadings[m], pattern.entries[m], (SPARSE, DENSE))
            if recovered.shape[0] == 0 or truth_rows.shape[0] == 0:
                score = 0.0
            else:
                score = metrics.ssi(metrics.abs_correlation(truth_rows, recovered))
            per_group.append({"group": name, "ssi": score})
        stability = {
            "ssi": float(np.mean([g["ssi"] for g in per_group])),
            "dsi": 0.0,
            "per_group": per_group,
            "n_dense_selected": [0] * len(names),
        }
        extra = {}
    else:
        dense_corrs = []
        n_dense = [row.count(DENSE) for row in pattern.entries]
        for m, name in enumerate(names):
            # all K rows, zero for the factors the state does not hold (at
            # the prior): the protocol ranks and averages over them
            g_hat = np.zeros((state.n_factors, state.dims[m]))
            g_hat[state.factors] = engine.expected_loadings(state, m)
            sparse_hat, dense_hat = metrics.split_sparse_dense(
                g_hat, EVAL_SPARSITY_THRESHOLD, n_dense[m]
            )
            true_sparse = _present_rows(loadings[m], pattern.entries[m], (SPARSE,))
            true_dense = _present_rows(loadings[m], pattern.entries[m], (DENSE,))
            ssi_sparse = 0.0
            if true_sparse.shape[0] and sparse_hat.shape[0]:
                ssi_sparse = metrics.ssi(
                    metrics.abs_correlation(true_sparse, sparse_hat)
                )
            dsi_dense = 0.0
            max_corr = 0.0
            if true_dense.shape[0]:
                dsi_dense = metrics.dsi(true_dense, dense_hat)
                max_corr = metrics.dense_max_corr(true_dense, dense_hat)
            dense_corrs.append(max_corr)
            per_group.append(
                {
                    "group": name,
                    "ssi_sparse": ssi_sparse,
                    "dsi_dense": dsi_dense,
                    "dense_max_corr": max_corr,
                }
            )
        stability = {
            "ssi": float(np.mean([g["ssi_sparse"] for g in per_group])),
            "dsi": float(np.mean([g["dsi_dense"] for g in per_group])),
            "per_group": per_group,
            "n_dense_selected": n_dense,
        }
        extra = {"dense_max_corr_mean": float(np.mean(dense_corrs))}

    result = {
        "format": "cvgfa-eval",
        "version": io.FORMAT_VERSION,
        "mode": args.mode,
        "checkpoint": args.checkpoint,
        "stability": stability,
        "k_active": int(active.sum()),
        "train_mse": mse,
    }
    result.update(extra)
    if args.out:
        io.write_json(args.out, result)
        print(f"wrote {args.out}")
    else:
        print(json.dumps(result, indent=2, sort_keys=True))
    return 0


def cmd_rank(args) -> int:
    state, hyper, info = io.read_checkpoint(args.checkpoint)
    pair = _parse_int_list(args.groups, "--groups")
    if len(pair) != 2:
        raise UsageError("--groups expects exactly two group indices")
    a, b = pair
    if not (0 <= a < state.n_groups and 0 <= b < state.n_groups):
        raise UsageError(f"group indices must lie in [0, {state.n_groups})")
    scores = metrics.ranking_score(state, a, b)
    result = {
        "format": "cvgfa-rank",
        "version": io.FORMAT_VERSION,
        "group_a": a,
        "group_b": b,
        "n_columns": int(scores.shape[0]),
        "scores_file": "scores.csv",
    }
    if args.labels:
        labels = io.read_vector_csv(args.labels)
        if labels.shape[0] != scores.shape[0]:
            raise DataError(
                f"--labels file {args.labels} holds {labels.shape[0]} labels "
                f"for {scores.shape[0]} columns"
            )
        if not np.all((labels == 0.0) | (labels == 1.0)):
            raise DataError(f"--labels file {args.labels} holds values other than 0/1")
        if np.all(labels == labels[0]):
            raise DataError(f"--labels file {args.labels} holds only one class")
        result["auc"] = metrics.auc(scores, labels == 1.0)

    os.makedirs(args.out, exist_ok=True)
    order = np.argsort(-scores, kind="stable")
    scores_path = os.path.join(args.out, "scores.csv")
    with open(scores_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("column,score\n")
        for idx in order:
            fh.write(f"{int(idx)},{repr(float(scores[idx]))}\n")
    io.write_json(os.path.join(args.out, "rank.json"), result)
    if "auc" in result:
        print(f"ranked {result['n_columns']} columns; AUC {result['auc']:.4f}")
    else:
        print(f"ranked {result['n_columns']} columns")
    return 0


def cmd_reconstruct(args) -> int:
    state, hyper, info = io.read_checkpoint(args.checkpoint)
    observed = io.read_matrix_csv(args.observed)
    group_ids = _parse_int_list(args.observed_groups, "--observed-groups")
    if not 0 <= args.target < state.n_groups:
        raise UsageError(f"--target {args.target} out of range [0, {state.n_groups})")
    posterior = engine.condition_scores(state, hyper, group_ids)
    widths = [state.dims[g] for g in group_ids]
    if observed.shape[1] != sum(widths):
        raise DataError(
            f"observed matrix has {observed.shape[1]} columns, the listed "
            f"groups span {sum(widths)}"
        )
    truth = None
    if args.truth:
        truth = io.read_matrix_csv(args.truth)
        want = (observed.shape[0], state.dims[args.target])
        if truth.shape != want:
            raise DataError(f"truth matrix is {truth.shape}, reconstruction is {want}")

    # the observed columns, one block per listed group in the listed order
    blocks = np.split(observed, np.cumsum(widths)[:-1], axis=1)
    samples = [dict(zip(group_ids, row)) for row in zip(*blocks)]
    f_hat = np.array([engine.predict_factors(posterior, x) for x in samples])
    recon = engine.reconstruct_group(state, f_hat, args.target)

    os.makedirs(args.out, exist_ok=True)
    recon_path = os.path.join(args.out, "reconstruction.csv")
    io.write_matrix_csv(recon_path, recon)
    result = {
        "format": "cvgfa-reconstruct",
        "version": io.FORMAT_VERSION,
        "target_group": int(args.target),
        "observed_groups": group_ids,
        "n_samples": int(observed.shape[0]),
        "reconstruction_file": "reconstruction.csv",
    }
    if truth is not None:
        diff = recon - truth
        result["mse"] = float(np.mean(diff * diff))
    io.write_json(os.path.join(args.out, "reconstruct.json"), result)
    if "mse" in result:
        print(f"reconstructed group {args.target}; MSE {result['mse']:.6g}")
    else:
        print(f"reconstructed group {args.target}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cvgfa",
        description="Sparse Bayesian group factor analysis: simulate, fit, evaluate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="generate a synthetic dataset directory")
    p_sim.add_argument("spec", help="sim1, sim2, or a pattern JSON file")
    p_sim.add_argument("--n", type=int, required=True, help="samples per group")
    p_sim.add_argument(
        "--d",
        dest="dims",
        default=None,
        help="columns per group, comma-separated (default: n for every group)",
    )
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--out", default=".", help="dataset directory to create")

    p_fit = sub.add_parser("fit", help="run multi-restart inference on a dataset")
    p_fit.add_argument("dataset", nargs="?", default=None, help="dataset directory")
    p_fit.add_argument("--config", default=None, help="JSON run configuration")
    p_fit.add_argument("--k", type=int, default=None, help="truncation level")
    p_fit.add_argument("--restarts", type=int, default=None)
    p_fit.add_argument("--seed", type=int, default=None, help="first restart seed")
    cap = "most sweeps per restart (default 150)"
    p_fit.add_argument("--max-sweeps", type=int, default=None, help=cap)
    rule = "stop at 3 relative MSE changes in a row below this (5e-7)"
    p_fit.add_argument("--tol", type=float, default=None, help=rule)
    p_fit.add_argument("--threads", type=int, default=None, help="parallel restarts")
    p_fit.add_argument("--out", default=None, help="output directory")

    p_eval = sub.add_parser("eval", help="stability indices against simulation truth")
    p_eval.add_argument("checkpoint", help="checkpoint.json from fit")
    p_eval.add_argument("dataset", help="dataset directory with truth files")
    p_eval.add_argument("--mode", choices=("sim1", "sim2"), required=True)
    p_eval.add_argument("--out", default=None, help="metrics JSON path")

    p_rank = sub.add_parser("rank", help="shared-structure column ranking")
    p_rank.add_argument("checkpoint")
    p_rank.add_argument("--groups", required=True, help="two group indices, e.g. 0,1")
    p_rank.add_argument("--labels", default=None, help="0/1 CSV for AUC")
    p_rank.add_argument("--out", default=".", help="output directory")

    p_rec = sub.add_parser("reconstruct", help="predict one group from others")
    p_rec.add_argument("checkpoint")
    p_rec.add_argument("--observed", required=True, help="CSV of observed columns")
    p_rec.add_argument(
        "--observed-groups",
        required=True,
        help="group indices matching the observed column blocks, e.g. 0,1",
    )
    p_rec.add_argument("--target", type=int, required=True, help="group to predict")
    p_rec.add_argument("--truth", default=None, help="target matrix for MSE")
    p_rec.add_argument("--out", default=".", help="output directory")
    return parser


@functools.cache
def _parser():
    """build_parser's parser, built once per process: parsing leaves it as
    it was, so every main call of a process reuses it."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # the command's function is looked up when it runs, so a rebinding of
    # cmd_<command> (a test's or a tracer's) is the one called
    command = globals()[f"cmd_{args.command}"]
    try:
        return command(args)
    except CvgfaError as err:
        print(f"error: {err}", file=sys.stderr)
        return err.exit_code


if __name__ == "__main__":
    sys.exit(main())
