"""Command-line surface: simulate, fit, eval, rank, reconstruct.

Orchestrates the multi-restart experiment protocol on top of the engine
and writes every result as CSV or versioned JSON. Exit codes: 0 success,
2 usage or configuration error, 3 data error, 4 numerical failure.
"""

import argparse
import json
import os
import sys
from dataclasses import asdict, dataclass

import numpy as np

from . import engine, io, metrics
from .errors import CvgfaError, DataError, NumericalError, UsageError
from .metrics import StabilityReport
from .model import FitOptions, Hyperparameters, active_factors
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

# evaluation protocol constants: loading entries below the threshold are
# treated as zero, and the 4 densest surviving rows count as dense factors
EVAL_SPARSITY_THRESHOLD = 0.15
EVAL_N_DENSE = 4

DEFAULT_N_RESTARTS = 20

FIT_OPTION_KEYS = ("max_sweeps", "rel_tolerance", "seed", "active_factor_threshold")


@dataclass
class RunConfig:
    """Everything one experiment needs: priors, fit knobs, restart count."""

    hyper: Hyperparameters
    fit: FitOptions
    n_restarts: int
    dataset_path: str
    output_dir: str

    def validate(self):
        if int(self.n_restarts) < 1:
            raise UsageError("n_restarts must be at least 1")
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
    for section, allowed in (("hyper", set(io.HYPER_FIELDS)), ("fit", set(FIT_OPTION_KEYS))):
        sub = obj.get(section)
        if sub is None:
            continue
        if not isinstance(sub, dict):
            raise UsageError(f"config section {section!r} must be an object")
        bad = set(sub) - allowed
        if bad:
            raise UsageError(f"config section {section!r} has unknown keys: {sorted(bad)}")
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


def cmd_fit(args) -> int:
    run, data, defaulted_k = _build_run_config(args)
    workers = 1 if args.threads is None else int(args.threads)
    if workers < 1:
        raise UsageError("--threads must be at least 1")
    # more processes than restarts or cores would only wait on each other
    workers = min(workers, run.n_restarts, os.cpu_count() or 1)

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
            io.write_checkpoint(
                os.path.join(rdir, "checkpoint.json"),
                report.final_state,
                run.hyper,
                fit_info={
                    "converged": bool(report.converged),
                    "sweeps_run": int(report.sweeps_run),
                    "metadata": report.metadata,
                },
                group_names=data.group_names,
            )
            io.write_trace(os.path.join(rdir, "trace.csv"), report.trace)
            final_obj, final_mse, k_active = report.trace[-1]
            rows.append(
                {
                    "seed": res["seed"],
                    "status": "ok",
                    "restart_dir": rdir_name,
                    "checkpoint": f"{rdir_name}/checkpoint.json",
                    "converged": bool(report.converged),
                    "sweeps_run": int(report.sweeps_run),
                    "objective": float(final_obj),
                    "train_mse": float(final_mse),
                    "k_active": int(k_active),
                }
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
    io.write_json(
        os.path.join(run.output_dir, "best.json"),
        {
            "format": "cvgfa-best",
            "version": io.FORMAT_VERSION,
            "seed": best["seed"],
            "restart_dir": best["restart_dir"],
            "checkpoint": best["checkpoint"],
            "train_mse": best["train_mse"],
            "k_active": best["k_active"],
            "converged": best["converged"],
            "sweeps_run": best["sweeps_run"],
        },
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


def _check_state_matches_data(state, data):
    if (
        state.n_groups != data.n_groups
        or state.n_samples != data.n_samples
        or state.dims != [x.shape[1] for x in data.groups]
    ):
        raise DataError("checkpoint shapes do not match the dataset")


def _present_rows(loadings_m, pattern_row, kinds):
    idx = [j for j, kind in enumerate(pattern_row) if kind in kinds]
    return loadings_m[idx]


def cmd_eval(args) -> int:
    state, hyper, info = io.read_checkpoint(args.checkpoint)
    data, manifest = io.read_dataset(args.dataset)
    loadings, pattern, factors = io.read_truth(args.dataset, manifest)
    _check_state_matches_data(state, data)
    if pattern.n_groups != data.n_groups:
        raise DataError("truth pattern does not match the dataset groups")

    threshold = FitOptions().active_factor_threshold
    active = sorted(active_factors(state, threshold))
    mse = metrics.train_mse(data, state)

    per_group = []
    if args.mode == "sim1":
        for m, name in enumerate(data.group_names):
            recovered = engine.expected_loadings(state, m)[active]
            truth_rows = _present_rows(loadings[m], pattern.entries[m], (SPARSE, DENSE))
            if recovered.shape[0] == 0 or truth_rows.shape[0] == 0:
                score = 0.0
            else:
                score = metrics.ssi(metrics.abs_correlation(truth_rows, recovered))
            per_group.append({"group": name, "ssi": score})
        report = StabilityReport(
            ssi=float(np.mean([g["ssi"] for g in per_group])),
            dsi=0.0,
            per_group=per_group,
            n_dense_selected=0,
        )
        extra = {}
    else:
        dense_corrs = []
        for m, name in enumerate(data.group_names):
            g_hat = engine.expected_loadings(state, m)
            sparse_hat, dense_hat = metrics.split_sparse_dense(
                g_hat, EVAL_SPARSITY_THRESHOLD, EVAL_N_DENSE
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
        report = StabilityReport(
            ssi=float(np.mean([g["ssi_sparse"] for g in per_group])),
            dsi=float(np.mean([g["dsi_dense"] for g in per_group])),
            per_group=per_group,
            n_dense_selected=EVAL_N_DENSE,
        )
        extra = {"dense_max_corr_mean": float(np.mean(dense_corrs))}

    result = {
        "format": "cvgfa-eval",
        "version": io.FORMAT_VERSION,
        "mode": args.mode,
        "checkpoint": args.checkpoint,
        "stability": asdict(report),
        "k_active": len(active),
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
    if not group_ids:
        raise UsageError("--observed-groups must list at least one group")
    if len(set(group_ids)) != len(group_ids):
        raise UsageError("--observed-groups lists a group twice")
    for g in group_ids + [args.target]:
        if not 0 <= g < state.n_groups:
            raise UsageError(f"group index {g} out of range [0, {state.n_groups})")
    dims = state.dims
    width = sum(dims[g] for g in group_ids)
    if observed.shape[1] != width:
        raise DataError(
            f"observed matrix has {observed.shape[1]} columns, the listed "
            f"groups span {width}"
        )
    truth = None
    if args.truth:
        truth = io.read_matrix_csv(args.truth)
        want = (observed.shape[0], dims[args.target])
        if truth.shape != want:
            raise DataError(f"truth matrix is {truth.shape}, reconstruction is {want}")

    f_hat = np.empty((observed.shape[0], state.n_factors))
    for i in range(observed.shape[0]):
        row = observed[i]
        segments = {}
        offset = 0
        for g in group_ids:
            segments[g] = row[offset : offset + dims[g]]
            offset += dims[g]
        f_hat[i], _ = engine.predict_factors(state, hyper, segments)
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
    p_sim.set_defaults(func=cmd_simulate)

    p_fit = sub.add_parser("fit", help="run multi-restart inference on a dataset")
    p_fit.add_argument("dataset", nargs="?", default=None, help="dataset directory")
    p_fit.add_argument("--config", default=None, help="JSON run configuration")
    p_fit.add_argument("--k", type=int, default=None, help="truncation level")
    p_fit.add_argument("--restarts", type=int, default=None)
    p_fit.add_argument("--seed", type=int, default=None, help="first restart seed")
    p_fit.add_argument("--max-sweeps", type=int, default=None)
    p_fit.add_argument("--tol", type=float, default=None, help="relative MSE tolerance")
    p_fit.add_argument("--threads", type=int, default=None, help="parallel restarts")
    p_fit.add_argument("--out", default=None, help="output directory")
    p_fit.set_defaults(func=cmd_fit)

    p_eval = sub.add_parser("eval", help="stability indices against simulation truth")
    p_eval.add_argument("checkpoint", help="checkpoint.json from fit")
    p_eval.add_argument("dataset", help="dataset directory with truth files")
    p_eval.add_argument("--mode", choices=("sim1", "sim2"), required=True)
    p_eval.add_argument("--seed", type=int, default=0, help="unused; deterministic")
    p_eval.add_argument("--out", default=None, help="metrics JSON path")
    p_eval.set_defaults(func=cmd_eval)

    p_rank = sub.add_parser("rank", help="shared-structure column ranking")
    p_rank.add_argument("checkpoint")
    p_rank.add_argument("--groups", required=True, help="two group indices, e.g. 0,1")
    p_rank.add_argument("--labels", default=None, help="0/1 CSV for AUC")
    p_rank.add_argument("--seed", type=int, default=0, help="unused; deterministic")
    p_rank.add_argument("--out", default=".", help="output directory")
    p_rank.set_defaults(func=cmd_rank)

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
    p_rec.add_argument("--seed", type=int, default=0, help="unused; deterministic")
    p_rec.add_argument("--out", default=".", help="output directory")
    p_rec.set_defaults(func=cmd_reconstruct)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CvgfaError as err:
        print(f"error: {err}", file=sys.stderr)
        return err.exit_code


if __name__ == "__main__":
    sys.exit(main())
