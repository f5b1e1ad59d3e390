"""Output checks on the files the cvgfa CLI writes.

They read the files with json and numpy only, never through cvgfa, so a
defect in cvgfa's own readers cannot hide a defect in its writers. Each
check returns a list of problems; an empty list means the output is right.
"""

import hashlib
import json
import os

import numpy as np


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def sha256_file(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _trace_rows(path):
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    return [line.split(",") for line in lines[1:]]


def check_fit(out_dir, n_restarts):
    """Checks one `cvgfa fit` output directory.

    Returns (problems, n_aborted). Every restart must have written
    checkpoint.json and trace.csv with one trace row per sweep run, and
    best.json must name the restart with the lowest final training MSE
    (ties go to the lower seed, as in the CLI).
    """
    problems = []
    agg = read_json(os.path.join(out_dir, "aggregate.json"))
    best = read_json(os.path.join(out_dir, "best.json"))
    rows = agg["restarts"]
    if len(rows) != n_restarts:
        problems.append(f"{out_dir}: aggregate lists {len(rows)} restarts")
    final_mse = {}
    aborted = 0
    for row in rows:
        if row["status"] != "ok":
            aborted += 1
            continue
        rdir = os.path.join(out_dir, row["restart_dir"])
        trace_path = os.path.join(rdir, "trace.csv")
        if not os.path.isfile(os.path.join(rdir, "checkpoint.json")):
            problems.append(f"{rdir}: no checkpoint.json")
        if not os.path.isfile(trace_path):
            problems.append(f"{rdir}: no trace.csv")
            continue
        trace = _trace_rows(trace_path)
        if len(trace) != row["sweeps_run"]:
            problems.append(
                f"{rdir}: trace.csv has {len(trace)} rows, sweeps_run is "
                f"{row['sweeps_run']}"
            )
        if trace:
            final_mse[row["seed"]] = float(trace[-1][2])
    if final_mse:
        want = min(final_mse, key=lambda s: (final_mse[s], s))
        if best["seed"] != want:
            problems.append(
                f"{out_dir}: best.json names seed {best['seed']}, the lowest "
                f"training MSE is seed {want}"
            )
    return problems, aborted


def check_eval(eval_path, best):
    problems = []
    result = read_json(eval_path)
    if result["k_active"] != best["k_active"]:
        problems.append(
            f"{eval_path}: k_active {result['k_active']} but best.json says "
            f"{best['k_active']}"
        )
    ssi = result["stability"]["ssi"]
    if not 0.0 < ssi <= 1.0:
        problems.append(f"{eval_path}: ssi {ssi} outside (0, 1]")
    return problems


def check_rank(rank_dir, n_columns):
    problems = []
    scores = np.loadtxt(
        os.path.join(rank_dir, "scores.csv"), delimiter=",", skiprows=1, ndmin=2
    )
    if scores.shape[0] != n_columns:
        problems.append(f"{rank_dir}: scores.csv has {scores.shape[0]} rows, want {n_columns}")
    if np.any(np.diff(scores[:, 1]) > 0.0):
        problems.append(f"{rank_dir}: scores.csv is not in descending order")
    if sorted(scores[:, 0].astype(int).tolist()) != list(range(scores.shape[0])):
        problems.append(f"{rank_dir}: scores.csv does not list each column once")
    return problems


def check_reconstruct(recon_dir, truth_path):
    """reconstruct.json's MSE must equal the one recomputed from the files."""
    result = read_json(os.path.join(recon_dir, "reconstruct.json"))
    recon = np.loadtxt(
        os.path.join(recon_dir, "reconstruction.csv"), delimiter=",", ndmin=2
    )
    truth = np.loadtxt(truth_path, delimiter=",", ndmin=2)
    if recon.shape != truth.shape:
        return [f"{recon_dir}: reconstruction is {recon.shape}, truth {truth.shape}"]
    diff = recon - truth
    mse = float(np.mean(diff * diff))
    if result.get("mse") != mse:
        return [f"{recon_dir}: reconstruct.json MSE {result.get('mse')}, recomputed {mse}"]
    return []
