"""Dataset directories, checkpoints, and sweep traces on disk.

Matrices travel as comma-separated text with shortest round-trip decimal
formatting, so writing and re-reading reproduces every float64 bitwise.
A matrix input (a group file, a truth file, reconstruct's --observed and
--truth, rank's --labels) is a local plain-text CSV file, read as UTF-8:
a name is never fetched as a URL, and a compressed file is never
decompressed (a gzip file is not UTF-8 text: DataError, exit 3).
Metadata is versioned JSON; loaders check the format tag and version and
cross-validate array shapes so a stale or hand-edited file fails loudly
instead of corrupting a run.

Small JSON files (manifests, best.json, command outputs) are indented for
people to read. A checkpoint holds the whole state, over a million floats
on a wide fit, as one line of compact JSON. Its metadata (format, version,
hyperparameters, group names, fit summary) opens the file as plain JSON
that any JSON reader, or `python -m json.tool`, can read. Checkpoints carry
their own version, CHECKPOINT_VERSION, and store only free parameters
(VariationalState): the q(lambda) and q(tau) shapes follow from the
hyperparameters and the group widths, so the reader validates the
hyperparameters against the state, and the q(lambda) rates and E[log eta]
from the state.

Version 6 stores the state's arrays whole, as VariationalState holds them:
rho, w_mean and w_var K+ x sum D_m, f_mean and f_var N x K+, tau_rate
M x N, and q(beta), q(alpha) and the table counts over all K factors. The
state object opens with "dims", the group widths, and "stored_factors",
the ids of the factors the state holds (on a fitted state, the K+ active
ones), ascending; both are JSON lists of integers. Each array is one
object {"shape": [...], "hex": "<hex>"}: the lowercase hex of its
little-endian float64 bytes in C order. Raw bytes round-trip bitwise by
construction, encode identically on every run, and cost no decimal
formatting or parsing. Hex, not base64: binascii.a2b_hex decodes about
four times as fast as base64.b64decode (CPython 3.11), so a wide checkpoint
reads in about three quarters of version 5's time or less, at half again
the size (2.36 MB against 1.57 MB on a wide fit, K = 30 and K+ = 6; 147 kB
against 98 kB at the acceptance size). The hex alphabet needs no JSON
escaping, so the writer puts each array's text into the file as it
stands. io knows no group layout: the reader builds the state from the
arrays, "dims" and "stored_factors", and VariationalState.validate checks
every shape against them, so a state reads back bit for bit. The reader
takes version 6 only: a checkpoint of versions 1 to 5 is rejected, and
its fit has to be run again.

The checkpoint's "fit" block is what cvgfa fit recorded about the restart:
"converged" (bool, whether the stopping rule, not max_sweeps, ended the
fit), "sweeps_run" (int), "metadata" (FitReport.metadata) and
"train_mse", the exact training MSE of the final state
(metrics.train_mse), taken while fit held the data. It is the restart's
one training MSE: best.json, aggregate.json and fit's printed line carry
the same value, and cvgfa eval reports it and reads no group data file.
The block must be a JSON object; read_checkpoint passes it on unread
otherwise. A checkpoint written without fit_info has an empty block.

trace.csv has one row per sweep of a fit, numbered from 1, so it has
sweeps_run rows: sweep, objective, train_mse, k_active. Only the last
row has an objective, that of the final state; the others leave it
empty. A row's train_mse is the sweep's estimate from squared norms
(model._sq_norms), which the stopping rule reads, not the exact value
the fit block records.
"""

import binascii
import json
import math
import os
import warnings
from dataclasses import asdict, fields

import numpy as np

from .errors import DataError, UsageError
from .model import GroupedDataset, Hyperparameters, VariationalState
from .simdata import SparsityPattern

DATASET_FORMAT = "cvgfa-dataset"
CHECKPOINT_FORMAT = "cvgfa-checkpoint"
FORMAT_VERSION = 1
CHECKPOINT_VERSION = 6
TRACE_HEADER = "sweep,objective,train_mse,k_active"

_COMPACT = (",", ":")


def write_matrix_csv(path, array):
    """One line per row, each value's repr; one row at a time is converted."""
    rows = np.atleast_2d(np.asarray(array, dtype=float))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for row in rows:
            fh.write(",".join(map(repr, row.tolist())))
            fh.write("\n")


def read_matrix_csv(path):
    """A finite float matrix of at least one row; loadtxt's nan and inf
    entries are rejected, and so is a file with no rows.

    The file is opened here, as UTF-8 text, and loadtxt reads the open
    file: given a name, loadtxt would resolve it through numpy's
    DataSource, which reads a .gz, .bz2 or .xz sibling when the named
    file is missing and downloads a URL, and costs a URL parse per read.
    """
    try:
        with open(path, encoding="utf-8") as fh, warnings.catch_warnings():
            # an empty file is rejected below; loadtxt's warning is not news
            warnings.filterwarnings(
                "ignore", "loadtxt: input contained no data", UserWarning
            )
            matrix = np.loadtxt(fh, delimiter=",", ndmin=2, dtype=float)
    except (OSError, ValueError) as err:
        raise DataError(f"cannot read matrix file {path}: {err}") from None
    if matrix.size == 0:
        raise DataError(f"matrix file {path} holds no rows")
    if not np.isfinite(matrix).all():
        raise DataError(f"matrix file {path} contains non-finite entries")
    return matrix


def read_vector_csv(path):
    """One value per line (or one row of comma-separated values)."""
    m = read_matrix_csv(path)
    if 1 not in m.shape:
        raise DataError(f"{path} does not hold a single row or column")
    return m.ravel()


def write_json(path, obj):
    # one write of the whole text, where json.dump writes each of its many
    # pieces on its own; the file is not touched if obj does not serialize
    text = json.dumps(obj, indent=2, sort_keys=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text + "\n")


def _read_json(path, expected_format, expected_version=FORMAT_VERSION):
    try:
        # one read and one decode of the whole file: a text-mode read,
        # which decodes and translates newlines chunk by chunk, is slower
        # on a wide checkpoint
        with open(path, "rb") as fh:
            obj = json.loads(fh.read().decode("utf-8"))
    except OSError as err:
        raise DataError(f"cannot read {path}: {err}") from None
    except UnicodeDecodeError as err:
        raise DataError(f"{path} is not UTF-8 text: {err}") from None
    except json.JSONDecodeError as err:
        raise DataError(f"{path} is not valid JSON: {err}") from None
    if not isinstance(obj, dict) or obj.get("format") != expected_format:
        raise DataError(f"{path} is not a {expected_format} file")
    version = obj.get("version")
    # exact ints only: 2.0 and True compare equal to 2 and 1
    if type(version) is not int or version != expected_version:
        raise DataError(
            f"{path} has schema version {version!r}, expected {expected_version}"
        )
    return obj


def group_data_filename(name: str) -> str:
    return f"group_{name}.csv"


def truth_filename(name: str) -> str:
    return f"truth_{name}.csv"


def write_pattern(path, pattern: SparsityPattern):
    write_json(
        path,
        {
            "format": DATASET_FORMAT,
            "version": FORMAT_VERSION,
            "entries": pattern.entries,
        },
    )


def read_pattern(path) -> SparsityPattern:
    obj = _read_json(path, DATASET_FORMAT)
    entries = obj.get("entries")
    if not isinstance(entries, list):
        raise DataError(f"{path} has no pattern entries")
    pattern = SparsityPattern(entries=[list(row) for row in entries])
    try:
        pattern.validate()
    except UsageError as err:
        # a bad file is a data problem, not a caller mistake
        raise DataError(f"{path}: {err}") from None
    return pattern


def write_dataset(out_dir, data: GroupedDataset, truth=None, generator=None):
    """Write manifest.json plus one data CSV per group.

    With a SimulationTruth, also writes per-group true-loading CSVs, the
    shared factor matrix, and pattern.json; generator metadata (seed and
    variance conventions) lands in the manifest. read_truth does not read
    the factor matrix back.
    """
    os.makedirs(out_dir, exist_ok=True)
    groups_meta = []
    for m, name in enumerate(data.group_names):
        fname = group_data_filename(name)
        write_matrix_csv(os.path.join(out_dir, fname), data.groups[m])
        entry = {
            "name": name,
            "n_columns": int(data.groups[m].shape[1]),
            "data_file": fname,
            "truth_file": None,
        }
        if truth is not None:
            tname = truth_filename(name)
            write_matrix_csv(os.path.join(out_dir, tname), truth.loadings[m])
            entry["truth_file"] = tname
        groups_meta.append(entry)

    manifest = {
        "format": DATASET_FORMAT,
        "version": FORMAT_VERSION,
        "n_samples": int(data.n_samples),
        "groups": groups_meta,
        "generator": None,
    }
    if truth is not None:
        write_pattern(os.path.join(out_dir, "pattern.json"), truth.pattern)
        write_matrix_csv(os.path.join(out_dir, "truth_factors.csv"), truth.factors)
        gen = dict(generator or {})
        gen.setdefault("n_factors", int(truth.factors.shape[1]))
        gen["pattern_file"] = "pattern.json"
        gen["factors_file"] = "truth_factors.csv"
        manifest["generator"] = gen
    elif generator is not None:
        manifest["generator"] = dict(generator)
    write_json(os.path.join(out_dir, "manifest.json"), manifest)
    return os.path.join(out_dir, "manifest.json")


def read_manifest(path):
    """The checked manifest dict of the dataset directory path.

    It must list at least one group over n_samples >= 1 samples, and each
    group a name, unique among the groups as a string, a data file and
    n_columns >= 1. No data file is opened.
    """
    manifest = _read_json(os.path.join(path, "manifest.json"), DATASET_FORMAT)
    n = manifest.get("n_samples")
    entries = manifest.get("groups")
    if type(n) is not int or n < 1:
        raise DataError(f"{path}: manifest n_samples is not a positive integer")
    if not isinstance(entries, list) or not entries:
        raise DataError(f"{path}: manifest lists no groups")
    for entry in entries:
        if not isinstance(entry, dict):
            raise DataError(f"{path}: malformed group entry in manifest")
        name = entry.get("name")
        fname = entry.get("data_file")
        n_columns = entry.get("n_columns")
        if not (name and fname and isinstance(fname, str) and type(n_columns) is int):
            raise DataError(f"{path}: malformed group entry in manifest")
        if n_columns < 1:
            raise DataError(f"{path}: manifest group {name!r} has no columns")
    names = manifest_group_names(manifest)
    if len(set(names)) != len(names):
        raise DataError(f"{path}: manifest group names are not unique")
    return manifest


def manifest_group_names(manifest):
    """The group names of a manifest that read_manifest checked, as strings."""
    return [str(entry["name"]) for entry in manifest["groups"]]


def read_dataset(path):
    """Load a dataset directory; returns (GroupedDataset, manifest dict)."""
    manifest = read_manifest(path)
    shape = (manifest["n_samples"],)
    groups = [
        _read_shaped(path, entry["data_file"], shape + (entry["n_columns"],))
        for entry in manifest["groups"]
    ]
    data = GroupedDataset(groups, manifest_group_names(manifest)).validate()
    return data, manifest


def read_truth(path, manifest=None):
    """True loadings and pattern of a simulated dataset directory.

    manifest is read_manifest(path), read here when None. Returns
    (loadings list, SparsityPattern); raises DataError when the directory
    was not written with truth files. The factor matrix is not read.
    """
    if manifest is None:
        manifest = read_manifest(path)
    gen = manifest.get("generator")
    pattern_file = gen.get("pattern_file") if isinstance(gen, dict) else None
    if not (pattern_file and isinstance(pattern_file, str)):
        raise DataError(f"{path} holds no simulation truth")
    pattern = read_pattern(os.path.join(path, pattern_file))
    k = pattern.n_factors
    loadings = []
    for entry in manifest["groups"]:
        tname = entry.get("truth_file")
        if not (tname and isinstance(tname, str)):
            raise DataError(f"{path}: a group entry in the manifest has no truth file")
        loadings.append(_read_shaped(path, tname, (k, entry["n_columns"])))
    return loadings, pattern


def _read_shaped(path, fname, shape):
    """Matrix file fname of the dataset directory path, of the given shape."""
    matrix = read_matrix_csv(os.path.join(path, fname))
    if matrix.shape != shape:
        raise DataError(
            f"{path}: {fname} is {matrix.shape[0]}x{matrix.shape[1]}, "
            f"expected {shape[0]}x{shape[1]}"
        )
    return matrix


# The VariationalState array fields, in the order a checkpoint stores them
# (sorted by name), after the state's group widths ("dims") and the ids of
# the factors it holds (STORED_FACTORS).
STATE_FIELDS = (
    "alpha_rate",
    "alpha_shape",
    "aux_s_mean",
    "aux_t_mean",
    "beta_a",
    "beta_b",
    "f_mean",
    "f_var",
    "rho",
    "tau_rate",
    "w_mean",
    "w_var",
)
STORED_FACTORS = "stored_factors"


def _decode_array(name, obj) -> np.ndarray:
    """A writable C-contiguous float64 array from the state array name's
    JSON object {"shape": [...], "hex": "<hex>"}."""
    if not isinstance(obj, dict) or obj.keys() != {"shape", "hex"}:
        raise ValueError(f"{name} is not an object with keys shape and hex")
    shape, text = obj["shape"], obj["hex"]
    if not (
        isinstance(shape, list) and all(type(n) is int and n >= 0 for n in shape)
    ):
        raise ValueError(f"{name} has a bad array shape {shape!r}")
    if not isinstance(text, str):
        raise ValueError(f"{name}'s bytes are not a hex string")
    try:
        # a2b_hex rejects whitespace, an odd length and non-ASCII text, all
        # of which bytes.fromhex would skip or let through
        raw = binascii.a2b_hex(text)
    except ValueError as err:
        raise ValueError(f"{name}'s hex text: {err}") from None
    if len(raw) != 8 * math.prod(shape):
        raise ValueError(
            f"{name}: {len(raw)} bytes do not fill an array of shape {shape}"
        )
    return np.frombuffer(raw, dtype="<f8").reshape(shape).astype(np.float64)


def _int_list(obj, name):
    """obj, which must be a JSON list of integers (no bools or floats)."""
    if not (isinstance(obj, list) and all(type(k) is int for k in obj)):
        raise ValueError(f"{name} is not a list of integers")
    return obj


def _state_from_json(obj) -> VariationalState:
    """The state from its JSON object; VariationalState.validate checks the
    arrays' shapes against dims and the stored factors."""
    try:
        fields = {name: _decode_array(name, obj[name]) for name in STATE_FIELDS}
        fields["dims"] = _int_list(obj["dims"], "dims")
        stored = _int_list(obj[STORED_FACTORS], STORED_FACTORS)
        fields["factors"] = np.array(stored, dtype=np.intp)
    except (KeyError, TypeError, ValueError, OverflowError) as err:
        # OverflowError: a factor id beyond the integer range
        raise DataError(f"malformed checkpoint state: {err}") from None
    return VariationalState(**fields)


def write_checkpoint(path, state, hyper: Hyperparameters, fit_info=None, group_names=None):
    """Compact JSON: the metadata with sorted keys, then the state.

    The state object lists the group widths and the stored factors, then
    every array in STATE_FIELDS order, whole, as the state holds it (see
    the module docstring). Each array's hex text is written into the file
    as it stands: it needs no JSON escaping.
    """
    hyperparameters = dict(asdict(hyper), K=int(hyper.K))
    header = json.dumps(
        {
            "format": CHECKPOINT_FORMAT,
            "version": CHECKPOINT_VERSION,
            "hyperparameters": hyperparameters,
            "group_names": list(group_names) if group_names else None,
            "fit": dict(fit_info or {}),
        },
        sort_keys=True,
        separators=_COMPACT,
    )
    lists = json.dumps(
        {"dims": [int(d) for d in state.dims], STORED_FACTORS: state.factors.tolist()},
        separators=_COMPACT,
    )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        # the state goes last, so the metadata opens the file
        fh.write(header[:-1] + ',"state":' + lists[:-1])
        for name in STATE_FIELDS:
            arr = np.asarray(getattr(state, name), dtype="<f8")
            shape = json.dumps(list(arr.shape), separators=_COMPACT)
            fh.write(f',"{name}":{{"shape":{shape},"hex":"')
            # tobytes gives C order, whatever the array's own layout
            fh.write(arr.tobytes().hex())
            fh.write('"}')
        fh.write("}}\n")


def read_checkpoint(path):
    """Returns (VariationalState, Hyperparameters, info dict).

    Reads CHECKPOINT_VERSION only. The hyperparameters must be valid and
    their K must match the state, since the derived gamma shapes depend on
    them. The group names must be null or one distinct string per group.
    """
    obj = _read_json(path, CHECKPOINT_FORMAT, CHECKPOINT_VERSION)
    hp = obj.get("hyperparameters")
    names = [f.name for f in fields(Hyperparameters)]
    if not isinstance(hp, dict) or any(f not in hp for f in names):
        raise DataError(f"{path}: incomplete hyperparameters")
    hyper = Hyperparameters(**{f: hp[f] for f in names})
    try:
        hyper.validate()
    except UsageError as err:
        raise DataError(f"{path}: bad hyperparameters: {err}") from None
    block = obj.get("state")
    if not isinstance(block, dict):
        raise DataError(f"{path}: missing state block")
    state = _state_from_json(block)
    state.validate()
    if type(hyper.K) is not int or hyper.K != state.n_factors:
        raise DataError(
            f"{path}: hyperparameter K={hyper.K!r}, but the state has "
            f"{state.n_factors} factors"
        )
    names = obj.get("group_names")
    if names is not None and not (
        isinstance(names, list)
        and len(names) == state.n_groups
        and all(isinstance(n, str) for n in names)
        and len(set(names)) == len(names)
    ):
        raise DataError(
            f"{path}: group_names is neither null nor {state.n_groups} "
            f"distinct strings"
        )
    fit = obj.get("fit")
    if fit is None:
        fit = {}
    if not isinstance(fit, dict):
        raise DataError(f"{path}: the fit block is not an object")
    info = {"fit": fit, "group_names": names}
    return state, hyper, info


def write_trace(path, trace):
    """trace.csv: FitReport.trace's (objective, train_mse, k_active) rows as
    they stand, numbered from 1. A row without an objective leaves it
    empty."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(TRACE_HEADER + "\n")
        for sweep, (objective, mse, k_active) in enumerate(trace, start=1):
            text = "" if objective is None else repr(float(objective))
            fh.write(f"{sweep},{text},{repr(float(mse))},{int(k_active)}\n")
