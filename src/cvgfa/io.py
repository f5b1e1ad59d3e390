"""Dataset directories, checkpoints, and sweep traces on disk.

Matrices travel as comma-separated text with shortest round-trip decimal
formatting, so writing and re-reading reproduces every float64 bitwise.
Metadata is versioned JSON; loaders check the format tag and version and
cross-validate array shapes so a stale or hand-edited file fails loudly
instead of corrupting a run.

Small JSON files (manifests, best.json, command outputs) are indented for
people to read. A checkpoint holds the whole state, over a million floats
on a wide fit, as one line of compact JSON. Its metadata (format, version,
hyperparameters, group names, fit summary) is plain JSON that any JSON
reader, or `python -m json.tool`, can read. Each state array is one object
{"shape": [...], "f8": "<base64>"} holding the array's little-endian
float64 bytes in C order: raw bytes round-trip bitwise by construction,
encode identically on every run, and cost no decimal formatting or parsing,
which took most of a wide checkpoint's read and write time. The writer
encodes the state with the json module, one string per array (1.6 MB in
all on a wide fit, K+ = 6 of 30). Checkpoints carry their own version,
CHECKPOINT_VERSION, and store only free parameters (VariationalState):
the q(lambda) and q(tau) shapes follow from the hyperparameters and the
group widths, so the reader validates the hyperparameters against the
state, and the q(lambda) rates and E[log eta] from the state.

Version 5 stores the state as it is held: the rows of the factors it
holds (VariationalState.factors; on a fitted state, the active factors
K+). The state block lists those factors, ascending, as "stored_factors",
a JSON list of integers; each group's rho, w_mean and w_var array has one
row per stored factor (K+ x D_m), and f_mean and f_var one column per
stored factor (N x K+). Every other array keeps its K factors: q(beta)
and the table counts of a factor at the prior are not prior values. The
reader builds the state from the stored rows and the list, which
VariationalState.validate checks, so a state reads back bit for bit. On a
wide fit (K = 30, K+ = 6) this is a fifth of version 4's bytes. The
reader takes version 5 only: a checkpoint of versions 1 to 4 is
rejected, and its fit has to be run again.

The checkpoint's "fit" block is what cvgfa fit recorded about the restart:
"converged" (bool, the main phase's stopping rule), "sweeps_run" (int,
the sweeps of the warm-up and the main phase), "metadata"
(FitReport.metadata, with the warm-up's "warmup_sweeps" and
"warmup_capped") and "train_mse", the exact training MSE of the final
state (metrics.train_mse), taken while fit held the data. cvgfa eval
reports that value and reads no group data file. The block must be a
JSON object; read_checkpoint passes it on unread otherwise. A checkpoint
written without fit_info has an empty block.

trace.csv has one row per sweep of a fit, numbered from 1 across the
warm-up and the main phase, so it has sweeps_run rows: sweep, objective,
train_mse, k_active, phase ("warmup" or "main"). A warm-up row leaves
the objective empty, since the warm-up takes none.
"""

import base64
import json
import math
import os
import warnings

import numpy as np

from .errors import DataError, UsageError
from .model import (
    GROUP_BLOCK_FIELDS,
    GroupBlocks,
    GroupedDataset,
    Hyperparameters,
    VariationalState,
)
from .simdata import SparsityPattern

DATASET_FORMAT = "cvgfa-dataset"
CHECKPOINT_FORMAT = "cvgfa-checkpoint"
FORMAT_VERSION = 1
CHECKPOINT_VERSION = 5
TRACE_HEADER = "sweep,objective,train_mse,k_active,phase"

HYPER_FIELDS = ("K", "kappa0", "c0", "d0", "e0", "f0", "g0", "h0")
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
    entries are rejected, and so is a file with no rows."""
    try:
        with warnings.catch_warnings():
            # an empty file is rejected below; loadtxt's warning is not news
            warnings.filterwarnings(
                "ignore", "loadtxt: input contained no data", UserWarning
            )
            matrix = np.loadtxt(path, delimiter=",", ndmin=2, dtype=float)
    except (OSError, ValueError) as err:
        raise DataError(f"cannot read matrix file {path}: {err}") from None
    if matrix.size == 0:
        raise DataError(f"matrix file {path} holds no rows")
    if not np.all(np.isfinite(matrix)):
        raise DataError(f"matrix file {path} contains non-finite entries")
    return matrix


def read_vector_csv(path):
    """One value per line (or one row of comma-separated values)."""
    m = read_matrix_csv(path)
    if 1 not in m.shape:
        raise DataError(f"{path} does not hold a single row or column")
    return m.ravel()


def write_json(path, obj):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _read_json(path, expected_format, expected_version=FORMAT_VERSION):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as err:
        raise DataError(f"cannot read {path}: {err}") from None
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
    variance conventions) lands in the manifest.
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
    """True loadings, pattern, and factors for a simulated dataset directory.

    Returns (loadings list, SparsityPattern, factors array); raises
    DataError when the directory was not written with truth files.
    """
    if manifest is None:
        manifest = _read_json(os.path.join(path, "manifest.json"), DATASET_FORMAT)
    gen = manifest.get("generator")
    if not isinstance(gen, dict) or not gen.get("pattern_file"):
        raise DataError(f"{path} holds no simulation truth")
    for key in ("pattern_file", "factors_file"):
        if not (gen.get(key) and isinstance(gen[key], str)):
            raise DataError(f"{path}: manifest generator has no {key}")
    entries = manifest.get("groups")
    if not isinstance(entries, list) or not entries:
        raise DataError(f"{path}: manifest lists no groups")
    pattern = read_pattern(os.path.join(path, gen["pattern_file"]))
    k = pattern.n_factors
    factors = _read_shaped(path, gen["factors_file"], (manifest.get("n_samples"), k))
    loadings = []
    for entry in entries:
        tname = entry.get("truth_file") if isinstance(entry, dict) else None
        if not (tname and isinstance(tname, str)):
            raise DataError(f"{path}: a group entry in the manifest has no truth file")
        loadings.append(_read_shaped(path, tname, (k, entry.get("n_columns"))))
    return loadings, pattern, factors


def _read_shaped(path, fname, shape):
    """Matrix file fname of the dataset directory path, of the given shape."""
    matrix = read_matrix_csv(os.path.join(path, fname))
    if matrix.shape != shape:
        raise DataError(
            f"{path}: {fname} is {matrix.shape[0]}x{matrix.shape[1]}, "
            f"expected {shape[0]}x{shape[1]}"
        )
    return matrix


# Every VariationalState array field, in the order the checkpoint stores
# them (sorted by name); True marks the per-group lists of arrays. The
# state's factors are stored as STORED_FACTORS, in its sorted place
# between rho and tau_rate.
STATE_FIELDS = (
    ("alpha_rate", False),
    ("alpha_shape", False),
    ("aux_s_mean", False),
    ("aux_t_mean", False),
    ("beta_a", False),
    ("beta_b", False),
    ("f_mean", False),
    ("f_var", False),
    ("rho", True),
    ("tau_rate", True),
    ("w_mean", True),
    ("w_var", True),
)
STORED_FACTORS = "stored_factors"


def _encode_array(a):
    """One state array as the JSON object {"shape": [...], "f8": "<base64>"}."""
    arr = np.asarray(a, dtype="<f8")
    text = base64.b64encode(arr.tobytes()).decode("ascii")
    return {"shape": list(arr.shape), "f8": text}


def _decode_array(obj) -> np.ndarray:
    """A writable C-contiguous float64 array from one encoded state array."""
    return _decode_view(obj).astype(np.float64)


def _decode_view(obj) -> np.ndarray:
    """One encoded state array as a read-only view of its decoded bytes."""
    if not isinstance(obj, dict) or obj.keys() != {"shape", "f8"}:
        raise ValueError("an array is not an object with keys shape and f8")
    shape, text = obj["shape"], obj["f8"]
    if not (
        isinstance(shape, list) and all(type(n) is int and n >= 0 for n in shape)
    ):
        raise ValueError(f"bad array shape {shape!r}")
    if not isinstance(text, str):
        raise ValueError("array bytes are not a base64 string")
    raw = base64.b64decode(text, validate=True)
    if len(raw) != 8 * math.prod(shape):
        raise ValueError(f"{len(raw)} bytes do not fill an array of shape {shape}")
    return np.frombuffer(raw, dtype="<f8").reshape(shape)


def _state_from_json(obj) -> VariationalState:
    """The state from its JSON object. The stacked fields' blocks are read
    as read-only views: GroupBlocks.from_groups copies them into the stacked
    layout, one field at a time."""
    fields = {}
    try:
        for name, per_group in STATE_FIELDS:
            if not per_group:
                fields[name] = _decode_array(obj[name])
            elif name in GROUP_BLOCK_FIELDS:
                blocks = [_decode_view(a) for a in obj[name]]
                fields[name] = GroupBlocks.from_groups(blocks, name)
            else:
                fields[name] = [_decode_array(a) for a in obj[name]]
        stored = obj[STORED_FACTORS]
        if not (isinstance(stored, list) and all(type(k) is int for k in stored)):
            raise ValueError(f"{STORED_FACTORS} is not a list of integers")
        fields["factors"] = np.array(stored, dtype=np.intp)
    except (KeyError, TypeError, ValueError, OverflowError) as err:
        # binascii.Error, raised for bad base64, is a ValueError;
        # OverflowError, a factor id beyond the integer range
        raise DataError(f"malformed checkpoint state: {err}") from None
    return VariationalState(**fields)


def write_checkpoint(path, state, hyper: Hyperparameters, fit_info=None, group_names=None):
    """Compact JSON: the metadata with sorted keys, then the state.

    The state object lists its fields in STATE_FIELDS order, with the
    state's factors in their sorted place, and its arrays as they stand
    (see the module docstring). json.dump writes the text piece by piece,
    so only the arrays' base64 strings are held, not the whole file.
    """
    hyperparameters = {f: getattr(hyper, f) for f in HYPER_FIELDS}
    hyperparameters["K"] = int(hyper.K)
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
    fields = {}
    for name, per_group in STATE_FIELDS:
        if name == "tau_rate":
            fields[STORED_FACTORS] = state.factors.tolist()
        value = getattr(state, name)
        if per_group:
            fields[name] = [_encode_array(a) for a in value]
        else:
            fields[name] = _encode_array(value)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        # the state goes last, so the metadata opens the file
        fh.write(header[:-1] + ',"state":')
        json.dump(fields, fh, separators=_COMPACT)
        fh.write("}\n")


def read_checkpoint(path):
    """Returns (VariationalState, Hyperparameters, info dict).

    Reads CHECKPOINT_VERSION only. The hyperparameters must be valid and
    their K must match the state, since the derived gamma shapes depend on
    them.
    """
    obj = _read_json(path, CHECKPOINT_FORMAT, CHECKPOINT_VERSION)
    hp = obj.get("hyperparameters")
    if not isinstance(hp, dict) or any(f not in hp for f in HYPER_FIELDS):
        raise DataError(f"{path}: incomplete hyperparameters")
    hyper = Hyperparameters(**{f: hp[f] for f in HYPER_FIELDS})
    try:
        hyper.validate()
    except (UsageError, TypeError, ValueError, OverflowError) as err:
        # OverflowError: int() of an infinite K
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
    fit = obj.get("fit")
    if fit is None:
        fit = {}
    if not isinstance(fit, dict):
        raise DataError(f"{path}: the fit block is not an object")
    info = {"fit": fit, "group_names": obj.get("group_names")}
    return state, hyper, info


def write_trace(path, warmup, main):
    """trace.csv: one row per sweep of a fit, the warm-up's rows (warmup,
    FitReport.warmup_trace) and then the main phase's (main,
    FitReport.trace), numbered from 1 across both and named by the trailing
    phase column. A warm-up row leaves the objective empty."""
    rows = [(row, "warmup") for row in warmup] + [(row, "main") for row in main]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(TRACE_HEADER + "\n")
        for sweep, ((objective, mse, k_active), phase) in enumerate(rows, start=1):
            text = "" if objective is None else repr(float(objective))
            fh.write(f"{sweep},{text},{repr(float(mse))},{int(k_active)},{phase}\n")
