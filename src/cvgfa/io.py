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
streams one array at a time. Checkpoints carry their own version,
CHECKPOINT_VERSION, and store no q(lambda) or q(tau) shapes: those follow
from the hyperparameters and the group widths, so the reader validates the
hyperparameters against the state. It also loads versions 2 and 1, which
stored the shapes too; each must equal its derived value, and is dropped.
Version 1 stored every array as nested JSON float lists (compact or
indented); a file that mixes the two array encodings is rejected.
"""

import base64
import json
import math
import os

import numpy as np

from .errors import DataError, UsageError
from .model import GroupedDataset, Hyperparameters, VariationalState
from .simdata import SparsityPattern

DATASET_FORMAT = "cvgfa-dataset"
CHECKPOINT_FORMAT = "cvgfa-checkpoint"
FORMAT_VERSION = 1
# version 1 checkpoints stored the state arrays as JSON float lists; versions
# 1 and 2 also stored the constant gamma shapes (see _check_stored_shapes)
CHECKPOINT_VERSION = 3
TRACE_HEADER = "sweep,objective,train_mse,k_active"

HYPER_FIELDS = ("K", "kappa0", "c0", "d0", "e0", "f0", "g0", "h0")
_COMPACT = (",", ":")


def write_matrix_csv(path, array):
    rows = np.atleast_2d(np.asarray(array, dtype=float)).tolist()
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for row in rows:
            fh.write(",".join(map(repr, row)))
            fh.write("\n")


def read_matrix_csv(path):
    """A finite float matrix; loadtxt's nan and inf entries are rejected."""
    try:
        matrix = np.loadtxt(path, delimiter=",", ndmin=2, dtype=float)
    except (OSError, ValueError) as err:
        raise DataError(f"cannot read matrix file {path}: {err}") from None
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


def _read_json(path, expected_format, versions=(FORMAT_VERSION,)):
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
    if type(version) is not int or version not in versions:
        raise DataError(
            f"{path} has schema version {obj.get('version')!r}, "
            f"expected {' or '.join(map(str, versions))}"
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


def read_dataset(path):
    """Load a dataset directory; returns (GroupedDataset, manifest dict)."""
    manifest = _read_json(os.path.join(path, "manifest.json"), DATASET_FORMAT)
    n = manifest.get("n_samples")
    entries = manifest.get("groups")
    if type(n) is not int:
        raise DataError(f"{path}: manifest n_samples is not an integer")
    if not isinstance(entries, list) or not entries:
        raise DataError(f"{path}: manifest lists no groups")
    groups, names = [], []
    for entry in entries:
        if not isinstance(entry, dict):
            raise DataError(f"{path}: malformed group entry in manifest")
        name = entry.get("name")
        fname = entry.get("data_file")
        n_columns = entry.get("n_columns")
        if not (name and fname and isinstance(fname, str) and type(n_columns) is int):
            raise DataError(f"{path}: malformed group entry in manifest")
        x = read_matrix_csv(os.path.join(path, fname))
        if x.shape != (n, n_columns):
            raise DataError(
                f"{path}: {fname} is {x.shape[0]}x{x.shape[1]}, manifest "
                f"says {n}x{n_columns}"
            )
        groups.append(x)
        names.append(str(name))
    data = GroupedDataset(groups, names).validate()
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
    factors = read_matrix_csv(os.path.join(path, gen["factors_file"]))
    loadings = []
    for entry in entries:
        tname = entry.get("truth_file") if isinstance(entry, dict) else None
        if not (tname and isinstance(tname, str)):
            raise DataError(f"{path}: a group entry in the manifest has no truth file")
        loadings.append(read_matrix_csv(os.path.join(path, tname)))
    return loadings, pattern, factors


# Every VariationalState field, in the order the checkpoint stores them
# (sorted by name); True marks the per-group lists of arrays.
STATE_FIELDS = (
    ("alpha_rate", False),
    ("alpha_shape", False),
    ("aux_s_mean", False),
    ("aux_t_mean", False),
    ("beta_a", False),
    ("beta_b", False),
    ("eta_log_mean", False),
    ("f_mean", False),
    ("f_var", False),
    ("lambda_rate", True),
    ("rho", True),
    ("tau_rate", True),
    ("w_mean", True),
    ("w_var", True),
)


def _encode_array(a) -> str:
    arr = np.asarray(a, dtype="<f8")
    shape = json.dumps(list(arr.shape), separators=_COMPACT)
    text = base64.b64encode(arr.tobytes()).decode("ascii")
    return f'{{"shape":{shape},"f8":"{text}"}}'


def _decode_array(obj) -> np.ndarray:
    """A writable C-contiguous float64 array from one encoded state array."""
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
    return np.frombuffer(raw, dtype="<f8").reshape(shape).astype(np.float64)


def _list_array(obj) -> np.ndarray:
    return np.array(obj, dtype=float)


def _state_from_json(obj, decode) -> VariationalState:
    try:
        fields = {
            name: (
                [decode(a) for a in obj[name]] if per_group else decode(obj[name])
            )
            for name, per_group in STATE_FIELDS
        }
    except (KeyError, TypeError, ValueError) as err:
        # binascii.Error, raised for bad base64, is a ValueError
        raise DataError(f"malformed checkpoint state: {err}") from None
    return VariationalState(**fields)


def write_checkpoint(path, state, hyper: Hyperparameters, fit_info=None, group_names=None):
    """Compact JSON: the metadata, then the state one base64 array at a time.

    Each array exists as bytes and text only while it is written, so no
    encoded copy of the whole state is ever held.
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
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        # the state goes last, so the metadata opens the file
        fh.write(header[:-1])
        fh.write(',"state":{')
        for i, (name, per_group) in enumerate(STATE_FIELDS):
            value = getattr(state, name)
            fh.write(f'{"," if i else ""}"{name}":')
            if per_group:
                fh.write("[")
                for m, a in enumerate(value):
                    if m:
                        fh.write(",")
                    fh.write(_encode_array(a))
                fh.write("]")
            else:
                fh.write(_encode_array(value))
        fh.write("}}\n")


def _check_stored_shapes(path, block, decode, state, hyper):
    """Versions 1 and 2 stored the q(lambda) and q(tau) shapes as arrays.

    Each must equal the value hyper derives for it exactly, so that a file
    whose shapes were edited fails instead of losing the edit unseen.
    """
    K, N = state.n_factors, state.n_samples
    derived = {
        "lambda_shape": [np.full((K, d), hyper.lambda_shape) for d in state.dims],
        "tau_shape": [np.full(N, hyper.tau_shape(d)) for d in state.dims],
    }
    for name, want in derived.items():
        try:
            stored = [decode(a) for a in block[name]]
        except (KeyError, TypeError, ValueError) as err:
            raise DataError(f"{path}: malformed checkpoint state: {err}") from None
        if len(stored) != len(want) or not all(map(np.array_equal, stored, want)):
            raise DataError(f"{path}: stored {name} differs from its derived value")


def read_checkpoint(path):
    """Returns (VariationalState, Hyperparameters, info dict).

    Reads version 3 and 2 (base64 float64 arrays) and version 1 (JSON float
    lists). The hyperparameters must be valid and their K must match the
    state, since the derived gamma shapes depend on them.
    """
    obj = _read_json(path, CHECKPOINT_FORMAT, versions=(1, 2, CHECKPOINT_VERSION))
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
    decode = _list_array if obj["version"] == 1 else _decode_array
    state = _state_from_json(block, decode)
    state.validate()
    if type(hyper.K) is not int or hyper.K != state.n_factors:
        raise DataError(
            f"{path}: hyperparameter K={hyper.K!r}, but the state has "
            f"{state.n_factors} factors"
        )
    if obj["version"] < CHECKPOINT_VERSION:
        _check_stored_shapes(path, block, decode, state, hyper)
    info = {
        "fit": obj.get("fit") or {},
        "group_names": obj.get("group_names"),
    }
    return state, hyper, info


def write_trace(path, trace):
    """trace.csv from fit trace rows; sweep numbering starts at 1."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(TRACE_HEADER + "\n")
        for sweep, (objective, mse, k_active) in enumerate(trace, start=1):
            fh.write(
                f"{sweep},{repr(float(objective))},"
                f"{repr(float(mse))},{int(k_active)}\n"
            )


def read_trace(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as err:
        raise DataError(f"cannot read {path}: {err}") from None
    if not lines or lines[0] != TRACE_HEADER:
        raise DataError(f"{path} lacks the expected trace header")
    rows = []
    for line in lines[1:]:
        sweep, objective, mse, k_active = line.split(",")
        rows.append((int(sweep), float(objective), float(mse), int(k_active)))
    return rows
