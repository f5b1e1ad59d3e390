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
CHECKPOINT_VERSION, and store only free parameters (VariationalState):
the q(lambda) and q(tau) shapes follow from the hyperparameters and the
group widths, so the reader validates the hyperparameters against the
state, and the q(lambda) rates and E[log eta] from the state. Versions 1
to 3, which stored some of these too, still load; each stored value must
equal its derived value, and is dropped. Version 1 stored every array as
nested JSON float lists (compact or indented); a file that mixes the two
array encodings is rejected.
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
    _eta_log_mean,
    _lambda_rate,
)
from .simdata import SparsityPattern

DATASET_FORMAT = "cvgfa-dataset"
CHECKPOINT_FORMAT = "cvgfa-checkpoint"
FORMAT_VERSION = 1
# version 1 checkpoints stored the state arrays as JSON float lists; versions
# 1 to 3 also stored the lambda rates and E[log eta], and versions 1 and 2
# the constant gamma shapes (see _check_derived_fields)
CHECKPOINT_VERSION = 4
TRACE_HEADER = "sweep,objective,train_mse,k_active"

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
        groups.append(_read_shaped(path, fname, (n, n_columns)))
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


# Every VariationalState field, in the order the checkpoint stores them
# (sorted by name); True marks the per-group lists of arrays.
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


def _encode_array(a) -> str:
    arr = np.asarray(a, dtype="<f8")
    shape = json.dumps(list(arr.shape), separators=_COMPACT)
    text = base64.b64encode(arr.tobytes()).decode("ascii")
    return f'{{"shape":{shape},"f8":"{text}"}}'


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


def _list_array(obj) -> np.ndarray:
    return np.array(obj, dtype=float)


def _state_from_json(obj, decode, decode_block) -> VariationalState:
    """The state from its JSON object. decode gives a writable array, and
    decode_block may give a read-only one: GroupBlocks.from_groups copies
    those into the stacked layout, one field at a time."""
    fields = {}
    try:
        for name, per_group in STATE_FIELDS:
            if not per_group:
                fields[name] = decode(obj[name])
            elif name in GROUP_BLOCK_FIELDS:
                blocks = [decode_block(a) for a in obj[name]]
                fields[name] = GroupBlocks.from_groups(blocks, name)
            else:
                fields[name] = [decode(a) for a in obj[name]]
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


def _check_derived_fields(path, block, decode, state, hyper, version):
    """Versions 1 to 3 stored E[log eta] and the q(lambda) rates (one array
    per group), versions 1 and 2 the q(lambda) and q(tau) shapes too (one
    per group). Each must equal its derived value exactly, so that an edited
    file fails instead of losing the edit unseen."""
    loadings = zip(state.w_mean, state.w_var)
    derived = {
        "eta_log_mean": [_eta_log_mean(state)],
        "lambda_rate": [_lambda_rate(w, v, hyper.f0) for w, v in loadings],
    }
    if version < 3:
        N, lam_shape = state.n_samples, hyper.lambda_shape
        derived["lambda_shape"] = [np.full(r.shape, lam_shape) for r in state.rho]
        derived["tau_shape"] = [np.full(N, hyper.tau_shape(d)) for d in state.dims]
    for name, want in derived.items():
        try:
            stored = [block[name]] if name == "eta_log_mean" else block[name]
            stored = [decode(a) for a in stored]
        except (KeyError, TypeError, ValueError) as err:
            raise DataError(f"{path}: malformed checkpoint state: {err}") from None
        if len(stored) != len(want) or not all(map(np.array_equal, stored, want)):
            raise DataError(f"{path}: stored {name} differs from its derived value")


def read_checkpoint(path):
    """Returns (VariationalState, Hyperparameters, info dict).

    Reads versions 4 to 2 (base64 float64 arrays) and version 1 (JSON float
    lists). The hyperparameters must be valid and their K must match the
    state, since the derived gamma shapes depend on them.
    """
    obj = _read_json(path, CHECKPOINT_FORMAT, versions=(1, 2, 3, CHECKPOINT_VERSION))
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
    # the stacked fields' blocks and the stored derived arrays are only
    # copied or compared, so a read-only view of the decoded bytes serves them
    if obj["version"] == 1:
        decode = view = _list_array
    else:
        decode, view = _decode_array, _decode_view
    state = _state_from_json(block, decode, view)
    state.validate()
    if type(hyper.K) is not int or hyper.K != state.n_factors:
        raise DataError(
            f"{path}: hyperparameter K={hyper.K!r}, but the state has "
            f"{state.n_factors} factors"
        )
    if obj["version"] < CHECKPOINT_VERSION:
        _check_derived_fields(path, block, view, state, hyper, obj["version"])
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
    """The (sweep, objective, train_mse, k_active) rows of a trace.csv.

    A row that is not four numbers, whose objective or MSE is not finite,
    whose sweep is below 1 or whose k_active is negative raises DataError
    naming the file and the line: fit writes none of these.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as err:
        raise DataError(f"cannot read {path}: {err}") from None
    if not lines or lines[0] != TRACE_HEADER:
        raise DataError(f"{path} lacks the expected trace header")
    rows = []
    for number, line in enumerate(lines[1:], start=2):
        try:
            sweep, objective, mse, k_active = line.split(",")
            row = (int(sweep), float(objective), float(mse), int(k_active))
        except ValueError:
            raise DataError(f"{path} line {number} is not a trace row") from None
        if not (math.isfinite(row[1]) and math.isfinite(row[2])):
            raise DataError(f"{path} line {number} has a non-finite objective or MSE")
        if row[0] < 1 or row[3] < 0:
            raise DataError(
                f"{path} line {number} has a sweep below 1 or a negative k_active"
            )
        rows.append(row)
    return rows
