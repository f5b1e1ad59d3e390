"""Round-trip and strict-loader tests for the on-disk formats."""

import base64
import dataclasses
import json
import math
import os
import warnings
from pathlib import Path

import numpy as np
import pytest

from cvgfa import cli, engine, io, simdata
from cvgfa.errors import DataError
from cvgfa.model import (
    FitOptions,
    GroupedDataset,
    Hyperparameters,
    VariationalState,
    _eta_log_mean,
    _lambda_rate,
    init_state,
)
from test_model import BLOCK_FIELDS, assert_stacked_layout


def random_matrix(seed, shape):
    rng = np.random.default_rng(seed)
    a = rng.normal(0.0, 1.0, size=shape)
    # mix in awkward magnitudes so shortest-round-trip formatting is exercised
    a[0, 0] = 1e-300
    a[0, -1] = -1.2345678901234567e100
    a[-1, 0] = 0.1
    return a


# -0.0 must keep its sign; 5e-324 is the smallest subnormal, 1e-40 lies
# below float32's range, then the largest double, the smallest normal
# (negated) and three values that need 17 significant digits
EDGE_VALUES = [
    -0.0,
    5e-324,
    1e-40,
    1.7976931348623157e308,
    0.30000000000000004,
    -2.2250738585072014e-308,
    1.0000000000000002,
    123456789.01234567,
]


def edge_matrix():
    a = random_matrix(1, (3, len(EDGE_VALUES)))
    a[1] = EDGE_VALUES
    a[2] = [-v for v in EDGE_VALUES]
    return a


def write_matrix_csv_per_scalar(path, array):
    """The CSV writer before it converted each matrix with tolist()."""
    a = np.atleast_2d(np.asarray(array, dtype=float))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for row in a:
            fh.write(",".join(repr(float(v)) for v in row))
            fh.write("\n")


class TestMatrixCsv:
    def test_bitwise_round_trip(self, tmp_path):
        a = random_matrix(0, (7, 5))
        path = tmp_path / "m.csv"
        io.write_matrix_csv(path, a)
        b = io.read_matrix_csv(path)
        assert b.shape == a.shape
        assert np.array_equal(a, b)

    def test_edge_values_bytes_match_per_scalar_writer(self, tmp_path):
        a = edge_matrix()
        new, old = tmp_path / "new.csv", tmp_path / "old.csv"
        io.write_matrix_csv(new, a)
        write_matrix_csv_per_scalar(old, a)
        assert new.read_bytes() == old.read_bytes()
        back = io.read_matrix_csv(new)
        assert back.tobytes() == a.tobytes()
        assert np.signbit(back[1, 0]) and not np.signbit(back[2, 0])

    def test_single_row_round_trip(self, tmp_path):
        a = np.array([[0.25, -3.5, 11.0]])
        path = tmp_path / "row.csv"
        io.write_matrix_csv(path, a)
        assert np.array_equal(io.read_matrix_csv(path), a)

    def test_missing_file_is_data_error(self, tmp_path):
        with pytest.raises(DataError):
            io.read_matrix_csv(tmp_path / "absent.csv")

    def test_garbage_is_data_error(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0\nnot,numbers\n")
        with pytest.raises(DataError):
            io.read_matrix_csv(path)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_is_data_error(self, tmp_path, bad):
        path = tmp_path / "bad.csv"
        path.write_text(f"1.0,2.0\n{bad},3.0\n")
        with pytest.raises(DataError, match="non-finite"):
            io.read_matrix_csv(path)

    @pytest.mark.parametrize("text", ["", "\n\n", "# a comment\n"])
    def test_no_rows_is_data_error_without_warning(self, tmp_path, text):
        path = tmp_path / "empty.csv"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="empty.csv holds no rows"):
                io.read_matrix_csv(path)
            with pytest.raises(DataError, match="empty.csv holds no rows"):
                io.read_vector_csv(path)

    def test_vector_accepts_column_and_row(self, tmp_path):
        col = tmp_path / "col.csv"
        col.write_text("1.0\n2.0\n3.0\n")
        assert np.array_equal(io.read_vector_csv(col), [1.0, 2.0, 3.0])
        row = tmp_path / "row.csv"
        row.write_text("1.0,2.0,3.0\n")
        assert np.array_equal(io.read_vector_csv(row), [1.0, 2.0, 3.0])

    def test_vector_rejects_matrix(self, tmp_path):
        path = tmp_path / "m.csv"
        io.write_matrix_csv(path, np.ones((2, 2)))
        with pytest.raises(DataError):
            io.read_vector_csv(path)


class TestPattern:
    def test_round_trip(self, tmp_path):
        pattern = simdata.simulation2_pattern()
        path = tmp_path / "pattern.json"
        io.write_pattern(path, pattern)
        back = io.read_pattern(path)
        assert back.entries == pattern.entries

    def test_invalid_entries_rejected(self, tmp_path):
        path = tmp_path / "pattern.json"
        io.write_pattern(path, simdata.simulation1_pattern())
        obj = json.loads(path.read_text())
        obj["entries"][0][0] = "bogus"
        path.write_text(json.dumps(obj))
        with pytest.raises(DataError):
            io.read_pattern(path)


class TestDataset:
    def test_round_trip_bitwise(self, tmp_path):
        data, truth = simdata.generate(
            simdata.simulation1_pattern(), 15, [10, 8, 6, 9], seed=4
        )
        io.write_dataset(tmp_path, data, truth=truth, generator={"seed": 4})
        back, manifest = io.read_dataset(tmp_path)
        assert back.group_names == data.group_names
        for a, b in zip(data.groups, back.groups):
            assert np.array_equal(a, b)
        assert manifest["n_samples"] == 15
        assert manifest["generator"]["pattern_file"] == "pattern.json"

    def test_truth_round_trip(self, tmp_path):
        data, truth = simdata.generate(
            simdata.simulation2_pattern(), 12, [10] * 4, seed=7
        )
        io.write_dataset(tmp_path, data, truth=truth)
        loadings, pattern, factors = io.read_truth(tmp_path)
        assert pattern.entries == truth.pattern.entries
        assert np.array_equal(factors, truth.factors)
        for a, b in zip(loadings, truth.loadings):
            assert np.array_equal(a, b)

    def test_no_truth_dataset(self, tmp_path):
        data = GroupedDataset(
            [np.ones((3, 2)), np.zeros((3, 4))], ["left", "right"]
        )
        io.write_dataset(tmp_path, data)
        back, manifest = io.read_dataset(tmp_path)
        assert back.group_names == ["left", "right"]
        assert manifest["generator"] is None
        with pytest.raises(DataError):
            io.read_truth(tmp_path)

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            pytest.param(
                lambda m: m["generator"].pop("factors_file"),
                "no factors_file",
                id="no-factors_file",
            ),
            pytest.param(lambda m: m.pop("groups"), "lists no groups", id="no-groups"),
            pytest.param(
                lambda m: m.update(groups=["truth_g0.csv"]),
                "no truth file",
                id="text-group",
            ),
        ],
    )
    def test_truth_manifest_checked(self, tmp_path, corrupt, message):
        data, truth = simdata.generate(
            simdata.simulation1_pattern(), 6, [3] * 4, seed=1
        )
        io.write_dataset(tmp_path, data, truth=truth)
        manifest_path = tmp_path / "manifest.json"
        obj = json.loads(manifest_path.read_text())
        corrupt(obj)
        manifest_path.write_text(json.dumps(obj))
        with pytest.raises(DataError, match=message):
            io.read_truth(tmp_path)

    def test_shape_mismatch_detected(self, tmp_path):
        data = GroupedDataset([np.ones((3, 2))], ["only"])
        io.write_dataset(tmp_path, data)
        manifest_path = tmp_path / "manifest.json"
        obj = json.loads(manifest_path.read_text())
        obj["groups"][0]["n_columns"] = 5
        manifest_path.write_text(json.dumps(obj))
        with pytest.raises(DataError):
            io.read_dataset(tmp_path)

    def test_wrong_version_rejected(self, tmp_path):
        data = GroupedDataset([np.ones((3, 2))], ["only"])
        io.write_dataset(tmp_path, data)
        manifest_path = tmp_path / "manifest.json"
        obj = json.loads(manifest_path.read_text())
        obj["version"] = 99
        manifest_path.write_text(json.dumps(obj))
        with pytest.raises(DataError):
            io.read_dataset(tmp_path)

    def test_wrong_format_tag_rejected(self, tmp_path):
        data = GroupedDataset([np.ones((3, 2))], ["only"])
        io.write_dataset(tmp_path, data)
        manifest_path = tmp_path / "manifest.json"
        obj = json.loads(manifest_path.read_text())
        obj["format"] = "something-else"
        manifest_path.write_text(json.dumps(obj))
        with pytest.raises(DataError):
            io.read_dataset(tmp_path)


def fitted_state(seed=0):
    data, _ = simdata.generate(simdata.simulation1_pattern(), 12, [8] * 4, seed=2)
    hyper = Hyperparameters(K=5)
    state = init_state(data, hyper, seed=seed)
    report = engine.fit(data, hyper, FitOptions(max_sweeps=3, seed=seed))
    return report, data, hyper


# versions 1 to 3 also stored the q(lambda) rates and E[log eta], and
# versions 1 and 2 the q(lambda) and q(tau) shapes
LEGACY_STATE_FIELDS = sorted(
    io.STATE_FIELDS
    + (("eta_log_mean", False), ("lambda_rate", True))
    + (("lambda_shape", True), ("tau_shape", True))
)


def legacy_field(state, hyper, name):
    """A state field as versions 1 and 2 stored it, derived arrays included."""
    if name == "lambda_shape":
        return [np.full(r.shape, hyper.lambda_shape) for r in state.rho]
    if name == "tau_shape":
        return [np.full(state.n_samples, hyper.tau_shape(d)) for d in state.dims]
    if name == "lambda_rate":
        return [_lambda_rate(w, v, hyper.f0) for w, v in zip(state.w_mean, state.w_var)]
    if name == "eta_log_mean":
        return _eta_log_mean(state)
    return getattr(state, name)


def write_checkpoint_indented(path, state, hyper, fit_info=None, group_names=None):
    """The checkpoint writer before compact output: one json.dump, indent=2."""

    def per_group(arrs):
        return [a.tolist() for a in arrs]

    payload = {
        "format": io.CHECKPOINT_FORMAT,
        "version": io.FORMAT_VERSION,
        "hyperparameters": {f: getattr(hyper, f) for f in io.HYPER_FIELDS},
        "group_names": list(group_names) if group_names else None,
        "fit": dict(fit_info or {}),
        "state": {
            "rho": per_group(state.rho),
            "w_mean": per_group(state.w_mean),
            "w_var": per_group(state.w_var),
            "f_mean": state.f_mean.tolist(),
            "f_var": state.f_var.tolist(),
            "beta_a": state.beta_a.tolist(),
            "beta_b": state.beta_b.tolist(),
            "lambda_shape": per_group(legacy_field(state, hyper, "lambda_shape")),
            "lambda_rate": per_group(legacy_field(state, hyper, "lambda_rate")),
            "tau_shape": per_group(legacy_field(state, hyper, "tau_shape")),
            "tau_rate": per_group(state.tau_rate),
            "alpha_shape": state.alpha_shape.tolist(),
            "alpha_rate": state.alpha_rate.tolist(),
            "aux_s_mean": state.aux_s_mean.tolist(),
            "aux_t_mean": state.aux_t_mean.tolist(),
            "eta_log_mean": legacy_field(state, hyper, "eta_log_mean").tolist(),
        },
    }
    payload["hyperparameters"]["K"] = int(hyper.K)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_checkpoint_compact_v1(path, state, hyper, fit_info=None, group_names=None):
    """The version 1 writer before base64 arrays: compact JSON float lists."""
    compact = (",", ":")
    hyperparameters = {f: getattr(hyper, f) for f in io.HYPER_FIELDS}
    hyperparameters["K"] = int(hyper.K)
    header = json.dumps(
        {
            "format": io.CHECKPOINT_FORMAT,
            "version": 1,
            "hyperparameters": hyperparameters,
            "group_names": list(group_names) if group_names else None,
            "fit": dict(fit_info or {}),
        },
        sort_keys=True,
        separators=compact,
    )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header[:-1])
        fh.write(',"state":{')
        for i, (name, per_group) in enumerate(LEGACY_STATE_FIELDS):
            value = legacy_field(state, hyper, name)
            fh.write(f'{"," if i else ""}"{name}":')
            if per_group:
                fh.write("[")
                for m, a in enumerate(value):
                    if m:
                        fh.write(",")
                    fh.write(json.dumps(a.tolist(), separators=compact))
                fh.write("]")
            else:
                fh.write(json.dumps(value.tolist(), separators=compact))
        fh.write("}}\n")


def decode(entry):
    """One base64 state array of a version 2 or 3 checkpoint, as a numpy array."""
    raw = base64.b64decode(entry["f8"])
    return np.frombuffer(raw, dtype="<f8").reshape(entry["shape"]).copy()


def encode(array):
    return {
        "shape": list(array.shape),
        "f8": base64.b64encode(array.astype("<f8").tobytes()).decode("ascii"),
    }


def state_arrays(state):
    """Every state array by name, per-group lists flattened in order."""
    out = {}
    for f in dataclasses.fields(VariationalState):
        value = getattr(state, f.name)
        if isinstance(value, np.ndarray):
            out[f.name] = value
        else:
            for m, a in enumerate(value):
                out[f"{f.name}[{m}]"] = a
    return out


def assert_states_bitwise_equal(a, b):
    arrays_a, arrays_b = state_arrays(a), state_arrays(b)
    assert arrays_a.keys() == arrays_b.keys()
    for name, arr in arrays_a.items():
        assert arr.shape == arrays_b[name].shape, name
        assert arr.tobytes() == arrays_b[name].tobytes(), name


# the loadings' squares must stay finite: the lambda rates derive from them
LOADING_EDGE_VALUES = [v for v in EDGE_VALUES if math.isfinite(v * v)]


def edge_state():
    """A fitted state with the edge values written into its free arrays."""
    report, data, hyper = fitted_state()
    state = report.final_state
    n = len(LOADING_EDGE_VALUES)
    state.w_mean[0][0, :n] = LOADING_EDGE_VALUES
    state.w_mean[1][0, :n] = [-v for v in LOADING_EDGE_VALUES]
    state.f_mean[: len(EDGE_VALUES), 0] = EDGE_VALUES
    state.f_mean[0, 1] = -0.0
    state.validate()
    return report, data, hyper


class TestCheckpoint:
    def test_state_fields_cover_the_state(self):
        report, _, _ = fitted_state()
        names = [name for name, _ in io.STATE_FIELDS]
        assert names == sorted(f.name for f in dataclasses.fields(VariationalState))
        state = report.final_state
        for name, per_group in io.STATE_FIELDS:
            # per-group fields are a list (tau_rate) or GroupBlocks, never one array
            value = getattr(state, name)
            assert isinstance(value, np.ndarray) != per_group
            if per_group:
                assert len(value) == state.n_groups

    def test_edge_values_round_trip_bitwise(self, tmp_path):
        report, data, hyper = edge_state()
        state = report.final_state
        path = tmp_path / "checkpoint.json"
        io.write_checkpoint(path, state, hyper, group_names=data.group_names)
        back, _, _ = io.read_checkpoint(path)
        assert_states_bitwise_equal(back, state)
        assert np.signbit(back.w_mean[0][0, 0]) and not np.signbit(back.w_mean[1][0, 0])
        assert np.signbit(back.f_mean[0, 1]) and np.signbit(back.f_mean[0, 0])

    def test_indented_checkpoint_still_loads(self, tmp_path):
        report, data, hyper = edge_state()
        state = report.final_state
        fit_info = {"converged": bool(report.converged), "metadata": report.metadata}
        old, new = tmp_path / "old.json", tmp_path / "new.json"
        compact = tmp_path / "compact.json"
        write_checkpoint_indented(old, state, hyper, fit_info, data.group_names)
        write_checkpoint_compact_v1(compact, state, hyper, fit_info, data.group_names)
        io.write_checkpoint(new, state, hyper, fit_info, data.group_names)
        assert json.loads(old.read_text()) == json.loads(compact.read_text())
        assert new.stat().st_size < old.stat().st_size
        from_old, hyper_old, info_old = io.read_checkpoint(old)
        from_new, hyper_new, info_new = io.read_checkpoint(new)
        assert_states_bitwise_equal(from_old, state)
        assert_states_bitwise_equal(from_new, state)
        assert_states_bitwise_equal(io.read_checkpoint(compact)[0], state)
        assert hyper_old == hyper_new == hyper
        assert info_old == info_new

    def test_bitwise_round_trip(self, tmp_path):
        report, data, hyper = fitted_state()
        state = report.final_state
        path = tmp_path / "checkpoint.json"
        io.write_checkpoint(
            path,
            state,
            hyper,
            fit_info={"sweeps_run": report.sweeps_run},
            group_names=data.group_names,
        )
        back, hyper_back, info = io.read_checkpoint(path)
        assert hyper_back == hyper
        assert info["fit"]["sweeps_run"] == report.sweeps_run
        assert info["group_names"] == data.group_names
        assert np.array_equal(back.f_mean, state.f_mean)
        assert np.array_equal(back.f_var, state.f_var)
        assert np.array_equal(back.beta_a, state.beta_a)
        assert np.array_equal(back.beta_b, state.beta_b)
        assert np.array_equal(back.alpha_shape, state.alpha_shape)
        assert np.array_equal(back.alpha_rate, state.alpha_rate)
        assert np.array_equal(back.aux_s_mean, state.aux_s_mean)
        assert np.array_equal(back.aux_t_mean, state.aux_t_mean)
        for m in range(state.n_groups):
            assert np.array_equal(back.rho[m], state.rho[m])
            assert np.array_equal(back.w_mean[m], state.w_mean[m])
            assert np.array_equal(back.w_var[m], state.w_var[m])
            assert np.array_equal(back.tau_rate[m], state.tau_rate[m])

    def test_rewrite_is_byte_identical(self, tmp_path):
        report, data, hyper = fitted_state()
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        io.write_checkpoint(first, report.final_state, hyper)
        state, hyper_back, _ = io.read_checkpoint(first)
        io.write_checkpoint(second, state, hyper_back)
        assert first.read_bytes() == second.read_bytes()

    def test_corrupted_state_rejected(self, tmp_path):
        report, data, hyper = fitted_state()
        path = tmp_path / "checkpoint.json"
        io.write_checkpoint(path, report.final_state, hyper)
        obj = json.loads(path.read_text())
        tau_rate = decode(obj["state"]["tau_rate"][0])
        tau_rate[0] = -1.0
        obj["state"]["tau_rate"][0] = encode(tau_rate)
        path.write_text(json.dumps(obj))
        with pytest.raises(DataError, match="tau"):
            io.read_checkpoint(path)

    def test_missing_field_rejected(self, tmp_path):
        report, data, hyper = fitted_state()
        path = tmp_path / "checkpoint.json"
        io.write_checkpoint(path, report.final_state, hyper)
        obj = json.loads(path.read_text())
        del obj["state"]["rho"]
        path.write_text(json.dumps(obj))
        with pytest.raises(DataError):
            io.read_checkpoint(path)


DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def v4_text(tmp_path_factory):
    """A version 4 checkpoint of fitted_state() as text; tests parse a copy."""
    report, data, hyper = fitted_state()
    path = tmp_path_factory.mktemp("ckpt") / "checkpoint.json"
    io.write_checkpoint(path, report.final_state, hyper, group_names=data.group_names)
    return path.read_text()


def truncate(entry):
    entry["f8"] = entry["f8"][:-3]


def drop_three_bytes(entry):
    # 4 base64 characters are 3 whole bytes, so the text stays valid
    entry["f8"] = entry["f8"][:-4]


def non_alphabet(char):
    # inserted, not substituted: a lenient decoder would skip the character
    # and return the original bytes
    def corrupt(entry):
        entry["f8"] = entry["f8"][:10] + char + entry["f8"][10:]

    return corrupt


def set_shape(shape):
    def corrupt(entry):
        entry["shape"] = shape

    return corrupt


def set_value(value):
    def corrupt(entry):
        a = decode(entry)
        a[0, 0] = value
        entry.update(encode(a))

    return corrupt


class TestCheckpointEncoding:
    def test_layout_and_decoded_arrays(self, tmp_path, v4_text):
        obj = json.loads(v4_text)
        assert obj["version"] == io.CHECKPOINT_VERSION == 4
        # only free parameters: nothing the reader derives is stored
        for derived in ("lambda_shape", "tau_shape", "lambda_rate", "eta_log_mean"):
            assert derived not in obj["state"]
        assert obj["state"].keys() == {name for name, _ in io.STATE_FIELDS}
        assert obj["hyperparameters"]["K"] == 5
        assert obj["state"]["w_mean"][0].keys() == {"shape", "f8"}
        assert obj["state"]["w_mean"][0]["shape"] == [5, 8]
        assert obj["state"]["f_mean"]["shape"] == [12, 5]
        path = tmp_path / "checkpoint.json"
        path.write_text(v4_text)
        state, _, _ = io.read_checkpoint(path)
        for name, arr in state_arrays(state).items():
            assert arr.dtype == np.float64, name
            assert arr.flags.writeable, name
            # the group blocks of the stacked arrays are column slices
            if name.split("[")[0] not in BLOCK_FIELDS:
                assert arr.flags.c_contiguous, name
        assert_stacked_layout(state)

    @pytest.mark.parametrize(
        "field, corrupt, message",
        [
            pytest.param("w_mean", truncate, None, id="truncated"),
            pytest.param("w_mean", non_alphabet("*"), None, id="star"),
            pytest.param("w_mean", non_alphabet("\n"), None, id="newline"),
            pytest.param("w_mean", non_alphabet("\u00e9"), None, id="non-ascii"),
            pytest.param("w_mean", drop_three_bytes, "do not fill", id="short-bytes"),
            pytest.param("w_mean", set_shape([5, 7]), "do not fill", id="bytes-exceed-shape"),
            pytest.param("w_mean", set_shape([8, 5]), "want", id="transposed-shape"),
            pytest.param("rho", set_shape([40]), "rho", id="flat-rho"),
            pytest.param("w_mean", set_shape([-5, -8]), "bad array shape", id="negative-shape"),
            pytest.param("w_mean", set_shape([5.0, 8.0]), "bad array shape", id="float-shape"),
            pytest.param("w_mean", set_shape([True, 40]), "bad array shape", id="bool-shape"),
            pytest.param("w_mean", set_shape("5x8"), "bad array shape", id="string-shape"),
            pytest.param("w_mean", lambda e: e.pop("shape"), "keys", id="no-shape"),
            pytest.param("w_mean", lambda e: e.update(f8=[1.0]), "base64", id="f8-not-text"),
            pytest.param("w_mean", lambda e: e.update(dtype="f4"), "keys", id="extra-key"),
            pytest.param("w_mean", set_value(np.nan), "non-finite", id="nan"),
            pytest.param("rho", set_value(1.5), "outside", id="rho-above-1"),
        ],
    )
    def test_bad_array_rejected(self, tmp_path, v4_text, field, corrupt, message):
        obj = json.loads(v4_text)
        corrupt(obj["state"][field][0])
        path = tmp_path / "checkpoint.json"
        path.write_text(json.dumps(obj))
        with pytest.raises(DataError, match=message):
            io.read_checkpoint(path)

    def test_version_2_with_float_list_rejected(self, tmp_path):
        obj = json.loads((DATA / "checkpoint_v2.json").read_text())
        obj["state"]["w_mean"][0] = decode(obj["state"]["w_mean"][0]).tolist()
        path = tmp_path / "checkpoint.json"
        path.write_text(json.dumps(obj))
        with pytest.raises(DataError):
            io.read_checkpoint(path)

    def test_version_1_with_encoded_array_rejected(self, tmp_path):
        obj = json.loads((DATA / "checkpoint_v1.json").read_text())
        obj["state"]["f_mean"] = encode(np.array(obj["state"]["f_mean"]))
        path = tmp_path / "checkpoint.json"
        path.write_text(json.dumps(obj))
        with pytest.raises(DataError):
            io.read_checkpoint(path)

    # 4.0 and True compare equal to known versions; only exact ints pass
    @pytest.mark.parametrize("version", [0, 5, "2", None, 2.0, 3.0, 4.0, True])
    def test_unknown_version_rejected(self, tmp_path, v4_text, version):
        obj = json.loads(v4_text)
        obj["version"] = version
        path = tmp_path / "checkpoint.json"
        path.write_text(json.dumps(obj))
        with pytest.raises(DataError):
            io.read_checkpoint(path)

    @pytest.mark.parametrize(
        "changes, message",
        [
            pytest.param({"K": 7}, "K=7", id="K-mismatch"),
            pytest.param({"K": 7, "g0": -1.0}, "g0", id="K-mismatch-negative-g0"),
            pytest.param({"g0": -1.0}, "g0", id="negative-g0"),
            pytest.param({"e0": 0.0}, "e0", id="zero-e0"),
            pytest.param({"h0": "x"}, "bad hyperparameters", id="string-h0"),
            pytest.param({"K": 5.0}, "K=5.0", id="float-K"),
            pytest.param({"K": None}, "bad hyperparameters", id="null-K"),
        ],
    )
    def test_bad_hyperparameters_rejected(self, tmp_path, v4_text, changes, message):
        obj = json.loads(v4_text)
        obj["hyperparameters"].update(changes)
        path = tmp_path / "checkpoint.json"
        path.write_text(json.dumps(obj))
        with pytest.raises(DataError, match=message):
            io.read_checkpoint(path)

    @pytest.mark.parametrize(
        "field, fixture",
        [
            (field, f"checkpoint_v{version}.json")
            for field, versions in [
                ("lambda_shape", (1, 2)),
                ("tau_shape", (1, 2)),
                ("lambda_rate", (1, 2, 3)),
                ("eta_log_mean", (1, 2, 3)),
            ]
            for version in versions
        ],
    )
    def test_edited_stored_shape_rejected(self, tmp_path, fixture, field):
        """Every stored array that the reader derives must equal its derived
        value exactly: one entry moved by one ulp is rejected."""
        obj = json.loads((DATA / fixture).read_text())
        lists = obj["version"] == 1
        # group 1's array, or the one array E[log eta]
        per_group = field != "eta_log_mean"
        stored = obj["state"][field][1] if per_group else obj["state"][field]
        a = np.array(stored) if lists else decode(stored)
        a.flat[0] = np.nextafter(a.flat[0], np.inf)
        edited = a.tolist() if lists else encode(a)
        if per_group:
            obj["state"][field][1] = edited
        else:
            obj["state"][field] = edited
        path = tmp_path / "checkpoint.json"
        path.write_text(json.dumps(obj))
        with pytest.raises(DataError, match=f"{field} differs"):
            io.read_checkpoint(path)

    @pytest.mark.parametrize(
        "corrupt",
        [
            pytest.param(lambda block: block.pop("tau_shape"), id="missing"),
            pytest.param(lambda block: block["tau_shape"].pop(), id="one-group-short"),
            pytest.param(lambda block: block.update(tau_shape=[]), id="empty"),
        ],
    )
    def test_version_2_without_its_shapes_rejected(self, tmp_path, corrupt):
        obj = json.loads((DATA / "checkpoint_v2.json").read_text())
        corrupt(obj["state"])
        path = tmp_path / "checkpoint.json"
        path.write_text(json.dumps(obj))
        with pytest.raises(DataError):
            io.read_checkpoint(path)

    def test_version_1_file_loads_bitwise_equal_to_version_2(self, tmp_path):
        """The four files hold the final state of fitted_state(), written by
        the version 1 to 4 writers, with the fit_info cvgfa fit writes."""
        paths = [DATA / f"checkpoint_v{v}.json" for v in (1, 2, 3, 4)]
        loaded = []
        for version, path in enumerate(paths, start=1):
            assert json.loads(path.read_text())["version"] == version
            loaded.append(io.read_checkpoint(path))
        from_v1, hyper_v1, info_v1 = loaded[0]
        assert from_v1.n_factors == 5 and from_v1.dims == [8] * 4
        for state, hyper, info in loaded[1:]:
            assert_states_bitwise_equal(from_v1, state)
            assert hyper == hyper_v1 == Hyperparameters(K=5)
            assert info == info_v1
        # the version 4 layout is pinned byte for byte
        rewritten = tmp_path / "checkpoint.json"
        io.write_checkpoint(
            rewritten, from_v1, hyper_v1, info_v1["fit"], info_v1["group_names"]
        )
        assert rewritten.read_bytes() == paths[3].read_bytes()
        # and holds every array of the version 3 file but the derived two
        v3, v4 = (json.loads(p.read_text())["state"] for p in paths[2:])
        assert v3.keys() - v4.keys() == {"lambda_rate", "eta_log_mean"}
        assert all(v3[name] == v4[name] for name in v4)

    @pytest.mark.parametrize("version", [1, 2, 3, 4])
    def test_every_version_loads_into_the_stacked_layout(self, version):
        state, _, _ = io.read_checkpoint(DATA / f"checkpoint_v{version}.json")
        assert_stacked_layout(state)

    def test_write_read_write_is_byte_identical(self, tmp_path):
        report, data, hyper = fitted_state(seed=1)
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        io.write_checkpoint(first, report.final_state, hyper, {"seed": 1}, data.group_names)
        back, hyper_back, info = io.read_checkpoint(first)
        assert_stacked_layout(back)
        io.write_checkpoint(second, back, hyper_back, info["fit"], info["group_names"])
        assert second.read_bytes() == first.read_bytes()

    def test_rank_on_corrupted_checkpoint_exits_3(self, tmp_path, v4_text):
        obj = json.loads(v4_text)
        truncate(obj["state"]["rho"][0])
        path = tmp_path / "checkpoint.json"
        path.write_text(json.dumps(obj))
        out = tmp_path / "rank"
        assert cli.main(["rank", str(path), "--groups", "0,1", "--out", str(out)]) == 3
        assert not (out / "scores.csv").exists()


class TestTrace:
    def test_round_trip(self, tmp_path):
        trace = [(-15.25, 1.0626462360590301, 5), (-14.0, 0.9, 4)]
        path = tmp_path / "trace.csv"
        io.write_trace(path, trace)
        rows = io.read_trace(path)
        assert rows == [
            (1, -15.25, 1.0626462360590301, 5),
            (2, -14.0, 0.9, 4),
        ]

    def test_header_and_numbering(self, tmp_path):
        path = tmp_path / "trace.csv"
        io.write_trace(path, [(0.0, 1.0, 2)])
        lines = path.read_text().splitlines()
        assert lines[0] == "sweep,objective,train_mse,k_active"
        assert lines[1].startswith("1,")

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("nope\n1,2,3,4\n")
        with pytest.raises(DataError):
            io.read_trace(path)

    @pytest.mark.parametrize(
        "row",
        ["1,2.5,0.5", "1,2.5,0.5,3,4", "1,abc,0.5,3", "1,2.5,0.5,3.5", ""],
        ids=["short", "long", "text", "fraction", "empty"],
    )
    def test_malformed_row_rejected(self, tmp_path, row):
        path = tmp_path / "trace.csv"
        path.write_text(f"{io.TRACE_HEADER}\n1,2.5,0.5,3\n{row}\n")
        with pytest.raises(DataError, match="line 3 is not a trace row"):
            io.read_trace(path)

    @pytest.mark.parametrize(
        "row, problem",
        [
            ("2,nan,0.5,3", "non-finite objective or MSE"),
            ("2,-inf,0.5,3", "non-finite objective or MSE"),
            ("2,2.5,inf,3", "non-finite objective or MSE"),
            ("2,2.5,nan,3", "non-finite objective or MSE"),
            ("1,nan,inf,-3", "non-finite objective or MSE"),
            ("-2,2.5,0.5,3", "sweep below 1 or a negative k_active"),
            ("0,2.5,0.5,3", "sweep below 1 or a negative k_active"),
            ("2,2.5,0.5,-1", "sweep below 1 or a negative k_active"),
        ],
    )
    def test_values_fit_never_writes_rejected(self, tmp_path, row, problem):
        path = tmp_path / "trace.csv"
        path.write_text(f"{io.TRACE_HEADER}\n1,2.5,0.5,3\n{row}\n")
        with pytest.raises(DataError, match=f"trace.csv line 3 has a {problem}"):
            io.read_trace(path)
