"""Round-trip and strict-loader tests for the on-disk formats."""

import base64
import dataclasses
import json
import math
import os
import re
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
    _keep_rows,
    active_factors,
    init_state,
)
from test_engine import holding
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

    def test_manifest_read_without_the_group_files(self, tmp_path):
        data = GroupedDataset([np.ones((3, 2)), np.zeros((3, 4))], ["left", "right"])
        io.write_dataset(tmp_path, data)
        for name in data.group_names:
            (tmp_path / io.group_data_filename(name)).unlink()
        manifest = io.read_manifest(tmp_path)
        assert manifest["n_samples"] == 3
        assert [g["n_columns"] for g in manifest["groups"]] == [2, 4]
        assert io.manifest_group_names(manifest) == ["left", "right"]
        with pytest.raises(DataError, match="group_left.csv"):
            io.read_dataset(tmp_path)

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            pytest.param(
                lambda m: m.update(n_samples=0), "not a positive integer", id="zero-n_samples"
            ),
            pytest.param(
                lambda m: m["groups"][1].update(name="left"), "not unique", id="duplicate-name"
            ),
            # names are read as strings, so 7 and "7" are one name
            pytest.param(
                lambda m: [g.update(name=n) for g, n in zip(m["groups"], [7, "7"])],
                "not unique",
                id="duplicate-as-string",
            ),
            pytest.param(
                lambda m: m["groups"][0].update(n_columns=0), "has no columns", id="zero-n_columns"
            ),
        ],
    )
    def test_manifest_checks_of_the_dataset(self, tmp_path, corrupt, message):
        data = GroupedDataset([np.ones((3, 2)), np.zeros((3, 4))], ["left", "right"])
        io.write_dataset(tmp_path, data)
        manifest_path = tmp_path / "manifest.json"
        obj = json.loads(manifest_path.read_text())
        corrupt(obj)
        manifest_path.write_text(json.dumps(obj))
        for read in (io.read_manifest, io.read_dataset):
            with pytest.raises(DataError, match=message):
                read(tmp_path)

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


def decode(entry):
    """One base64 state array of a checkpoint, as a numpy array."""
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
    """A fitted state with the edge values written into its free arrays,
    made to hold factor 1 too, whose first score mean is -0.0."""
    state, hyper = at_prior_but(1, "f_mean", -0.0)
    n = len(LOADING_EDGE_VALUES)
    state.w_mean[0][0, :n] = LOADING_EDGE_VALUES
    state.w_mean[1][0, :n] = [-v for v in LOADING_EDGE_VALUES]
    state.f_mean[: len(EDGE_VALUES), 0] = EDGE_VALUES
    state.validate()
    return state, hyper


class TestCheckpoint:
    def test_state_fields_cover_the_state(self):
        report, _, _ = fitted_state()
        names = [name for name, _ in io.STATE_FIELDS]
        # the factors are stored under their own key, as a list of integers
        assert names == sorted(names)
        assert sorted(names + ["factors"]) == sorted(
            f.name for f in dataclasses.fields(VariationalState)
        )
        state = report.final_state
        for name, per_group in io.STATE_FIELDS:
            # per-group fields are a list (tau_rate) or GroupBlocks, never one array
            value = getattr(state, name)
            assert isinstance(value, np.ndarray) != per_group
            if per_group:
                assert len(value) == state.n_groups

    def test_edge_values_round_trip_bitwise(self, tmp_path):
        state, hyper = edge_state()
        path = tmp_path / "checkpoint.json"
        io.write_checkpoint(path, state, hyper)
        back, _, _ = io.read_checkpoint(path)
        assert_states_bitwise_equal(back, state)
        assert np.signbit(back.w_mean[0][0, 0]) and not np.signbit(back.w_mean[1][0, 0])
        assert np.signbit(back.f_mean[0, 1]) and np.signbit(back.f_mean[0, 0])

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

    @pytest.mark.parametrize("block", [[], "converged", 3])
    def test_fit_block_not_an_object_rejected(self, tmp_path, block):
        report, data, hyper = fitted_state()
        path = tmp_path / "checkpoint.json"
        io.write_checkpoint(path, report.final_state, hyper)
        obj = json.loads(path.read_text())
        obj["fit"] = block
        path.write_text(json.dumps(obj))
        with pytest.raises(DataError, match="fit block"):
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


def at_prior_but(k, name, value):
    """fitted_state()'s final state, which holds factor 0 of five, made to
    hold factor k too, at the prior (test_engine.holding) but for one entry of
    its field name (a score field or a stacked one), set to value."""
    report, _, hyper = fitted_state()
    assert list(report.final_state.factors) == [0]
    state = holding(report.final_state, hyper, [0, k])
    field = getattr(state, name)
    if name.startswith("f_"):
        field[0, 1] = value
    else:
        field.stacked[1, 0] = value
    return state, hyper


@pytest.fixture(scope="module")
def checkpoint_text(tmp_path_factory):
    """A checkpoint of fitted_state() as text, in the current version; tests
    parse a copy. Its state keeps one factor of five, so each group's rho,
    w_mean and w_var array is 1 x 8 and f_mean and f_var 12 x 1."""
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
    def test_layout_and_decoded_arrays(self, tmp_path, checkpoint_text):
        obj = json.loads(checkpoint_text)
        assert obj["version"] == io.CHECKPOINT_VERSION == 5
        # only free parameters: nothing the reader derives is stored
        for derived in ("lambda_shape", "tau_shape", "lambda_rate", "eta_log_mean"):
            assert derived not in obj["state"]
        assert obj["state"].keys() == {name for name, _ in io.STATE_FIELDS} | {
            io.STORED_FACTORS
        }
        # only the rows (score columns) of the factors the state holds
        assert obj["state"][io.STORED_FACTORS] == [0]
        assert obj["hyperparameters"]["K"] == 5
        assert obj["state"]["w_mean"][0].keys() == {"shape", "f8"}
        assert obj["state"]["w_mean"][0]["shape"] == [1, 8]
        assert obj["state"]["f_mean"]["shape"] == [12, 1]
        assert obj["state"]["beta_a"]["shape"] == [5]
        assert obj["state"]["aux_s_mean"]["shape"] == [4, 5]
        path = tmp_path / "checkpoint.json"
        path.write_text(checkpoint_text)
        state, _, _ = io.read_checkpoint(path)
        # the state holds the stored factor's rows only
        assert state.n_factors == 5 and state.rho.stacked.shape == (1, 32)
        assert state.factors.tolist() == [0]
        for name, arr in state_arrays(state).items():
            if name == "factors":
                assert arr.dtype.kind == "i", name
                continue
            assert arr.dtype == np.float64, name
            assert arr.flags.writeable, name
            # the group blocks of the stacked arrays are column slices, and
            # the score arrays are in Fortran order
            if name in ("f_mean", "f_var"):
                assert arr.flags.f_contiguous, name
            elif name.split("[")[0] not in BLOCK_FIELDS:
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
            pytest.param("w_mean", set_shape([8, 1]), "want", id="transposed-shape"),
            pytest.param("rho", set_shape([8]), "rho", id="flat-rho"),
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
    def test_bad_array_rejected(self, tmp_path, checkpoint_text, field, corrupt, message):
        obj = json.loads(checkpoint_text)
        corrupt(obj["state"][field][0])
        path = tmp_path / "checkpoint.json"
        path.write_text(json.dumps(obj))
        with pytest.raises(DataError, match=message):
            io.read_checkpoint(path)

    # versions 1 to 4 are no longer read; 5.0 and True compare equal to 5
    # and 1, and only exact ints pass
    @pytest.mark.parametrize(
        "version",
        [0, 6, "2", None, 2.0, 3.0, 4.0, 5.0, True]
        + [pytest.param(v, id=f"retired-{v}") for v in (1, 2, 3, 4)],
    )
    def test_unknown_version_rejected(self, tmp_path, checkpoint_text, version):
        obj = json.loads(checkpoint_text)
        obj["version"] = version
        path = tmp_path / "checkpoint.json"
        path.write_text(json.dumps(obj))
        message = f"has schema version {version!r}, expected 5"
        with pytest.raises(DataError, match=re.escape(message)):
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
    def test_bad_hyperparameters_rejected(self, tmp_path, checkpoint_text, changes, message):
        obj = json.loads(checkpoint_text)
        obj["hyperparameters"].update(changes)
        path = tmp_path / "checkpoint.json"
        path.write_text(json.dumps(obj))
        with pytest.raises(DataError, match=message):
            io.read_checkpoint(path)

    def test_version_5_file_stores_the_rows_of_the_kept_factors(self, tmp_path):
        """checkpoint_v5.json holds the final state of fitted_state(), whose
        fit keeps factor 0 of five, with the fit_info cvgfa fit wrote
        before it recorded train_mse."""
        path = DATA / "checkpoint_v5.json"
        # a plain JSON reader gets the fit summary
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
        assert obj["version"] == 5 and obj["fit"]["sweeps_run"] == 3
        assert obj["state"][io.STORED_FACTORS] == [0]
        state, hyper, _ = io.read_checkpoint(path)
        assert sorted(active_factors(state)) == [0]
        assert_stacked_layout(state)
        # the state holds the stored factor only; the others are not held
        assert state.factors.tolist() == [0] and hyper.K == state.n_factors == 5
        assert state.rho.stacked.shape == (1, 32) and state.f_mean.shape == (12, 1)
        assert np.all(state.w_var[0][0] != hyper.f0 / hyper.e0)
        # the version 5 layout is pinned byte for byte
        rewritten = tmp_path / "checkpoint.json"
        info = io.read_checkpoint(path)[2]
        io.write_checkpoint(rewritten, state, hyper, info["fit"], info["group_names"])
        assert rewritten.read_bytes() == path.read_bytes()

    def test_version_5_round_trips_a_fitted_state_bitwise(self, tmp_path):
        # the acceptance size prunes most of K = 30
        data, _ = simdata.generate(
            simdata.simulation1_pattern(), 100, [100] * 4, seed=0
        )
        hyper = Hyperparameters(K=30)
        state = engine.fit(data, hyper, FitOptions(max_sweeps=2)).final_state
        kept = sorted(active_factors(state))
        assert 0 < len(kept) < 10
        path = tmp_path / "checkpoint.json"
        io.write_checkpoint(path, state, hyper, {"sweeps_run": 2})
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
        assert obj["fit"]["sweeps_run"] == 2
        assert obj["state"][io.STORED_FACTORS] == kept
        assert obj["state"]["rho"][0]["shape"] == [len(kept), 100]
        assert obj["state"]["f_var"]["shape"] == [100, len(kept)]
        assert obj["state"][io.STORED_FACTORS] == state.factors.tolist()
        back, _, _ = io.read_checkpoint(path)
        assert_states_bitwise_equal(back, state)

    def test_minus_zero_keeps_a_factor_stored(self, tmp_path):
        # a held factor is stored as it stands, even with every entry at the
        # prior but a mean of -0.0, which reads back with its sign
        state, hyper = at_prior_but(2, "f_mean", -0.0)
        path = tmp_path / "checkpoint.json"
        io.write_checkpoint(path, state, hyper)
        assert json.loads(path.read_text())["state"][io.STORED_FACTORS] == [0, 2]
        back, _, _ = io.read_checkpoint(path)
        assert_states_bitwise_equal(back, state)

    @pytest.mark.parametrize("at_prior", [False, True], ids=["none-at-prior", "all-at-prior"])
    def test_all_or_no_factors_stored(self, tmp_path, at_prior):
        """The spectral warm start of fitted_state()'s data holds all five
        factors, and stores their rows; with every factor dropped, it
        stores none, and rank reads it."""
        data, _ = simdata.generate(simdata.simulation1_pattern(), 12, [8] * 4, seed=2)
        hyper = Hyperparameters(K=5)
        state = init_state(data, hyper, seed=0)
        if at_prior:
            _keep_rows(state, np.zeros(5, dtype=bool))
        stored = [] if at_prior else [0, 1, 2, 3, 4]
        path = tmp_path / "checkpoint.json"
        io.write_checkpoint(path, state, hyper, {"seed": 0}, data.group_names)
        block = json.loads(path.read_text())["state"]
        assert block[io.STORED_FACTORS] == stored
        arrays = [block[name][m] for name in ("rho", "w_mean", "w_var") for m in range(4)]
        arrays += [block["f_mean"], block["f_var"]]
        shapes = [[len(stored), 8]] * 12 + [[12, len(stored)]] * 2
        assert [a["shape"] for a in arrays] == shapes
        assert all((a["f8"] == "") == at_prior for a in arrays)
        back, hyper_back, info = io.read_checkpoint(path)
        assert_states_bitwise_equal(back, state)
        rewritten = tmp_path / "rewritten.json"
        io.write_checkpoint(rewritten, back, hyper_back, info["fit"], info["group_names"])
        assert rewritten.read_bytes() == path.read_bytes()
        out = tmp_path / "rank"
        assert cli.main(["rank", str(path), "--groups", "0,1", "--out", str(out)]) == 0
        lines = (out / "scores.csv").read_text().splitlines()[1:]
        scores = [float(line.split(",")[1]) for line in lines]
        assert len(scores) == 8
        if at_prior:
            assert scores == [0.0] * 8

    @pytest.mark.parametrize(
        "stored, message",
        [
            pytest.param([1, 0], "ascend", id="descending"),
            pytest.param([0, 0], "ascend", id="repeated"),
            pytest.param([0, 5], "ascend", id="out-of-range"),
            pytest.param([-1, 0], "ascend", id="negative"),
            pytest.param([0, 2.0], "integers", id="float"),
            pytest.param([0, True], "integers", id="bool"),
            pytest.param("0,2", "integers", id="text"),
            pytest.param([0], "rows", id="too-few"),
            pytest.param([0, 2, 4], "rows", id="too-many"),
        ],
    )
    def test_bad_stored_factors_rejected(self, tmp_path, stored, message):
        state, hyper = at_prior_but(2, "w_mean", 0.5)
        path = tmp_path / "checkpoint.json"
        io.write_checkpoint(path, state, hyper)
        obj = json.loads(path.read_text())
        assert obj["state"][io.STORED_FACTORS] == [0, 2]
        obj["state"][io.STORED_FACTORS] = stored
        path.write_text(json.dumps(obj))
        with pytest.raises(DataError, match=message):
            io.read_checkpoint(path)

    def test_version_5_without_its_factor_list_rejected(self, tmp_path):
        state, hyper = at_prior_but(2, "w_mean", 0.5)
        path = tmp_path / "checkpoint.json"
        io.write_checkpoint(path, state, hyper)
        obj = json.loads(path.read_text())
        del obj["state"][io.STORED_FACTORS]
        path.write_text(json.dumps(obj))
        with pytest.raises(DataError, match=io.STORED_FACTORS):
            io.read_checkpoint(path)

    @pytest.mark.parametrize("version", [5])
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

    def test_rank_on_corrupted_checkpoint_exits_3(self, tmp_path, checkpoint_text):
        obj = json.loads(checkpoint_text)
        truncate(obj["state"]["rho"][0])
        path = tmp_path / "checkpoint.json"
        path.write_text(json.dumps(obj))
        out = tmp_path / "rank"
        assert cli.main(["rank", str(path), "--groups", "0,1", "--out", str(out)]) == 3
        assert not (out / "scores.csv").exists()


class TestTrace:
    def test_round_trip(self, tmp_path):
        # every value's repr, so float() reads each back exactly
        warmup = [(None, 1.25, 6), (None, 1.0626462360590302, 5)]
        trace = [(-15.25, 1.0626462360590301, 5), (-14.0, 0.9, 4)]
        path = tmp_path / "trace.csv"
        io.write_trace(path, warmup, trace)
        lines = path.read_text().splitlines()
        assert lines[0] == io.TRACE_HEADER
        rows = [line.split(",") for line in lines[1:]]
        rows = [
            (int(s), float(o) if o else None, float(m), int(k), p)
            for s, o, m, k, p in rows
        ]
        assert rows == [
            (1, None, 1.25, 6, "warmup"),
            (2, None, 1.0626462360590302, 5, "warmup"),
            (3, -15.25, 1.0626462360590301, 5, "main"),
            (4, -14.0, 0.9, 4, "main"),
        ]

    def test_header_and_numbering(self, tmp_path):
        path = tmp_path / "trace.csv"
        io.write_trace(path, [(None, 2.0, 2)], [(0.0, 1.0, 2)])
        lines = path.read_text().splitlines()
        assert lines[0] == "sweep,objective,train_mse,k_active,phase"
        assert lines[1:] == ["1,,2.0,2,warmup", "2,0.0,1.0,2,main"]
