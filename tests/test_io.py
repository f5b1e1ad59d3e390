"""Round-trip and strict-loader tests for the on-disk formats."""

import dataclasses
import gzip
import json
import math
import os
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

import oracle
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
from test_model import assert_stacked_layout


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

    def test_compressed_sibling_not_read(self, tmp_path):
        # numpy's DataSource, which loadtxt uses for a name, reads y.csv.gz
        # when y.csv is missing
        path = tmp_path / "y.csv"
        with gzip.open(tmp_path / "y.csv.gz", "wt", encoding="utf-8") as fh:
            fh.write("1.0,2.0\n3.0,4.0\n")
        for name in (path, str(path)):
            with pytest.raises(DataError, match="No such file"):
                io.read_matrix_csv(name)

    def test_compressed_file_not_decompressed(self, tmp_path):
        path = tmp_path / "y.csv.gz"
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("1.0,2.0\n3.0,4.0\n")
        with pytest.raises(DataError, match="y.csv.gz"):
            io.read_matrix_csv(path)

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


class TestWriteJson:
    def test_bytes_match_json_dump(self, tmp_path):
        obj = {"b": [1, 2.5, None], "a": {"x": "é", "y": True}, "c": 0.1}
        io.write_json(tmp_path / "out.json", obj)
        expected = json.dumps(obj, indent=2, sort_keys=True) + "\n"
        assert (tmp_path / "out.json").read_bytes() == expected.encode("utf-8")

    def test_unserializable_object_leaves_no_file(self, tmp_path):
        with pytest.raises(TypeError):
            io.write_json(tmp_path / "out.json", {"a": 1, "b": object()})
        assert not (tmp_path / "out.json").exists()


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
        loadings, pattern = io.read_truth(tmp_path)
        assert pattern.entries == truth.pattern.entries
        # written, though read_truth does not read it back
        factors = io.read_matrix_csv(tmp_path / "truth_factors.csv")
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
        "corrupt",
        [
            pytest.param(
                lambda m: m["generator"].pop("factors_file"), id="no-factors_file"
            ),
            pytest.param(
                lambda m: m["generator"].update(factors_file=7),
                id="number-factors_file",
            ),
        ],
    )
    def test_truth_needs_no_factors_file(self, tmp_path, corrupt):
        data, truth = simdata.generate(
            simdata.simulation1_pattern(), 6, [3] * 4, seed=1
        )
        io.write_dataset(tmp_path, data, truth=truth)
        want = io.read_truth(tmp_path)
        manifest_path = tmp_path / "manifest.json"
        obj = json.loads(manifest_path.read_text())
        corrupt(obj)
        manifest_path.write_text(json.dumps(obj))
        (tmp_path / "truth_factors.csv").unlink()
        loadings, pattern = io.read_truth(tmp_path)
        assert pattern.entries == want[1].entries
        for a, b in zip(loadings, want[0]):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            pytest.param(lambda m: m.pop("groups"), "lists no groups", id="no-groups"),
            pytest.param(
                lambda m: m.update(groups=["truth_g0.csv"]),
                "malformed group entry",
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
    """One hex state array of a checkpoint, as a numpy array."""
    raw = bytes.fromhex(entry["hex"])
    return np.frombuffer(raw, dtype="<f8").reshape(entry["shape"]).copy()


def encode(array):
    return {"shape": list(array.shape), "hex": array.astype("<f8").tobytes().hex()}


def state_arrays(state):
    """Every state array by name: every field but the group widths."""
    names = [f.name for f in dataclasses.fields(VariationalState) if f.name != "dims"]
    return {name: getattr(state, name) for name in names}


def assert_states_bitwise_equal(a, b):
    assert a.dims == b.dims
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
    # group 0's first n columns and group 1's (it starts at column 8)
    state.w_mean[0, :n] = LOADING_EDGE_VALUES
    state.w_mean[0, 8 : 8 + n] = [-v for v in LOADING_EDGE_VALUES]
    state.f_mean[: len(EDGE_VALUES), 0] = EDGE_VALUES
    state.validate()
    return state, hyper


def random_state(dims, n=200, k=30, held=(2, 3, 5, 11, 17, 29)):
    """A valid state of random full-precision values, and -0.0 among the
    loading means, over groups of the given widths; N, K and K+ are the
    wide benchmark's by default."""
    rng = np.random.default_rng(sum(dims))
    m, d, h = len(dims), sum(dims), len(held)

    def positive(*shape):
        return rng.exponential(1.0, size=shape) + 1e-3

    widths = np.array(dims, dtype=float)[:, None]
    w_mean = rng.normal(size=(h, d))
    w_mean[0, 0] = -0.0
    state = VariationalState(
        rho=rng.random((h, d)),
        w_mean=w_mean,
        w_var=positive(h, d),
        dims=list(dims),
        f_mean=rng.normal(size=(n, h)),
        f_var=positive(n, h),
        beta_a=positive(k),
        beta_b=positive(k),
        tau_rate=positive(m, n),
        alpha_shape=positive(m),
        alpha_rate=positive(m),
        aux_s_mean=rng.random((m, k)) * widths,
        aux_t_mean=rng.random((m, k)) * widths,
        factors=np.array(held),
    )
    return state.validate(), Hyperparameters(K=k)


class TestCheckpoint:
    def test_state_fields_cover_the_state(self):
        report, _, _ = fitted_state()
        names = list(io.STATE_FIELDS)
        # the factors are stored under their own key and the group widths
        # under "dims", both as lists of integers
        assert names == sorted(names)
        assert sorted(names + ["dims", "factors"]) == sorted(
            f.name for f in dataclasses.fields(VariationalState)
        )
        state = report.final_state
        # every field is one array, which the checkpoint stores whole
        for name in names:
            assert isinstance(getattr(state, name), np.ndarray), name
        assert state.rho.shape[1] == sum(state.dims) == 32
        assert state.tau_rate.shape == (state.n_groups, state.n_samples)

    def test_edge_values_round_trip_bitwise(self, tmp_path):
        state, hyper = edge_state()
        path = tmp_path / "checkpoint.json"
        io.write_checkpoint(path, state, hyper)
        back, _, _ = io.read_checkpoint(path)
        assert_states_bitwise_equal(back, state)
        assert np.signbit(back.w_mean[0, 0]) and not np.signbit(back.w_mean[0, 8])
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
        assert back.dims == state.dims
        assert np.array_equal(back.rho, state.rho)
        assert np.array_equal(back.w_mean, state.w_mean)
        assert np.array_equal(back.w_var, state.w_var)
        assert np.array_equal(back.tau_rate, state.tau_rate)

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
        tau_rate = decode(obj["state"]["tau_rate"])
        tau_rate[0, 0] = -1.0
        obj["state"]["tau_rate"] = encode(tau_rate)
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
    its field name (a score field or one of rho, w_mean and w_var), set to
    value."""
    report, _, hyper = fitted_state()
    assert list(report.final_state.factors) == [0]
    state = holding(report.final_state, hyper, [0, k])
    field = getattr(state, name)
    if name.startswith("f_"):
        field[0, 1] = value
    else:
        field[1, 0] = value
    return state, hyper


@pytest.fixture(scope="module")
def checkpoint_text(tmp_path_factory):
    """A checkpoint of fitted_state() as text, in the current version; tests
    parse a copy. Its state keeps one factor of five of four groups of 8
    columns, so rho, w_mean and w_var are 1 x 32, tau_rate 4 x 12, and
    f_mean and f_var 12 x 1."""
    report, data, hyper = fitted_state()
    path = tmp_path_factory.mktemp("ckpt") / "checkpoint.json"
    io.write_checkpoint(path, report.final_state, hyper, group_names=data.group_names)
    return path.read_text()


def truncate(entry):
    # an odd number of hex digits
    entry["hex"] = entry["hex"][:-3]


def drop_three_bytes(entry):
    # 2 hex digits are 1 whole byte, so the text stays valid
    entry["hex"] = entry["hex"][:-6]


def non_alphabet(char):
    # two of them, inserted at a byte boundary, not substituted: the length
    # stays even, and a lenient decoder (bytes.fromhex skips whitespace)
    # would return the original bytes
    def corrupt(entry):
        entry["hex"] = entry["hex"][:10] + 2 * char + entry["hex"][10:]

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


# the state fields version 5 stored as one array per group
PER_GROUP = ["rho", "tau_rate", "w_mean", "w_var"]


class TestCheckpointEncoding:
    def test_layout_and_decoded_arrays(self, tmp_path, checkpoint_text):
        obj = json.loads(checkpoint_text)
        assert obj["version"] == io.CHECKPOINT_VERSION == 6
        # the metadata opens the file, and the state's lists open the state
        assert list(obj)[-1] == "state"
        assert list(obj["state"])[:2] == ["dims", io.STORED_FACTORS]
        # only free parameters: nothing the reader derives is stored
        for derived in ("lambda_shape", "tau_shape", "lambda_rate", "eta_log_mean"):
            assert derived not in obj["state"]
        assert obj["state"].keys() == set(io.STATE_FIELDS) | {"dims", io.STORED_FACTORS}
        # only the rows (score columns) of the factors the state holds
        assert obj["state"][io.STORED_FACTORS] == [0]
        assert obj["state"]["dims"] == [8] * 4
        assert obj["hyperparameters"]["K"] == 5
        # every array whole, as the state holds it, in lowercase hex
        assert obj["state"]["w_mean"].keys() == {"shape", "hex"}
        assert obj["state"]["w_mean"]["shape"] == [1, 32]
        assert obj["state"]["tau_rate"]["shape"] == [4, 12]
        assert obj["state"]["f_mean"]["shape"] == [12, 1]
        for name in io.STATE_FIELDS:
            assert re.fullmatch("[0-9a-f]+", obj["state"][name]["hex"]), name
        assert obj["state"]["beta_a"]["shape"] == [5]
        assert obj["state"]["aux_s_mean"]["shape"] == [4, 5]
        path = tmp_path / "checkpoint.json"
        path.write_text(checkpoint_text)
        state, _, _ = io.read_checkpoint(path)
        # the state holds the stored factor's rows only
        assert state.n_factors == 5 and state.rho.shape == (1, 32)
        assert state.factors.tolist() == [0] and state.dims == [8] * 4
        for name, arr in state_arrays(state).items():
            if name == "factors":
                assert arr.dtype.kind == "i", name
                continue
            assert arr.dtype == np.float64, name
            assert arr.flags.writeable, name
            # the score arrays are in Fortran order, every other one in C order
            if name in ("f_mean", "f_var"):
                assert arr.flags.f_contiguous, name
            else:
                assert arr.flags.c_contiguous, name
        assert_stacked_layout(state)

    @pytest.mark.parametrize(
        "field, corrupt, message",
        [
            pytest.param("w_mean", truncate, "w_mean", id="truncated"),
            pytest.param("w_mean", non_alphabet("*"), "w_mean", id="star"),
            pytest.param("w_mean", non_alphabet("g"), "w_mean", id="non-hex-letter"),
            pytest.param("w_mean", non_alphabet("\n"), "w_mean", id="newline"),
            pytest.param("w_mean", non_alphabet(" "), "w_mean", id="space"),
            pytest.param("w_mean", non_alphabet("\u00e9"), "w_mean", id="non-ascii"),
            pytest.param("w_mean", drop_three_bytes, "do not fill", id="short-bytes"),
            pytest.param("w_mean", set_shape([5, 7]), "do not fill", id="bytes-exceed-shape"),
            pytest.param("w_mean", set_shape([32, 1]), "want", id="transposed-shape"),
            pytest.param("rho", set_shape([32]), "rho", id="flat-rho"),
            pytest.param("w_mean", set_shape([-5, -8]), "bad array shape", id="negative-shape"),
            pytest.param("w_mean", set_shape([5.0, 8.0]), "bad array shape", id="float-shape"),
            pytest.param("w_mean", set_shape([True, 40]), "bad array shape", id="bool-shape"),
            pytest.param("w_mean", set_shape("5x8"), "bad array shape", id="string-shape"),
            pytest.param("w_mean", lambda e: e.pop("shape"), "keys", id="no-shape"),
            pytest.param("w_mean", lambda e: e.update(hex=[1.0]), "hex string", id="hex-not-text"),
            pytest.param("w_mean", lambda e: e.update(dtype="f4"), "keys", id="extra-key"),
            pytest.param("w_mean", set_value(np.nan), "non-finite", id="nan"),
            pytest.param("rho", set_value(1.5), "outside", id="rho-above-1"),
        ],
    )
    def test_bad_array_rejected(self, tmp_path, checkpoint_text, field, corrupt, message):
        obj = json.loads(checkpoint_text)
        corrupt(obj["state"][field])
        path = tmp_path / "checkpoint.json"
        path.write_text(json.dumps(obj))
        with pytest.raises(DataError, match=message):
            io.read_checkpoint(path)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    @pytest.mark.parametrize("name", io.STATE_FIELDS)
    def test_non_finite_value_rejected(self, tmp_path, checkpoint_text, name, bad):
        # every stored state array is float: an inf passes the range and
        # positivity checks, and a NaN every comparison, so each needs the
        # finite check, here on the array's last entry
        obj = json.loads(checkpoint_text)
        entry = obj["state"][name]
        a = decode(entry)
        a.flat[-1] = bad
        entry.update(encode(a))
        path = tmp_path / "checkpoint.json"
        path.write_text(json.dumps(obj))
        with pytest.raises(DataError, match=f"{name} contains non-finite entries"):
            io.read_checkpoint(path)
        out = tmp_path / "rank"
        assert cli.main(["rank", str(path), "--groups", "0,1", "--out", str(out)]) == 3
        assert not (out / "scores.csv").exists()

    @pytest.mark.parametrize("field", ["w_mean", "w_var"])
    def test_blocks_cut_unlike_rho_rejected(self, tmp_path, checkpoint_text, field):
        # rho's 32 values laid out as 2 rows of 16: the bytes fill the
        # shape, which is not rho's K+ x sum(D_m)
        obj = json.loads(checkpoint_text)
        obj["state"][field]["shape"] = [2, 16]
        path = tmp_path / "checkpoint.json"
        path.write_text(json.dumps(obj))
        message = re.escape(f"{field} has shape (2, 16), want (1, 32)")
        with pytest.raises(DataError, match=message):
            io.read_checkpoint(path)

    def test_tau_rate_rows_of_unequal_length_rejected(self, tmp_path, checkpoint_text):
        # rows of 11 values, one fewer than the N = 12 samples of the scores
        obj = json.loads(checkpoint_text)
        rows = decode(obj["state"]["tau_rate"])
        obj["state"]["tau_rate"] = encode(rows[:, :11])
        path = tmp_path / "checkpoint.json"
        path.write_text(json.dumps(obj))
        message = re.escape("tau_rate has shape (4, 11), want (4, 12)")
        with pytest.raises(DataError, match=message):
            io.read_checkpoint(path)

    @pytest.mark.parametrize(
        "fields",
        [["rho"], ["w_var"], ["tau_rate"], PER_GROUP],
        ids=["rho", "w_var", "tau_rate", "every"],
    )
    def test_empty_group_list_rejected(self, tmp_path, checkpoint_text, fields):
        # a list, as version 5 stored these fields, where an array belongs
        obj = json.loads(checkpoint_text)
        for name in fields:
            obj["state"][name] = []
        path = tmp_path / "checkpoint.json"
        path.write_text(json.dumps(obj))
        message = f"{fields[0]} is not an object with keys shape and hex"
        with pytest.raises(DataError, match=message):
            io.read_checkpoint(path)

    # versions 1 to 5 are no longer read; 6.0 and True compare equal to 6
    # and 1, and only exact ints pass
    @pytest.mark.parametrize(
        "version",
        [0, 7, "2", None, 2.0, 3.0, 4.0, 5.0, 6.0, True]
        + [pytest.param(v, id=f"retired-{v}") for v in (1, 2, 3, 4, 5)],
    )
    def test_unknown_version_rejected(self, tmp_path, checkpoint_text, version):
        obj = json.loads(checkpoint_text)
        obj["version"] = version
        path = tmp_path / "checkpoint.json"
        path.write_text(json.dumps(obj))
        message = f"has schema version {version!r}, expected 6"
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
            pytest.param({"kappa0": True}, "kappa0", id="bool-kappa0"),
            pytest.param({"c0": "0.1"}, "c0", id="string-c0"),
            pytest.param({"d0": 10**400}, "d0", id="huge-integer-d0"),
        ],
    )
    def test_bad_hyperparameters_rejected(self, tmp_path, checkpoint_text, changes, message):
        obj = json.loads(checkpoint_text)
        obj["hyperparameters"].update(changes)
        path = tmp_path / "checkpoint.json"
        path.write_text(json.dumps(obj))
        with pytest.raises(DataError, match=message):
            io.read_checkpoint(path)

    def test_version_6_file_stores_the_rows_of_the_kept_factors(self, tmp_path):
        """checkpoint_v6.json holds the final state of fitted_state(), whose
        fit keeps factor 0 of five, with the fit_info cvgfa fit wrote
        before it recorded train_mse: checkpoint_v5.json's state, bit for
        bit."""
        path = DATA / "checkpoint_v6.json"
        # a plain JSON reader gets the fit summary and the state's lists
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
        assert obj["version"] == 6 and obj["fit"]["sweeps_run"] == 3
        assert obj["state"][io.STORED_FACTORS] == [0]
        assert obj["state"]["dims"] == [8] * 4
        state, hyper, _ = io.read_checkpoint(path)
        assert sorted(active_factors(state)) == [0]
        assert_stacked_layout(state)
        # the state holds the stored factor only; the others are not held
        assert state.factors.tolist() == [0] and hyper.K == state.n_factors == 5
        assert state.rho.shape == (1, 32) and state.f_mean.shape == (12, 1)
        assert np.all(state.w_var[0] != hyper.f0 / hyper.e0)
        # the version 6 layout is pinned byte for byte
        rewritten = tmp_path / "checkpoint.json"
        info = io.read_checkpoint(path)[2]
        io.write_checkpoint(rewritten, state, hyper, info["fit"], info["group_names"])
        assert rewritten.read_bytes() == path.read_bytes()

    def test_version_5_file_rejected(self, tmp_path, capsys):
        """checkpoint_v5.json, checkpoint_v6.json's state in version 5's
        per-group base64 arrays, is no longer read: its fit has to be run
        again."""
        path = DATA / "checkpoint_v5.json"
        out = tmp_path / "rank"
        assert cli.main(["rank", str(path), "--groups", "0,1", "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            f"error: {path} has schema version 5, expected 6\n"
        )
        assert not out.exists()

    def test_version_6_round_trips_a_fitted_state_bitwise(self, tmp_path):
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
        assert obj["state"]["rho"]["shape"] == [len(kept), 400]
        assert obj["state"]["f_var"]["shape"] == [100, len(kept)]
        assert obj["state"][io.STORED_FACTORS] == state.factors.tolist()
        back, _, _ = io.read_checkpoint(path)
        assert_states_bitwise_equal(back, state)

    @pytest.mark.parametrize(
        "dims", [[2000] * 4, [13, 40, 7, 25]], ids=["wide", "unequal-width"]
    )
    def test_wide_and_unequal_width_states_round_trip_bitwise(self, tmp_path, dims):
        state, hyper = random_state(dims)
        names = [f"group{m + 1}" for m in range(len(dims))]
        path = tmp_path / "checkpoint.json"
        io.write_checkpoint(path, state, hyper, {"seed": 0}, names)
        back, hyper_back, info = io.read_checkpoint(path)
        assert_states_bitwise_equal(back, state)
        assert_stacked_layout(back)
        assert hyper_back == hyper and info["group_names"] == names
        rewritten = tmp_path / "rewritten.json"
        io.write_checkpoint(rewritten, back, hyper_back, info["fit"], info["group_names"])
        assert rewritten.read_bytes() == path.read_bytes()

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
        """The spectral warm start of fitted_state()'s data, made to hold
        all five factors (the slots it leaves at the prior at the prior),
        stores their rows; with every factor dropped, it stores none, and
        rank reads it."""
        data, _ = simdata.generate(simdata.simulation1_pattern(), 12, [8] * 4, seed=2)
        hyper = Hyperparameters(K=5)
        state = oracle.full_state(init_state(data, hyper, seed=0), hyper)
        if at_prior:
            _keep_rows(state, np.zeros(5, dtype=bool))
        stored = [] if at_prior else [0, 1, 2, 3, 4]
        path = tmp_path / "checkpoint.json"
        io.write_checkpoint(path, state, hyper, {"seed": 0}, data.group_names)
        block = json.loads(path.read_text())["state"]
        assert block[io.STORED_FACTORS] == stored
        arrays = [block[name] for name in ("rho", "w_mean", "w_var", "f_mean", "f_var")]
        shapes = [[len(stored), 32]] * 3 + [[12, len(stored)]] * 2
        assert [a["shape"] for a in arrays] == shapes
        assert all((a["hex"] == "") == at_prior for a in arrays)
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

    def test_version_6_without_its_factor_list_rejected(self, tmp_path):
        state, hyper = at_prior_but(2, "w_mean", 0.5)
        path = tmp_path / "checkpoint.json"
        io.write_checkpoint(path, state, hyper)
        obj = json.loads(path.read_text())
        del obj["state"][io.STORED_FACTORS]
        path.write_text(json.dumps(obj))
        with pytest.raises(DataError, match=io.STORED_FACTORS):
            io.read_checkpoint(path)

    @pytest.mark.parametrize(
        "dims, message",
        [
            pytest.param(None, "'dims'", id="missing"),
            pytest.param([8, 8, 8], "want", id="three-groups"),
            pytest.param([8, 8, 8, 9], "want", id="too-wide"),
            pytest.param([8, 8, 8, 8.0], "integers", id="float"),
            pytest.param([8, 8, 8, True], "integers", id="bool"),
            pytest.param("8,8,8,8", "integers", id="text"),
            pytest.param([], "dims must be", id="empty"),
            pytest.param([16, 0, 8, 8], "dims must be", id="zero-width"),
        ],
    )
    def test_bad_dims_rejected(self, tmp_path, checkpoint_text, dims, message):
        obj = json.loads(checkpoint_text)
        if dims is None:
            del obj["state"]["dims"]
        else:
            obj["state"]["dims"] = dims
        path = tmp_path / "checkpoint.json"
        path.write_text(json.dumps(obj))
        with pytest.raises(DataError, match=message):
            io.read_checkpoint(path)

    @pytest.mark.parametrize(
        "names",
        [["x"], [1, None, {}, 3.5], ["a", "b", "a", "c"], "group1", {}],
        ids=["one-name", "not-strings", "repeated", "text", "object"],
    )
    def test_bad_group_names_rejected(self, tmp_path, names):
        # null, or one distinct string per group
        obj = json.loads((DATA / "checkpoint_v6.json").read_text())
        obj["group_names"] = names
        path = tmp_path / "checkpoint.json"
        path.write_text(json.dumps(obj))
        with pytest.raises(DataError, match="group_names is neither null nor 4"):
            io.read_checkpoint(path)
        out = tmp_path / "rank"
        assert cli.main(["rank", str(path), "--groups", "0,1", "--out", str(out)]) == 3
        assert not out.exists()

    def test_non_utf8_file_rejected(self, tmp_path, checkpoint_text):
        path = tmp_path / "checkpoint.json"
        path.write_bytes(checkpoint_text.replace("group1", "group\u00e9").encode("latin-1"))
        with pytest.raises(DataError, match="not UTF-8 text"):
            io.read_checkpoint(path)

    @pytest.mark.parametrize("version", [6])
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
        truncate(obj["state"]["rho"])
        path = tmp_path / "checkpoint.json"
        path.write_text(json.dumps(obj))
        out = tmp_path / "rank"
        assert cli.main(["rank", str(path), "--groups", "0,1", "--out", str(out)]) == 3
        assert not (out / "scores.csv").exists()


class TestTrace:
    def test_round_trip(self, tmp_path):
        # every value's repr, so float() reads each back exactly
        trace = [
            (None, 1.25, 6),
            (None, 1.0626462360590302, 5),
            (None, 1.0626462360590301, 5),
            (-14.0, 0.9, 4),
        ]
        path = tmp_path / "trace.csv"
        io.write_trace(path, trace)
        lines = path.read_text().splitlines()
        assert lines[0] == io.TRACE_HEADER
        rows = [line.split(",") for line in lines[1:]]
        rows = [
            (int(s), float(o) if o else None, float(m), int(k)) for s, o, m, k in rows
        ]
        assert rows == [
            (1, None, 1.25, 6),
            (2, None, 1.0626462360590302, 5),
            (3, None, 1.0626462360590301, 5),
            (4, -14.0, 0.9, 4),
        ]

    def test_header_and_numbering(self, tmp_path):
        path = tmp_path / "trace.csv"
        io.write_trace(path, [(None, 2.0, 2), (0.0, 1.0, 2)])
        lines = path.read_text().splitlines()
        assert lines[0] == "sweep,objective,train_mse,k_active"
        assert lines[1:] == ["1,,2.0,2", "2,0.0,1.0,2"]
