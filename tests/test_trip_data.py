import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fleetrank.errors import BadValue, DuplicateTripId, EmptyDataset, MissingColumn, UnknownDriver
from fleetrank.synth import SynthConfig, generate
from fleetrank.trip_data import (
    Dataset,
    DatasetSchema,
    chunk_rows,
    load_dataset,
    save_dataset,
)

HEADER = "trip_id,driver_id,grade,load,overspeed,overrpm,total_mpg,fuel\n"
CHUNK = chunk_rows(8)  # rows per chunk of the simple schema's 8 columns


def write_trips(path, n_rows, bad=None, ids=None):
    """``n_rows`` valid simple-schema rows; ``bad`` maps a 1-based row to its grade cell,
    ``ids`` to its trip id (``t<row>`` otherwise)."""
    bad = bad or {}
    ids = ids or {}
    lines = [HEADER]
    for i in range(1, n_rows + 1):
        grade = bad.get(i, f"{i * 0.25}")
        lines.append(f"{ids.get(i, f't{i}')},d{i % 3},{grade},10.0,3.0,1.0,6.5,55.0\n")
    path.write_text("".join(lines), encoding="utf-8")
    return path


def same_bits(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_load_basic(simple_csv, simple_schema):
    ds = load_dataset(simple_csv, simple_schema)
    assert len(ds) == 3
    assert ds.n_drivers == 2
    assert ds.trip_ids[0] == "t1"
    np.testing.assert_array_equal(ds.env[0], [0.5, 10.0])
    np.testing.assert_array_equal(ds.behavior[1], [0.0, 2.0])
    np.testing.assert_array_equal(ds.performance[2], [7.0, 50.0])
    assert ds.driver_ids == ("d1", "d2")
    np.testing.assert_array_equal(ds.driver_codes, [0, 1, 0])


def test_driver_indices(simple_csv, simple_schema):
    ds = load_dataset(simple_csv, simple_schema)
    assert ds.driver_indices("d1") == (0, 2)
    assert ds.driver_indices("d2") == (1,)
    with pytest.raises(UnknownDriver):
        ds.driver_indices("d9")


def test_index_partition(simple_csv, simple_schema):
    ds = load_dataset(simple_csv, simple_schema)
    all_indices = sorted(i for idx in ds.driver_index.values() for i in idx)
    assert all_indices == list(range(len(ds)))


def test_column_order_independence(tmp_path, simple_csv, simple_schema):
    shuffled = tmp_path / "shuffled.csv"
    shuffled.write_text(
        "fuel,driver_id,total_mpg,overrpm,grade,trip_id,load,overspeed\n"
        "55.0,d1,6.5,1.0,0.5,t1,10.0,3.0\n"
        "60.0,d2,5.5,2.0,1.5,t2,12.0,0.0\n"
        "50.0,d1,7.0,0.0,-0.5,t3,8.0,1.0\n",
        encoding="utf-8",
    )
    a = load_dataset(simple_csv, simple_schema)
    b = load_dataset(shuffled, simple_schema)
    assert a.trip_ids == b.trip_ids
    np.testing.assert_array_equal(a.env, b.env)
    np.testing.assert_array_equal(a.behavior, b.behavior)
    np.testing.assert_array_equal(a.performance, b.performance)


def test_missing_column(tmp_path, simple_schema):
    path = tmp_path / "short.csv"
    path.write_text("trip_id,driver_id,grade,load,overspeed,total_mpg,fuel\n", encoding="utf-8")
    with pytest.raises(MissingColumn) as err:
        load_dataset(path, simple_schema)
    assert err.value.name == "overrpm"


@pytest.mark.parametrize("bad", ["abc", "inf", "nan", ""])
def test_bad_value_strict(tmp_path, simple_schema, bad):
    path = tmp_path / "bad.csv"
    path.write_text(
        "trip_id,driver_id,grade,load,overspeed,overrpm,total_mpg,fuel\n"
        f"t1,d1,{bad},10.0,3.0,1.0,6.5,55.0\n"
        "t2,d2,1.5,12.0,0.0,2.0,5.5,60.0\n",
        encoding="utf-8",
    )
    with pytest.raises(BadValue) as err:
        load_dataset(path, simple_schema)
    assert err.value.column == "grade"
    assert err.value.row == 1


def test_bad_value_lenient(tmp_path, simple_schema):
    path = tmp_path / "bad.csv"
    path.write_text(
        "trip_id,driver_id,grade,load,overspeed,overrpm,total_mpg,fuel\n"
        "t1,d1,abc,10.0,3.0,1.0,6.5,55.0\n"
        "t2,d2,1.5,12.0,0.0,2.0,5.5,60.0\n",
        encoding="utf-8",
    )
    ds = load_dataset(path, simple_schema, lenient=True)
    assert len(ds) == 1
    assert ds.skipped_rows == 1
    assert ds.trip_ids == ("t2",)


def test_empty_dataset(tmp_path, simple_schema):
    path = tmp_path / "empty.csv"
    path.write_text(
        "trip_id,driver_id,grade,load,overspeed,overrpm,total_mpg,fuel\n", encoding="utf-8"
    )
    with pytest.raises(EmptyDataset):
        load_dataset(path, simple_schema)


def test_single_row(tmp_path, simple_schema):
    path = tmp_path / "one.csv"
    path.write_text(
        "trip_id,driver_id,grade,load,overspeed,overrpm,total_mpg,fuel\n"
        "t1,d1,0.5,10.0,3.0,1.0,6.5,55.0\n",
        encoding="utf-8",
    )
    ds = load_dataset(path, simple_schema)
    assert len(ds) == 1
    assert ds.driver_index == {"d1": (0,)}


def test_roundtrip_bitwise(tmp_path):
    ds, _ = generate(SynthConfig(n_drivers=3, trips_per_driver=7, seed=9))
    out = tmp_path / "echo.csv"
    save_dataset(ds, out)
    back = load_dataset(out, ds.schema)
    assert len(back) == len(ds)
    assert back.trip_ids == ds.trip_ids
    assert back.driver_ids == ds.driver_ids
    np.testing.assert_array_equal(back.driver_codes, ds.driver_codes)
    np.testing.assert_array_equal(back.env, ds.env)
    np.testing.assert_array_equal(back.behavior, ds.behavior)
    np.testing.assert_array_equal(back.performance, ds.performance)


def test_empty_driver_id_rejected(tmp_path, simple_schema):
    path = tmp_path / "blank.csv"
    path.write_text(
        "trip_id,driver_id,grade,load,overspeed,overrpm,total_mpg,fuel\n"
        "t1,,0.5,10.0,3.0,1.0,6.5,55.0\n"
        "t2,d2,1.5,12.0,0.0,2.0,5.5,60.0\n",
        encoding="utf-8",
    )
    with pytest.raises(BadValue):
        load_dataset(path, simple_schema)
    ds = load_dataset(path, simple_schema, lenient=True)
    assert len(ds) == 1 and ds.skipped_rows == 1


def test_record_validation(simple_schema):
    def build(driver, env=(0.0, 0.0), perf=(0.0, 0.0)):
        values = np.array([[*env, 0.0, 0.0, *perf]])
        return Dataset.from_rows(simple_schema, ["t1"], [driver], values)

    with pytest.raises(ValueError):
        build("")
    with pytest.raises(ValueError):
        build("d1", env=(np.nan, 0.0))
    with pytest.raises(ValueError):
        build("d1", perf=(0.0, np.inf))
    ds = build("d1")
    with pytest.raises(ValueError):
        ds.values[0, 0] = 1.0  # the stored arrays are read-only


def test_schema_validation():
    with pytest.raises(ValueError):
        DatasetSchema(
            env_columns=("a", "b"),
            behavior_columns=("b", "c"),
            performance_columns=("total_mpg",),
        )
    with pytest.raises(ValueError):
        DatasetSchema(
            env_columns=("a",),
            behavior_columns=("b",),
            performance_columns=("mpg",),
            target_metric="total_mpg",
        )


def test_schema_json_roundtrip(tmp_path, simple_schema):
    path = tmp_path / "schema.json"
    simple_schema.save(path)
    assert DatasetSchema.load(path) == simple_schema
    assert simple_schema.metric_index == 0


def test_strict_error_past_first_chunk(tmp_path, simple_schema):
    row = CHUNK + 37
    path = write_trips(tmp_path / "late.csv", 2 * CHUNK, bad={row: "x1", row + 5: "nan"})
    with pytest.raises(BadValue) as err:
        load_dataset(path, simple_schema)
    assert (err.value.row, err.value.column, err.value.value) == (row, "grade", "x1")


def test_lenient_skips_bad_rows_in_two_chunks(tmp_path, simple_schema):
    bad = {5: "", CHUNK + 1: "inf", 2 * CHUNK + 3: "1.5.2"}
    n = 2 * CHUNK + 10
    path = write_trips(tmp_path / "mixed.csv", n, bad=bad)
    ds = load_dataset(path, simple_schema, lenient=True)
    assert ds.skipped_rows == 3
    assert ds.trip_ids == tuple(f"t{i}" for i in range(1, n + 1) if i not in bad)
    np.testing.assert_array_equal(
        ds.env[:, 0], [i * 0.25 for i in range(1, n + 1) if i not in bad]
    )
    assert ds.n_drivers == 3


def test_blank_lines_and_short_rows(tmp_path, simple_schema):
    path = tmp_path / "ragged.csv"
    path.write_text(
        HEADER + "\n"
        "t1,d1,0.5,10.0,3.0,1.0,6.5,55.0\n"
        "\n"
        "t2,d2,1.5,12.0\n"
        "t3,d1,-0.5,8.0,1.0,0.0,7.0,50.0,extra\n",
        encoding="utf-8",
    )
    # blank lines are not numbered, and a short row's missing cells are absent
    with pytest.raises(BadValue) as err:
        load_dataset(path, simple_schema)
    assert (err.value.row, err.value.column, err.value.value) == (2, "overspeed", None)
    ds = load_dataset(path, simple_schema, lenient=True)
    assert ds.trip_ids == ("t1", "t3") and ds.skipped_rows == 1


def test_repeated_trip_id_strict(tmp_path, simple_schema):
    # row CHUNK + 1 opens the second chunk and repeats the last id of the first
    ids = {CHUNK + 1: f"t{CHUNK}", CHUNK + 9: "t2"}
    path = write_trips(tmp_path / "dup.csv", 2 * CHUNK, ids=ids)
    with pytest.raises(DuplicateTripId) as err:
        load_dataset(path, simple_schema)
    assert (err.value.row, err.value.trip_id) == (CHUNK + 1, f"t{CHUNK}")
    assert str(err.value) == f"row {CHUNK + 1}: trip id 't{CHUNK}' repeats an earlier row"


def test_repeated_trip_id_lenient_keeps_first_valid_row(tmp_path, simple_schema):
    # row 2 ("t2") is unparsable, so the first valid "t2" is row CHUNK + 9 of the second chunk
    n = 2 * CHUNK + 5
    ids = {CHUNK + 1: f"t{CHUNK}", CHUNK + 9: "t2", 2 * CHUNK + 2: "t2", 2 * CHUNK + 3: "t1"}
    path = write_trips(tmp_path / "dup.csv", n, bad={2: "nan"}, ids=ids)
    ds = load_dataset(path, simple_schema, lenient=True)
    kept = [i for i in range(1, n + 1) if i not in (2, CHUNK + 1, 2 * CHUNK + 2, 2 * CHUNK + 3)]
    assert ds.skipped_rows == 4
    assert ds.trip_ids == tuple(ids.get(i, f"t{i}") for i in kept)
    np.testing.assert_array_equal(ds.env[:, 0], [i * 0.25 for i in kept])
    np.testing.assert_array_equal(ds.driver_codes, [i % 3 for i in kept])


# simple_schema is a frozen dataclass, so sharing it across examples is safe
@settings(deadline=None, max_examples=20,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    cells=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=64),
    extra_rows=st.integers(min_value=1, max_value=50),
)
def test_roundtrip_bitwise_property(tmp_path_factory, simple_schema, cells, extra_rows):
    n = CHUNK + extra_rows  # crosses a chunk boundary
    values = np.resize(np.array(cells, dtype=float), n * 6).reshape(n, 6)
    drivers = [f"d{i % 5}" for i in range(n)]
    ds = Dataset.from_rows(simple_schema, [f"t{i}" for i in range(n)], drivers, values)
    path = tmp_path_factory.mktemp("roundtrip") / "trips.csv"
    save_dataset(ds, path)
    back = load_dataset(path, simple_schema)
    assert same_bits(back.values, ds.values)  # -0.0 and subnormals included
    assert back.trip_ids == ds.trip_ids
    assert back.driver_ids == ds.driver_ids
    np.testing.assert_array_equal(back.driver_codes, ds.driver_codes)
