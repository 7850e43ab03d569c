"""The two ingest tiers agree: the whole-file tier gives the csv tier's bits or errors.

``load_dataset`` reads a plain file with numpy's C text reader and any
other file with the chunked csv reader. The property test below writes
generated trips files with injected edge cases and checks, in strict and in
lenient mode, that ``load_dataset`` gives what the csv tier alone gives.
CI runs it with more examples: ``pytest tests/test_ingest_tiers.py
--hypothesis-profile ci``.
"""

from __future__ import annotations

import contextlib
import csv

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fleetrank import trip_data
from fleetrank.errors import DuplicateTripId, UnreadableFile
from fleetrank.synth import SynthConfig, generate
from fleetrank.trip_data import DatasetSchema, load_dataset, save_dataset

SCHEMA = DatasetSchema(
    env_columns=("grade", "load"),
    behavior_columns=("overspeed", "overrpm"),
    performance_columns=("total_mpg", "fuel"),
)
COLUMNS = ["trip_id", "driver_id", *SCHEMA.numeric_columns]
LIMIT = csv.field_size_limit()

FLOATS = st.floats(allow_nan=False, allow_infinity=False)  # -0.0 and subnormals included
# whitespace padding that float() and numpy's converter both strip
FORMATS = [
    repr, "{:.17g}".format, "{:.3e}".format, "{:.6f}".format, "{:+.2E}".format,
    " {!r}\xa0".format, "\x85{:.5g}\t".format,
]
# cells that float() and numpy's converter may read differently, or not at all
ODD_CELLS = [
    "1_0", "١٢", "\xa01.5\xa0", " 2.5 ", "\t-3\t", "\x1c1.0", "1.0\x1f", "1.0\x85", " 4",
    "nan", "NaN", "inf", "-Infinity", "", " ", "-0.0", "5e-324", "2.2250738585072014e-308",
    "1e400", "-1e-400", "1.5e", "0x10", "+.5", "1.", "1e5", "1,5", "1\x000",
    '"2.5"', '"1,5"', '" 3"',
]
ODD_IDS = [
    "", " t ", "\xa0x", '"q,1"', '"a""b"', '"two\nlines"', '"x"', 'a"b', "a b", "a\x0cb",
    "x" * (LIMIT + 1),  # an unquoted cell past the csv field limit
]
NEWLINES = ["\n", "\r\n", "\r"]
EDITS = [
    "bom", "order", "column", "rename", "blank", "spaces", "newline",
    "cell", "id", "duplicate", "extra", "short",
]


@st.composite
def trips_files(draw):
    """The bytes of a trips file for SCHEMA: valid rows with a few injected edge cases."""
    n = draw(st.integers(min_value=0, max_value=8))
    fmt = draw(st.sampled_from(FORMATS))
    rows = [[f"t{i}", f"d{i % 3}", *(fmt(draw(FLOATS)) for _ in range(6))] for i in range(n)]
    header = list(COLUMNS)
    ends = [draw(st.sampled_from(NEWLINES))] * (n + 1)
    extra_lines: list[tuple[int, str]] = []
    prefix = ""
    row = st.integers(min_value=0, max_value=max(n - 1, 0))
    for edit in draw(st.lists(st.sampled_from(EDITS), max_size=3)):
        if edit == "bom":  # on the trip id column, or on one that is not read
            prefix = "\ufeff"
            if draw(st.booleans()):
                header.insert(0, "note")
                rows = [["1"] + r for r in rows]
        elif edit == "order":
            order = draw(st.permutations(range(len(header))))
            header = [header[k] for k in order]
            rows = [[r[k] if k < len(r) else "" for k in order] for r in rows]
        elif edit == "column":  # a column the schema does not read, or a repeated name
            header.append(draw(st.sampled_from(["note", "grade", "trip_id"])))
            rows = [r + [fmt(draw(FLOATS))] for r in rows]
        elif edit == "rename":
            header[draw(st.integers(0, len(header) - 1))] = "renamed"
        elif edit in ("blank", "spaces"):
            extra_lines.append((draw(st.integers(0, n)), "" if edit == "blank" else "  "))
        elif edit == "newline":  # another line end, or none: two lines run together
            ends[draw(st.integers(0, n))] = draw(st.sampled_from([*NEWLINES, ""]))
        elif n and edit in ("cell", "id", "duplicate"):
            cells = rows[draw(row)]
            if edit == "cell":
                k, value = draw(st.integers(2, 7)), draw(st.sampled_from(ODD_CELLS))
            elif edit == "id":
                k, value = draw(st.integers(0, 1)), draw(st.sampled_from(ODD_IDS))
            else:
                k, value = 0, f"t{draw(row)}"  # another row's trip id
            if k < len(cells):  # a shortened row may not reach cell k
                cells[k] = value
        elif n and edit == "extra":
            rows[draw(row)].append(fmt(draw(FLOATS)))
        elif n and edit == "short":
            i = draw(row)
            rows[i] = rows[i][: draw(st.integers(0, max(len(rows[i]) - 1, 0)))]
    lines = [",".join(header)] + [",".join(r) for r in rows]
    text = [prefix]
    for i, line in enumerate(lines):
        text += [line, ends[i]]
        text += [extra + ends[i] for at, extra in extra_lines if at == i]
    data = "".join(text).encode("utf-8")
    if draw(st.integers(0, 19)) == 0:
        data = data.replace(b",", b",\xff", 1)  # a byte that is not UTF-8
    return data


def outcome(path, lenient):
    """What a load gives: the Dataset's bits and ids, or the error's type and message."""
    try:
        ds = load_dataset(path, SCHEMA, lenient=lenient)
    except Exception as exc:
        return type(exc).__name__, str(exc)
    return (
        ds.values.shape, ds.values.tobytes(), ds.trip_ids, ds.driver_ids,
        ds.driver_codes.tobytes(), ds.skipped_rows,
    )


@settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=trips_files(), lenient=st.booleans())
def test_whole_file_tier_matches_csv_tier(tmp_path_factory, data, lenient):
    path = tmp_path_factory.mktemp("tiers") / "trips.csv"
    path.write_bytes(data)
    both = outcome(path, lenient)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(trip_data, "_read_plain", lambda path, schema: None)
        csv_only = outcome(path, lenient)
    assert both == csv_only


@pytest.fixture
def tiers(monkeypatch):
    """Records which tier read each load: "plain" or "csv"."""
    taken = []
    read_plain = trip_data._read_plain

    def plain(path, schema):
        rows = read_plain(path, schema)
        taken.append("csv" if rows is None else "plain")
        return rows

    monkeypatch.setattr(trip_data, "_read_plain", plain)
    return taken


def test_saved_dataset_takes_whole_file_tier(tmp_path, tiers):
    ds, _ = generate(SynthConfig(n_drivers=3, trips_per_driver=7, seed=9))
    path = tmp_path / "saved.csv"
    save_dataset(ds, path)
    back = load_dataset(path, ds.schema)
    assert tiers == ["plain"]
    assert back.values.tobytes() == ds.values.tobytes()
    assert back.trip_ids == ds.trip_ids and back.driver_ids == ds.driver_ids


ROW = "t{},d1,0.5,10.0,3.0,1.0,6.5,55.0\n"
HEADER = ",".join(COLUMNS) + "\n"


def test_blank_lines_line_ends_and_padding_take_whole_file_tier(tmp_path, tiers):
    path = tmp_path / "trips.csv"
    rows = [ROW.format(1), "\n", ROW.format(2).replace("\n", "\r\n"), "\r\n",
            ROW.format(3).replace("\n", "\r"), ROW.format(4).replace("0.5", "\xa00.25 ")]
    path.write_text(HEADER + "".join(rows), encoding="utf-8", newline="")
    plain = outcome(path, lenient=False)
    assert tiers == ["plain"]
    assert plain[2] == ("t1", "t2", "t3", "t4")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(trip_data, "_read_plain", lambda path, schema: None)
        assert outcome(path, lenient=False) == plain


@pytest.mark.parametrize(
    "rows",
    [
        [ROW.format(1), ROW.format('"2"')],  # a quote
        [ROW.format(1), ROW.format(2).replace("0.5", "x")],  # a bad cell
        [ROW.format(1), ROW.format(2).replace("0.5", "1_0")],  # float() reads it, numpy does not
        [ROW.format(1), ROW.format(2).replace("d1", "")],  # an empty driver id
        [ROW.format(1), ROW.format("x" * (LIMIT - 9))],  # a line, not a cell, past the limit
        [ROW.format(1), ROW.format(2).replace("0.5", "\x1c0.5")],  # numpy strips 0x1C, float() not
        [ROW.format(1), ROW.format("\0")],  # NUL, which Python 3.10's csv module rejects
    ],
    ids=["quote", "bad-cell", "underscore", "empty-driver", "long-line", "separator", "nul"],
)
def test_unplain_file_takes_csv_tier(tmp_path, tiers, rows):
    path = tmp_path / "trips.csv"
    path.write_text(HEADER + "".join(rows), encoding="utf-8")
    with contextlib.suppress(UnreadableFile):  # Python 3.10's csv module rejects NUL
        load_dataset(path, SCHEMA, lenient=True)
    assert tiers == ["csv"]


def test_duplicate_trip_id_is_checked_on_whole_file_rows(tmp_path, tiers):
    path = tmp_path / "trips.csv"
    path.write_text(HEADER + ROW.format(1) + ROW.format(2) + ROW.format(1), encoding="utf-8")
    with pytest.raises(DuplicateTripId, match="row 3: trip id 't1' repeats an earlier row"):
        load_dataset(path, SCHEMA)
    ds = load_dataset(path, SCHEMA, lenient=True)
    assert ds.trip_ids == ("t1", "t2") and ds.skipped_rows == 1
    assert tiers == ["plain", "plain"]

