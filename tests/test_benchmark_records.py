"""The committed benchmark records agree with the benchmark and with their own runs."""

import json
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def test_there_are_records():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_matches_the_benchmark_and_its_runs(path):
    record = json.loads(path.read_text(encoding="utf-8"))
    assert record["workload"] in {w["name"] for w in BENCHMARK["workloads"]}
    listed = {m["name"]: m for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}
    assert record["claimed"] in record["metrics"]
    for name, metric in record["metrics"].items():
        assert name in listed, name
        assert (metric["unit"], metric["better"]) == (listed[name]["unit"], listed[name]["better"])
        for side in ("parent", "change"):
            runs = metric[side]["runs"]
            assert len(runs) == len(record["seeds"]), (name, side)
            assert metric[side]["median"] == statistics.median(runs), (name, side)
            q1, _, q3 = statistics.quantiles(runs, n=4, method="inclusive")
            assert metric[side]["quartiles"] == [q1, q3], (name, side)
        # runs pair up by seed; a tie is a win for neither side
        pairs = zip(metric["parent"]["runs"], metric["change"]["runs"])
        wins = sum(c < p if metric["better"] == "lower" else c > p for p, c in pairs)
        assert metric["change_wins"] == wins, name
