"""The summary tools/bench_record.py writes into BENCH_<n>.json."""

from __future__ import annotations

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_record.py"
_SPEC = importlib.util.spec_from_file_location("bench_record", _PATH)
bench_record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_record)


def _record(wall, rss, correct=True, failed=0, probe_s=(0.003,)):
    return {
        "correct": correct,
        "attempted": 8,
        "failed": failed,
        "metrics": {"wall_ref_s": {"value": wall, "unit": "s"},
                    "peak_rss_mb": {"value": rss, "unit": "MB"}},
        "probe_s": list(probe_s),
    }


def test_summary_of_hand_made_records():
    records = [_record(w, 40.0, probe_s=(0.002, 0.004)) for w in (5.0, 1.0, 4.0, 2.0, 3.0)]
    got = bench_record.summarize(records)
    assert got["metrics"]["wall_ref_s"] == {
        "unit": "s", "median": 3.0, "q1": 2.0, "q3": 4.0, "runs": 5}
    assert got["metrics"]["peak_rss_mb"]["median"] == 40.0
    assert got["all_correct"] is True and got["failed"] == [0] * 5
    assert abs(got["host_probe_s_mean"] - 0.003) < 1e-15

    records = [_record(w, 1.0) for w in (1.0, 2.0, 3.0)] + [_record(4.0, 1.0, False, 2)]
    got = bench_record.summarize(records)
    wall = got["metrics"]["wall_ref_s"]
    assert (wall["median"], wall["q1"], wall["q3"], wall["runs"]) == (2.5, 1.75, 3.25, 4)
    assert got["all_correct"] is False and got["failed"] == [0, 0, 0, 2]

    one = bench_record.summarize([_record(2.0, 1.0)])["metrics"]["wall_ref_s"]
    assert (one["median"], one["q1"], one["q3"], one["runs"]) == (2.0, 2.0, 2.0, 1)
