"""Summaries, pairing, win counts and tree export of tools/bench_pairs.py."""

from __future__ import annotations

import importlib.util
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

END_TO_END = [{"name": "wall_ref_s", "better": "lower"}, {"name": "speed", "better": "higher"}]


def _record(wall, speed, correct=True, failed=0, probe_s=(0.003,)):
    return {
        "correct": correct,
        "failed": failed,
        "metrics": {"wall_ref_s": {"value": wall, "unit": "s"},
                    "speed": {"value": speed, "unit": "ops"}},
        "probe_s": list(probe_s),
    }


def test_summary_of_hand_made_records():
    records = [_record(w, 40.0, probe_s=(0.002, 0.004)) for w in (5.0, 1.0, 4.0, 2.0, 3.0)]
    got = bench_pairs.summarize(records)
    assert got["metrics"]["wall_ref_s"] == {
        "unit": "s", "median": 3.0, "q1": 2.0, "q3": 4.0, "runs": 5}
    assert got["metrics"]["speed"]["median"] == 40.0
    assert got["all_correct"] is True and got["failed"] == [0] * 5
    assert abs(got["host_probe_s_mean"] - 0.003) < 1e-15

    records = [_record(w, 1.0) for w in (1.0, 2.0, 3.0)] + [_record(4.0, 1.0, False, 2)]
    got = bench_pairs.summarize(records)
    wall = got["metrics"]["wall_ref_s"]
    assert (wall["median"], wall["q1"], wall["q3"], wall["runs"]) == (2.5, 1.75, 3.25, 4)
    assert got["all_correct"] is False and got["failed"] == [0, 0, 0, 2]

    one = bench_pairs.summarize([_record(2.0, 1.0)])["metrics"]["wall_ref_s"]
    assert (one["median"], one["q1"], one["q3"], one["runs"]) == (2.0, 2.0, 2.0, 1)


def test_sides_alternate_from_pair_to_pair():
    assert [bench_pairs.sides_in_order(i) for i in range(4)] == [
        ("base", "head"), ("head", "base"), ("base", "head"), ("head", "base")]


def test_wins_follow_each_metrics_direction():
    base = [_record(w, s) for w, s in ((1.0, 5.0), (1.2, 5.0), (1.1, 5.0), (1.3, 6.0), (1.0, 1.0))]
    head = [_record(w, s) for w, s in ((0.9, 6.0), (1.1, 4.0), (1.1, 5.0), (1.2, 7.0), (0.8, 6.0))]
    got = bench_pairs.compare(base, head, END_TO_END)
    wall, speed = got["comparison"]["wall_ref_s"], got["comparison"]["speed"]
    assert wall["wins"] == {"base": 0, "head": 4, "ties": 1}
    assert speed["wins"] == {"base": 1, "head": 3, "ties": 1}
    assert got["base"]["metrics"]["wall_ref_s"]["median"] == 1.1
    assert got["head"]["metrics"]["wall_ref_s"]["median"] == 1.1
    assert wall["change"] == 0.0
    assert not wall["iqr_apart"]
    assert speed["change"] == pytest.approx(0.2)
    assert got["base"]["all_correct"] and got["head"]["all_correct"]


def test_apart_quartiles_and_failed_runs_are_reported():
    base = [_record(w, 1.0) for w in (2.0, 2.1, 2.2, 2.3, 2.4)]
    head = [_record(w, 1.0) for w in (1.0, 1.1, 1.2, 1.3)] + [_record(1.4, 1.0, False, 3)]
    got = bench_pairs.compare(base, head, END_TO_END)
    wall = got["comparison"]["wall_ref_s"]
    assert wall["wins"] == {"base": 0, "head": 5, "ties": 0}
    assert wall["iqr_apart"]
    assert wall["change"] == pytest.approx(1.2 / 2.2 - 1)
    assert got["comparison"]["speed"]["wins"] == {"base": 0, "head": 0, "ties": 5}
    assert got["head"]["all_correct"] is False and got["head"]["failed"] == [0, 0, 0, 0, 3]
    lines = bench_pairs.report_lines("w", got)
    assert lines[0].startswith("w wall_ref_s: base 2.2 [2.1, 2.3]  head 1.2 [1.1, 1.3]  -45.5%")
    assert lines[0].endswith("wins base 0 head 5 ties 0  IQRs apart")
    assert lines[-1] == "w every run correct: base True, head False; failed base [0, 0, 0, 0, 0], head [0, 0, 0, 0, 3]"
    with pytest.raises(ValueError):
        bench_pairs.compare(base, head[:4], END_TO_END)


def test_export_writes_the_committed_tree(tmp_path):
    repo = tmp_path / "repo"
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@example.org", "-C", str(repo)]
    subprocess.run(["git", "init", "-q", str(repo)], check=True)
    (repo / "a.txt").write_text("one\n")
    (repo / "d").mkdir()
    (repo / "d" / "b.txt").write_text("two\n")
    subprocess.run(git + ["add", "a.txt", "d"], check=True)
    subprocess.run(git + ["commit", "-q", "-m", "one"], check=True)
    (repo / "a.txt").write_text("uncommitted\n")
    dest = tmp_path / "out"
    dest.mkdir()
    (dest / "stale.txt").write_text("old\n")
    commit = bench_pairs.export(str(repo), "HEAD", str(dest))
    assert len(commit) == 40
    assert sorted(p.name for p in dest.iterdir()) == ["a.txt", "d"]
    assert (dest / "a.txt").read_text() == "one\n"
    d_tree = subprocess.run(git + ["rev-parse", "HEAD:d"], capture_output=True, text=True,
                            check=True).stdout.strip()
    assert bench_pairs.directory_trees(str(repo), commit) == {"d": d_tree}


def test_outputs_of_one_tree_match_and_a_changed_file_is_named(tmp_path):
    commands = {"flow": "flow --seed 1 --const c",
                "translation": "simulate --flow translation --n 32 --t-end 0.01 --out out"}
    base, head = tmp_path / "base", tmp_path / "head"
    for side in (base, head):
        bench_pairs.run_outputs(str(_PATH.parents[1]), str(side), commands)
    assert (base / "flow" / "stdout").read_text() == (
        "c*k1''' + 3*a*c*k1*k1' + 6*a*c*eps1*eps2*k2*k2', -2*c*k2''' - 3*a*c*k1*k2'\n")
    assert (base / "translation" / "exit").read_text() == "0\n"
    assert sorted(p.name for p in (base / "translation" / "out").iterdir()) == [
        "k1.csv", "k2.csv", "report.json"]
    assert bench_pairs.differing_files(str(base), str(head)) == []
    k1 = head / "translation" / "out" / "k1.csv"
    k1.write_bytes(k1.read_bytes().replace(b"e", b"E", 1))
    (base / "flow" / "exit").unlink()
    assert bench_pairs.differing_files(str(base), str(head)) == [
        "flow/exit: only in head", "translation/out/k1.csv: differs"]


def test_outputs_flag_exits_one_only_when_two_revisions_differ(tmp_path, monkeypatch, capsys):
    repo = tmp_path / "repo"
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@example.org", "-C", str(repo)]
    package = repo / "src" / "nullflow"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    commits = []
    subprocess.run(["git", "init", "-q", str(repo)], check=True)
    for version in ("one", "two"):
        (package / "cli.py").write_text(
            "def main(argv):\n    open('written.txt', 'w').write('same')\n"
            "    print(%r, *argv)\n    return 0\n" % version)
        subprocess.run(git + ["add", "src"], check=True)
        subprocess.run(git + ["commit", "-q", "-m", version], check=True)
        commits.append(subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True,
                                      text=True, check=True).stdout.strip())
    monkeypatch.setattr(bench_pairs, "HERE_REPO", str(repo))
    monkeypatch.setattr(bench_pairs, "OUTPUT_COMMANDS", {"cmd": "hierarchy --upto 1"})
    argv = ["--outputs", "--scratch", str(tmp_path / "scratch"), "--base", commits[0]]
    assert bench_pairs.main(argv + ["--head", commits[0]]) == 0
    assert capsys.readouterr().out == "no difference: 1 commands compared\n"
    assert (tmp_path / "scratch" / "head-outputs" / "cmd" / "stdout").read_text() == (
        "one hierarchy --upto 1\n")
    assert bench_pairs.main(argv + ["--head", commits[1]]) == 1
    assert capsys.readouterr().out == "cmd/stdout: differs\n"
