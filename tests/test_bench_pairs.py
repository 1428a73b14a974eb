"""``tools/bench_pairs.py`` summarizes alternating benchmark pairs: medians,
quartiles, wins and the verdict against the parent's spread.  These tests
feed it result lines as ``perfbench/run.py`` prints them and run no
benchmark."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _TOOL)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

_BETTER = {"work_per_s": "higher", "peak_rss_mb": "lower"}


def _line(work: float, rss: float, correct: bool = True) -> str:
    metrics = {"work_per_s": {"value": work, "unit": "1/s"}, "peak_rss_mb": {"value": rss, "unit": "MB"}}
    return json.dumps({"correct": correct, "attempted": 10, "failed": 0, "metrics": metrics})


def _runs(parent: list[float], change: list[float], rss: float = 26.0) -> list[dict]:
    runs = []
    for pair, (p, c) in enumerate(zip(parent, change)):
        for side, work in (("parent", p), ("change", c)):
            stdout = f"gregory-exact seed 101: 1 pass(es)\n{_line(work, rss)}\n"
            runs.append({"pair": pair, "side": side, "seed": 101, "result": bench_pairs.result_line(stdout)})
    return runs


def test_summary_reads_medians_quartiles_and_wins() -> None:
    parent = [100.0, 104.0, 96.0, 102.0, 98.0]
    change = [125.0, 120.0, 95.0, 130.0, 121.0]
    (work, rss) = bench_pairs.summarize(_runs(parent, change), _BETTER)
    assert work["metric"] == "work_per_s" and work["pairs"] == 5
    assert (work["parent_median"], work["change_median"]) == (100.0, 121.0)
    assert work["parent_quartiles"] == [98.0, 102.0]
    assert work["change_quartiles"] == [120.0, 125.0]
    assert work["change_wins"] == 4
    assert work["gain_pct"] == pytest.approx(21.0)
    assert work["gain_exceeds_parent_iqr"]
    # Equal memory on both sides: no win and no gain past the spread.
    assert rss["change_wins"] == 0 and rss["gain_pct"] == 0.0
    assert not rss["gain_exceeds_parent_iqr"]


def test_a_gain_inside_the_parent_spread_is_not_beyond_it() -> None:
    parent = [80.0, 120.0, 100.0, 90.0, 110.0]
    change = [101.0, 121.0, 105.0, 100.0, 111.0]
    (work, _) = bench_pairs.summarize(_runs(parent, change), _BETTER)
    assert work["change_wins"] == 5
    assert work["parent_quartiles"] == [90.0, 110.0]
    assert not work["gain_exceeds_parent_iqr"]


def test_lower_is_better_counts_a_smaller_value_as_a_win() -> None:
    runs = _runs([100.0] * 3, [100.0] * 3)
    for run, rss in zip(runs, [26.0, 25.0, 26.0, 25.5, 26.0, 27.0]):
        run["result"]["metrics"]["peak_rss_mb"]["value"] = rss
    (_, rss) = bench_pairs.summarize(runs, _BETTER)
    assert rss["change_wins"] == 2 and rss["gain_pct"] == pytest.approx(100 * 0.5 / 26)


def test_a_run_that_is_not_correct_fails_the_report(tmp_path: Path) -> None:
    runs = _runs([100.0, 101.0], [120.0, 121.0])
    text, status = bench_pairs.report(runs, _BETTER)
    assert status == 0 and "wins 2/2" in text
    runs[3]["result"]["correct"] = False
    text, status = bench_pairs.report(runs, _BETTER)
    assert status == 1 and "not correct: pair 1 change (seed 101)" in text
    # A run that printed no result line is kept as not correct and left out
    # of the medians.
    runs[3]["result"] = {"correct": False, "exit": 1}
    log = tmp_path / "runs.jsonl"
    log.write_text("".join(json.dumps(run) + "\n" for run in runs))
    assert bench_pairs.main(["--replay", str(log)]) == 1


def test_directions_come_from_the_benchmark_file() -> None:
    better = bench_pairs.directions()
    assert better["work_per_s"] == "higher"
    assert better["setup_s"] == better["peak_rss_mb"] == "lower"


def test_result_line_is_the_last_line() -> None:
    assert bench_pairs.result_line(f"noise\n{_line(1.0, 2.0)}\n")["metrics"]["work_per_s"]["value"] == 1.0
    with pytest.raises(ValueError):
        bench_pairs.result_line("")


def _lists(value: object) -> list[list]:
    """Every list inside a JSON value, at any depth."""
    if isinstance(value, dict):
        return [inner for item in value.values() for inner in _lists(item)]
    if isinstance(value, list):
        return [value, *(inner for item in value for inner in _lists(item))]
    return []


def test_json_record_holds_the_summary_and_the_runs_context(tmp_path: Path) -> None:
    runs = _runs([100.0, 104.0, 96.0], [125.0, 120.0, 95.0])
    for run in runs:
        run.update(workload="gregory-exact", commit=f"{run['side']}-sha", nproc=2, python="3.11.7")
        run["code_lines"] = {"parent": 1371, "change": 1346}[run["side"]]
    runs[2]["seed"] = runs[3]["seed"] = 102
    log, out = tmp_path / "runs.jsonl", tmp_path / "summary.json"
    log.write_text("".join(json.dumps(run) + "\n" for run in runs))
    assert bench_pairs.main(["--replay", str(log), "--json", str(out)]) == 0
    # One workload is written as a list of one, as several are.
    (record,) = json.loads(out.read_text())
    assert record == {
        "workload": "gregory-exact",
        "seeds": [101, 102],
        "pairs": 3,
        "commits": {"parent": "parent-sha", "change": "change-sha"},
        "code_lines": {"parent": 1371, "change": 1346},
        "nproc": 2,
        "python": "3.11.7",
        "peak_jobs": {"parent": {}, "change": {}},
        "summary": bench_pairs.summarize(runs, bench_pairs.directions()),
    }
    assert [row["metric"] for row in record["summary"]] == ["work_per_s", "peak_rss_mb"]
    # Each row keeps the raw values of every pair, in pair order, and the
    # pairs' seeds, so that the wins and the gain can be recounted from it.
    work, rss = record["summary"]
    assert work["values"] == {"parent": [100.0, 104.0, 96.0], "change": [125.0, 120.0, 95.0]}
    assert rss["values"] == {"parent": [26.0] * 3, "change": [26.0] * 3}
    assert work["seeds"] == rss["seeds"] == [101, 102, 101]
    assert work["change_wins"] == sum(c > p for p, c in zip(*work["values"].values())) == 2
    # Beside those, the summary's only lists are pairs of quartiles.
    rows = [{k: v for k, v in row.items() if k not in ("values", "seeds")} for row in record["summary"]]
    assert all(len(values) == 2 for values in _lists(rows))
    text, _ = bench_pairs.report(runs, bench_pairs.directions())
    assert text.splitlines()[-1] == "code lines: parent 1371  change 1346"


def test_json_record_of_a_log_without_context_leaves_it_empty() -> None:
    record = bench_pairs.record(_runs([100.0], [101.0]), _BETTER)
    assert record["commits"] == record["code_lines"] == {"parent": None, "change": None}
    text, _ = bench_pairs.report(_runs([100.0], [101.0]), _BETTER)
    assert text.splitlines()[-1] == "code lines: parent None  change None"
    assert record["workload"] is record["nproc"] is record["python"] is None
    assert (record["seeds"], record["pairs"]) == ([101], 1)


def test_code_line_total_counts_a_tree_with_this_checkouts_tool(tmp_path: Path) -> None:
    package = tmp_path / "src" / "stormerkit"
    package.mkdir(parents=True)
    (package / "a.py").write_text('"""Docstring."""\n\n# comment\nimport os\n')
    (package / "b.py").write_text("x = 1\ny = 2\n")
    (package / "notes.txt").write_text("not counted\n")
    assert bench_pairs.code_line_total(tmp_path) == 3
    spec = importlib.util.spec_from_file_location("code_lines", _TOOL.with_name("code_lines.py"))
    code_lines = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(code_lines)
    root = _TOOL.parents[1]
    src = sorted((root / "src" / "stormerkit").glob("*.py"))
    assert bench_pairs.code_line_total(root) == sum(code_lines.code_lines(path.read_text()) for path in src)


def test_each_pair_runs_every_workload_on_both_sides_in_alternating_order() -> None:
    runs = list(bench_pairs.schedule(3, ["gregory-exact", "pi-digits"], [101, 102]))
    assert runs == [
        (0, 101, "gregory-exact", "parent"), (0, 101, "gregory-exact", "change"),
        (0, 101, "pi-digits", "parent"), (0, 101, "pi-digits", "change"),
        (1, 102, "gregory-exact", "change"), (1, 102, "gregory-exact", "parent"),
        (1, 102, "pi-digits", "change"), (1, 102, "pi-digits", "parent"),
        (2, 101, "gregory-exact", "parent"), (2, 101, "gregory-exact", "change"),
        (2, 101, "pi-digits", "parent"), (2, 101, "pi-digits", "change"),
    ]
    assert bench_pairs.parse_args(["a", "b", "--workload", "gregory-exact,pi-digits"]).workload == [
        "gregory-exact", "pi-digits"
    ]
    assert bench_pairs.parse_args(["a", "b", "--workload", "pi-digits"]).workload == ["pi-digits"]


def test_a_two_workload_log_gives_one_summary_per_workload(tmp_path: Path) -> None:
    gregory, pi = _runs([100.0, 104.0, 96.0], [125.0, 120.0, 95.0]), _runs([10.0, 11.0], [9.0, 12.0], rss=18.0)
    for workload, runs in (("gregory-exact", gregory), ("pi-digits", pi)):
        for run in runs:
            run.update(workload=workload, commit=f"{run['side']}-sha", code_lines=1338, nproc=2, python="3.11.7")
    # Interleaved as run_pairs writes them: each pair runs both workloads.
    runs = [run for pair in range(3) for group in (gregory, pi) for run in group if run["pair"] == pair]
    pi[3]["result"]["correct"] = False
    log, out = tmp_path / "runs.jsonl", tmp_path / "summary.json"
    log.write_text("".join(json.dumps(run) + "\n" for run in runs))
    assert bench_pairs.main(["--replay", str(log), "--json", str(out)]) == 1
    records = json.loads(out.read_text())
    better = bench_pairs.directions()
    assert records == [bench_pairs.record(gregory, better), bench_pairs.record(pi, better)]
    assert [(r["workload"], r["pairs"], r["summary"][0]["pairs"]) for r in records] == [
        ("gregory-exact", 3, 3), ("pi-digits", 2, 2)
    ]
    assert records[0]["summary"][0]["parent_median"] == 100.0
    assert records[1]["summary"][0]["parent_median"] == 10.5
    text, status = bench_pairs.report(runs, better)
    lines = text.splitlines()
    assert status == 1
    assert [line for line in lines if line.endswith(":")] == ["gregory-exact:", "pi-digits:"]
    assert lines.index("pi-digits:") == 1 + len(records[0]["summary"])
    assert lines[-2:] == ["code lines: parent 1338  change 1338", "not correct: pi-digits pair 1 change (seed 101)"]


def _record_file(tree: Path, passes: list[dict[str, int]]) -> str:
    """Write a run.py record with one pass per {job id: maxrss_kb} into
    ``tree``'s perfbench/out, and return the stdout run.py prints with it."""
    out = tree / "perfbench" / "out"
    out.mkdir(parents=True, exist_ok=True)
    jobs = [{job: {"exit": 0, "wall_s": 1.0, "cpu_s": 1.0, "maxrss_kb": kb} for job, kb in p.items()} for p in passes]
    (out / "pi-digits-seed101-trace0.json").write_text(json.dumps({"passes": [{"jobs": j} for j in jobs]}))
    return f"pi-digits seed 101: 2 pass(es)\nrecord: perfbench/out/pi-digits-seed101-trace0.json\n{_line(1.0, 18.0)}\n"


def test_peak_job_is_the_largest_maxrss_over_all_passes(tmp_path: Path) -> None:
    stdout = _record_file(tmp_path, [
        {"pi-machin-10000": 18400, "pi-stormer1896-50000": 18900},
        {"pi-machin-10000": 19000, "pi-stormer1896-50000": 18950},
    ])
    assert bench_pairs.peak_job(stdout, tmp_path) == "pi-machin-10000"
    assert bench_pairs.peak_job("no record line\n", tmp_path) is None
    # A run whose stdout holds no record keeps no job, and is left out of
    # the counts.
    runs = _runs([100.0, 101.0, 99.0], [102.0, 103.0, 98.0])
    for run, job in zip(runs, ["a", "b", "a", "b", "c", None]):
        run["peak_job"] = job
    assert bench_pairs.peak_jobs(runs) == {"parent": {"a": 2, "c": 1}, "change": {"b": 2}}
    assert bench_pairs.record(runs, _BETTER)["peak_jobs"] == bench_pairs.peak_jobs(runs)
    text, _ = bench_pairs.report(runs, _BETTER)
    assert "peak_rss_mb set by: parent a x2, c x1  change b x2" in text.splitlines()
