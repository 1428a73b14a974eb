"""Run the benchmark in alternating pairs on two revisions and compare them.

    python tools/bench_pairs.py PARENT CHANGE --workload NAME[,NAME...]
        [--pairs N] [--seeds 101,102,9001] [--log FILE] [--json FILE]
    python tools/bench_pairs.py --replay FILE [--json FILE]

PARENT and CHANGE are any git revisions of this repository.  Each is checked
out as a detached ``git worktree``, the two side by side in one new
temporary directory, so that both sides run from sibling checkouts built the
same way.  Pair i runs

    python3 perfbench/run.py --workload NAME --seed S --seconds T --trace 0

once in each checkout for every listed workload NAME, S cycling through the
seeds and T being ``BENCHMARK.json``'s ``run_seconds`` (22).  For each
workload the parent runs first in even pairs and second in odd ones, so a
drift in the host's speed falls on both sides alike.
``PYTHONDONTWRITEBYTECODE=1`` is set for every run, so neither side reads
bytecode that the other side's runs or an older tree left behind.  The
worktrees are removed at the end.

For each workload and each end-to-end metric of ``BENCHMARK.json`` the
summary gives both medians, the quartiles of both sides, the pairs the
change wins in the metric's better direction, the median gain, and whether
that gain exceeds the parent's interquartile range; each row also keeps the
raw per-pair values of both sides and the seed of each pair, so that the
verdict can be recomputed from it.  The exit status is 1
if any run did not report ``correct: true``.  ``--log`` writes one JSON line
per run, and ``--replay`` summarizes such a log again without running
anything.  ``--json`` writes the summary of a workload as one JSON object:
the rows, the workload, the seeds, the pair count, both revisions resolved
to commits, each side's code-line total, and the host's processor count and
Python version, all read from the runs.  With
several workloads it writes a list of these objects, in the order given,
and the text summary heads each workload's rows with its name; with one,
neither has a list or a heading.  The code-line totals are counted in each
worktree's ``src/stormerkit`` by this checkout's ``tools/code_lines.py``,
and the text summary gives them after its rows; a log that predates them
gives None.

After each run the tool reads the record whose path run.py prints
(``record: perfbench/out/...``) and keeps the id of the job with the
largest ``maxrss_kb`` over all its passes: the job that set
``peak_rss_mb``.  The text summary and the ``--json`` object's
``peak_jobs`` give, for each workload and side, each such job and the
number of runs whose peak it set; a log that predates them gives none.

Only the standard library and git are used.  The tool reads ``perfbench/``
and ``BENCHMARK.json`` and changes neither.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path
from typing import Iterator

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = ROOT / "BENCHMARK.json"
SIDES = ("parent", "change")


def directions() -> dict[str, str]:
    """metric -> "higher" or "lower", the better direction of each
    end-to-end metric."""
    return {m["name"]: m["better"] for m in json.loads(BENCHMARK.read_text())["end_to_end"]}


def result_line(stdout: str) -> dict:
    """The result object run.py prints as the last line of its stdout."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("run.py printed nothing")
    return json.loads(lines[-1])


def peak_job(stdout: str, tree: Path) -> str | None:
    """The id of the job with the largest ``maxrss_kb`` over all passes of
    the record that run.py, run in ``tree``, names on its stdout, or None
    if it names none or the record has no passes."""
    path = next((line.split(": ", 1)[1] for line in stdout.splitlines() if line.startswith("record: ")), None)
    if path is None:
        return None
    peaks: dict[str, int] = {}
    for figures in json.loads((tree / path).read_text()).get("passes", []):
        for job_id, job in figures["jobs"].items():
            peaks[job_id] = max(peaks.get(job_id, 0), job["maxrss_kb"])
    return max(peaks, key=peaks.__getitem__) if peaks else None


def peak_jobs(runs: list[dict]) -> dict[str, dict[str, int]]:
    """side -> {job id: the number of runs whose peak_rss_mb it set}, the
    most frequent first; runs without a ``peak_job`` are left out."""
    return {
        side: dict(Counter(r["peak_job"] for r in runs if r["side"] == side and r.get("peak_job")).most_common())
        for side in SIDES
    }


def quartiles(values: list[float]) -> tuple[float, float]:
    """(Q1, Q3), interpolated between the sorted values."""
    if len(values) == 1:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(runs: list[dict], better: dict[str, str]) -> list[dict]:
    """One row per metric that every pair of ``runs`` reports, over the
    pairs in which both sides reported metrics; a run is a record {"pair",
    "side", "seed", "result", ...}.  A row's ``values`` are each side's
    values in pair order, and its ``seeds`` the pairs' seeds."""
    by_pair: dict[int, dict[str, dict]] = {}
    for run in runs:
        by_pair.setdefault(run["pair"], {})[run["side"]] = run
    pairs = [
        sides for _, sides in sorted(by_pair.items())
        if set(sides) == set(SIDES) and all("metrics" in run["result"] for run in sides.values())
    ]
    rows = []
    for name, direction in better.items():
        if not pairs or any(name not in p[side]["result"]["metrics"] for p in pairs for side in SIDES):
            continue
        values = {side: [p[side]["result"]["metrics"][name]["value"] for p in pairs] for side in SIDES}
        sign = 1 if direction == "higher" else -1
        parent, change = (statistics.median(values[side]) for side in SIDES)
        q1, q3 = quartiles(values["parent"])
        gain = sign * (change - parent)
        rows.append({
            "metric": name,
            "better": direction,
            "pairs": len(pairs),
            "parent_median": parent,
            "change_median": change,
            "parent_quartiles": [q1, q3],
            "change_quartiles": list(quartiles(values["change"])),
            "change_wins": sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"])),
            "gain_pct": 100 * gain / parent if parent else 0.0,
            "gain_exceeds_parent_iqr": gain > q3 - q1,
            "values": values,
            "seeds": [p["parent"]["seed"] for p in pairs],
        })
    return rows


def by_workload(runs: list[dict]) -> dict[str | None, list[dict]]:
    """workload -> its runs, the workloads in the order they first appear;
    a log that predates the field is the one workload None."""
    groups: dict[str | None, list[dict]] = {}
    for run in runs:
        groups.setdefault(run.get("workload"), []).append(run)
    return groups


def report(runs: list[dict], better: dict[str, str]) -> tuple[str, int]:
    """The summary as text, and the exit status: 1 if a run was not
    correct, 0 otherwise."""
    groups = by_workload(runs)
    lines, wrong = [], []
    for workload, group in groups.items():
        head = f"{workload} " if len(groups) > 1 else ""
        if head:
            lines.append(f"{workload}:")
        wrong += [f"{head}pair {r['pair']} {r['side']} (seed {r['seed']})"
                  for r in group if r["result"].get("correct") is not True]
        lines += [
            f"{row['metric']:<12} ({row['better']} is better) parent {row['parent_median']:.6g} "
            f"[{row['parent_quartiles'][0]:.6g}, {row['parent_quartiles'][1]:.6g}]  change {row['change_median']:.6g} "
            f"[{row['change_quartiles'][0]:.6g}, {row['change_quartiles'][1]:.6g}]  gain {row['gain_pct']:+.1f}%  "
            f"wins {row['change_wins']}/{row['pairs']}  beyond parent IQR: {'yes' if row['gain_exceeds_parent_iqr'] else 'no'}"
            for row in summarize(group, better)
        ]
        jobs = peak_jobs(group)
        if any(jobs.values()):
            lines.append("peak_rss_mb set by: " + "  ".join(
                f"{side} " + ", ".join(f"{job} x{count}" for job, count in counts.items())
                for side, counts in jobs.items()
            ))
    lines.append("code lines: " + "  ".join(f"{side} {total}" for side, total in per_side(runs, "code_lines").items()))
    lines += [f"not correct: {w}" for w in wrong]
    return "\n".join(lines), 1 if wrong else 0


def per_side(runs: list[dict], key: str) -> dict[str, object]:
    """side -> the value of ``key`` in that side's first run, or None."""
    return {side: next((r.get(key) for r in runs if r["side"] == side), None) for side in SIDES}


def record(runs: list[dict], better: dict[str, str]) -> dict:
    """The ``--json`` object for ``runs``.  Each field but the summary is
    read from the runs, so a replayed log gives what its runs recorded, and
    None where a log predates the field."""
    first = runs[0] if runs else {}
    return {
        "workload": first.get("workload"),
        "seeds": list(dict.fromkeys(run["seed"] for run in runs)),
        "pairs": len({run["pair"] for run in runs}),
        "commits": per_side(runs, "commit"),
        "code_lines": per_side(runs, "code_lines"),
        "nproc": first.get("nproc"),
        "python": first.get("python"),
        "peak_jobs": peak_jobs(runs),
        "summary": summarize(runs, better),
    }


def code_line_total(tree: Path) -> int:
    """The code lines of ``tree``'s src/stormerkit, by this checkout's
    tools/code_lines.py, whose last line is "total N"."""
    tool = Path(__file__).with_name("code_lines.py")
    done = subprocess.run([sys.executable, str(tool), str(tree / "src" / "stormerkit")],
                          check=True, capture_output=True, text=True)
    return int(done.stdout.split()[-1])


def _git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True, capture_output=True, text=True).stdout


def schedule(pairs: int, workloads: list[str], seeds: list[int]) -> Iterator[tuple[int, int, str, str]]:
    """(pair, seed, workload, side) of each run, in the order run: every
    workload on both sides in each pair, the parent first in even pairs."""
    for pair in range(pairs):
        for workload in workloads:
            for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
                yield pair, seeds[pair % len(seeds)], workload, side


def run_pairs(args: argparse.Namespace, log) -> list[dict]:
    """Run the pairs in two fresh worktrees of PARENT and CHANGE under one
    temporary directory, writing each run to ``log`` as it ends."""
    seconds = json.loads(BENCHMARK.read_text())["run_seconds"]
    base = Path(tempfile.mkdtemp(prefix="bench_pairs-"))
    trees = {side: base / side for side in SIDES}
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    revs = (args.parent, args.change)
    commits = {side: _git("rev-parse", "--verify", f"{rev}^{{commit}}").strip() for side, rev in zip(SIDES, revs)}
    host = {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version()}
    runs = []
    try:
        for side in SIDES:
            _git("worktree", "add", "--detach", str(trees[side]), commits[side])
        lines = {side: code_line_total(trees[side]) for side in SIDES}
        for pair, seed, workload, side in schedule(args.pairs, args.workload, args.seeds):
            cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"]
            done = subprocess.run(cmd, cwd=trees[side], env=env, capture_output=True, text=True)
            try:
                result = result_line(done.stdout)
            except ValueError:
                result = {"correct": False, "exit": done.returncode, "stderr": done.stderr[-2000:]}
            run = {"pair": pair, "side": side, "seed": seed, "workload": workload, "commit": commits[side],
                   "code_lines": lines[side], **host, "peak_job": peak_job(done.stdout, trees[side]),
                   "result": result}
            runs.append(run)
            log.write(json.dumps(run) + "\n")
            log.flush()
            print(f"pair {pair} {workload} {side} seed {seed}: {json.dumps(result.get('metrics', result))}",
                  file=sys.stderr)
    finally:
        for tree in trees.values():
            if tree.exists():
                _git("worktree", "remove", "--force", str(tree))
        base.rmdir()
    return runs


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", nargs="?")
    parser.add_argument("change", nargs="?")
    parser.add_argument("--workload", type=lambda text: text.split(","), help="one or more names, comma-separated")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seeds", type=lambda text: [int(s) for s in text.split(",")], default=[101, 102, 9001])
    parser.add_argument("--log", help="write one JSON line per run to this file")
    parser.add_argument("--replay", help="summarize a --log file instead of running")
    parser.add_argument("--json", help="write the summary as one JSON object to this file")
    args = parser.parse_args(argv)
    if not args.replay and not (args.parent and args.change and args.workload):
        parser.error("PARENT, CHANGE and --workload are required unless --replay is given")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    return args


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if args.replay:
        runs = [json.loads(line) for line in Path(args.replay).read_text().splitlines() if line.strip()]
    else:
        with open(args.log, "a") if args.log else open(os.devnull, "w") as log:
            runs = run_pairs(args, log)
    better = directions()
    text, status = report(runs, better)
    print(text)
    if args.json:
        records = [record(group, better) for group in by_workload(runs).values()]
        Path(args.json).write_text(json.dumps(records[0] if len(records) == 1 else records, indent=1) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
