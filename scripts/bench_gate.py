#!/usr/bin/env python3
"""Judge a change against its parent with the repository's benchmark.

Usage:
    scripts/bench_gate.py PARENT_TREE CHANGE_TREE --pairs N --seconds S
    scripts/bench_gate.py --selftest

PARENT_TREE and CHANGE_TREE are two checkouts of the repository (CI
puts the parent commit in a git worktree). For every workload the
change's BENCHMARK.json declares, the gate runs

    bash <tree>/bench/suite/run.sh --workload W --seed 42 --trace 0 \\
        --seconds S

N times on each tree, alternating which tree runs first, and reads
the result line each run prints last (bench/suite/README.md). It
fails (exit 1) when

* the change's median of an ``end_to_end`` metric is worse than the
  parent's median by more than that metric's ``bound``, as a share of
  the parent's median;
* the change's failed/attempted share of a workload's operations is
  higher than the parent's; or
* a run prints no result line, or the change's result lacks a
  metric its BENCHMARK.json declares.

It prints one row per workload and metric: each tree's median and
quartiles, the ratio change/parent, the bound and the verdict, and
whether the runs' ``sim_digest`` values are the same on both trees.
A workload missing from the parent's BENCHMARK.json, or a metric the
parent's runs do not report, is listed as ``new`` and not gated.
The bounds come only from the change's BENCHMARK.json.

Exit status: 0 = pass, 1 = regression, 2 = usage or input error.
``--selftest`` judges synthetic result lines and needs no build.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def parse_output(stdout, stderr=""):
    """A run's (result, info) from its standard output: the last line
    is the result object, the line before it the info line that
    carries sim_digest. result is None when there is no result line;
    info is then the output's last lines, for the report."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    parsed = []
    for line in lines[-2:]:
        try:
            parsed.append(json.loads(line))
        except json.JSONDecodeError:
            parsed.append(None)
    result = parsed[-1] if parsed else None
    if not isinstance(result, dict) or "metrics" not in result:
        return None, "\n".join((stderr.splitlines() + lines)[-5:])
    info = parsed[0] if len(parsed) == 2 else None
    return result, info if isinstance(info, dict) else {}


def run_once(tree, workload, seconds):
    """Run one workload on one tree: its (result, info)."""
    proc = subprocess.run(
        ["bash", os.path.join(tree, "bench", "suite", "run.sh"),
         "--workload", workload, "--seed", "42", "--trace", "0",
         "--seconds", f"{seconds:g}"],
        capture_output=True, text=True)
    return parse_output(proc.stdout, proc.stderr)


def load_spec(tree):
    """The tree's BENCHMARK.json, or None when it has none."""
    path = os.path.join(tree, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as handle:
        return json.load(handle)


def summary(values):
    """(median, lower quartile, upper quartile) of *values*."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4,
                                          method="inclusive")
    return median, q1, q3


def worsening(metric, parent, change):
    """How much worse *change* is than *parent*, as a share of
    *parent*, in the metric's better direction."""
    if parent == 0:
        worse = change < 0 if metric["better"] == "higher" else change > 0
        return float("inf") if worse else 0.0
    if metric["better"] == "higher":
        return (parent - change) / parent
    return (change - parent) / parent


def judge(workload, metrics, parent_runs, change_runs):
    """Judge one workload's (result, info) runs. *parent_runs* is None
    when the parent does not declare the workload. Returns (rows,
    problems): one table row per metric, and one message per gate the
    workload fails."""
    problems = []
    ok = {}
    for side, runs in (("parent", parent_runs or []),
                       ("change", change_runs)):
        for result, info in runs:
            if result is None:
                problems.append(f"{workload}: a {side} run printed no "
                                f"result line:\n{info}")
        ok[side] = [(r, i) for r, i in runs if r is not None]
    digests = {side: {i.get("sim_digest") for _, i in runs}
               for side, runs in ok.items()}
    if None in digests["parent"] | digests["change"] or \
            not digests["parent"] or not digests["change"]:
        digest = "-"
    else:
        digest = ("same" if digests["parent"] == digests["change"]
                  else "differs")

    rows = []
    for metric in metrics:
        name = metric["name"]
        values = {side: [r["metrics"][name]["value"] for r, _ in runs
                         if name in r["metrics"]]
                  for side, runs in ok.items()}
        row = {"workload": workload, "metric": name,
               "bound": metric["bound"], "digest": digest,
               "ratio": None}
        for side in ("parent", "change"):
            row[side] = summary(values[side]) if values[side] else None
        if row["change"] is None:
            row["verdict"] = "missing"
            if ok["change"]:
                problems.append(
                    f"{workload}: the change does not report {name}")
        elif parent_runs is None or row["parent"] is None:
            row["verdict"] = "new"
        else:
            parent, change = row["parent"][0], row["change"][0]
            worse = worsening(metric, parent, change)
            row["ratio"] = change / parent if parent else float("inf")
            row["verdict"] = "ok" if worse <= metric["bound"] else "FAIL"
            if row["verdict"] == "FAIL":
                problems.append(
                    f"{workload}: {name} median is {worse:.1%} worse "
                    f"than the parent's (bound {metric['bound']:.0%})")
        rows.append(row)

    if parent_runs is not None:
        counts = {side: (sum(r.get("failed", 0) for r, _ in runs),
                         sum(r.get("attempted", 0) for r, _ in runs))
                  for side, runs in ok.items()}
        share = {side: failed / attempted if attempted else 0.0
                 for side, (failed, attempted) in counts.items()}
        if share["change"] > share["parent"]:
            problems.append(
                f"{workload}: %d/%d operations failed, parent %d/%d"
                % (counts["change"] + counts["parent"]))
    return rows, problems


def print_table(rows, out=sys.stdout):
    def cell(stats):
        return "-" if stats is None else "%.4g [%.4g, %.4g]" % stats

    table = [("workload", "metric", "parent median [q1, q3]",
              "change median [q1, q3]", "ratio", "bound", "verdict",
              "sim_digest")]
    for row in rows:
        ratio = row["ratio"]
        table.append((row["workload"], row["metric"],
                      cell(row["parent"]), cell(row["change"]),
                      "-" if ratio is None else f"{ratio:.3f}",
                      f"{row['bound']:g}", row["verdict"],
                      row["digest"]))
    widths = [max(len(line[i]) for line in table)
              for i in range(len(table[0]))]
    for line in table:
        print("  ".join(c.ljust(w) for c, w in zip(line, widths))
              .rstrip(), file=out)


def gate(parent_tree, change_tree, pairs, seconds):
    spec = load_spec(change_tree)
    if spec is None:
        raise ValueError(f"{change_tree}: no BENCHMARK.json")
    parent_spec = load_spec(parent_tree) or {"workloads": []}
    parent_workloads = {w["name"] for w in parent_spec["workloads"]}
    rows, problems = [], []
    for workload in (w["name"] for w in spec["workloads"]):
        known = workload in parent_workloads
        runs = {"parent": [], "change": []}
        for pair in range(pairs):
            sides = ["change"]
            if known:
                sides = (["parent", "change"] if pair % 2 == 0
                         else ["change", "parent"])
            for side in sides:
                tree = parent_tree if side == "parent" else change_tree
                runs[side].append(run_once(tree, workload, seconds))
                print(f"bench_gate: {workload} pair {pair + 1}/{pairs} "
                      f"{side}: "
                      f"{'ok' if runs[side][-1][0] else 'no result'}",
                      file=sys.stderr, flush=True)
        workload_rows, workload_problems = judge(
            workload, spec["end_to_end"],
            runs["parent"] if known else None, runs["change"])
        rows += workload_rows
        problems += workload_problems
    print_table(rows)
    for problem in problems:
        print(f"FAIL: {problem}")
    if not problems:
        print(f"OK: {len(rows)} rows, {pairs} pairs of {seconds:g} s "
              "runs per workload")
    return 1 if problems else 0


def selftest():
    metrics = [
        {"name": "refs_per_s", "better": "higher", "bound": 0.25},
        {"name": "setup_s", "better": "lower", "bound": 0.25},
        {"name": "peak_rss_mb", "better": "lower", "bound": 0.2},
    ]

    def output(refs=1e6, setup=0.01, rss=30.0, failed=0, digest="d"):
        values = {"refs_per_s": refs, "setup_s": setup,
                  "peak_rss_mb": rss}
        result = {"correct": failed == 0, "attempted": 10,
                  "failed": failed,
                  "metrics": {k: {"value": v, "unit": "-"}
                              for k, v in values.items()
                              if v is not None}}
        info = {"workload": "w", "sim_digest": digest}
        return ("pomtlb_bench: workload=w\n  refs_per_s 1 1/s n=1\n"
                + json.dumps(info) + "\n" + json.dumps(result) + "\n")

    def runs(*outputs):
        return [parse_output(text) for text in outputs]

    def verdict(parent, change):
        rows, problems = judge("w", metrics, parent, change)
        return {row["metric"]: row["verdict"] for row in rows}, problems

    same = runs(output(), output(), output())
    verdicts, problems = verdict(same, runs(output(), output(), output()))
    assert problems == [] and set(verdicts.values()) == {"ok"}, verdicts

    # Medians, not means: one slow run of three does not fail.
    _, problems = verdict(same, runs(output(refs=0.1e6), output(),
                                     output()))
    assert problems == [], problems

    # Each end-to-end metric fails past its own bound, in its own
    # direction, and passes inside it.
    for change, name in ((output(refs=0.7e6), "refs_per_s"),
                         (output(setup=0.013), "setup_s"),
                         (output(rss=36.1), "peak_rss_mb")):
        verdicts, problems = verdict(same, runs(change, change, change))
        assert verdicts[name] == "FAIL" and len(problems) == 1, verdicts
        assert name in problems[0], problems
    for change in (output(refs=0.8e6), output(setup=0.012),
                   output(rss=35.9), output(refs=5e6, setup=0.001)):
        _, problems = verdict(same, runs(change, change, change))
        assert problems == [], problems

    # A higher failed/attempted share fails; an equal one does not.
    _, problems = verdict(same, runs(output(), output(failed=1),
                                     output()))
    assert len(problems) == 1 and "1/30" in problems[0], problems
    flaky = runs(output(failed=1), output(), output())
    _, problems = verdict(flaky, runs(output(), output(),
                                      output(failed=1)))
    assert problems == [], problems

    # A run with no result line fails, on either side.
    for broken in ("", "build failed\n", '{"workload": "w"}\n'):
        _, problems = verdict(same, runs(output(), broken, output()))
        assert any("change run" in p for p in problems), problems
        _, problems = verdict(runs(broken, output()),
                              runs(output(), output()))
        assert any("parent run" in p for p in problems), problems

    # A workload the parent does not declare, or a metric its runs do
    # not report, is new and not gated.
    verdicts, problems = verdict(None, runs(output(refs=1.0)))
    assert problems == [] and set(verdicts.values()) == {"new"}, verdicts
    no_rss = runs(output(rss=None), output(rss=None))
    verdicts, problems = verdict(no_rss, runs(output(rss=99.0),
                                              output(rss=99.0)))
    assert verdicts["peak_rss_mb"] == "new" and problems == [], verdicts
    # ... but a metric the change stops reporting fails.
    verdicts, problems = verdict(same, runs(output(rss=None)))
    assert verdicts["peak_rss_mb"] == "missing" and problems, verdicts

    # sim_digest equality is reported, not gated.
    rows, problems = judge("w", metrics, same,
                           runs(output(digest="e"), output(digest="e")))
    assert problems == [] and rows[0]["digest"] == "differs", rows
    rows, _ = judge("w", metrics, same, runs(output()))
    assert rows[0]["digest"] == "same", rows

    # A zero parent median: only a move in the worse direction fails.
    assert worsening(metrics[0], 0.0, 5.0) == 0.0
    assert worsening(metrics[1], 0.0, 5.0) == float("inf")

    # Quartiles of an odd and an even sample; one run is its own.
    assert summary([1.0, 2.0, 3.0]) == (2.0, 1.5, 2.5)
    assert summary([1.0, 2.0, 3.0, 4.0]) == (2.5, 1.75, 3.25)
    assert summary([5.0]) == (5.0, 5.0, 5.0)

    print("bench_gate selftest: OK")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", nargs="?", help="the parent's tree")
    parser.add_argument("change", nargs="?", help="the change's tree")
    parser.add_argument("--pairs", type=int, default=3,
                        help="runs of each tree per workload "
                             "(default 3)")
    parser.add_argument("--seconds", type=float, default=10,
                        help="--seconds of each run (default 10)")
    parser.add_argument("--selftest", action="store_true",
                        help="judge synthetic result lines and exit")
    args = parser.parse_args(argv)

    if args.selftest:
        return selftest()
    if not args.parent or not args.change:
        parser.error("PARENT_TREE and CHANGE_TREE are required")
    if args.pairs < 1 or args.seconds <= 0:
        parser.error("--pairs must be at least 1 and --seconds "
                     "positive")
    try:
        return gate(args.parent, args.change, args.pairs, args.seconds)
    except (OSError, ValueError, KeyError) as error:
        print(f"bench_gate: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
