#!/usr/bin/env python3
"""Compare two pomtlb-bench-v1 documents and fail on regressions.

Usage:
    check_bench.py --baseline BENCH_throughput.json \
                   --current  new.json [--tolerance 0.20] \
                   [--no-calibration]

For every (benchmark, scheme) cell present in both documents, and for
the sweep experiments/sec figure, the checker computes

    ratio = current_rate / baseline_rate

after dividing each rate by its document's ``calibration_mops`` (a
fixed pure-ALU loop timed on the same host at the same moment), so a
slower CI runner does not trip the gate and a faster one does not
mask a real regression. ``--no-calibration`` compares raw rates, for
same-host runs.

The pass/fail decision is taken on the **geometric mean** of the
ratios, not per cell: individual short cells on a shared runner can
swing tens of percent either way, but uncorrelated noise largely
cancels in the geomean while a genuine hot-path regression drags
every cell down together. The run fails when

    geomean(ratios) < 1 - tolerance        (default tolerance 0.20)

Per-cell ratios are still printed, with a ``low`` marker on cells
under the threshold, so a localized regression is visible even when
the geomean passes. Exit status: 0 = pass, 1 = regression, 2 =
usage/format error.

Run ``check_bench.py --selftest`` to exercise the comparison logic
with synthetic documents (no input files needed); the test suite
invokes this.
"""

import argparse
import json
import math
import sys


BENCH_SCHEMA = "pomtlb-bench-v1"

#: Schema families other pomtlb tools emit, with a hint for each, so
#: handing this checker the wrong artifact names the actual fix
#: instead of a bare mismatch.
FOREIGN_SCHEMAS = {
    "pomtlb-sweep": "a sweep result — plot it with "
                    "scripts/plot_results.py",
    "pomtlb-sweepcache": "an on-disk sweep-cache entry — plot it "
                         "with scripts/plot_results.py",
    "pomtlb-serve": "a serve event stream — plot it with "
                    "scripts/plot_results.py",
    "pomtlb-stats": "a single-run stats export — plot it with "
                    "scripts/plot_results.py --breakdown",
}


def check_schema(path, schema):
    """Raise ValueError naming *path* unless *schema* is the bench
    schema this checker understands."""
    if schema == BENCH_SCHEMA:
        return
    if isinstance(schema, str):
        family = schema.rsplit("-v", 1)[0]
        hint = FOREIGN_SCHEMAS.get(family)
        if hint is not None:
            raise ValueError(
                f"{path}: {schema!r} is {hint}; this checker "
                f"compares {BENCH_SCHEMA} documents "
                "(bench_throughput --json)")
        if family == BENCH_SCHEMA.rsplit("-v", 1)[0]:
            raise ValueError(
                f"{path}: unsupported bench schema version "
                f"{schema!r}; this checker understands "
                f"{BENCH_SCHEMA} only — regenerate the baseline "
                "with the matching bench_throughput")
    raise ValueError(
        f"{path}: expected schema {BENCH_SCHEMA}, "
        f"got {schema!r}")


def load(path):
    with open(path) as handle:
        try:
            doc = json.load(handle)
        except json.JSONDecodeError as error:
            raise ValueError(
                f"{path}: not a JSON document ({error}); a JSONL "
                "serve stream is plottable with "
                "scripts/plot_results.py, not comparable here")
    check_schema(path, doc.get("schema"))
    return doc


def cells(doc):
    """Map (benchmark, scheme) -> refs_per_sec."""
    return {(row["benchmark"], row["scheme"]): row["refs_per_sec"]
            for row in doc.get("throughput", [])}


def compare(baseline, current, use_calibration=True):
    """Return (rows, geomean) comparing two parsed documents.

    rows: list of (label, base_rate, cur_rate, normalised_ratio).
    geomean: geometric mean of the ratios (1.0 when rows is empty).
    """
    scale = 1.0
    if use_calibration:
        base_cal = baseline.get("calibration_mops")
        cur_cal = current.get("calibration_mops")
        if not base_cal or not cur_cal:
            raise ValueError("calibration_mops missing; rerun the "
                             "bench or pass --no-calibration")
        # ratio = (cur/cur_cal) / (base/base_cal)
        scale = base_cal / cur_cal

    rows = []
    base_cells = cells(baseline)
    cur_cells = cells(current)
    for key in sorted(base_cells):
        if key not in cur_cells:
            continue
        label = f"{key[0]}/{key[1]}"
        ratio = cur_cells[key] / base_cells[key] * scale
        rows.append((label, base_cells[key], cur_cells[key], ratio))

    base_sweep = baseline.get("sweep", {}).get("experiments_per_sec")
    cur_sweep = current.get("sweep", {}).get("experiments_per_sec")
    if base_sweep and cur_sweep:
        ratio = cur_sweep / base_sweep * scale
        rows.append(("sweep", base_sweep, cur_sweep, ratio))

    # Trace-replay ingest (bench_throughput --trace): the pack rate
    # gates like any other cell when present in both documents.
    base_rate = baseline.get("trace", {}).get("pack_refs_per_sec")
    cur_rate = current.get("trace", {}).get("pack_refs_per_sec")
    if base_rate and cur_rate:
        rows.append(("trace-pack", base_rate, cur_rate,
                     cur_rate / base_rate * scale))

    if rows:
        geomean = math.exp(
            sum(math.log(r[3]) for r in rows) / len(rows))
    else:
        geomean = 1.0
    return rows, geomean


def report(rows, geomean, tolerance, out=sys.stdout):
    threshold = 1.0 - tolerance
    width = max((len(label) for label, *_ in rows), default=8)
    for label, base, cur, ratio in rows:
        flag = "low" if ratio < threshold else "ok"
        print(f"{label:<{width}}  base={base:>12.0f}  "
              f"cur={cur:>12.0f}  ratio={ratio:5.2f}  {flag}",
              file=out)
    verdict = "FAIL" if geomean < threshold else "OK"
    print(f"{verdict}: geomean ratio {geomean:.3f} vs threshold "
          f"{threshold:.2f} (host-normalised, {len(rows)} cells)",
          file=out)


def selftest():
    def doc(rate, cal, sweep):
        return {
            "schema": "pomtlb-bench-v1",
            "calibration_mops": cal,
            "throughput": [{"benchmark": "mcf", "scheme": "Baseline",
                            "refs_per_sec": rate}],
            "sweep": {"experiments_per_sec": sweep},
        }

    # Identical documents: every ratio and the geomean are 1.0.
    rows, geomean = compare(doc(1e6, 100, 4.0), doc(1e6, 100, 4.0))
    assert len(rows) == 2, rows
    assert all(abs(r[3] - 1.0) < 1e-9 for r in rows)
    assert abs(geomean - 1.0) < 1e-9, geomean

    # Uniform 30% slowdown on the same host: geomean 0.70.
    _, geomean = compare(doc(1e6, 100, 4.0), doc(0.7e6, 100, 2.8))
    assert abs(geomean - 0.7) < 1e-9, geomean

    # 30% slower rates on a 30% slower host: calibration absolves.
    _, geomean = compare(doc(1e6, 100, 4.0), doc(0.7e6, 70, 2.8))
    assert abs(geomean - 1.0) < 1e-9, geomean
    # Raw comparison of the same pair does see the slowdown.
    _, geomean = compare(doc(1e6, 100, 4.0), doc(0.7e6, 70, 2.8),
                         use_calibration=False)
    assert abs(geomean - 0.7) < 1e-9, geomean

    # One fast cell and one slow cell average out geometrically:
    # sqrt(1.25 * 0.8) = 1.0.
    current = doc(1.25e6, 100, 3.2)
    _, geomean = compare(doc(1e6, 100, 4.0), current)
    assert abs(geomean - 1.0) < 1e-9, geomean

    # Cells missing from the current document are skipped, not
    # treated as regressions (lets --quick docs subset full ones).
    current = doc(1e6, 100, 4.0)
    current["throughput"] = []
    rows, geomean = compare(doc(1e6, 100, 4.0), current)
    assert len(rows) == 1 and abs(geomean - 1.0) < 1e-9, rows

    # The opt-in trace section (bench_throughput --trace) adds one
    # gated cell when both documents carry it — and none when
    # either side lacks it.
    base = doc(1e6, 100, 4.0)
    base["trace"] = {"records": 1000, "pack_refs_per_sec": 8e7}
    current = doc(1e6, 100, 4.0)
    current["trace"] = {"records": 1000, "pack_refs_per_sec": 4e7}
    rows, geomean = compare(base, current)
    labels = [r[0] for r in rows]
    assert labels[-1] == "trace-pack", labels
    assert not any(label == "trace-legacy" for label in labels), labels
    assert abs(rows[-1][3] - 0.5) < 1e-9, rows
    rows, _ = compare(base, doc(1e6, 100, 4.0))
    assert all(not r[0].startswith("trace") for r in rows), rows

    # Wrong-schema documents are rejected by load(); emulate via the
    # calibration check, the other format error compare() raises.
    try:
        compare({"schema": "pomtlb-bench-v1"}, doc(1e6, 100, 4.0))
    except ValueError:
        pass
    else:
        raise AssertionError("missing calibration not rejected")

    # Foreign schema families are rejected with a redirecting hint
    # that names the path; unknown bench versions name the version.
    for schema, needle in [
        ("pomtlb-sweep-v1", "plot_results"),
        ("pomtlb-sweepcache-v1", "cache entry"),
        ("pomtlb-serve-v1", "serve event stream"),
        ("pomtlb-stats-v1", "--breakdown"),
        ("pomtlb-bench-v7", "version"),
        ("other-tool-v1", "expected schema"),
        (None, "expected schema"),
    ]:
        try:
            check_schema("some/input.json", schema)
        except ValueError as error:
            assert "some/input.json" in str(error), error
            assert needle in str(error), (schema, error)
        else:
            raise AssertionError(f"{schema!r} not rejected")
    check_schema("ok.json", "pomtlb-bench-v1")  # must not raise

    print("check_bench selftest: OK")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--baseline", help="pomtlb-bench-v1 baseline")
    parser.add_argument("--current", help="pomtlb-bench-v1 candidate")
    parser.add_argument("--tolerance", type=float, default=0.20,
                        help="allowed fractional geomean slowdown "
                             "(default 0.20)")
    parser.add_argument("--no-calibration", action="store_true",
                        help="compare raw rates (same-host runs)")
    parser.add_argument("--selftest", action="store_true",
                        help="run built-in unit tests and exit")
    args = parser.parse_args(argv)

    if args.selftest:
        return selftest()
    if not args.baseline or not args.current:
        parser.error("--baseline and --current are required")

    try:
        baseline = load(args.baseline)
        current = load(args.current)
        rows, geomean = compare(baseline, current,
                                not args.no_calibration)
    except (OSError, ValueError, KeyError) as error:
        print(f"check_bench: {error}", file=sys.stderr)
        return 2

    report(rows, geomean, args.tolerance)
    return 1 if geomean < 1.0 - args.tolerance else 0


if __name__ == "__main__":
    sys.exit(main())
