#!/usr/bin/env python3
"""Plot a table ``pomtlb figures`` prints or the simulator's JSON output.

Usage:
    build/tools/pomtlb figures --only fig8 > fig08.txt
    scripts/plot_results.py fig08.txt -o fig08.png

    build/tools/pomtlb sweep --jobs 8 --out sweep.json
    scripts/plot_results.py sweep.json -o sweep.png \\
        --metric walk_fraction
    scripts/plot_results.py sweep.json -o breakdown.png --breakdown

    build/tools/pomtlb run --stats-out run.json
    scripts/plot_results.py run.json -o breakdown.png --breakdown

Three input formats are accepted and auto-detected:

* the aligned table ``pomtlb figures`` prints (the first one in the
  file; cells are separated by two or more spaces, and no cell
  contains two), ending at the blank line before its verdict lines;
* the ``pomtlb-sweep-v1`` JSON document ``SweepResultWriter`` emits
  (``pomtlb sweep --out``), from which ``--metric`` picks one summary
  field per run; and
* the ``pomtlb-stats-v1`` JSON document of a single run
  (``pomtlb run --stats-out``), usable with ``--breakdown``;
* a saved ``pomtlb-serve-v1`` event stream (the JSONL stdout of
  ``pomtlb serve``, even truncated mid-campaign): the ``run`` object
  of every ``job`` event is assembled back into a sweep document, in
  the request order the service guarantees;
* a single ``pomtlb-sweepcache-v1`` cache entry
  (``<cache-dir>/<hash>.json``), plotted as a one-run sweep; and
* a ``pomtlb-scenario-v1`` consolidation-scenario document
  (``pomtlb scenario --out``), single scenario or campaign wrapper:
  rendered as a per-tenant QoS chart, one bar group per tenant with
  the p50/p95/p99 translation-cycle percentiles; and
* a ``pomtlb-tracepack-v1`` trace-pack description (the
  ``pomtlb trace info --json`` document, docs/trace-format.md):
  rendered as a per-stream chart of record and chunk counts.

The default output is a grouped bar chart in the paper's figure
style: benchmarks on the x-axis, one bar group per series.
``--breakdown`` instead draws the stacked translation-cycle
decomposition of Figure 8's cost model: one stacked bar per
(benchmark, scheme) run, one segment per serving level, normalised to
each run's total translation cycles. Every stat and field this script
reads is documented in docs/metrics.md.

Unknown *versions* of a known result schema family (e.g. a future
``pomtlb-sweep-v2``) produce a warning and a best-effort parse;
missing required fields are hard errors naming the field. Cache
entries, serve events, and scenario documents are different: a
version bump there changes the job-identity recipe, the wire
protocol, the scenario-identity recipe, or the trace container
layout, so an unknown ``pomtlb-sweepcache-*``, ``pomtlb-serve-*``,
``pomtlb-scenario-*``, or ``pomtlb-tracepack-*`` version is a hard
error naming the input path and the offending schema. Run
``scripts/plot_results.py --selftest`` to execute the built-in parser
tests (no matplotlib needed; CI runs this as a ctest).

Requires matplotlib for plotting (not needed for anything else in the
repo, nor for --selftest).
"""

import argparse
import json
import re
import sys

SWEEP_SCHEMA = "pomtlb-sweep-v1"
STATS_SCHEMA = "pomtlb-stats-v1"
SWEEPCACHE_SCHEMA = "pomtlb-sweepcache-v1"
SERVE_SCHEMA = "pomtlb-serve-v1"
SCENARIO_SCHEMA = "pomtlb-scenario-v1"
TRACEPACK_SCHEMA = "pomtlb-tracepack-v1"

#: The per-tenant QoS percentiles a scenario chart plots, in order.
SCENARIO_PERCENTILES = [
    "p50_translation_cycles",
    "p95_translation_cycles",
    "p99_translation_cycles",
]

#: Stacked-segment order for --breakdown, matching the ServicePoint
#: order of sim/scheme.hh ("sram_tlb" is the MMUs' aggregate share).
BREAKDOWN_ORDER = [
    "sram_tlb",
    "pom_l2d_cache",
    "pom_l3d_cache",
    "pom_dram",
    "shared_l2_tlb",
    "tsb_buffer",
    "coalesced_tlb",
    "victima_l2d_cache",
    "victima_l3d_cache",
    "page_walk",
]


class ParseError(ValueError):
    """A document is structurally unusable (missing required field)."""


def _require(mapping, key, context):
    """Return ``mapping[key]`` or raise ParseError naming the field."""
    if not isinstance(mapping, dict) or key not in mapping:
        raise ParseError(f"missing required field '{context}{key}'")
    return mapping[key]


def _check_schema(document):
    """Validate the schema tag; returns the schema *family*.

    Exact known schemas pass silently. An unknown version of a known
    family ("pomtlb-sweep-v*", "pomtlb-stats-v*") warns on stderr and
    parses best-effort. Anything else is a ParseError.
    """
    schema = _require(document, "schema", "")
    for known in (SWEEP_SCHEMA, STATS_SCHEMA):
        family = known.rsplit("-v", 1)[0]
        if schema == known:
            return family
        if isinstance(schema, str) and schema.startswith(
            family + "-v"
        ):
            print(
                f"warning: unrecognised schema version {schema!r}; "
                f"parsing as {known}",
                file=sys.stderr,
            )
            return family
    raise ParseError(f"unrecognised JSON schema: {schema!r}")


def _unwrap_cache_entry(document):
    """Turn one on-disk cache entry into a single-run sweep document.

    Cache entries are content-addressed: a version bump means the
    job-identity recipe changed, so unlike the result schemas there
    is no best-effort path for ``pomtlb-sweepcache-v2`` — reject it.
    """
    schema = _require(document, "schema", "")
    if schema != SWEEPCACHE_SCHEMA:
        raise ParseError(
            f"unsupported cache-entry schema {schema!r}; this "
            f"script understands {SWEEPCACHE_SCHEMA} only (a cache "
            "version bump changes the job-identity recipe — "
            "re-run the sweep to repopulate)"
        )
    return {
        "schema": SWEEP_SCHEMA,
        "runs": [_require(document, "run", "")],
    }


def _scenario_documents(document):
    """Return the scenario documents in *document*.

    Accepts a single ``pomtlb-scenario-v1`` document or the campaign
    wrapper (``runs`` holding one scenario document each). Scenario
    documents are content-addressed like cache entries: a version
    bump means the scenario-identity recipe changed, so an unknown
    ``pomtlb-scenario-*`` version is a hard error (the CLI prefixes
    the input path), never a best-effort parse.
    """
    schema = _require(document, "schema", "")
    if schema != SCENARIO_SCHEMA:
        raise ParseError(
            f"unsupported scenario schema {schema!r}; this script "
            f"understands {SCENARIO_SCHEMA} only (a scenario "
            "version bump changes the identity recipe — re-run "
            "`pomtlb scenario`)"
        )
    if "runs" not in document:
        return [document]
    documents = []
    for index, run in enumerate(document["runs"]):
        context = f"runs[{index}]."
        inner = _require(run, "schema", context)
        if inner != SCENARIO_SCHEMA:
            raise ParseError(
                f"{context}schema: unsupported scenario schema "
                f"{inner!r}; this script understands "
                f"{SCENARIO_SCHEMA} only"
            )
        documents.append(run)
    if not documents:
        raise ParseError(
            "scenario campaign contains no runs — nothing to plot"
        )
    return documents


def scenario_rows(document):
    """Per-tenant QoS rows from scenario document(s).

    One row per tenant: the tenant name (prefixed with the scenario
    name when the input holds several scenarios) followed by the
    p50/p95/p99 translation-cycle percentiles, ready for the grouped
    bar chart or a CSV-style table.
    """
    documents = _scenario_documents(document)
    rows = []
    for doc in documents:
        scenario = _require(doc, "scenario", "")
        name = _require(scenario, "name", "scenario.")
        for index, tenant in enumerate(
            _require(doc, "tenants", "")
        ):
            context = f"tenants[{index}]."
            label = _require(tenant, "name", context)
            if len(documents) > 1:
                label = f"{name}/{label}"
            row = {"tenant": label}
            for key in SCENARIO_PERCENTILES:
                row[key.replace("_translation_cycles", "")] = str(
                    _require(tenant, key, context)
                )
            rows.append(row)
    if not rows:
        raise ParseError(
            "scenario document contains no tenants — nothing to "
            "plot"
        )
    return rows


def tracepack_rows(document):
    """Per-stream rows from a ``pomtlb trace info --json`` document.

    One row per stream: its name, record count, and chunk count.
    Trace packs are an identity format — their content hash feeds
    sweep-cache job identity — so unlike the result schemas an
    unknown ``pomtlb-tracepack-*`` version is a hard error (the CLI
    prefixes the input path): guessing at a future container layout
    would silently misreport what a memoized campaign replayed.
    """
    schema = _require(document, "schema", "")
    if schema != TRACEPACK_SCHEMA:
        raise ParseError(
            f"unsupported trace-pack schema {schema!r}; this "
            f"script understands {TRACEPACK_SCHEMA} only (re-pack "
            "the trace with this build's `pomtlb trace pack`)"
        )
    rows = []
    for index, stream in enumerate(
        _require(document, "streams", "")
    ):
        context = f"streams[{index}]."
        rows.append(
            {
                "stream": _require(stream, "name", context),
                "records": str(
                    _require(stream, "records", context)
                ),
                "chunks": str(_require(stream, "chunks", context)),
            }
        )
    if not rows:
        raise ParseError(
            "trace pack contains no streams — nothing to plot"
        )
    return rows


def assemble_serve_stream(lines):
    """Assemble a saved serve event stream into a sweep document.

    *lines* is the JSONL stdout of ``pomtlb serve`` (possibly
    truncated mid-campaign). The ``run`` object of every ``job``
    event becomes one sweep run; the service streams job events in
    request order, so the assembled document matches what
    ``pomtlb sweep --out`` would have written for the same campaign,
    except for ``wall_seconds``: a sweep document always stores it as
    0 (the identity form), while each run assembled here takes the
    real per-job wall time its event carried. Per-job wall time is
    therefore plotted (``--metric wall_seconds``) from serve streams.
    """
    runs = []
    for number, line in enumerate(lines, 1):
        line = line.strip()
        if not line:
            continue
        try:
            event = json.loads(line)
        except json.JSONDecodeError as error:
            raise ParseError(
                f"line {number}: not a JSON event: {error}"
            )
        context = f"line {number}: "
        schema = _require(event, "schema", context)
        if schema != SERVE_SCHEMA:
            raise ParseError(
                f"line {number}: unsupported event schema "
                f"{schema!r}; this script understands "
                f"{SERVE_SCHEMA} only"
            )
        if _require(event, "event", context) != "job":
            continue
        run = dict(_require(event, "run", context))
        # Surface the real wall time the event carried out-of-band.
        run["wall_seconds"] = event.get("wall_seconds", 0)
        runs.append(run)
    if not runs:
        raise ParseError(
            "event stream contains no 'job' events — nothing to "
            "plot (did the campaign error before its first job?)"
        )
    return {"schema": SWEEP_SCHEMA, "runs": runs}


def load_json_input(text):
    """Auto-detect and normalise JSON input to a plottable document.

    Returns a ``pomtlb-sweep-v1`` / ``pomtlb-stats-v1`` document,
    unwrapping cache entries and assembling serve event streams on
    the way. Raises ParseError (without the input path; the CLI
    prefixes it).
    """
    try:
        document = json.loads(text)
    except json.JSONDecodeError:
        # More than one top-level object: a JSONL serve stream.
        return assemble_serve_stream(text.splitlines())
    if isinstance(document, dict):
        schema = document.get("schema")
        if isinstance(schema, str):
            if schema.startswith("pomtlb-sweepcache-"):
                return _unwrap_cache_entry(document)
            if schema.startswith("pomtlb-serve-"):
                # A one-line event file parses as a single object.
                return assemble_serve_stream(text.splitlines())
    return document


def parse_document(document):
    """Parse a sweep or stats document into a normalised run list.

    Returns a list of run dicts with keys ``benchmark``, ``scheme``,
    ``label``, ``summary`` (the metric mapping ``--metric`` indexes),
    ``wall_seconds`` (None for stats documents) and
    ``cycle_breakdown`` (mapping with the serving-level cycles plus
    ``sram_tlb``, or None when the document predates it).

    Raises ParseError on missing required fields; warns (stderr) on
    unknown versions of a known schema family.
    """
    family = _check_schema(document)

    if family == "pomtlb-stats":
        totals = _require(document, "totals", "")
        runs = [
            {
                "benchmark": _require(document, "benchmark", ""),
                "scheme": _require(document, "scheme", ""),
                "label": "",
                "summary": totals,
                "wall_seconds": None,
                "cycle_breakdown": document.get("cycle_breakdown"),
            }
        ]
        _require(totals, "translation_cycles", "totals.")
        return runs

    runs = []
    for index, run in enumerate(_require(document, "runs", "")):
        context = f"runs[{index}]."
        summary = _require(run, "summary", context)
        _require(
            summary, "translation_cycles", context + "summary."
        )
        breakdown = summary.get("cycle_breakdown")
        if breakdown is not None:
            breakdown = dict(breakdown)
            breakdown.setdefault(
                "sram_tlb", summary.get("sram_cycles", 0)
            )
        runs.append(
            {
                "benchmark": _require(run, "benchmark", context),
                "scheme": _require(run, "scheme", context),
                "label": run.get("label", ""),
                "summary": summary,
                "wall_seconds": run.get("wall_seconds"),
                "cycle_breakdown": breakdown,
            }
        )
    return runs


def sweep_rows(document, metric):
    """Flatten a parsed document into CSV-style rows.

    One row per benchmark; one column per scheme[/label] holding the
    requested summary *metric* (or ``wall_seconds``).
    """
    table = {}
    for run in parse_document(document):
        series = run["scheme"]
        if run["label"]:
            series += "/" + run["label"]
        if metric == "wall_seconds":
            value = run["wall_seconds"]
        else:
            summary = run["summary"]
            if metric not in summary:
                raise ParseError(
                    f"metric {metric!r} not in summary; available: "
                    + ", ".join(sorted(summary))
                )
            value = summary[metric]
        row = table.setdefault(
            run["benchmark"], {"benchmark": run["benchmark"]}
        )
        row[series] = str(value)
    return list(table.values())


def breakdown_rows(document):
    """Per-run translation-cycle shares for the stacked plot.

    Returns ``(labels, series)``: one label per run
    ("benchmark/scheme[/label]") and, for every serving level in
    BREAKDOWN_ORDER, that run's share of its own total translation
    cycles (each label's shares sum to ~1.0).
    """
    labels = []
    series = {key: [] for key in BREAKDOWN_ORDER}
    for run in parse_document(document):
        breakdown = run["cycle_breakdown"]
        if breakdown is None:
            raise ParseError(
                "document has no cycle_breakdown (produced by a "
                "pre-observability build?)"
            )
        label = f"{run['benchmark']}/{run['scheme']}"
        if run["label"]:
            label += "/" + run["label"]
        labels.append(label)
        total = float(
            run["summary"]["translation_cycles"]
        ) or 1.0
        for key in BREAKDOWN_ORDER:
            series[key].append(
                float(breakdown.get(key, 0.0)) / total
            )
    return labels, series


def extract_table(text):
    """Rows (dicts keyed by header) of the first aligned table in *text*:
    the header line above the first line of dashes, then rows up to the
    blank line before a ``pomtlb figures`` block's verdict lines."""
    lines = text.splitlines()
    for index, line in enumerate(lines):
        if index == 0 or not line or set(line) != {"-"}:
            continue
        headers = re.split(r" {2,}", lines[index - 1].strip())
        rows = []
        for row in lines[index + 1:]:
            if not row.strip():
                break
            cells = re.split(r" {2,}", row.strip())
            if len(cells) != len(headers):
                raise ParseError(
                    f"table row has {len(cells)} cells for "
                    f"{len(headers)} headers: {row.strip()!r}"
                )
            rows.append(dict(zip(headers, cells)))
        return rows
    raise ParseError("no aligned table found (`pomtlb figures` output)")


def _load_pyplot():
    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        raise SystemExit(
            "matplotlib is required: pip install matplotlib"
        )
    return plt


def plot_grouped(rows, args):
    """Grouped bar chart: one group per row, one bar per series."""
    label_key = next(iter(rows[0]))
    value_keys = [k for k in rows[0] if k != label_key]
    if args.drop_average:
        rows = [r for r in rows if r[label_key] != "average"]

    labels = [r[label_key] for r in rows]
    series = {
        key: [float(r[key]) for r in rows] for key in value_keys
    }

    plt = _load_pyplot()
    _, axis = plt.subplots(
        figsize=(max(8.0, 0.7 * len(labels)), 4.0)
    )
    width = 0.8 / max(1, len(series))
    for index, (name, values) in enumerate(series.items()):
        positions = [
            i + index * width for i in range(len(labels))
        ]
        axis.bar(positions, values, width=width, label=name)

    axis.set_xticks(
        [i + 0.4 - width / 2 for i in range(len(labels))]
    )
    axis.set_xticklabels(labels, rotation=45, ha="right")
    axis.legend(fontsize=8)
    axis.grid(axis="y", linewidth=0.3)
    if args.title:
        axis.set_title(args.title)

    plt.tight_layout()
    plt.savefig(args.output, dpi=150)
    print(f"wrote {args.output}")


def plot_breakdown(labels, series, args):
    """Stacked bars: translation-cycle share per serving level."""
    plt = _load_pyplot()
    _, axis = plt.subplots(
        figsize=(max(8.0, 0.6 * len(labels)), 4.5)
    )
    bottoms = [0.0] * len(labels)
    positions = list(range(len(labels)))
    for key in BREAKDOWN_ORDER:
        values = series[key]
        if not any(values):
            continue
        axis.bar(
            positions, values, bottom=bottoms, width=0.7, label=key
        )
        bottoms = [b + v for b, v in zip(bottoms, values)]
    axis.set_xticks(positions)
    axis.set_xticklabels(labels, rotation=45, ha="right")
    axis.set_ylabel("share of translation cycles")
    axis.set_ylim(0.0, 1.05)
    axis.legend(fontsize=8)
    axis.grid(axis="y", linewidth=0.3)
    if args.title:
        axis.set_title(args.title)
    plt.tight_layout()
    plt.savefig(args.output, dpi=150)
    print(f"wrote {args.output}")


#: A captured ``pomtlb figures --only fig8`` block, verdict lines included
#: (default size, 4 workers); trailing spaces are part of the table.
_FIG8_CAPTURE = """
=== Figure 8: Performance Improvement of POM-TLB (8 core), % over the measured baseline ===
benchmark      POM-TLB (%)  Shared_L2 (%)  TSB (%)  Coalesced (%)  Victima (%)  pom_cost_ratio
----------------------------------------------------------------------------------------------
astar          8.96         4.90           -1.24    2.44           4.60         0.49          
bwaves         1.96         2.47           -0.29    2.33           1.59         0.75          
canneal        3.07         3.46           0.49     0.16           2.86         0.53          
ccomponent     4.34         0.64           2.46     -0.28          1.64         0.44          
gcc            6.48         3.60           -0.79    1.85           3.45         0.50          
GemsFDTD       4.42         0.92           -2.79    0.19           0.60         0.74          
graph500       3.39         3.76           0.47     0.88           2.79         0.57          
gups           10.10        4.53           3.00     0.54           9.62         0.47          
lbm            3.01         4.31           -1.99    4.24           4.71         0.76          
libquantum     1.27         1.66           -0.70    1.66           1.29         0.83          
mcf            9.08         4.84           -1.28    -4.55          4.43         0.56          
pagerank       2.53         1.66           -0.77    -2.48          1.18         0.65          
soplex         6.05         5.29           -1.14    4.81           3.69         0.67          
streamcluster  0.58         1.42           -0.05    1.31           -0.18        0.73          
zeusmp         1.79         -0.77          -2.48    -1.65          0.68         0.83          
average        4.47         2.85           -0.47    0.76           2.86         0.63          

verdict PASS [fig8] POM-TLB improves every workload (improvement > 0%): min 0.58 (streamcluster)
verdict PASS [fig8] on average POM-TLB > Shared_L2 > TSB: means 4.47, 2.85, -0.47
"""


def selftest():
    """Built-in parser tests (run by ctest; no matplotlib needed)."""
    import contextlib
    import io
    import unittest

    def sweep_doc(**summary_overrides):
        summary = {
            "translation_cycles": 1000,
            "sram_cycles": 400,
            "scheme_cycles": 600,
            "cycle_breakdown": {"pom_dram": 350, "page_walk": 250},
            "walk_fraction": 0.25,
        }
        summary.update(summary_overrides)
        return {
            "schema": SWEEP_SCHEMA,
            "runs": [
                {
                    "benchmark": "mcf",
                    "scheme": "POM-TLB",
                    "label": "",
                    "wall_seconds": 1.5,
                    "summary": summary,
                }
            ],
        }

    class ParserTests(unittest.TestCase):
        def test_figures_table_parses_without_verdict_lines(self):
            rows = extract_table(_FIG8_CAPTURE)
            self.assertEqual(len(rows), 16)
            self.assertEqual(list(rows[0])[-1], "pom_cost_ratio")
            self.assertEqual(rows[0]["benchmark"], "astar")
            self.assertEqual(rows[0]["POM-TLB (%)"], "8.96")
            self.assertEqual(rows[-2]["TSB (%)"], "-2.48")
            self.assertEqual(rows[-1]["benchmark"], "average")
            self.assertEqual(rows[-1]["pom_cost_ratio"], "0.63")

        def test_text_without_a_table_errors(self):
            with self.assertRaisesRegex(ParseError, "no aligned table"):
                extract_table("verdict PASS [fig8] nothing here\n")
            with self.assertRaisesRegex(ParseError, "3 cells for 2"):
                extract_table("a  b\n----\n1  2  3\n")

        def test_missing_schema_errors(self):
            with self.assertRaisesRegex(ParseError, "schema"):
                parse_document({"runs": []})

        def test_foreign_schema_errors(self):
            with self.assertRaisesRegex(
                ParseError, "unrecognised"
            ):
                parse_document({"schema": "other-tool-v1"})

        def test_future_version_warns_but_parses(self):
            document = sweep_doc()
            document["schema"] = "pomtlb-sweep-v99"
            stderr = io.StringIO()
            with contextlib.redirect_stderr(stderr):
                runs = parse_document(document)
            self.assertIn("pomtlb-sweep-v99", stderr.getvalue())
            self.assertEqual(len(runs), 1)

        def test_missing_required_field_errors(self):
            document = sweep_doc()
            del document["runs"][0]["summary"][
                "translation_cycles"
            ]
            with self.assertRaisesRegex(
                ParseError, r"runs\[0\].summary.translation_cycles"
            ):
                parse_document(document)

        def test_missing_benchmark_errors(self):
            document = sweep_doc()
            del document["runs"][0]["benchmark"]
            with self.assertRaisesRegex(
                ParseError, r"runs\[0\].benchmark"
            ):
                parse_document(document)

        def test_sweep_rows_picks_metric(self):
            rows = sweep_rows(sweep_doc(), "walk_fraction")
            self.assertEqual(rows[0]["POM-TLB"], "0.25")

        def test_sweep_rows_unknown_metric_errors(self):
            with self.assertRaisesRegex(ParseError, "nope"):
                sweep_rows(sweep_doc(), "nope")

        def test_breakdown_shares_sum_to_one(self):
            labels, series = breakdown_rows(sweep_doc())
            self.assertEqual(labels, ["mcf/POM-TLB"])
            total = sum(
                series[key][0] for key in BREAKDOWN_ORDER
            )
            self.assertAlmostEqual(total, 1.0)
            self.assertAlmostEqual(series["sram_tlb"][0], 0.4)

        def test_breakdown_missing_errors(self):
            document = sweep_doc()
            del document["runs"][0]["summary"]["cycle_breakdown"]
            with self.assertRaisesRegex(
                ParseError, "cycle_breakdown"
            ):
                breakdown_rows(document)

        def test_stats_document(self):
            document = {
                "schema": STATS_SCHEMA,
                "benchmark": "gups",
                "scheme": "TSB",
                "totals": {"translation_cycles": 10},
                "cycle_breakdown": {
                    "sram_tlb": 4,
                    "tsb_buffer": 6,
                },
            }
            labels, series = breakdown_rows(document)
            self.assertEqual(labels, ["gups/TSB"])
            self.assertAlmostEqual(
                series["tsb_buffer"][0], 0.6
            )

        def test_stats_document_missing_totals_errors(self):
            with self.assertRaisesRegex(ParseError, "totals"):
                parse_document(
                    {
                        "schema": STATS_SCHEMA,
                        "benchmark": "gups",
                        "scheme": "TSB",
                    }
                )

        def sweep_run(self, benchmark="mcf"):
            run = dict(sweep_doc()["runs"][0])
            run["benchmark"] = benchmark
            run["wall_seconds"] = 0
            return run

        def serve_event(self, **fields):
            event = {"schema": SERVE_SCHEMA}
            event.update(fields)
            return json.dumps(event)

        def test_cache_entry_plots_as_one_run_sweep(self):
            entry = {
                "schema": SWEEPCACHE_SCHEMA,
                "job_hash": "0" * 32,
                "key": "mcf/POM-TLB",
                "run": self.sweep_run(),
            }
            document = load_json_input(json.dumps(entry))
            runs = parse_document(document)
            self.assertEqual(len(runs), 1)
            self.assertEqual(runs[0]["benchmark"], "mcf")

        def test_unknown_cache_version_is_a_hard_error(self):
            entry = {
                "schema": "pomtlb-sweepcache-v9",
                "run": self.sweep_run(),
            }
            with self.assertRaisesRegex(
                ParseError, "pomtlb-sweepcache-v9"
            ):
                load_json_input(json.dumps(entry))

        def test_serve_stream_assembles_job_runs_in_order(self):
            stream = "\n".join(
                [
                    self.serve_event(event="ready", jobs=4),
                    self.serve_event(
                        event="job",
                        index=0,
                        key="mcf/POM-TLB",
                        source="cache",
                        wall_seconds=0,
                        run=self.sweep_run("mcf"),
                    ),
                    "",  # blank lines are skipped
                    self.serve_event(
                        event="job",
                        index=1,
                        key="gups/POM-TLB",
                        source="executed",
                        wall_seconds=2.5,
                        run=self.sweep_run("gups"),
                    ),
                    self.serve_event(
                        event="sweep-end", sweep_hash="", stats={}
                    ),
                ]
            )
            runs = parse_document(load_json_input(stream))
            self.assertEqual(
                [r["benchmark"] for r in runs], ["mcf", "gups"]
            )
            # The event's out-of-band wall time is surfaced so
            # --metric wall_seconds works on streamed input too.
            self.assertEqual(runs[1]["wall_seconds"], 2.5)

        def test_single_line_serve_stream_without_jobs_errors(self):
            with self.assertRaisesRegex(ParseError, "no 'job'"):
                load_json_input(self.serve_event(event="ready"))

        def test_unknown_serve_version_is_a_hard_error(self):
            stream = json.dumps(
                {"schema": "pomtlb-serve-v2", "event": "ready"}
            )
            with self.assertRaisesRegex(
                ParseError, "pomtlb-serve-v2"
            ):
                load_json_input(stream)

        def test_torn_serve_stream_names_the_line(self):
            stream = (
                self.serve_event(event="ready")
                + "\n"
                + '{"schema": "pomtlb-serve-v1", "eve'
            )
            with self.assertRaisesRegex(
                ParseError, "line 2"
            ):
                load_json_input(stream)

        def test_plain_documents_pass_through_unchanged(self):
            document = sweep_doc()
            self.assertEqual(
                load_json_input(json.dumps(document)), document
            )

        def scenario_doc(self, name="churn-4t", tenants=2):
            return {
                "schema": SCENARIO_SCHEMA,
                "scenario": {"name": name},
                "scenario_hash": "0" * 32,
                "tenants": [
                    {
                        "name": f"t{i}",
                        "benchmark": "mcf",
                        "refs": 1000,
                        "p50_translation_cycles": 0,
                        "p95_translation_cycles": 15 + i,
                        "p99_translation_cycles": 255,
                    }
                    for i in range(tenants)
                ],
                "events": {
                    "departures": 1,
                    "migrations": 0,
                    "storm_shootdowns": 8,
                },
            }

        def test_scenario_rows_carry_tenant_percentiles(self):
            rows = scenario_rows(self.scenario_doc())
            self.assertEqual(
                [r["tenant"] for r in rows], ["t0", "t1"]
            )
            self.assertEqual(rows[0]["p50"], "0")
            self.assertEqual(rows[1]["p95"], "16")
            self.assertEqual(rows[1]["p99"], "255")

        def test_scenario_campaign_prefixes_scenario_names(self):
            campaign = {
                "schema": SCENARIO_SCHEMA,
                "runs": [
                    self.scenario_doc("a-1t", tenants=1),
                    self.scenario_doc("b-2t", tenants=2),
                ],
            }
            rows = scenario_rows(campaign)
            self.assertEqual(
                [r["tenant"] for r in rows],
                ["a-1t/t0", "b-2t/t0", "b-2t/t1"],
            )

        def test_unknown_scenario_version_is_a_hard_error(self):
            document = self.scenario_doc()
            document["schema"] = "pomtlb-scenario-v9"
            with self.assertRaisesRegex(
                ParseError, "pomtlb-scenario-v9"
            ):
                scenario_rows(document)

        def test_unknown_nested_scenario_version_errors(self):
            run = self.scenario_doc()
            run["schema"] = "pomtlb-scenario-v9"
            campaign = {
                "schema": SCENARIO_SCHEMA,
                "runs": [run],
            }
            with self.assertRaisesRegex(
                ParseError, r"runs\[0\].*pomtlb-scenario-v9"
            ):
                scenario_rows(campaign)

        def test_scenario_missing_percentile_names_the_path(self):
            document = self.scenario_doc()
            del document["tenants"][1]["p95_translation_cycles"]
            with self.assertRaisesRegex(
                ParseError,
                r"tenants\[1\].p95_translation_cycles",
            ):
                scenario_rows(document)

        def test_empty_scenario_campaign_errors(self):
            with self.assertRaisesRegex(ParseError, "no runs"):
                scenario_rows(
                    {"schema": SCENARIO_SCHEMA, "runs": []}
                )

        def tracepack_doc(self):
            return {
                "schema": TRACEPACK_SCHEMA,
                "path": "mcf.pack",
                "file_bytes": 17120,
                "header_bytes": 128,
                "record_bytes": 16,
                "chunk_records": 4096,
                "records": 1000,
                "chunks": 2,
                "content_hash": "0" * 32,
                "streams": [
                    {"name": "core0", "records": 750, "chunks": 1},
                    {"name": "core1", "records": 250, "chunks": 1},
                ],
            }

        def test_tracepack_rows_one_per_stream(self):
            rows = tracepack_rows(self.tracepack_doc())
            self.assertEqual(
                [r["stream"] for r in rows], ["core0", "core1"]
            )
            self.assertEqual(rows[0]["records"], "750")
            self.assertEqual(rows[1]["chunks"], "1")

        def test_unknown_tracepack_version_is_a_hard_error(self):
            document = self.tracepack_doc()
            document["schema"] = "pomtlb-tracepack-v9"
            with self.assertRaisesRegex(
                ParseError, "pomtlb-tracepack-v9"
            ):
                tracepack_rows(document)

        def test_tracepack_missing_field_names_the_path(self):
            document = self.tracepack_doc()
            del document["streams"][1]["records"]
            with self.assertRaisesRegex(
                ParseError, r"streams\[1\].records"
            ):
                tracepack_rows(document)

        def test_empty_tracepack_errors(self):
            document = self.tracepack_doc()
            document["streams"] = []
            with self.assertRaisesRegex(ParseError, "no streams"):
                tracepack_rows(document)

    suite = unittest.defaultTestLoader.loadTestsFromTestCase(
        ParserTests
    )
    result = unittest.TextTestRunner(verbosity=2).run(suite)
    return 0 if result.wasSuccessful() else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "input",
        nargs="?",
        help="`pomtlb figures` output or simulator JSON",
    )
    parser.add_argument("-o", "--output", default="figure.png")
    parser.add_argument("--title", default=None)
    parser.add_argument(
        "--drop-average",
        action="store_true",
        help="omit the summary 'average' row",
    )
    parser.add_argument(
        "--metric",
        default="translation_cycles",
        help="summary field to plot from sweep JSON input "
        "(default: translation_cycles; 'wall_seconds' plots the "
        "per-job wall clock, which only a serve event stream "
        "carries: sweep documents store 0)",
    )
    parser.add_argument(
        "--breakdown",
        action="store_true",
        help="stacked translation-cycle breakdown per run "
        "(JSON input only)",
    )
    parser.add_argument(
        "--selftest",
        action="store_true",
        help="run the built-in parser tests and exit",
    )
    args = parser.parse_args()

    if args.selftest:
        return selftest()
    if args.input is None:
        parser.error("an input file is required unless --selftest")

    with open(args.input, encoding="utf-8") as handle:
        text = handle.read()

    try:
        if args.breakdown:
            labels, series = breakdown_rows(load_json_input(text))
            plot_breakdown(labels, series, args)
            return 0
        if text.lstrip().startswith("{"):
            document = load_json_input(text)
            schema = (
                document.get("schema", "")
                if isinstance(document, dict)
                else ""
            )
            if isinstance(schema, str) and schema.startswith(
                "pomtlb-scenario-"
            ):
                rows = scenario_rows(document)
            elif isinstance(schema, str) and schema.startswith(
                "pomtlb-tracepack-"
            ):
                rows = tracepack_rows(document)
            else:
                rows = sweep_rows(document, args.metric)
        else:
            rows = extract_table(text)
    except ParseError as error:
        raise SystemExit(f"error: {args.input}: {error}")
    if not rows:
        raise SystemExit("no rows found in input")
    plot_grouped(rows, args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
