#!/usr/bin/env python3
"""Every bound scripts/check.sh enforces, in one table, and the checks around it.

    scripts/gates.py schema <name> <BENCH_name.json>  shape of a bench's --json output
    scripts/gates.py gate <name> <BENCH_name.json>    the shape, then every bound of <name>
    scripts/gates.py smoke <workload> <result line>   a perfbench run reported "correct": true
    scripts/gates.py lint <build dir>                 lumalint over the embedded Luma corpus
    scripts/gates.py selftest                         every bound just inside and just past

Run from the repository root. Exits 0 when every check holds, 1 otherwise.
"""
import copy
import json
import operator
import os
import pathlib
import re
import statistics
import subprocess
import sys
from collections import namedtuple

# One row per bound. `metric` and `per` are paths into a document: the first
# component names a bench case, the rest walk into it ("p2c_healthy.ns.p99").
# With `per` the checked value is metric / per. A "{}" in both paths makes
# the row a median over the numbered pairs the document holds: the value is
# the median of the per-pair ratios minus one, over at least PAIRS pairs.
# Smoke rows read the perfbench result line itself.
Bound = namedtuple("Bound", "gate metric per op limit what")
BOUNDS = [
    Bound("reactor", "reactor_c64.ops_per_sec", "threaded_c64.ops_per_sec", ">=", 3.0,
          "64-client throughput, reactor / thread-per-connection"),
    Bound("reactor", "reactor_c1_{}.ns.p50", "threaded_c1_{}.ns.p50", "<", 0.10,
          "single-client p50 regression, median of pinned pairs"),
    Bound("lb", "p2c_degraded.ns.p99", "p2c_healthy.ns.p99", "<=", 2.0,
          "p2c p99 with one replica degraded / all healthy"),
    Bound("lb", "round_robin_degraded.ns.p99", "p2c_degraded.ns.p99", ">=", 3.0,
          "round-robin p99 / p2c p99, one replica degraded"),
    Bound("lb", "sticky.iterations", None, ">=", 1, "sticky baseline case ran"),
    Bound("overload", "overload_2x.extra.goodput_ops", "capacity.extra.goodput_ops", ">=", 0.70,
          "goodput at 2x offered load / at capacity"),
    Bound("overload", "exec_inproc.ns.mean", "shed_inproc.ns.mean", ">=", 50.0,
          "cost of executing / shedding one request"),
    Bound("overload", "adapt_before.extra.shed_rate", None, ">", 0.02,
          "shed rate without adaptation (shows overload)"),
    Bound("overload", "adapt_after.extra.shed_rate", "adapt_before.extra.shed_rate", "<=", 0.5,
          "shed rate with / without the Luma strategy"),
    Bound("luma_analysis", "cache_hit.ops_per_sec", "analyze_cold_aspect.ops_per_sec", ">=", 5.0,
          "verdict-cache hit / cold analysis throughput"),
    Bound("luma_analysis", "analyze_cold_4kb.ns.p50", None, "<", 50e6,
          "cold analysis of a ~4 KB script, p50 ns"),
    Bound("smoke", "correct", None, "is", True, "perfbench run reports correct"),
]
PAIRS = 5
OPS = {">=": operator.ge, ">": operator.gt, "<=": operator.le, "<": operator.lt, "is": operator.is_}

# The shape of every bench document and of each of its cases: a check, and a
# break of a good document that the check must catch (used by the selftest).
NS = ("mean", "min", "max", "p50", "p95", "p99")
SCHEMA = {
    "bench name matches": (lambda d, name: d["bench"] == name, lambda d: d.update(bench="x")),
    "quick is a bool": (lambda d, name: isinstance(d["quick"], bool), lambda d: d.update(quick=1)),
    "has cases": (lambda d, name: len(d["cases"]) > 0, lambda d: d.update(cases=[])),
}
CASE_SCHEMA = {
    "named": (lambda c: bool(c["name"]), lambda c: c.update(name="")),
    "iterations > 0": (lambda c: c["iterations"] > 0, lambda c: c.update(iterations=0)),
    "ops_per_sec > 0": (lambda c: c["ops_per_sec"] > 0, lambda c: c.update(ops_per_sec=0)),
    "ns >= 0": (lambda c: all(c["ns"][k] >= 0 for k in NS), lambda c: c["ns"].update(p95=-1)),
    "min <= max": (lambda c: c["ns"]["min"] <= c["ns"]["max"], lambda c: c["ns"].update(min=9e99)),
}


def schema_errors(doc, name):
    try:
        errors = [what for what, (holds, _) in SCHEMA.items() if not holds(doc, name)]
        return errors + [f"{case['name']!r} not {what}" for case in doc["cases"]
                         for what, (holds, _) in CASE_SCHEMA.items() if not holds(case)]
    except (KeyError, TypeError) as e:
        return [f"malformed: {e!r}"]


def read(name, path):
    """(document, schema errors) of the bench JSON at `path`."""
    try:
        doc = json.loads(pathlib.Path(path).read_text())
    except (OSError, ValueError) as e:
        return None, [f"unreadable: {e}"]
    return doc, schema_errors(doc, name)


def lookup(node, path):
    for key in path.split("."):
        node = node[key]
    return node


def paths_of(bound, index):
    """The (metric, per) paths a bound reads: one, or one per numbered pair."""
    if "{}" not in bound.metric:
        return [(bound.metric, bound.per)]
    prefix = bound.metric.split("{}")[0]
    ids = sorted(int(n[len(prefix):]) for n in index
                 if n.startswith(prefix) and n[len(prefix):].isdigit())
    return [(bound.metric.format(i), bound.per.format(i)) for i in ids]


def evaluate(bound, index):
    """(holds, value as text) of one bound over a case index."""
    paths = paths_of(bound, index)
    try:
        if "{}" in bound.metric:
            if len(paths) < PAIRS:
                return False, f"only {len(paths)} pairs"
            ratios = sorted(lookup(index, m) / lookup(index, p) for m, p in paths)
            value = statistics.median(ratios) - 1.0
            text = f"{value:+.3f} (pairs {', '.join(f'{r - 1.0:+.3f}' for r in ratios)})"
        else:
            value = lookup(index, bound.metric)
            if bound.per is not None:
                value /= lookup(index, bound.per)
            text = f"{value:.4g}" if isinstance(value, float) else repr(value)
    except KeyError as e:
        return False, f"missing {e}"
    except ZeroDivisionError:
        return False, "zero denominator"
    return OPS[bound.op](value, bound.limit), text


def check_rows(gate_name, index):
    ok = True
    for bound in (b for b in BOUNDS if b.gate == gate_name):
        holds, text = evaluate(bound, index)
        ok &= holds
        print(f"    {gate_name}: {bound.what}: {text}, need {bound.op} {bound.limit}"
              f" {'ok' if holds else 'FAILED'}")
    return ok


def cases_of(doc):
    return {case["name"]: case for case in doc["cases"]}


def schema(name, path):
    """The bench document at `path` when it has the bench shape, else None."""
    doc, errors = read(name, path)
    for error in errors:
        print(f"    {path}: {error}", file=sys.stderr)
    if not errors:
        print(f"    {path}: {len(doc['cases'])} cases OK")
    return None if errors else doc


def gate(name, path):
    doc = schema(name, path)
    if doc is None:
        print(f"==> {name} gate failed", file=sys.stderr)
        return False
    return check_rows(name, cases_of(doc))


def smoke(workload, line):
    result = json.loads(line)
    print(f"    {workload} smoke: {result['attempted']} attempted, {result['failed']} failed")
    return check_rows("smoke", result)


def lint(build):
    """Extracts every R"LUMA(...)LUMA" block embedded in examples/ and tests/
    sources into <build>/luma_corpus/ and runs the Luma static analyzer over
    each (shell policy, full native catalog). Any diagnostic fails: the
    in-repo corpus must lint clean. One SARIF report over the corpus goes to
    <build>/lumalint.sarif (CI uploads it to code scanning)."""
    lumalint = f"{build}/tools/lumalint"
    if not os.access(lumalint, os.X_OK):
        print("==> lumalint: binary missing — skipped")
        return True
    print("==> lumalint (embedded Luma blocks)")
    corpus = pathlib.Path(build) / "luma_corpus"
    corpus.mkdir(parents=True, exist_ok=True)
    pattern = re.compile(r'R"LUMA\((.*?)\)LUMA"', re.S)
    blocks, dirty = [], 0
    for src in sorted(pathlib.Path("examples").glob("*.cpp")) + sorted(
            pathlib.Path("tests").glob("*.cpp")):
        for i, code in enumerate(pattern.findall(src.read_text())):
            path = corpus / f"{src.stem}_{i}.luma"
            path.write_text(code)
            blocks.append(str(path))
            proc = subprocess.run([lumalint, "--policy=shell", str(path)],
                                  capture_output=True, text=True)
            report = (proc.stdout + proc.stderr).strip()
            if report:
                dirty += 1
                print(f"    {src} block {i}:")
                print("      " + report.replace(str(path) + ":", "").replace("\n", "\n      "))
    sarif = pathlib.Path(build) / "lumalint.sarif"
    if blocks:
        subprocess.run([lumalint, "--policy=shell", f"--sarif={sarif}"] + blocks,
                       capture_output=True, text=True)
        json.loads(sarif.read_text())  # must be well-formed
    print(f"    {len(blocks)} embedded Luma blocks linted, {dirty} with diagnostics "
          f"(SARIF: {sarif})")
    return dirty == 0


def at_limit(bound, index, past):
    """A copy of `index` whose value for `bound` sits a hair inside its
    threshold, or a hair past it."""
    index = copy.deepcopy(index)
    if bound.limit is True:
        index[bound.metric] = not past
        return index
    scale = 1.0 + 1e-6 * (1.0 if bound.op in (">=", ">") else -1.0) * (-1.0 if past else 1.0)
    target = 1.0 + bound.limit if "{}" in bound.metric else bound.limit
    for metric, per in paths_of(bound, index):
        parent, leaf = metric.rsplit(".", 1)
        lookup(index, parent)[leaf] = target * (lookup(index, per) if per else 1.0) * scale
    return index


def selftest():
    """On the documents of one full `check.sh default` run (gates_fixture.json):
    every bound holds, holds a hair inside its threshold and fails a hair past
    it; every schema check passes the run and catches its own break. A missing
    gate document fails."""
    fixture = json.loads(pathlib.Path(__file__).with_name("gates_fixture.json").read_text())
    failures = []
    for bound in BOUNDS:
        index = fixture["smoke"] if bound.gate == "smoke" else cases_of(fixture[bound.gate])
        verdicts = [evaluate(bound, i)[0] for i in
                    (index, at_limit(bound, index, False), at_limit(bound, index, True))]
        if verdicts != [True, True, False]:
            failures.append(f"{bound.what}: run, inside, past gave {verdicts}")
    for name in ("reactor", "lb", "overload", "luma_analysis"):
        failures += [f"{name} run: {error}" for error in schema_errors(fixture[name], name)]
        for what, (_, breaks) in list(SCHEMA.items()) + list(CASE_SCHEMA.items()):
            doc = copy.deepcopy(fixture[name])
            breaks(doc if what in SCHEMA else doc["cases"][0])
            if not any(what in error for error in schema_errors(doc, name)):
                failures.append(f"schema check {what!r} misses its break of {name}")
    if not read("luma_analysis", "build/no_such_dir/BENCH_luma_analysis.json")[1]:
        failures.append("a missing gate document passes")
    for failure in failures:
        print(f"    gates selftest: {failure}", file=sys.stderr)
    print(f"    gates selftest: {len(BOUNDS)} bounds, {len(SCHEMA) + len(CASE_SCHEMA)}"
          f" schema checks, {len(failures)} failures")
    return not failures


COMMANDS = {"schema": lambda name, path: schema(name, path) is not None, "gate": gate,
            "smoke": smoke, "lint": lint, "selftest": selftest}

if __name__ == "__main__":
    command = COMMANDS.get(sys.argv[1] if len(sys.argv) > 1 else "")
    if command is None or len(sys.argv) - 2 != command.__code__.co_argcount:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    sys.exit(0 if command(*sys.argv[2:]) else 1)
