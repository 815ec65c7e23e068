"""The traced benchmark stays runnable on the counting layers.

``perfbench/run.py --trace 1`` wraps kernel functions by name and fails a
run when an expected span does not fire, and it reads import costs from
``-X importtime``.  Both are checked here against run.py's own lists, so
a renamed or bypassed function fails tier-1, not a benchmark run.

Claims covered:
    - ``perfbench/trace_child.py`` runs ``count A 6 --method brute --json``
      and ``count E 6 --method mitm --json`` with exit 0 and the published
      counts, and between them every span run.py expects of its count
      workload fires
    - it runs ``analyze D 5 --json`` (brute force) and ``analyze E 6
      --json`` (meet-in-the-middle) with exit 0 and the published counts,
      and between them every span run.py expects of its catalogue workload
      fires, ``sigsum.hnf`` reading r vectors in
    - it runs ``oracle G 2`` and ``analyze A 56 --json`` with exit 0 and
      the expected output, and every span run.py expects of its oracle and
      lattice workloads fires, the counters read from the traced
      arguments included
    - ``import rootspin.cli`` imports numpy and click, so run.py's import
      costs come out of ``-X importtime``
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _traced(run, *args):
    """Stdout JSON and the spans of one traced CLI run, which must exit 0."""
    child = subprocess.run(
        [sys.executable, str(PERFBENCH / "trace_child.py"), *args],
        env=run.child_env(), cwd=run.ROOT, capture_output=True, timeout=120,
    )
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout), run.split_spans(child.stderr)


def _fired(trace) -> set[str]:
    return {span["name"] for span in trace["spans"]} | set(trace["probes"])


def test_traced_count_fires_every_expected_span(run):
    fired = set()
    for args, count in (
        (("count", "A", "6", "--method", "brute", "--json"), 2640),
        (("count", "E", "6", "--method", "mitm", "--json"), 13697920),
    ):
        out, trace = _traced(run, *args)
        assert out["count"]["exact"] == count
        fired |= _fired(trace)
    assert set(run.EXPECTED_SPANS["count"]) <= fired


def test_traced_catalogue_fires_every_expected_span(run):
    fired = set()
    for args, method, count, r in (
        (("analyze", "D", "5", "--json"), "brute_force", 2688, 20),
        (("analyze", "E", "6", "--json"), "meet_in_middle", 13697920, 36),
    ):
        out, trace = _traced(run, *args)
        assert (out["method"], out["count"]["exact"], out["exists"]) == (method, count, True)
        (basis,) = [s for s in trace["spans"] if s["name"] == "sigsum.hnf"]
        assert basis["counters"]["vectors_in"] == r
        fired |= _fired(trace)
    assert set(run.EXPECTED_SPANS["catalogue"]) <= fired


def test_traced_oracle_and_lattice_fire_every_expected_span(run):
    out, trace = _traced(run, "oracle", "G", "2")
    assert out == {"dimension": 4}
    assert set(run.EXPECTED_SPANS["oracle"]) <= _fired(trace)
    (oracle,) = [s for s in trace["spans"] if s["name"] == "spinor.invariant_dimension"]
    assert oracle["counters"]["rotation_terms"] == 6 << 6

    out, trace = _traced(run, "analyze", "A", "56", "--json")
    assert (out["r"], out["exists"], out["obstruction"]) == (1596, True, "pass")
    assert set(run.EXPECTED_SPANS["lattice"]) <= _fired(trace)
    (basis,) = [s for s in trace["spans"] if s["name"] == "sigsum.hnf"]
    assert basis["counters"] == {"vectors_in": 1596, "basis_out": 56}


def test_import_costs_measurable(run):
    costs = run.import_costs(run.child_env())
    assert set(costs) == {"import.numpy_s", "import.click_s", "import.rootspin_s"}
    assert costs["import.numpy_s"] > 0 and costs["import.click_s"] > 0
