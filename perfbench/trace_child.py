"""Run one rootspin CLI command with spans around its layers.

Usage: python3 perfbench/trace_child.py <rootspin CLI arguments...>

Each public function is wrapped at the module attribute its caller looks
up (``cli`` and ``certs`` import ``positive_roots`` by name, ``sigsum``
looks up ``hnf`` as a module global, and so on), so the program runs
unchanged apart from the wrappers.  When the command exits, the spans go
to stderr as one line: ``perfbench-spans <json>``.  Each span has a name,
its parent's index, start and end times and the work counters taken from
its arguments and result.  tracemalloc runs only inside the
``sigsum.count_mitm`` span, because it slows the pure-Python layers.
"""

from __future__ import annotations

import json
import sys
import time
import tracemalloc

import numpy

from rootspin import _kernels, certs, cli, sigsum

MARKER = "perfbench-spans "

_spans: list[dict] = []
_stack: list[int] = []
_probes: set[str] = set()


def _wrap(name, fn, counters=None, malloc=False):
    def traced(*args, **kwargs):
        span = {"name": name, "parent": _stack[-1] if _stack else -1, "counters": {}}
        _stack.append(len(_spans))
        _spans.append(span)
        if malloc:
            tracemalloc.start()
        span["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            _stack.pop()
            if malloc:
                span["counters"]["traced_peak_bytes"] = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
        if counters is not None:
            span["counters"].update(counters(args, result))
        return result

    return traced


class _CountingNumpy:
    """Stand-in for ``sigsum.np`` during a join: records the key-set sizes."""

    def __init__(self):
        self.distinct: list[int] = []
        self.matched = 0

    def __getattr__(self, name):
        return getattr(numpy, name)

    def unique(self, *args, **kwargs):
        out = numpy.unique(*args, **kwargs)
        self.distinct.append(len(out[0] if isinstance(out, tuple) else out))
        return out

    def intersect1d(self, *args, **kwargs):
        out = numpy.intersect1d(*args, **kwargs)
        self.matched += len(out[0] if isinstance(out, tuple) else out)
        return out


def _probe_join(fn):
    """Count the join's keys on the enclosing span, without a span of its own.

    The join's time stays in ``sigsum.count_mitm``'s self time.
    """

    def probed(*args, **kwargs):
        _probes.add("sigsum.join")
        counting = sigsum.np = _CountingNumpy()
        try:
            return fn(*args, **kwargs)
        finally:
            sigsum.np = numpy
            counters = _spans[_stack[-1]]["counters"]
            for key, value in (
                ("join_distinct_keys", sum(counting.distinct)),
                ("join_left_keys", counting.distinct[0] if counting.distinct else 0),
                ("join_matched_keys", counting.matched),
            ):
                counters[key] = counters.get(key, 0) + value

    return probed


def install() -> None:
    """Replace each traced function at the attribute its callers look up."""
    cli.positive_roots = _wrap("rootsys.positive_roots", cli.positive_roots)
    certs.positive_roots = _wrap("rootsys.positive_roots", certs.positive_roots)
    cli.build_report = _wrap("cli.build_report", cli.build_report)
    cli.invariant_dimension = _wrap(
        "spinor.invariant_dimension",
        cli.invariant_dimension,
        lambda args, _: {"rotation_terms": args[0].r << args[0].r},
    )
    certs.certificate = _wrap("certs.certificate", certs.certificate)
    certs.verify_report = _wrap("certs.verify_report", certs.verify_report)
    sigsum.obstruction_2L = _wrap("sigsum.obstruction_2L", sigsum.obstruction_2L)
    sigsum.hnf = _wrap(
        "sigsum.hnf",
        sigsum.hnf,
        lambda args, basis: {"vectors_in": len(args[0]), "basis_out": len(basis.columns)},
    )
    sigsum.count_bruteforce = _wrap("sigsum.count_bruteforce", sigsum.count_bruteforce)
    sigsum.count_mitm = _wrap(
        "sigsum.count_mitm",
        sigsum.count_mitm,
        lambda _, result: {"memory_estimate_bytes": result.memory_peak or 0},
        malloc=True,
    )
    sigsum._join_counts = _probe_join(sigsum._join_counts)
    _kernels.count_zero_full = _wrap(
        "kernels.count_zero_full",
        _kernels.count_zero_full,
        lambda args, _: {"brute_signs": 1 << args[0].shape[0]},
    )
    _kernels.key_packing = _wrap("kernels.key_packing", _kernels.key_packing)
    _kernels.signed_sum_keys = _wrap(
        "kernels.signed_sum_keys",
        _kernels.signed_sum_keys,
        lambda _, keys: {"keys_built": len(keys)},
    )


def main(argv: list[str]) -> None:
    install()
    try:
        cli.main(args=argv, prog_name="rootspin")
    finally:
        sys.stdout.flush()
        sys.stderr.write(MARKER + json.dumps({"spans": _spans, "probes": sorted(_probes)}) + "\n")
        sys.stderr.flush()


if __name__ == "__main__":
    main(sys.argv[1:])
